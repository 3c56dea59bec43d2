"""Launch ``repro-dns serve`` with the benchmark's spans around its layers.

Runs the CLI's ``serve`` entry point in this process, unchanged, after
optionally wrapping ``DomainScorer.score_batch``, ``ModelRegistry.load``
/ ``publish`` and ``ScoringService.reload`` in span recorders. Stop it
with SIGINT (the CLI's own shutdown path); on the way out it writes
``OUT_DIR/serve.json`` with its peak RSS and, when traced, every span.

Usage (``src`` and ``perfbench`` on ``PYTHONPATH``)::

    python perfbench/serve_child.py OUT_DIR [--spans] -- SERVE_ARGS...
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from repro import cli
from repro.serve.registry import ModelRegistry
from repro.serve.scorer import DomainScorer
from repro.serve.service import ScoringService
from spans import SpanRecorder, vm_hwm_mb


def main() -> int:
    # SIGINT is the stop signal; a parent started in the background may
    # have left it ignored, which exec inherits.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    out_dir = Path(sys.argv[1])
    split = sys.argv.index("--")
    traced = "--spans" in sys.argv[2:split]
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        recorder.wrap(DomainScorer, "score_batch", "scorer.score_batch")
        recorder.wrap(ModelRegistry, "load", "registry.load")
        recorder.wrap(ModelRegistry, "publish", "registry.publish")
        recorder.wrap(ScoringService, "reload", "service.reload")
    try:
        code = cli.main(["serve", *sys.argv[split + 1 :]])
    finally:
        report = {
            "peak_rss_mb": vm_hwm_mb(),
            "spans": recorder.spans if recorder is not None else [],
        }
        (out_dir / "serve.json").write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
