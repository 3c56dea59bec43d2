"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect-long --seed 7 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``detect-long``  checkpointed pipeline on the first 110k records of a
  40-host campus;
* ``serve-mixed``  ``repro-dns serve`` under open-loop keep-alive load
  with hot reloads;
* ``detect-wide``  the same pipeline on a 250-host, 1-day campus; not in
  BENCHMARK.json (too noisy for the run budget), for runs by hand.

Everything printed before the last line is for people: the machine
record, the output checks and the run's counts. The last line is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("detect-wide", "detect-long", "serve-mixed")


def blas_record() -> dict:
    """OpenBLAS version and thread count as numpy reports them."""
    import ctypes
    import glob

    import numpy as np

    info: dict = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": config.get("name"), "version": config.get("version")}
    except Exception as exc:  # numpy without the dict form
        info = {"error": str(exc)}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                break
    return info


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_record(seed: int, cpus: int) -> dict:
    import numpy as np

    return {
        "nproc": cpus,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cpus = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(json.dumps({"machine": machine_record(args.seed, cpus)}), flush=True)
        traced = bool(args.trace)
        if args.workload == "serve-mixed":
            import serve_workload

            outcome = serve_workload.run(
                args.seed, args.seconds, traced, work, env, BENCH_DIR, cpus
            )
        else:
            import detect_workload

            outcome = detect_workload.run(
                args.workload, args.seed, args.seconds, traced, work, env, BENCH_DIR
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    section = "per_layer" if traced else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    values = outcome["layers"] if traced else outcome["metrics"]
    # Per-layer metrics of layers the workload does not exercise are 0:
    # serve-mixed does no embedding, the detect workloads serve no HTTP.
    missing = 0.0 if traced else math.nan
    metrics = {
        name: {"value": float(values.get(name, missing)), "unit": unit}
        for name, unit in wanted.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = bool(outcome["checks"]) and all(outcome["checks"].values()) and finite
    print(json.dumps({"checks": outcome["checks"], "notes": outcome["notes"]}))
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
