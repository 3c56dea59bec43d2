"""In-memory span recording around calls into the program's layers.

Only the benchmark's own processes use this: the traced detect child
and the service launcher wrap public functions of the program with
:meth:`SpanRecorder.wrap`, keep every span in memory, and write them
out once when the run ends. :func:`vm_hwm_mb` reads the peak memory
of the process it runs in. Nothing here is imported by the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable


def vm_hwm_mb() -> float:
    """This process's peak resident set, from ``VmHWM``, in MiB.

    ``ru_maxrss`` is not used: it can carry a parent's peak across exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class SpanRecorder:
    """Collects ``(id, parent, name, start, end, request)`` spans.

    The parent of a span is the innermost span open on the same thread
    when it starts. ``request`` groups the spans of one request: a
    top-level span starts a new request id and its descendants inherit
    it.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (None, next(self._requests))
        stack.append((span_id, request))
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "request": request,
                    }
                )

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, original, *args, **kwargs)

        setattr(owner, attribute, wrapper)

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON list."""
        with self._lock:
            spans = list(self.spans)
        path.write_text(json.dumps(spans), encoding="utf-8")
