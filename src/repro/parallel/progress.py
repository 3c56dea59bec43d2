"""Progress multiplexing: worker ``on_epoch`` reports back to the caller.

Worker processes can't call the caller's
:class:`~repro.obs.progress.ProgressCallback` directly, so each task
gets a :class:`QueueProgress` shim that pushes ``(view, epoch, total,
loss)`` tuples onto a multiprocessing queue; a :class:`ProgressDrain`
thread on the caller side pops them and forwards to the real callback.
The thread backend shares an address space, so there the same shim pair
degenerates to a lock around the callback (reports from concurrent
tasks must not interleave inside a non-reentrant sink).

Stage accounting: a worker can't contribute to the caller's span stack
either, so tasks *measure* their wall time and the caller records it
via :func:`record_stage_observation` under the same
``stage.embedding.<view>.*`` metric names ``trace()`` would have used —
the timing table and snapshots keep one schema across serial and
parallel runs, and the per-view entries still sit under the enclosing
``embedding`` span the pipeline opens.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.obs.tracing import STAGE_METRIC_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.queues import Queue

    from repro.obs.progress import ProgressCallback

    ReportQueue = Queue[tuple[str, int, int, float]]

__all__ = [
    "QueueProgress",
    "LockedProgress",
    "ProgressDrain",
    "record_stage_observation",
]

_SENTINEL = ("__drain_stop__", 0, 0, 0.0)


class QueueProgress:
    """Worker-side shim: forwards reports into a queue as plain tuples."""

    __slots__ = ("_queue", "_view")

    def __init__(self, report_queue: "ReportQueue", view: str) -> None:
        self._queue = report_queue
        self._view = view

    def on_epoch(self, epoch: int, total: int, loss: float) -> None:
        """Enqueue one report (never raises into the training loop)."""
        try:
            self._queue.put((self._view, epoch, total, loss))
        except Exception:  # pragma: no cover - queue torn down mid-run
            pass


class LockedProgress:
    """Thread-backend shim: serializes calls into a shared callback."""

    __slots__ = ("_callback", "_lock")

    def __init__(self, callback: "ProgressCallback") -> None:
        self._callback = callback
        self._lock = threading.Lock()

    def on_epoch(self, epoch: int, total: int, loss: float) -> None:
        """Forward one report under the lock."""
        with self._lock:
            self._callback.on_epoch(epoch, total, loss)


class ProgressDrain:
    """Caller-side thread that pumps queued reports into a callback.

    Use as a context manager around the parallel run::

        with ProgressDrain(mp_queue, progress):
            ... submit tasks, wait for results ...

    Exit stops the pump after the queue empties, so reports sent before
    the last task finished are never dropped; after a failed run the
    pump is left behind unjoined.
    """

    def __init__(
        self,
        report_queue: "ReportQueue",
        callback: "ProgressCallback | None",
        *,
        on_report: Callable[[str, int, int, float], None] | None = None,
    ) -> None:
        self._queue = report_queue
        self._callback = callback
        self._on_report = on_report
        self._thread = threading.Thread(
            target=self._pump, name="repro-progress-drain", daemon=True
        )

    def _pump(self) -> None:
        while True:
            try:
                view, epoch, total, loss = self._queue.get()
            except (EOFError, OSError):  # pragma: no cover - queue closed
                return
            if (view, epoch, total, loss) == _SENTINEL:
                return
            if self._on_report is not None:
                self._on_report(view, epoch, total, loss)
            if self._callback is not None:
                try:
                    self._callback.on_epoch(epoch, total, loss)
                except Exception:  # pragma: no cover - sink must not kill run
                    pass

    def __enter__(self) -> "ProgressDrain":
        self._thread.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        try:
            self._queue.put(_SENTINEL)
        except Exception:  # pragma: no cover - queue torn down
            return
        if exc_type is not None:
            # A failed batch's late reports do not matter, and a worker
            # killed mid-write can leave the pump waiting on a torn
            # message: leave the daemon pump behind instead of joining.
            return
        self._thread.join(timeout=10.0)


def record_stage_observation(
    name: str,
    seconds: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record a stage timing measured elsewhere (a worker process).

    Writes the same ``stage.<name>.seconds`` histogram and
    ``stage.<name>.calls`` counter a ``trace(name)`` block would have,
    so downstream consumers (timing table, snapshots, the bench
    harness) see one schema regardless of where the stage ran.
    """
    registry = registry if registry is not None else default_registry()
    registry.histogram(
        f"{STAGE_METRIC_PREFIX}{name}.seconds", DEFAULT_TIME_BUCKETS
    ).observe(seconds)
    registry.counter(f"{STAGE_METRIC_PREFIX}{name}.calls").inc()
