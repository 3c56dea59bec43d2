"""Micro-batching: coalesce concurrent small score requests into one
vectorized call.

The scorer's cost model strongly favors batches — one vocabulary
gather, one BLAS decision-function call — but production traffic
arrives as many concurrent *single-domain* requests. The
:class:`MicroBatcher` bridges the two shapes: concurrent
:meth:`~MicroBatcher.submit` calls within a small window (default 2 ms)
are concatenated, flushed through **one** backend call, and the results
sliced back to each caller in submission order.

Design (leader/follower, no background thread):

* the first submitter to find no open batch becomes the **leader**: it
  waits up to ``window_seconds`` (cut short the moment the batch hits
  ``max_batch`` domains), seals the batch, runs the flush callable, and
  publishes the results;
* later submitters are **followers**: they append their domains and
  block on the batch's completion event;
* a flush failure propagates to *every* caller in the batch — no caller
  can silently receive another request's verdicts.

Because the flush receives the concatenation in arrival order and each
caller gets back exactly its contiguous slice, micro-batched results
are the same bytes a direct ``score_batch`` call over that
concatenation would produce. They may differ in the last bit from
scoring one caller's request alone: the BLAS path of the decision
function depends on the batch shape.

The flush callable returns ``(context, results)`` where ``results`` has
one entry per submitted domain; ``context`` rides along unchanged (the
scoring service uses it for the model version the batch was scored on,
so every caller in a batch reports a consistent version even across a
concurrent hot reload).
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, Sequence, TypeVar

from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["MicroBatcher"]

C = TypeVar("C")
R = TypeVar("R")

#: Bucket bounds for the batch-size histogram (domains per flush).
_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class _Batch(Generic[C, R]):
    """One forming/in-flight batch (internal)."""

    __slots__ = ("domains", "full", "done", "context", "results", "error")

    def __init__(self) -> None:
        self.domains: list[str] = []
        self.full = threading.Event()
        self.done = threading.Event()
        self.context: C | None = None
        self.results: Sequence[R] | None = None
        self.error: BaseException | None = None


class MicroBatcher(Generic[C, R]):
    """Coalesces concurrent submissions into bounded batched flushes.

    Args:
        flush: Called with the concatenated domain list of one sealed
            batch; must return ``(context, results)`` with exactly one
            result per domain. Exceptions propagate to every caller in
            the batch.
        window_seconds: How long the leader holds the batch open for
            followers (> 0).
        max_batch: Seal-and-flush threshold; a batch never exceeds it
            unless a *single* submission is already larger (that
            submission flushes alone, still in one call).
        metrics: Registry for batching metrics (process default when
            omitted).
    """

    def __init__(
        self,
        flush: Callable[[list[str]], tuple[C, Sequence[R]]],
        window_seconds: float = 0.002,
        max_batch: int = 256,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = flush
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._open: _Batch[C, R] | None = None
        registry = metrics if metrics is not None else default_registry()
        self._flushes = registry.counter("serve.batch.flushes")
        self._coalesced = registry.counter("serve.batch.coalesced")
        self._size_histogram = registry.histogram(
            "serve.batch.size", buckets=_SIZE_BUCKETS
        )

    def submit(self, domains: Sequence[str]) -> tuple[C, list[R]]:
        """Score ``domains`` through the current (or a new) batch.

        Blocks until the batch containing these domains has flushed;
        returns the flush context and this submission's results, in
        input order.
        """
        if not domains:
            raise ValueError("submit() requires at least one domain")
        with self._lock:
            batch = self._open
            if batch is None:
                batch = _Batch()
                self._open = batch
                leader = True
            else:
                leader = False
                self._coalesced.inc()
            offset = len(batch.domains)
            batch.domains.extend(domains)
            if len(batch.domains) >= self.max_batch:
                # Seal: wake the leader early and stop new joins.
                batch.full.set()
                if self._open is batch:
                    self._open = None
        if leader:
            batch.full.wait(self.window_seconds)
            with self._lock:
                # No appends can happen once the batch leaves _open.
                if self._open is batch:
                    self._open = None
            try:
                context, results = self._flush(batch.domains)
                if len(results) != len(batch.domains):
                    raise RuntimeError(
                        f"flush returned {len(results)} results for "
                        f"{len(batch.domains)} domains"
                    )
                batch.context = context
                batch.results = results
                self._flushes.inc()
                self._size_histogram.observe(len(batch.domains))
            except BaseException as exc:
                batch.error = exc
            finally:
                batch.done.set()
        else:
            batch.done.wait()
        if batch.error is not None:
            raise batch.error
        results_all = batch.results
        assert results_all is not None  # set whenever error is None
        # batch.context is C | None only because the slot predates the
        # flush; an error-free batch always carries the flush's context.
        return batch.context, list(  # type: ignore[return-value]
            results_all[offset:offset + len(domains)]
        )
