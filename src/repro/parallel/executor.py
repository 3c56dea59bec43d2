"""Task execution over ``concurrent.futures`` with deterministic seeding.

The parallel layer treats embedding work as a list of independent,
picklable *tasks*. :class:`ParallelConfig` decides how they run — in
process workers (the default for numpy-heavy training, which is mostly
GIL-bound Python bytecode between vectorized kernels), in threads, or
serially in the caller — and :func:`run_tasks` executes them with:

* **ordered collection** — results come back in submission order no
  matter which worker finished first;
* **failure surfacing** — a worker exception, pool crash, or timeout is
  re-raised in the caller as :class:`~repro.errors.EmbeddingError` with
  the original error chained;
* **one batch deadline** — ``timeout_seconds`` is measured once from
  submission; when it passes, pending tasks are cancelled, process
  workers are killed, and the caller gets the error without waiting
  for the stragglers (thread workers cannot be killed and are left to
  finish in the background);
* **automatic serial fallback** — ``workers=0``, a single resolved
  worker, a task set below ``min_parallel_weight``, or a platform
  without ``fork`` all degrade to the plain in-process loop.

Determinism is anchored here too: :func:`spawn_seeds` derives one
:class:`numpy.random.SeedSequence` child per task from the root seed, so
every backend hands workers *identical* generator streams and the
serial/parallel outputs are byte-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import EmbeddingError

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "run_tasks",
    "spawn_seeds",
    "fork_available",
]

BACKENDS = ("process", "thread", "serial")

# Below this total task weight (weights are LINE sample counts) the pool
# setup + pickling overhead exceeds the training time it hides.
_DEFAULT_MIN_PARALLEL_WEIGHT = 1_000_000


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(slots=True)
class ParallelConfig:
    """How (and whether) to parallelize embedding training.

    Attributes:
        workers: ``0`` — serial execution (the library default: a
            library must not ``fork`` a host process that may be
            multi-threaded); ``"auto"`` — one worker per CPU this
            process may run on; any positive int — that many workers.
        backend: ``"process"`` (default), ``"thread"``, or ``"serial"``.
            Process workers sidestep the GIL and are right for the
            numpy-heavy LINE loop; threads avoid pickling/shared-memory
            setup and suit debugging; ``"serial"`` forces the in-caller
            loop regardless of ``workers``.
        timeout_seconds: Deadline for the whole task batch, measured
            from submission; ``None`` waits forever. Exceeding it raises
            :class:`EmbeddingError` at the deadline: pending tasks are
            cancelled and process workers killed, while running
            thread workers (which cannot be killed) finish unobserved.
        min_parallel_weight: Task batches whose total weight (LINE edge
            samples) falls below this run serially — the work is too
            small to amortize worker startup. Set ``0`` to force
            parallel execution for any size.
    """

    workers: int | str = 0
    backend: str = "process"
    timeout_seconds: float | None = None
    min_parallel_weight: int = _DEFAULT_MIN_PARALLEL_WEIGHT

    def validate(self) -> None:
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise EmbeddingError(
                    f"workers must be 'auto' or an integer, got {self.workers!r}"
                )
        elif isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise EmbeddingError(
                f"workers must be 'auto' or an integer, got {self.workers!r}"
            )
        elif self.workers < 0:
            raise EmbeddingError("workers must be non-negative")
        if self.backend not in BACKENDS:
            raise EmbeddingError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise EmbeddingError("timeout_seconds must be positive")
        if self.min_parallel_weight < 0:
            raise EmbeddingError("min_parallel_weight must be non-negative")

    def resolved_workers(self) -> int:
        """The concrete worker count (``"auto"`` -> usable CPU count)."""
        if self.workers == "auto":
            # The CPUs this process may run on: os.cpu_count() counts the
            # machine's, and would size a pool for cores that taskset or
            # a restricted cpuset never grants.
            if hasattr(os, "sched_getaffinity"):
                return max(1, len(os.sched_getaffinity(0)))
            return max(1, os.cpu_count() or 1)
        return int(self.workers)

    def resolved_backend(self, total_weight: float | None = None) -> str:
        """The backend a run with this config actually uses.

        Falls back to ``"serial"`` when parallelism cannot help (0 or 1
        workers, tiny task batches) or cannot run safely (``"process"``
        without ``fork`` — spawn re-imports the world per worker, which
        costs more than it saves for our task sizes).
        """
        self.validate()
        if self.backend == "serial" or self.resolved_workers() <= 1:
            return "serial"
        if (
            total_weight is not None
            and total_weight < self.min_parallel_weight
        ):
            return "serial"
        if self.backend == "process" and not fork_available():
            return "serial"
        return self.backend


def spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent SeedSequence children derived from ``seed``.

    Children are statistically independent streams (the SeedSequence
    spawn tree), and the derivation is a pure function of ``seed`` and
    position — the anchor of the serial/parallel determinism contract.
    """
    return list(np.random.SeedSequence(seed).spawn(count))


def _make_pool(
    backend: str,
    workers: int,
    initializer: Callable[..., None] | None,
    initargs: tuple,
) -> Executor:
    if backend == "thread":
        return ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-parallel",
            initializer=initializer,
            initargs=initargs,
        )
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


def run_tasks(
    fn: Callable[..., Any],
    payloads: Sequence[tuple],
    config: ParallelConfig,
    *,
    backend: str | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    label: str = "tasks",
) -> list[Any]:
    """Run ``fn(*payload)`` for every payload; results in payload order.

    Args:
        fn: Top-level (picklable) task function.
        payloads: One argument tuple per task.
        config: Worker/backend/timeout policy.
        backend: Override the backend resolution (callers that already
            called :meth:`ParallelConfig.resolved_backend` pass it here
            so the decision is made exactly once).
        initializer / initargs: Forwarded to the pool — used to hand
            worker processes their progress queue.
        label: Human-readable batch name for error messages.

    Raises:
        EmbeddingError: A task raised, a worker died, or the batch
            timed out. The original failure is chained as ``__cause__``.
    """
    resolved = backend if backend is not None else config.resolved_backend()
    if resolved == "serial":
        if initializer is not None:
            initializer(*initargs)
        return [fn(*payload) for payload in payloads]

    workers = min(config.resolved_workers(), max(1, len(payloads)))
    pool = _make_pool(resolved, workers, initializer, initargs)
    try:
        deadline = (
            None
            if config.timeout_seconds is None
            else time.monotonic() + config.timeout_seconds
        )
        futures: list[Future] = [
            pool.submit(fn, *payload) for payload in payloads
        ]
        results: list[Any] = []
        for index, future in enumerate(futures):
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                results.append(future.result(timeout=remaining))
            except EmbeddingError:
                raise
            except (TimeoutError, FuturesTimeoutError) as exc:
                raise EmbeddingError(
                    f"{label}: batch timed out after "
                    f"{config.timeout_seconds}s (task {index} unfinished)"
                ) from exc
            except BaseException as exc:
                raise EmbeddingError(
                    f"{label}: task {index} failed in {resolved} worker: "
                    f"{exc}"
                ) from exc
    except BaseException:
        _abandon(pool)
        raise
    pool.shutdown(wait=True)
    return results


def _abandon(pool: Executor) -> None:
    """Give up on a failed or late batch without waiting for its tasks.

    Pending tasks are cancelled and process workers are killed, so the
    caller's error is not held back by stragglers. Thread workers cannot
    be killed: a running thread task finishes in the background and its
    result is dropped (the interpreter still waits for it at exit).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()
    for process in processes:
        process.join()
