"""Parallel multi-view LINE training orchestration.

:func:`train_views` is the single entry point the pipeline (all three
behavioral views at once) and :func:`~repro.embedding.line.train_line`
(one view) drive. It:

1. plans the independent single-order tasks (:mod:`.partition`);
2. resolves the backend (:class:`~repro.parallel.executor.ParallelConfig`
   fallback rules) — the serial path simply runs ``train_line`` per view
   under the usual ``trace()`` spans, so a degraded run is *exactly* the
   sequential pipeline;
3. for pool backends, builds the alias tables once in the caller, ships
   them (and the edge arrays) through shared memory (:mod:`.shm`),
   multiplexes worker progress through a queue (:mod:`.progress`), and
   reassembles per-view matrices from whichever order results land in.

Determinism contract: a task's generator stream depends only on the
view config's seed and the task's position in the plan — never on the
backend, worker count, or completion order — so serial, thread, and
process runs produce byte-identical embeddings for the same seed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.embedding.alias import AliasSampler
from repro.embedding.kernels import prepare_edge_arrays, train_order_segment
from repro.embedding.line import (
    LineConfig,
    LineEmbedding,
    _finalize_vectors,
    _record_training_metrics,
    train_line,
)
from repro.errors import EmbeddingError
from repro.graphs.projection import SimilarityGraph
from repro.obs.logging import get_logger
from repro.obs.tracing import trace
from repro.parallel.executor import ParallelConfig, run_tasks
from repro.parallel.partition import (
    EmbeddingTask,
    plan_view_tasks,
    schedule_order,
)
from repro.parallel.progress import (
    LockedProgress,
    ProgressDrain,
    QueueProgress,
    record_stage_observation,
)
from repro.parallel.shm import ArrayPack, ArrayPackSpec, open_pack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.progress import ProgressCallback
    from repro.parallel.progress import ReportQueue

__all__ = ["train_views"]

_log = get_logger(__name__)

# Set by the pool initializer in process workers; holds the progress
# report queue (None when the caller passed no progress callback).
_WORKER_QUEUE: "ReportQueue | None" = None


def _init_worker(report_queue: "ReportQueue") -> None:
    """Pool initializer: stash the progress queue in the worker."""
    global _WORKER_QUEUE
    _WORKER_QUEUE = report_queue


def _run_embedding_task(
    task: EmbeddingTask,
    spec: ArrayPackSpec,
    node_count: int,
    progress: "ProgressCallback | None" = None,
) -> tuple[int, np.ndarray, float]:
    """Worker entry: train one order, return (task_id, vectors, seconds).

    Picklable top-level function. ``progress`` is the in-process shim
    for thread/serial backends; process workers build a queue shim from
    the initializer-provided queue instead.
    """
    if progress is None and _WORKER_QUEUE is not None:
        progress = QueueProgress(_WORKER_QUEUE, task.view)
    with open_pack(spec) as arrays:
        edge_sampler = AliasSampler.from_tables(
            arrays["edge_prob"], arrays["edge_alias"]
        )
        noise_sampler = AliasSampler.from_tables(
            arrays["noise_prob"], arrays["noise_alias"]
        )
        rng = np.random.default_rng(task.seed)
        started = time.perf_counter()
        vectors = train_order_segment(
            arrays["sources"],
            arrays["targets"],
            edge_sampler,
            noise_sampler,
            node_count,
            task.dimension,
            task.use_context,
            task.config,
            rng,
            task.total_samples,
            progress,
            task.epoch_offset,
            task.epoch_total,
        )
        elapsed = time.perf_counter() - started
    return task.task_id, vectors, elapsed


def _view_arrays(graph: SimilarityGraph) -> dict[str, np.ndarray]:
    """The read-only arrays one view's tasks share (tables prebuilt).

    The edge arrays and the edge alias table are laid out by
    :func:`repro.embedding.kernels.prepare_edge_arrays` (pre-doubled
    orientation) in the caller, so workers train on exactly the bytes
    the serial path would use.
    """
    sources, targets, sample_weights = prepare_edge_arrays(
        graph.rows, graph.cols, graph.weights
    )
    edge_sampler = AliasSampler(sample_weights)
    degrees = graph.degree_array()
    noise_sampler = AliasSampler(np.power(np.maximum(degrees, 1e-12), 0.75))
    return {
        "sources": np.ascontiguousarray(sources),
        "targets": np.ascontiguousarray(targets),
        "edge_prob": edge_sampler.probabilities,
        "edge_alias": edge_sampler.aliases,
        "noise_prob": noise_sampler.probabilities,
        "noise_alias": noise_sampler.aliases,
    }


def train_views(
    views: Sequence[tuple[str, SimilarityGraph, LineConfig]],
    parallel: ParallelConfig,
    progress: "ProgressCallback | None" = None,
) -> dict[str, LineEmbedding]:
    """Train LINE over several views under one parallel policy.

    Args:
        views: ``(key, graph, config)`` triples; keys name the views in
            the returned dict and in progress/metric labels.
        parallel: Worker/backend policy; its fallback rules may resolve
            the whole run to serial execution.
        progress: Optional :class:`repro.obs.ProgressCallback`; receives
            the union of all views' reports (interleaved across views
            when they train concurrently).

    Returns:
        ``{key: LineEmbedding}`` — byte-identical to sequential
        ``train_line`` calls with the same configs.
    """
    for __, graph, config in views:
        config.validate()
        if graph.node_count == 0:
            raise EmbeddingError(
                f"cannot embed empty graph (kind={graph.kind!r})"
            )

    tasks = plan_view_tasks(views)
    backend = parallel.resolved_backend(sum(t.weight for t in tasks))
    if backend == "serial" or not tasks:
        embeddings: dict[str, LineEmbedding] = {}
        for key, graph, config in views:
            with trace(f"embedding.{key}") as span:
                embeddings[key] = train_line(graph, config, progress=progress)
            _log.debug(
                "view_embedded",
                view=key,
                nodes=graph.node_count,
                edges=graph.edge_count,
                seconds=span.elapsed,
                backend="serial",
            )
        return embeddings
    return _train_views_pooled(views, tasks, parallel, backend, progress)


def _train_views_pooled(
    views: Sequence[tuple[str, SimilarityGraph, LineConfig]],
    tasks: list[EmbeddingTask],
    parallel: ParallelConfig,
    backend: str,
    progress: "ProgressCallback | None",
) -> dict[str, LineEmbedding]:
    graphs = {key: graph for key, graph, __ in views}
    packs: dict[str, ArrayPack] = {}
    report_queue = None
    initializer = None
    initargs: tuple = ()
    thread_shim = None
    if progress is not None:
        if backend == "process":
            report_queue = multiprocessing.get_context("fork").Queue()
            initializer = _init_worker
            initargs = (report_queue,)
        else:
            thread_shim = LockedProgress(progress)

    try:
        for key, graph, __ in views:
            if graph.edge_count > 0:
                packs[key] = ArrayPack(
                    _view_arrays(graph), use_shm=backend == "process"
                )
        ordered = schedule_order(tasks)
        payloads = [
            (
                task,
                packs[task.view].spec,
                graphs[task.view].node_count,
                thread_shim,
            )
            for task in ordered
        ]
        started = time.perf_counter()
        drain: contextlib.AbstractContextManager[object] = (
            ProgressDrain(report_queue, progress)
            if report_queue is not None
            else contextlib.nullcontext()
        )
        with drain:
            outcomes = run_tasks(
                _run_embedding_task,
                payloads,
                parallel,
                backend=backend,
                initializer=initializer,
                initargs=initargs,
                label="embedding",
            )
        wall = time.perf_counter() - started
    except BaseException:
        if report_queue is not None:
            # A worker killed at the deadline may still hold the queue's
            # write lock, so its feeder thread must not be waited on.
            report_queue.cancel_join_thread()
        raise
    finally:
        for pack in packs.values():
            pack.close()
        if report_queue is not None:
            report_queue.close()
            report_queue.join_thread()

    by_id = {task_id: (vectors, elapsed) for task_id, vectors, elapsed in outcomes}
    embeddings: dict[str, LineEmbedding] = {}
    for key, graph, config in views:
        view_tasks = [t for t in tasks if t.view == key]
        if not view_tasks:  # edgeless: zero embedding, no training
            embeddings[key] = LineEmbedding(
                kind=graph.kind,
                domains=list(graph.domains),
                vectors=np.zeros((graph.node_count, config.dimension)),
                config=config,
            )
            continue
        vectors = np.empty((graph.node_count, config.dimension))
        view_seconds = 0.0
        view_samples = 0
        for task in view_tasks:
            part, elapsed = by_id[task.task_id]
            vectors[:, task.column : task.column + task.dimension] = part
            view_seconds += elapsed
            view_samples += task.total_samples
        _record_training_metrics(view_samples, view_seconds)
        record_stage_observation(f"embedding.{key}", view_seconds)
        _log.debug(
            "view_embedded",
            view=key,
            nodes=graph.node_count,
            edges=graph.edge_count,
            seconds=view_seconds,
            backend=backend,
        )
        embeddings[key] = LineEmbedding(
            kind=graph.kind,
            domains=list(graph.domains),
            vectors=_finalize_vectors(vectors, config),
            config=config,
        )
    _log.info(
        "views_trained",
        views=len(views),
        tasks=len(tasks),
        backend=backend,
        workers=parallel.resolved_workers(),
        seconds=wall,
    )
    return embeddings
