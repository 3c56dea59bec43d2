"""LINE: Large-scale Information Network Embedding (Tang et al., WWW'15).

The paper (section 5) embeds each domain-similarity graph with LINE,
preserving first-order proximity (observed edge weights) and second-order
proximity (shared neighborhoods). This is a from-scratch reimplementation:

* edges are sampled with probability proportional to their weight via an
  alias table (edge sampling, section 5.2 of this paper / Tang et al.);
* negative vertices come from the degree^0.75 noise distribution of
  word2vec-style negative sampling;
* optimization is stochastic gradient descent with a linearly decaying
  learning rate, vectorized over minibatches — the numpy analogue of
  LINE's lock-free asynchronous updates. The inner loop
  (:mod:`repro.embedding.kernels`) runs a fused pass per minibatch
  with compiled segment-reduction scatters.

``order="both"`` trains first- and second-order embeddings of half the
requested dimension each and concatenates them, as in the LINE paper's
experiments.

Training decomposes into independent single-order *tasks* (planned by
:func:`repro.parallel.partition.plan_line_tasks`): each order draws its
generator from its own ``SeedSequence`` child of ``config.seed``, so the
orders share nothing and can run serially here or on workers via
``train_line(..., parallel=ParallelConfig(...))`` — with byte-identical
results either way (LINE's lock-free asynchronous updates, Tang et al.,
realized as task-level rather than row-level parallelism).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.embedding.alias import AliasSampler
from repro.embedding.kernels import (
    _REPORTS_PER_ORDER as _REPORTS_PER_ORDER,  # re-export: partition planning
    prepare_edge_arrays,
    train_order_segment,
)
from repro.errors import EmbeddingError
from repro.graphs.projection import SimilarityGraph
from repro.obs.metrics import default_registry
from repro.obs.progress import ProgressCallback

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.parallel.executor import ParallelConfig

__all__ = [
    "LineConfig",
    "LineEmbedding",
    "train_line",
]


@dataclass(slots=True)
class LineConfig:
    """Hyperparameters for LINE training.

    Attributes:
        dimension: Final embedding size per graph (the paper's k).
        order: ``"first"``, ``"second"``, or ``"both"``.
        negatives: Negative samples per positive edge (word2vec K).
        total_samples: Edge samples drawn during training; ``None``
            auto-scales with graph size.
        batch_size: Minibatch size for the vectorized SGD.
        initial_lr: Starting learning rate (decays linearly to ~0).
        normalize: L2-normalize the final vectors (recommended before
            SVM/RBF classification — raw LINE norms depend on degree).
        vector_scale: Radius the normalized vectors are placed at. Raw
            LINE output has norms of a few units; the paper's RBF kernel
            coefficient (gamma = 0.06) is calibrated for that magnitude,
            so normalized vectors are re-scaled to radius 4 by default
            (the median-heuristic operating point: gamma * E[d^2] ~ 1).
            Ignored when ``normalize`` is False.
        seed: RNG seed.
    """

    dimension: int = 32
    order: str = "both"
    negatives: int = 5
    total_samples: int | None = None
    batch_size: int = 4096
    initial_lr: float = 0.025
    normalize: bool = True
    vector_scale: float = 4.0
    seed: int = 13

    def validate(self) -> None:
        if self.dimension < 2:
            raise EmbeddingError("dimension must be at least 2")
        if self.order not in ("first", "second", "both"):
            raise EmbeddingError(f"unknown order {self.order!r}")
        if self.order == "both" and self.dimension % 2 != 0:
            raise EmbeddingError("order='both' needs an even dimension")
        if self.negatives < 1:
            raise EmbeddingError("negatives must be at least 1")
        if self.total_samples is not None and self.total_samples < 1:
            raise EmbeddingError(
                "total_samples must be at least 1 when set (use None to "
                "auto-scale with graph size)"
            )
        if self.batch_size < 1:
            raise EmbeddingError("batch_size must be at least 1")
        if self.initial_lr <= 0:
            raise EmbeddingError("initial_lr must be positive")
        if self.vector_scale <= 0:
            raise EmbeddingError("vector_scale must be positive")
        if isinstance(self.seed, bool) or not isinstance(
            self.seed, (int, np.integer)
        ):
            raise EmbeddingError(
                f"seed must be an integer, got {type(self.seed).__name__}"
            )

    def resolved_samples(self, edge_count: int) -> int:
        if self.total_samples is not None:
            return self.total_samples
        # Enough passes for small graphs, capped for big ones (quality
        # plateaus well before the cap empirically — doubling it moved
        # downstream AUC by < 0.005 on the default-scale trace).
        return int(min(max(edge_count * 60, 400_000), 15_000_000))


@dataclass(slots=True)
class LineEmbedding:
    """A trained embedding: row i of ``vectors`` embeds ``domains[i]``."""

    kind: str
    domains: list[str]
    vectors: np.ndarray
    config: LineConfig
    domain_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.domain_index:
            self.domain_index = {d: i for i, d in enumerate(self.domains)}

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def vector(self, domain: str) -> np.ndarray:
        """Embedding of ``domain``; zeros when the domain wasn't embedded.

        Domains can be absent from one view (e.g. NXDOMAIN-only domains
        never appear in the domain-IP graph); a zero vector encodes
        "no behavioral evidence in this view".
        """
        index = self.domain_index.get(domain)
        if index is None:
            return np.zeros(self.dimension)
        return self.vectors[index]

    def matrix(self, domain_order: list[str]) -> np.ndarray:
        """Stack vectors for ``domain_order`` (zeros for unknown domains)."""
        if self.vectors.shape[0] == 0:
            return np.zeros((len(domain_order), self.dimension))
        lookup = self.domain_index.get
        indices = np.fromiter(
            (lookup(domain, -1) for domain in domain_order),
            dtype=np.int64,
            count=len(domain_order),
        )
        # One fancy-index gather; unknown domains (-1, which gathered
        # the last row) are masked back to zero afterwards.
        out = self.vectors[indices]
        out[indices < 0] = 0.0
        return out


def _finalize_vectors(vectors: np.ndarray, config: LineConfig) -> np.ndarray:
    """Apply the ``normalize`` / ``vector_scale`` contract to raw output.

    Zero rows (domains with no sampled evidence) stay zero — they mean
    "no behavioral signal", and scaling them would invent one.
    """
    if not config.normalize:
        return vectors
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.where(
        norms > 1e-12, vectors / norms * config.vector_scale, vectors
    )


def _record_training_metrics(total_samples: int, elapsed: float) -> None:
    """Record one training run's ``line.*`` counters and throughput."""
    registry = default_registry()
    registry.counter("line.edges_sampled").inc(total_samples)
    registry.counter("line.trainings").inc()
    if elapsed > 0:
        registry.gauge("line.edges_per_sec").set(total_samples / elapsed)


def train_line(
    graph: SimilarityGraph,
    config: LineConfig | None = None,
    progress: ProgressCallback | None = None,
    parallel: "ParallelConfig | None" = None,
) -> LineEmbedding:
    """Embed a similarity graph with LINE.

    Args:
        graph: A weighted similarity graph from
            :func:`repro.graphs.projection.project_to_similarity`.
        config: Hyperparameters (defaults to :class:`LineConfig`).
        progress: Optional :class:`repro.obs.ProgressCallback`; receives
            ~10 ``on_epoch(epoch, total, loss)`` reports per trained
            order with the mean negative-sampling loss since the last
            report. ``None`` (the default) skips all loss bookkeeping.
        parallel: Optional :class:`repro.parallel.ParallelConfig`; when
            it resolves to a pool backend, ``order="both"`` trains its
            two orders on workers concurrently. Output is byte-identical
            to the serial path for the same seed (see
            ``docs/parallelism.md``).

    Returns:
        The trained :class:`LineEmbedding` over ``graph.domains``. The
        embedding echoes the *validated* config, so downstream consumers
        can trust its invariants (e.g. ``vector_scale`` only applies
        when ``normalize`` is set; zero vectors stay zero either way).

    Raises:
        EmbeddingError: for empty graphs or invalid hyperparameters.
    """
    from repro.parallel.partition import plan_line_tasks

    if config is None:
        config = LineConfig()
    config.validate()
    if graph.node_count == 0:
        raise EmbeddingError(f"cannot embed empty graph (kind={graph.kind!r})")
    if graph.edge_count == 0:
        # Degenerate but legal: all-zero embedding (no behavioral signal).
        return LineEmbedding(
            kind=graph.kind,
            domains=list(graph.domains),
            vectors=np.zeros((graph.node_count, config.dimension)),
            config=config,
        )

    tasks = plan_line_tasks(graph.kind, graph.edge_count, config)
    if parallel is not None:
        backend = parallel.resolved_backend(sum(t.weight for t in tasks))
        if backend != "serial":
            # Deferred import: repro.parallel.train imports this module.
            from repro.parallel.train import train_views

            return train_views([(graph.kind, graph, config)], parallel,
                               progress)[graph.kind]

    sources, targets, sample_weights = prepare_edge_arrays(
        graph.rows, graph.cols, graph.weights
    )
    edge_sampler = AliasSampler(sample_weights)
    degrees = graph.degree_array()
    noise_sampler = AliasSampler(np.power(np.maximum(degrees, 1e-12), 0.75))

    started = time.perf_counter()
    vectors = np.empty((graph.node_count, config.dimension))
    for task in tasks:
        vectors[:, task.column : task.column + task.dimension] = (
            train_order_segment(
                sources, targets, edge_sampler, noise_sampler,
                graph.node_count, task.dimension, task.use_context, config,
                np.random.default_rng(task.seed), task.total_samples,
                progress, task.epoch_offset, task.epoch_total,
            )
        )
    elapsed = time.perf_counter() - started
    _record_training_metrics(sum(t.total_samples for t in tasks), elapsed)

    return LineEmbedding(
        kind=graph.kind,
        domains=list(graph.domains),
        vectors=_finalize_vectors(vectors, config),
        config=config,
    )
