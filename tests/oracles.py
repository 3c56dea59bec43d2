"""Test-only reference implementations the production code is checked against.

Neither is reachable from ``repro``; they exist so the parity suites
have a plain, readable statement of the math to compare the optimized
paths with.

* :func:`solve_smo_dense` / :class:`DenseSvm` — SMO with
  maximal-violating-pair selection over one precomputed n x n Gram
  matrix. The row-cached shrinking solver in :mod:`repro.ml.svm` must
  reach the same decision function (``tests/test_svm_solvers.py``,
  ``tests/test_svm_advanced.py``).
* :func:`train_order_add_at` / :func:`train_line_add_at` — the LINE
  training loop this repo started with, one ``np.add.at`` scatter per
  negative sample. It draws a different random stream than the fused
  segment kernel in :mod:`repro.embedding.kernels`, so the two agree
  on downstream quality, not bit for bit
  (``tests/test_integration_end_to_end.py``).
"""

from __future__ import annotations

import numpy as np

from repro.embedding.alias import AliasSampler
from repro.embedding.kernels import _SCORE_CLIP, _resolve_batch_size
from repro.embedding.line import LineConfig, LineEmbedding, _finalize_vectors
from repro.graphs.projection import SimilarityGraph
from repro.ml.svm import _TAU, SmoResult, SupportVectorClassifier, _bias_from_alpha
from repro.parallel.partition import plan_line_tasks


def solve_smo_dense(
    kernel_matrix: np.ndarray,
    labels: np.ndarray,
    c: float,
    tolerance: float,
    max_iterations: int,
) -> SmoResult:
    """Dense SMO: min 1/2 a^T Q a - e^T a, 0 <= a <= C, y^T a = 0.

    Maximal-violating-pair selection over the full precomputed kernel
    matrix. The gradient update multiplies the kernel column by the
    label signs directly (sign flips are exact in IEEE float), so no
    n x n sign matrix is ever allocated.
    """
    n = labels.size
    alpha = np.zeros(n)
    # gradient of the dual objective: G = Q a - e; starts at -e.
    gradient = -np.ones(n)

    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        # I_up: y=+1 & a<C, or y=-1 & a>0; I_low symmetric.
        up_mask = ((labels > 0) & (alpha < c - _TAU)) | (
            (labels < 0) & (alpha > _TAU)
        )
        low_mask = ((labels > 0) & (alpha > _TAU)) | (
            (labels < 0) & (alpha < c - _TAU)
        )
        if not up_mask.any() or not low_mask.any():
            converged = True
            break
        scores = -labels * gradient
        up_scores = np.where(up_mask, scores, -np.inf)
        low_scores = np.where(low_mask, scores, np.inf)
        i = int(np.argmax(up_scores))
        j = int(np.argmin(low_scores))
        gap = up_scores[i] - low_scores[j]
        if gap < tolerance:
            converged = True
            break

        # Analytic update along the direction (alpha_i += y_i t,
        # alpha_j -= y_j t), which keeps y^T alpha constant. The curvature
        # along it is eta = K_ii + K_jj - 2 K_ij for either label pairing.
        eta = max(
            kernel_matrix[i, i] + kernel_matrix[j, j] - 2.0 * kernel_matrix[i, j],
            _TAU,
        )
        delta = gap / eta

        old_i, old_j = alpha[i], alpha[j]
        max_step_i = (c - old_i) if labels[i] > 0 else old_i
        max_step_j = old_j if labels[j] > 0 else (c - old_j)
        step = min(delta, max_step_i, max_step_j)
        alpha[i] = old_i + labels[i] * step
        alpha[j] = old_j - labels[j] * step

        # Incremental gradient update: G += Q[:, i] dai + Q[:, j] daj,
        # with Q[:, t] = y y_t K[:, t].
        delta_alpha_i = alpha[i] - old_i
        delta_alpha_j = alpha[j] - old_j
        gradient += labels * (labels[i] * delta_alpha_i) * kernel_matrix[:, i]
        gradient += labels * (labels[j] * delta_alpha_j) * kernel_matrix[:, j]

    decision_without_bias = (alpha * labels) @ kernel_matrix
    bias = _bias_from_alpha(alpha, labels, decision_without_bias, c)
    return SmoResult(alpha=alpha, bias=bias, iterations=iterations, converged=converged)


class DenseSvm(SupportVectorClassifier):
    """A :class:`SupportVectorClassifier` fitted by :func:`solve_smo_dense`.

    Only ``fit`` differs, so a parity check compares the two solvers
    through the same decision function.
    """

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DenseSvm":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        classes = np.unique(labels)
        if classes.size != 2:
            raise ValueError(
                f"binary classifier needs exactly 2 classes, got {classes.size}"
            )
        signed = np.where(labels == classes[1], 1.0, -1.0)
        result = solve_smo_dense(
            self._kernel_function(features, features),
            signed,
            self.c,
            self.tolerance,
            self.max_iterations,
        )
        self.iterations_ = result.iterations
        self.converged_ = result.converged
        support = result.alpha > _TAU
        self._classes = classes
        self._support_vectors = features[support]
        self._support_coefficients = result.alpha[support] * signed[support]
        self._bias = result.bias
        return self


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(scores, -_SCORE_CLIP, _SCORE_CLIP)))


def train_order_add_at(
    sources: np.ndarray,
    targets: np.ndarray,
    edge_sampler: AliasSampler,
    noise_sampler: AliasSampler,
    node_count: int,
    dimension: int,
    use_context: bool,
    config: LineConfig,
    rng: np.random.Generator,
    total_samples: int,
) -> np.ndarray:
    """One proximity order, one ``np.add.at`` scatter per negative.

    Trains on the graph's edge arrays as-is and flips orientation per
    sample. Context updates apply eagerly between negatives (each
    negative's gather sees the previous scatter), where the segment
    kernel computes a whole batch from its start-of-batch snapshot.
    """
    vertex = (rng.uniform(-0.5, 0.5, size=(node_count, dimension))) / dimension
    context = (
        np.zeros((node_count, dimension))
        if use_context
        else vertex  # first order: both sides share the same table
    )
    table = context if use_context else vertex

    drawn = 0
    batch_size = _resolve_batch_size(config.batch_size, node_count)
    while drawn < total_samples:
        batch = min(batch_size, total_samples - drawn)
        lr = config.initial_lr * max(1e-4, 1.0 - drawn / total_samples)
        edge_ids = edge_sampler.sample(batch, rng)
        # Random orientation: undirected edges act as two directed ones.
        flip = rng.uniform(size=batch) < 0.5
        u = np.where(flip, targets[edge_ids], sources[edge_ids])
        v = np.where(flip, sources[edge_ids], targets[edge_ids])

        # Positive pairs: label 1.
        pos_coeff = (
            _sigmoid(np.einsum("ij,ij->i", vertex[u], context[v])) - 1.0
        ) * lr
        grad_u = pos_coeff[:, None] * context[v]
        np.add.at(table, v, -pos_coeff[:, None] * vertex[u])

        # Negative pairs: label 0, drawn from the noise distribution.
        for __ in range(config.negatives):
            neg = noise_sampler.sample(batch, rng)
            neg_coeff = (
                _sigmoid(np.einsum("ij,ij->i", vertex[u], context[neg])) * lr
            )
            grad_u += neg_coeff[:, None] * context[neg]
            np.add.at(table, neg, -neg_coeff[:, None] * vertex[u])

        np.add.at(vertex, u, -grad_u)
        drawn += batch
    return vertex


def train_line_add_at(
    graph: SimilarityGraph, config: LineConfig | None = None
) -> LineEmbedding:
    """``train_line`` with :func:`train_order_add_at` as the inner loop.

    Same task plan (per-order seeds, sample budget, dimension split) and
    the same ``normalize``/``vector_scale`` post-processing, so only the
    inner loop differs from the production path.
    """
    config = config or LineConfig()
    config.validate()
    edge_sampler = AliasSampler(np.asarray(graph.weights, dtype=np.float64))
    degrees = graph.degree_array()
    noise_sampler = AliasSampler(np.power(np.maximum(degrees, 1e-12), 0.75))
    vectors = np.empty((graph.node_count, config.dimension))
    for task in plan_line_tasks(graph.kind, graph.edge_count, config):
        vectors[:, task.column : task.column + task.dimension] = (
            train_order_add_at(
                graph.rows, graph.cols, edge_sampler, noise_sampler,
                graph.node_count, task.dimension, task.use_context, config,
                np.random.default_rng(task.seed), task.total_samples,
            )
        )
    return LineEmbedding(
        kind=graph.kind,
        domains=list(graph.domains),
        vectors=_finalize_vectors(vectors, config),
        config=config,
    )
