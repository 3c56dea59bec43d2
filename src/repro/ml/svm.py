"""Kernel SVM trained with Sequential Minimal Optimization.

The paper's classifier (section 6.2): an RBF-kernel SVM with penalty
C = 0.09 and kernel coefficient gamma = 0.06, whose decision rule is

    d(x) = sum_i a_i (2 y_i - 1) K(x_i, x) + b            (equation 7)

The dual is solved LIBSVM-style: second-order working-set selection
(WSS2, Fan/Chen/Lin 2005), kernel rows computed on demand through an
LRU :class:`~repro.ml.kernels.KernelRowCache` under a configurable
``kernel_cache_mb`` budget, periodic shrinking of bounded variables,
and a full-gradient reconstruction pass before the final optimality
check. Memory is O(cached_rows x n) instead of O(n^2). Fits emit
``svm.*`` metrics (fit seconds, cache hit ratio, shrink events) and
warn with :class:`ConvergenceWarning` when the iteration budget runs
out.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.errors import NotFittedError
from repro.ml.kernels import KERNEL_KINDS, KernelParams, KernelRowCache
from repro.obs.metrics import default_registry

_TAU = 1e-12

#: Default kernel-row cache budget (MiB) for the solver.
DEFAULT_CACHE_MB = 64.0


class ConvergenceWarning(UserWarning):
    """The SMO solver exhausted ``max_iterations`` before converging."""


@dataclass(slots=True)
class SmoResult:
    """Internal solver output."""

    alpha: np.ndarray
    bias: float
    iterations: int
    converged: bool
    shrink_events: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _bias_from_alpha(
    alpha: np.ndarray,
    labels: np.ndarray,
    decision_without_bias: np.ndarray,
    c: float,
) -> float:
    """Bias from free support vectors (fall back to bound average)."""
    free = (alpha > _TAU) & (alpha < c - _TAU)
    if free.any():
        return float(np.mean(labels[free] - decision_without_bias[free]))
    support = alpha > _TAU
    if support.any():
        return float(np.mean(labels[support] - decision_without_bias[support]))
    return 0.0


def _weighted_kernel_block(
    features: np.ndarray,
    params: KernelParams,
    row_indices: np.ndarray,
    col_indices: np.ndarray,
    weights: np.ndarray,
    budget_mb: float,
) -> np.ndarray:
    """``weights @ K[row_indices][:, col_indices]`` in bounded row blocks.

    Never materializes more than ``budget_mb`` of kernel entries at a
    time, so gradient reconstruction and bias computation stay within
    the cache budget the solver advertises.
    """
    out = np.zeros(col_indices.size)
    if row_indices.size == 0 or col_indices.size == 0:
        return out
    row_bytes = max(col_indices.size * 8, 8)
    # Kernel functions allocate ~3-4 temporaries of block size (norms,
    # product, exp), so cap the block at a quarter of the budget to keep
    # the whole pass within it.
    block = max(1, int(budget_mb * 1024 * 1024 / 4) // row_bytes)
    cols = features[col_indices]
    for start in range(0, row_indices.size, block):
        chunk = row_indices[start : start + block]
        kernel_block = params.matrix(features[chunk], cols)
        out += weights[start : start + block] @ kernel_block
    return out


def _decision_without_bias_at(
    features: np.ndarray,
    params: KernelParams,
    alpha: np.ndarray,
    labels: np.ndarray,
    indices: np.ndarray,
    budget_mb: float,
) -> np.ndarray:
    """sum_s alpha_s y_s K(x_s, x_t) for t in ``indices``."""
    support = np.flatnonzero(alpha > _TAU)
    return _weighted_kernel_block(
        features,
        params,
        support,
        indices,
        alpha[support] * labels[support],
        budget_mb,
    )


def _reconstruct_gradient(
    features: np.ndarray,
    params: KernelParams,
    labels: np.ndarray,
    alpha: np.ndarray,
    gradient: np.ndarray,
    active: np.ndarray,
    budget_mb: float,
) -> None:
    """Recompute stale gradient entries for every inactive variable.

    While the working set is shrunk only active entries of ``gradient``
    are maintained; before trusting a full-problem optimality check the
    inactive entries are rebuilt from scratch:
    G_t = y_t sum_s alpha_s y_s K(x_s, x_t) - 1.
    """
    n = labels.size
    mask = np.zeros(n, dtype=bool)
    mask[active] = True
    inactive = np.flatnonzero(~mask)
    if inactive.size == 0:
        return
    product = _decision_without_bias_at(
        features, params, alpha, labels, inactive, budget_mb
    )
    gradient[inactive] = labels[inactive] * product - 1.0


def _solve_smo_cached(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    tolerance: float,
    max_iterations: int,
    params: KernelParams,
    cache_mb: float = DEFAULT_CACHE_MB,
    shrink_interval: int | None = None,
) -> SmoResult:
    """Cached-kernel shrinking SMO with second-order pair selection.

    Per iteration: pick ``i`` maximizing the KKT violation over I_up,
    then pick ``j`` minimizing the
    second-order objective -b^2/a over eligible I_low members — which
    needs exactly one kernel row, served by the LRU cache. Every
    ``shrink_interval`` iterations bounded variables that can no longer
    form a violating pair leave the active set; when the active problem
    converges, the full gradient is reconstructed and optimality is
    re-verified over all variables before the solver reports success.
    """
    n = labels.size
    alpha = np.zeros(n)
    gradient = -np.ones(n)
    diag = params.diagonal(features)
    cache = KernelRowCache(features, params, cache_mb)
    active = np.arange(n)
    interval = shrink_interval if shrink_interval is not None else min(n, 1000)
    since_shrink = 0
    shrink_events = 0
    iterations = 0
    converged = False

    def _result() -> SmoResult:
        decision = _decision_without_bias_at(
            features, params, alpha, labels, np.arange(n), cache_mb
        )
        bias = _bias_from_alpha(alpha, labels, decision, c)
        return SmoResult(
            alpha=alpha,
            bias=bias,
            iterations=iterations,
            converged=converged,
            shrink_events=shrink_events,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
        )

    while iterations < max_iterations:
        iterations += 1
        active_labels = labels[active]
        active_alpha = alpha[active]
        scores = -active_labels * gradient[active]
        up = ((active_labels > 0) & (active_alpha < c - _TAU)) | (
            (active_labels < 0) & (active_alpha > _TAU)
        )
        low = ((active_labels > 0) & (active_alpha > _TAU)) | (
            (active_labels < 0) & (active_alpha < c - _TAU)
        )
        if not up.any() or not low.any():
            if active.size < n:
                _reconstruct_gradient(
                    features, params, labels, alpha, gradient, active, cache_mb
                )
                active = np.arange(n)
                since_shrink = 0
                continue
            converged = True
            break
        up_scores = np.where(up, scores, -np.inf)
        i_local = int(np.argmax(up_scores))
        g_max = float(up_scores[i_local])
        g_min = float(np.min(np.where(low, scores, np.inf)))
        if g_max - g_min < tolerance:
            if active.size < n:
                # Converged on the shrunk problem: reconstruct the full
                # gradient and re-check optimality over every variable.
                _reconstruct_gradient(
                    features, params, labels, alpha, gradient, active, cache_mb
                )
                active = np.arange(n)
                since_shrink = 0
                continue
            converged = True
            break

        if since_shrink >= interval and active.size > 2:
            since_shrink = 0
            at_lower = active_alpha <= _TAU
            at_upper = active_alpha >= c - _TAU
            only_low = (at_upper & (active_labels > 0)) | (
                at_lower & (active_labels < 0)
            )
            only_up = (at_upper & (active_labels < 0)) | (
                at_lower & (active_labels > 0)
            )
            drop = (only_low & (scores > g_max)) | (only_up & (scores < g_min))
            if drop.any() and int(drop.sum()) <= active.size - 2:
                active = active[~drop]
                shrink_events += 1
                continue

        i = int(active[i_local])
        row_i = cache.row(i)
        row_i_active = row_i[active]
        # WSS2: among eligible I_low partners, minimize -b^2/a where
        # b = g_max + y_t G_t > 0 and a = K_ii + K_tt - 2 K_it.
        curvature = np.maximum(diag[i] + diag[active] - 2.0 * row_i_active, _TAU)
        b_values = g_max - scores
        eligible = low & (scores < g_max)
        objective = np.where(
            eligible, -(b_values * b_values) / curvature, np.inf
        )
        j_local = int(np.argmin(objective))
        j = int(active[j_local])

        gap = float(b_values[j_local])
        eta = max(diag[i] + diag[j] - 2.0 * row_i[j], _TAU)
        delta = gap / eta
        old_i, old_j = alpha[i], alpha[j]
        max_step_i = (c - old_i) if labels[i] > 0 else old_i
        max_step_j = old_j if labels[j] > 0 else (c - old_j)
        step = min(delta, max_step_i, max_step_j)
        alpha[i] = old_i + labels[i] * step
        alpha[j] = old_j - labels[j] * step

        delta_alpha_i = alpha[i] - old_i
        delta_alpha_j = alpha[j] - old_j
        row_j = cache.row(j)
        gradient[active] += active_labels * (
            (labels[i] * delta_alpha_i) * row_i_active
            + (labels[j] * delta_alpha_j) * row_j[active]
        )
        since_shrink += 1

    return _result()


class SupportVectorClassifier:
    """Binary kernel SVM with the paper's defaults (RBF, C=0.09, γ=0.06).

    Labels may be any two values; internally they map to ±1 and
    :meth:`predict` returns the original values. :meth:`decision_function`
    returns signed distances d(x) (equation 7); thresholding them at values
    other than 0 trades precision against recall, which is how the ROC
    curves in section 8 are produced.

    Args:
        kernel_cache_mb: Kernel-row cache budget for the solver (MiB);
            also bounds the block size of the reconstruction and
            bias passes.
    """

    def __init__(
        self,
        c: float = 0.09,
        kernel: str = "rbf",
        gamma: float = 0.06,
        degree: int = 3,
        coef0: float = 1.0,
        tolerance: float = 1e-3,
        max_iterations: int = 200_000,
        kernel_cache_mb: float = DEFAULT_CACHE_MB,
    ) -> None:
        if c <= 0:
            raise ValueError("penalty parameter c must be positive")
        if kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if kernel_cache_mb <= 0:
            raise ValueError("kernel_cache_mb must be positive")
        self.c = c
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.kernel_cache_mb = kernel_cache_mb
        self._support_vectors: np.ndarray | None = None
        self._support_coefficients: np.ndarray | None = None
        self._bias = 0.0
        self._classes: np.ndarray | None = None
        self.iterations_: int | None = None
        self.converged_: bool | None = None
        self.shrink_events_: int = 0
        self.cache_hit_ratio_: float | None = None
        self.fit_seconds_: float | None = None

    def _kernel_params(self) -> KernelParams:
        return KernelParams(
            kind=self.kernel,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
        )

    def _kernel_function(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel_params().matrix(a, b)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "SupportVectorClassifier":
        """Train on (n x d) features and binary labels."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape[0] != features.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        classes = np.unique(labels)
        if classes.size != 2:
            raise ValueError(
                f"binary classifier needs exactly 2 classes, got {classes.size}"
            )
        self._classes = classes
        signed = np.where(labels == classes[1], 1.0, -1.0)

        started = time.perf_counter()
        result = _solve_smo_cached(
            features,
            signed,
            self.c,
            self.tolerance,
            self.max_iterations,
            self._kernel_params(),
            cache_mb=self.kernel_cache_mb,
        )
        elapsed = time.perf_counter() - started

        self.iterations_ = result.iterations
        self.converged_ = result.converged
        self.shrink_events_ = result.shrink_events
        self.fit_seconds_ = elapsed
        self.cache_hit_ratio_ = result.cache_hit_ratio

        registry = default_registry()
        registry.counter("svm.fits").inc()
        registry.histogram("svm.fit_seconds").observe(elapsed)
        registry.gauge("svm.cache_hit_ratio").set(result.cache_hit_ratio)
        if result.shrink_events:
            registry.counter("svm.shrink_events").inc(result.shrink_events)
        if not result.converged:
            warnings.warn(
                f"SMO exhausted max_iterations="
                f"{self.max_iterations} before reaching tolerance="
                f"{self.tolerance}; the model may be underfit — raise "
                "max_iterations or loosen tolerance",
                ConvergenceWarning,
                stacklevel=2,
            )

        support = result.alpha > _TAU
        self._support_vectors = features[support]
        self._support_coefficients = result.alpha[support] * signed[support]
        self._bias = result.bias
        return self

    @property
    def support_vector_count(self) -> int:
        if self._support_vectors is None:
            raise NotFittedError("SupportVectorClassifier")
        return int(self._support_vectors.shape[0])

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed distance to the decision boundary for each sample."""
        if self._support_vectors is None or self._support_coefficients is None:
            raise NotFittedError("SupportVectorClassifier")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if self._support_vectors.shape[0] == 0:
            return np.full(features.shape[0], self._bias)
        kernel_block = self._kernel_function(features, self._support_vectors)
        return kernel_block @ self._support_coefficients + self._bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels (original label values)."""
        if self._classes is None:
            raise NotFittedError("SupportVectorClassifier")
        scores = self.decision_function(features)
        return np.where(scores >= 0, self._classes[1], self._classes[0])

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean accuracy on the given test set."""
        predictions = self.predict(features)
        return float(np.mean(predictions == np.asarray(labels)))
