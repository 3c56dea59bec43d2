"""The row-cached SMO solver: parity with the dense oracle, and behavior."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kernels import KernelParams, KernelRowCache
from repro.ml.svm import (
    ConvergenceWarning,
    SupportVectorClassifier,
    _solve_smo_cached,
)

from tests.oracles import DenseSvm

# Tight tolerance so the solver and the dense oracle land on the
# (decision-function-unique) optimum; the parity bound below is then
# meaningful at 1e-6.
PARITY = dict(tolerance=1e-8, max_iterations=500_000)


def _dataset(seed: int, n: int = 80, dims: int = 5):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, dims))
    labels = (
        features[:, 0] + 0.4 * features[:, 1] + 0.1 * rng.normal(size=n) > 0
    ).astype(int)
    if labels.min() == labels.max():  # pragma: no cover - seed-dependent
        labels[0] = 1 - labels[0]
    return features, labels


def _fit_pair(features, labels, **kwargs):
    params = {**PARITY, **kwargs}
    dense = DenseSvm(**params).fit(features, labels)
    cached = SupportVectorClassifier(**params).fit(features, labels)
    return dense, cached


class TestSolverParity:
    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    def test_decision_function_parity(self, kernel):
        features, labels = _dataset(seed=1)
        dense, cached = _fit_pair(
            features, labels, c=1.0, kernel=kernel, gamma=0.4
        )
        probe = np.random.default_rng(2).normal(size=(40, features.shape[1]))
        np.testing.assert_allclose(
            dense.decision_function(probe),
            cached.decision_function(probe),
            atol=1e-6,
            rtol=0,
        )

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    def test_support_count_and_bias_parity(self, kernel):
        features, labels = _dataset(seed=3, n=60)
        dense, cached = _fit_pair(
            features, labels, c=0.5, kernel=kernel, gamma=0.3
        )
        assert dense.support_vector_count == cached.support_vector_count
        assert abs(dense._bias - cached._bias) < 1e-6

    def test_parity_with_paper_defaults(self):
        features, labels = _dataset(seed=5, n=90, dims=8)
        dense, cached = _fit_pair(features, labels, c=0.09, gamma=0.06)
        np.testing.assert_allclose(
            dense.decision_function(features),
            cached.decision_function(features),
            atol=1e-6,
            rtol=0,
        )

    def test_parity_under_tiny_cache(self):
        # Budget admits only the 2-row minimum: every iteration recomputes.
        features, labels = _dataset(seed=7, n=70)
        params = dict(c=1.0, gamma=0.2, **PARITY)
        dense = DenseSvm(**params).fit(features, labels)
        cached = SupportVectorClassifier(kernel_cache_mb=1e-6, **params).fit(
            features, labels
        )
        np.testing.assert_allclose(
            dense.decision_function(features),
            cached.decision_function(features),
            atol=1e-6,
            rtol=0,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
        c=st.floats(0.05, 5.0),
    )
    def test_parity_hypothesis(self, seed, kernel, c):
        features, labels = _dataset(seed=seed, n=40, dims=3)
        dense, cached = _fit_pair(
            features, labels, c=c, kernel=kernel, gamma=0.5
        )
        np.testing.assert_allclose(
            dense.decision_function(features),
            cached.decision_function(features),
            atol=1e-6,
            rtol=0,
        )
        assert dense.support_vector_count == cached.support_vector_count


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "model", [DenseSvm, SupportVectorClassifier], ids=["dense", "cached"]
    )
    def test_single_class_rejected(self, model):
        # The oracle rejects what the solver rejects, so parity cases
        # never compare a fit against an error.
        features = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="2 classes"):
            model().fit(features, np.zeros(10, dtype=int))

    def test_all_bounded_alphas_parity(self):
        # A tiny C drives every alpha to its box bound — the bias must
        # then fall back to averaging over bound support vectors.
        features, labels = _dataset(seed=11, n=50)
        dense, cached = _fit_pair(features, labels, c=1e-4, gamma=0.3)
        assert dense.support_vector_count == cached.support_vector_count
        np.testing.assert_allclose(
            dense.decision_function(features),
            cached.decision_function(features),
            atol=1e-6,
            rtol=0,
        )

    def test_duplicate_rows_parity(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(20, 4))
        features = np.vstack([base, base[:10]])  # exact duplicates
        labels = (features[:, 0] > 0).astype(int)
        if labels.min() == labels.max():  # pragma: no cover
            labels[0] = 1 - labels[0]
        dense, cached = _fit_pair(features, labels, c=1.0, gamma=0.5)
        np.testing.assert_allclose(
            dense.decision_function(features),
            cached.decision_function(features),
            atol=1e-6,
            rtol=0,
        )

    def test_conflicting_duplicate_labels(self):
        # Same point, both labels: not separable; solver must still halt.
        features = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 1, 0, 1])
        model = SupportVectorClassifier(
            c=1.0, tolerance=1e-3, max_iterations=10_000
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model.fit(features, labels)
        assert model.decision_function(features).shape == (4,)


class TestConvergenceWarning:
    def test_tiny_budget_warns_and_flags(self):
        features, labels = _dataset(seed=17, n=60)
        with pytest.warns(ConvergenceWarning, match="max_iterations"):
            model = SupportVectorClassifier(c=1.0, max_iterations=3).fit(
                features, labels
            )
        assert model.converged_ is False

    def test_normal_fit_does_not_warn(self):
        features, labels = _dataset(seed=19, n=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = SupportVectorClassifier(c=1.0).fit(features, labels)
        assert model.converged_ is True


class TestSolverConfig:
    def test_nonpositive_cache_rejected(self):
        with pytest.raises(ValueError, match="kernel_cache_mb"):
            SupportVectorClassifier(kernel_cache_mb=0.0)

    def test_fit_telemetry_attributes(self):
        features, labels = _dataset(seed=23, n=50)
        cached = SupportVectorClassifier().fit(features, labels)
        assert cached.fit_seconds_ is not None and cached.fit_seconds_ > 0
        assert 0.0 <= cached.cache_hit_ratio_ <= 1.0


class TestKernelRowCache:
    def test_budget_bounds_bytes_held(self):
        features = np.random.default_rng(0).normal(size=(256, 4))
        params = KernelParams(kind="rbf", gamma=0.5)
        budget_mb = 0.01  # 10 KiB -> 5 rows of 2 KiB each
        cache = KernelRowCache(features, params, budget_mb)
        for index in range(64):
            cache.row(index % 16)
        assert cache.bytes_held <= budget_mb * 1024 * 1024
        assert cache.hits + cache.misses == 64
        assert cache.evictions > 0

    def test_lru_eviction_order(self):
        features = np.random.default_rng(1).normal(size=(8, 2))
        params = KernelParams(kind="linear")
        cache = KernelRowCache(features, params, 1.0)
        cache.capacity = 2
        cache.row(0)
        cache.row(1)
        cache.row(0)  # refresh 0 -> 1 is now coldest
        cache.row(2)  # evicts 1
        assert cache.row(0) is not None and cache.hits >= 2
        before = cache.misses
        cache.row(1)  # must recompute
        assert cache.misses == before + 1

    def test_row_values_match_full_matrix(self):
        features = np.random.default_rng(2).normal(size=(20, 3))
        params = KernelParams(kind="rbf", gamma=0.3)
        full = params.matrix(features, features)
        cache = KernelRowCache(features, params, 1.0)
        for index in (0, 7, 19):
            np.testing.assert_allclose(cache.row(index), full[index])

    def test_solver_respects_budget_accounting(self):
        features, labels = _dataset(seed=29, n=200, dims=4)
        signed = np.where(labels == 1, 1.0, -1.0)
        result = _solve_smo_cached(
            features,
            signed,
            c=1.0,
            tolerance=1e-6,
            max_iterations=100_000,
            params=KernelParams(kind="rbf", gamma=0.3),
            cache_mb=0.003,  # ~2 rows of 1600 B
            shrink_interval=25,
        )
        assert result.converged
        assert result.shrink_events >= 0
        assert result.cache_hits + result.cache_misses > 0
