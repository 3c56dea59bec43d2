"""Deeper SVM solver tests: KKT conditions and robustness cases."""

import numpy as np
import pytest

from repro.ml.kernels import KernelParams, rbf_kernel
from repro.ml.svm import SupportVectorClassifier, _solve_smo_cached


@pytest.fixture(scope="module")
def solved():
    """The production solver's dual solution on two Gaussian blobs."""
    rng = np.random.default_rng(4)
    n = 80
    features = np.vstack(
        [rng.normal(-1, 0.7, size=(n, 2)), rng.normal(1, 0.7, size=(n, 2))]
    )
    labels = np.where(np.arange(2 * n) < n, -1.0, 1.0)
    c = 0.5
    kernel = rbf_kernel(features, features, gamma=0.8)
    result = _solve_smo_cached(
        features, labels, c=c, tolerance=1e-4, max_iterations=100_000,
        params=KernelParams(kind="rbf", gamma=0.8),
    )
    return features, labels, c, kernel, result


class TestKktConditions:
    def test_box_constraints(self, solved):
        __, __, c, __, result = solved
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= c + 1e-12)

    def test_equality_constraint(self, solved):
        __, labels, __, __, result = solved
        assert abs(np.dot(result.alpha, labels)) < 1e-9

    def test_converged(self, solved):
        __, __, __, __, result = solved
        assert result.converged

    def test_margin_conditions(self, solved):
        """Free SVs sit on the margin; violators are at the C bound."""
        __, labels, c, kernel, result = solved
        decision = (result.alpha * labels) @ kernel + result.bias
        margins = labels * decision
        free = (result.alpha > 1e-8) & (result.alpha < c - 1e-8)
        if free.any():
            assert np.allclose(margins[free], 1.0, atol=5e-2)
        at_bound = result.alpha >= c - 1e-8
        if at_bound.any():
            assert np.all(margins[at_bound] <= 1.0 + 5e-2)

    def test_non_svs_outside_margin(self, solved):
        __, labels, __, kernel, result = solved
        decision = (result.alpha * labels) @ kernel + result.bias
        margins = labels * decision
        non_sv = result.alpha <= 1e-8
        if non_sv.any():
            assert np.all(margins[non_sv] >= 1.0 - 5e-2)


class TestRobustness:
    def test_duplicate_points_with_conflicting_labels(self):
        """Label noise on identical points must not crash the solver."""
        features = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 6)
        labels = np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1])
        model = SupportVectorClassifier(c=1.0, gamma=1.0).fit(features, labels)
        assert model.score(features, labels) >= 0.5

    def test_tiny_dataset(self):
        features = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        model = SupportVectorClassifier(c=1.0, gamma=1.0).fit(features, labels)
        assert model.predict(np.array([[0.0]]))[0] == 0
        assert model.predict(np.array([[1.0]]))[0] == 1

    def test_max_iterations_cap_respected(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, size=200)  # noise: slow convergence
        model = SupportVectorClassifier(
            c=10.0, gamma=5.0, max_iterations=50
        ).fit(features, labels)
        assert model.iterations_ <= 50

    def test_extreme_feature_scales(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(60, 2)) * 1e6
        labels = (features[:, 0] > 0).astype(int)
        model = SupportVectorClassifier(c=1.0, gamma=1e-12).fit(
            features, labels
        )
        scores = model.decision_function(features)
        assert np.all(np.isfinite(scores))

    def test_high_dimensional_features(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(50, 96))  # the pipeline's 3k dims
        labels = (features[:, 0] > 0).astype(int)
        model = SupportVectorClassifier().fit(features, labels)
        assert model.decision_function(features).shape == (50,)
