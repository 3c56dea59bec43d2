"""Unit tests for artifact persistence (npz round-trips)."""

import json

import numpy as np
import pytest

from repro.core.detector import MaliciousDomainClassifier
from repro.core.features import FeatureSpace
from repro.core.persistence import (
    load_classifier,
    load_embedding,
    load_feature_space,
    load_scaler,
    load_similarity_graph,
    save_classifier,
    save_embedding,
    save_feature_space,
    save_scaler,
    save_similarity_graph,
)
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import NotFittedError
from repro.graphs.projection import SimilarityGraph
from repro.ml.preprocessing import StandardScaler


def _add_legacy_key(path, field, key, value):
    """Rewrite the JSON sidecar ``field`` of an archive with one more key.

    Reproduces archives written by older versions, whose configs carried
    options that no longer exist.
    """
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    payload = json.loads(str(arrays[field]))
    payload[key] = value
    arrays[field] = np.array(json.dumps(payload))
    np.savez_compressed(path, **arrays)


@pytest.fixture()
def embedding(rng):
    return LineEmbedding(
        kind="host",
        domains=["a.com", "b.net", "c.org"],
        vectors=rng.normal(size=(3, 8)),
        config=LineConfig(dimension=8, order="second", seed=5),
    )


@pytest.fixture()
def graph():
    return SimilarityGraph(
        kind="ip",
        domains=["a.com", "b.net", "c.org"],
        rows=np.array([0, 0]),
        cols=np.array([1, 2]),
        weights=np.array([0.5, 0.25]),
    )


class TestEmbeddingRoundTrip:
    def test_round_trip(self, embedding, tmp_path):
        path = tmp_path / "embedding.npz"
        save_embedding(embedding, path)
        # Second pass: an archive written while the LINE inner loop was
        # selectable, whose config carries a "kernel" key.
        for legacy in (None, ("kernel", "add_at")):
            if legacy is not None:
                _add_legacy_key(path, "config_json", *legacy)
            loaded = load_embedding(path)
            assert loaded.kind == embedding.kind
            assert loaded.domains == embedding.domains
            assert np.allclose(loaded.vectors, embedding.vectors)
            assert loaded.config == embedding.config

    def test_lookup_works_after_load(self, embedding, tmp_path):
        path = tmp_path / "embedding.npz"
        save_embedding(embedding, path)
        loaded = load_embedding(path)
        assert np.allclose(loaded.vector("b.net"), embedding.vector("b.net"))
        assert np.all(loaded.vector("missing.example") == 0)


class TestFeatureSpaceRoundTrip:
    def test_round_trip(self, embedding, tmp_path):
        space = FeatureSpace(query=embedding, ip=embedding, temporal=embedding)
        save_feature_space(space, tmp_path / "space")
        loaded = load_feature_space(tmp_path / "space")
        assert loaded.dimension == space.dimension
        assert np.allclose(
            loaded.matrix(["a.com", "c.org"]),
            space.matrix(["a.com", "c.org"]),
        )


class TestGraphRoundTrip:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_similarity_graph(graph, path)
        loaded = load_similarity_graph(path)
        assert loaded.kind == graph.kind
        assert loaded.domains == graph.domains
        assert loaded.weight_between("a.com", "b.net") == 0.5
        assert loaded.edge_count == 2

    def test_embeddable_after_load(self, graph, tmp_path):
        from repro.embedding.line import train_line

        path = tmp_path / "graph.npz"
        save_similarity_graph(graph, path)
        loaded = load_similarity_graph(path)
        result = train_line(
            loaded, LineConfig(dimension=4, total_samples=5_000)
        )
        assert result.vectors.shape == (3, 4)


class TestClassifierRoundTrip:
    @pytest.fixture()
    def fitted(self, rng):
        labels = np.arange(30) % 2
        features = rng.normal(size=(30, 5)) + labels[:, None] * 2.0
        return MaliciousDomainClassifier().fit(features, labels), features

    def test_decision_function_byte_exact(self, fitted, tmp_path, rng):
        classifier, __ = fitted
        path = tmp_path / "classifier.npz"
        save_classifier(classifier, path)
        probe = rng.normal(size=(12, 5))
        # Second pass: an archive written while the SMO solver was
        # selectable, whose params carry a "solver" key.
        for legacy in (None, ("solver", "dense")):
            if legacy is not None:
                _add_legacy_key(path, "params_json", *legacy)
            loaded = load_classifier(path)
            # Not allclose: the kernel expansion over bit-equal float64
            # support vectors must reproduce scores exactly.
            assert np.array_equal(
                loaded.decision_function(probe),
                classifier.decision_function(probe),
            )
            assert np.array_equal(
                loaded.predict(probe), classifier.predict(probe)
            )

    def test_calibrated_threshold_preserved(self, fitted, tmp_path):
        classifier, __ = fitted
        path = tmp_path / "classifier.npz"
        save_classifier(classifier, path)
        loaded = load_classifier(path)
        assert loaded.threshold is None  # configured: calibrate-on-fit
        assert loaded.threshold_ == classifier.threshold_

    def test_fixed_threshold_preserved(self, rng, tmp_path):
        labels = np.arange(20) % 2
        features = rng.normal(size=(20, 4)) + labels[:, None]
        classifier = MaliciousDomainClassifier(threshold=0.5).fit(
            features, labels
        )
        path = tmp_path / "classifier.npz"
        save_classifier(classifier, path)
        loaded = load_classifier(path)
        assert loaded.threshold == 0.5
        assert loaded.threshold_ == 0.5

    def test_unfitted_classifier_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_classifier(
                MaliciousDomainClassifier(), tmp_path / "classifier.npz"
            )


class TestScalerRoundTrip:
    def test_transform_byte_exact(self, rng, tmp_path):
        scaler = StandardScaler().fit(rng.normal(size=(40, 6)))
        path = tmp_path / "scaler.npz"
        save_scaler(scaler, path)
        loaded = load_scaler(path)
        probe = rng.normal(size=(10, 6))
        assert np.array_equal(loaded.mean_, scaler.mean_)
        assert np.array_equal(loaded.scale_, scaler.scale_)
        assert np.array_equal(
            loaded.transform(probe), scaler.transform(probe)
        )

    def test_unfitted_scaler_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_scaler(StandardScaler(), tmp_path / "scaler.npz")
