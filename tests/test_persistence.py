"""Round trips through the artifact codecs (``repro.core.persistence``).

Each object is encoded, written as an artifact file with its ``meta`` in
the manifest, read back through ``repro.core.artifacts.read_artifact``
and decoded, so every case also crosses the on-disk format.
"""

import numpy as np
import pytest

from repro.core.artifacts import ArtifactManifest, read_artifact, write_artifact
from repro.core.dataflow import FEATURE_SPACE, EmbedStage
from repro.core.detector import MaliciousDomainClassifier
from repro.core.features import FeatureSpace
from repro.core.persistence import (
    decode_classifier,
    decode_embedding,
    decode_scaler,
    decode_similarity_graph,
    encode_classifier,
    encode_embedding,
    encode_scaler,
    encode_similarity_graph,
)
from repro.core.stages import ArtifactStore
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import NotFittedError
from repro.graphs.projection import SimilarityGraph
from repro.ingest import PipelineCheckpointer
from repro.ingest.checkpoint import STAGE_EMBED
from repro.ml.preprocessing import StandardScaler
from repro.parallel.executor import ParallelConfig


def _through_disk(tmp_path, arrays, meta=None):
    """Write ``arrays`` as one artifact file and read them back."""
    target = tmp_path / "artifact"
    write_artifact(
        tmp_path,
        ArtifactManifest(kind="codec-test", meta={"codec": meta or {}}),
        {"data.npz": arrays},
        lambda staging: staging.rename(target),
    )
    manifest, files = read_artifact(target, "codec-test")
    return files["data.npz"], manifest.meta["codec"]


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
        loaded = decode_embedding(
            *_through_disk(tmp_path, *encode_embedding(embedding))
        )
        assert loaded.kind == embedding.kind
        assert loaded.domains == embedding.domains
        assert loaded.vectors.tobytes() == embedding.vectors.tobytes()
        assert loaded.config == embedding.config

    def test_lookup_works_after_load(self, embedding, tmp_path):
        loaded = decode_embedding(
            *_through_disk(tmp_path, *encode_embedding(embedding))
        )
        assert np.allclose(loaded.vector("b.net"), embedding.vector("b.net"))
        assert np.all(loaded.vector("missing.example") == 0)


class TestFeatureSpaceRoundTrip:
    def test_round_trip(self, embedding, tmp_path):
        # The three views travel as the embed stage's checkpoint.
        space = FeatureSpace(query=embedding, ip=embedding, temporal=embedding)
        stage = EmbedStage(embedding.config, ParallelConfig())
        store = ArtifactStore()
        store.put(FEATURE_SPACE, space)
        checkpointer = PipelineCheckpointer(tmp_path)
        checkpointer.save(STAGE_EMBED, *stage.save_artifacts(store))
        manifest, files = checkpointer.load(STAGE_EMBED)
        restored = ArtifactStore()
        stage.load_artifacts(files, manifest, restored)
        loaded = restored.get(FEATURE_SPACE)
        assert loaded.dimension == space.dimension
        assert (
            loaded.matrix(["a.com", "c.org"]).tobytes()
            == space.matrix(["a.com", "c.org"]).tobytes()
        )


class TestGraphRoundTrip:
    def test_round_trip(self, graph, tmp_path):
        loaded = decode_similarity_graph(
            *_through_disk(tmp_path, *encode_similarity_graph(graph))
        )
        assert loaded.kind == graph.kind
        assert loaded.domains == graph.domains
        assert loaded.weight_between("a.com", "b.net") == 0.5
        assert loaded.edge_count == 2

    def test_embeddable_after_load(self, graph, tmp_path):
        from repro.embedding.line import train_line

        loaded = decode_similarity_graph(
            *_through_disk(tmp_path, *encode_similarity_graph(graph))
        )
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
        loaded = decode_classifier(
            *_through_disk(tmp_path, *encode_classifier(classifier))
        )
        probe = rng.normal(size=(12, 5))
        # Not allclose: the kernel expansion over bit-equal float64
        # support vectors, and a bias that crossed JSON, must reproduce
        # scores exactly.
        assert (
            loaded.decision_function(probe).tobytes()
            == classifier.decision_function(probe).tobytes()
        )
        assert np.array_equal(loaded.predict(probe), classifier.predict(probe))

    def test_calibrated_threshold_preserved(self, fitted, tmp_path):
        classifier, __ = fitted
        loaded = decode_classifier(
            *_through_disk(tmp_path, *encode_classifier(classifier))
        )
        assert loaded.threshold is None  # configured: calibrate-on-fit
        assert loaded.threshold_ == classifier.threshold_

    def test_fixed_threshold_preserved(self, rng, tmp_path):
        labels = np.arange(20) % 2
        features = rng.normal(size=(20, 4)) + labels[:, None]
        classifier = MaliciousDomainClassifier(threshold=0.5).fit(
            features, labels
        )
        loaded = decode_classifier(
            *_through_disk(tmp_path, *encode_classifier(classifier))
        )
        assert loaded.threshold == 0.5
        assert loaded.threshold_ == 0.5

    def test_unfitted_classifier_rejected(self):
        with pytest.raises(NotFittedError):
            encode_classifier(MaliciousDomainClassifier())


class TestScalerRoundTrip:
    def test_transform_byte_exact(self, rng, tmp_path):
        scaler = StandardScaler().fit(rng.normal(size=(40, 6)))
        arrays, __ = _through_disk(tmp_path, encode_scaler(scaler))
        loaded = decode_scaler(arrays)
        probe = rng.normal(size=(10, 6))
        assert np.array_equal(loaded.mean_, scaler.mean_)
        assert np.array_equal(loaded.scale_, scaler.scale_)
        assert np.array_equal(
            loaded.transform(probe), scaler.transform(probe)
        )

    def test_unfitted_scaler_rejected(self):
        with pytest.raises(NotFittedError):
            encode_scaler(StandardScaler())
