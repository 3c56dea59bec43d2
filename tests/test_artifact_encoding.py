"""The on-disk encoding of every ``.npz`` artifact.

Checkpoints, model bundles and the files of every codec in
``repro.core.persistence`` are written as stored (uncompressed) archives
with ``uint32`` vertex-id columns and no 0-d members. Archives written
the old way — deflated, with ``int64`` ids — must still verify and load
to byte-identical outputs.
"""

import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.clustering import DomainCluster
from repro.core.dataflow import (
    CLUSTERS,
    DOMAIN_ORDER,
    ClusterStage,
)
from repro.core.artifacts import ArtifactManifest, read_artifact, write_artifact
from repro.core.detector import MaliciousDomainClassifier
from repro.core.features import FeatureView
from repro.core.persistence import (
    decode_bipartite_graph,
    decode_classifier,
    decode_embedding,
    decode_scaler,
    decode_similarity_graph,
    encode_bipartite_graph,
    encode_classifier,
    encode_embedding,
    encode_scaler,
    encode_similarity_graph,
)
from repro.core.pipeline import PipelineConfig
from repro.core.stages import ArtifactStore
from repro.dns.dhcp import DhcpLog
from repro.embedding.line import LineConfig, LineEmbedding
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.projection import SimilarityGraph
from repro.ingest import (
    CheckpointedPipeline,
    ChunkPolicy,
    IngestConfig,
    PipelineCheckpointer,
    pipeline_fingerprint,
)
from repro.ingest.checkpoint import CHECKPOINT_STAGES
from repro.labels import (
    IntelligenceFeed,
    SimulatedVirusTotal,
    build_labeled_dataset,
)
from repro.ml.preprocessing import StandardScaler
from repro.serve import ModelRegistry
from repro.simulation import SimulationConfig, TraceGenerator
from repro.simulation.groundtruth import GroundTruth

_ID_COLUMNS = ("lefts", "rights", "rows", "cols")


def _legacy_write(path, **arrays):
    """The writer before stored archives: deflate, ids as int64."""
    np.savez_compressed(
        path,
        **{
            name: array.astype(np.int64) if array.dtype == np.uint32 else array
            for name, array in arrays.items()
        },
    )


@pytest.fixture()
def legacy_writer(monkeypatch):
    """Route the one artifact writer through :func:`_legacy_write`."""
    monkeypatch.setattr("repro.core.artifacts.write_arrays", _legacy_write)
    return monkeypatch


def _assert_stored(directory: Path) -> list[Path]:
    """Every ``.npz`` under ``directory`` is stored, ids are uint32."""
    archives = sorted(directory.rglob("*.npz"))
    assert archives
    for path in archives:
        with zipfile.ZipFile(path) as archive:
            for member in archive.infolist():
                assert member.compress_type == zipfile.ZIP_STORED, (
                    path,
                    member.filename,
                )
        with np.load(path) as arrays:
            for name in set(_ID_COLUMNS) & set(arrays.files):
                assert arrays[name].dtype == np.uint32, (path, name)
    return archives


def _assert_no_scalar_members(directory: Path) -> None:
    archives = sorted(directory.rglob("*.npz"))
    assert archives
    for path in archives:
        with np.load(path) as arrays:
            for name in arrays.files:
                assert arrays[name].ndim > 0, (path, name)


def _assert_deflated(directory: Path) -> None:
    archives = sorted(directory.rglob("*.npz"))
    assert archives
    for path in archives:
        with zipfile.ZipFile(path) as archive:
            assert all(
                member.compress_type == zipfile.ZIP_DEFLATED
                for member in archive.infolist()
            ), path


# -- persistence codecs -----------------------------------------------------


@pytest.fixture()
def artifacts():
    rng = np.random.default_rng(3)
    embedding = LineEmbedding(
        kind="host",
        domains=["a.com", "b.net", "c.org"],
        vectors=rng.normal(size=(3, 8)),
        config=LineConfig(dimension=8, order="second", seed=5),
    )
    bipartite = BipartiteGraph(kind="time")
    for domain, window in (("a.com", 0), ("a.com", 17), ("b.net", -3)):
        bipartite.add_edge(domain, window)
    similarity = SimilarityGraph(
        kind="ip",
        domains=["a.com", "b.net", "c.org"],
        rows=np.array([0, 0]),
        cols=np.array([1, 2]),
        weights=np.array([0.5, 0.25]),
    )
    labels = np.arange(30) % 2
    features = rng.normal(size=(30, 5)) + labels[:, None] * 2.0
    classifier = MaliciousDomainClassifier().fit(features, labels)
    scaler = StandardScaler().fit(features)
    return SimpleNamespace(
        embedding=embedding,
        bipartite=bipartite,
        similarity=similarity,
        classifier=classifier,
        scaler=scaler,
        features=features,
    )


def _save_all(items, directory: Path) -> None:
    """Every codec's file, written as one artifact under ``directory``."""
    embedding, embedding_meta = encode_embedding(items.embedding)
    similarity, similarity_meta = encode_similarity_graph(items.similarity)
    classifier, classifier_meta = encode_classifier(items.classifier)
    files = {
        "embedding.npz": embedding,
        "bipartite.npz": encode_bipartite_graph(items.bipartite),
        "similarity.npz": similarity,
        "classifier.npz": classifier,
        "scaler.npz": encode_scaler(items.scaler),
    }
    meta = {
        "embedding": embedding_meta,
        "similarity": similarity_meta,
        "classifier": classifier_meta,
    }
    write_artifact(
        directory.parent,
        ArtifactManifest(kind="codecs", meta=meta),
        files,
        lambda staging: staging.rename(directory),
    )


def _decode_all(directory: Path):
    manifest, files = read_artifact(directory, "codecs")
    meta = manifest.meta
    return SimpleNamespace(
        embedding=decode_embedding(files["embedding.npz"], meta["embedding"]),
        bipartite=decode_bipartite_graph(files["bipartite.npz"], "time"),
        similarity=decode_similarity_graph(
            files["similarity.npz"], meta["similarity"]
        ),
        classifier=decode_classifier(
            files["classifier.npz"], meta["classifier"]
        ),
        scaler=decode_scaler(files["scaler.npz"]),
    )


def _load_all(directory: Path, features: np.ndarray) -> dict:
    loaded = _decode_all(directory)
    embedding, bipartite, similarity = (
        loaded.embedding,
        loaded.bipartite,
        loaded.similarity,
    )
    return {
        "embedding": (embedding.domains, embedding.vectors.tobytes()),
        "bipartite": (
            bipartite.left.values,
            bipartite.right.values,
            [c.tobytes() for c in bipartite.edges.columns()],
        ),
        "similarity": (
            similarity.domains,
            similarity.rows.tobytes(),
            similarity.cols.tobytes(),
            similarity.weights.tobytes(),
        ),
        "decision": loaded.classifier.decision_function(features).tobytes(),
        "scaled": loaded.scaler.transform(features).tobytes(),
    }


class TestPersistenceFiles:
    def test_written_stored_with_uint32_ids(self, artifacts, tmp_path):
        _save_all(artifacts, tmp_path / "codecs")
        names = {p.name for p in _assert_stored(tmp_path)}
        assert {"bipartite.npz", "similarity.npz"} <= names
        _assert_no_scalar_members(tmp_path)

    def test_deflated_archives_load_identically(
        self, artifacts, tmp_path, legacy_writer
    ):
        _save_all(artifacts, tmp_path / "old")
        legacy_writer.undo()
        _save_all(artifacts, tmp_path / "new")
        _assert_deflated(tmp_path / "old")
        assert _load_all(tmp_path / "old", artifacts.features) == _load_all(
            tmp_path / "new", artifacts.features
        )

    def test_loaded_ids_widen_to_int64(self, artifacts, tmp_path):
        _save_all(artifacts, tmp_path / "codecs")
        loaded = _decode_all(tmp_path / "codecs")
        similarity, bipartite = loaded.similarity, loaded.bipartite
        assert similarity.rows.dtype == similarity.cols.dtype == np.int64
        assert all(c.dtype == np.int64 for c in bipartite.edges.columns())
        assert bipartite.adjacency == artifacts.bipartite.adjacency


# -- model bundles ----------------------------------------------------------


class TestBundles:
    def test_published_bundle_is_stored(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(scaled=True))
        _assert_stored(registry.root)
        _assert_no_scalar_members(registry.root)

    def test_deflated_bundle_verifies_and_scores_identically(
        self, make_bundle, tmp_path, legacy_writer
    ):
        bundle = make_bundle(seed=4, scaled=True)
        old = ModelRegistry(tmp_path / "old")
        old.publish(bundle)
        legacy_writer.undo()
        new = ModelRegistry(tmp_path / "new")
        new.publish(bundle)
        _assert_deflated(old.root)
        old_bundle, new_bundle = old.load(1), new.load(1)
        assert old_bundle.domains == new_bundle.domains == bundle.domains
        assert old_bundle.manifest.files.keys() == new_bundle.manifest.files.keys()
        for loaded in (old_bundle, new_bundle):
            assert (
                loaded.decision_scores(loaded.features).tobytes()
                == bundle.decision_scores(bundle.features).tobytes()
            )


# -- stage checkpoints ------------------------------------------------------

_CONFIG = PipelineConfig(
    embedding=LineConfig(dimension=8, total_samples=30_000, seed=13)
)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("encoding-trace")
    TraceGenerator(SimulationConfig.tiny(seed=7)).generate().save(directory)
    return directory


@pytest.fixture(scope="module")
def dataset_for(trace_dir):
    truth = GroundTruth.load(trace_dir / "groundtruth.tsv")
    feed, virustotal = IntelligenceFeed(truth), SimulatedVirusTotal(truth)
    return lambda domains: build_labeled_dataset(feed, virustotal, domains)


def _run(trace_dir, dataset_for, directory, resume=False):
    checkpointer = PipelineCheckpointer(
        directory, pipeline_fingerprint(_CONFIG, {"dns": "trace"})
    )
    outcome = CheckpointedPipeline(
        _CONFIG,
        IngestConfig(
            chunk=ChunkPolicy(max_records=700), checkpoint_every_chunks=3
        ),
        checkpointer,
        dhcp=DhcpLog.load(trace_dir / "dhcp.log"),
    ).run(trace_dir / "dns.log", dataset_for, resume=resume, cluster_k_max=8)
    return checkpointer, outcome


def _outputs(outcome):
    return (
        outcome.domains,
        outcome.scores.tobytes(),
        outcome.verdicts.tobytes(),
        [(c.cluster_id, c.domains, c.center.tobytes()) for c in outcome.clusters],
    )


def test_checkpointed_run_writes_no_scalar_members(
    trace_dir, dataset_for, tmp_path
):
    checkpointer, __ = _run(trace_dir, dataset_for, tmp_path)
    assert all(checkpointer.has(stage) for stage in CHECKPOINT_STAGES)
    _assert_no_scalar_members(tmp_path)


@pytest.mark.slow
class TestCheckpoints:
    def test_deflated_checkpoints_verify_and_resume_identically(
        self, trace_dir, dataset_for, tmp_path, legacy_writer
    ):
        old_checkpointer, old_cold = _run(
            trace_dir, dataset_for, tmp_path / "old"
        )
        legacy_writer.undo()
        _assert_deflated(tmp_path / "old")
        new_checkpointer, new_cold = _run(
            trace_dir, dataset_for, tmp_path / "new"
        )
        _assert_stored(tmp_path / "new")
        stages = [s for s in CHECKPOINT_STAGES if old_checkpointer.has(s)]
        assert stages == [s for s in CHECKPOINT_STAGES if new_checkpointer.has(s)]
        for stage in stages:
            old_checkpointer.load(stage)
        __, resumed = _run(
            trace_dir, dataset_for, tmp_path / "old", resume=True
        )
        assert resumed.resumed_from == stages[-1]
        assert _outputs(resumed) == _outputs(old_cold) == _outputs(new_cold)


# -- cluster regrouping -----------------------------------------------------


def test_cluster_checkpoint_regroups_members_in_order(tmp_path):
    order = [f"d{i}.example" for i in range(9)]
    clusters = [
        DomainCluster(2, [order[4], order[1], order[7]], np.array([0.5, 1.0])),
        DomainCluster(0, [order[0], order[8]], np.array([-1.0, 2.0])),
        DomainCluster(5, [order[3]], np.array([3.0, 0.0])),
    ]
    store = ArtifactStore()
    store.put(DOMAIN_ORDER, order)
    store.put(CLUSTERS, clusters)
    stage = ClusterStage([FeatureView.QUERY])
    files, meta = stage.save_artifacts(store)

    restored = ArtifactStore()
    restored.put(DOMAIN_ORDER, order)
    stage.load_artifacts(files, SimpleNamespace(complete=True, meta=meta), restored)
    loaded = restored.get(CLUSTERS)
    # Cluster order is kept; members come back in domain order, and
    # domains 2, 5 and 6 (in no cluster) are left out.
    assert [c.cluster_id for c in loaded] == [2, 0, 5]
    assert [c.domains for c in loaded] == [
        [order[1], order[4], order[7]],
        [order[0], order[8]],
        [order[3]],
    ]
    for got, want in zip(loaded, clusters):
        assert got.center.tobytes() == want.center.tobytes()
