"""Torn writes and tampering, for both kinds of artifact directory.

Model bundles and stage checkpoints share one manifest, one payload
format, one atomic writer and one reader (``repro.core.artifacts``);
every case here runs against each kind through its own save and load
entry points. The last classes check the format itself: each file is
read once and decoded from the bytes that were hashed, decoders refuse
ids past their tables, and nothing else in ``src/repro`` encodes or
decodes an ``.npz``.
"""

import builtins
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import (
    MANIFEST_FILENAME,
    SCHEMA_VERSION,
    ArtifactManifest,
    sha256_file,
)
from repro.core.dataflow import (
    STAGE_EMBED,
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
    EmbedStage,
    ProjectStage,
    empty_graph_triple,
    encode_graph_triple,
)
from repro.core.persistence import encode_embedding, encode_similarity_graph
from repro.core.stages import ArtifactStore
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import ArtifactIntegrityError
from repro.graphs.projection import SimilarityGraph
from repro.ingest import ChunkedIngestStage, ChunkPolicy, PipelineCheckpointer
from repro.parallel.executor import ParallelConfig
from repro.serve import ModelBundle
from repro.serve.bundle import BUNDLE_KIND

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class _Injected(RuntimeError):
    """The failure a test injects into a write."""


def _fail_writing(monkeypatch, name):
    """Make the artifact writer leave ``name`` half-written and raise."""
    write = artifacts.write_arrays

    def partial_write(path, **arrays):
        if path.name != name:
            return write(path, **arrays)
        path.write_bytes(b"partial")
        raise _Injected(f"{name} write failed")

    monkeypatch.setattr(artifacts, "write_arrays", partial_write)


class _BundleKind:
    """A model bundle saved as ``<root>/bundle``."""

    kind = BUNDLE_KIND
    other_kind = f"checkpoint:{STAGE_PRUNE}"
    data_file = "features.npz"

    def __init__(self, root, make_bundle, monkeypatch):
        self.root = root
        self.target = root / "bundle"
        self._make_bundle = make_bundle
        self._monkeypatch = monkeypatch

    def write(self, seed=0, fail=False):
        if fail:
            _fail_writing(self._monkeypatch, self.data_file)
        try:
            return self._make_bundle(seed=seed).save(self.target)
        finally:
            self._monkeypatch.undo()

    def load(self):
        bundle = ModelBundle.load(self.target)
        return bundle.domains, bundle.features.tobytes()

    def v1_manifest(self, files):
        return {
            "config_fingerprint": "fp-0",
            "created_at": 1_700_000_000.0,
            "domain_count": 24,
            "feature_dimension": 6,
            "files": files,
            "metrics": {},
            "schema_version": 1,
            "threshold": -0.25,
        }


class _CheckpointKind:
    """A prune-stage checkpoint under ``<root>``."""

    kind = f"checkpoint:{STAGE_PRUNE}"
    other_kind = BUNDLE_KIND
    data_file = "data.npz"

    def __init__(self, root, make_bundle, monkeypatch):
        self.root = root
        self.checkpointer = PipelineCheckpointer(root, "fp")
        self.target = self.checkpointer.stage_dir(STAGE_PRUNE)
        self._monkeypatch = monkeypatch

    def write(self, seed=0, fail=False):
        if fail:
            _fail_writing(self._monkeypatch, self.data_file)
        files = {
            self.data_file: {"values": np.arange(seed, seed + 5)},
            "other.npz": {"values": np.arange(3)},
        }
        try:
            return self.checkpointer.save(STAGE_PRUNE, files, {"cursor": seed})
        finally:
            self._monkeypatch.undo()

    def load(self):
        manifest, files = self.checkpointer.load(STAGE_PRUNE)
        return files[self.data_file]["values"].tolist(), manifest.meta

    def v1_manifest(self, files):
        return {
            "complete": True,
            "created_at": 1_700_000_000.0,
            "files": files,
            "fingerprint": "fp",
            "meta": {"cursor": 0},
            "schema_version": 1,
            "stage": STAGE_PRUNE,
        }


@pytest.fixture(params=[_BundleKind, _CheckpointKind], ids=["bundle", "checkpoint"])
def kind(request, tmp_path, make_bundle, monkeypatch):
    return request.param(tmp_path, make_bundle, monkeypatch)


def _manifest_path(kind):
    return kind.target / MANIFEST_FILENAME


def _edit_manifest(kind, fields):
    raw = json.loads(_manifest_path(kind).read_text())
    raw.update(fields)
    _manifest_path(kind).write_text(json.dumps(raw))


def _hidden_entries(kind):
    return sorted(e.name for e in kind.root.iterdir() if e.name.startswith("."))


class TestRoundTrip:
    def test_manifest_lists_every_file(self, kind):
        directory = kind.write()
        manifest, __ = artifacts.read_artifact(directory, kind.kind)
        assert manifest.schema_version == SCHEMA_VERSION
        assert kind.data_file in manifest.files
        assert set(manifest.files) == {
            p.name for p in directory.iterdir() if p.name != MANIFEST_FILENAME
        }
        kind.load()


class TestTornWrites:
    def test_missing_manifest(self, kind):
        kind.write()
        _manifest_path(kind).unlink()
        with pytest.raises(ArtifactIntegrityError, match="no manifest"):
            kind.load()

    def test_failed_populate_leaves_nothing(self, kind):
        with pytest.raises(_Injected):
            kind.write(fail=True)
        assert not kind.target.exists()
        assert _hidden_entries(kind) == []

    def test_failed_populate_keeps_previous_artifact(self, kind):
        kind.write(seed=1)
        before = kind.load()
        with pytest.raises(_Injected):
            kind.write(seed=2, fail=True)
        assert kind.load() == before
        assert _hidden_entries(kind) == []


class TestTampering:
    def test_garbage_manifest(self, kind):
        kind.write()
        _manifest_path(kind).write_text("{not json")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            kind.load()

    def test_manifest_not_an_object(self, kind):
        kind.write()
        _manifest_path(kind).write_text("[1, 2]")
        with pytest.raises(ArtifactIntegrityError, match="JSON object"):
            kind.load()

    @pytest.mark.parametrize("version", [1, 2, SCHEMA_VERSION + 1])
    def test_unreadable_schema_version_refused_with_remedy(self, kind, version):
        kind.write()
        raw = json.loads(_manifest_path(kind).read_text())
        if version == 1:
            raw = kind.v1_manifest(raw["files"])
        raw["schema_version"] = version
        _manifest_path(kind).write_text(json.dumps(raw))
        with pytest.raises(ArtifactIntegrityError) as caught:
            kind.load()
        message = str(caught.value)
        assert f"schema version {version}" in message
        assert "re-publish" in message and "without --resume" in message

    def test_wrong_kind(self, kind):
        kind.write()
        _edit_manifest(kind, {"kind": kind.other_kind})
        with pytest.raises(ArtifactIntegrityError, match="expected"):
            kind.load()

    def test_fingerprint_mismatch(self, kind):
        directory = kind.write()
        with pytest.raises(ArtifactIntegrityError, match="different"):
            artifacts.read_artifact(directory, kind.kind, "another-fingerprint")

    def test_empty_fingerprint_accepts_any(self, kind):
        directory = kind.write()
        assert artifacts.read_artifact(directory, kind.kind, "")[0].fingerprint

    def test_unlisted_file(self, kind):
        # Every file a loader reads must have been checksummed.
        kind.write()
        (kind.target / "extra.npz").write_bytes(b"never hashed")
        with pytest.raises(ArtifactIntegrityError, match="unlisted"):
            kind.load()

    def test_missing_file(self, kind):
        kind.write()
        (kind.target / kind.data_file).unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            kind.load()

    def test_flipped_byte(self, kind):
        kind.write()
        path = kind.target / kind.data_file
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            kind.load()

    def test_listed_file_that_is_not_an_archive(self, kind):
        # Checksums that match a file the writer never made: the reader
        # still refuses it, with its own error type.
        kind.write()
        path = kind.target / kind.data_file
        path.write_bytes(b"not an archive")
        _edit_manifest(
            kind,
            {"files": {**json.loads(_manifest_path(kind).read_text())["files"],
                       kind.data_file: sha256_file(path)}},
        )
        with pytest.raises(ArtifactIntegrityError, match="not an .npz"):
            kind.load()


_DIGEST = "0" * 64

#: Manifest fields of the wrong type or value, as (case id, fields).
_MALFORMED = [
    ("files-list", {"files": []}),
    ("files-empty", {"files": {}}),
    ("digest-int", {"files": {"data.npz": 5}}),
    ("digest-not-hex", {"files": {"data.npz": "f" * 63 + "g"}}),
    ("name-with-separator", {"files": {"sub/data.npz": _DIGEST}}),
    ("name-dotdot", {"files": {"..": _DIGEST}}),
    ("name-manifest", {"files": {MANIFEST_FILENAME: _DIGEST}}),
    ("complete-string", {"complete": "false"}),
    ("schema-version-string", {"schema_version": "2"}),
    ("schema-version-bool", {"schema_version": True}),
    ("meta-list", {"meta": []}),
    ("kind-missing", {"kind": None}),
    ("created-at-string", {"created_at": "yesterday"}),
]


class TestMalformedFields:
    @pytest.mark.parametrize(
        "fields", [f for __, f in _MALFORMED], ids=[i for i, __ in _MALFORMED]
    )
    def test_rejected(self, kind, fields):
        kind.write()
        _edit_manifest(kind, fields)
        with pytest.raises(ArtifactIntegrityError):
            kind.load()

    def test_file_outside_the_directory_rejected(self, kind):
        # A correct digest of a real file outside the artifact directory:
        # only the name check stands between the loader and that file.
        kind.write()
        outside = kind.root / "outside.bin"
        outside.write_bytes(b"not part of the artifact")
        _edit_manifest(kind, {"files": {"../outside.bin": sha256_file(outside)}})
        with pytest.raises(ArtifactIntegrityError, match="plain file name"):
            kind.load()


class TestManifestJson:
    def test_json_round_trip(self):
        manifest = ArtifactManifest(
            kind=BUNDLE_KIND,
            fingerprint="abc",
            created_at=123.0,
            complete=False,
            files={"classifier.npz": "0f" * 32},
            meta={"f1": 0.9},
        )
        assert ArtifactManifest.from_json(manifest.to_json()) == manifest

    def test_unknown_fields_ignored(self):
        raw = json.loads(ArtifactManifest(kind=BUNDLE_KIND).to_json())
        raw["novel_field"] = True
        manifest = ArtifactManifest.from_json(json.dumps(raw))
        assert manifest == ArtifactManifest(kind=BUNDLE_KIND)


class TestOneRead:
    def test_each_file_opened_once_and_decoded_from_the_hashed_bytes(
        self, kind, monkeypatch
    ):
        directory = kind.write()
        listed = set(json.loads(_manifest_path(kind).read_text())["files"])
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(str(file)).parent == directory:
                opened.append(Path(str(file)).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        kind.load()
        monkeypatch.undo()
        opened_data = sorted(name for name in opened if name != MANIFEST_FILENAME)
        assert opened_data == sorted(listed)


def _write_checkpoint(root, stage, files, meta):
    checkpointer = PipelineCheckpointer(root)
    checkpointer.save(stage, files, meta)
    return checkpointer.load(stage)


def _graph_payload(bad_id=True):
    graphs = empty_graph_triple()
    graphs[0].add_edge("a.com", "10.0.0.1")
    graphs[1].add_edge("b.net", "192.0.2.1")
    graphs[2].add_edge("a.com", 7)
    files = encode_graph_triple(graphs)
    if bad_id:
        # Two domains in the table: id 2 is one past its end.
        files["domain_ip.npz"]["lefts"] = np.array([2], dtype=np.uint32)
    return STAGE_INGEST, ChunkedIngestStage("dns.log", ChunkPolicy()), files, {
        "cursor": 1
    }


def _similarity_payload():
    graph = SimilarityGraph(
        kind="host",
        domains=["a.com", "b.net"],
        rows=np.array([0]),
        cols=np.array([1]),
        weights=np.array([0.5]),
    )
    files, views = {}, {}
    for view in ("query", "ip", "temporal"):
        files[f"{view}.npz"], views[view] = encode_similarity_graph(graph)
    files["ip.npz"]["cols"] = np.array([5], dtype=np.uint32)
    return STAGE_PROJECT, ProjectStage(0.1), files, {"domains": 2, "views": views}


def _embedding_payload():
    embedding = LineEmbedding(
        kind="host",
        domains=["a.com", "b.net"],
        vectors=np.zeros((2, 4)),
        config=LineConfig(dimension=4),
    )
    files, views = {}, {}
    for view in ("query", "ip", "temporal"):
        files[f"{view}.npz"], views[view] = encode_embedding(embedding)
    files["temporal.npz"]["vectors"] = np.zeros((3, 4))
    stage = EmbedStage(LineConfig(dimension=4), ParallelConfig())
    return STAGE_EMBED, stage, files, {"dimension": 4, "views": views}


class TestIdsCheckedOnDecode:
    @pytest.mark.parametrize(
        "payload",
        [_graph_payload, _similarity_payload, _embedding_payload],
        ids=["bipartite-lefts", "similarity-cols", "embedding-rows"],
    )
    def test_ids_past_their_table_refused(self, tmp_path, payload):
        # Hand-built but well checksummed: only the decoder stands
        # between these ids and a bare IndexError downstream.
        stage_name, stage, files, meta = payload()
        manifest, decoded = _write_checkpoint(tmp_path, stage_name, files, meta)
        with pytest.raises(ArtifactIntegrityError, match="outside|vectors for"):
            stage.load_artifacts(decoded, manifest, ArtifactStore())

    def test_member_missing_from_a_file_refused(self, tmp_path):
        stage_name, stage, files, meta = _graph_payload(bad_id=False)
        del files["domain_time.npz"]["rights"]
        manifest, decoded = _write_checkpoint(tmp_path, stage_name, files, meta)
        with pytest.raises(ArtifactIntegrityError, match="no 'rights'"):
            stage.load_artifacts(decoded, manifest, ArtifactStore())


class TestOneFormat:
    def test_only_the_artifacts_module_encodes_npz(self):
        pattern = re.compile(r"np\.(load|savez)|format_version")
        offenders = [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            if path != SRC / "core" / "artifacts.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
