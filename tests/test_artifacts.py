"""Torn writes and tampering, for both kinds of artifact directory.

Model bundles and stage checkpoints share one manifest, one atomic
writer and one verifier (``repro.core.artifacts``); every case here runs
against each kind through its own save and load entry points.
"""

import json

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import (
    MANIFEST_FILENAME,
    SCHEMA_VERSION,
    ArtifactManifest,
    sha256_file,
)
from repro.errors import ArtifactIntegrityError
from repro.ingest import PipelineCheckpointer
from repro.ingest.checkpoint import STAGE_PRUNE
from repro.serve import ModelBundle
from repro.serve.bundle import BUNDLE_KIND


class _Injected(RuntimeError):
    """The failure a test injects into a write."""


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
            def partial_write(path, **arrays):
                path.write_bytes(b"partial")
                raise _Injected("features write failed")

            self._monkeypatch.setattr(
                "repro.serve.bundle.write_arrays", partial_write
            )
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

    def write(self, seed=0, fail=False):
        def populate(staging):
            np.savez(staging / self.data_file, values=np.arange(seed, seed + 5))
            if fail:
                raise _Injected("stage write failed")

        return self.checkpointer.save(STAGE_PRUNE, populate, {"cursor": seed})

    def load(self):
        directory, manifest = self.checkpointer.verify(STAGE_PRUNE)
        with np.load(directory / self.data_file) as archive:
            return archive["values"].tolist(), manifest.meta

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
        manifest = artifacts.verify(directory, kind.kind)
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

    def test_schema_version_1_refused_with_remedy(self, kind):
        kind.write()
        files = json.loads(_manifest_path(kind).read_text())["files"]
        _manifest_path(kind).write_text(json.dumps(kind.v1_manifest(files)))
        with pytest.raises(ArtifactIntegrityError) as caught:
            kind.load()
        message = str(caught.value)
        assert "schema version 1" in message
        assert "re-publish" in message and "without --resume" in message

    def test_wrong_kind(self, kind):
        kind.write()
        _edit_manifest(kind, {"kind": kind.other_kind})
        with pytest.raises(ArtifactIntegrityError, match="expected"):
            kind.load()

    def test_fingerprint_mismatch(self, kind):
        directory = kind.write()
        with pytest.raises(ArtifactIntegrityError, match="different"):
            artifacts.verify(directory, kind.kind, "another-fingerprint")

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
