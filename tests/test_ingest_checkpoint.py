"""Unit tests for stage checkpoints (repro.ingest.checkpoint).

Torn writes, tampering and malformed manifests are also covered for
checkpoints and bundles alike in ``tests/test_artifacts.py``.
"""

import json

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import MANIFEST_FILENAME
from repro.errors import ArtifactIntegrityError, IngestError
from repro.ingest import ArtifactManifest, PipelineCheckpointer
from repro.ingest.checkpoint import (
    CHECKPOINT_STAGES,
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
)
from repro.obs.metrics import default_registry


def _write_payload(values):
    return {"data.npz": {"values": np.asarray(values)}}


def _load_payload(ckpt, stage=STAGE_PRUNE):
    __, files = ckpt.load(stage)
    return files["data.npz"]["values"].tolist()


def _fail_writes(monkeypatch):
    def explode(path, **arrays):
        path.write_bytes(b"partial")
        raise RuntimeError("mid-save crash")

    monkeypatch.setattr(artifacts, "write_arrays", explode)


class TestSaveAndVerify:
    def test_round_trip(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path, "fp")
        ckpt.save(STAGE_PRUNE, _write_payload([1, 2, 3]), {"cursor": 42})
        manifest, __ = ckpt.load(STAGE_PRUNE)
        assert _load_payload(ckpt) == [1, 2, 3]
        assert manifest.kind == f"checkpoint:{STAGE_PRUNE}"
        assert manifest.fingerprint == "fp"
        assert manifest.complete
        assert manifest.meta["cursor"] == 42
        assert "data.npz" in manifest.files

    def test_stage_dirs_are_ordered(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        names = [ckpt.stage_dir(stage).name for stage in CHECKPOINT_STAGES]
        assert names == sorted(names)

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            PipelineCheckpointer(tmp_path).save(
                "nonsense", _write_payload([1])
            )

    def test_save_overwrites_previous(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        assert _load_payload(ckpt) == [2]

    def test_failed_populate_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        ckpt = PipelineCheckpointer(tmp_path)
        _fail_writes(monkeypatch)
        with pytest.raises(RuntimeError):
            ckpt.save(STAGE_PRUNE, _write_payload([1, 2, 3]))
        assert not ckpt.has(STAGE_PRUNE)
        assert not list(tmp_path.glob(".*staging*"))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([7]))
        _fail_writes(monkeypatch)
        with pytest.raises(RuntimeError):
            ckpt.save(STAGE_PRUNE, _write_payload([8]))
        monkeypatch.undo()
        assert _load_payload(ckpt) == [7]

    def test_checkpoint_bytes_gauge_updates(self, tmp_path):
        registry = default_registry()
        registry.reset()
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload(list(range(100))))
        value = registry.snapshot()["gauges"]["checkpoint.bytes"]["value"]
        assert value == ckpt.total_bytes() > 0

    def test_total_bytes_skips_leftover_staging(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1, 2, 3]))
        saved = ckpt.total_bytes()
        # What a writer killed mid-save leaves next to the stage dirs.
        leftover = tmp_path / ".staging-x"
        leftover.mkdir()
        (leftover / "f").write_bytes(b"\0" * 4096)
        assert ckpt.total_bytes() == saved > 0

    def test_save_sweeps_leftover_staging(self, tmp_path):
        # One run owns a checkpoint root, so a staging directory found
        # there was left by a killed writer.
        leftover = tmp_path / ".staging-x"
        leftover.mkdir()
        (leftover / "f").write_bytes(b"\0" * 4096)
        PipelineCheckpointer(tmp_path).save(STAGE_PRUNE, _write_payload([1]))
        assert not leftover.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["01-prune"]


class TestIntegrityRejection:
    def test_missing_manifest(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        with pytest.raises(ArtifactIntegrityError, match="no manifest"):
            ckpt.load(STAGE_PRUNE)

    def test_tampered_artifact_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1, 2]))
        target = ckpt.stage_dir(STAGE_PRUNE) / "data.npz"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            ckpt.load(STAGE_PRUNE)

    def test_missing_artifact_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        (ckpt.stage_dir(STAGE_PRUNE) / "data.npz").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            ckpt.load(STAGE_PRUNE)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        PipelineCheckpointer(tmp_path, "one").save(
            STAGE_PRUNE, _write_payload([1])
        )
        other = PipelineCheckpointer(tmp_path, "two")
        with pytest.raises(ArtifactIntegrityError, match="different"):
            other.load(STAGE_PRUNE)

    def test_wrong_stage_name_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        manifest_path = ckpt.stage_dir(STAGE_PRUNE) / MANIFEST_FILENAME
        raw = json.loads(manifest_path.read_text())
        raw["kind"] = f"checkpoint:{STAGE_PROJECT}"
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactIntegrityError, match="expected"):
            ckpt.load(STAGE_PRUNE)

    def test_garbage_manifest_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        manifest_path = ckpt.stage_dir(STAGE_PRUNE) / MANIFEST_FILENAME
        manifest_path.write_text("{not json")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            ckpt.load(STAGE_PRUNE)

    def test_manifest_from_json_requires_object(self):
        with pytest.raises(ArtifactIntegrityError):
            ArtifactManifest.from_json("[1, 2]")


class TestResumeBookkeeping:
    def test_latest_finds_most_advanced_stage(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        assert ckpt.latest() is None
        ckpt.save(STAGE_INGEST, _write_payload([1]), complete=False)
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        stage, manifest = ckpt.latest()
        assert stage == STAGE_PRUNE
        assert manifest.complete

    def test_partial_checkpoints_flagged(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(
            STAGE_INGEST, _write_payload([1]),
            {"cursor": 5}, complete=False,
        )
        manifest, __ = ckpt.load(STAGE_INGEST)
        assert not manifest.complete
        assert manifest.meta["cursor"] == 5

    def test_invalidate_after_drops_later_stages(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_INGEST, _write_payload([1]))
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        ckpt.save(STAGE_PROJECT, _write_payload([3]))
        ckpt.invalidate_after(STAGE_INGEST)
        assert ckpt.has(STAGE_INGEST)
        assert not ckpt.has(STAGE_PRUNE)
        assert not ckpt.has(STAGE_PROJECT)
