"""Tests for model-artifact bundles (create, save/load, atomic writes).

Torn writes, tampering and malformed manifests are also covered for
bundles and checkpoints alike in ``tests/test_artifacts.py``.
"""

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import MANIFEST_FILENAME, SCHEMA_VERSION
from repro.errors import ArtifactIntegrityError, DatasetError, NotFittedError
from repro.serve import ModelBundle, ModelRegistry
from repro.serve.bundle import BUNDLE_KIND
from repro.serve.registry import CURRENT_FILENAME


class TestCreate:
    def test_manifest_filled_from_inputs(self, make_bundle):
        bundle = make_bundle(seed=3, count=10, dimension=4)
        manifest = bundle.manifest
        assert manifest.kind == BUNDLE_KIND
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.fingerprint == "fp-3"
        assert manifest.created_at == pytest.approx(1_700_000_003.0)

    def test_row_mismatch_rejected(self, make_bundle):
        bundle = make_bundle()
        with pytest.raises(DatasetError, match="disagree"):
            ModelBundle.create(
                bundle.classifier, bundle.features, bundle.domains[:-1]
            )

    def test_non_matrix_features_rejected(self, make_bundle):
        bundle = make_bundle()
        with pytest.raises(DatasetError, match="2-D"):
            ModelBundle.create(
                bundle.classifier, bundle.features[0], bundle.domains[:1]
            )

    def test_from_detector_requires_fit(self):
        from repro.core.pipeline import MaliciousDomainDetector

        with pytest.raises(NotFittedError):
            ModelBundle.from_detector(MaliciousDomainDetector())


class TestRoundTrip:
    def test_byte_exact_scores(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=1)
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.domains == bundle.domains
        assert np.array_equal(loaded.features, bundle.features)
        # Bit-equal inputs make the kernel expansion deterministic, so
        # the decision function must round-trip byte-exactly.
        assert np.array_equal(
            loaded.decision_scores(bundle.features),
            bundle.decision_scores(bundle.features),
        )

    def test_scaler_round_trips(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=2, scaled=True)
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.scaler is not None
        assert np.array_equal(loaded.scaler.mean_, bundle.scaler.mean_)
        assert np.array_equal(
            loaded.decision_scores(bundle.features),
            bundle.decision_scores(bundle.features),
        )

    def test_manifest_round_trips(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=4, metrics={"auc": 0.93})
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.manifest.fingerprint == "fp-4"
        assert loaded.manifest.meta["metrics"] == {"auc": 0.93}
        classifier = loaded.manifest.meta["classifier"]
        assert classifier["bias"] == bundle.classifier._svm._bias
        assert classifier["threshold_"] == bundle.classifier.threshold_
        assert set(loaded.manifest.files) == {
            "classifier.npz", "features.npz",
        }


class TestIntegrity:
    def test_tampered_artifact_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        target = directory / "features.npz"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            ModelBundle.load(directory)

    def test_missing_artifact_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / "classifier.npz").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            ModelBundle.load(directory)

    def test_interrupted_save_rejected(self, make_bundle, tmp_path):
        # A save that died before the manifest must not load: the
        # manifest is written last precisely so this is detectable.
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / MANIFEST_FILENAME).unlink()
        with pytest.raises(ArtifactIntegrityError, match="manifest"):
            ModelBundle.load(directory)

    def test_garbage_manifest_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / MANIFEST_FILENAME).write_text("not json {")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            ModelBundle.load(directory)


class TestAtomicSave:
    """A bundle write is atomic by itself, not only inside the registry."""

    @staticmethod
    def _fail_features_write(monkeypatch):
        write = artifacts.write_arrays

        def partial_write(path, **arrays):
            if path.name != "features.npz":
                return write(path, **arrays)
            path.write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(artifacts, "write_arrays", partial_write)

    def test_failed_publish_leaves_registry_as_it_was(
        self, make_bundle, tmp_path, monkeypatch
    ):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        self._fail_features_write(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            registry.publish(make_bundle(seed=2))
        monkeypatch.undo()
        assert not registry.slot_path(2).exists()
        assert [e.name for e in registry.root.iterdir() if e.name.startswith(".")] == []
        assert (registry.root / CURRENT_FILENAME).read_text().strip() == "1"
        assert registry.load().manifest.fingerprint == "fp-1"
        assert registry.load(1).domains == make_bundle(seed=1).domains

    def test_save_never_overwrites_a_bundle(self, make_bundle, tmp_path):
        directory = make_bundle(seed=1).save(tmp_path / "bundle")
        with pytest.raises(OSError):
            make_bundle(seed=2).save(directory)
        assert ModelBundle.load(directory).manifest.fingerprint == "fp-1"
        assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
