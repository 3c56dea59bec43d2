"""Tests for the versioned model registry (atomic publish) and the hot
swap of its versions into the scoring service."""

import threading

import pytest

from repro.errors import DatasetError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelRegistry, ScoringService, ServiceConfig
from repro.serve.registry import CURRENT_FILENAME


class TestPublish:
    def test_versions_count_up_from_one(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        assert registry.versions() == []
        assert registry.latest_version() is None
        assert registry.publish(make_bundle(seed=1)) == 1
        assert registry.publish(make_bundle(seed=2)) == 2
        assert registry.versions() == [1, 2]
        assert registry.latest_version() == 2

    def test_slot_layout_and_current_pointer(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle())
        assert (registry.root / "v0001" / "manifest.json").is_file()
        pointer = registry.root / CURRENT_FILENAME
        assert pointer.read_text().strip() == "1"

    def test_no_staging_leftovers(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle())
        leftovers = [
            entry.name
            for entry in registry.root.iterdir()
            if entry.name.startswith(".")
        ]
        assert leftovers == []

    def test_another_publishers_staging_left_alone(self, make_bundle, tmp_path):
        # Unlike a checkpoint root, a registry root may have concurrent
        # publishers: a staging directory there may still be filling.
        registry = ModelRegistry(tmp_path / "models")
        in_flight = registry.root / ".staging-x"
        in_flight.mkdir()
        (in_flight / "f").write_bytes(b"partial")
        registry.publish(make_bundle())
        assert (in_flight / "f").read_bytes() == b"partial"
        assert registry.versions() == [1]

    def test_existing_slot_never_overwritten(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        # A slot that appeared out-of-band (another process) is skipped,
        # not clobbered.
        (registry.root / "v0002").mkdir()
        version = registry.publish(make_bundle(seed=9))
        assert version == 3
        assert registry.load(3).manifest.fingerprint == "fp-9"

    def test_slot_path_rejects_bad_version(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        with pytest.raises(ValueError):
            registry.slot_path(0)


class TestLoad:
    def test_load_specific_and_latest(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        registry.publish(make_bundle(seed=2))
        assert registry.load(1).manifest.fingerprint == "fp-1"
        assert registry.load().manifest.fingerprint == "fp-2"

    def test_empty_registry_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        with pytest.raises(DatasetError, match="no published"):
            registry.load()

    def test_corrupt_current_falls_back_to_highest_slot(
        self, make_bundle, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        registry.publish(make_bundle(seed=2))
        (registry.root / CURRENT_FILENAME).write_text("garbage")
        assert registry.latest_version() == 2

    def test_dangling_current_falls_back(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        (registry.root / CURRENT_FILENAME).write_text("99\n")
        assert registry.latest_version() == 1


class TestHotSwap:
    """Swapping a published version into service is
    ``ScoringService.reload``'s job; the registry only stores versions."""

    @staticmethod
    def _service(registry):
        return ScoringService(
            registry, ServiceConfig(port=0), metrics=MetricsRegistry()
        )

    def test_activate_latest(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        service = self._service(registry)
        assert service.active_version is None
        registry.publish(make_bundle(seed=1))
        assert service.reload() == 1
        assert service.active_version == 1
        status, body, __ = service.handle_score({"domain": "d1-0.example"})
        assert status == 200
        assert body["model_version"] == 1
        assert body["results"][0]["known"] is True

    def test_activate_empty_registry_raises(self, tmp_path):
        service = self._service(ModelRegistry(tmp_path / "models"))
        with pytest.raises(DatasetError, match="no published"):
            service.reload()
        assert not service.ready

    def test_concurrent_swap_readers_never_see_torn_state(
        self, make_bundle, tmp_path
    ):
        """Readers under continuous hot swap always score on one whole
        model: the version a response reports is the one whose domains
        it knows (bundle N holds the names ``dN-*.example``)."""
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        service = self._service(registry)
        probes = [f"d{seed}-0.example" for seed in range(1, 7)]
        stop = threading.Event()
        torn: list[tuple[int, list[bool]]] = []

        def reader() -> None:
            while not stop.is_set():
                __, body, __ = service.handle_score({"domains": probes})
                version = body["model_version"]
                known = [result["known"] for result in body["results"]]
                if known != [seed == version for seed in range(1, 7)]:
                    torn.append((version, known))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(2, 7):
                version = registry.publish(make_bundle(seed=seed))
                assert version == seed
                service.reload(version)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert torn == []
        assert service.active_version == 6
