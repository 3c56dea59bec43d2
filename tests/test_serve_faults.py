"""Degradation paths of the scoring service under failing doubles:
reload fallback to the last-good model, and scorer-failure 500s.

The faults come from doubles that live only in tests: a registry whose
``load`` raises, and the ``patch_scoring`` fixture's slow or raising
``DomainScorer.score_batch``.
"""

import http.client
import json
import threading
import time

import pytest

from repro.errors import ArtifactIntegrityError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelRegistry, ScoringService, ServiceConfig


class FailingLoadRegistry(ModelRegistry):
    """A registry whose next ``failures`` loads raise a torn-bundle
    error (every load when ``failures`` is ``None``)."""

    def __init__(self, root):
        super().__init__(root)
        self.failures = 0

    def load(self, version=None):
        if self.failures is None or self.failures > 0:
            if self.failures is not None:
                self.failures -= 1
            raise ArtifactIntegrityError("torn bundle")
        return super().load(version)


def _request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


@pytest.fixture()
def faulty_service(make_bundle, tmp_path):
    registry = FailingLoadRegistry(tmp_path / "models")
    registry.publish(make_bundle(seed=1))
    metrics = MetricsRegistry()
    config = ServiceConfig(
        port=0,
        request_timeout_seconds=5.0,
        reload_retries=2,
        reload_backoff_seconds=0.0,  # keep test wall time flat
    )
    service = ScoringService(registry, config, metrics=metrics)
    __, port = service.start()
    yield service, registry, port, metrics, make_bundle
    service.stop()


class TestReloadDegradation:
    def test_torn_bundle_reload_keeps_last_good_model(self, faulty_service):
        """With every load attempt failing, the previous version keeps
        serving: /readyz stays 200, the failure is a structured 409."""
        service, registry, port, metrics, make_bundle = faulty_service
        registry.publish(make_bundle(seed=2))
        registry.failures = None
        status, body = _request(port, "POST", "/admin/reload", {})
        assert status == 409
        assert "torn bundle" in body["error"]
        assert body["active_version"] == 1
        # 1 initial attempt + 2 retries, all counted.
        assert metrics.counter("serve.reload_failures").value == 3
        assert service.active_version == 1
        assert service.ready
        assert _request(port, "GET", "/readyz") == (
            200, {"ready": True, "model_version": 1}
        )
        # Scoring still answers on the last-good model.
        registry.failures = 0
        domain = registry.load(1).domains[0]
        status, body = _request(
            port, "POST", "/v1/score", {"domain": domain}
        )
        assert status == 200
        assert body["model_version"] == 1

    def test_transient_fault_retried_to_success(self, faulty_service):
        """A fault that clears within the retry budget never surfaces."""
        service, registry, port, metrics, make_bundle = faulty_service
        registry.publish(make_bundle(seed=2))
        registry.failures = 2
        status, body = _request(port, "POST", "/admin/reload", {})
        assert status == 200
        assert body["model_version"] == 2
        assert metrics.counter("serve.reload_failures").value == 2

    def test_reload_backoff_applied_between_attempts(
        self, make_bundle, tmp_path
    ):
        registry = FailingLoadRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        service = ScoringService(
            registry,
            ServiceConfig(
                port=0, reload_retries=2, reload_backoff_seconds=0.03
            ),
            metrics=MetricsRegistry(),
        )
        registry.failures = None
        started = time.perf_counter()
        with pytest.raises(ArtifactIntegrityError):
            service.reload()
        # Backoff 0.03 + 0.06 between the three attempts.
        assert time.perf_counter() - started >= 0.08


class TestScorerDegradation:
    def test_scorer_fault_mid_burst_is_a_structured_500(
        self, faulty_service, patch_scoring
    ):
        """One poisoned request answers 500 JSON; neighbors are fine."""
        __, registry, port, metrics, __ = faulty_service
        domains = registry.load(1).domains
        patch_scoring(error=RuntimeError("cache poisoned"), times=1)
        statuses = []
        bodies = []
        lock = threading.Lock()

        def client(domain):
            status, body = _request(
                port, "POST", "/v1/score", {"domain": domain}
            )
            with lock:
                statuses.append(status)
                bodies.append(body)

        threads = [
            threading.Thread(target=client, args=(domains[i],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses.count(500) == 1
        assert statuses.count(200) == 3
        failed = bodies[statuses.index(500)]
        assert "scoring failed" in failed["error"]
        assert "cache poisoned" in failed["error"]
        assert metrics.counter("serve.scorer_failures").value == 1
        assert metrics.counter("serve.errors").value >= 1
        # The service is not wedged: the next request scores normally.
        status, __ = _request(
            port, "POST", "/v1/score", {"domain": domains[0]}
        )
        assert status == 200

    def test_injected_latency_holds_admission_slots(
        self, make_bundle, tmp_path, patch_scoring
    ):
        """A slow scorer makes overload observable: with the single slot
        pinned and the queue full, the next request is shed with 429."""
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        metrics = MetricsRegistry()
        service = ScoringService(
            registry,
            ServiceConfig(
                port=0, max_inflight=1, queue_depth=0,
                deadline_seconds=5.0, request_timeout_seconds=10.0,
            ),
            metrics=metrics,
        )
        __, port = service.start()
        try:
            patch_scoring(latency=0.5)
            results = {}

            def holder():
                results["holder"] = _request(
                    port, "POST", "/v1/score", {"domain": "h.example"}
                )

            thread = threading.Thread(target=holder)
            thread.start()
            deadline = time.monotonic() + 2.0
            while (
                metrics.gauge("serve.inflight").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            status, body = _request(
                port, "POST", "/v1/score", {"domain": "s.example"}
            )
            thread.join()
            assert status == 429
            assert "retry_after_seconds" in body
            assert results["holder"][0] == 200
            assert metrics.counter("serve.shed").value == 1
        finally:
            service.stop()
