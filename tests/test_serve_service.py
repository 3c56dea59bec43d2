"""HTTP smoke tests for the scoring service (ephemeral port)."""

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    DomainScorer,
    ModelRegistry,
    ScoringService,
    ServiceConfig,
)


def _request(port, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _request_with_headers(port, method, path, body=None, timeout=10):
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=timeout
    )
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return (
            response.status,
            json.loads(response.read() or b"{}"),
            dict(response.getheaders()),
        )
    finally:
        connection.close()


def _get(port, path):
    return _request(port, "GET", path)


def _post(port, path, body):
    return _request(port, "POST", path, body=body)


@pytest.fixture()
def service_setup(make_bundle, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(make_bundle(seed=1))
    metrics = MetricsRegistry()
    config = ServiceConfig(
        port=0,
        max_request_bytes=4096,
        max_batch_size=8,
        request_timeout_seconds=5.0,
    )
    service = ScoringService(registry, config, metrics=metrics)
    __, port = service.start()
    yield service, registry, port, metrics, make_bundle
    service.stop()


class TestHealth:
    def test_healthz(self, service_setup):
        __, __, port, __, __ = service_setup
        assert _get(port, "/healthz") == (200, {"status": "ok"})

    def test_readyz_with_model(self, service_setup):
        __, __, port, __, __ = service_setup
        status, body = _get(port, "/readyz")
        assert status == 200
        assert body == {"ready": True, "model_version": 1}

    def test_unready_without_model(self, tmp_path):
        registry = ModelRegistry(tmp_path / "empty")
        service = ScoringService(
            registry, ServiceConfig(port=0), metrics=MetricsRegistry()
        )
        assert service.ready is False
        with service:
            __, port = service._server.server_address[:2]
            status, body = _get(port, "/readyz")
            assert status == 503
            assert body["ready"] is False
            status, body = _post(port, "/v1/score", {"domain": "a.example"})
            assert status == 503

    def test_unknown_paths_404(self, service_setup):
        __, __, port, __, __ = service_setup
        assert _get(port, "/nope")[0] == 404
        assert _post(port, "/nope", {})[0] == 404


class TestScore:
    def test_http_matches_in_process_scorer(self, service_setup):
        __, registry, port, __, __ = service_setup
        scorer = DomainScorer(registry.load(1), cache_size=0)
        domains = registry.load(1).domains[:5]
        status, body = _post(port, "/v1/score", {"domains": domains})
        assert status == 200
        assert body["model_version"] == 1
        # One batch on both sides: same shapes -> bit-identical scores.
        verdicts = scorer.score_batch(domains)
        for result, verdict in zip(body["results"], verdicts):
            assert result["domain"] == verdict.domain
            assert result["score"] == verdict.score
            assert result["malicious"] == verdict.malicious
            assert result["known"] is True

    def test_single_domain_form(self, service_setup):
        __, registry, port, __, __ = service_setup
        domain = registry.load(1).domains[0]
        status, body = _post(port, "/v1/score", {"domain": domain})
        assert status == 200
        assert len(body["results"]) == 1
        assert body["results"][0]["domain"] == domain

    def test_unknown_domain_flagged(self, service_setup):
        __, __, port, __, __ = service_setup
        status, body = _post(
            port, "/v1/score", {"domains": ["never-seen.example"]}
        )
        assert status == 200
        assert body["results"][0]["known"] is False

    def test_bad_payloads_rejected(self, service_setup):
        __, __, port, __, __ = service_setup
        assert _post(port, "/v1/score", {})[0] == 400
        assert _post(port, "/v1/score", {"domains": []})[0] == 400
        assert _post(port, "/v1/score", {"domains": "x.example"})[0] == 400
        assert _post(port, "/v1/score", {"domains": [1, 2]})[0] == 400

    def test_batch_cap_enforced(self, service_setup):
        __, __, port, __, __ = service_setup
        batch = [f"d{i}.example" for i in range(9)]  # cap is 8
        status, body = _post(port, "/v1/score", {"domains": batch})
        assert status == 413
        assert "max_batch_size" in body["error"]

    def test_oversize_body_rejected(self, service_setup):
        __, __, port, __, __ = service_setup
        huge = {"domains": ["x" * 5000 + ".example"]}  # > 4096 bytes
        assert _post(port, "/v1/score", huge)[0] == 413

    def test_non_json_body_rejected(self, service_setup):
        __, __, port, __, __ = service_setup
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("POST", "/v1/score", body=b"not json {")
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_missing_content_length_rejected(self, service_setup):
        __, __, port, __, __ = service_setup
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/score")
            connection.endheaders()
            assert connection.getresponse().status == 411
        finally:
            connection.close()


class TestReload:
    def test_reload_swaps_to_new_version(self, service_setup):
        service, registry, port, __, make_bundle = service_setup
        registry.publish(make_bundle(seed=2))
        status, body = _post(port, "/admin/reload", {})
        assert status == 200
        assert body == {"model_version": 2, "previous_version": 1}
        assert service.active_version == 2
        status, body = _post(
            port, "/v1/score", {"domains": [registry.load(2).domains[0]]}
        )
        assert body["model_version"] == 2
        assert body["results"][0]["known"] is True

    def test_reload_to_explicit_version(self, service_setup):
        __, registry, port, __, make_bundle = service_setup
        registry.publish(make_bundle(seed=2))
        _post(port, "/admin/reload", {})
        status, body = _post(port, "/admin/reload", {"version": 1})
        assert status == 200
        assert body["model_version"] == 1

    def test_reload_missing_version_conflicts(self, service_setup):
        __, __, port, __, __ = service_setup
        status, body = _post(port, "/admin/reload", {"version": 99})
        assert status == 409
        assert "error" in body

    def test_reload_bad_version_type(self, service_setup):
        __, __, port, __, __ = service_setup
        assert _post(port, "/admin/reload", {"version": "two"})[0] == 400

    def test_reload_under_concurrent_scoring(self, service_setup):
        """Requests racing a hot swap all succeed on a whole model."""
        __, registry, port, __, make_bundle = service_setup
        domain = registry.load(1).domains[0]
        errors: list[object] = []

        def hammer() -> None:
            for __ in range(10):
                status, body = _post(
                    port, "/v1/score", {"domains": [domain]}
                )
                if status != 200 or body["model_version"] not in (1, 2):
                    errors.append((status, body))
                    return

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        for thread in threads:
            thread.start()
        registry.publish(make_bundle(seed=2))
        _post(port, "/admin/reload", {})
        for thread in threads:
            thread.join()
        assert errors == []


class TestMetrics:
    def test_metrics_endpoint_reports_serving_metrics(self, service_setup):
        __, registry, port, metrics, __ = service_setup
        _post(port, "/v1/score", {"domains": [registry.load(1).domains[0]]})
        status, snapshot = _get(port, "/metrics")
        assert status == 200
        assert snapshot["gauges"]["serve.model_version"]["value"] == 1
        assert snapshot["counters"]["serve.reloads"]["value"] >= 1
        assert snapshot["counters"]["serve.requests"]["value"] >= 1
        assert "serve.request.seconds" in snapshot["histograms"]
        assert metrics.counter("serve.scored_domains").value >= 1


class TestLifecycle:
    def test_stop_releases_port(self, make_bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle())
        service = ScoringService(
            registry, ServiceConfig(port=0), metrics=MetricsRegistry()
        )
        __, port = service.start()
        assert _get(port, "/healthz")[0] == 200
        service.stop()
        with pytest.raises(OSError):
            _get(port, "/healthz")

    def test_double_start_rejected(self, service_setup):
        service, __, __, __, __ = service_setup
        with pytest.raises(RuntimeError, match="already running"):
            service.start()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(port=-1).validate()
        with pytest.raises(ValueError):
            ServiceConfig(max_request_bytes=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(request_timeout_seconds=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0).validate()
        with pytest.raises(ValueError, match="cache_size"):
            ServiceConfig(cache_size=-1).validate()
        with pytest.raises(ValueError):
            ServiceConfig(unknown_policy="bogus").validate()
        # NaN slips past a plain range test and inf overflows a wait.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="request_timeout_seconds"):
                ServiceConfig(request_timeout_seconds=bad).validate()
            with pytest.raises(ValueError, match="reload_backoff_seconds"):
                ServiceConfig(reload_backoff_seconds=bad).validate()
            with pytest.raises(ValueError, match="deadline_seconds"):
                ServiceConfig(deadline_seconds=bad).validate()

    def test_config_rejects_out_of_range_port(self):
        with pytest.raises(ValueError, match="65535"):
            ServiceConfig(port=70000).validate()
        ServiceConfig(port=65535).validate()  # boundary is fine

    def test_config_rejects_blank_host(self):
        with pytest.raises(ValueError, match="host"):
            ServiceConfig(host="").validate()
        with pytest.raises(ValueError, match="host"):
            ServiceConfig(host="   ").validate()

    def test_config_validates_hardening_knobs(self):
        with pytest.raises(ValueError, match="max_inflight"):
            ServiceConfig(max_inflight=0).validate()
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceConfig(queue_depth=-1).validate()
        with pytest.raises(ValueError, match="deadline_seconds"):
            ServiceConfig(deadline_seconds=0).validate()
        with pytest.raises(ValueError, match="reload_retries"):
            ServiceConfig(reload_retries=-1).validate()
        with pytest.raises(ValueError, match="reload_backoff_seconds"):
            ServiceConfig(reload_backoff_seconds=-0.1).validate()


class TestAdmissionOverHttp:
    """Load shedding and deadlines end-to-end through the HTTP layer."""

    def _overloaded_service(self, make_bundle, tmp_path, **overrides):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        metrics = MetricsRegistry()
        defaults = dict(
            port=0,
            max_inflight=1,
            queue_depth=0,
            deadline_seconds=5.0,
            request_timeout_seconds=10.0,
        )
        defaults.update(overrides)
        service = ScoringService(
            registry, ServiceConfig(**defaults), metrics=metrics
        )
        __, port = service.start()
        return service, port, metrics

    def _hold_slot(self, patch_scoring, metrics, port, seconds):
        """Occupy the single scoring slot with a slowed-down request on
        a background thread; wait until it is in flight."""
        patch_scoring(latency=seconds, times=1)
        result = {}

        def holder():
            result["response"] = _request(
                port, "POST", "/v1/score", {"domain": "holder.example"}
            )

        thread = threading.Thread(target=holder)
        thread.start()
        deadline = time.monotonic() + 2.0
        while (
            metrics.gauge("serve.inflight").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert metrics.gauge("serve.inflight").value == 1
        return thread, result

    def test_excess_load_shed_with_429_and_retry_after(
        self, make_bundle, tmp_path, patch_scoring
    ):
        service, port, metrics = self._overloaded_service(
            make_bundle, tmp_path
        )
        try:
            thread, held = self._hold_slot(patch_scoring, metrics, port, 0.5)
            status, body, headers = _request_with_headers(
                port, "POST", "/v1/score", {"domain": "shed.example"}
            )
            thread.join()
            assert status == 429
            assert "overloaded" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_seconds"] == int(headers["Retry-After"])
            assert metrics.counter("serve.shed").value == 1
            # The held request completed normally despite the overload.
            assert held["response"][0] == 200
        finally:
            service.stop()

    def test_deadline_exceeded_while_queued_is_503(
        self, make_bundle, tmp_path, patch_scoring
    ):
        service, port, metrics = self._overloaded_service(
            make_bundle, tmp_path, queue_depth=4, deadline_seconds=0.2
        )
        try:
            thread, held = self._hold_slot(patch_scoring, metrics, port, 0.8)
            started = time.perf_counter()
            status, body = _request(
                port, "POST", "/v1/score", {"domain": "late.example"}
            )
            waited = time.perf_counter() - started
            thread.join()
            assert status == 503
            assert "deadline" in body["error"]
            # Rejected at the deadline, well before the slot freed.
            assert waited < 0.8
            assert metrics.counter("serve.deadline_exceeded").value >= 1
            assert held["response"][0] == 200
        finally:
            service.stop()

    def test_health_endpoints_not_gated_by_admission(
        self, make_bundle, tmp_path, patch_scoring
    ):
        """Probes must answer even when scoring is saturated."""
        service, port, metrics = self._overloaded_service(
            make_bundle, tmp_path
        )
        try:
            thread, __ = self._hold_slot(patch_scoring, metrics, port, 0.5)
            assert _request(port, "GET", "/healthz")[0] == 200
            assert _request(port, "GET", "/readyz")[0] == 200
            assert _request(port, "GET", "/metrics")[0] == 200
            thread.join()
        finally:
            service.stop()

    def test_malformed_requests_do_not_consume_slots(
        self, make_bundle, tmp_path, patch_scoring
    ):
        service, port, metrics = self._overloaded_service(
            make_bundle, tmp_path
        )
        try:
            thread, __ = self._hold_slot(patch_scoring, metrics, port, 0.5)
            # Validation rejects these before admission: 400, not 429.
            assert _request(port, "POST", "/v1/score", {})[0] == 400
            assert (
                _request(port, "POST", "/v1/score", {"domains": []})[0]
                == 400
            )
            thread.join()
            assert metrics.counter("serve.shed").value == 0
        finally:
            service.stop()


class TestClientDisconnects:
    def test_mid_response_disconnect_counted_not_crashed(
        self, make_bundle, tmp_path, patch_scoring
    ):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        metrics = MetricsRegistry()
        service = ScoringService(
            registry,
            ServiceConfig(port=0, request_timeout_seconds=5.0),
            metrics=metrics,
        )
        __, port = service.start()
        try:
            # Slow the scorer so the client can vanish before the
            # response write; SO_LINGER(0) turns close() into an RST so
            # the server's write genuinely fails.
            patch_scoring(latency=0.3, times=1)
            requests_before = metrics.counter("serve.requests").value
            errors_before = metrics.counter("serve.errors").value
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            body = json.dumps({"domain": "gone.example"}).encode()
            sock.sendall(
                b"POST /v1/score HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + str(len(body)).encode()
                + b"\r\n\r\n" + body
            )
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            time.sleep(0.05)
            sock.close()
            deadline = time.monotonic() + 3.0
            while (
                metrics.counter("serve.client_disconnects").value == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert metrics.counter("serve.client_disconnects").value >= 1
            # Accounting not skewed: the aborted request is neither a
            # served response nor an error.
            assert metrics.counter("serve.requests").value == requests_before
            assert metrics.counter("serve.errors").value == errors_before
            # The service keeps answering.
            assert _request(port, "GET", "/healthz")[0] == 200
        finally:
            service.stop()


class TestConcurrentReload:
    def test_racing_reloads_cannot_interleave_load_and_swap(
        self, make_bundle, tmp_path
    ):
        """Two threads hammering /admin/reload with different versions
        must leave the gauge and the active model agreeing."""
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(make_bundle(seed=1))
        registry.publish(make_bundle(seed=2))
        metrics = MetricsRegistry()
        service = ScoringService(
            registry, ServiceConfig(port=0), metrics=metrics
        )
        __, port = service.start()
        try:
            errors = []

            def reloader(version):
                for __ in range(8):
                    status, __body = _request(
                        port, "POST", "/admin/reload", {"version": version}
                    )
                    if status != 200:
                        errors.append((version, status))
                        return

            threads = [
                threading.Thread(target=reloader, args=(v,))
                for v in (1, 2, 1, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            # Serialized load-and-swap: whatever won last, the gauge
            # agrees with the active scorer's version.
            assert metrics.gauge("serve.model_version").value == (
                service.active_version
            )
            assert service.active_version in (1, 2)
        finally:
            service.stop()


@pytest.mark.slow
class TestClosedLoopLoad:
    def test_32_clients_against_one_slot_never_hang_or_crash(
        self, make_bundle, tmp_path, patch_scoring
    ):
        """The acceptance scenario: a 32-client closed loop against
        ``max_inflight=1`` always gets an orderly answer — 200 within
        the deadline, 429 with Retry-After, or 503 on deadline — and
        the service stays healthy throughout."""
        # Each score holds the slot for 5 ms, so 32 clients outrun it.
        patch_scoring(latency=0.005)
        registry = ModelRegistry(tmp_path / "models")
        bundle = make_bundle(seed=9, count=64)
        registry.publish(bundle)
        metrics = MetricsRegistry()
        service = ScoringService(
            registry,
            ServiceConfig(
                port=0,
                max_inflight=1,
                queue_depth=4,
                deadline_seconds=2.0,
                request_timeout_seconds=10.0,
            ),
            metrics=metrics,
        )
        __, port = service.start()
        try:
            domains = bundle.domains
            failures = []
            statuses = []
            lock = threading.Lock()

            def client(index):
                for step in range(6):
                    domain = domains[(index * 6 + step) % len(domains)]
                    try:
                        status, body, headers = _request_with_headers(
                            port, "POST", "/v1/score", {"domain": domain},
                            timeout=10,
                        )
                    except Exception as exc:  # reset/hang = hard fail
                        with lock:
                            failures.append(
                                f"client {index}: {type(exc).__name__}: "
                                f"{exc}"
                            )
                        return
                    with lock:
                        statuses.append(status)
                    if status == 200:
                        if body["results"][0]["domain"] != domain:
                            with lock:
                                failures.append("result misrouted")
                            return
                    elif status == 429:
                        if "Retry-After" not in headers:
                            with lock:
                                failures.append("429 without Retry-After")
                            return
                        time.sleep(0.01)
                    elif status == 503:
                        if "deadline" not in body.get("error", ""):
                            with lock:
                                failures.append(f"unexpected 503: {body}")
                            return
                    else:
                        with lock:
                            failures.append(f"unexpected status {status}")
                        return

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(32)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert all(not t.is_alive() for t in threads), "client hung"
            assert failures == []
            assert len(statuses) > 0
            assert set(statuses) <= {200, 429, 503}
            assert statuses.count(200) >= 1
            # Overloaded on purpose: shedding must actually have fired.
            assert 429 in statuses
            # The service survived: still ready, slots all returned.
            assert _request(port, "GET", "/readyz")[0] == 200
            assert metrics.gauge("serve.inflight").value == 0
        finally:
            service.stop()
