"""HTTP scoring daemon over a model registry.

A :class:`ScoringService` wraps a :class:`~repro.serve.registry.
ModelRegistry` plus the active :class:`~repro.serve.scorer.DomainScorer`
behind a ``ThreadingHTTPServer``:

============================  =========================================
``POST /v1/score``            score one domain or a batch (JSON in/out)
``GET /healthz``              liveness — 200 while the process runs
``GET /readyz``               readiness — 200 once a model is loaded
``GET /metrics``              JSON snapshot of the metrics registry
``POST /admin/reload``        swap to the latest (or a given) version
============================  =========================================

Operational guarantees:

* requests are bounded (``Content-Length`` required, capped at
  ``max_request_bytes``; batches capped at ``max_batch_size``);
* scoring concurrency is bounded by an
  :class:`~repro.serve.admission.AdmissionController`: at most
  ``max_inflight`` requests score at once, at most ``queue_depth`` wait
  for a slot, excess load is shed with ``429`` + ``Retry-After``, and a
  request that cannot be served within ``deadline_seconds`` gets a
  ``503`` instead of a stale answer;
* failures degrade instead of cascading: scorer exceptions come back as
  structured JSON ``500`` bodies, reload failures retry with backoff
  and leave the last-good model serving, and a client that disconnects
  mid-response is counted (``serve.client_disconnects``) rather than
  dumped as a traceback;
* each connection gets a socket timeout, so a stalled client cannot pin
  a handler thread forever;
* reload is zero-downtime — the new scorer is swapped in with a single
  reference assignment (serialized by a lock so concurrent reloads
  cannot interleave load-and-swap), and requests already in flight
  finish on the model they started with;
* :meth:`ScoringService.stop` shuts down gracefully: the accept loop
  exits first, then in-flight handler threads are joined.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.bundle import ModelBundle

from repro.errors import ArtifactIntegrityError, DatasetError
from repro.obs.export import snapshot_to_dict
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.serve.admission import (
    DEADLINE,
    SHED,
    AdmissionController,
    Deadline,
)
from repro.serve.registry import ModelRegistry
from repro.serve.scorer import UNKNOWN_POLICIES, DomainScorer, Verdict

__all__ = ["ServiceConfig", "ScoringService"]

_log = get_logger(__name__)


@dataclass(slots=True)
class ServiceConfig:
    """Scoring-service knobs.

    Attributes:
        host: Bind address (loopback by default; expose deliberately).
        port: Bind port; 0 asks the kernel for an ephemeral one.
        max_request_bytes: Reject request bodies larger than this (413).
        request_timeout_seconds: Per-connection socket timeout.
        cache_size: Verdict LRU size for the active scorer.
        unknown_policy: Unknown-domain policy (see
            :data:`~repro.serve.scorer.UNKNOWN_POLICIES`).
        max_batch_size: Most domains accepted in one ``/v1/score`` call.
        max_inflight: Scoring requests allowed to execute concurrently.
        queue_depth: Scoring requests allowed to wait for a slot before
            excess load is shed with 429.
        deadline_seconds: Per-request budget; a request still queued (or
            not yet scored) when it expires gets a 503.
        reload_retries: Extra load attempts before a reload gives up
            and the last-good model stays active.
        reload_backoff_seconds: Base sleep between reload attempts
            (doubles per retry).
    """

    host: str = "127.0.0.1"
    port: int = 8053
    max_request_bytes: int = 1 << 20
    request_timeout_seconds: float = 30.0
    cache_size: int = 4096
    unknown_policy: str = "zero"
    max_batch_size: int = 10_000
    max_inflight: int = 8
    queue_depth: int = 32
    deadline_seconds: float = 5.0
    reload_retries: int = 2
    reload_backoff_seconds: float = 0.05

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings."""
        if not self.host or not self.host.strip():
            raise ValueError("host must be a non-blank bind address")
        if self.port < 0:
            raise ValueError("port must be >= 0")
        if self.port > 65535:
            raise ValueError("port must be <= 65535")
        if self.max_request_bytes < 1:
            raise ValueError("max_request_bytes must be positive")
        # NaN passes every comparison and inf overflows Condition.wait,
        # so each duration must also be finite.
        if not (math.isfinite(self.request_timeout_seconds)
                and self.request_timeout_seconds > 0):
            raise ValueError(
                "request_timeout_seconds must be positive and finite"
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.unknown_policy not in UNKNOWN_POLICIES:
            raise ValueError(
                f"unknown_policy must be one of {UNKNOWN_POLICIES}"
            )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if not (math.isfinite(self.deadline_seconds)
                and self.deadline_seconds > 0):
            raise ValueError("deadline_seconds must be positive and finite")
        if self.reload_retries < 0:
            raise ValueError("reload_retries must be >= 0")
        if not (math.isfinite(self.reload_backoff_seconds)
                and self.reload_backoff_seconds >= 0):
            raise ValueError("reload_backoff_seconds must be finite and >= 0")


@dataclass(frozen=True, slots=True)
class _ActiveModel:
    """The hot-swappable unit: one version with its scorer."""

    version: int
    scorer: DomainScorer


class ScoringService:
    """Online scoring over the bundles published to a registry.

    Construction loads the registry's published version when one exists;
    otherwise the service starts unready (``/readyz`` 503) and becomes
    ready after the first successful :meth:`reload`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.config.validate()
        self._metrics = metrics if metrics is not None else default_registry()
        self._admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            metrics=self._metrics,
        )
        # Serializes load-and-swap: without it two concurrent reloads
        # can interleave so the older bundle wins the assignment while
        # the gauge reports the newer one.
        self._reload_lock = threading.Lock()
        self._active: _ActiveModel | None = None
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        if registry.latest_version() is not None:
            self.reload()

    # ------------------------------------------------------------------
    # Model lifecycle

    @property
    def ready(self) -> bool:
        """Whether a model is loaded and scoring can be served."""
        return self._active is not None

    @property
    def active_version(self) -> int | None:
        """Version currently answering queries, or ``None``."""
        snapshot = self._active
        return snapshot.version if snapshot is not None else None

    def reload(self, version: int | None = None) -> int:
        """Load ``version`` (default: the registry's published one) and
        swap it in without dropping in-flight requests.

        The whole load-and-swap is serialized by a lock so concurrent
        reloads cannot interleave (an older version winning the final
        assignment while the gauge reports the newer one). Load
        failures retry ``config.reload_retries`` times with exponential
        backoff; if every attempt fails with a corrupt or missing
        bundle the last-good model stays active — the service keeps
        answering on the previous version — and the final error
        propagates to the caller (``serve.reload_failures`` counts each
        failed attempt).
        """
        with self._reload_lock:
            resolved = version if version is not None else (
                self.registry.latest_version()
            )
            if resolved is None:
                raise DatasetError(
                    f"no published model versions under {self.registry.root}"
                )
            bundle = self._load_with_retry(resolved)
            scorer = DomainScorer(
                bundle,
                cache_size=self.config.cache_size,
                unknown_policy=self.config.unknown_policy,
                metrics=self._metrics,
            )
            previous = self.active_version
            # The swap: one reference assignment. Handler threads
            # snapshot self._active once per request, so they never see
            # a torn pair.
            self._active = _ActiveModel(version=resolved, scorer=scorer)
            self._metrics.gauge("serve.model_version").set(resolved)
            self._metrics.counter("serve.reloads").inc()
            _log.info(
                "model_reloaded",
                version=resolved,
                previous_version=previous,
                domains=scorer.known_domains,
            )
            return resolved

    def _load_with_retry(self, version: int) -> "ModelBundle":
        """Load a bundle, retrying torn/missing artifacts with backoff.

        Raises the last error once attempts are exhausted; the caller's
        active model is untouched, so the service degrades to "keep
        serving the previous version" rather than going unready.
        """
        attempts = self.config.reload_retries + 1
        for attempt in range(1, attempts + 1):
            try:
                return self.registry.load(version)
            except (ArtifactIntegrityError, DatasetError) as exc:
                self._metrics.counter("serve.reload_failures").inc()
                _log.warning(
                    "reload_attempt_failed",
                    version=version,
                    attempt=attempt,
                    attempts=attempts,
                    active_version=self.active_version,
                    error=str(exc),
                )
                if attempt == attempts:
                    raise
                backoff = self.config.reload_backoff_seconds
                if backoff > 0:
                    time.sleep(backoff * 2 ** (attempt - 1))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Server lifecycle

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns (host, port).

        With ``config.port == 0`` the returned port is the ephemeral one
        the kernel assigned.
        """
        if self._server is not None:
            raise RuntimeError("service is already running")
        server = _quiet_server(self)(
            (self.config.host, self.config.port), _build_handler(self)
        )
        # Graceful shutdown: wait for in-flight handler threads on close
        # (a stalled client is bounded by the per-connection timeout).
        server.daemon_threads = False
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        host, port = server.server_address[:2]
        _log.info(
            "service_started",
            host=str(host),
            port=int(port),
            model_version=self.active_version,
        )
        return str(host), int(port)

    def stop(self) -> None:
        """Stop accepting, finish in-flight requests, release the port."""
        server = self._server
        if server is None:
            return
        server.shutdown()
        server.server_close()
        self._server = None
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.config.request_timeout_seconds)
            self._thread = None
        _log.info("service_stopped")

    def __enter__(self) -> "ScoringService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)

    def handle_score(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Score request -> (HTTP status, response body, extra headers).

        Validation runs before admission (a malformed request must not
        consume a scoring slot); the scoring work itself is gated by
        the admission controller and bounded by the per-request
        deadline, and scorer failures come back as structured 500s.
        """
        if self._active is None:
            return 503, {"error": "no model loaded"}, {}
        raw = payload.get("domains")
        if raw is None:
            single = payload.get("domain")
            if single is None:
                return 400, {"error": 'expected "domain" or "domains"'}, {}
            raw = [single]
        if not isinstance(raw, list) or not raw:
            return 400, {"error": '"domains" must be a non-empty list'}, {}
        if len(raw) > self.config.max_batch_size:
            return 413, {
                "error": f"batch of {len(raw)} exceeds "
                f"max_batch_size={self.config.max_batch_size}"
            }, {}
        if not all(isinstance(d, str) and d for d in raw):
            return 400, {
                "error": "every domain must be a non-empty string"
            }, {}
        deadline = Deadline.after(self.config.deadline_seconds)
        admission = self._admission.try_acquire(deadline)
        if admission.status == SHED:
            retry_after = admission.retry_after_seconds
            return 429, {
                "error": "overloaded: in-flight and queue limits reached",
                "retry_after_seconds": retry_after,
            }, {"Retry-After": str(retry_after)}
        if admission.status == DEADLINE:
            return 503, {
                "error": f"deadline of {self.config.deadline_seconds}s "
                "exceeded while queued"
            }, {}
        started = time.perf_counter()
        try:
            if deadline.expired:
                self._metrics.counter("serve.deadline_exceeded").inc()
                return 503, {
                    "error": f"deadline of {self.config.deadline_seconds}s "
                    "exceeded before scoring"
                }, {}
            try:
                version, verdicts = self._score(raw)
            except Exception as exc:
                # Graceful degradation: a scorer fault is a structured
                # JSON 500 (counted via serve.errors in _send_json and
                # serve.scorer_failures here), never a reset connection.
                self._metrics.counter("serve.scorer_failures").inc()
                _log.error(
                    "scoring_failed",
                    domains=len(raw),
                    error=f"{type(exc).__name__}: {exc}",
                )
                return 500, {
                    "error": f"scoring failed: {exc}"
                }, {}
            return 200, {
                "model_version": version,
                "results": [_verdict_to_json(v) for v in verdicts],
            }, {}
        finally:
            self._admission.release(time.perf_counter() - started)

    def _score(self, domains: list[str]) -> tuple[int, list[Verdict]]:
        """One vectorized scoring pass on a consistent model snapshot."""
        active = self._active
        if active is None:
            raise DatasetError("no model loaded")
        return active.version, active.scorer.score_batch(domains)

    def handle_reload(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Reload request -> (HTTP status, response body, headers)."""
        version = payload.get("version")
        if version is not None and not isinstance(version, int):
            return 400, {"error": '"version" must be an integer'}, {}
        previous = self.active_version
        try:
            resolved = self.reload(version)
        except (DatasetError, ArtifactIntegrityError) as exc:
            return 409, {
                "error": str(exc),
                "active_version": self.active_version,
            }, {}
        return 200, {
            "model_version": resolved,
            "previous_version": previous,
        }, {}

    def metrics_snapshot(self) -> dict[str, Any]:
        """The /metrics payload."""
        return snapshot_to_dict(self._metrics)


def _verdict_to_json(verdict: Verdict) -> dict[str, Any]:
    """JSON-safe verdict (NaN — rejected unknown — becomes null)."""
    score: float | None = verdict.score
    if score is not None and math.isnan(score):
        score = None
    return {
        "domain": verdict.domain,
        "score": score,
        "malicious": verdict.malicious,
        "known": verdict.known,
    }


def _quiet_server(service: ScoringService) -> type[ThreadingHTTPServer]:
    """A server class whose error hook doesn't spray tracebacks.

    ``socketserver`` prints unhandled handler exceptions to stderr; for
    a network service the common case is a client that went away
    mid-conversation, which is routine operation, not a bug. Real
    handler bugs are answered with a JSON 500 inside the handler; this
    hook only logs whatever still escapes.
    """

    disconnect_counter = service._metrics.counter("serve.client_disconnects")

    class QuietServer(ThreadingHTTPServer):
        # socketserver's default listen backlog is 5: a burst of
        # concurrent clients overflows the accept queue and the kernel
        # resets the excess before the service can answer at all. Load
        # beyond capacity must reach the admission controller and get
        # an orderly 429 instead.
        request_queue_size = 128

        def handle_error(
            self, request: Any, client_address: Any
        ) -> None:
            exc = sys.exc_info()[1]
            if isinstance(
                exc, (BrokenPipeError, ConnectionResetError, TimeoutError)
            ):
                # Dead/stalled client detected at connection teardown
                # (e.g. the final flush); not already counted by the
                # per-response path, so count it here.
                disconnect_counter.inc()
                _log.debug(
                    "client_disconnected",
                    client=str(client_address),
                    error=type(exc).__name__,
                )
                return
            _log.error(
                "connection_error",
                client=str(client_address),
                error=f"{type(exc).__name__}: {exc}",
            )

    return QuietServer


def _build_handler(service: ScoringService) -> type[BaseHTTPRequestHandler]:
    """A request-handler class closed over ``service``."""

    request_histogram = service._metrics.histogram("serve.request.seconds")
    request_counter = service._metrics.counter("serve.requests")
    error_counter = service._metrics.counter("serve.errors")
    disconnect_counter = service._metrics.counter("serve.client_disconnects")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"
        # Per-connection socket timeout: a stalled client gets cut off
        # instead of pinning a handler thread.
        timeout = service.config.request_timeout_seconds
        # Whether the current request already got a response (keeps the
        # catch-all 500 path from writing a second response).
        _responded = False

        def log_message(self, format: str, *args: Any) -> None:
            _log.debug("http_access", message=format % args)

        # -- plumbing ---------------------------------------------------

        def _send_json(
            self,
            status: int,
            payload: Mapping[str, Any],
            headers: Mapping[str, str] | None = None,
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if status >= 400:
                    # Error paths may not have drained the request body;
                    # closing keeps the framing honest under HTTP/1.1.
                    self.send_header("Connection", "close")
                    self.close_connection = True
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError) as exc:
                # The client hung up mid-response: routine under load,
                # not an error — counted separately so serve.requests /
                # serve.errors keep meaning "responses actually sent".
                self._responded = True
                self.close_connection = True
                disconnect_counter.inc()
                _log.debug(
                    "client_disconnected",
                    path=self.path,
                    status=status,
                    error=type(exc).__name__,
                )
                return
            self._responded = True
            request_counter.inc()
            if status >= 400:
                error_counter.inc()

        def _read_json_body(self) -> Mapping[str, Any] | None:
            """Parsed body, or ``None`` after an error response."""
            length_header = self.headers.get("Content-Length")
            if length_header is None:
                self._send_json(411, {"error": "Content-Length required"})
                return None
            try:
                length = int(length_header)
            except ValueError:
                self._send_json(400, {"error": "bad Content-Length"})
                return None
            if length < 0:
                self._send_json(400, {"error": "bad Content-Length"})
                return None
            if length > service.config.max_request_bytes:
                self._send_json(
                    413,
                    {
                        "error": f"request body over "
                        f"{service.config.max_request_bytes} bytes"
                    },
                )
                return None
            body = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(body or b"{}")
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._send_json(400, {"error": "request body is not JSON"})
                return None
            if not isinstance(payload, dict):
                self._send_json(
                    400, {"error": "request body must be a JSON object"}
                )
                return None
            return payload

        # -- endpoints --------------------------------------------------

        def _guarded(self, dispatch: Any) -> None:
            """Run one endpoint dispatch with the degradation backstop.

            Any exception that escapes an endpoint becomes a structured
            JSON 500 (when no response has been written yet) instead of
            propagating into socketserver and resetting the connection;
            client disconnects are counted, never raised.
            """
            started = time.perf_counter()
            self._responded = False
            try:
                dispatch()
            except (BrokenPipeError, ConnectionResetError) as exc:
                # Disconnect while reading the request body (the
                # mid-write case is absorbed inside _send_json).
                self.close_connection = True
                disconnect_counter.inc()
                _log.debug(
                    "client_disconnected",
                    path=self.path,
                    error=type(exc).__name__,
                )
            except Exception as exc:
                _log.error(
                    "handler_error",
                    path=self.path,
                    error=f"{type(exc).__name__}: {exc}",
                )
                if not self._responded:
                    try:
                        self._send_json(
                            500,
                            {
                                "error": "internal error: "
                                f"{type(exc).__name__}: {exc}"
                            },
                        )
                    except OSError:  # pragma: no cover - dead socket
                        self.close_connection = True
            finally:
                request_histogram.observe(time.perf_counter() - started)

        def do_GET(self) -> None:
            self._guarded(self._dispatch_get)

        def _dispatch_get(self) -> None:
            if self.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif self.path == "/readyz":
                version = service.active_version
                if version is None:
                    self._send_json(
                        503, {"ready": False, "error": "no model loaded"}
                    )
                else:
                    self._send_json(
                        200, {"ready": True, "model_version": version}
                    )
            elif self.path == "/metrics":
                self._send_json(200, service.metrics_snapshot())
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            self._guarded(self._dispatch_post)

        def _dispatch_post(self) -> None:
            if self.path == "/v1/score":
                payload = self._read_json_body()
                if payload is None:
                    return
                status, response, headers = service.handle_score(payload)
                self._send_json(status, response, headers)
            elif self.path == "/admin/reload":
                payload = self._read_json_body()
                if payload is None:
                    return
                status, response, headers = service.handle_reload(payload)
                self._send_json(status, response, headers)
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})

    return Handler
