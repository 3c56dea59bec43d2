"""The serve-mixed workload: online scoring with hot reloads beside the reads.

Phases of one run, after the inputs are built:

1. set-up, ``SETUP_REPEATS`` times: spawn ``repro-dns serve`` (CLI
   defaults) over the registry and time it until ``/readyz`` answers
   200; every spawn but the last is stopped again;
2. warm-up at the base rate (discarded);
3. base phase: open-loop Poisson load at ``BASE_RATE`` while a writer
   publishes the other day's bundle and POSTs ``/admin/reload`` every
   ``RELOAD_EVERY_S``; gives ``p50_ms``, ``p99_ms`` and ``reload_s``;
4. rate search, reads only: log-scale bisection over short open-loop
   probes; ``max_rate_rps`` interpolates, in log-rate,
   where the tail latency crosses the limit between the highest passing
   and the lowest failing probe;
5. bulk phase, ``BULK_REPEATS`` times: closed loop over every
   connection, rescoring the active model's whole vocabulary plus as
   many unknown names in 32-name requests; the medians give ``e2e_s``
   and ``records_per_s``.

Every 200 response is then checked against ``DomainScorer.score_batch``
on the bundle of the version it names, read back from the registry.
"""

from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from arith import interpolate_rate, median, search_max_rate, self_times, tail_percentile
from inputs import day_bundles
from loadgen import Connection, NameMix, Outcome, Request, build_requests, poisson_offsets, run_load
from repro.serve.registry import ModelRegistry
from repro.serve.scorer import DomainScorer
from spans import SpanRecorder

BASE_RATE = 14.0
LATENCY_LIMIT_S = 0.100
RELOAD_EVERY_S = 1.0
SEARCH_LOW, SEARCH_HIGH, SEARCH_STEPS = 16.0, 64.0, 4
SETUP_REPEATS = 5
BULK_REPEATS = 3
WARMUP_S = 1.0
#: A run fails when its generator's own lag tail exceeds this.
MAX_GEN_LAG_S = 0.050
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
#: Served scores may differ from a recomputation by rounding only.
SCORE_TOLERANCE = 1e-9


@dataclass
class Reload:
    version: int
    started: float
    acked: float = math.nan


@dataclass
class Server:
    proc: subprocess.Popen
    out_dir: Path
    host: str
    port: int


def spawn_server(
    registry: Path, out_dir: Path, env: dict[str, str], bench_dir: Path, traced: bool
) -> tuple[Server, float]:
    """Start the service; returns it and its spawn-to-ready time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(bench_dir / "serve_child.py"), str(out_dir)]
    if traced:
        command.append("--spans")
    command += ["--", str(registry), "--port", "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if "http://" not in line:
        stop_server(Server(proc, out_dir, "", 0))
        raise RuntimeError(f"service did not start: {line!r}")
    host, port = line.rsplit("http://", 1)[1].split()[0].rsplit(":", 1)
    server = Server(proc, out_dir, host, int(port))
    probe = Connection(server.host, server.port)
    while True:
        try:
            status, __ = probe.request("GET", "/readyz")
        except OSError:
            status = 0
        if status == 200:
            break
        if time.monotonic() - spawned > READY_TIMEOUT_S:
            stop_server(server)
            raise RuntimeError("service never became ready")
        time.sleep(0.005)
    ready = time.monotonic()
    probe.close()
    return server, ready - spawned


def stop_server(server: Server) -> dict[str, Any]:
    """SIGINT (the CLI's shutdown path), wait, and read its report."""
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGINT)
    try:
        server.proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
    if server.proc.stdout is not None:
        server.proc.stdout.close()
    report = server.out_dir / "serve.json"
    return json.loads(report.read_text()) if report.exists() else {}


class Writer(threading.Thread):
    """Publishes the other bundle and reloads the service, periodically."""

    def __init__(
        self,
        bundles: list,
        version_bundle: dict[int, int],
        conn: Connection,
        publish: Callable[[Any], int],
    ) -> None:
        super().__init__(daemon=True)
        self.bundles = bundles
        self.version_bundle = version_bundle
        self.conn = conn
        self.publish = publish
        self.reloads: list[Reload] = []
        self.errors: list[str] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(RELOAD_EVERY_S):
            latest = max(self.version_bundle)
            bundle_index = 1 - self.version_bundle[latest]
            started = time.monotonic()
            version = self.publish(self.bundles[bundle_index])
            self.version_bundle[version] = bundle_index
            record = Reload(version, started)
            try:
                status, data = self.conn.request(
                    "POST", "/admin/reload", json.dumps({"version": version}).encode()
                )
                if status == 200 and json.loads(data)["model_version"] == version:
                    record.acked = time.monotonic()
            except OSError as exc:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            self.reloads.append(record)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def probe_tail(outcomes: list[Outcome]) -> float:
    """Tail latency of a probe; failed requests count as infinitely late."""
    latencies = [o.latency if o.ok else math.inf for o in outcomes]
    return tail_percentile(latencies)[1] if len(latencies) > 10 else max(latencies)


def probe_passes(outcomes: list[Outcome]) -> bool:
    """Zero failures, tail latency within the limit, no growing backlog."""
    if not outcomes or not all(o.ok for o in outcomes):
        return False
    latencies = [o.latency for o in outcomes]
    if len(latencies) > 10 and tail_percentile(latencies)[1] > LATENCY_LIMIT_S:
        return False
    third = max(len(latencies) // 3, 1)
    return median(latencies[-third:]) - median(latencies[:third]) <= LATENCY_LIMIT_S


def check_responses(
    outcomes: list[Outcome],
    registry: ModelRegistry,
    reloads: list[Reload],
    unknown: Callable[[str], bool],
) -> tuple[int, dict[str, bool], int]:
    """Failed operations, named checks, and scores that differ in the last bits.

    Each verdict is compared with ``DomainScorer.score_batch`` over the
    bundle of the version the response names, read back from the
    registry: same ``known`` flag, ``malicious`` exactly ``score >=
    threshold_``, and the same score within :data:`SCORE_TOLERANCE`.
    Scores are not compared bit for bit because the scorer does not
    promise that: numpy's matrix products take different BLAS paths for
    different batch shapes, so a domain's score can differ in the last
    bit depending on the batch it was first scored in (the service
    caches that first verdict). Such scores are counted, not failed.
    """
    failed = last_bit = 0
    seen: dict[int, set[str]] = {}
    for outcome in outcomes:
        if outcome.ok:
            seen.setdefault(outcome.body["model_version"], set()).update(outcome.request.names)
    expected: dict[tuple[int, str], tuple[float, bool]] = {}
    thresholds: dict[int, float] = {}
    for version, names in seen.items():
        bundle = registry.load(version)
        thresholds[version] = bundle.classifier.threshold_
        ordered = sorted(names)
        for name, verdict in zip(ordered, DomainScorer(bundle, cache_size=0).score_batch(ordered)):
            expected[version, name] = (verdict.score, verdict.known)
    matches = unknown_ok = monotone = after_ack = True
    last_version: dict[int, int] = {}
    acks = sorted((r.acked, r.version) for r in reloads if r.acked == r.acked)
    for outcome in sorted(outcomes, key=lambda o: o.sent):
        if not outcome.ok:
            failed += 1
            continue
        version = outcome.body["model_version"]
        results = outcome.body["results"]
        good = len(results) == len(outcome.request.names)
        for name, result in zip(outcome.request.names, results):
            score, known = expected[version, name]
            served = result["score"]
            same = (
                result["domain"] == name
                and result["known"] == known
                and isinstance(served, float)
                and abs(served - score) <= SCORE_TOLERANCE
                and result["malicious"] == (served >= thresholds[version])
            )
            last_bit += same and served != score
            if unknown(name) and result["known"] is not False:
                unknown_ok = good = False
            matches &= same
            good &= same
        if version < last_version.get(outcome.conn, 0):
            monotone = good = False
        last_version[outcome.conn] = version
        floor = max((v for t, v in acks if t <= outcome.sent), default=0)
        if version < floor:
            after_ack = good = False
        failed += not good
    checks = {
        "verdicts_match_bundle": matches,
        "unknown_names_unknown": unknown_ok,
        "versions_monotone": monotone,
        "reload_visible_after_ack": after_ack,
    }
    return failed, checks, last_bit


@dataclass
class Phases:
    base: list[Outcome] = field(default_factory=list)
    probes: list[tuple[float, list[Outcome]]] = field(default_factory=list)
    bulk: list[Outcome] = field(default_factory=list)
    bulk_s: list[float] = field(default_factory=list)


def run(
    seed: int,
    seconds: float,
    traced: bool,
    work: Path,
    env: dict[str, str],
    bench_dir: Path,
    cpus: int,
) -> dict[str, Any]:
    rng = np.random.default_rng(seed)
    bundles, day1_auc = day_bundles(seed)
    registry_dir = work / "registry"
    registry = ModelRegistry(registry_dir)
    recorder = SpanRecorder() if traced else None
    publish = registry.publish
    if recorder is not None:
        def publish(bundle: Any) -> int:
            return recorder.call("registry.publish", registry.publish, bundle)
    version_bundle = {publish(bundles[0]): 0}

    setups = []
    server = None
    for attempt in range(SETUP_REPEATS):
        last = attempt == SETUP_REPEATS - 1
        server, setup_s = spawn_server(
            registry_dir, work / f"serve{attempt}", env, bench_dir, traced and last
        )
        setups.append(setup_s)
        if not last:
            stop_server(server)
    assert server is not None

    known_order = list(bundles[0].domains)
    rng.shuffle(known_order)
    mix = NameMix(known_order)
    vocabulary = set(bundles[0].domains) | set(bundles[1].domains)

    def is_unknown(name: str) -> bool:
        return name not in vocabulary

    conns = [Connection(server.host, server.port) for __ in range(cpus)]
    writer_conn = Connection(server.host, server.port)
    phases = Phases()
    writer = None
    try:
        warm = build_requests(rng, poisson_offsets(rng, BASE_RATE, WARMUP_S), mix)
        run_load(conns, warm, time.monotonic() + 0.01)

        writer = Writer(bundles, version_bundle, writer_conn, publish)
        writer.start()
        base_s = 0.45 * seconds
        base = build_requests(rng, poisson_offsets(rng, BASE_RATE, base_s), mix)
        phases.base = run_load(conns, base, time.monotonic() + 0.01)
        writer.stop()

        probe_s = 0.4 * seconds / (SEARCH_STEPS + 1)

        def passes(rate: float) -> bool:
            offsets = poisson_offsets(rng, rate, probe_s)
            outcomes = run_load(conns, build_requests(rng, offsets, mix), time.monotonic() + 0.01)
            phases.probes.append((rate, outcomes))
            time.sleep(0.2)  # let the service drain before the next probe
            return probe_passes(outcomes)

        passed_rate, probes = search_max_rate(passes, SEARCH_LOW, SEARCH_HIGH, SEARCH_STEPS)
        tails = {rate: probe_tail(outcomes) for rate, outcomes in phases.probes}
        above = [rate for rate, ok in probes if not ok and rate > passed_rate]
        max_rate = (
            interpolate_rate(
                (passed_rate, tails[passed_rate]),
                (min(above), tails[min(above)]),
                LATENCY_LIMIT_S,
            )
            if above and probes[0][1]
            else passed_rate
        )

        active = max(version_bundle)
        names = list(bundles[version_bundle[active]].domains)
        names += [NameMix.unknown_name(i) for i in range(len(names))]
        rng.shuffle(names)
        bulk = [
            Request(0.0, chunk, json.dumps({"domains": chunk}).encode())
            for chunk in (names[i : i + 32] for i in range(0, len(names), 32))
        ]
        for __ in range(BULK_REPEATS):
            started = time.monotonic()
            phases.bulk += run_load(conns, bulk, None)
            phases.bulk_s.append(time.monotonic() - started)
        status, data = writer_conn.request("GET", "/metrics")
        server_metrics = json.loads(data) if status == 200 else {}
    finally:
        if writer is not None and writer.is_alive():
            writer.stop()
        for conn in [*conns, writer_conn]:
            conn.close()
        report = stop_server(server)

    everything = phases.base + [o for __, p in phases.probes for o in p] + phases.bulk
    failed, checks, last_bit = check_responses(everything, registry, writer.reloads, is_unknown)
    reload_failures = [r for r in writer.reloads if r.acked != r.acked]
    failed += len(reload_failures) + len(writer.errors)
    checks["reloads_acked"] = not reload_failures and not writer.errors
    open_loop = phases.base + [o for __, p in phases.probes for o in p]
    lag_pct, lag = tail_percentile([o.lag for o in open_loop])
    checks["generator_kept_up"] = lag <= MAX_GEN_LAG_S

    base_latency = [o.latency for o in phases.base]
    p99_pct, p99 = tail_percentile(base_latency)
    reload_times = [r.acked - r.started for r in writer.reloads if r.acked == r.acked]
    bulk_domains = sum(len(o.request.names) for o in phases.bulk) / BULK_REPEATS
    metrics = {
        "setup_s": median(setups),
        "p50_ms": 1000 * median(base_latency),
        "p99_ms": 1000 * p99,
        "max_rate_rps": max_rate,
        "reload_s": median(reload_times) if reload_times else math.nan,
        "e2e_s": median(phases.bulk_s),
        "records_per_s": median(bulk_domains / s for s in phases.bulk_s),
        "peak_rss_mb": float(report.get("peak_rss_mb", math.nan)),
        "cv_auc": day1_auc,
    }
    notes = {
        "base_requests": len(base_latency),
        "p99_percentile": p99_pct,
        "probes": [(round(r, 2), ok) for r, ok in probes],
        "reloads": len(writer.reloads),
        "gen_lag_percentile": lag_pct,
        "bulk_requests": len(phases.bulk),
        "base_rate_passes": probe_passes(phases.base),
        "scores_last_bit_differs": last_bit,
    }
    layers = {}
    if traced:
        layers = serve_layers(
            everything, failed, lag, server_metrics, report.get("spans", []),
            recorder.spans if recorder is not None else [], len(writer.reloads),
        )
    return {
        "checks": checks,
        "attempted": len(everything) + len(writer.reloads),
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "notes": notes,
    }


def serve_layers(
    outcomes: list[Outcome],
    failed: int,
    gen_lag: float,
    server_metrics: dict[str, Any],
    server_spans: list[dict],
    parent_spans: list[dict],
    reloads: int,
) -> dict[str, float]:
    """Per-layer numbers from the client, ``/metrics`` and the spans."""
    counters = server_metrics.get("counters", {})
    histograms = server_metrics.get("histograms", {})

    def counter(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0.0))

    selfs = self_times(server_spans)
    scorer_s = sum(selfs[s["id"]] for s in server_spans if s["name"] == "scorer.score_batch")
    loads = [s["end"] - s["start"] for s in server_spans if s["name"] == "registry.load"]
    publishes = [s["end"] - s["start"] for s in parent_spans if s["name"] == "registry.publish"]
    hits, misses = counter("serve.cache.hits"), counter("serve.cache.misses")
    return {
        "http.requests": float(len(outcomes)),
        "http.failed": float(failed),
        "http.gen_lag_ms": 1000 * gen_lag,
        "admission.queue_wait_s": float(
            histograms.get("serve.queue_wait.seconds", {}).get("sum", 0.0)
        ),
        "admission.shed": counter("serve.shed"),
        "scorer.s": scorer_s,
        "scorer.domains": counter("serve.scored_domains"),
        "scorer.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "registry.publish_s": median(publishes) if publishes else 0.0,
        "bundle.load_s": median(loads) if loads else 0.0,
        "reload.count": float(reloads),
    }
