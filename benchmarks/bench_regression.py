"""Benchmark-regression harness: the repo's performance trajectory.

Runs the detection pipeline on a small fixed-seed trace and emits a
machine-readable JSON point — LINE throughput, alias-table build time,
SVM fit time and memory, serving latency, peak RSS, and serial-vs-
parallel embedding timings. CI runs this on every push
(``--baseline BENCH_baseline.json``) and fails when any tracked metric
regresses more than the tolerance, so "make the hot path faster" claims
stay honest and silent slowdowns can't land.

Per-stage wall times (``stage.pipeline.*``, from the ``repro.obs``
snapshot) are recorded as info only: ``perfbench`` measures each stage
end to end (``ingest.s``, ``prune.s``, ``project.s``, ``embed.s``,
``classify.s``), and these single-shot sums of a few milliseconds are
too noisy to gate at a fractional tolerance. The stage-graph engine's
overhead is held by its FATAL limit (2% of the stage time) rather than
against the baseline: it is the difference of two timings of a few
milliseconds and reads anywhere from 0 to 0.6 ms from run to run.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py --out BENCH_ci.json
    PYTHONPATH=src python benchmarks/bench_regression.py \
        --out BENCH_ci.json --baseline BENCH_baseline.json --tolerance 0.25
    PYTHONPATH=src python benchmarks/bench_regression.py \
        --update-baseline BENCH_baseline.json

Wall-clock numbers are machine-dependent: regenerate the baseline
(``--update-baseline``) when the reference hardware changes, and read
cross-machine deltas as trajectory, not truth. The ``speedup`` field is
informational only (it collapses to ~1.0 on single-core runners, which
would make gating on it flaky).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

#: Metric -> improvement direction. "lower" metrics regress when they
#: grow past baseline * (1 + tolerance); "higher" metrics regress when
#: they fall below baseline * (1 - tolerance).
TRACKED_METRICS = {
    "line.edges_per_sec": "higher",
    "alias.build_seconds": "lower",
    "embedding.serial_seconds": "lower",
    "embedding.parallel_seconds": "lower",
    "serve_score_p50_us": "lower",
    "svm_fit_seconds": "lower",
    "svm_fit_peak_mb": "lower",
    "cv.parallel_identical": "higher",
    "peak_rss_mb": "lower",
    "ingest_peak_rss_mb": "lower",
}


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def _timed(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time: the min is far less noisy than any
    single run on a loaded machine (noise is strictly additive)."""
    best = float("inf")
    for __ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_alias(seed: int, repeats: int) -> dict[str, float]:
    """Alias-table construction cost on 1M weights (and the old loop)."""
    from repro.embedding.alias import build_alias_tables

    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, 1_000_000)
    vectorized = _timed(lambda: build_alias_tables(weights), repeats + 1)
    loop_weights = weights[:200_000]
    loop = _timed(
        lambda: build_alias_tables(loop_weights, vectorized=False), repeats
    )
    return {
        "alias.build_seconds": vectorized,
        "alias.loop_build_seconds_200k": loop,
    }


def _bench_serve_scorer(detector, repeats: int) -> dict[str, float]:
    """Median single-domain scoring latency through the serving layer.

    Packages the fitted detector into a :class:`ModelBundle` and times
    uncached :class:`DomainScorer` lookups (cache_size=0, so every call
    pays the full gather -> scale -> decision-function path). Reported
    as the p50 in microseconds over a round-robin of known domains;
    best-of-``repeats`` to shed scheduler noise.
    """
    from repro.serve import DomainScorer, ModelBundle

    bundle = ModelBundle.from_detector(detector)
    scorer = DomainScorer(bundle, cache_size=0)
    domains = bundle.domains[: min(64, len(bundle.domains))]
    calls = 400

    best_p50 = float("inf")
    for __ in range(max(1, repeats)):
        samples = np.empty(calls)
        for i in range(calls):
            domain = domains[i % len(domains)]
            started = time.perf_counter()
            scorer.score(domain)
            samples[i] = time.perf_counter() - started
        best_p50 = min(best_p50, float(np.median(samples)))
    return {"serve_score_p50_us": best_p50 * 1e6}


# Child script for _bench_ingest_rss: chunked graph construction over an
# on-disk trace, printing the process's own peak RSS in MiB. Runs in a
# fresh interpreter because ru_maxrss measured in the parent would be
# dominated by the alias/embedding benches above. The child samples
# current RSS from /proc/self/statm at chunk boundaries instead of
# trusting its own ru_maxrss: on some kernels the high-water mark
# survives exec, so a fresh child would just echo the parent's peak.
_INGEST_RSS_CHILD = """
import os, resource, sys
sys.path[:0] = {sys_path!r}
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.graphs.bipartite import BipartiteGraph, fold_columns_into_graphs
from repro.graphs.core import VertexTable
from repro.ingest import ChunkPolicy, ChunkedTraceReader

def rss_bytes():
    try:
        with open("/proc/self/statm") as stream:
            return int(stream.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak * (1024 if sys.platform != "darwin" else 1)

identity = HostIdentityResolver(DhcpLog.load({trace_dir!r} + "/dhcp.log"))
table = VertexTable()
graphs = (
    BipartiteGraph(kind="host", left=table),
    BipartiteGraph(kind="ip", left=table),
    BipartiteGraph(kind="time", left=table),
)
peak = rss_bytes()
with ChunkedTraceReader(
    {trace_dir!r} + "/dns.log", ChunkPolicy(max_records={chunk_records})
) as reader:
    for batch in reader:
        fold_columns_into_graphs(
            batch.columns, *graphs, identity=identity, window_seconds=60.0
        )
        peak = max(peak, rss_bytes())
print(peak / (1024.0 * 1024.0))
"""


def _bench_ingest_rss(trace, chunk_records: int = 5_000) -> dict[str, float]:
    """Peak RSS (MiB) of chunked out-of-core graph construction."""
    with tempfile.TemporaryDirectory() as tmp:
        trace.save(Path(tmp))
        child = _INGEST_RSS_CHILD.format(
            sys_path=sys.path, trace_dir=tmp, chunk_records=chunk_records
        )
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            check=True,
        )
    return {"ingest_peak_rss_mb": float(result.stdout.strip().splitlines()[-1])}


def _bench_svm_solver(seed: int, repeats: int) -> tuple[
    dict[str, float], dict[str, float]
]:
    """SMO fit time and peak memory vs the dense Gram matrix.

    Fits the row-cached SMO solver on an n=1200 workload under a small
    ``kernel_cache_mb`` budget and measures its tracemalloc peak. The
    FATAL gate asserts that solver memory is bounded by the cache budget
    (plus O(n) solver state), not by the n x n Gram matrix
    (``n * n * 8`` bytes) a dense solver would allocate.
    """
    import tracemalloc

    from repro.ml.svm import SupportVectorClassifier

    rng = np.random.default_rng(seed)
    n, dims = 1200, 8
    features = rng.normal(size=(n, dims))
    labels = (
        features[:, 0] + 0.5 * features[:, 1] + 0.3 * rng.normal(size=n) > 0
    ).astype(int)
    cache_mb = 4.0

    def _model() -> SupportVectorClassifier:
        return SupportVectorClassifier(kernel_cache_mb=cache_mb, c=1.0, gamma=0.1)

    metrics: dict[str, float] = {}
    info: dict[str, float] = {}
    metrics["svm_fit_seconds"] = _timed(
        lambda: _model().fit(features, labels), repeats
    )

    tracemalloc.start()
    try:
        _model().fit(features, labels)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    metrics["svm_fit_peak_mb"] = peak / (1024.0 * 1024.0)
    dense_gram_mb = n * n * 8 / (1024.0 * 1024.0)
    info["svm.dense_gram_mb"] = dense_gram_mb
    info["svm.cache_budget_mb"] = cache_mb
    # Budget + O(n) solver state (alpha/gradient/masks) + numpy temp
    # headroom; far below the n^2 Gram footprint either way.
    peak_limit = cache_mb * 2.0 + 2.0
    if metrics["svm_fit_peak_mb"] > min(peak_limit, dense_gram_mb):
        print(
            "FATAL: cached-solver peak "
            f"{metrics['svm_fit_peak_mb']:.2f} MiB exceeds its budget-"
            f"bound limit {peak_limit:.2f} MiB "
            f"(dense Gram would be {dense_gram_mb:.2f} MiB)",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return metrics, info


def _bench_parallel_cv(args: argparse.Namespace) -> tuple[
    dict[str, float], dict[str, float]
]:
    """Serial vs parallel grid-search over the bench grid.

    Runs the same (cell x fold) grid through the serial path and the
    configured worker pool and asserts the evaluations are *exactly*
    equal — the ``cv.parallel_identical`` determinism contract. Wall
    times for both modes are recorded; the speedup itself stays
    informational (single-core runners would make gating on it flaky).
    """
    from repro.ml.grid_search import grid_search
    from repro.ml.svm import SupportVectorClassifier
    from repro.parallel import ParallelConfig

    rng = np.random.default_rng(args.seed + 1)
    n = 420
    features = rng.normal(size=(n, 6))
    labels = (
        features[:, 0] + 0.4 * features[:, 1] + 0.3 * rng.normal(size=n) > 0
    ).astype(int)
    grid = {"c": (0.3, 1.0), "gamma": (0.1, 0.3)}
    results: dict[str, object] = {}

    def _serial():
        results["serial"] = grid_search(
            features, labels, SupportVectorClassifier, grid, n_splits=3
        )

    serial_seconds = _timed(_serial, args.repeats)

    parallel_config = ParallelConfig(
        workers=args.workers, backend=args.backend, min_parallel_weight=0
    )

    def _parallel():
        results["parallel"] = grid_search(
            features,
            labels,
            SupportVectorClassifier,
            grid,
            n_splits=3,
            parallel=parallel_config,
        )

    parallel_seconds = _timed(_parallel, args.repeats)

    serial_result = results["serial"]
    parallel_result = results["parallel"]
    identical = (
        serial_result.evaluations == parallel_result.evaluations
        and serial_result.best_params == parallel_result.best_params
    )
    if not identical:
        print(
            "FATAL: parallel grid-search evaluations diverge from serial",
            file=sys.stderr,
        )
        raise SystemExit(1)

    metrics = {"cv.parallel_identical": 1.0}
    info = {
        "cv.grid_serial_seconds": serial_seconds,
        "cv.grid_parallel_seconds": parallel_seconds,
        "cv.grid_parallel_speedup": serial_seconds
        / max(parallel_seconds, 1e-9),
    }
    return metrics, info


def _bench_engine_overhead(trace, repeats: int) -> dict[str, float]:
    """Stage-graph dispatch tax: engine run vs direct graph-layer calls.

    Times prune -> project twice over the same prebuilt raw graphs —
    once through ``StageGraph.execute`` (DAG validation, the loop's
    activity and checkpoint checks, artifact-store traffic, spans) and
    once as direct calls into the graph layer — and reports the
    difference. This is the abstraction
    cost the typed engine adds per pipeline run; ``run_benchmark``
    asserts it stays under 2% of the end-to-end stage time.
    """
    from repro.core.dataflow import (
        RAW_GRAPHS,
        RECORDS_INGESTED,
        ProjectStage,
        PruneStage,
    )
    from repro.core.pipeline import PipelineConfig
    from repro.core.stages import ArtifactStore, StageGraph
    from repro.graphs import (
        VertexTable,
        build_domain_ip_graph,
        build_query_graphs,
        project_to_similarity,
        prune_graphs,
    )

    config = PipelineConfig()
    domains = VertexTable()
    host, times = build_query_graphs(trace.queries, domains=domains)
    ips = build_domain_ip_graph(trace.responses, domains=domains)
    graph = StageGraph(
        [PruneStage(config.pruning), ProjectStage(config.min_similarity)],
        initial=(RAW_GRAPHS, RECORDS_INGESTED),
    )

    def _engine():
        store = ArtifactStore()
        store.put(RAW_GRAPHS, (host, ips, times))
        store.put(RECORDS_INGESTED, len(trace.queries))
        graph.execute(store)

    def _direct():
        pruned_host, pruned_ip, pruned_time, report = prune_graphs(
            host, ips, times, config.pruning
        )
        order = sorted(report.surviving_domains)
        for view in (pruned_host, pruned_ip, pruned_time):
            project_to_similarity(view, order, config.min_similarity)

    engine = _timed(_engine, repeats + 1)
    direct = _timed(_direct, repeats + 1)
    return {
        "stage_engine_overhead_seconds": max(0.0, engine - direct),
        "engine_seconds": engine,
        "direct_seconds": direct,
    }


def _stage_seconds(snapshot: dict) -> dict[str, float]:
    """Total wall time per traced stage from an obs snapshot dict."""
    stages = {}
    for name, data in snapshot.get("histograms", {}).items():
        if name.startswith("stage.") and name.endswith(".seconds"):
            stages[name] = float(data["sum"])
    return stages


def run_benchmark(args: argparse.Namespace) -> dict:
    """One full measurement pass; returns the result document."""
    from repro.core.dataflow import line_config_for
    from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
    from repro.embedding.line import LineConfig
    from repro.labels import (
        IntelligenceFeed,
        SimulatedVirusTotal,
        build_labeled_dataset,
    )
    from repro.obs import default_registry
    from repro.obs.export import snapshot_to_dict
    from repro.parallel import ParallelConfig
    from repro.parallel.train import train_views
    from repro.simulation import SimulationConfig, TraceGenerator

    metrics: dict[str, float] = {}
    info: dict[str, float] = {}

    metrics.update(_bench_alias(args.seed, args.repeats))

    trace = TraceGenerator(SimulationConfig.tiny(seed=args.seed)).generate()
    metrics.update(_bench_ingest_rss(trace))

    registry = default_registry()
    registry.reset()

    line_config = LineConfig(dimension=args.dimension, seed=args.seed)
    detector = MaliciousDomainDetector(PipelineConfig(embedding=line_config))
    detector.build_graphs(trace.queries, trace.responses, trace.dhcp)
    detector.build_similarity_graphs()
    detector.learn_embeddings()
    feed = IntelligenceFeed(trace.ground_truth)
    virustotal = SimulatedVirusTotal(trace.ground_truth)
    dataset = build_labeled_dataset(feed, virustotal, detector.domains)
    detector.fit(dataset)

    metrics.update(_bench_serve_scorer(detector, args.repeats))

    svm_metrics, svm_info = _bench_svm_solver(args.seed, args.repeats)
    metrics.update(svm_metrics)
    info.update(svm_info)
    cv_metrics, cv_info = _bench_parallel_cv(args)
    metrics.update(cv_metrics)
    info.update(cv_info)

    snapshot = snapshot_to_dict(registry)
    info.update(_stage_seconds(snapshot))
    gauge = snapshot.get("gauges", {}).get("line.edges_per_sec")
    if gauge is not None:
        info["line.edges_per_sec.last_view"] = float(gauge["value"])

    # Engine abstraction tax: the stage-graph refactor must stay free.
    # Gate at 2% of the end-to-end traced stage time (with the usual
    # absolute noise floor) so the typed engine can never quietly turn
    # into a per-run cost.
    overhead = _bench_engine_overhead(trace, args.repeats)
    metrics["stage_engine_overhead_seconds"] = overhead[
        "stage_engine_overhead_seconds"
    ]
    info["engine.run_seconds"] = overhead["engine_seconds"]
    info["engine.direct_seconds"] = overhead["direct_seconds"]
    end_to_end = sum(
        seconds
        for name, seconds in _stage_seconds(snapshot).items()
        if name.startswith("stage.pipeline.")
    )
    overhead_limit = max(0.02 * end_to_end, 0.05)
    info["engine.overhead_limit_seconds"] = overhead_limit
    if metrics["stage_engine_overhead_seconds"] > overhead_limit:
        print(
            "FATAL: stage-graph engine overhead "
            f"{metrics['stage_engine_overhead_seconds']:.4f}s exceeds "
            f"{overhead_limit:.4f}s (2% of end-to-end stage time)",
            file=sys.stderr,
        )
        raise SystemExit(1)

    # Serial vs parallel embedding on the *same* similarity graphs: the
    # tentpole claim this file exists to track. Best-of-N timings; the
    # last run of each mode is kept for the equality assertion.
    views = [
        (view.value, graph, line_config_for(detector.config.embedding, view))
        for view, graph in detector.similarity_graphs.items()
    ]
    serial_config = ParallelConfig(workers=0)
    results: dict[str, dict] = {}

    def _serial_run():
        results["serial"] = train_views(views, serial_config)

    metrics["embedding.serial_seconds"] = _timed(_serial_run, args.repeats)

    parallel_config = ParallelConfig(
        workers=args.workers, backend=args.backend, min_parallel_weight=0
    )

    def _parallel_run():
        results["parallel"] = train_views(views, parallel_config)

    metrics["embedding.parallel_seconds"] = _timed(_parallel_run, args.repeats)
    serial_result = results["serial"]
    parallel_result = results["parallel"]

    # Throughput derived from the best serial run (stabler than the
    # last-write-wins gauge the training loop records).
    total_samples = sum(
        config.resolved_samples(graph.edge_count)
        for __, graph, config in views
        if graph.edge_count > 0
    )
    metrics["line.edges_per_sec"] = total_samples / max(
        metrics["embedding.serial_seconds"], 1e-9
    )

    identical = all(
        np.array_equal(serial_result[key].vectors, parallel_result[key].vectors)
        for key, __, __ in views
    )
    if not identical:
        print("FATAL: parallel embeddings diverge from serial", file=sys.stderr)
        raise SystemExit(1)
    info["embedding.parallel_speedup"] = (
        metrics["embedding.serial_seconds"]
        / max(metrics["embedding.parallel_seconds"], 1e-9)
    )
    info["embedding.parallel_identical"] = 1.0

    metrics["peak_rss_mb"] = _peak_rss_mb()
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "seed": args.seed,
            "dimension": args.dimension,
            "workers": args.workers,
            "backend": args.backend,
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "metrics": metrics,
        "info": info,
    }


def compare_to_baseline(
    result: dict,
    baseline: dict,
    tolerance: float,
    min_seconds: float = 0.05,
) -> list[str]:
    """Regression messages (empty when everything is within tolerance).

    Time metrics additionally get an absolute ``min_seconds`` noise
    floor: a stage that went from 0.7ms to 1.0ms is scheduler jitter,
    not a 43% regression, and must not fail the build.
    """
    failures = []
    base_metrics = baseline.get("metrics", {})
    for name, direction in TRACKED_METRICS.items():
        current = result["metrics"].get(name)
        reference = base_metrics.get(name)
        if current is None or reference is None or reference <= 0:
            continue
        slack = min_seconds if name.endswith(".seconds") else 0.0
        ratio = current / reference
        if direction == "lower" and current > reference * (1.0 + tolerance) + slack:
            failures.append(
                f"{name}: {current:.4g} vs baseline {reference:.4g} "
                f"({ratio:.2f}x, limit {1.0 + tolerance:.2f}x)"
            )
        elif direction == "higher" and ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: {current:.4g} vs baseline {reference:.4g} "
                f"({ratio:.2f}x, limit {1.0 - tolerance:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the result JSON to PATH")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="compare against a committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="absolute noise floor for time metrics "
                        "(default 0.05s)")
    parser.add_argument("--update-baseline", metavar="PATH", default=None,
                        help="write the result as the new baseline")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of repeats for the heavy timings "
                        "(default 2)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dimension", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", default="process",
                        choices=["process", "thread"])
    args = parser.parse_args(argv)

    result = run_benchmark(args)

    print("benchmark point:")
    for name in sorted(result["metrics"]):
        print(f"  {name:32s} {result['metrics'][name]:12.4f}")
    for name in sorted(result["info"]):
        print(f"  {name:32s} {result['info'][name]:12.4f}  (info)")

    for path in (args.out, args.update_baseline):
        if path:
            with open(path, "w", encoding="utf-8") as stream:
                json.dump(result, stream, indent=2, sort_keys=True)
                stream.write("\n")
            print(f"wrote {path}")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as stream:
            baseline = json.load(stream)
        failures = compare_to_baseline(
            result, baseline, args.tolerance, args.min_seconds
        )
        if failures:
            print(
                f"\nREGRESSION vs {args.baseline} "
                f"(tolerance {args.tolerance:.0%}):",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nno regression vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
