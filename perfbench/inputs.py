"""Workload inputs, all made from the workload seed with ``repro.simulation``.

The program under test only ever sees the files written here (a trace
directory for the detect workloads, a model registry for serve-mixed).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import (
    IntelligenceFeed,
    MaliciousDomainDetector,
    PipelineConfig,
    SimulatedVirusTotal,
    SimulationConfig,
    TraceGenerator,
    build_labeled_dataset,
)
from repro.dns.logfmt import DnsTraceWriter
from repro.embedding.line import LineConfig
from repro.ml.metrics import roc_auc_score
from repro.serve.bundle import ModelBundle
from repro.simulation.config import SECONDS_PER_DAY

#: Edge samples per view when training the served models. The serve
#: workload measures the service, not training, so it stays well below
#: the default scale's 15M cap; at the 400k floor the day-1 CV AUC was
#: 0.67-0.78 and swung from seed to seed by as much as the ``cv_auc``
#: bound, at 2M it is 0.92-0.97 (seeds 51-60) for ~3 s more per run.
SERVE_LINE_SAMPLES = 2_000_000


def simulation_config(scale: str, seed: int, days: float) -> SimulationConfig:
    """The default-scale campus (250 hosts) or the tiny one (40 hosts)."""
    config = SimulationConfig.tiny(seed=seed) if scale == "tiny" else SimulationConfig(seed=seed)
    config.duration_days = days
    return config


def write_trace(
    directory: Path, scale: str, seed: int, days: float, records: int | None = None
) -> None:
    """Simulate a capture and save dns.log / dhcp.log / groundtruth.tsv.

    With ``records`` set, ``dns.log`` keeps only the first ``records``
    records in time order, so every seed gives the pipeline the same
    amount of ingest work.
    """
    trace = TraceGenerator(simulation_config(scale, seed, days)).generate()
    merged = sorted([*trace.queries, *trace.responses], key=lambda r: r.timestamp)
    if records is not None:
        if len(merged) < records:
            raise ValueError(f"seed {seed} simulated {len(merged)} < {records} records")
        merged = merged[:records]
    directory.mkdir(parents=True, exist_ok=True)
    with DnsTraceWriter(directory / "dns.log") as writer:
        writer.write_all(merged)
    trace.dhcp.save(directory / "dhcp.log")
    trace.ground_truth.save(directory / "groundtruth.tsv")


def day_bundles(seed: int) -> tuple[list[ModelBundle], float]:
    """Two servable models: one trained on day 1, one on day 2.

    Both come from one two-day default-scale capture. Returns the
    bundles and the day-1 model's 10-fold cross-validated AUC.
    """
    trace = TraceGenerator(simulation_config("default", seed, 2.0)).generate()
    feed = IntelligenceFeed(trace.ground_truth)
    virustotal = SimulatedVirusTotal(trace.ground_truth)
    bundles = []
    day1_auc = float("nan")
    for day in (0, 1):
        low, high = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
        detector = MaliciousDomainDetector(
            PipelineConfig(
                embedding=LineConfig(
                    dimension=16, seed=13, total_samples=SERVE_LINE_SAMPLES
                )
            )
        )
        detector.process(
            [q for q in trace.queries if low <= q.timestamp < high],
            [r for r in trace.responses if low <= r.timestamp < high],
            trace.dhcp,
        )
        dataset = build_labeled_dataset(feed, virustotal, detector.domains)
        detector.fit(dataset)
        if day == 0:
            scores, __ = detector.cross_validate(dataset)
            day1_auc = float(roc_auc_score(np.asarray(dataset.labels), scores))
        bundles.append(ModelBundle.from_detector(detector))
    return bundles, day1_auc
