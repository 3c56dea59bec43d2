#!/usr/bin/env python3
"""Streaming detection: score domains as traffic arrives.

The paper motivates catching malicious domains "during the very early
stage of their operations" (section 2). This example replays a simulated
capture day by day through :class:`repro.core.streaming.StreamingDetector`,
refreshing the model each day and tracking how detection quality improves
as behavioral evidence accumulates.

Run:  python examples/streaming_detection.py
"""

from __future__ import annotations

from repro import (
    IntelligenceFeed,
    PipelineConfig,
    SimulatedVirusTotal,
    SimulationConfig,
    TraceGenerator,
    build_labeled_dataset,
)
from repro.analysis.reporting import format_series_table
from repro.core.streaming import StreamingDetector
from repro.embedding.line import LineConfig
from repro.ml import roc_auc_score

SECONDS_PER_DAY = 86_400.0


def main() -> None:
    config = SimulationConfig.tiny(seed=19)
    config.duration_days = 4.0
    print("simulating a 4-day campus capture...")
    trace = TraceGenerator(config).generate()
    merged = sorted(
        [*trace.queries, *trace.responses], key=lambda r: r.timestamp
    )

    feed = IntelligenceFeed(trace.ground_truth)
    virustotal = SimulatedVirusTotal(trace.ground_truth)
    stream = StreamingDetector(
        PipelineConfig(
            embedding=LineConfig(dimension=16, total_samples=150_000, seed=8)
        ),
        dhcp=trace.dhcp,
    )

    rows = []
    cursor = 0
    for day in range(1, int(config.duration_days) + 1):
        cutoff = day * SECONDS_PER_DAY
        batch = []
        while cursor < len(merged) and merged[cursor].timestamp < cutoff:
            batch.append(merged[cursor])
            cursor += 1
        stream.ingest(batch)

        dataset = build_labeled_dataset(
            feed, virustotal, sorted(stream.graphs[0].adjacency)
        )
        stream.refresh(dataset)
        scores = stream.score(dataset.domains)
        auc = roc_auc_score(dataset.labels, scores)
        rows.append(
            [
                day,
                len(batch),
                len(stream.known_domains),
                len(dataset),
                auc,
            ]
        )
        print(
            f"day {day}: ingested {len(batch)} records, "
            f"{len(stream.known_domains)} domains in model, AUC {auc:.3f}"
        )

    print()
    print(
        format_series_table(
            ["day", "records", "model domains", "labeled", "AUC"], rows
        )
    )
    print(
        "\nThe model stays usable from day one and absorbs newly observed "
        "domains at each refresh — no need to wait for a full month of "
        "logs before scoring."
    )


if __name__ == "__main__":
    main()
