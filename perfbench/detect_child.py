"""One execution of the checkpointed detection pipeline, in its own process.

This is the ``repro-dns cluster TRACE --checkpoint-dir DIR --k-max 60``
path with the CLI's default configuration (dimension 16, serial
embedding), run through the library so the ``CheckpointedPipeline.run``
call itself can be timed. Everything before that call (imports, DHCP
and ground-truth load) is set-up; the checks and the cross-validation
after it are untimed.

Usage (from the root of the repository, with ``src`` and ``perfbench``
on ``PYTHONPATH``)::

    python perfbench/detect_child.py TRACE_DIR CKPT_DIR OUT_DIR [--cv] [--spans]

Untraced executions then call ``run(resume=True)`` in the same process,
once to warm up and ``RESUMES`` times timed: each a reload of all six
stages from the checkpoints just written, whose outputs must match the
cold run's byte for byte.

Writes ``OUT_DIR/result.json`` (times, counts, checks) and
``OUT_DIR/outputs.npz`` (domains, scores, verdicts, cluster labels).
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from repro import IntelligenceFeed, SimulatedVirusTotal, build_labeled_dataset
from repro.cli import _pipeline_config, build_parser
from repro.core import dataflow
from repro.core.features import FeatureView
from repro.core.pipeline import MaliciousDomainDetector
from repro.dns.dhcp import DhcpLog
from repro.ingest import runner
from repro.ingest.checkpoint import PipelineCheckpointer
from repro.ml.metrics import roc_auc_score
from repro.ml.model_selection import cross_validated_scores
from repro.obs.export import snapshot_to_dict
from repro.obs.metrics import default_registry
from repro.simulation.groundtruth import GroundTruth
from spans import SpanRecorder, vm_hwm_mb

K_MAX = 60
#: Timed resumes per untraced execution, after one warm-up resume.
RESUMES = 5

#: Stage object classes the engine executes on this path, by stage name.
STAGE_CLASSES = {
    "ingest": runner.ChunkedIngestStage,
    "prune": dataflow.PruneStage,
    "project": dataflow.ProjectStage,
    "embed": runner._FacadeEmbedStage,
    "classify": dataflow.ClassifyStage,
    "cluster": dataflow.ClusterStage,
}


def instrument(recorder: SpanRecorder) -> None:
    """Wrap each stage object's ``run`` and the checkpointer's saves."""
    for name, cls in STAGE_CLASSES.items():
        recorder.wrap(cls, "run", f"stage.{name}")
    recorder.wrap(PipelineCheckpointer, "save", "checkpoint.save")
    recorder.wrap(runner.CheckpointedPipeline, "run", "run")


def cv_auc(
    detector: MaliciousDomainDetector, dataset, views: list[FeatureView]
) -> float:
    """10-fold cross-validated AUC of the SVM over ``views``' features."""
    space = detector.feature_space
    labels = np.asarray(dataset.labels)
    scores, __ = cross_validated_scores(
        space.matrix(dataset.domains, views),
        labels,
        detector.config.classifier.build,
        n_splits=10,
        seed=0,
    )
    return float(roc_auc_score(labels, scores))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("trace_dir", type=Path)
    parser.add_argument("checkpoint_dir", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--cv", action="store_true")
    parser.add_argument("--spans", action="store_true")
    opts = parser.parse_args()

    recorder = SpanRecorder() if opts.spans else None
    if recorder is not None:
        instrument(recorder)
    dns_log = opts.trace_dir / "dns.log"
    cli_args = build_parser().parse_args(
        [
            "cluster", str(opts.trace_dir),
            "--checkpoint-dir", str(opts.checkpoint_dir),
            "--k-max", str(K_MAX),
        ]
    )
    config = _pipeline_config(cli_args)
    dhcp = DhcpLog.load(opts.trace_dir / "dhcp.log")
    truth = GroundTruth.load(opts.trace_dir / "groundtruth.tsv")
    feed = IntelligenceFeed(truth)
    virustotal = SimulatedVirusTotal(truth)

    def dataset_for(domains: list[str]):
        return build_labeled_dataset(feed, virustotal, domains)

    checkpointer = PipelineCheckpointer(
        opts.checkpoint_dir,
        dataflow.pipeline_fingerprint(config, {"dns": dns_log.resolve()}),
    )
    pipeline = runner.CheckpointedPipeline(
        config, runner.IngestConfig(), checkpointer, dhcp=dhcp
    )

    def run(resume: bool):
        return pipeline.run(
            dns_log,
            dataset_for,
            resume=resume,
            cluster_k_max=K_MAX,
            cluster_seed=cli_args.seed,
        )

    run_start = time.monotonic()
    outcome = run(resume=False)
    run_end = time.monotonic()
    peak_mb = vm_hwm_mb()

    # -- output checks (untimed) -----------------------------------------
    detector = outcome.detector
    domains = list(outcome.domains)
    scores = np.asarray(outcome.scores, dtype=np.float64)
    verdicts = np.asarray(outcome.verdicts)
    clusters = outcome.clusters or []
    surviving = set(detector.domains)
    members = [d for cluster in clusters for d in cluster.domains]
    threshold = detector.classifier.threshold_
    label_of = {d: c.cluster_id for c in clusters for d in c.domains}
    labels = np.array([label_of.get(d, -1) for d in domains], dtype=np.int64)
    checks = {
        "scored_once": len(domains) == len(set(domains)) == len(surviving)
        and set(domains) == surviving
        and len(scores) == len(domains),
        "scores_finite": bool(np.all(np.isfinite(scores))),
        "verdict_is_threshold": verdicts.shape == scores.shape
        and bool(np.array_equal(verdicts, (scores >= threshold).astype(verdicts.dtype))),
        "clusters_partition": len(members) == len(set(members))
        and set(members) == set(domains),
        "cold_run": outcome.resumed_from is None,
    }
    np.savez(
        opts.out_dir / "outputs.npz",
        domains=np.array(domains, dtype=np.str_),
        scores=scores,
        verdicts=verdicts,
        clusters=labels,
    )

    snapshot = snapshot_to_dict(default_registry())
    result: dict = {
        "run_start": run_start,
        "run_end": run_end,
        "e2e_s": run_end - run_start,
        "peak_rss_mb": peak_mb,
        "records": int(outcome.records_ingested),
        "checks": checks,
        "stage_hist_s": {
            name: snapshot["histograms"]
            .get(f"stage.pipeline.{name}.seconds", {})
            .get("sum", 0.0)
            for name in STAGE_CLASSES
        },
        "counters": {
            name: metric["value"]
            for section in ("counters", "gauges")
            for name, metric in snapshot[section].items()
        },
        "domains": len(domains),
        "cluster_k": len(clusters),
        "support_vectors": int(detector.classifier.support_vector_count),
    }
    if recorder is None:
        # The first resume pays one-off costs (its time swings 2x between
        # executions), so it is a warm-up; the later ones are timed.
        resume_times = []
        checks["resume_restored_all"] = checks["resume_identical"] = True
        for __ in range(1 + RESUMES):
            resume_start = time.monotonic()
            resumed = run(resume=True)
            resume_times.append(time.monotonic() - resume_start)
            resumed_labels = {
                d: c.cluster_id for c in resumed.clusters or [] for d in c.domains
            }
            checks["resume_restored_all"] &= resumed.resumed_from == "cluster"
            checks["resume_identical"] &= (
                list(resumed.domains) == domains
                and np.asarray(resumed.scores).tobytes() == scores.tobytes()
                and np.asarray(resumed.verdicts).tobytes() == verdicts.tobytes()
                and all(resumed_labels.get(d, -1) == label for d, label in zip(domains, labels))
            )
        result["first_resume_s"] = resume_times[0]
        result["resume_s"] = resume_times[1:]
    report = detector.pruning_report
    if report is not None:
        result["prune"] = {
            "domains_in": report.domains_before,
            "domains_out": report.domains_after,
        }
    similarity = detector.similarity_graphs
    if similarity:
        result["project_edges"] = sum(g.edge_count for g in similarity.values())

    if opts.cv:
        dataset = dataset_for(domains)
        result["cv_auc"] = cv_auc(detector, dataset, list(config.views))
        result["view_auc"] = {
            view.value: cv_auc(detector, dataset, [view]) for view in FeatureView
        }
        result["labeled"] = len(dataset.domains)
        result["checks"]["cv_auc_finite"] = math.isfinite(result["cv_auc"])

    if recorder is not None:
        recorder.dump(opts.out_dir / "spans.json")
    (opts.out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
