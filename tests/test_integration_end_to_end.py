"""Full-system integration test: trace -> pipeline -> detection -> mining.

Exercises every stage on a freshly generated trace (not the shared
fixture), including persistence round-trips between stages — the way a
deployment would run from logs on disk.
"""

import numpy as np
import pytest

from repro import (
    IntelligenceFeed,
    MaliciousDomainDetector,
    PipelineConfig,
    SimulatedThreatBook,
    SimulatedVirusTotal,
    SimulationConfig,
    TraceGenerator,
    build_labeled_dataset,
    expand_from_seeds,
)
from repro.core.clustering import DomainClusterer
from repro.core.dataflow import line_config_for
from repro.core.features import FeatureSpace
from repro.dns.dhcp import DhcpLog
from repro.dns.logfmt import DnsTraceReader
from repro.dns.types import DnsQuery, DnsResponse
from repro.embedding.line import LineConfig
from repro.ml import roc_auc_score
from repro.netflow import NetflowSimulator, mine_cluster_patterns
from repro.simulation.groundtruth import GroundTruth

from tests.oracles import train_line_add_at

# Full pipeline over a fresh trace: by far the slowest file in the
# suite. The CI matrix deselects it (-m "not slow"); the bench job and
# plain local `pytest` still run it.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generate a trace, persist it, and reload from disk."""
    directory = tmp_path_factory.mktemp("capture")
    config = SimulationConfig.tiny(seed=77)
    config.duration_days = 2.0
    trace = TraceGenerator(config).generate()
    trace.save(directory)

    records = list(DnsTraceReader(directory / "dns.log"))
    queries = [r for r in records if isinstance(r, DnsQuery)]
    responses = [r for r in records if isinstance(r, DnsResponse)]
    dhcp = DhcpLog.load(directory / "dhcp.log")
    truth = GroundTruth.load(directory / "groundtruth.tsv")
    return queries, responses, dhcp, truth


@pytest.fixture(scope="module")
def full_run(workspace):
    queries, responses, dhcp, truth = workspace
    detector = MaliciousDomainDetector(
        PipelineConfig(
            embedding=LineConfig(dimension=16, total_samples=150_000, seed=9)
        )
    )
    detector.process(queries, responses, dhcp)
    feed = IntelligenceFeed(truth)
    virustotal = SimulatedVirusTotal(truth)
    dataset = build_labeled_dataset(feed, virustotal, detector.domains)
    detector.fit(dataset)
    return detector, dataset, truth, virustotal, responses


class TestEndToEnd:
    def test_detection_quality_from_disk(self, full_run):
        detector, dataset, truth, __, __ = full_run
        scores = detector.decision_scores(dataset.domains)
        assert roc_auc_score(dataset.labels, scores) > 0.85  # training fit

    def test_segment_kernel_matches_add_at_quality(self, full_run):
        """Downstream SVM AUC is kernel-independent (within SGD noise).

        The fused ``segment`` kernel draws a different random stream
        than the ``add_at`` reference loop, so the embeddings differ
        vector by vector — but the detection quality they support must
        not. The reference embeds the pipeline's own similarity graphs
        with each view's LINE config and feeds the same classifier.
        """
        detector, dataset, __, __, __ = full_run
        config = detector.config
        space = FeatureSpace(
            **{
                view.value: train_line_add_at(
                    graph, line_config_for(config.embedding, view)
                )
                for view, graph in detector.similarity_graphs.items()
            }
        )
        features = space.matrix(dataset.domains, config.views)
        reference = config.classifier.build().fit(features, dataset.labels)
        segment_auc = roc_auc_score(
            dataset.labels, detector.decision_scores(dataset.domains)
        )
        add_at_auc = roc_auc_score(
            dataset.labels, reference.decision_function(features)
        )
        assert add_at_auc > 0.85
        assert abs(segment_auc - add_at_auc) < 0.05

    def test_scores_rank_unlabeled_malicious_domains(self, full_run):
        """Generalization: unlabeled malicious score above unlabeled benign."""
        detector, dataset, truth, __, __ = full_run
        labeled = set(dataset.domains)
        unlabeled = [d for d in detector.domains if d not in labeled]
        malicious = [d for d in unlabeled if truth.is_malicious(d)]
        benign = [d for d in unlabeled if not truth.is_malicious(d)]
        if len(malicious) < 5 or len(benign) < 5:
            pytest.skip("not enough unlabeled domains in tiny trace")
        mal_scores = detector.decision_scores(malicious)
        ben_scores = detector.decision_scores(benign)
        assert np.median(mal_scores) > np.median(ben_scores)

    def test_cluster_mining_and_expansion(self, full_run):
        detector, dataset, truth, virustotal, __ = full_run
        clusterer = DomainClusterer(k_min=4, k_max=30, seed=2)
        clusters = clusterer.fit(
            detector.domains, detector.features_for(detector.domains)
        )
        assert len(clusters) >= 4
        seeds = dataset.malicious_domains[:5]
        result = expand_from_seeds(clusters, seeds, virustotal)
        discovered = result.true_domains + result.suspicious_domains
        if discovered:
            truly_malicious = sum(truth.is_malicious(d) for d in discovered)
            assert truly_malicious / len(discovered) > 0.5

    def test_netflow_patterns_join(self, full_run):
        detector, dataset, truth, __, responses = full_run
        clusterer = DomainClusterer(k_min=4, k_max=30, seed=2)
        clusters = clusterer.fit(
            detector.domains, detector.features_for(detector.domains)
        )
        simulator = NetflowSimulator(truth, seed=3)
        flows = list(simulator.flows_from(responses))
        patterns = mine_cluster_patterns(clusters, flows)
        assert len(patterns) == len(clusters)
        assert any(p.flow_count > 0 for p in patterns)

    def test_threatbook_annotation(self, full_run):
        detector, dataset, truth, __, __ = full_run
        clusterer = DomainClusterer(k_min=4, k_max=30, seed=2)
        clusterer.fit(
            detector.domains, detector.features_for(detector.domains)
        )
        reports = clusterer.annotate(SimulatedThreatBook(truth))
        categories = {r.dominant_category for r in reports}
        assert categories & {"dga", "spam", "phishing", "c2", "fastflux"}
