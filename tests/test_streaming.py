"""Tests for the streaming / incremental detection mode."""

import pytest

from repro import (
    IntelligenceFeed,
    PipelineConfig,
    SimulatedVirusTotal,
    build_labeled_dataset,
)
from repro.core.streaming import IncrementalGraphBuilder, StreamingDetector
from repro.dns.types import DnsQuery, DnsResponse, QueryType, ResourceRecord
from repro.embedding.line import LineConfig
from repro.errors import NotFittedError


def query(t, ip, qname):
    return DnsQuery(t, 1, ip, qname)


def response(t, qname, ips=()):
    return DnsResponse(
        t, 1, "10.0.0.1", qname,
        answers=tuple(ResourceRecord(QueryType.A, a, 60) for a in ips),
    )


class TestIncrementalGraphBuilder:
    def test_batches_accumulate(self):
        builder = IncrementalGraphBuilder()
        builder.ingest([query(1.0, "h1", "a.example.com")])
        builder.ingest([query(70.0, "h2", "b.example.com")])
        assert builder.host_domain.neighbors("example.com") == {"h1", "h2"}
        assert builder.domain_time.neighbors("example.com") == {0, 1}
        assert builder.records_ingested == 2

    def test_responses_feed_ip_graph(self):
        builder = IncrementalGraphBuilder()
        builder.ingest(
            [
                response(1.0, "www.example.com", ["93.0.0.1"]),
                response(2.0, "example.com", ["93.0.0.2"]),
            ]
        )
        assert builder.domain_ip.neighbors("example.com") == {
            "93.0.0.1", "93.0.0.2",
        }

    def test_nxdomain_and_invalid_names_skipped(self):
        builder = IncrementalGraphBuilder()
        builder.ingest(
            [
                DnsResponse(1.0, 1, "10.0.0.1", "gone.example.com",
                            nxdomain=True),
                query(2.0, "h1", "!!bad!!"),
            ]
        )
        assert builder.domain_ip.domain_count == 0
        assert builder.host_domain.domain_count == 0

    def test_latest_timestamp_tracked(self):
        builder = IncrementalGraphBuilder()
        builder.ingest([query(5.0, "h", "a.com"), query(3.0, "h", "b.com")])
        assert builder.latest_timestamp == 5.0

    def test_matches_batch_construction(self, tiny_trace):
        """Incremental ingestion equals the batch graph builders."""
        from repro.graphs.bipartite import build_host_domain_graph

        builder = IncrementalGraphBuilder(dhcp=tiny_trace.dhcp)
        half = len(tiny_trace.queries) // 2
        builder.ingest(tiny_trace.queries[:half])
        builder.ingest(tiny_trace.queries[half:])
        from repro.dns.dhcp import HostIdentityResolver

        batch = build_host_domain_graph(
            tiny_trace.queries, HostIdentityResolver(tiny_trace.dhcp)
        )
        assert builder.host_domain.adjacency == batch.adjacency


class TestStreamingDetector:
    @pytest.fixture(scope="class")
    def stream_setup(self, tiny_trace):
        config = PipelineConfig(
            embedding=LineConfig(dimension=16, total_samples=100_000, seed=6)
        )
        stream = StreamingDetector(config, dhcp=tiny_trace.dhcp)
        merged = sorted(
            [*tiny_trace.queries, *tiny_trace.responses],
            key=lambda r: r.timestamp,
        )
        half = len(merged) // 2
        stream.ingest(merged[:half])

        feed = IntelligenceFeed(tiny_trace.ground_truth)
        virustotal = SimulatedVirusTotal(tiny_trace.ground_truth)

        def make_dataset():
            return build_labeled_dataset(
                feed,
                virustotal,
                sorted(stream.builder.host_domain.adjacency),
            )

        return stream, merged[half:], make_dataset, tiny_trace

    def test_score_before_refresh_raises(self, tiny_trace):
        stream = StreamingDetector(dhcp=tiny_trace.dhcp)
        with pytest.raises(NotFittedError):
            stream.score(["a.com"])

    def test_refresh_then_score(self, stream_setup):
        stream, remaining, make_dataset, trace = stream_setup
        stream.refresh(make_dataset())
        assert stream.refreshes == 1
        scores = stream.score(stream.known_domains[:5])
        assert scores.shape == (5,)

    def test_second_refresh_absorbs_new_traffic(self, stream_setup):
        stream, remaining, make_dataset, trace = stream_setup
        if stream.refreshes == 0:
            stream.refresh(make_dataset())
        domains_before = set(stream.known_domains)
        stream.ingest(remaining)
        stream.refresh(make_dataset())
        domains_after = set(stream.known_domains)
        # The second half of the trace surfaces new domains.
        assert len(domains_after) >= len(domains_before)

    def test_publish_creates_versioned_bundle(self, stream_setup, tmp_path):
        from repro.obs.metrics import default_registry
        from repro.serve import ModelRegistry

        stream, remaining, make_dataset, trace = stream_setup
        if stream.refreshes == 0:
            stream.refresh(make_dataset())
        registry = ModelRegistry(tmp_path / "models")
        version = stream.publish(registry)
        assert version == 1
        bundle = registry.load(1)
        assert bundle.domains == stream.known_domains
        assert bundle.manifest.meta["refreshes"] == float(stream.refreshes)
        assert bundle.manifest.meta["records_ingested"] == float(
            stream.builder.records_ingested
        )
        assert default_registry().gauge("serve.model_version").value == 1
        # A second refresh->publish cycle appends, never overwrites.
        assert stream.publish(registry) == 2
        assert registry.versions() == [1, 2]

    def test_publish_before_refresh_raises(self, tiny_trace, tmp_path):
        from repro.serve import ModelRegistry

        stream = StreamingDetector(dhcp=tiny_trace.dhcp)
        with pytest.raises(NotFittedError):
            stream.publish(ModelRegistry(tmp_path / "models"))

    def test_detection_quality_after_full_stream(self, stream_setup):
        stream, remaining, make_dataset, trace = stream_setup
        stream.ingest(remaining)
        dataset = make_dataset()
        stream.refresh(dataset)
        from repro.ml import roc_auc_score

        scores = stream.score(dataset.domains)
        assert roc_auc_score(dataset.labels, scores) > 0.8
