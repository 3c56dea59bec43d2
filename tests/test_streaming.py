"""Tests for the streaming / incremental detection mode."""

import pytest

from repro import (
    IntelligenceFeed,
    PipelineConfig,
    SimulatedVirusTotal,
    build_labeled_dataset,
)
from repro.core.dataflow import RAW_GRAPHS, BatchGraphStage
from repro.core.stages import ArtifactStore, ExecutionContext
from repro.core.streaming import StreamingDetector
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


class TestStreamingIngest:
    def test_batches_accumulate(self):
        stream = StreamingDetector()
        stream.ingest([query(1.0, "h1", "a.example.com")])
        stream.ingest([query(70.0, "h2", "b.example.com")])
        host_domain, __, domain_time = stream.graphs
        assert host_domain.neighbors("example.com") == {"h1", "h2"}
        assert domain_time.neighbors("example.com") == {0, 1}
        assert stream.records_ingested == 2

    def test_responses_feed_ip_graph(self):
        stream = StreamingDetector()
        stream.ingest(
            [
                response(1.0, "www.example.com", ["93.0.0.1"]),
                response(2.0, "example.com", ["93.0.0.2"]),
            ]
        )
        assert stream.graphs[1].neighbors("example.com") == {
            "93.0.0.1", "93.0.0.2",
        }

    def test_nxdomain_and_invalid_names_skipped(self):
        stream = StreamingDetector()
        stream.ingest(
            [
                DnsResponse(1.0, 1, "10.0.0.1", "gone.example.com",
                            nxdomain=True),
                query(2.0, "h1", "!!bad!!"),
            ]
        )
        host_domain, domain_ip, __ = stream.graphs
        assert domain_ip.domain_count == 0
        assert host_domain.domain_count == 0
        assert stream.records_ingested == 2

    def test_matches_batch_construction(self, tiny_trace):
        """Uneven batches fold to the batch source's graphs, every view."""
        merged = sorted(
            [*tiny_trace.queries, *tiny_trace.responses],
            key=lambda r: r.timestamp,
        )
        stream = StreamingDetector(dhcp=tiny_trace.dhcp)
        bounds = [0, 1, 8, 708, len(merged)]
        for start, stop in zip(bounds, bounds[1:]):
            assert stream.ingest(merged[start:stop]) == stop - start
        assert stream.records_ingested == len(merged)

        store = ArtifactStore()
        BatchGraphStage(
            tiny_trace.queries, tiny_trace.responses, tiny_trace.dhcp
        ).run(store, ExecutionContext())
        batch = store.get(RAW_GRAPHS)
        for streamed, built in zip(stream.graphs, batch):
            assert streamed.kind == built.kind
            assert streamed.edge_count == built.edge_count > 0
            assert streamed.adjacency == built.adjacency


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
                sorted(stream.graphs[0].adjacency),
            )

        return stream, merged[half:], make_dataset, tiny_trace

    def test_score_before_refresh_raises(self, tiny_trace):
        stream = StreamingDetector(dhcp=tiny_trace.dhcp)
        with pytest.raises(NotFittedError):
            stream.score(["a.com"])

    def test_refresh_then_score(self, stream_setup):
        from repro.obs.metrics import default_registry

        stream, remaining, make_dataset, trace = stream_setup
        stream.refresh(make_dataset())
        assert stream.refreshes == 1
        domain_time = stream.graphs[2]
        gauge = default_registry().gauge("streaming.domain_time.edges")
        assert gauge.value == domain_time.edge_count > 0
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
        metrics = bundle.manifest.meta["metrics"]
        assert metrics["refreshes"] == float(stream.refreshes)
        assert metrics["records_ingested"] == float(stream.records_ingested)
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
