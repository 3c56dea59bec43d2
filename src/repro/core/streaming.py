"""Streaming / incremental detection.

The paper motivates detecting malicious domains "in real-time" and
"during the very early stage of their operations" (sections 1-2). A
batch pipeline recomputes everything from a month of logs; this module
supports the deployment mode where logs arrive continuously:

* :class:`IncrementalGraphBuilder` folds new query/response batches into
  the three bipartite graphs without reprocessing old traffic;
* :class:`StreamingDetector` wraps it with periodic refresh — on demand
  (or every ``refresh_interval`` seconds of trace time) it re-prunes,
  re-projects, re-embeds, and re-fits the classifier, so scores track
  the evolving behavioral graph.

The refresh is a full recomputation of the *model* over incrementally
maintained *graphs*: graph accumulation is the part that must keep up
with line-rate traffic, and it is O(1) per record here.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.dataflow import (
    RAW_GRAPHS,
    RECORDS_INGESTED,
    detection_graph,
)
from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
from repro.core.stages import ArtifactStore
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.dns.names import is_valid_domain_name
from repro.dns.psl import PublicSuffixList, default_psl
from repro.dns.types import DnsQuery, DnsResponse
from repro.errors import DomainNameError, NotFittedError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.core import VertexTable
from repro.labels.dataset import LabeledDataset
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.registry import ModelRegistry

_log = get_logger(__name__)

# Cache-miss marker for _e2ld_cache: a cached value of None is a valid
# entry ("qname has no registrable domain"), so missing keys need their
# own sentinel rather than any in-band string value.
_CACHE_MISS: object = object()


class IncrementalGraphBuilder:
    """Maintains the three bipartite graphs under a stream of records."""

    def __init__(
        self,
        dhcp: DhcpLog | None = None,
        time_window_seconds: float = 60.0,
        psl: PublicSuffixList | None = None,
    ) -> None:
        self._identity = HostIdentityResolver(dhcp) if dhcp else None
        self._window = time_window_seconds
        self._psl = psl or default_psl()
        # qname -> interned domain id (or None when not aggregatable);
        # one shared domain table keeps ids aligned across the views.
        self._domains = VertexTable()
        self._domain_id_cache: dict[str, int | None] = {}
        self.host_domain = BipartiteGraph(kind="host", left=self._domains)
        self.domain_ip = BipartiteGraph(kind="ip", left=self._domains)
        self.domain_time = BipartiteGraph(kind="time", left=self._domains)
        self.records_ingested = 0
        self.latest_timestamp = 0.0

    def _domain_id(self, qname: str) -> int | None:
        cached = self._domain_id_cache.get(qname, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached  # type: ignore[return-value]
        did: int | None = None
        if is_valid_domain_name(qname):
            try:
                did = self._domains.intern(self._psl.registered_domain(qname))
            except DomainNameError:
                did = None
        self._domain_id_cache[qname] = did
        return did

    def ingest(
        self, records: Iterable[DnsQuery | DnsResponse]
    ) -> int:
        """Fold a batch of records into the graphs; returns batch size."""
        count = 0
        host_edges = self.host_domain.edges
        time_edges = self.domain_time.edges
        ip_edges = self.domain_ip.edges
        intern_host = self.host_domain.right.intern
        intern_window = self.domain_time.right.intern
        intern_ip = self.domain_ip.right.intern
        for record in records:
            count += 1
            self.records_ingested += 1
            self.latest_timestamp = max(self.latest_timestamp, record.timestamp)
            did = self._domain_id(record.qname)
            if did is None:
                continue
            if isinstance(record, DnsQuery):
                if self._identity is not None:
                    host = self._identity.resolve_or_ip(
                        record.source_ip, record.timestamp
                    )
                else:
                    host = record.source_ip
                host_edges.add(did, intern_host(host))
                time_edges.add(
                    did, intern_window(int(record.timestamp // self._window))
                )
            elif isinstance(record, DnsResponse) and not record.nxdomain:
                for ip in record.resolved_ips:
                    ip_edges.add(did, intern_ip(ip))
        # Metrics once per batch, never per record. Eager-mode edge
        # buffers keep exact edge/vertex counters incrementally, so each
        # gauge read below is O(1) — not a sum over the adjacency as the
        # old dict-of-sets representation required.
        registry = default_registry()
        registry.counter("streaming.records_ingested").inc(count)
        registry.gauge("streaming.host_domain.edges").set(
            self.host_domain.edge_count
        )
        registry.gauge("streaming.domain_ip.edges").set(self.domain_ip.edge_count)
        registry.gauge("streaming.domain_time.edges").set(
            self.domain_time.edge_count
        )
        registry.gauge("streaming.domains").set(self.host_domain.domain_count)
        return count


class StreamingDetector:
    """Continuously updated detector over a record stream.

    Usage::

        stream = StreamingDetector(config, dhcp=dhcp)
        stream.ingest(first_hour_records)
        stream.refresh(labeled_dataset)      # build model
        stream.ingest(more_records)          # cheap, O(1)/record
        scores = stream.score(domains)       # uses current model
        stream.refresh(labeled_dataset)      # fold new behavior in
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        dhcp: DhcpLog | None = None,
    ) -> None:
        """Args:
            config: Pipeline knobs for each refresh's model rebuild;
                ``config.parallel`` bounds the embedding stage's
                refresh latency.
            dhcp: Optional DHCP log for host-identity resolution.
        """
        self.config = config or PipelineConfig()
        self.builder = IncrementalGraphBuilder(
            dhcp=dhcp, time_window_seconds=self.config.time_window_seconds
        )
        self._detector: MaliciousDomainDetector | None = None
        self.refreshes = 0

    def ingest(self, records: Iterable[DnsQuery | DnsResponse]) -> int:
        """Feed new traffic into the behavioral graphs."""
        return self.builder.ingest(records)

    def refresh(self, dataset: LabeledDataset) -> "StreamingDetector":
        """Rebuild projections, embeddings, and the classifier.

        Labeled domains missing from the current graphs contribute
        zero-filled feature blocks (no behavioral evidence *yet*) — they
        gain real features at the next refresh after they appear.
        """
        started = time.perf_counter()
        # Same stage graph and engine loop as the batch and checkpointed
        # paths: the store is seeded with only the incrementally
        # maintained raw graphs, so every model stage recomputes.
        store = ArtifactStore()
        store.put(
            RAW_GRAPHS,
            (
                self.builder.host_domain,
                self.builder.domain_ip,
                self.builder.domain_time,
            ),
        )
        store.put(RECORDS_INGESTED, self.builder.records_ingested)
        graph = detection_graph(
            self.config, dataset_for=lambda _order: dataset
        )
        graph.execute(store)
        detector = MaliciousDomainDetector(self.config, store=store)
        self._detector = detector
        self.refreshes += 1
        elapsed = time.perf_counter() - started
        registry = default_registry()
        registry.histogram("streaming.refresh.seconds").observe(elapsed)
        registry.counter("streaming.refreshes").inc()
        _log.info(
            "refresh_done",
            refresh=self.refreshes,
            domains=len(detector.domains),
            records_ingested=self.builder.records_ingested,
            seconds=elapsed,
            embedding_backend=self.config.parallel.backend,
            embedding_workers=self.config.parallel.resolved_workers(),
        )
        return self

    @property
    def detector(self) -> MaliciousDomainDetector:
        if self._detector is None:
            raise NotFittedError("StreamingDetector.refresh")
        return self._detector

    def publish(self, registry: "ModelRegistry") -> int:
        """Publish the current model as a new bundle version.

        The refresh -> publish path is how a streaming deployment feeds
        the serving layer: each call packages the most recent refresh's
        classifier + feature matrix into a
        :class:`~repro.serve.bundle.ModelBundle` and atomically adds it
        to ``registry``, where a running
        :class:`~repro.serve.service.ScoringService` picks it up on its
        next ``/admin/reload``. Returns the new version number and
        updates the ``serve.model_version`` gauge.
        """
        from repro.serve.bundle import ModelBundle

        detector = self.detector  # raises NotFittedError before refresh()
        bundle = ModelBundle.from_detector(
            detector,
            metrics={
                "refreshes": float(self.refreshes),
                "records_ingested": float(self.builder.records_ingested),
            },
        )
        version = registry.publish(bundle)
        default_registry().gauge("serve.model_version").set(version)
        _log.info(
            "model_published",
            version=version,
            refresh=self.refreshes,
            domains=len(detector.domains),
            registry=str(registry.root),
        )
        return version

    def score(self, domains: list[str]) -> np.ndarray:
        """d(x) under the most recent refresh."""
        return self.detector.decision_scores(domains)

    @property
    def known_domains(self) -> list[str]:
        """Domains in the current model's vertex set."""
        return self.detector.domains
