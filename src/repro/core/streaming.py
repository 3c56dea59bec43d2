"""Streaming / incremental detection.

The paper motivates detecting malicious domains "in real-time" and
"during the very early stage of their operations" (sections 1-2). A
batch pipeline recomputes everything from a month of logs; this module
supports the deployment mode where logs arrive continuously.
:class:`StreamingDetector` folds each new batch of records into the
three bipartite graphs with the column fold every graph source shares
(:func:`~repro.graphs.bipartite.fold_columns_into_graphs`), and on
demand re-prunes, re-projects, re-embeds, and re-fits the classifier,
so scores track the evolving behavioral graph.

The refresh is a full recomputation of the *model* over incrementally
maintained *graphs*. A batch costs one pass over its own records plus
one bulk append per graph; duplicate edges are folded out once, when
the next refresh reads the graphs.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.dataflow import (
    RAW_GRAPHS,
    RECORDS_INGESTED,
    GraphTriple,
    detection_graph,
    empty_graph_triple,
)
from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
from repro.core.stages import ArtifactStore
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.dns.logfmt import TraceColumns
from repro.dns.types import DnsQuery, DnsResponse
from repro.errors import NotFittedError
from repro.graphs.bipartite import fold_columns_into_graphs
from repro.labels.dataset import LabeledDataset
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.registry import ModelRegistry

_log = get_logger(__name__)


class StreamingDetector:
    """Continuously updated detector over a record stream.

    Usage::

        stream = StreamingDetector(config, dhcp=dhcp)
        stream.ingest(first_hour_records)
        stream.refresh(labeled_dataset)      # build model
        stream.ingest(more_records)          # cheap: folds only the batch
        scores = stream.score(domains)       # uses current model
        stream.refresh(labeled_dataset)      # fold new behavior in

    Attributes:
        graphs: HDBG, DIBG and DTBG accumulated so far, over one shared
            domain table.
        records_ingested: Records folded in so far.
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
        self._identity = (
            HostIdentityResolver(dhcp) if dhcp is not None else None
        )
        self.graphs: GraphTriple = empty_graph_triple()
        self.records_ingested = 0
        self._detector: MaliciousDomainDetector | None = None
        self.refreshes = 0

    def ingest(self, records: Iterable[DnsQuery | DnsResponse]) -> int:
        """Fold a batch of records into the graphs; returns its size."""
        count = fold_columns_into_graphs(
            TraceColumns.from_records(records),
            *self.graphs,
            identity=self._identity,
            window_seconds=self.config.time_window_seconds,
        )
        self.records_ingested += count
        default_registry().counter("streaming.records_ingested").inc(count)
        return count

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
        store.put(RAW_GRAPHS, self.graphs)
        store.put(RECORDS_INGESTED, self.records_ingested)
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
        # Graph sizes here, not per batch: prune has just compacted the
        # edge buffers, so these reads cost nothing extra.
        host_domain, domain_ip, domain_time = self.graphs
        registry.gauge("streaming.host_domain.edges").set(
            host_domain.edge_count
        )
        registry.gauge("streaming.domain_ip.edges").set(domain_ip.edge_count)
        registry.gauge("streaming.domain_time.edges").set(
            domain_time.edge_count
        )
        registry.gauge("streaming.domains").set(host_domain.domain_count)
        _log.info(
            "refresh_done",
            refresh=self.refreshes,
            domains=len(detector.domains),
            records_ingested=self.records_ingested,
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
                "records_ingested": float(self.records_ingested),
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
