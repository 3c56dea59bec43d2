"""Chunked, optionally checkpointed pipeline runner.

:class:`CheckpointedPipeline` executes the shared detection stage graph
(:mod:`repro.core.dataflow`) through the engine's one loop
(:meth:`~repro.core.stages.StageGraph.execute`), with the chunked
out-of-core :class:`ChunkedIngestStage` as the graph's source::

    ingest -> prune -> project -> embed -> classify -> cluster

It is how the CLI's ``detect`` and ``cluster`` run, with or without
``--checkpoint-dir``. Given a
:class:`~repro.ingest.checkpoint.PipelineCheckpointer`, each stage
persists its output; a crashed or killed run restarts from its last
complete checkpoint with **byte-identical** outputs to a cold run. Two
properties make that guarantee hold:

* graph accumulation is order-preserving and idempotent under
  checkpoint/restore — the columnar edge buffers dedup to the same
  first-occurrence order whether records arrived in one pass or across
  a save/load boundary, and vertex interners persist their ids exactly;
* every downstream stage is a pure function of its checkpointed inputs
  (projection edge order is canonicalized, LINE is seeded, the SVM and
  X-Means are deterministic), so recomputation from any prefix of
  checkpoints reproduces the suffix bit-for-bit.

The ingest stage additionally writes *rolling* partial checkpoints
(every ``checkpoint_every_chunks`` chunks) carrying the reader's
monotone record cursor, so even a crash mid-ingest loses at most a few
chunks of work rather than the whole pass.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable

import numpy as np

from repro.core.artifacts import ArtifactManifest, Payload
from repro.core.clustering import DomainCluster
from repro.core.dataflow import (
    CLUSTERS,
    DECISION_SCORES,
    DOMAIN_ORDER,
    INGEST_CURSOR,
    RAW_GRAPHS,
    RECORDS_INGESTED,
    SCORED_DOMAINS,
    STAGE_EMBED,
    STAGE_INGEST,
    VERDICTS,
    EmbedStage,
    GraphTriple,
    decode_graph_triple,
    detection_stages,
    empty_graph_triple,
    encode_graph_triple,
    pipeline_fingerprint,
)
from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
from repro.core.stages import (
    ArtifactStore,
    ExecutionContext,
    Stage,
    StageGraph,
)
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.errors import IngestError
from repro.graphs.bipartite import fold_columns_into_graphs
from repro.ingest.checkpoint import PipelineCheckpointer
from repro.ingest.chunking import ChunkedTraceReader, ChunkPolicy
from repro.labels.dataset import LabeledDataset
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

__all__ = [
    "ChunkedIngestStage",
    "IngestConfig",
    "PipelineOutcome",
    "CheckpointedPipeline",
    "pipeline_fingerprint",
]

_log = get_logger(__name__)


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (ru_maxrss: KiB on Linux, bytes on mac)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return peak / divisor


@dataclass(slots=True)
class IngestConfig:
    """Chunked-ingestion knobs.

    Attributes:
        chunk: Per-chunk record/time bounds.
        checkpoint_every_chunks: Rolling ingest-checkpoint cadence; 0
            disables mid-ingest checkpoints (one is still written when
            ingest completes, if a checkpointer is attached).
    """

    chunk: ChunkPolicy = field(default_factory=ChunkPolicy)
    checkpoint_every_chunks: int = 8

    def validate(self) -> None:
        self.chunk.validate()
        if self.checkpoint_every_chunks < 0:
            raise IngestError(
                "checkpoint_every_chunks must be non-negative, got "
                f"{self.checkpoint_every_chunks}"
            )


@dataclass(slots=True)
class PipelineOutcome:
    """Everything a checkpointed run produced.

    Attributes:
        detector: The fully materialized detector (graphs through
            classifier, depending on the stages that ran).
        domains: Scored domains in canonical (sorted) order.
        scores: ``decision_function`` value per domain (empty when no
            labeled dataset was supplied).
        verdicts: 1 = malicious, 0 = benign, per domain (empty without
            a dataset).
        clusters: X-Means clusters, when clustering was requested.
        resumed_from: Name of the latest stage restored from a
            checkpoint, or ``None`` for a cold run.
        records_ingested: Total trace records consumed (including those
            accounted by a restored ingest checkpoint).
    """

    detector: MaliciousDomainDetector
    domains: list[str]
    scores: np.ndarray
    verdicts: np.ndarray
    clusters: list[DomainCluster] | None = None
    resumed_from: str | None = None
    records_ingested: int = 0


class ChunkedIngestStage(Stage[None, GraphTriple]):
    """Out-of-core graph construction over a chunked trace.

    The checkpointed twin of
    :class:`~repro.core.dataflow.BatchGraphStage`: records stream
    through a :class:`ChunkedTraceReader` whose monotone cursor is
    carried in every checkpoint, so a restored *partial* checkpoint
    makes :meth:`run` continue mid-trace instead of starting over.
    Rolling saves land every ``checkpoint_every_chunks`` chunks while
    the engine loop writes the final complete one.
    """

    name = STAGE_INGEST
    outputs = (RAW_GRAPHS, RECORDS_INGESTED, INGEST_CURSOR)

    def __init__(
        self,
        trace: str | Path | IO[str],
        chunk: ChunkPolicy,
        *,
        checkpoint_every_chunks: int = 8,
        identity: HostIdentityResolver | None = None,
        window_seconds: float = 60.0,
    ) -> None:
        self.trace = trace
        self.chunk = chunk
        self.checkpoint_every_chunks = checkpoint_every_chunks
        self.identity = identity
        self.window_seconds = window_seconds

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        cursor = store.maybe(INGEST_CURSOR) or 0
        graphs = store.maybe(RAW_GRAPHS)
        if graphs is None:
            graphs = empty_graph_triple()
        host, ip_graph, time_graph = graphs
        ckpt = ctx.checkpointer
        every = self.checkpoint_every_chunks
        chunks_since_save = 0
        with ChunkedTraceReader(
            self.trace, self.chunk, start_record=cursor
        ) as reader:
            for batch in reader:
                fold_columns_into_graphs(
                    batch.columns,
                    host,
                    ip_graph,
                    time_graph,
                    identity=self.identity,
                    window_seconds=self.window_seconds,
                )
                chunks_since_save += 1
                if ckpt is not None and every and chunks_since_save >= every:
                    ckpt.save(
                        self.name,
                        encode_graph_triple(graphs),
                        {"cursor": reader.cursor},
                        complete=False,
                    )
                    chunks_since_save = 0
            cursor = reader.cursor
        for graph in graphs:
            graph.edges.compact()
        store.put(RAW_GRAPHS, graphs)
        store.put(RECORDS_INGESTED, cursor)
        store.put(INGEST_CURSOR, cursor)

    def save_artifacts(
        self, store: ArtifactStore
    ) -> tuple[Payload, dict[str, object]]:
        files = encode_graph_triple(store.get(RAW_GRAPHS))
        return files, {"cursor": store.get(INGEST_CURSOR)}

    def load_artifacts(
        self,
        files: Payload,
        manifest: ArtifactManifest,
        store: ArtifactStore,
    ) -> None:
        graphs = decode_graph_triple(files)
        cursor = int(manifest.meta["cursor"])
        store.put(RAW_GRAPHS, graphs)
        store.put(RECORDS_INGESTED, cursor)
        store.put(INGEST_CURSOR, cursor)
        _log.info("ingest_resumed", cursor=cursor, complete=manifest.complete)


class _FacadeEmbedStage(EmbedStage):
    """Embed by calling the detector facade instead of training inline.

    The checkpointed path historically ran
    :meth:`MaliciousDomainDetector.learn_embeddings`, and callers rely
    on that as an extension point (tests replace it to kill the run at
    the embed boundary). The facade itself executes the shared
    :class:`~repro.core.dataflow.EmbedStage` under its canonical span,
    so this delegating wrapper opts out of tracing to keep the span
    observed exactly once.
    """

    traced = False

    def __init__(self, config: PipelineConfig) -> None:
        super().__init__(config.embedding, config.parallel)
        self.config = config

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        detector = MaliciousDomainDetector(self.config, store=store)
        detector.learn_embeddings(progress=ctx.progress)


class CheckpointedPipeline:
    """Runs the detection pipeline chunked, checkpointed, and resumable.

    Typical use::

        ckpt = PipelineCheckpointer(dir, pipeline_fingerprint(config, src))
        pipe = CheckpointedPipeline(config, checkpointer=ckpt, dhcp=dhcp)
        outcome = pipe.run(trace_path, dataset_for, resume=True)

    Without a checkpointer this is the memory-bounded chunked execution
    path (nothing is persisted); with one, every stage lands a
    checkpoint and ``resume=True`` restarts after the last complete
    stage. Either way the run is one
    :meth:`~repro.core.stages.StageGraph.execute` call over the same
    stage objects the batch and streaming paths execute.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        ingest: IngestConfig | None = None,
        checkpointer: PipelineCheckpointer | None = None,
        dhcp: DhcpLog | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.ingest = ingest or IngestConfig()
        self.ingest.validate()
        self.checkpointer = checkpointer
        self._identity = (
            HostIdentityResolver(dhcp) if dhcp is not None else None
        )
        self.resumed_from: str | None = None

    def run(
        self,
        trace: str | Path | IO[str],
        dataset_for: Callable[[list[str]], LabeledDataset] | None = None,
        *,
        resume: bool = False,
        cluster_k_max: int | None = None,
        cluster_seed: int = 0,
    ) -> PipelineOutcome:
        """Execute (or resume) the pipeline over ``trace``.

        Args:
            trace: ``dns.log`` path or text stream.
            dataset_for: Maps the surviving domain list to a
                :class:`LabeledDataset` for the classify stage; ``None``
                skips classification (cluster-only runs).
            resume: Restore every existing stage checkpoint and only
                compute what follows. Requires a checkpointer; torn,
                tampered, or configuration-mismatched checkpoints raise
                :class:`~repro.errors.ArtifactIntegrityError`.
            cluster_k_max: When set, run (and checkpoint) the X-Means
                stage with this ``k_max``.
            cluster_seed: Seed for the cluster stage.
        """
        if resume and self.checkpointer is None:
            raise IngestError(
                "resume requested without a checkpoint directory"
            )
        source = ChunkedIngestStage(
            trace,
            self.ingest.chunk,
            checkpoint_every_chunks=self.ingest.checkpoint_every_chunks,
            identity=self._identity,
            window_seconds=self.config.time_window_seconds,
        )
        stages = detection_stages(
            self.config,
            source=source,
            dataset_for=dataset_for,
            score_all=True,
            cluster_k_max=cluster_k_max,
            cluster_seed=cluster_seed,
        )
        graph = StageGraph(
            [
                _FacadeEmbedStage(self.config)
                if stage.name == STAGE_EMBED
                else stage
                for stage in stages
            ]
        )
        store = ArtifactStore()
        report = graph.execute(
            store,
            ExecutionContext(checkpointer=self.checkpointer, resume=resume),
        )
        self.resumed_from = report.resumed_from

        domains = store.maybe(SCORED_DOMAINS)
        if domains is None:
            domains = store.maybe(DOMAIN_ORDER) or []
        scores = store.maybe(DECISION_SCORES)
        if scores is None:
            scores = np.empty(0, dtype=np.float64)
        verdicts = store.maybe(VERDICTS)
        if verdicts is None:
            verdicts = np.empty(0, dtype=np.int64)
        clusters = store.maybe(CLUSTERS)
        records_ingested = store.maybe(RECORDS_INGESTED) or 0

        default_registry().gauge("ingest.peak_rss_mb").set(_peak_rss_mb())
        _log.info(
            "pipeline_done",
            resumed_from=self.resumed_from,
            records=records_ingested,
            domains=len(domains),
            clusters=None if clusters is None else len(clusters),
        )
        return PipelineOutcome(
            detector=MaliciousDomainDetector(self.config, store=store),
            domains=list(domains),
            scores=scores,
            verdicts=verdicts,
            clusters=clusters,
            resumed_from=self.resumed_from,
            records_ingested=records_ingested,
        )
