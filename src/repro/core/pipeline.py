"""The end-to-end detection pipeline (paper section 3, Figure 2).

Five stages, matching the paper's system components:

1. data collection / pre-processing — DNS + DHCP logs in, records out;
2. behavioral modeling — three bipartite graphs, pruned;
3. feature learning — one-mode projections + LINE per view;
4. supervised detection — SVM on the concatenated 3k-dim vectors;
5. unsupervised mining — X-Means clusters over the same vectors.

:class:`MaliciousDomainDetector` is a facade over the typed stage-graph
engine (:mod:`repro.core.stages`): every method executes its slice of
the shared stage objects from :mod:`repro.core.dataflow` in memory, and
all intermediate products live in one
:class:`~repro.core.stages.ArtifactStore`. The streaming refresh and
the checkpointed runner execute the *same* stages through the same
engine loop, so the three paths cannot drift apart.

The detector exposes each stage separately (for experiments) and a
convenience :meth:`process` that runs stages 1-3 in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.clustering import DomainCluster
from repro.core.dataflow import (
    CLASSIFIER,
    CLUSTERS,
    DOMAIN_ORDER,
    FEATURE_SPACE,
    PIPELINE_STAGES,
    PRUNED_GRAPHS,
    PRUNING_REPORT,
    RECORDS_INGESTED,
    SIMILARITY_GRAPHS,
    STAGE_CLASSIFY,
    STAGE_CLUSTER,
    STAGE_EMBED,
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
    BatchGraphStage,
    ClassifyStage,
    ClusterStage,
    EmbedStage,
    ProjectStage,
    PruneStage,
)
from repro.core.detector import ClassifierConfig, MaliciousDomainClassifier
from repro.core.features import FeatureSpace, FeatureView
from repro.core.stages import (
    ArtifactStore,
    ExecutionContext,
    Stage,
    StageGraph,
)
from repro.dns.dhcp import DhcpLog
from repro.dns.types import DnsQuery, DnsResponse
from repro.embedding.line import LineConfig
from repro.errors import GraphConstructionError, NotFittedError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.projection import SimilarityGraph
from repro.graphs.pruning import PruningReport, PruningRules
from repro.labels.dataset import LabeledDataset
from repro.ml.model_selection import cross_validated_scores
from repro.obs.logging import get_logger
from repro.obs.progress import ProgressCallback
from repro.parallel.executor import ParallelConfig

__all__ = [
    "PIPELINE_STAGES",
    "STAGE_CLASSIFY",
    "STAGE_CLUSTER",
    "STAGE_EMBED",
    "STAGE_INGEST",
    "STAGE_PROJECT",
    "STAGE_PRUNE",
    "MaliciousDomainDetector",
    "PipelineConfig",
]

_log = get_logger(__name__)


@dataclass(slots=True)
class PipelineConfig:
    """End-to-end pipeline knobs.

    Attributes:
        time_window_seconds: DTBG window (paper: one minute).
        pruning: Graph pruning rules (paper defaults).
        embedding: LINE hyperparameter template; per-view seeds are
            derived from its seed so the three views train independently.
        parallel: Worker policy for the embedding stage — the three
            views (and both orders of ``order="both"``) train as
            independent tasks under it — and for
            :meth:`MaliciousDomainDetector.cross_validate`, whose folds
            fan out under the same config. The default (``workers=0``)
            is fully serial; any backend produces byte-identical
            embeddings and fold scores for the same seed (see
            ``docs/parallelism.md``).
        classifier: SVM settings for the classify stage — the paper's
            C/gamma plus the SMO solver's ``kernel_cache_mb`` budget
            (see ``docs/ml.md``). The cache budget does not enter the
            pipeline fingerprint: it changes how the model is computed,
            not what it computes.
        min_similarity: Projection edge threshold (near-zero keeps all
            overlaps).
        views: Feature views used for classification; the default is all
            three (Figure 6), a single view reproduces Figure 7's bars.
    """

    time_window_seconds: float = 60.0
    pruning: PruningRules = field(default_factory=PruningRules)
    embedding: LineConfig = field(default_factory=LineConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    min_similarity: float = 1e-9
    views: tuple[FeatureView, ...] = (
        FeatureView.QUERY,
        FeatureView.IP,
        FeatureView.TEMPORAL,
    )


class MaliciousDomainDetector:
    """End-to-end detector over passive DNS traffic.

    Typical use::

        detector = MaliciousDomainDetector(PipelineConfig())
        detector.process(queries, responses, dhcp)
        detector.fit(labeled_dataset)
        scores = detector.decision_scores(unknown_domains)

    Every stage method executes its stages of the shared graph in
    memory; the intermediate products (pruned graphs, projections,
    feature space, classifier) live in :attr:`artifacts` and are also
    readable through the familiar properties (:attr:`host_domain`,
    :attr:`feature_space`, ...).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self._store = store if store is not None else ArtifactStore()

    # ------------------------------------------------------------------
    # Artifact views

    @property
    def artifacts(self) -> ArtifactStore:
        """The artifact store every stage reads from and writes to."""
        return self._store

    @property
    def host_domain(self) -> BipartiteGraph | None:
        """Pruned host-domain bipartite graph (HDBG), if built."""
        graphs = self._store.maybe(PRUNED_GRAPHS)
        return None if graphs is None else graphs[0]

    @property
    def domain_ip(self) -> BipartiteGraph | None:
        """Pruned domain-IP bipartite graph (DIBG), if built."""
        graphs = self._store.maybe(PRUNED_GRAPHS)
        return None if graphs is None else graphs[1]

    @property
    def domain_time(self) -> BipartiteGraph | None:
        """Pruned domain-time bipartite graph (DTBG), if built."""
        graphs = self._store.maybe(PRUNED_GRAPHS)
        return None if graphs is None else graphs[2]

    @property
    def pruning_report(self) -> PruningReport | None:
        return self._store.maybe(PRUNING_REPORT)

    @property
    def similarity_graphs(self) -> dict[FeatureView, SimilarityGraph]:
        return self._store.maybe(SIMILARITY_GRAPHS) or {}

    @property
    def feature_space(self) -> FeatureSpace | None:
        return self._store.maybe(FEATURE_SPACE)

    @property
    def classifier(self) -> MaliciousDomainClassifier | None:
        return self._store.maybe(CLASSIFIER)

    @property
    def domains(self) -> list[str]:
        """Domains that survived pruning (the embedding vertex set)."""
        order = self._store.maybe(DOMAIN_ORDER)
        if order is None:
            raise NotFittedError("MaliciousDomainDetector.build_graphs")
        return list(order)

    # ------------------------------------------------------------------
    # Stage execution

    def _execute(
        self,
        *stages: Stage[Any, Any],
        progress: ProgressCallback | None = None,
    ) -> None:
        """Run ``stages`` in memory over the store.

        Inputs the given stages do not produce themselves must already
        be in the store (an earlier method put them there).
        """
        initial = [key for stage in stages for key in stage.inputs]
        StageGraph(stages, initial=initial).execute(
            self._store, ExecutionContext(progress=progress)
        )

    # ------------------------------------------------------------------
    # Stages 1-2: graphs

    def build_graphs(
        self,
        queries: Iterable[DnsQuery],
        responses: Iterable[DnsResponse],
        dhcp: DhcpLog | None = None,
    ) -> PruningReport:
        """Build and prune the three bipartite graphs."""
        source = BatchGraphStage(
            queries,
            responses,
            dhcp,
            window_seconds=self.config.time_window_seconds,
        )
        self._execute(source, PruneStage(self.config.pruning))
        report = self._store.get(PRUNING_REPORT)
        _log.info(
            "graphs_built",
            queries=self._store.get(RECORDS_INGESTED),
            domains_before=report.domains_before,
            domains_after=report.domains_after,
        )
        return report

    # ------------------------------------------------------------------
    # Stage 3a: projections

    def build_similarity_graphs(self) -> dict[FeatureView, SimilarityGraph]:
        """Project the three bipartite graphs onto the domain set."""
        if not (
            self._store.has(PRUNED_GRAPHS) and self._store.has(DOMAIN_ORDER)
        ):
            raise GraphConstructionError("call build_graphs() first")
        self._execute(ProjectStage(self.config.min_similarity))
        return self.similarity_graphs

    # ------------------------------------------------------------------
    # Stage 3b: embeddings

    def learn_embeddings(
        self, progress: "ProgressCallback | None" = None
    ) -> FeatureSpace:
        """Train LINE per view and assemble the feature space.

        The per-view trainings (and, for ``order="both"``, the per-order
        halves) run under ``config.parallel`` — serially by default,
        fanned out over thread or process workers when configured. The
        resulting vectors are byte-identical either way.

        Args:
            progress: Optional :class:`repro.obs.ProgressCallback`
                forwarded to every per-view LINE training loop (reports
                interleave across views when they train concurrently).
        """
        if not self.similarity_graphs:
            self.build_similarity_graphs()
        self._execute(
            EmbedStage(self.config.embedding, self.config.parallel),
            progress=progress,
        )
        return self._store.get(FEATURE_SPACE)

    def process(
        self,
        queries: Iterable[DnsQuery],
        responses: Iterable[DnsResponse],
        dhcp: DhcpLog | None = None,
    ) -> FeatureSpace:
        """Run stages 1-3 (graphs, projections, embeddings) in order."""
        self.build_graphs(queries, responses, dhcp)
        self.build_similarity_graphs()
        return self.learn_embeddings()

    # ------------------------------------------------------------------
    # Stage 4: supervised detection

    def features_for(
        self,
        domains: Sequence[str],
        views: Sequence[FeatureView] | None = None,
    ) -> np.ndarray:
        """Feature matrix for ``domains`` (full 3k by default)."""
        space = self.feature_space
        if space is None:
            raise NotFittedError("MaliciousDomainDetector.learn_embeddings")
        return space.matrix(domains, views or self.config.views)

    def fit(self, dataset: LabeledDataset) -> "MaliciousDomainDetector":
        """Train the SVM on a labeled dataset."""
        if self.feature_space is None:
            raise NotFittedError("MaliciousDomainDetector.learn_embeddings")
        self._execute(
            ClassifyStage(
                self.config.views,
                lambda _order: dataset,
                score_all=False,
                classifier=self.config.classifier,
            )
        )
        return self

    def cross_validate(
        self, dataset: LabeledDataset, n_splits: int = 10, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Out-of-fold decision scores for the labeled set (section 8.1).

        Each fold trains a fresh classifier with ``config.classifier``'s
        settings; folds fan out under ``config.parallel`` (the scores
        are byte-identical across serial/thread/process backends).

        Returns:
            (scores, fold_ids) aligned with ``dataset.domains``.
        """
        features = self.features_for(dataset.domains)
        return cross_validated_scores(
            features,
            np.asarray(dataset.labels),
            self.config.classifier.build,
            n_splits=n_splits,
            seed=seed,
            parallel=self.config.parallel,
        )

    def decision_scores(self, domains: Sequence[str]) -> np.ndarray:
        """d(x) for each domain — positive means malicious side."""
        classifier = self.classifier
        if classifier is None:
            raise NotFittedError("MaliciousDomainDetector.fit")
        return classifier.decision_function(self.features_for(domains))

    def predict(self, domains: Sequence[str]) -> np.ndarray:
        """1 = malicious, 0 = benign, at the classifier's threshold."""
        classifier = self.classifier
        if classifier is None:
            raise NotFittedError("MaliciousDomainDetector.fit")
        return classifier.predict(self.features_for(domains))

    # ------------------------------------------------------------------
    # Stage 5: unsupervised mining

    def cluster(
        self,
        domains: Sequence[str] | None = None,
        k_max: int = 60,
        seed: int = 0,
    ) -> list[DomainCluster]:
        """X-Means clusters over the (given or all) domains' features."""
        if domains is None:
            domains = self.domains
        if self.feature_space is None:
            raise NotFittedError("MaliciousDomainDetector.learn_embeddings")
        self._execute(
            ClusterStage(
                self.config.views, k_max=k_max, seed=seed, domains=domains
            )
        )
        return self._store.get(CLUSTERS)
