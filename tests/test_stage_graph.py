"""Tests for the typed stage-graph engine and its one execution loop.

Three layers of coverage:

* engine unit tests — artifact store semantics, static DAG validation,
  and :meth:`StageGraph.execute` over toy stages, in memory and with a
  real :class:`PipelineCheckpointer` backend (save, restore on resume,
  supersession, invalidation);
* span-naming regression — every execution path reports the canonical
  ``stage.pipeline.<stage>.seconds`` metrics, so dashboards never see
  two names for the same work;
* the three-way equivalence contract — batch facade, streaming refresh,
  and the checkpointed runner execute the same stage objects through
  the same loop and must produce byte-identical embeddings, scores, and
  clusters.
"""

import numpy as np
import pytest

from repro.core.dataflow import (
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
)
from repro.core.stages import (
    ArtifactKey,
    ArtifactStore,
    ExecutionContext,
    Stage,
    StageGraph,
    span_name,
)
from repro.errors import StageGraphError

LEFT = ArtifactKey("toy.left")
RIGHT = ArtifactKey("toy.right")
TOTAL = ArtifactKey("toy.total")


class _Source(Stage[None, int]):
    """Produces a constant; optionally inactive."""

    name = "source"
    outputs = (LEFT,)

    def __init__(self, value: int = 2, enabled: bool = True) -> None:
        self.value = value
        self.enabled = enabled
        self.runs = 0

    def active(self, store: ArtifactStore) -> bool:
        return self.enabled

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        self.runs += 1
        store.put(LEFT, self.value)


class _Double(Stage[int, int]):
    name = "double"
    inputs = (LEFT,)
    outputs = (RIGHT,)

    def __init__(self) -> None:
        self.runs = 0

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        self.runs += 1
        store.put(RIGHT, store.get(LEFT) * 2)


class TestArtifactStore:
    def test_put_get_roundtrip(self):
        store = ArtifactStore()
        assert store.put(LEFT, 7) == 7
        assert store.get(LEFT) == 7
        assert store.has(LEFT)
        assert LEFT in store
        assert len(store) == 1
        assert store.names() == ("toy.left",)

    def test_get_missing_raises(self):
        with pytest.raises(StageGraphError, match="toy.right"):
            ArtifactStore().get(RIGHT)

    def test_maybe_and_has(self):
        store = ArtifactStore()
        assert store.maybe(LEFT) is None
        assert not store.has(LEFT)
        store.put(LEFT, 1)
        assert store.maybe(LEFT) == 1
        assert store.has(LEFT)

    def test_keys_compare_by_name(self):
        store = ArtifactStore()
        store.put(ArtifactKey("toy.left"), 5)
        assert store.get(LEFT) == 5
        assert ArtifactKey("toy.left") == LEFT
        assert hash(ArtifactKey("toy.left")) == hash(LEFT)


class TestGraphValidation:
    def test_missing_input_rejected(self):
        with pytest.raises(StageGraphError, match="toy.left"):
            StageGraph([_Double()])

    def test_initial_artifacts_satisfy_inputs(self):
        graph = StageGraph([_Double()], initial=(LEFT,))
        assert graph.names() == ("double",)

    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(StageGraphError, match="duplicate"):
            StageGraph([_Source(), _Source()])

    def test_duplicate_producer_rejected(self):
        class _SecondProducer(Stage[None, int]):
            name = "second"
            outputs = (LEFT,)

            def run(self, store, ctx):  # pragma: no cover - never runs
                pass

        with pytest.raises(StageGraphError, match="two producers"):
            StageGraph([_Source(), _SecondProducer()])

    def test_nameless_stage_rejected(self):
        class _NoName(Stage[None, None]):
            def run(self, store, ctx):  # pragma: no cover - never runs
                pass

        with pytest.raises(StageGraphError, match="no name"):
            StageGraph([_NoName()])

    def test_describe_reports_static_shape(self):
        info = StageGraph([_Source(), _Double()]).describe()
        assert [s.name for s in info] == ["source", "double"]
        assert info[1].inputs == ("toy.left",)
        assert info[1].outputs == ("toy.right",)
        assert info[0].checkpointed


class TestBatchPolicy:
    """In-memory execution: ``execute`` without a checkpointer."""

    def test_runs_stages_in_order(self):
        store = ArtifactStore()
        report = StageGraph([_Source(), _Double()]).execute(store)
        assert report.executed == ["source", "double"]
        assert store.get(RIGHT) == 4

    def test_only_restricts_execution(self):
        # The batch facade runs one stage at a time: a graph of just
        # that stage, its inputs declared initial and already stored.
        store = ArtifactStore()
        store.put(LEFT, 5)
        report = StageGraph([_Double()], initial=(LEFT,)).execute(store)
        assert report.executed == ["double"]
        assert report.skipped == []
        assert store.get(RIGHT) == 10

    def test_checkpointless_resume_runs_every_stage(self):
        # ``resume`` only restores through a checkpointer; without one
        # every stage computes.
        source, double = _Source(), _Double()
        report = StageGraph([source, double]).execute(
            ArtifactStore(), ExecutionContext(resume=True)
        )
        assert report.executed == ["source", "double"]
        assert report.restored == []

    def test_inactive_stage_skipped(self):
        store = ArtifactStore()
        store.put(LEFT, 3)
        report = StageGraph(
            [_Source(enabled=False), _Double()], initial=(LEFT,)
        ).execute(store)
        assert report.skipped == ["source"]
        assert store.get(RIGHT) == 6


VAL = ArtifactKey("toy.value")
DERIVED = ArtifactKey("toy.derived")


class _PersistedStage(Stage[None, int]):
    """Toy checkpointed stage; uses a canonical stage name so the real
    :class:`PipelineCheckpointer` accepts it."""

    name = STAGE_PRUNE
    outputs = (VAL,)

    def __init__(self, value: int = 40) -> None:
        self.value = value
        self.runs = 0

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        self.runs += 1
        current = store.maybe(VAL) or 0
        store.put(VAL, current + self.value)

    def save_artifacts(self, store: ArtifactStore):
        return {"value.npz": {"value": np.array([store.get(VAL)])}}, {
            "value": store.get(VAL)
        }

    def load_artifacts(self, files, manifest, store):
        store.put(VAL, int(manifest.meta["value"]))


class _RawStage(Stage[None, int]):
    name = STAGE_INGEST
    outputs = (LEFT,)

    def __init__(self) -> None:
        self.runs = 0

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        self.runs += 1
        store.put(LEFT, 1)

    def save_artifacts(self, store: ArtifactStore):
        return {"raw.npz": {"left": np.array([store.get(LEFT)])}}, {}

    def load_artifacts(self, files, manifest, store):
        store.put(LEFT, int(files["raw.npz"]["left"][0]))


class _SupersedingStage(_PersistedStage):
    supersedes = (STAGE_INGEST,)


class TestCheckpointPolicy:
    """Checkpointed execution: ``ExecutionContext(checkpointer, resume)``."""

    @pytest.fixture()
    def checkpointer(self, tmp_path):
        from repro.ingest import PipelineCheckpointer

        return PipelineCheckpointer(tmp_path, "fp-test")

    def _ctx(self, checkpointer, resume):
        return ExecutionContext(checkpointer=checkpointer, resume=resume)

    def test_cold_run_saves_checkpoint(self, checkpointer):
        store = ArtifactStore()
        stage = _PersistedStage()
        report = StageGraph([stage]).execute(
            store, self._ctx(checkpointer, False)
        )
        assert report.executed == [STAGE_PRUNE]
        assert report.resumed_from is None
        assert checkpointer.has(STAGE_PRUNE)
        manifest, __ = checkpointer.load(STAGE_PRUNE)
        assert manifest.meta["value"] == 40

    def test_resume_restores_instead_of_running(self, checkpointer):
        StageGraph([_PersistedStage()]).execute(
            ArtifactStore(), self._ctx(checkpointer, False)
        )
        stage = _PersistedStage()
        store = ArtifactStore()
        report = StageGraph([stage]).execute(
            store, self._ctx(checkpointer, True)
        )
        assert stage.runs == 0
        assert report.restored == [STAGE_PRUNE]
        assert report.executed == []
        assert report.resumed_from == STAGE_PRUNE
        assert store.get(VAL) == 40

    def test_without_resume_checkpoints_are_ignored(self, checkpointer):
        StageGraph([_PersistedStage()]).execute(
            ArtifactStore(), self._ctx(checkpointer, False)
        )
        stage = _PersistedStage(value=7)
        store = ArtifactStore()
        report = StageGraph([stage]).execute(
            store, self._ctx(checkpointer, False)
        )
        assert stage.runs == 1
        assert report.restored == []
        assert store.get(VAL) == 7

    def test_partial_checkpoint_restores_then_continues(self, checkpointer):
        # A rolling (complete=False) save is a prefix of the stage's
        # work: resume must load it AND run the stage to finish.
        checkpointer.save(
            STAGE_PRUNE,
            {"value.npz": {"value": np.array([40])}},
            {"value": 5},
            complete=False,
        )
        stage = _PersistedStage()
        store = ArtifactStore()
        report = StageGraph([stage]).execute(
            store, self._ctx(checkpointer, True)
        )
        assert report.restored == [STAGE_PRUNE]
        assert report.executed == [STAGE_PRUNE]
        assert report.resumed_from == STAGE_PRUNE
        assert store.get(VAL) == 45  # restored 5 + the stage's 40

    def test_superseded_stage_skipped_on_resume(self, checkpointer):
        raw, pruned = _RawStage(), _SupersedingStage()
        StageGraph([raw, pruned]).execute(
            ArtifactStore(), self._ctx(checkpointer, False)
        )
        raw2, pruned2 = _RawStage(), _SupersedingStage()
        store = ArtifactStore()
        report = StageGraph([raw2, pruned2]).execute(
            store, self._ctx(checkpointer, True)
        )
        assert raw2.runs == 0
        assert report.skipped == [STAGE_INGEST]
        assert report.restored == [STAGE_PRUNE]
        assert store.get(VAL) == 40
        assert not store.has(LEFT)  # raw artifacts never loaded

    def test_rerun_invalidates_downstream_checkpoints(self, checkpointer):
        # Plant a later-stage checkpoint, then re-run an earlier stage:
        # the stale downstream checkpoint must be dropped.
        checkpointer.save(STAGE_PROJECT, {"p.npz": {"p": np.arange(1)}}, {})
        StageGraph([_PersistedStage()]).execute(
            ArtifactStore(), self._ctx(checkpointer, False)
        )
        assert checkpointer.has(STAGE_PRUNE)
        assert not checkpointer.has(STAGE_PROJECT)


class TestCanonicalSpans:
    def test_engine_emits_pipeline_stage_metrics(self):
        from repro.obs.export import snapshot_to_dict
        from repro.obs.metrics import MetricsRegistry, default_registry

        registry = default_registry()
        registry.reset()
        try:
            StageGraph([_Source(), _Double()]).execute(ArtifactStore())
            snapshot = snapshot_to_dict(registry)
        finally:
            registry.reset()
        for stage in ("source", "double"):
            name = span_name(stage)
            assert name == f"pipeline.{stage}"
            assert f"stage.{name}.seconds" in snapshot["histograms"]
            assert snapshot["counters"][f"stage.{name}.calls"]["value"] == 1
        assert isinstance(registry, MetricsRegistry)


# --------------------------------------------------------------------------
# Three-way equivalence: the same trace through the batch facade, the
# streaming refresh, and the checkpointed runner must produce
# byte-identical embeddings, scores, and clusters — they are three
# front doors to one stage graph and one loop, not three pipelines.
# --------------------------------------------------------------------------

_PIPELINE_STAGE_METRICS = (
    "stage.pipeline.ingest.seconds",
    "stage.pipeline.prune.seconds",
    "stage.pipeline.project.seconds",
    "stage.pipeline.embed.seconds",
    "stage.pipeline.classify.seconds",
)

_CLUSTER_K_MAX = 8


def _cluster_shape(clusters):
    return [(c.cluster_id, tuple(c.domains)) for c in clusters]


@pytest.fixture(scope="module")
def pipeline_config():
    from repro.core.pipeline import PipelineConfig
    from repro.embedding.line import LineConfig

    return PipelineConfig(
        embedding=LineConfig(dimension=8, total_samples=30_000, seed=13)
    )


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    from repro.simulation import SimulationConfig, TraceGenerator

    directory = tmp_path_factory.mktemp("stage-graph-trace")
    TraceGenerator(SimulationConfig.tiny(seed=7)).generate().save(directory)
    return directory


@pytest.fixture(scope="module")
def trace_records(trace_dir):
    from repro.dns.logfmt import DnsTraceReader

    return list(DnsTraceReader(trace_dir / "dns.log"))


@pytest.fixture(scope="module")
def dataset_for(trace_dir):
    from repro.labels import (
        IntelligenceFeed,
        SimulatedVirusTotal,
        build_labeled_dataset,
    )
    from repro.simulation.groundtruth import GroundTruth

    truth = GroundTruth.load(trace_dir / "groundtruth.tsv")
    feed = IntelligenceFeed(truth)
    virustotal = SimulatedVirusTotal(truth)

    def _build(domains):
        return build_labeled_dataset(feed, virustotal, domains)

    return _build


@pytest.fixture(scope="module")
def batch_run(pipeline_config, trace_dir, trace_records, dataset_for):
    """Reference batch-facade outputs plus the metric names it emitted."""
    from repro.core.pipeline import MaliciousDomainDetector
    from repro.dns.dhcp import DhcpLog
    from repro.dns.types import DnsQuery, DnsResponse
    from repro.obs.export import snapshot_to_dict
    from repro.obs.metrics import default_registry

    queries = [r for r in trace_records if isinstance(r, DnsQuery)]
    responses = [r for r in trace_records if isinstance(r, DnsResponse)]
    dhcp = DhcpLog.load(trace_dir / "dhcp.log")
    registry = default_registry()
    registry.reset()
    detector = MaliciousDomainDetector(pipeline_config)
    detector.build_graphs(queries, responses, dhcp)
    detector.build_similarity_graphs()
    space = detector.learn_embeddings()
    detector.fit(dataset_for(detector.domains))
    domains = detector.domains
    scores = detector.decision_scores(domains)
    clusters = detector.cluster(k_max=_CLUSTER_K_MAX)
    snapshot = snapshot_to_dict(registry)
    registry.reset()
    return {
        "domains": domains,
        "space": space,
        "scores": scores,
        "clusters": clusters,
        "snapshot": snapshot,
    }


@pytest.mark.slow
class TestThreeWayEquivalence:
    def test_batch_path_emits_canonical_metrics(self, batch_run):
        histograms = batch_run["snapshot"]["histograms"]
        for name in _PIPELINE_STAGE_METRICS:
            assert name in histograms, name

    def test_streaming_refresh_matches_batch(
        self, pipeline_config, trace_dir, trace_records, dataset_for,
        batch_run,
    ):
        from repro.core.streaming import StreamingDetector
        from repro.dns.dhcp import DhcpLog

        stream = StreamingDetector(
            pipeline_config, dhcp=DhcpLog.load(trace_dir / "dhcp.log")
        )
        stream.ingest(trace_records)
        stream.refresh(dataset_for(batch_run["domains"]))
        detector = stream.detector

        assert detector.domains == batch_run["domains"]
        space = detector.feature_space
        for view in ("query", "ip", "temporal"):
            assert np.array_equal(
                getattr(space, view).vectors,
                getattr(batch_run["space"], view).vectors,
            ), f"{view} embeddings diverge between streaming and batch"
        assert np.array_equal(
            detector.decision_scores(batch_run["domains"]),
            batch_run["scores"],
        )
        clusters = detector.cluster(k_max=_CLUSTER_K_MAX)
        assert _cluster_shape(clusters) == _cluster_shape(
            batch_run["clusters"]
        )

    def test_checkpointed_run_matches_batch(
        self, pipeline_config, trace_dir, dataset_for, batch_run
    ):
        from repro.dns.dhcp import DhcpLog
        from repro.ingest import (
            CheckpointedPipeline,
            ChunkPolicy,
            IngestConfig,
        )
        from repro.obs.export import snapshot_to_dict
        from repro.obs.metrics import default_registry

        registry = default_registry()
        registry.reset()
        outcome = CheckpointedPipeline(
            pipeline_config,
            IngestConfig(
                chunk=ChunkPolicy(max_records=700), checkpoint_every_chunks=3
            ),
            dhcp=DhcpLog.load(trace_dir / "dhcp.log"),
        ).run(
            trace_dir / "dns.log",
            dataset_for,
            cluster_k_max=_CLUSTER_K_MAX,
        )
        snapshot = snapshot_to_dict(registry)
        registry.reset()

        assert outcome.domains == batch_run["domains"]
        space = outcome.detector.feature_space
        for view in ("query", "ip", "temporal"):
            assert np.array_equal(
                getattr(space, view).vectors,
                getattr(batch_run["space"], view).vectors,
            ), f"{view} embeddings diverge between checkpointed and batch"
        assert np.array_equal(outcome.scores, batch_run["scores"])
        assert _cluster_shape(outcome.clusters) == _cluster_shape(
            batch_run["clusters"]
        )

        # Same spans from the checkpointed path (plus the cluster stage
        # this run enabled): one canonical name per stage, every path.
        histograms = snapshot["histograms"]
        for name in _PIPELINE_STAGE_METRICS:
            assert name in histograms, name
        assert "stage.pipeline.cluster.seconds" in histograms
