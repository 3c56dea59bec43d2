"""Typed stage-graph engine: one substrate for all execution modes.

The paper's system is a single fixed dataflow (graphs -> pruning ->
projection -> embedding -> classification -> clustering), but the repo
grew three hand-rolled copies of it: the batch detector, the streaming
refresh, and the checkpointed out-of-core runner. This module is the
substrate they all run on now:

* an :class:`ArtifactKey` names one typed intermediate product (a graph
  triple, a feature space, a score vector);
* an :class:`ArtifactStore` holds the products of a run, keyed by name —
  the in-memory twin of a checkpoint directory;
* a :class:`Stage` declares which artifacts it consumes and produces,
  computes in :meth:`Stage.run`, and (optionally) knows how to persist
  and restore its outputs as a stage checkpoint;
* a :class:`StageGraph` validates the DAG statically — every input must
  be produced by an earlier stage or declared initial — and executes it
  in one loop.

:meth:`StageGraph.execute` is the only way a graph runs. For each active
stage, in order, it runs the stage and — when the
:class:`ExecutionContext` carries a checkpointer — saves its outputs.
With ``ctx.resume`` also set it first restores each stage that has a
checkpoint, and skips a stage whose checkpointed successor supersedes
it (pruned graphs supersede raw ones). The batch facade, the streaming
refresh, and the checkpointed runner differ only in the stages and the
context they hand it.

Every stage executes under one canonical tracing span,
``pipeline.<stage>`` (see :func:`span_name`), so the metrics registry
reports ``stage.pipeline.<stage>.seconds`` identically from the batch,
streaming, and checkpointed paths. The engine knows checkpointing only
through the :class:`CheckpointBackend` protocol, which hands back
:class:`~repro.core.artifacts.ArtifactManifest` records, so
``repro.core`` never imports ``repro.ingest``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    TypeVar,
)

from repro.core.artifacts import ArtifactManifest, Payload
from repro.errors import StageGraphError
from repro.obs.logging import get_logger
from repro.obs.progress import ProgressCallback
from repro.obs.tracing import trace

__all__ = [
    "PIPELINE_SPAN_PREFIX",
    "ArtifactKey",
    "ArtifactStore",
    "CheckpointBackend",
    "ExecutionContext",
    "RunReport",
    "Stage",
    "StageGraph",
    "StageInfo",
    "span_name",
]

_log = get_logger(__name__)

#: Prefix of the canonical per-stage tracing span. A stage named
#: ``"embed"`` runs under the span ``pipeline.embed`` and therefore
#: reports ``stage.pipeline.embed.seconds`` / ``.calls`` in the metrics
#: registry — identically from every execution path.
PIPELINE_SPAN_PREFIX = "pipeline."

T = TypeVar("T")
I = TypeVar("I")
O = TypeVar("O")


def span_name(stage: str) -> str:
    """Canonical tracing-span name for one pipeline stage."""
    return PIPELINE_SPAN_PREFIX + stage


class ArtifactKey(Generic[T]):
    """Typed name of one intermediate product in an :class:`ArtifactStore`.

    The type parameter documents (and, under mypy, enforces) what a
    stage reads and writes: ``store.get(FEATURE_SPACE)`` is a
    :class:`~repro.core.features.FeatureSpace`, not ``Any``. Keys
    compare by name, so re-declaring a key is harmless.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"ArtifactKey({self.name!r})"

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArtifactKey) and other.name == self.name


class ArtifactStore:
    """The typed artifacts of one pipeline run, keyed by name.

    This is the in-memory twin of a checkpoint directory: every stage
    reads its declared inputs from here and writes its outputs back,
    and a checkpointed run moves the same payloads to and from disk.
    """

    def __init__(self) -> None:
        self._artifacts: dict[str, object] = {}

    def put(self, key: ArtifactKey[T], value: T) -> T:
        """Store ``value`` under ``key``; returns ``value``."""
        self._artifacts[key.name] = value
        return value

    def get(self, key: ArtifactKey[T]) -> T:
        """The artifact under ``key``; raises if it was never produced."""
        try:
            return self._artifacts[key.name]  # type: ignore[return-value]
        except KeyError:
            raise StageGraphError(
                f"artifact {key.name!r} has not been produced yet"
            ) from None

    def maybe(self, key: ArtifactKey[T]) -> T | None:
        """The artifact under ``key``, or ``None`` when absent."""
        return self._artifacts.get(key.name)  # type: ignore[return-value]

    def has(self, key: ArtifactKey[T]) -> bool:
        return key.name in self._artifacts

    def names(self) -> tuple[str, ...]:
        """Names of every artifact currently in the store."""
        return tuple(self._artifacts)

    def __contains__(self, key: ArtifactKey[Any]) -> bool:
        return self.has(key)

    def __len__(self) -> int:
        return len(self._artifacts)


class CheckpointBackend(Protocol):
    """Structural view of :class:`repro.ingest.PipelineCheckpointer`.

    The engine talks to checkpointing exclusively through this protocol
    so that ``repro.core`` never imports ``repro.ingest`` (the import
    runs the other way).
    """

    def has(self, stage: str) -> bool: ...

    def load(self, stage: str) -> tuple[ArtifactManifest, Payload]: ...

    def save(
        self,
        stage: str,
        files: Payload,
        meta: Mapping[str, object] | None = None,
        *,
        complete: bool = True,
    ) -> Path: ...

    def invalidate_after(self, stage: str) -> None: ...


@dataclass(slots=True)
class ExecutionContext:
    """Per-run context threaded through every stage.

    Attributes:
        checkpointer: Stage-checkpoint backend, when the run persists
            (or restores) checkpoints; ``None`` for purely in-memory
            runs.
        resume: Whether existing checkpoints may be restored (and
            superseded stages skipped); ignored without a checkpointer.
        progress: Optional progress callback forwarded to long-running
            stages (the embedding stage reports through it).
    """

    checkpointer: CheckpointBackend | None = None
    resume: bool = False
    progress: ProgressCallback | None = None


class Stage(Generic[I, O], abc.ABC):
    """One pipeline stage: declared inputs/outputs plus a compute step.

    The type parameters document the stage's primary input and output
    payloads (e.g. ``Stage[GraphTriple, GraphTriple]`` for pruning); the
    authoritative dataflow contract is the ``inputs`` / ``outputs`` key
    tuples, which :class:`StageGraph` validates statically.

    Attributes:
        name: Canonical stage name; also its checkpoint-directory name
            and tracing-span suffix.
        inputs: Artifact keys the stage reads from the store.
        outputs: Artifact keys the stage writes to the store.
        checkpointed: Whether a checkpointed run persists this stage's
            outputs (in-memory source stages opt out).
        traced: Whether execution wraps :meth:`run` in the canonical
            ``pipeline.<stage>`` span. Delegating wrapper stages (whose
            ``run`` re-enters the engine for the same stage) opt out so
            the span is observed exactly once per execution.
        supersedes: Names of earlier stages whose outputs become
            unnecessary once this stage has a checkpoint on disk — a
            complete pruned-graph checkpoint makes loading the much
            larger raw graphs pointless.
    """

    name: str = ""
    inputs: tuple[ArtifactKey[Any], ...] = ()
    outputs: tuple[ArtifactKey[Any], ...] = ()
    checkpointed: bool = True
    traced: bool = True
    supersedes: tuple[str, ...] = ()

    def active(self, store: ArtifactStore) -> bool:
        """Whether the stage participates in this run (default: yes)."""
        return True

    @abc.abstractmethod
    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        """Compute the stage's outputs from its inputs in ``store``."""

    def save_artifacts(
        self, store: ArtifactStore
    ) -> tuple[Payload, dict[str, object]]:
        """This stage's outputs as ``(files, meta)`` for its checkpoint.

        ``files`` maps each file name to its arrays and ``meta`` holds
        every scalar; the checkpointer writes them, with ``meta`` as the
        manifest's ``meta``.
        """
        raise NotImplementedError(
            f"stage {self.name!r} does not persist artifacts"
        )

    def load_artifacts(
        self,
        files: Payload,
        manifest: ArtifactManifest,
        store: ArtifactStore,
    ) -> None:
        """Restore this stage's outputs into ``store`` from the checked,
        decoded ``files`` of its checkpoint."""
        raise NotImplementedError(
            f"stage {self.name!r} does not restore artifacts"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class StageInfo:
    """Describe-friendly summary of one stage (see ``repro-dns describe``)."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    checkpointed: bool
    supersedes: tuple[str, ...]


@dataclass(slots=True)
class RunReport:
    """What one :meth:`StageGraph.execute` call did, stage by stage.

    Attributes:
        executed: Stages that ran their compute step, in order.
        restored: Stages restored from a checkpoint (a partially
            restored stage appears in both lists).
        skipped: Stages skipped (inactive or superseded).
        resumed_from: The most advanced stage restored from a
            checkpoint, or ``None`` for a cold run.
    """

    executed: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    resumed_from: str | None = None


class StageGraph:
    """A validated, ordered DAG of stages over one artifact namespace.

    Stages are given in execution order; construction checks that every
    declared input is produced by an earlier stage or listed in
    ``initial`` (artifacts seeded into the store before execution), that
    stage names are unique, and that no artifact has two producers.
    """

    def __init__(
        self,
        stages: Sequence[Stage[Any, Any]],
        initial: Iterable[ArtifactKey[Any]] = (),
    ) -> None:
        available = {key.name for key in initial}
        produced: set[str] = set()
        names: set[str] = set()
        for stage in stages:
            if not stage.name:
                raise StageGraphError(f"stage {stage!r} has no name")
            if stage.name in names:
                raise StageGraphError(f"duplicate stage name {stage.name!r}")
            names.add(stage.name)
            for key in stage.inputs:
                if key.name not in available:
                    raise StageGraphError(
                        f"stage {stage.name!r} consumes {key.name!r}, which "
                        "no earlier stage produces and is not an initial "
                        "artifact"
                    )
            for key in stage.outputs:
                if key.name in produced:
                    raise StageGraphError(
                        f"artifact {key.name!r} has two producers "
                        f"(second: stage {stage.name!r})"
                    )
                produced.add(key.name)
                available.add(key.name)
        self.stages: tuple[Stage[Any, Any], ...] = tuple(stages)

    def __iter__(self) -> Iterator[Stage[Any, Any]]:
        return iter(self.stages)

    def names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def get(self, name: str) -> Stage[Any, Any]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise StageGraphError(f"no stage named {name!r} in this graph")

    def describe(self) -> tuple[StageInfo, ...]:
        """Static stage summaries, in execution order."""
        return tuple(
            StageInfo(
                name=stage.name,
                inputs=tuple(key.name for key in stage.inputs),
                outputs=tuple(key.name for key in stage.outputs),
                checkpointed=stage.checkpointed,
                supersedes=stage.supersedes,
            )
            for stage in self.stages
        )

    def execute(
        self, store: ArtifactStore, ctx: ExecutionContext | None = None
    ) -> RunReport:
        """Run every active stage over ``store``, in order.

        Without a checkpointer in ``ctx`` this is a plain in-memory run.
        With one, each stage that computes is persisted atomically and
        every later stage's now-stale checkpoint is invalidated. With
        ``ctx.resume`` as well, a stage is skipped when a later stage
        that supersedes it has a checkpoint, and a stage with its own
        checkpoint is verified and restored instead of run; a *partial*
        checkpoint (rolling ingest saves) is restored and the stage then
        continues from the restored state.

        ``resumed_from`` on the returned report is the most advanced
        restored stage.
        """
        ctx = ctx or ExecutionContext()
        ckpt = ctx.checkpointer
        restore_from = ckpt if ctx.resume else None
        report = RunReport()
        for position, stage in enumerate(self.stages):
            if not stage.active(store):
                report.skipped.append(stage.name)
                continue
            if restore_from is not None and any(
                stage.name in later.supersedes and restore_from.has(later.name)
                for later in self.stages[position + 1 :]
            ):
                report.skipped.append(stage.name)
                continue
            if (
                restore_from is not None
                and stage.checkpointed
                and restore_from.has(stage.name)
            ):
                manifest, files = restore_from.load(stage.name)
                stage.load_artifacts(files, manifest, store)
                report.restored.append(stage.name)
                report.resumed_from = stage.name
                _log.info(
                    "stage_restored",
                    stage=stage.name,
                    complete=manifest.complete,
                )
                if manifest.complete:
                    continue
                # A partial (rolling) checkpoint: the restored state is a
                # prefix of the stage's work — finish it below.
            if stage.traced:
                with trace(span_name(stage.name)):
                    stage.run(store, ctx)
            else:
                stage.run(store, ctx)
            report.executed.append(stage.name)
            if ckpt is not None and stage.checkpointed:
                ckpt.save(stage.name, *stage.save_artifacts(store))
                ckpt.invalidate_after(stage.name)
        return report
