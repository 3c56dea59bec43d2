"""Stage checkpoints: crash-safe persistence between pipeline stages.

A :class:`PipelineCheckpointer` manages one checkpoint directory with a
subdirectory per completed stage::

    <dir>/00-ingest/    manifest.json + graph .npz artifacts (+ cursor)
    <dir>/01-prune/     manifest.json + pruned graphs + report
    <dir>/02-project/   manifest.json + similarity graphs
    <dir>/03-embed/     manifest.json + per-view embeddings
    <dir>/04-classify/  manifest.json + classifier + verdicts
    <dir>/05-cluster/   manifest.json + cluster assignments

Each stage directory is an artifact directory of kind
``checkpoint:<stage>``, written and verified by
:mod:`repro.core.artifacts` like a model bundle. This module adds only
the stage naming and the commit step that replaces a stage's previous
checkpoint.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Callable, Mapping

from repro.core import artifacts
from repro.core.artifacts import MANIFEST_FILENAME, ArtifactManifest

# Canonical stage names live with the stage objects themselves
# (repro.core.dataflow); checkpoint directories are indexed by the same
# vocabulary and the historical re-exports below keep old imports alive.
from repro.core.dataflow import (
    CHECKPOINT_STAGES,
    STAGE_CLASSIFY,
    STAGE_CLUSTER,
    STAGE_EMBED,
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
)
from repro.errors import IngestError
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

__all__ = [
    "CHECKPOINT_STAGES",
    "STAGE_INGEST",
    "STAGE_PRUNE",
    "STAGE_PROJECT",
    "STAGE_EMBED",
    "STAGE_CLASSIFY",
    "STAGE_CLUSTER",
    "PipelineCheckpointer",
]

_log = get_logger(__name__)


class PipelineCheckpointer:
    """Saves, verifies, and resumes per-stage pipeline checkpoints.

    Args:
        directory: Checkpoint root (created on first save).
        fingerprint: Binds checkpoints to one (pipeline config, trace
            source) pair — see
            :func:`repro.core.dataflow.pipeline_fingerprint`.
    """

    def __init__(self, directory: str | Path, fingerprint: str = "") -> None:
        self.root = Path(directory)
        self.fingerprint = fingerprint

    # -- layout ----------------------------------------------------------

    def stage_dir(self, stage: str) -> Path:
        """Final directory of one stage's checkpoint."""
        return self.root / f"{CHECKPOINT_STAGES.index(stage):02d}-{stage}"

    def has(self, stage: str) -> bool:
        """True when a (possibly partial) checkpoint exists for ``stage``."""
        return (self.stage_dir(stage) / MANIFEST_FILENAME).is_file()

    def total_bytes(self) -> int:
        """Total size of the files in every stage directory.

        A ``.staging-*`` directory that a killed writer left under the
        root is not a checkpoint, so it is not counted.
        """
        return sum(
            entry.stat().st_size
            for stage in CHECKPOINT_STAGES
            for entry in self.stage_dir(stage).rglob("*")
            if entry.is_file()
        )

    # -- saving ----------------------------------------------------------

    def save(
        self,
        stage: str,
        populate: Callable[[Path], None],
        meta: Mapping[str, object] | None = None,
        *,
        complete: bool = True,
    ) -> Path:
        """Write one stage checkpoint atomically; returns its directory.

        ``populate`` writes the stage's ``.npz`` artifacts into a staging
        directory (:func:`repro.core.artifacts.write_artifact`), which
        then replaces any previous checkpoint for the stage — so a crash
        at any point leaves either the old complete checkpoint or none.
        """
        if stage not in CHECKPOINT_STAGES:
            raise IngestError(f"unknown checkpoint stage {stage!r}")
        final = self.stage_dir(stage)
        manifest = ArtifactManifest(
            kind=f"checkpoint:{stage}",
            fingerprint=self.fingerprint,
            created_at=time.time(),
            complete=complete,
        )

        def fill(staging: Path) -> None:
            populate(staging)
            # Read ``meta`` only now: the engine's populate fills it.
            manifest.meta = dict(meta or {})

        def replace(staging: Path) -> None:
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)

        artifacts.write_artifact(self.root, manifest, fill, replace)
        total = self.total_bytes()
        default_registry().gauge("checkpoint.bytes").set(total)
        _log.info(
            "checkpoint_saved",
            stage=stage,
            complete=complete,
            files=len(manifest.files),
            total_bytes=total,
        )
        return final

    # -- loading ---------------------------------------------------------

    def verify(self, stage: str) -> tuple[Path, ArtifactManifest]:
        """Integrity-check one stage checkpoint; returns (dir, manifest).

        Raises :class:`~repro.errors.ArtifactIntegrityError` (see
        :func:`repro.core.artifacts.verify`) instead of resuming from a
        torn or tampered checkpoint.
        """
        directory = self.stage_dir(stage)
        kind = f"checkpoint:{stage}"
        return directory, artifacts.verify(directory, kind, self.fingerprint)

    def peek(self, stage: str) -> ArtifactManifest | None:
        """Read one stage's manifest without hashing its artifacts.

        For inspection only (``repro-dns describe``): no checksum or
        fingerprint verification happens, so never resume from a peeked
        checkpoint — use :meth:`verify` for that. Returns ``None`` when
        the stage has no checkpoint.
        """
        if not self.has(stage):
            return None
        return artifacts.read_manifest(self.stage_dir(stage))

    def latest(self) -> tuple[str, ArtifactManifest] | None:
        """The most advanced existing checkpoint, verified.

        Returns ``(stage, manifest)`` for the latest stage that has a
        checkpoint, or ``None`` when the directory holds none. The
        returned checkpoint may be partial (``manifest.complete`` is
        False for rolling ingest saves).
        """
        found: tuple[str, ArtifactManifest] | None = None
        for stage in CHECKPOINT_STAGES:
            if self.has(stage):
                __, manifest = self.verify(stage)
                found = (stage, manifest)
        return found

    def invalidate_after(self, stage: str) -> None:
        """Drop checkpoints for every stage after ``stage``."""
        position = CHECKPOINT_STAGES.index(stage)
        for later in CHECKPOINT_STAGES[position + 1 :]:
            directory = self.stage_dir(later)
            if directory.exists():
                shutil.rmtree(directory)
