"""Stage checkpoints: crash-safe persistence between pipeline stages.

A :class:`PipelineCheckpointer` manages one checkpoint directory with a
subdirectory per completed stage::

    <dir>/00-ingest/    host_domain.npz domain_ip.npz domain_time.npz
    <dir>/01-prune/     the same three graphs + domains.npz
    <dir>/02-project/   query.npz ip.npz temporal.npz (similarity graphs)
    <dir>/03-embed/     query.npz ip.npz temporal.npz (embeddings)
    <dir>/04-classify/  classifier.npz scores.npz
    <dir>/05-cluster/   clusters.npz

each with a ``manifest.json`` whose ``meta`` holds the stage's scalars
(a graph triple's shared domain table is stored once, in
``host_domain.npz``). Each is an artifact directory of kind
``checkpoint:<stage>``, written and read by :mod:`repro.core.artifacts`
like a model bundle; this module adds only the stage naming, the commit
step that replaces a stage's previous checkpoint, and the sweep of
staging directories a killed writer left under the root.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Mapping

from repro.core import artifacts
from repro.core.artifacts import (
    MANIFEST_FILENAME,
    STAGING_PREFIX,
    ArtifactManifest,
    Payload,
)

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
        files: Payload,
        meta: Mapping[str, object] | None = None,
        *,
        complete: bool = True,
    ) -> Path:
        """Write one stage checkpoint atomically; returns its directory.

        ``files`` (file name -> arrays) and ``meta`` are written into a
        staging directory (:func:`repro.core.artifacts.write_artifact`),
        which then replaces any previous checkpoint for the stage — so a
        crash at any point leaves either the old complete checkpoint or
        none. One run owns the root, so every staging directory already
        there is a killed writer's leftover and is removed first.
        """
        if stage not in CHECKPOINT_STAGES:
            raise IngestError(f"unknown checkpoint stage {stage!r}")
        final = self.stage_dir(stage)
        manifest = ArtifactManifest(
            kind=f"checkpoint:{stage}",
            fingerprint=self.fingerprint,
            created_at=time.time(),
            complete=complete,
            meta=dict(meta or {}),
        )

        def replace(staging: Path) -> None:
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)

        for leftover in self.root.glob(STAGING_PREFIX + "*"):
            shutil.rmtree(leftover, ignore_errors=True)
        artifacts.write_artifact(self.root, manifest, files, replace)
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

    def load(self, stage: str) -> tuple[ArtifactManifest, Payload]:
        """Check and decode one stage checkpoint: (manifest, files).

        Raises :class:`~repro.errors.ArtifactIntegrityError` (see
        :func:`repro.core.artifacts.read_artifact`) instead of resuming
        from a torn or tampered checkpoint.
        """
        return artifacts.read_artifact(
            self.stage_dir(stage), f"checkpoint:{stage}", self.fingerprint
        )

    def peek(self, stage: str) -> ArtifactManifest | None:
        """Read one stage's manifest without hashing its artifacts.

        For inspection only (``repro-dns describe``): no checksum or
        fingerprint verification happens, so never resume from a peeked
        checkpoint — use :meth:`load` for that. Returns ``None`` when
        the stage has no checkpoint.
        """
        if not self.has(stage):
            return None
        return artifacts.read_manifest(self.stage_dir(stage))

    def latest(self) -> tuple[str, ArtifactManifest] | None:
        """The most advanced existing checkpoint, checked.

        Returns ``(stage, manifest)`` for the latest stage that has a
        checkpoint, or ``None`` when the directory holds none. The
        returned checkpoint may be partial (``manifest.complete`` is
        False for rolling ingest saves).
        """
        found: tuple[str, ArtifactManifest] | None = None
        for stage in CHECKPOINT_STAGES:
            if self.has(stage):
                manifest, __ = self.load(stage)
                found = (stage, manifest)
        return found

    def invalidate_after(self, stage: str) -> None:
        """Drop checkpoints for every stage after ``stage``."""
        position = CHECKPOINT_STAGES.index(stage)
        for later in CHECKPOINT_STAGES[position + 1 :]:
            directory = self.stage_dir(later)
            if directory.exists():
                shutil.rmtree(directory)
