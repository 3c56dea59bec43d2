"""Stage checkpoints: crash-safe persistence between pipeline stages.

A :class:`PipelineCheckpointer` manages one checkpoint directory with a
subdirectory per completed stage::

    <dir>/00-ingest/    manifest.json + graph .npz artifacts (+ cursor)
    <dir>/01-prune/     manifest.json + pruned graphs + report
    <dir>/02-project/   manifest.json + similarity graphs
    <dir>/03-embed/     manifest.json + per-view embeddings
    <dir>/04-classify/  manifest.json + classifier + verdicts
    <dir>/05-cluster/   manifest.json + cluster assignments

Integrity follows the ``repro.serve`` bundle pattern: every artifact is
a typed ``.npz`` written and read with ``allow_pickle=False``; the
manifest records each file's SHA-256 and is written **last** inside a
staging directory that is atomically renamed into place — an
interrupted save can never masquerade as a complete checkpoint. On
load, schema version, configuration fingerprint, and every checksum are
re-verified; any mismatch raises
:class:`~repro.errors.ArtifactIntegrityError` instead of resuming from
a torn or tampered state.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping

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
from repro.core.persistence import sha256_file
from repro.errors import ArtifactIntegrityError, IngestError
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CHECKPOINT_STAGES",
    "STAGE_INGEST",
    "STAGE_PRUNE",
    "STAGE_PROJECT",
    "STAGE_EMBED",
    "STAGE_CLASSIFY",
    "STAGE_CLUSTER",
    "StageManifest",
    "PipelineCheckpointer",
]

_log = get_logger(__name__)

CHECKPOINT_SCHEMA_VERSION = 1
MANIFEST_FILENAME = "manifest.json"


@dataclass(slots=True)
class StageManifest:
    """Integrity and provenance record for one stage checkpoint.

    Attributes:
        stage: Stage name (one of :data:`CHECKPOINT_STAGES`).
        schema_version: Checkpoint format version; loaders reject
            mismatches.
        fingerprint: Opaque hash binding the checkpoint to one pipeline
            configuration + trace source; resuming under a different
            fingerprint is refused.
        created_at: Unix timestamp of the save.
        complete: False only for rolling mid-stage checkpoints (the
            ingest stage saves every few chunks); a resumed run
            continues such a stage from ``meta["cursor"]`` instead of
            skipping past it.
        files: Artifact filename -> hex SHA-256, verified on load.
        meta: Small JSON-safe stage payload (ingest cursor, domain
            counts, ...).
    """

    stage: str
    schema_version: int = CHECKPOINT_SCHEMA_VERSION
    fingerprint: str = ""
    created_at: float = 0.0
    complete: bool = True
    files: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StageManifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactIntegrityError(
                f"unreadable checkpoint manifest: {exc}"
            ) from exc
        if not isinstance(raw, dict) or "stage" not in raw:
            raise ArtifactIntegrityError(
                "checkpoint manifest must be a JSON object with a stage"
            )
        known = {f: raw[f] for f in cls.__dataclass_fields__ if f in raw}
        return cls(**known)


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
        """Total size of every file under the checkpoint root."""
        if not self.root.is_dir():
            return 0
        return sum(
            entry.stat().st_size
            for entry in self.root.rglob("*")
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

        ``populate`` receives a staging directory and writes the stage's
        ``.npz`` artifacts into it. Every file present afterwards is
        hashed into the manifest, the manifest lands last, and the
        staging directory is renamed over any previous checkpoint for
        the stage — so a crash at any point leaves either the old
        complete checkpoint or none, never a torn one.
        """
        if stage not in CHECKPOINT_STAGES:
            raise IngestError(f"unknown checkpoint stage {stage!r}")
        final = self.stage_dir(stage)
        staging = self.root / f".{stage}.staging"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            populate(staging)
            manifest = StageManifest(
                stage=stage,
                fingerprint=self.fingerprint,
                created_at=time.time(),
                complete=complete,
                files={
                    entry.name: sha256_file(entry)
                    for entry in sorted(staging.iterdir())
                    if entry.is_file()
                },
                meta=dict(meta or {}),
            )
            (staging / MANIFEST_FILENAME).write_text(
                manifest.to_json(), encoding="utf-8"
            )
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
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

    def verify(self, stage: str) -> tuple[Path, StageManifest]:
        """Integrity-check one stage checkpoint; returns (dir, manifest).

        Raises:
            ArtifactIntegrityError: Missing/unreadable manifest, schema
                or fingerprint mismatch, missing artifact, or checksum
                mismatch. A checkpoint that fails here is never loaded.
        """
        directory = self.stage_dir(stage)
        manifest_path = directory / MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise ArtifactIntegrityError(
                f"no checkpoint manifest for stage {stage!r} under {self.root}"
            )
        manifest = StageManifest.from_json(
            manifest_path.read_text(encoding="utf-8")
        )
        if manifest.stage != stage:
            raise ArtifactIntegrityError(
                f"checkpoint under {directory} records stage "
                f"{manifest.stage!r}, expected {stage!r}"
            )
        if manifest.schema_version != CHECKPOINT_SCHEMA_VERSION:
            raise ArtifactIntegrityError(
                "unsupported checkpoint schema version "
                f"{manifest.schema_version}"
            )
        if self.fingerprint and manifest.fingerprint != self.fingerprint:
            raise ArtifactIntegrityError(
                f"checkpoint for stage {stage!r} was written under a "
                "different pipeline configuration or trace source; "
                "refusing to resume from it"
            )
        for name, expected in manifest.files.items():
            if name == MANIFEST_FILENAME:
                continue
            artifact = directory / name
            if not artifact.is_file():
                raise ArtifactIntegrityError(
                    f"checkpoint artifact missing: {artifact}"
                )
            actual = sha256_file(artifact)
            if actual != expected:
                raise ArtifactIntegrityError(
                    f"checksum mismatch for {artifact}: manifest "
                    f"{expected[:12]}..., file {actual[:12]}..."
                )
        return directory, manifest

    def peek(self, stage: str) -> StageManifest | None:
        """Read one stage's manifest without hashing its artifacts.

        For inspection only (``repro-dns describe``): no checksum or
        fingerprint verification happens, so never resume from a peeked
        checkpoint — use :meth:`verify` for that. Returns ``None`` when
        the stage has no checkpoint.
        """
        manifest_path = self.stage_dir(stage) / MANIFEST_FILENAME
        if not manifest_path.is_file():
            return None
        return StageManifest.from_json(
            manifest_path.read_text(encoding="utf-8")
        )

    def latest(self) -> tuple[str, StageManifest] | None:
        """The most advanced existing checkpoint, verified.

        Returns ``(stage, manifest)`` for the latest stage that has a
        checkpoint, or ``None`` when the directory holds none. The
        returned checkpoint may be partial (``manifest.complete`` is
        False for rolling ingest saves).
        """
        found: tuple[str, StageManifest] | None = None
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
