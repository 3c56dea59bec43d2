"""Artifact directories: one manifest, one atomic writer, one verifier.

Stage checkpoints (:mod:`repro.ingest.checkpoint`) and model bundles
(:mod:`repro.serve.bundle`) are both a directory of typed ``.npz`` files
plus a ``manifest.json`` recording every file's SHA-256. This module
owns that format: the :class:`ArtifactManifest` and its one parser,
which type-checks every field; :func:`write_artifact`, which stages,
hashes and writes the manifest last; and :func:`verify`. Manifests of
schema version 1, from before the two kinds shared this format, are
refused with a message naming the fix.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.errors import ArtifactIntegrityError

SCHEMA_VERSION = 2
MANIFEST_FILENAME = "manifest.json"

#: Required manifest fields besides ``schema_version``, with their JSON
#: types (a bool is accepted only where the type is ``bool``).
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "kind": str,
    "fingerprint": str,
    "created_at": (int, float),
    "complete": bool,
    "files": dict,
    "meta": dict,
}
_DIGEST = re.compile(r"[0-9a-f]{64}")
_RESERVED_NAMES = frozenset({"", ".", "..", MANIFEST_FILENAME})
_SEPARATORS = tuple(sep for sep in (os.sep, os.altsep) if sep)

T = TypeVar("T")


@dataclass(slots=True)
class ArtifactManifest:
    """Integrity and provenance record of one artifact directory.

    Attributes:
        kind: ``"model-bundle"`` or ``"checkpoint:<stage>"``; a loader
            refuses any other kind.
        schema_version: Manifest format version; loaders refuse others.
        fingerprint: Opaque hash of the pipeline configuration (and, for
            checkpoints, the trace source) that produced the artifact.
        created_at: Unix timestamp of the write.
        complete: False only for rolling mid-stage checkpoints, which a
            resumed run continues instead of skipping.
        files: File name -> hex SHA-256, filled in by the writer.
        meta: Small JSON-safe payload: a checkpoint's stage state, a
            bundle's training metric summary.
    """

    kind: str
    schema_version: int = SCHEMA_VERSION
    fingerprint: str = ""
    created_at: float = 0.0
    complete: bool = True
    files: dict[str, str] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize as stable, indented JSON."""
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "manifest") -> ArtifactManifest:
        """Parse and type-check a manifest; ``source`` names it in errors.

        Unknown fields are ignored. Anything else that is not as
        :meth:`to_json` writes it — a missing or mistyped field, a file
        name that is not plain, a digest that is not 64 hex digits, a
        schema version other than :data:`SCHEMA_VERSION` — raises
        :class:`~repro.errors.ArtifactIntegrityError`.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactIntegrityError(f"unreadable {source}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ArtifactIntegrityError(f"{source} must be a JSON object")
        version = raw.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ArtifactIntegrityError(
                f"{source} has schema version {version!r}, but only version "
                f"{SCHEMA_VERSION} can be read: re-publish a model bundle, "
                "or re-run a checkpointed pipeline without --resume"
            )
        for name, types in _FIELD_TYPES.items():
            value = raw.get(name)
            if not isinstance(value, types) or (
                isinstance(value, bool) and types is not bool
            ):
                raise ArtifactIntegrityError(
                    f"{source} field {name!r} is missing or mistyped: {value!r}"
                )
        for name, digest in raw["files"].items():
            if name in _RESERVED_NAMES or any(s in name for s in _SEPARATORS):
                raise ArtifactIntegrityError(
                    f"{source} lists {name!r}, which is not a plain file name"
                )
            if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
                raise ArtifactIntegrityError(
                    f"{source} records {digest!r} for {name!r}, not a SHA-256"
                )
        known = {name: raw[name] for name in _FIELD_TYPES}
        known["created_at"] = float(known["created_at"])
        return cls(schema_version=version, **known)


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(directory: Path) -> ArtifactManifest:
    """Parse ``directory``'s manifest without hashing its files."""
    path = directory / MANIFEST_FILENAME
    if not path.is_file():
        raise ArtifactIntegrityError(f"no manifest under {directory}")
    return ArtifactManifest.from_json(path.read_text(encoding="utf-8"), str(path))


def write_artifact(
    parent: Path,
    manifest: ArtifactManifest,
    populate: Callable[[Path], None],
    commit: Callable[[Path], T],
) -> T:
    """Write one artifact directory atomically; returns ``commit``'s result.

    ``populate`` fills a fresh hidden staging directory under ``parent``.
    Every file it leaves is hashed into ``manifest.files``, the manifest
    is written last, and ``commit`` moves the staging directory to its
    final place. If any step raises, the staging directory is removed.
    """
    parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=parent))
    try:
        populate(staging)
        manifest.files = {
            entry.name: sha256_file(entry)
            for entry in sorted(staging.iterdir())
            if entry.is_file()
        }
        (staging / MANIFEST_FILENAME).write_text(
            manifest.to_json(), encoding="utf-8"
        )
        return commit(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def verify(directory: Path, kind: str, fingerprint: str = "") -> ArtifactManifest:
    """Check the artifact under ``directory`` before it is loaded.

    Checks schema version, ``kind``, ``fingerprint`` (unless empty),
    that the directory holds no file the manifest does not list, and the
    presence and checksum of every listed one; returns the manifest or
    raises :class:`~repro.errors.ArtifactIntegrityError`.
    """
    manifest = read_manifest(directory)
    if manifest.kind != kind:
        raise ArtifactIntegrityError(
            f"{directory} holds a {manifest.kind!r} artifact, expected {kind!r}"
        )
    if fingerprint and manifest.fingerprint != fingerprint:
        raise ArtifactIntegrityError(
            f"{kind} at {directory} was written under a different "
            "pipeline configuration or trace source; refusing to use it"
        )
    present = {p.name for p in directory.iterdir()} - {MANIFEST_FILENAME}
    if unlisted := sorted(present - manifest.files.keys()):
        raise ArtifactIntegrityError(f"{directory} holds unlisted files {unlisted}")
    for name, expected in manifest.files.items():
        path = directory / name
        if not path.is_file():
            raise ArtifactIntegrityError(f"artifact file missing: {path}")
        actual = sha256_file(path)
        if actual != expected:
            raise ArtifactIntegrityError(
                f"checksum mismatch for {path}: manifest {expected[:12]}..., "
                f"file {actual[:12]}..."
            )
    return manifest
