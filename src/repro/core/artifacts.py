"""Artifact directories: one manifest, one payload format, one writer, one reader.

Stage checkpoints (:mod:`repro.ingest.checkpoint`) and model bundles
(:mod:`repro.serve.bundle`) are both a directory of ``.npz`` files plus
a ``manifest.json``, and this module is the only place that encodes or
decodes an ``.npz``. A payload is data, ``{file name: {member: array}}``,
with no 0-d member: every scalar is a JSON value in the manifest's
``meta`` (JSON round-trips a float64 exactly). :func:`write_artifact`
stages, hashes and writes the manifest last; :func:`read_artifact` reads
each listed file once and decodes the same bytes it checked. Objects map
to payloads through :mod:`repro.core.persistence`. Manifests of schema
version 1 or 2 are refused with a message naming the fix.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

import numpy as np

from repro.errors import ArtifactIntegrityError

SCHEMA_VERSION = 3
MANIFEST_FILENAME = "manifest.json"
#: Name prefix of the hidden directory a write is staged in.
STAGING_PREFIX = ".staging-"

#: The members of one ``.npz`` file, by name.
Arrays = Mapping[str, np.ndarray]
#: An artifact's payload: the members of each of its files.
Payload = Mapping[str, Arrays]

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
        meta: Every scalar of the artifact, as JSON: a checkpoint's
            stage state and codec fields, a bundle's training metrics
            and classifier fields.
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


class _Checked(dict):
    """A decoded mapping in which a missing key is an integrity error."""

    def __init__(self, source: str, items: Mapping[str, Any]) -> None:
        super().__init__(items)
        self.source = source

    def __missing__(self, key: str) -> Any:
        raise ArtifactIntegrityError(f"{self.source} has no {key!r}")


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(directory: Path) -> ArtifactManifest:
    """Parse ``directory``'s manifest without reading its files."""
    path = directory / MANIFEST_FILENAME
    if not path.is_file():
        raise ArtifactIntegrityError(f"no manifest under {directory}")
    return ArtifactManifest.from_json(path.read_text(encoding="utf-8"), str(path))


def write_arrays(path: Path, **arrays: np.ndarray) -> None:
    """Write ``arrays`` as a stored (uncompressed) ``.npz`` at ``path``.

    The one place the encoding is decided: the arrays are mostly float
    vectors that deflate shrinks by a fifth at many times the cost of
    the write. :func:`read_artifact` reads deflated archives too.
    """
    np.savez(path, **arrays)


def write_artifact(
    parent: Path,
    manifest: ArtifactManifest,
    files: Payload,
    commit: Callable[[Path], T],
) -> T:
    """Write one artifact directory atomically; returns ``commit``'s result.

    Each entry of ``files`` becomes one ``.npz`` in a fresh hidden
    staging directory under ``parent``; every file is hashed into
    ``manifest.files``, the manifest is written last, and ``commit``
    moves the staging directory to its final place. If any step
    raises, the staging directory is removed.
    """
    parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=STAGING_PREFIX, dir=parent))
    try:
        for name, arrays in files.items():
            write_arrays(staging / name, **arrays)
        manifest.files = {
            name: sha256_file(staging / name) for name in sorted(files)
        }
        (staging / MANIFEST_FILENAME).write_text(
            manifest.to_json(), encoding="utf-8"
        )
        return commit(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def read_artifact(
    directory: Path, kind: str, fingerprint: str = ""
) -> tuple[ArtifactManifest, dict[str, dict[str, np.ndarray]]]:
    """Check and decode the artifact under ``directory``.

    Checks schema version, ``kind``, ``fingerprint`` (unless empty) and
    that the directory holds no file the manifest does not list. Then
    each listed file is read once: its SHA-256 is checked on the bytes
    read and those bytes are decoded. Returns the manifest and
    ``{file name: {member: array}}``; a file or member the caller asks
    for that is not there, like every other defect, raises
    :class:`~repro.errors.ArtifactIntegrityError`.
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
    files: dict[str, dict[str, np.ndarray]] = {}
    for name, expected in manifest.files.items():
        path = directory / name
        try:
            data = path.read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            raise ArtifactIntegrityError(f"artifact file missing: {path}") from None
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise ArtifactIntegrityError(
                f"checksum mismatch for {path}: manifest {expected[:12]}..., "
                f"file {actual[:12]}..."
            )
        files[name] = _decode(data, path)
    return manifest, _Checked(str(directory), files)


def _decode(data: bytes, path: Path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive held in ``data``."""
    if data[:4] not in (b"PK\x03\x04", b"PK\x05\x06"):
        raise ArtifactIntegrityError(f"{path} is not an .npz archive")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ArtifactIntegrityError(f"undecodable {path}: {exc}") from exc
    return _Checked(str(path), members)
