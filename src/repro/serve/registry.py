"""Versioned on-disk model registry with atomic publish.

A registry root holds numbered slots::

    registry/
      CURRENT        <- "2\\n" (the published pointer, updated atomically)
      v0001/         <- a ModelBundle directory
      v0002/

Publishing writes the bundle with :func:`repro.core.artifacts.write_artifact`
into a hidden staging directory inside the root and ``os.rename``-s it
into the next free slot: readers either see a complete, checksummed
bundle or no slot at all, and no slot is ever overwritten. The
``CURRENT`` pointer is likewise replaced atomically (write-temp +
``os.replace``), so a crash mid-publish leaves the previous version
live. A publisher killed mid-write leaves its hidden ``.staging-*``
directory behind; :meth:`ModelRegistry.versions` never lists one, and
it is safe to delete once no publish is running (other processes may
be publishing into the same root, so the registry does not sweep them).
Swapping a loaded version into service is
:meth:`repro.serve.service.ScoringService.reload`'s job.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from pathlib import Path

from repro.core.artifacts import MANIFEST_FILENAME, write_artifact
from repro.errors import DatasetError
from repro.obs.logging import get_logger
from repro.serve.bundle import ModelBundle

__all__ = ["CURRENT_FILENAME", "ModelRegistry"]

_log = get_logger(__name__)

CURRENT_FILENAME = "CURRENT"
_SLOT_PATTERN = re.compile(r"^v(\d{4,})$")


class ModelRegistry:
    """Versioned slots for model bundles under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serializes publishers in this process; cross-process races are
        # handled by the rename-retry loop in publish().
        self._publish_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Disk layout

    def slot_path(self, version: int) -> Path:
        """Directory of ``version`` (which need not exist yet)."""
        if version < 1:
            raise ValueError(f"model versions start at 1, got {version}")
        return self.root / f"v{version:04d}"

    def versions(self) -> list[int]:
        """Sorted versions with a complete (manifest-bearing) bundle."""
        found: list[int] = []
        for entry in self.root.iterdir():
            match = _SLOT_PATTERN.match(entry.name)
            if (
                match
                and entry.is_dir()
                and (entry / MANIFEST_FILENAME).is_file()
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self) -> int | None:
        """The published version: the ``CURRENT`` pointer when valid,
        falling back to the highest complete slot on disk."""
        pointer = self.root / CURRENT_FILENAME
        if pointer.is_file():
            try:
                version = int(pointer.read_text(encoding="utf-8").strip())
            except ValueError:
                version = 0
            if (
                version >= 1
                and (self.slot_path(version) / MANIFEST_FILENAME).is_file()
            ):
                return version
        found = self.versions()
        return found[-1] if found else None

    # ------------------------------------------------------------------
    # Publish / load

    def publish(self, bundle: ModelBundle) -> int:
        """Atomically add ``bundle`` as the next version; returns it."""
        with self._publish_lock:
            version = write_artifact(
                self.root, *bundle.payload(), self._claim_slot
            )
            self._write_current(version)
        _log.info(
            "model_published",
            version=version,
            root=str(self.root),
            domains=len(bundle.domains),
        )
        return version

    def _claim_slot(self, staging: Path) -> int:
        """Rename a finished bundle into the next free slot; returns its
        version. A slot another publisher claimed first is skipped."""
        found = self.versions()
        version = (found[-1] if found else 0) + 1
        while True:
            target = self.slot_path(version)
            # POSIX rename would happily replace an *empty* target
            # directory; skip any existing slot first (the OSError
            # branch covers the race window).
            if target.exists():
                version += 1
                continue
            try:
                os.rename(staging, target)
                return version
            except OSError:
                if target.exists():
                    version += 1
                    continue
                raise

    def _write_current(self, version: int) -> None:
        """Atomically repoint ``CURRENT`` at ``version``."""
        handle, temp_name = tempfile.mkstemp(
            prefix=".current-", dir=self.root
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(f"{version}\n")
            os.replace(temp_name, self.root / CURRENT_FILENAME)
        except BaseException:  # pragma: no cover - cleanup path
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def load(self, version: int | None = None) -> ModelBundle:
        """Load a bundle from disk (the published one by default)."""
        resolved = version if version is not None else self.latest_version()
        if resolved is None:
            raise DatasetError(
                f"no published model versions under {self.root}"
            )
        return ModelBundle.load(self.slot_path(resolved))
