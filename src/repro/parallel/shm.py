"""Zero-copy handoff of read-only arrays to process workers.

Training tasks need the edge arrays and prebuilt alias tables — tens to
hundreds of megabytes at paper scale — but only ever *read* them.
Pickling them into every worker duplicates the memory per worker and
burns time in serialization; an :class:`ArrayPack` instead copies each
array once into a single ``multiprocessing.shared_memory`` segment and
ships only a tiny :class:`ArrayPackSpec` (segment name + dtype/shape
offsets). Workers map the segment and reconstruct numpy views in place.

When shared memory is unavailable (or the backend is threads/serial,
where the caller's arrays are already addressable) the spec simply
carries the arrays inline — same API, pickle semantics.

Lifecycle: the creating side owns the segment and must call
:meth:`ArrayPack.close` (which unlinks) after the run; workers call
:func:`open_pack` per task and close their mapping when done.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType

import numpy as np

__all__ = ["ArrayPack", "ArrayPackSpec", "open_pack"]


@dataclass(slots=True)
class ArrayPackSpec:
    """Picklable description of a pack: shm layout or inline arrays."""

    shm_name: str | None
    # name -> (dtype string, shape, byte offset into the segment)
    layout: dict[str, tuple[str, tuple[int, ...], int]]
    inline: dict[str, np.ndarray] | None = None


class ArrayPack:
    """Owner side of a shared-memory array bundle."""

    def __init__(
        self, arrays: dict[str, np.ndarray], *, use_shm: bool
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        if not use_shm:
            self.spec = ArrayPackSpec(
                shm_name=None, layout={}, inline=dict(arrays)
            )
            return
        layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
        offset = 0
        prepared: dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            prepared[name] = array
            layout[name] = (array.dtype.str, array.shape, offset)
            offset += array.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, array in prepared.items():
            __, shape, start = layout[name]
            view = np.ndarray(
                shape, dtype=array.dtype, buffer=self._shm.buf[start:]
            )
            view[...] = array
        self.spec = ArrayPackSpec(shm_name=self._shm.name, layout=layout)

    def close(self) -> None:
        """Release and unlink the segment (no-op for inline packs)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __enter__(self) -> "ArrayPack":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class _OpenedPack:
    """Worker-side view of a pack; keeps the mapping alive while used."""

    def __init__(self, spec: ArrayPackSpec) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        if spec.shm_name is None:
            self.arrays = dict(spec.inline or {})
            return
        # NOTE: attaching registers the segment with the resource
        # tracker a second time (CPython bpo-39959), which would be a
        # problem for spawn-started workers (their own tracker would
        # unlink the parent's segment at exit). The executor only ever
        # starts process pools with the fork context, where parent and
        # workers share one tracker process and the duplicate
        # registration dedupes — so no counter-fix is needed here.
        self._shm = shared_memory.SharedMemory(name=spec.shm_name)
        self.arrays = {
            name: np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf[offset:]
            )
            for name, (dtype, shape, offset) in spec.layout.items()
        }

    def __enter__(self) -> dict[str, np.ndarray]:
        return self.arrays

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        # Drop our numpy views before closing the mapping; if the caller
        # still holds views (samplers built over the tables), the close
        # raises BufferError — leave the mapping to die with the worker
        # process instead (the owner side has unlinked the name, so the
        # memory is freed as soon as the last mapping goes away).
        self.arrays = {}
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - caller kept views
                pass
            self._shm = None


def open_pack(spec: ArrayPackSpec) -> _OpenedPack:
    """Context manager yielding ``{name: array}`` views of a pack."""
    return _OpenedPack(spec)
