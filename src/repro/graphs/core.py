"""Interned columnar graph core.

Every graph stage used to shuttle raw Python strings through
``dict[str, set]`` adjacency, copying and re-sorting them at each
hand-off. This module provides the shared array-backed foundation the
whole graph layer now builds on:

* :class:`VertexTable` — a string/value interner mapping vertex values
  (domain e2LDs, host identifiers, IPs, time-window indices) to dense
  integer ids, with a *typed deterministic* ordering that replaces the
  old rebuild-unstable ``sorted(key=repr)``;
* :class:`EdgeList` — append-only interned ``(left_id, right_id)`` edge
  buffers: raw appends, one vectorized compaction on read, and a lazily
  built CSR index for O(degree) neighborhood queries.

Compaction policy: raw appends go straight into growable numpy buffers;
``compact()`` removes duplicate edges with one vectorized
``np.unique`` pass over packed 64-bit keys, preserving first-occurrence
order. Structural queries (counts, CSR, incidence) trigger compaction
lazily, so a builder can append millions of raw edges and pay one
O(E log E) pass at the end instead of a hash lookup per record.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from repro.errors import GraphConstructionError

__all__ = ["VertexTable", "EdgeList"]

#: Initial capacity of an edge buffer (doubles on growth).
_INITIAL_CAPACITY = 16

#: Bits reserved for the right id inside a packed 64-bit edge key.
_PACK_SHIFT = np.uint64(32)
_MAX_ID = (1 << 32) - 1


def _type_rank(value: object) -> tuple[int, object]:
    """Sort key giving a total, type-stable order over vertex values.

    Numbers sort numerically before strings (the old ``sorted(key=repr)``
    interleaved them lexicographically — ``10`` before ``2`` — and the
    order changed with the set's insertion history); anything else falls
    back to its repr. The result is deterministic across rebuilds because
    it depends only on the values, never on insertion order.
    """
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float, np.integer, np.floating)):
        return (0, float(value))
    if isinstance(value, str):
        return (1, value)
    return (2, repr(value))


class VertexTable:
    """Bidirectional value <-> dense-id interner for one vertex set.

    Ids are assigned in first-intern order, so iterating :attr:`values`
    reproduces insertion order (the order the old dict adjacency
    exposed). The table is append-only: once interned, a value keeps its
    id forever, which lets multiple graphs share one table — the
    pipeline threads a single domain table through all three bipartite
    views so their vertex ids (and therefore every downstream ordering)
    agree without re-sorting.
    """

    __slots__ = ("_ids", "_values", "__weakref__")

    def __init__(self, values: Iterable[Hashable] | None = None) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []
        if values is not None:
            for value in values:
                self.intern(value)

    def intern(self, value: Hashable) -> int:
        """Id of ``value``, assigning the next dense id on first sight."""
        vid = self._ids.get(value)
        if vid is None:
            vid = len(self._values)
            if vid > _MAX_ID:
                raise GraphConstructionError("vertex table overflow (2^32 ids)")
            self._ids[value] = vid
            self._values.append(value)
        return vid

    def id_of(self, value: Hashable) -> int | None:
        """Id of ``value`` or None when it was never interned."""
        return self._ids.get(value)

    def value_of(self, vid: int) -> Hashable:
        return self._values[vid]

    @property
    def values(self) -> list[Hashable]:
        """All interned values in id (= insertion) order. Copy-safe."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"VertexTable({len(self._values)} vertices)"

    def typed_order(self, ids: np.ndarray | None = None) -> list[Hashable]:
        """Values of ``ids`` (default: all) in typed deterministic order.

        This is the ordering contract for incidence-matrix columns:
        numeric vertices (time-window indices) sort numerically, strings
        lexicographically, numbers before strings — stable across
        rebuilds regardless of insertion history.
        """
        if ids is None:
            values: list[Hashable] = self._values
        else:
            values = [self._values[int(i)] for i in ids]
        return sorted(values, key=_type_rank)

    # -- persistence -----------------------------------------------------

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(string form, type codes) arrays — a pickle-free encoding.

        Type code 0 = int, 1 = str. Other value types are not
        persistable (nothing in the pipeline produces them).
        """
        values = self._values
        kinds = set(map(type, values))
        if len(kinds) == 1 and kinds <= _TYPE_CODES.keys():
            codes = np.full(len(values), _TYPE_CODES[kinds.pop()], np.int8)
        else:  # empty, mixed, or holding int/str subclasses
            values, codes = _normalise_for_arrays(values)
        # A unicode array round-trips through npz without pickle; numpy
        # writes each int in its decimal form.
        return np.array(values, dtype=np.str_), codes

    @classmethod
    def from_arrays(
        cls, strings: np.ndarray, codes: np.ndarray
    ) -> "VertexTable":
        """Rebuild a table written by :meth:`to_arrays`.

        Raises :class:`GraphConstructionError` on a corrupt table: columns
        of different lengths, a type code other than 0/1, an int column
        entry that does not parse, or a value listed twice (which would
        shift every later id).
        """
        strings = np.asarray(strings, dtype=np.str_)
        codes = np.asarray(codes)
        if strings.ndim != 1 or strings.shape != codes.shape:
            raise GraphConstructionError(
                f"vertex table columns disagree: {strings.shape} strings, "
                f"{codes.shape} type codes"
            )
        if len(strings) > _MAX_ID + 1:
            raise GraphConstructionError("vertex table overflow (2^32 ids)")
        is_int = codes == 0
        if not np.all(is_int | (codes == 1)):
            raise GraphConstructionError(
                "vertex table type codes must be 0 (int) or 1 (str)"
            )
        values: list[Any] = strings.tolist()
        try:
            if is_int.all():
                values = list(map(int, values))
            elif is_int.any():
                values = [
                    int(text) if flag else text
                    for text, flag in zip(values, is_int.tolist())
                ]
        except ValueError as exc:
            raise GraphConstructionError(
                f"vertex table int entry does not parse: {exc}"
            ) from None
        ids: dict[Hashable, int] = dict(zip(values, range(len(values))))
        if len(ids) != len(values):
            raise GraphConstructionError(
                f"vertex table lists {len(values) - len(ids)} value(s) twice"
            )
        table = cls()
        table._ids = ids
        table._values = values
        return table


#: Type code of each exactly-typed persistable vertex value.
_TYPE_CODES: dict[type, int] = {int: 0, str: 1}


def _normalise_for_arrays(
    values: list[Hashable],
) -> tuple[list[Hashable], np.ndarray]:
    """Per-value encoding for tables holding int/str subclasses.

    numpy integers and int subclasses are written as plain ints; bools
    and every type other than int and str are rejected.
    """
    plain: list[Hashable] = []
    codes: list[int] = []
    for value in values:
        if isinstance(value, (int, np.integer)) and not isinstance(
            value, bool
        ):
            plain.append(int(value))
            codes.append(0)
        elif isinstance(value, str):
            plain.append(value)
            codes.append(1)
        else:
            raise GraphConstructionError(
                f"cannot persist vertex of type {type(value).__name__}"
            )
    return plain, np.array(codes, dtype=np.int8)


class EdgeList:
    """Append-only columnar (left_id, right_id) edge buffer.

    :meth:`extend_raw` / :meth:`append_raw` put edges in the buffers
    unchecked (duplicates allowed); the next structural query triggers
    :meth:`compact`, a single vectorized dedup pass, so a builder pays
    no per-edge hash lookup.

    The CSR index (neighbors grouped by left id) is built lazily and
    cached until the next append dirties it.
    """

    __slots__ = (
        "_left",
        "_right",
        "_n",
        "_deduped",
        "_left_order",
        "_csr_order",
        "_csr_indptr",
        "_right_used",
    )

    def __init__(self) -> None:
        self._left = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._right = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n = 0
        #: Buffer known duplicate-free (raw appends clear this).
        self._deduped = True
        #: Distinct left ids in first-occurrence order; None = unknown.
        self._left_order: list[int] | None = []
        self._csr_order: np.ndarray | None = None
        self._csr_indptr: np.ndarray | None = None
        self._right_used: np.ndarray | None = None

    # -- appends ---------------------------------------------------------

    def _grow_to(self, needed: int) -> None:
        if needed <= len(self._left):
            return
        capacity = max(len(self._left), _INITIAL_CAPACITY)
        while capacity < needed:
            capacity *= 2
        self._left = np.resize(self._left, capacity)
        self._right = np.resize(self._right, capacity)

    def _invalidate_caches(self) -> None:
        self._csr_order = None
        self._csr_indptr = None
        self._right_used = None

    def append_raw(self, left: int, right: int) -> None:
        """Append one edge without dedup (compacted later)."""
        self._grow_to(self._n + 1)
        self._left[self._n] = left
        self._right[self._n] = right
        self._n += 1
        self._deduped = False
        self._left_order = None
        self._invalidate_caches()

    def extend_raw(
        self, lefts: Iterable[int], rights: Iterable[int]
    ) -> None:
        """Bulk raw append of two equal-length id sequences."""
        left_arr = np.asarray(lefts, dtype=np.int64)
        right_arr = np.asarray(rights, dtype=np.int64)
        if left_arr.shape != right_arr.shape or left_arr.ndim != 1:
            raise GraphConstructionError(
                "extend_raw needs two equal-length 1-d id sequences"
            )
        if left_arr.size == 0:
            return
        self._grow_to(self._n + left_arr.size)
        self._left[self._n : self._n + left_arr.size] = left_arr
        self._right[self._n : self._n + right_arr.size] = right_arr
        self._n += left_arr.size
        self._deduped = False
        self._left_order = None
        self._invalidate_caches()

    # -- compaction ------------------------------------------------------

    def compact(self) -> None:
        """Vectorized dedup of the raw buffer, first-occurrence order.

        One ``np.unique`` pass over packed 64-bit keys; idempotent and a
        no-op when the buffer is already duplicate-free.
        """
        if self._deduped:
            return
        lefts = self._left[: self._n]
        rights = self._right[: self._n]
        packed = (lefts.astype(np.uint64) << _PACK_SHIFT) | rights.astype(
            np.uint64
        )
        __, first = np.unique(packed, return_index=True)
        if first.size != self._n:
            first.sort()
            lefts = lefts[first]
            rights = rights[first]
            self._n = lefts.size
            self._left = lefts.copy()
            self._right = rights.copy()
        self._deduped = True
        self._invalidate_caches()

    @classmethod
    def _from_trusted(cls, lefts: np.ndarray, rights: np.ndarray) -> "EdgeList":
        """Adopt columns already known to be duplicate-free (no checks)."""
        edges = cls()
        edges._left = np.ascontiguousarray(lefts, dtype=np.int64)
        edges._right = np.ascontiguousarray(rights, dtype=np.int64)
        edges._n = edges._left.size
        edges._deduped = True
        edges._left_order = None
        return edges

    # -- counters & columns ----------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of distinct edges — O(1) once compacted."""
        if not self._deduped:
            self.compact()
        return self._n

    def left_count(self) -> int:
        """Number of distinct left vertices with >= 1 edge."""
        return len(self.left_ids_ordered())

    def left_ids_ordered(self) -> list[int]:
        """Distinct left ids in first-occurrence order."""
        if self._left_order is None:
            self.compact()
            lefts = self._left[: self._n]
            __, left_first = np.unique(lefts, return_index=True)
            left_first.sort()
            self._left_order = [int(i) for i in lefts[left_first]]
        return list(self._left_order)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The deduplicated (lefts, rights) id columns (read-only views)."""
        if not self._deduped:
            self.compact()
        lefts = self._left[: self._n]
        rights = self._right[: self._n]
        lefts.flags.writeable = False
        rights.flags.writeable = False
        return lefts, rights

    def right_ids_used(self) -> np.ndarray:
        """Sorted distinct right ids that appear in at least one edge."""
        if self._right_used is None:
            __, rights = self.columns()
            self._right_used = np.unique(rights)
        return self._right_used

    def left_degrees(self, table_size: int) -> np.ndarray:
        """Degree per left id, as an array of length ``table_size``."""
        lefts, __ = self.columns()
        return np.bincount(lefts, minlength=table_size)

    # -- CSR index -------------------------------------------------------

    def _ensure_csr(self) -> None:
        if self._csr_order is not None:
            return
        lefts, __ = self.columns()
        if lefts.size:
            order = np.argsort(lefts, kind="stable")
            counts = np.bincount(lefts)
            indptr = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        else:
            order = np.empty(0, dtype=np.int64)
            indptr = np.zeros(1, dtype=np.int64)
        self._csr_order = order
        self._csr_indptr = indptr

    def neighbors_of_left(self, left: int) -> np.ndarray:
        """Right ids adjacent to ``left`` — O(degree) via the CSR index."""
        self._ensure_csr()
        assert self._csr_order is not None and self._csr_indptr is not None
        if left < 0 or left >= self._csr_indptr.size - 1:
            return np.empty(0, dtype=np.int64)
        start = self._csr_indptr[left]
        stop = self._csr_indptr[left + 1]
        __, rights = self.columns()
        return rights[self._csr_order[start:stop]]

    def degree_of_left(self, left: int) -> int:
        self._ensure_csr()
        assert self._csr_indptr is not None
        if left < 0 or left >= self._csr_indptr.size - 1:
            return 0
        return int(self._csr_indptr[left + 1] - self._csr_indptr[left])

    def copy(self) -> "EdgeList":
        """Independent copy sharing no buffers (compacted)."""
        lefts, rights = self.columns()
        return EdgeList._from_trusted(lefts.copy(), rights.copy())

    def __len__(self) -> int:
        return self.edge_count

    def __repr__(self) -> str:
        state = "compact" if self._deduped else "raw"
        return f"EdgeList({self._n} buffered edges, {state})"
