"""One-mode projection of bipartite graphs onto the domain vertex set.

Projecting a domain-vs-X bipartite graph yields a weighted domain-domain
similarity graph whose edge weights are Jaccard indices over the domains'
X-neighborhoods (paper equations 1-3):

    sim(d_i, d_j) = |N(d_i) ∩ N(d_j)| / |N(d_i) ∪ N(d_j)|

Computing all-pairs Jaccard naively is O(|D|^2 · degree). Instead the
intersection counts come from one sparse matrix product M·Mᵀ (M is the
binary incidence matrix), evaluated in row blocks so memory stays bounded
even when the co-occurrence structure is dense (the temporal graph's
minute windows are shared by many domains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy import sparse

from repro.errors import GraphConstructionError
from repro.graphs.bipartite import BipartiteGraph


@dataclass(slots=True)
class SimilarityGraph:
    """A weighted, undirected domain-domain similarity graph.

    Edges are stored once with ``row < col``; weights lie in (0, 1].
    Neighborhood queries go through a lazily built CSR index (the edge
    arrays are immutable once constructed), making
    :meth:`weight_between` O(log degree) and :meth:`neighbors_of`
    O(degree) instead of full-edge-array scans.
    """

    kind: str
    domains: list[str]
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    domain_index: dict[str, int] = field(default_factory=dict)
    _csr_indptr: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _csr_neighbors: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _csr_weights: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.domain_index:
            self.domain_index = {d: i for i, d in enumerate(self.domains)}

    @property
    def node_count(self) -> int:
        return len(self.domains)

    @property
    def edge_count(self) -> int:
        return int(self.rows.size)

    def _ensure_index(self) -> None:
        """Build the symmetric CSR neighbor index once, on first use."""
        if self._csr_indptr is not None:
            return
        n = self.node_count
        src = np.concatenate([self.rows, self.cols]).astype(np.int64)
        dst = np.concatenate([self.cols, self.rows]).astype(np.int64)
        wgt = np.concatenate([self.weights, self.weights]).astype(np.float64)
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._csr_indptr = indptr
        self._csr_neighbors = dst
        self._csr_weights = wgt

    def weight_between(self, domain_a: str, domain_b: str) -> float:
        """Similarity between two domains (0.0 when no edge)."""
        index_a = self.domain_index.get(domain_a)
        index_b = self.domain_index.get(domain_b)
        if index_a is None or index_b is None or index_a == index_b:
            return 0.0
        self._ensure_index()
        assert self._csr_indptr is not None
        assert self._csr_neighbors is not None
        assert self._csr_weights is not None
        start = self._csr_indptr[index_a]
        stop = self._csr_indptr[index_a + 1]
        hood = self._csr_neighbors[start:stop]
        position = int(np.searchsorted(hood, index_b))
        if position < hood.size and int(hood[position]) == index_b:
            return float(self._csr_weights[start + position])
        return 0.0

    def neighbors_of(self, domain: str) -> list[tuple[str, float]]:
        """All (neighbor, weight) pairs of ``domain``."""
        index = self.domain_index.get(domain)
        if index is None:
            return []
        self._ensure_index()
        assert self._csr_indptr is not None
        assert self._csr_neighbors is not None
        assert self._csr_weights is not None
        start = self._csr_indptr[index]
        stop = self._csr_indptr[index + 1]
        return [
            (self.domains[int(other)], float(weight))
            for other, weight in zip(
                self._csr_neighbors[start:stop],
                self._csr_weights[start:stop],
            )
        ]

    def iter_edges(self) -> Iterator[tuple[str, str, float]]:
        for row, col, weight in zip(self.rows, self.cols, self.weights):
            yield self.domains[int(row)], self.domains[int(col)], float(weight)

    def degree_array(self) -> np.ndarray:
        """Weighted degree per node, aligned with :attr:`domains`."""
        degrees = np.zeros(self.node_count)
        np.add.at(degrees, self.rows, self.weights)
        np.add.at(degrees, self.cols, self.weights)
        return degrees


def project_to_similarity(
    graph: BipartiteGraph,
    domain_order: list[str] | None = None,
    min_similarity: float = 1e-9,
    block_size: int = 512,
) -> SimilarityGraph:
    """One-mode projection with Jaccard weights (paper section 4.2).

    Args:
        graph: The bipartite graph to project.
        domain_order: Optional fixed vertex ordering, so the three
            similarity views share indices; defaults to the graph's sorted
            domain set.
        min_similarity: Edges below this Jaccard value are discarded
            (``1e-9`` keeps every nonzero overlap, matching the paper's
            "full similarity graphs").
        block_size: Row-block height for the sparse matrix product.

    Returns:
        The weighted similarity graph over ``domain_order``.
    """
    if min_similarity < 0:
        raise GraphConstructionError("min_similarity must be non-negative")
    matrix, order = graph._incidence_csr(domain_order)
    n = matrix.shape[0]
    degrees = np.asarray(matrix.sum(axis=1)).ravel()

    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    weights_out: list[np.ndarray] = []
    transposed = matrix.T.tocsc()
    for block_start in range(0, n, block_size):
        block_end = min(block_start + block_size, n)
        if block_start == 0 and block_end == n:
            block = matrix  # single block: skip the row-slice copy
        else:
            block = matrix[block_start:block_end]
        # Intersection counts for this row block against all domains.
        intersections = (block @ transposed).tocoo()
        if intersections.nnz == 0:
            continue
        block_rows = intersections.row + block_start
        cols = intersections.col
        inter = intersections.data
        # Keep strictly upper-triangular pairs (undirected, no diagonal).
        keep = block_rows < cols
        block_rows, cols, inter = block_rows[keep], cols[keep], inter[keep]
        if block_rows.size == 0:
            continue
        union = degrees[block_rows] + degrees[cols] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            jaccard = np.where(union > 0, inter / union, 0.0)
        keep = jaccard >= max(min_similarity, 1e-12)
        rows_out.append(block_rows[keep])
        cols_out.append(cols[keep])
        weights_out.append(jaccard[keep])

    if rows_out:
        rows = np.concatenate(rows_out).astype(np.int64)
        cols = np.concatenate(cols_out).astype(np.int64)
        weights = np.concatenate(weights_out)
        # Canonical (row, col) edge order. The sparse product enumerates
        # columns in an order that depends on the incidence matrix's
        # column permutation — i.e. on the right-hand vertex *intern*
        # order, which differs between a monolithic build and a chunked
        # one. Sorting here makes the projection a pure function of the
        # graph's edge set, so everything downstream (LINE edge sampling,
        # degree accumulation) is byte-identical across ingestion modes.
        order_index = np.lexsort((cols, rows))
        rows = rows[order_index]
        cols = cols[order_index]
        weights = weights[order_index]
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        weights = np.empty(0)
    return SimilarityGraph(
        kind=graph.kind, domains=list(order), rows=rows, cols=cols, weights=weights
    )
