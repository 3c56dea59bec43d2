"""Bipartite graphs between domains and hosts / IPs / time windows.

All three graph builders aggregate hostnames to e2LDs (pruning rule 3 of
the paper is applied at construction time, since every later stage works
at e2LD granularity) and skip syntactically invalid or bare-suffix names.

Graphs are stored columnar: a :class:`~repro.graphs.core.VertexTable`
interner per vertex side plus an array-backed
:class:`~repro.graphs.core.EdgeList` of ``(domain_id, right_id)`` pairs.
The old ``dict[str, set]`` surface survives as a read-only view
(:attr:`BipartiteGraph.adjacency`), so callers keep working while
pruning, projection, and persistence operate on the id arrays directly.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import Hashable, Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.dns.dhcp import HostIdentityResolver
from repro.dns.logfmt import TraceColumns
from repro.dns.names import is_valid_domain_name
from repro.dns.psl import PublicSuffixList, default_psl
from repro.dns.types import DnsQuery, DnsResponse
from repro.errors import DomainNameError, GraphConstructionError
from repro.graphs.core import EdgeList, VertexTable

DEFAULT_TIME_WINDOW_SECONDS = 60.0  # the paper's one-minute windows

#: Cache sentinel for "qname seen, not aggregatable" (ids are >= 0).
_NO_DOMAIN = -1


class AdjacencyView(Mapping):
    """Read-only ``domain -> set(right vertices)`` view over the columns.

    Materializes neighbor sets on access; iteration order is the
    domains' first-edge order, matching the old dict's insertion order.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "BipartiteGraph") -> None:
        self._graph = graph

    def __getitem__(self, domain: str) -> set[Hashable]:
        graph = self._graph
        vid = graph.left.id_of(domain)
        if vid is None:
            raise KeyError(domain)
        ids = graph.edges.neighbors_of_left(vid)
        if ids.size == 0:
            raise KeyError(domain)
        value_of = graph.right.value_of
        return {value_of(int(i)) for i in ids}

    def __contains__(self, domain: object) -> bool:
        graph = self._graph
        vid = graph.left.id_of(domain)  # type: ignore[arg-type]
        return vid is not None and graph.edges.degree_of_left(vid) > 0

    def __iter__(self) -> Iterator[str]:
        graph = self._graph
        value_of = graph.left.value_of
        return (str(value_of(i)) for i in graph.edges.left_ids_ordered())

    def __len__(self) -> int:
        return self._graph.edges.left_count()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AdjacencyView):
            other = dict(other.items())
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class BipartiteGraph:
    """A domain-vs-X bipartite graph over an interned columnar store.

    Attributes:
        kind: ``"host"``, ``"ip"``, or ``"time"`` — which right-hand
            vertex set this graph uses.
        left: Interner for the domain (left) vertex set. Multiple graphs
            may share one table so their domain ids agree.
        right: Interner for the right-hand vertex set.
        edges: The columnar ``(domain_id, right_id)`` edge store.
    """

    __slots__ = ("kind", "left", "right", "edges")

    def __init__(
        self,
        kind: str,
        *,
        left: VertexTable | None = None,
        right: VertexTable | None = None,
        edges: EdgeList | None = None,
    ) -> None:
        self.kind = kind
        self.left = left if left is not None else VertexTable()
        self.right = right if right is not None else VertexTable()
        self.edges = edges if edges is not None else EdgeList()

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(kind={self.kind!r}, "
            f"domains={self.domain_count}, edges={self.edge_count})"
        )

    def add_edge(self, domain: str, right_vertex: Hashable) -> None:
        self.edges.append_raw(
            self.left.intern(domain), self.right.intern(right_vertex)
        )

    @property
    def adjacency(self) -> AdjacencyView:
        """The legacy ``dict[str, set]``-shaped read-only view."""
        return AdjacencyView(self)

    @property
    def domains(self) -> list[str]:
        value_of = self.left.value_of
        return [str(value_of(i)) for i in self.edges.left_ids_ordered()]

    @property
    def domain_count(self) -> int:
        return self.edges.left_count()

    @property
    def right_vertices(self) -> set[Hashable]:
        value_of = self.right.value_of
        return {value_of(int(i)) for i in self.edges.right_ids_used()}

    @property
    def edge_count(self) -> int:
        return self.edges.edge_count

    def degree(self, domain: str) -> int:
        vid = self.left.id_of(domain)
        return 0 if vid is None else self.edges.degree_of_left(vid)

    def neighbors(self, domain: str) -> set[Hashable]:
        vid = self.left.id_of(domain)
        if vid is None:
            return set()
        value_of = self.right.value_of
        return {value_of(int(i)) for i in self.edges.neighbors_of_left(vid)}

    def restrict_to(self, domains: Iterable[str]) -> "BipartiteGraph":
        """A copy containing only the given domains.

        A vectorized mask over the left-id column; the vertex tables are
        shared with the original (they are append-only, so ids stay
        valid), only the edge arrays are filtered.
        """
        keep = np.zeros(max(len(self.left), 1), dtype=bool)
        for domain in domains:
            vid = self.left.id_of(domain)
            if vid is not None:
                keep[vid] = True
        lefts, rights = self.edges.columns()
        mask = keep[lefts]
        edges = EdgeList._from_trusted(lefts[mask], rights[mask])
        return BipartiteGraph(
            kind=self.kind, left=self.left, right=self.right, edges=edges
        )

    def incidence_matrix(
        self, domain_order: list[str] | None = None
    ) -> tuple[sparse.csr_matrix, list[str], list[Hashable]]:
        """Binary CSR incidence matrix (domains x right vertices).

        Returns (matrix, domain_order, right_vertex_order). Domains absent
        from the graph produce all-zero rows when ``domain_order`` is
        supplied explicitly. Right vertices follow the interner's typed
        deterministic order (numbers numerically, then strings
        lexicographically) — stable across rebuilds, unlike the old
        ``sorted(key=repr)`` which interleaved mixed int/str keys by
        their repr text.
        """
        lefts, rights = self.edges.columns()
        if domain_order is None:
            domain_order = sorted(self.domains)
        right_order = self.right.typed_order(self.edges.right_ids_used())
        col_of = np.full(max(len(self.right), 1), -1, dtype=np.int64)
        for col, vertex in enumerate(right_order):
            col_of[self.right.id_of(vertex)] = col
        row_of = np.full(max(len(self.left), 1), -1, dtype=np.int64)
        for row, domain in enumerate(domain_order):
            vid = self.left.id_of(domain)
            if vid is not None:
                row_of[vid] = row
        rows = row_of[lefts]
        cols = col_of[rights]
        mask = rows >= 0
        matrix = sparse.csr_matrix(
            (
                np.ones(int(mask.sum()), dtype=np.float64),
                (rows[mask], cols[mask]),
            ),
            shape=(len(domain_order), len(right_order)),
        )
        return matrix, list(domain_order), right_order

    def _incidence_csr(
        self, domain_order: list[str] | None = None
    ) -> tuple[sparse.csr_matrix, list[str]]:
        """Incidence matrix with *arbitrary* column order (projection path).

        One-mode projection sums the right side out, so columns need no
        deterministic ordering — right ids compress to columns via one
        ``searchsorted``, skipping the typed sort that
        :meth:`incidence_matrix` pays for its public contract.
        """
        lefts, rights = self.edges.columns()
        used = self.edges.right_ids_used()
        cols = np.searchsorted(used, rights)
        row_of = np.full(max(len(self.left), 1), -1, dtype=np.int64)
        if domain_order is None:
            ids = np.asarray(self.edges.left_ids_ordered(), dtype=np.int64)
            values = np.asarray(self.domains)
            order = np.argsort(values, kind="stable")
            row_of[ids[order]] = np.arange(ids.size)
            domain_order = values[order].tolist()
        else:
            id_of = self.left.id_of
            for row, domain in enumerate(domain_order):
                vid = id_of(domain)
                if vid is not None:
                    row_of[vid] = row
        rows = row_of[lefts]
        mask = rows >= 0
        matrix = sparse.csr_matrix(
            (
                np.ones(int(mask.sum()), dtype=np.float64),
                (rows[mask], cols[mask]),
            ),
            shape=(len(domain_order), int(used.size)),
        )
        return matrix, list(domain_order)


def _e2ld_or_none(qname: str, psl: PublicSuffixList) -> str | None:
    """e2LD of a query name, or None when it cannot be aggregated."""
    if not is_valid_domain_name(qname):
        return None
    try:
        return psl.registered_domain(qname)
    except DomainNameError:
        return None


#: Per-domain-table qname -> domain-id caches. Keyed weakly by the
#: VertexTable so that the PSL walk for a given query name runs once per
#: *table*, not once per builder — the pipeline threads one shared table
#: through all three views, making HDBG/DTBG/DIBG share aggregation work.
_QNAME_CACHES: "weakref.WeakKeyDictionary[VertexTable, tuple[PublicSuffixList, dict[str, int]]]" = (
    weakref.WeakKeyDictionary()
)


def _qname_cache_for(
    domains: VertexTable, psl: PublicSuffixList
) -> dict[str, int]:
    entry = _QNAME_CACHES.get(domains)
    if entry is None or entry[0] is not psl:
        cache: dict[str, int] = {}
        _QNAME_CACHES[domains] = (psl, cache)
        return cache
    return entry[1]


def _intern_qnames(
    qnames: list[str], psl: PublicSuffixList, domains: VertexTable
) -> np.ndarray:
    """Domain id per query name (``_NO_DOMAIN`` where not aggregatable).

    Dict-factorized: the PSL walk and interning run once per *unique*
    name (first occurrence); repeats cost one dict probe inside a
    ``np.fromiter`` generator, which beats both a full Python loop body
    and string-sorting ``np.unique`` at every trace size we benchmark.
    """
    cache = _qname_cache_for(domains, psl)
    get = cache.get
    intern_domain = domains.intern

    def miss(name: str) -> int:
        e2ld = _e2ld_or_none(name, psl)
        did = cache[name] = (
            _NO_DOMAIN if e2ld is None else intern_domain(e2ld)
        )
        return did

    return np.fromiter(
        (
            did if (did := get(name)) is not None else miss(name)
            for name in qnames
        ),
        dtype=np.int64,
        count=len(qnames),
    )


def _intern_column(values: list, table: VertexTable) -> np.ndarray:
    """Intern a per-record value column, one table hit per unique value."""
    cache: dict[Hashable, int] = {}
    get = cache.get
    intern = table.intern

    def miss(value: Hashable) -> int:
        vid = cache[value] = intern(value)
        return vid

    return np.fromiter(
        (
            vid if (vid := get(value)) is not None else miss(value)
            for value in values
        ),
        dtype=np.int64,
        count=len(values),
    )


def fold_columns_into_graphs(
    columns: TraceColumns,
    host_graph: BipartiteGraph | None,
    domain_ip: BipartiteGraph | None,
    domain_time: BipartiteGraph | None,
    identity: HostIdentityResolver | None = None,
    window_seconds: float = DEFAULT_TIME_WINDOW_SECONDS,
    psl: PublicSuffixList | None = None,
) -> int:
    """Fold one batch of trace columns into existing bipartite graphs.

    The one graph fold: chunked ingestion hands it each
    :class:`~repro.dns.logfmt.TraceColumns` batch the reader parsed, and
    the ``build_*`` helpers hand it the columns of their record lists.
    Query names, hosts and addresses are dict-factorized (PSL walk and
    interning once per distinct value), time windows are interned in
    sorted order, and each graph gets one bulk ``extend_raw``.
    Deduplication is deferred — edges accumulate raw and the next
    structural query (or an explicit ``compact()``) folds them, so a
    million-record batch pays one bulk append per graph, not a hash
    probe per record.

    A graph passed as ``None`` is not built. The others must share one
    left (domain) :class:`VertexTable`, mirroring how the pipeline
    threads a single domain interner through all views. Domains are
    interned from query names first, then from answer names, so a
    batch's domain ids follow first occurrence in that order. Returns
    the number of records the columns cover.
    """
    if window_seconds <= 0:
        raise GraphConstructionError("window_seconds must be positive")
    graphs = [g for g in (host_graph, domain_ip, domain_time) if g is not None]
    if not graphs:
        return len(columns)
    domains = graphs[0].left
    if any(graph.left is not domains for graph in graphs):
        raise GraphConstructionError(
            "fold_columns_into_graphs needs graphs sharing one domain table"
        )
    if psl is None:
        psl = default_psl()

    qnames = columns.query_qnames
    if qnames and (host_graph is not None or domain_time is not None):
        dids = _intern_qnames(qnames, psl, domains)
        valid = dids >= 0
        if host_graph is not None:
            hosts: list[Hashable]
            if identity is not None:
                resolve = identity.resolve_or_ip
                hosts = [
                    resolve(source, stamp)
                    for source, stamp in zip(
                        columns.query_sources, columns.query_stamps
                    )
                ]
            else:
                hosts = list(columns.query_sources)
            hids = _intern_column(hosts, host_graph.right)
            host_graph.edges.extend_raw(dids[valid], hids[valid])
        if domain_time is not None:
            stamps = np.asarray(columns.query_stamps, dtype=np.float64)
            windows = np.floor_divide(stamps, window_seconds).astype(np.int64)
            intern_window = domain_time.right.intern
            unique, inverse = np.unique(windows, return_inverse=True)
            per_unique = np.fromiter(
                (intern_window(int(w)) for w in unique),
                dtype=np.int64,
                count=unique.size,
            )
            wids = per_unique[inverse]
            domain_time.edges.extend_raw(dids[valid], wids[valid])

    if columns.answer_qnames and domain_ip is not None:
        answer_dids = _intern_qnames(columns.answer_qnames, psl, domains)
        iids = _intern_column(columns.answer_values, domain_ip.right)
        valid = answer_dids >= 0
        domain_ip.edges.extend_raw(answer_dids[valid], iids[valid])
    return len(columns)


def _build_graphs(
    records: Iterable[DnsQuery | DnsResponse],
    kinds: tuple[str, ...],
    identity: HostIdentityResolver | None,
    window_seconds: float,
    psl: PublicSuffixList | None,
    domains: VertexTable | None,
) -> dict[str, BipartiteGraph]:
    """Compacted graphs of the given ``kinds``, folded from ``records``."""
    if domains is None:
        domains = VertexTable()
    graphs = {kind: BipartiteGraph(kind=kind, left=domains) for kind in kinds}
    fold_columns_into_graphs(
        TraceColumns.from_records(records),
        graphs.get("host"),
        graphs.get("ip"),
        graphs.get("time"),
        identity=identity,
        window_seconds=window_seconds,
        psl=psl,
    )
    for graph in graphs.values():
        graph.edges.compact()
    return graphs


def build_query_graphs(
    queries: Iterable[DnsQuery],
    identity: HostIdentityResolver | None = None,
    window_seconds: float = DEFAULT_TIME_WINDOW_SECONDS,
    psl: PublicSuffixList | None = None,
    *,
    domains: VertexTable | None = None,
) -> tuple[BipartiteGraph, BipartiteGraph]:
    """Build HDBG and DTBG together in a single pass over the queries.

    Both graphs share the qname aggregation cache and (optionally) one
    ``domains`` interner, halving the per-record work compared to
    calling the two single-graph builders separately.
    """
    graphs = _build_graphs(
        queries, ("host", "time"), identity, window_seconds, psl, domains
    )
    return graphs["host"], graphs["time"]


def build_host_domain_graph(
    queries: Iterable[DnsQuery],
    identity: HostIdentityResolver | None = None,
    psl: PublicSuffixList | None = None,
    *,
    domains: VertexTable | None = None,
) -> BipartiteGraph:
    """Host-domain interaction graph HDBG (paper section 4.1.1).

    An edge (h, d) exists when host h issued at least one query for a name
    in domain d. When a DHCP ``identity`` resolver is supplied, hosts are
    identified by MAC address (stable under IP churn); otherwise by source
    IP.
    """
    return _build_graphs(
        queries, ("host",), identity, DEFAULT_TIME_WINDOW_SECONDS, psl,
        domains,
    )["host"]


def build_domain_ip_graph(
    responses: Iterable[DnsResponse],
    psl: PublicSuffixList | None = None,
    *,
    domains: VertexTable | None = None,
) -> BipartiteGraph:
    """Domain-IP mapping graph DIBG (paper section 4.1.2).

    An edge (d, ip) exists when some hostname of domain d resolved to ip.
    NXDOMAIN responses contribute nothing.
    """
    return _build_graphs(
        responses, ("ip",), None, DEFAULT_TIME_WINDOW_SECONDS, psl, domains
    )["ip"]


def build_domain_time_graph(
    queries: Iterable[DnsQuery],
    window_seconds: float = DEFAULT_TIME_WINDOW_SECONDS,
    psl: PublicSuffixList | None = None,
    *,
    domains: VertexTable | None = None,
) -> BipartiteGraph:
    """Domain-time association graph DTBG (paper section 4.1.3).

    An edge (d, t) exists when domain d was queried at least once during
    time window t. The paper's window is one minute.
    """
    return _build_graphs(
        queries, ("time",), None, window_seconds, psl, domains
    )["time"]
