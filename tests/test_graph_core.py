"""Unit tests for the interned columnar graph core (repro.graphs.core).

Covers the VertexTable interner, the array-backed EdgeList (raw appends
and compaction on read), the read-only AdjacencyView, the typed
deterministic right-vertex ordering, bipartite .npz persistence, and a
golden-equivalence check of the vectorized batch builders against a
straightforward dict-of-sets reference implementation on the fixed-seed
simulated trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.persistence import decode_bipartite_graph, encode_bipartite_graph
from repro.dns.names import is_valid_domain_name
from repro.dns.psl import default_psl
from repro.errors import DomainNameError, GraphConstructionError
from repro.graphs import (
    AdjacencyView,
    BipartiteGraph,
    EdgeList,
    VertexTable,
    build_domain_ip_graph,
    build_query_graphs,
)


class TestVertexTable:
    def test_intern_assigns_dense_ids_in_first_seen_order(self):
        table = VertexTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0  # idempotent
        assert table.values == ["a", "b"]
        assert len(table) == 2

    def test_id_of_and_value_of(self):
        table = VertexTable(["x", "y"])
        assert table.id_of("y") == 1
        assert table.id_of("missing") is None
        assert table.value_of(0) == "x"

    def test_contains_and_iter(self):
        table = VertexTable(["a", "b"])
        assert "a" in table and "zzz" not in table
        assert list(table) == ["a", "b"]

    def test_typed_order_numbers_before_strings(self):
        table = VertexTable([10, "b", 2, "a"])
        assert table.typed_order() == [2, 10, "a", "b"]

    def test_typed_order_subset(self):
        table = VertexTable(["c", "a", "b"])
        ids = [table.id_of("c"), table.id_of("a")]
        assert table.typed_order(ids) == ["a", "c"]

    def test_typed_order_is_rebuild_stable(self):
        # The repr-based ordering this replaces depended on insertion
        # history; the typed order must not.
        one = VertexTable([3, "a", 1])
        two = VertexTable(["a", 1, 3])
        assert one.typed_order() == two.typed_order()

    def test_array_round_trip_mixed_types(self):
        table = VertexTable(["host-1", 42, "host-2", 7])
        values, codes = table.to_arrays()
        rebuilt = VertexTable.from_arrays(values, codes)
        assert rebuilt.values == table.values
        assert rebuilt.id_of(42) == table.id_of(42)

    def test_numpy_ints_persist_as_plain_ints(self):
        table = VertexTable([np.int64(5), "a", np.int32(-2)])
        values, codes = table.to_arrays()
        assert values.tolist() == ["5", "a", "-2"]
        assert codes.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("value", [True, 1.5, ("a", 1), None])
    def test_unpersistable_vertex_rejected(self, value):
        with pytest.raises(GraphConstructionError, match="cannot persist"):
            VertexTable(["a", value]).to_arrays()


def _reference_to_arrays(values):
    """The per-value encoding :meth:`VertexTable.to_arrays` must match."""
    strings = [str(v) for v in values]
    codes = [0 if isinstance(v, int) else 1 for v in values]
    return strings, codes


# numpy unicode arrays drop trailing NULs, so names never carry one.
_names = st.text(
    alphabet=st.characters(exclude_characters="\x00"), max_size=12
)
_vertices = st.lists(
    st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70),
        _names,
        st.integers(min_value=-50, max_value=50).map(str),  # "42" beside 42
        st.sampled_from(["bücher.de", "пример.рф", "例子.中国", ""]),
    ),
    max_size=40,
)


class TestVertexTableArrays:
    @settings(max_examples=150, deadline=None)
    @given(_vertices)
    def test_round_trip_matches_per_value_reference(self, raw):
        table = VertexTable(raw)  # per-value interning, duplicates folded
        strings, codes = table.to_arrays()
        assert (strings.tolist(), codes.tolist()) == _reference_to_arrays(
            table.values
        )
        assert codes.dtype == np.int8
        rebuilt = VertexTable.from_arrays(strings, codes)
        assert [(type(v), v) for v in rebuilt.values] == [
            (type(v), v) for v in table.values
        ]
        for value in raw:
            assert rebuilt.id_of(value) == table.id_of(value)
            assert type(rebuilt.value_of(rebuilt.id_of(value))) is type(value)

    def test_empty_table(self):
        strings, codes = VertexTable().to_arrays()
        assert strings.shape == codes.shape == (0,)
        rebuilt = VertexTable.from_arrays(strings, codes)
        assert len(rebuilt) == 0 and rebuilt.values == []
        assert rebuilt.intern("a") == 0

    def test_rebuilt_table_keeps_interning(self):
        rebuilt = VertexTable.from_arrays(*VertexTable(["a", 3]).to_arrays())
        assert rebuilt.intern(3) == 1
        assert rebuilt.intern("b") == 2
        assert rebuilt.values == ["a", 3, "b"]

    def test_duplicate_value_rejected(self):
        # "a" twice would shift every later id: edges would point at
        # the wrong vertices.
        strings = np.array(["a", "b", "a", "c"])
        codes = np.ones(4, dtype=np.int8)
        with pytest.raises(GraphConstructionError, match="twice"):
            VertexTable.from_arrays(strings, codes)

    def test_duplicate_int_rejected(self):
        strings = np.array(["7", "07"])
        codes = np.zeros(2, dtype=np.int8)
        with pytest.raises(GraphConstructionError, match="twice"):
            VertexTable.from_arrays(strings, codes)

    @pytest.mark.parametrize("bad", [2, -1, 9])
    def test_unknown_type_code_rejected(self, bad):
        strings = np.array(["a", "1"])
        codes = np.array([1, bad], dtype=np.int8)
        with pytest.raises(GraphConstructionError, match="type codes"):
            VertexTable.from_arrays(strings, codes)

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
    def test_length_mismatch_rejected(self, lengths):
        strings = np.array(["a", "b", "c"][: lengths[0]])
        codes = np.ones(lengths[1], dtype=np.int8)
        with pytest.raises(GraphConstructionError, match="disagree"):
            VertexTable.from_arrays(strings, codes)

    def test_unparsable_int_rejected(self):
        with pytest.raises(GraphConstructionError, match="does not parse"):
            VertexTable.from_arrays(
                np.array(["a", "x1"]), np.array([1, 0], dtype=np.int8)
            )


class TestEdgeListQueries:
    def test_append_raw_dedups_on_read(self):
        edges = EdgeList()
        edges.append_raw(0, 1)
        edges.append_raw(0, 1)
        edges.append_raw(1, 1)
        assert edges.edge_count == 2
        assert edges.left_count() == 2
        edges.append_raw(0, 1)
        edges.append_raw(2, 2)
        assert edges.edge_count == 3
        assert edges.left_count() == 3

    def test_left_ids_ordered_is_first_edge_order(self):
        edges = EdgeList()
        edges.append_raw(5, 0)
        edges.append_raw(2, 0)
        edges.append_raw(5, 1)
        assert edges.left_ids_ordered() == [5, 2]

    def test_neighbors_and_degrees(self):
        edges = EdgeList()
        edges.append_raw(0, 3)
        edges.append_raw(0, 7)
        edges.append_raw(1, 3)
        assert sorted(edges.neighbors_of_left(0).tolist()) == [3, 7]
        assert edges.degree_of_left(0) == 2
        assert edges.degree_of_left(99) == 0
        assert edges.left_degrees(2).tolist() == [2, 1]

    def test_right_ids_used_sorted_unique(self):
        edges = EdgeList()
        edges.append_raw(0, 9)
        edges.append_raw(1, 4)
        edges.append_raw(2, 9)
        assert edges.right_ids_used().tolist() == [4, 9]


class TestEdgeListBatch:
    def test_compact_keeps_first_occurrence_order(self):
        edges = EdgeList()
        edges.extend_raw([3, 1, 3, 2, 1], [0, 0, 0, 0, 0])
        edges.compact()
        lefts, __ = edges.columns()
        assert lefts.tolist() == [3, 1, 2]
        assert edges.edge_count == 3

    def test_extend_raw_shape_mismatch(self):
        from repro.errors import GraphConstructionError

        edges = EdgeList()
        with pytest.raises(GraphConstructionError):
            edges.extend_raw([1, 2], [3])

    def test_copy_is_independent(self):
        edges = EdgeList()
        edges.append_raw(0, 1)
        clone = edges.copy()
        clone.append_raw(5, 5)
        assert edges.edge_count == 1
        assert clone.edge_count == 2

    def test_columns_are_read_only(self):
        edges = EdgeList()
        edges.append_raw(0, 1)
        lefts, __ = edges.columns()
        with pytest.raises(ValueError):
            lefts[0] = 9


class TestAdjacencyView:
    def make_graph(self):
        graph = BipartiteGraph(kind="host")
        graph.add_edge("b.com", "h1")
        graph.add_edge("a.com", "h1")
        graph.add_edge("b.com", "h2")
        return graph

    def test_equals_plain_dict(self):
        view = self.make_graph().adjacency
        assert view == {"b.com": {"h1", "h2"}, "a.com": {"h1"}}

    def test_iteration_order_is_first_edge_order(self):
        view = self.make_graph().adjacency
        assert list(view) == ["b.com", "a.com"]

    def test_getitem_missing_raises(self):
        view = self.make_graph().adjacency
        with pytest.raises(KeyError):
            view["nope.example"]

    def test_mapping_protocol(self):
        view = self.make_graph().adjacency
        assert isinstance(view, AdjacencyView)
        assert len(view) == 2
        assert view.get("a.com") == {"h1"}
        assert view.get("nope.example") is None


class TestTypedIncidenceOrdering:
    def test_mixed_int_str_right_vertices_numeric_first(self):
        graph = BipartiteGraph(kind="time")
        graph.add_edge("a.com", "w-extra")
        graph.add_edge("a.com", 10)
        graph.add_edge("a.com", 2)
        __, __, right_order = graph.incidence_matrix()
        # repr-ordering would give [10, 2, 'w-extra']; typed ordering
        # sorts the ints numerically before any string.
        assert right_order == [2, 10, "w-extra"]

    def test_order_stable_across_insert_orders(self):
        one = BipartiteGraph(kind="time")
        two = BipartiteGraph(kind="time")
        for right in (30, 4, "x"):
            one.add_edge("d.com", right)
        for right in ("x", 4, 30):
            two.add_edge("d.com", right)
        assert one.incidence_matrix()[2] == two.incidence_matrix()[2]

    def test_matrix_matches_adjacency(self):
        graph = BipartiteGraph(kind="host")
        graph.add_edge("a.com", "h1")
        graph.add_edge("b.com", "h1")
        graph.add_edge("b.com", "h2")
        matrix, domains, rights = graph.incidence_matrix()
        dense = matrix.toarray()
        for row, domain in enumerate(domains):
            got = {rights[c] for c in np.flatnonzero(dense[row])}
            assert got == graph.neighbors(domain)


class TestBipartitePersistence:
    def test_round_trip_string_vertices(self):
        graph = BipartiteGraph(kind="host")
        graph.add_edge("a.com", "h1")
        graph.add_edge("b.com", "h2")
        loaded = decode_bipartite_graph(encode_bipartite_graph(graph), "host")
        assert loaded.kind == "host"
        assert loaded.adjacency == graph.adjacency
        assert loaded.domains == graph.domains

    def test_round_trip_int_right_vertices(self):
        graph = BipartiteGraph(kind="time")
        graph.add_edge("a.com", 0)
        graph.add_edge("a.com", 17)
        loaded = decode_bipartite_graph(encode_bipartite_graph(graph), "time")
        # Window ids must come back as ints, not strings.
        assert loaded.adjacency == {"a.com": {0, 17}}
        assert loaded.incidence_matrix()[2] == [0, 17]

    def test_loaded_graph_supports_further_edits(self):
        graph = BipartiteGraph(kind="ip")
        graph.add_edge("a.com", "10.0.0.1")
        loaded = decode_bipartite_graph(encode_bipartite_graph(graph), "ip")
        loaded.add_edge("b.com", "10.0.0.2")
        assert loaded.edge_count == 2


def _e2ld_or_none(qname, psl):
    if not is_valid_domain_name(qname):
        return None
    try:
        return psl.registered_domain(qname)
    except DomainNameError:
        return None


class TestGoldenEquivalence:
    """The vectorized batch builders must match a plain dict-of-sets
    reference implementation (the pre-refactor semantics) on the
    fixed-seed simulated trace: same domains in the same first-seen
    order, same neighbor sets."""

    def test_query_graphs_match_reference(self, tiny_trace):
        psl = default_psl()
        ref_host: dict = {}
        ref_time: dict = {}
        window_seconds = 60.0
        for query in tiny_trace.queries:
            e2ld = _e2ld_or_none(query.qname, psl)
            if e2ld is None:
                continue
            ref_host.setdefault(e2ld, set()).add(query.source_ip)
            window = int(query.timestamp // window_seconds)
            ref_time.setdefault(e2ld, set()).add(window)
        host, times = build_query_graphs(
            tiny_trace.queries, window_seconds=window_seconds
        )
        assert host.adjacency == ref_host
        assert host.domains == list(ref_host)
        assert times.adjacency == ref_time
        assert times.domains == list(ref_time)

    def test_ip_graph_matches_reference(self, tiny_trace):
        psl = default_psl()
        ref: dict = {}
        for response in tiny_trace.responses:
            if response.nxdomain:
                continue
            e2ld = _e2ld_or_none(response.qname, psl)
            if e2ld is None:
                continue
            for ip in response.resolved_ips:
                ref.setdefault(e2ld, set()).add(ip)
        graph = build_domain_ip_graph(tiny_trace.responses)
        assert graph.adjacency == ref
        assert graph.domains == list(ref)

    def test_shared_table_has_consistent_ids(self, tiny_trace):
        domains = VertexTable()
        host, times = build_query_graphs(tiny_trace.queries, domains=domains)
        ips = build_domain_ip_graph(tiny_trace.responses, domains=domains)
        assert host.left is ips.left is times.left
        for domain in list(host.domains)[:20]:
            vid = domains.id_of(domain)
            assert vid is not None
            assert domains.value_of(vid) == domain
