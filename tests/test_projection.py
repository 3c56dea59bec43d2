"""Unit tests for one-mode projection with Jaccard weights."""

import pytest

from repro.errors import GraphConstructionError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.projection import project_to_similarity


@pytest.fixture()
def graph():
    g = BipartiteGraph(kind="host")
    g.add_edge("a.com", "h1")
    g.add_edge("a.com", "h2")
    g.add_edge("b.com", "h1")
    g.add_edge("b.com", "h2")  # identical to a.com -> Jaccard 1
    g.add_edge("c.com", "h2")
    g.add_edge("c.com", "h3")  # overlaps a/b on h2 -> Jaccard 1/3
    g.add_edge("d.com", "h9")  # disjoint
    return g


class TestJaccardWeights:
    def test_identical_neighborhoods(self, graph):
        sim = project_to_similarity(graph)
        assert sim.weight_between("a.com", "b.com") == pytest.approx(1.0)

    def test_partial_overlap(self, graph):
        sim = project_to_similarity(graph)
        assert sim.weight_between("a.com", "c.com") == pytest.approx(1 / 3)

    def test_disjoint_no_edge(self, graph):
        sim = project_to_similarity(graph)
        assert sim.weight_between("a.com", "d.com") == 0.0

    def test_symmetry(self, graph):
        sim = project_to_similarity(graph)
        assert sim.weight_between("c.com", "a.com") == sim.weight_between(
            "a.com", "c.com"
        )

    def test_no_self_loops(self, graph):
        sim = project_to_similarity(graph)
        assert all(r != c for r, c in zip(sim.rows, sim.cols))
        assert sim.weight_between("a.com", "a.com") == 0.0

    def test_manual_jaccard_verification(self, rng):
        """Brute-force comparison on a random bipartite graph."""
        graph = BipartiteGraph(kind="host")
        domains = [f"d{i}.com" for i in range(12)]
        neighborhoods = {}
        for domain in domains:
            size = int(rng.integers(1, 6))
            hood = set(int(h) for h in rng.choice(15, size=size, replace=False))
            neighborhoods[domain] = hood
            for h in hood:
                graph.add_edge(domain, h)
        sim = project_to_similarity(graph)
        for i, di in enumerate(domains):
            for dj in domains[i + 1 :]:
                a, b = neighborhoods[di], neighborhoods[dj]
                expected = len(a & b) / len(a | b) if a & b else 0.0
                assert sim.weight_between(di, dj) == pytest.approx(expected)


class TestProjectionMechanics:
    def test_min_similarity_threshold(self, graph):
        sim = project_to_similarity(graph, min_similarity=0.5)
        assert sim.weight_between("a.com", "b.com") == 1.0
        assert sim.weight_between("a.com", "c.com") == 0.0  # below 0.5

    def test_negative_threshold_rejected(self, graph):
        with pytest.raises(GraphConstructionError):
            project_to_similarity(graph, min_similarity=-1.0)

    def test_explicit_domain_order(self, graph):
        order = ["d.com", "c.com", "b.com", "a.com", "ghost.com"]
        sim = project_to_similarity(graph, domain_order=order)
        assert sim.domains == order
        assert sim.weight_between("a.com", "b.com") == 1.0
        assert sim.weight_between("ghost.com", "a.com") == 0.0

    def test_block_size_does_not_change_result(self, graph):
        sim_small = project_to_similarity(graph, block_size=1)
        sim_large = project_to_similarity(graph, block_size=1024)
        assert sim_small.edge_count == sim_large.edge_count
        for a, b, w in sim_small.iter_edges():
            assert sim_large.weight_between(a, b) == pytest.approx(w)

    def test_empty_graph(self):
        sim = project_to_similarity(BipartiteGraph(kind="ip"))
        assert sim.node_count == 0
        assert sim.edge_count == 0


class TestSimilarityGraphApi:
    def test_neighbors_of(self, graph):
        sim = project_to_similarity(graph)
        neighbors = dict(sim.neighbors_of("a.com"))
        assert neighbors["b.com"] == pytest.approx(1.0)
        assert neighbors["c.com"] == pytest.approx(1 / 3)
        assert "d.com" not in neighbors

    def test_degree_array(self, graph):
        sim = project_to_similarity(graph)
        degrees = sim.degree_array()
        index = sim.domain_index["d.com"]
        assert degrees[index] == 0.0
        index_a = sim.domain_index["a.com"]
        assert degrees[index_a] == pytest.approx(1.0 + 1 / 3)

    def test_iter_edges_unique_pairs(self, graph):
        sim = project_to_similarity(graph)
        pairs = [(a, b) for a, b, __ in sim.iter_edges()]
        assert len(pairs) == len(set(pairs))
