"""Property-based tests (hypothesis) for core data structures and math."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dns.names import is_valid_domain_name, normalize_domain
from repro.dns.psl import default_psl
from repro.embedding.alias import AliasSampler
from repro.errors import DomainNameError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.projection import project_to_similarity
from repro.ml.metrics import roc_auc_score, roc_curve
from repro.ml.preprocessing import StandardScaler

# ---------------------------------------------------------------------------
# Domain-name handling

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=15
)
_domain = st.lists(_label, min_size=2, max_size=5).map(".".join)


class TestDomainNameProperties:
    @given(_domain)
    def test_normalization_is_idempotent(self, name):
        once = normalize_domain(name)
        assert normalize_domain(once) == once

    @given(_domain)
    def test_valid_names_accepted(self, name):
        assert is_valid_domain_name(name)

    @given(_domain)
    def test_e2ld_is_suffix_of_name(self, name):
        psl = default_psl()
        try:
            e2ld = psl.registered_domain(name)
        except DomainNameError:
            return  # bare public suffix: nothing to check
        assert name.endswith(e2ld)
        # e2LD is itself a fixed point of the aggregation.
        assert psl.registered_domain(e2ld) == e2ld

    @given(_domain.map(str.upper))
    def test_case_insensitive_validation(self, name):
        assert is_valid_domain_name(name) == is_valid_domain_name(name.lower())


# ---------------------------------------------------------------------------
# Alias sampling

@st.composite
def _weights_with_zeros(draw):
    """2..20 weights in [0, 10]: at least one positive and one zero.

    Built rather than filtered: positive weights first, then one or more
    zeros inserted at drawn indices.
    """
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
            min_size=1,
            max_size=19,
        )
    )
    zeros = draw(st.integers(min_value=1, max_value=20 - len(weights)))
    for __ in range(zeros):
        index = draw(st.integers(min_value=0, max_value=len(weights)))
        weights.insert(index, 0.0)
    return weights


class TestAliasProperties:
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=40
        ),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40)
    def test_samples_in_range(self, weights, count):
        sampler = AliasSampler(np.array(weights))
        draws = sampler.sample(count, np.random.default_rng(0))
        assert draws.shape == (count,)
        if count:
            assert draws.min() >= 0
            assert draws.max() < len(weights)

    @given(_weights_with_zeros())
    @settings(max_examples=30)
    def test_zero_weights_never_sampled(self, weights):
        sampler = AliasSampler(np.array(weights))
        draws = sampler.sample(2000, np.random.default_rng(1))
        zero_positions = {i for i, w in enumerate(weights) if w == 0.0}
        assert not set(np.unique(draws)) & zero_positions


# ---------------------------------------------------------------------------
# Jaccard projection invariants

@st.composite
def bipartite_graphs(draw):
    domain_count = draw(st.integers(min_value=2, max_value=10))
    graph = BipartiteGraph(kind="host")
    for index in range(domain_count):
        hood = draw(
            st.sets(st.integers(min_value=0, max_value=12), min_size=1, max_size=6)
        )
        for vertex in hood:
            graph.add_edge(f"d{index}.com", vertex)
    return graph


class TestProjectionProperties:
    @given(bipartite_graphs())
    @settings(max_examples=40)
    def test_weights_are_valid_jaccard_values(self, graph):
        similarity = project_to_similarity(graph)
        assert np.all(similarity.weights > 0)
        assert np.all(similarity.weights <= 1.0 + 1e-12)

    @given(bipartite_graphs())
    @settings(max_examples=40)
    def test_edges_match_brute_force(self, graph):
        similarity = project_to_similarity(graph)
        domains = sorted(graph.adjacency)
        for i, a in enumerate(domains):
            for b in domains[i + 1 :]:
                hood_a, hood_b = graph.adjacency[a], graph.adjacency[b]
                expected = (
                    len(hood_a & hood_b) / len(hood_a | hood_b)
                    if hood_a & hood_b
                    else 0.0
                )
                assert abs(similarity.weight_between(a, b) - expected) < 1e-12

    @given(bipartite_graphs())
    @settings(max_examples=20)
    def test_identical_neighborhoods_have_weight_one(self, graph):
        # Clone one domain's neighborhood under a new name.
        source = next(iter(graph.adjacency))
        for vertex in graph.adjacency[source]:
            graph.add_edge("clone.com", vertex)
        similarity = project_to_similarity(graph)
        assert similarity.weight_between(source, "clone.com") == 1.0


# ---------------------------------------------------------------------------
# Metrics invariants

@st.composite
def scored_labels(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
        .filter(lambda ls: 0 < sum(ls) < len(ls))
    )
    scores = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    # Quantize so distinct scores stay distinct under the affine
    # transforms applied below (avoids float-rounding tie artifacts).
    return np.array(labels), np.round(np.array(scores), 4)


class TestMetricProperties:
    @given(scored_labels())
    @settings(max_examples=60)
    def test_auc_bounded(self, data):
        labels, scores = data
        auc = roc_auc_score(labels, scores)
        assert 0.0 <= auc <= 1.0

    @given(scored_labels())
    @settings(max_examples=60)
    def test_auc_complementary_under_score_negation(self, data):
        labels, scores = data
        direct = roc_auc_score(labels, scores)
        flipped = roc_auc_score(labels, -scores)
        assert abs(direct + flipped - 1.0) < 1e-9

    @given(scored_labels())
    @settings(max_examples=60)
    def test_roc_endpoints(self, data):
        labels, scores = data
        fpr, tpr, __ = roc_curve(labels, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    @given(
        scored_labels(),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=40)
    def test_auc_invariant_to_monotone_transform(self, data, scale, shift):
        labels, scores = data
        direct = roc_auc_score(labels, scores)
        transformed = roc_auc_score(labels, scores * scale + shift)
        assert abs(direct - transformed) < 1e-9


# ---------------------------------------------------------------------------
# Scaler invariants

class TestScalerProperties:
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_round_trip(self, rows, cols, seed):
        data = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
        scaler = StandardScaler().fit(data)
        recovered = scaler.inverse_transform(scaler.transform(data))
        assert np.allclose(recovered, data, atol=1e-8)
