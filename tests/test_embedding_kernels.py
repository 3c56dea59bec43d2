"""Tests for the LINE SGD kernel (repro.embedding.kernels).

Two load-bearing contracts:

* the segment scatter primitive is **bit-identical** to ``np.add.at``
  (duplicates accumulate in input order), which is what licenses
  swapping it into the training loop at all;
* the kernel is deterministic across serial/thread/process backends.

The ``add_at`` cases train with the reference loop in
``tests/oracles.py``, which must train every order just as the
production kernel does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding.kernels import prepare_edge_arrays, segment_scatter_add
from repro.embedding.line import LineConfig, train_line
from repro.parallel import ParallelConfig, fork_available

from tests.oracles import train_line_add_at
from tests.test_parallel import FAST, small_graph

#: The production trainer and the reference loop, by kernel name.
TRAINERS = {"segment": train_line, "add_at": train_line_add_at}


@st.composite
def scatter_case(draw):
    """Random (rows, count, dim, seed) for a scatter-equivalence case.

    Row count is kept small relative to update count so duplicate
    indices — the interesting case for accumulation order — are common.
    """
    rows = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=0, max_value=200))
    dim = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return rows, count, dim, seed


class TestSegmentScatterAdd:
    @given(scatter_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_add_at_bitwise(self, case):
        """Same additions in the same order as np.add.at — exactly."""
        rows, count, dim, seed = case
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(rows, dim))
        indices = rng.integers(0, rows, size=count, dtype=np.int32)
        updates = rng.normal(size=(count, dim)) * rng.choice(
            [1e-8, 1.0, 1e8], size=(count, 1)
        )
        expected = base.copy()
        np.add.at(expected, indices, updates)
        out = base.copy()
        segment_scatter_add(out, indices, updates)
        assert np.array_equal(out, expected)
        # The ISSUE-level contract is tolerance-based; bitwise is
        # stronger, but assert the documented form too.
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)

    def test_duplicate_free_batch_exact(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(50, 8))
        indices = rng.permutation(50)[:30].astype(np.int64)
        updates = rng.normal(size=(30, 8))
        expected = base.copy()
        expected[indices] += updates
        out = base.copy()
        segment_scatter_add(out, indices, updates)
        assert np.array_equal(out, expected)

    def test_all_duplicates_one_row(self):
        """Worst-case contention: every update lands on the same row."""
        base = np.zeros((3, 4))
        indices = np.full(100, 1, dtype=np.int32)
        updates = np.full((100, 4), 0.125)
        segment_scatter_add(base, indices, updates)
        assert np.array_equal(base[1], np.full(4, 12.5))
        assert np.array_equal(base[0], np.zeros(4))

    def test_empty_batch_is_noop(self):
        base = np.ones((4, 3))
        segment_scatter_add(
            base, np.empty(0, dtype=np.int32), np.empty((0, 3))
        )
        assert np.array_equal(base, np.ones((4, 3)))


class TestPrepareEdgeArrays:
    def test_segment_doubles_orientation(self):
        graph = small_graph()
        src, dst, w = prepare_edge_arrays(graph.rows, graph.cols, graph.weights)
        edges = graph.rows.size
        assert src.size == dst.size == w.size == 2 * edges
        # First half forward, second half reversed, weights repeated.
        assert np.array_equal(src[:edges], graph.rows)
        assert np.array_equal(dst[:edges], graph.cols)
        assert np.array_equal(src[edges:], graph.cols)
        assert np.array_equal(dst[edges:], graph.rows)
        assert np.array_equal(w[:edges], w[edges:])
        np.testing.assert_allclose(w.sum(), 2 * graph.weights.sum())
        # Small graphs fit int32 indices.
        assert src.dtype == np.int32 and dst.dtype == np.int32


class TestKernelSelection:
    @pytest.mark.parametrize("kernel", list(TRAINERS))
    @pytest.mark.parametrize("order", ["first", "second", "both"])
    def test_trains_all_orders(self, kernel, order):
        config = LineConfig(
            dimension=8, total_samples=4_000, seed=3, order=order
        )
        embedding = TRAINERS[kernel](small_graph(), config)
        assert embedding.vectors.shape == (20, 8)
        assert np.all(np.isfinite(embedding.vectors))
        assert np.any(embedding.vectors != 0.0)

    @pytest.mark.parametrize("kernel", list(TRAINERS))
    def test_same_seed_same_vectors(self, kernel):
        config = LineConfig(dimension=8, total_samples=10_000, seed=4)
        first = TRAINERS[kernel](small_graph(), config).vectors
        second = TRAINERS[kernel](small_graph(), config).vectors
        assert np.array_equal(first, second)

    def test_kernels_draw_distinct_streams(self):
        # Documented non-goal: the kernel and the reference loop are not
        # bit-comparable — they consume randomness differently by design.
        config = LineConfig(dimension=8, total_samples=10_000, seed=4)
        segment = train_line(small_graph(), config).vectors
        add_at = train_line_add_at(small_graph(), config).vectors
        assert not np.array_equal(segment, add_at)


class TestPerKernelDeterminism:
    """Serial/thread/process byte-identity of the production kernel.

    The reference loop has no parallel path, so ``segment`` is the only
    parameter.
    """

    @pytest.fixture(scope="class", params=["segment"])
    def kernel_case(self, request):
        config = LineConfig(
            dimension=FAST.dimension,
            total_samples=FAST.total_samples,
            seed=FAST.seed,
        )
        return config, train_line(small_graph(), config).vectors

    def test_thread_matches_serial(self, kernel_case):
        config, serial_vectors = kernel_case
        parallel = ParallelConfig(
            workers=2, backend="thread", min_parallel_weight=0
        )
        embedding = train_line(small_graph(), config, parallel=parallel)
        assert np.array_equal(embedding.vectors, serial_vectors)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_matches_serial(self, kernel_case):
        config, serial_vectors = kernel_case
        parallel = ParallelConfig(
            workers=2, backend="process", min_parallel_weight=0
        )
        embedding = train_line(small_graph(), config, parallel=parallel)
        assert np.array_equal(embedding.vectors, serial_vectors)
