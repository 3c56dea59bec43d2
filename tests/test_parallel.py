"""Tests for the parallel embedding layer (repro.parallel).

The load-bearing property is the determinism contract: for a fixed
seed, serial, thread, and process backends must produce *byte-identical*
embeddings. Everything else (scheduling, shared memory, failure
surfacing) exists in service of that.
"""

import numpy as np
import pytest

from repro.embedding.line import LineConfig, train_line
from repro.errors import EmbeddingError
from repro.graphs.projection import SimilarityGraph
from repro.parallel import (
    ArrayPack,
    EmbeddingTask,
    ParallelConfig,
    fork_available,
    open_pack,
    plan_line_tasks,
    plan_view_tasks,
    run_tasks,
    schedule_order,
    spawn_seeds,
    train_views,
)


def small_graph(kind="host", seed=0, nodes=20, edges=60):
    """A connected random weighted graph, cheap enough to train in tests."""
    rng = np.random.default_rng(seed)
    domains = [f"{kind}{i}.example" for i in range(nodes)]
    # Chain for connectivity, then random extra edges.
    rows = list(range(nodes - 1))
    cols = list(range(1, nodes))
    extra_rows = rng.integers(0, nodes, edges)
    extra_cols = rng.integers(0, nodes, edges)
    keep = extra_rows != extra_cols
    rows = np.concatenate([rows, extra_rows[keep]])
    cols = np.concatenate([cols, extra_cols[keep]])
    weights = rng.uniform(0.1, 2.0, rows.size)
    return SimilarityGraph(
        kind=kind, domains=domains, rows=rows, cols=cols, weights=weights
    )


FAST = LineConfig(dimension=8, total_samples=20_000, seed=9)


def _echo(value):
    return value


def _boom(value):
    raise ValueError(f"task blew up on {value}")


def _sleep(seconds):
    import time

    time.sleep(seconds)
    return seconds


class TestParallelConfig:
    def test_defaults_are_serial(self):
        assert ParallelConfig().resolved_backend() == "serial"

    def test_auto_resolves_to_cpu_count(self):
        import os

        # "auto" counts the CPUs this process may run on, not the
        # machine's: the two differ under taskset or a cpuset.
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        config = ParallelConfig(workers="auto")
        assert config.resolved_workers() == max(1, usable)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"workers": "many"},
            {"workers": True},
            {"workers": 1.5},
            {"backend": "gpu"},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -2.0},
            {"min_parallel_weight": -1},
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(EmbeddingError):
            ParallelConfig(**kwargs).validate()

    def test_single_worker_falls_back_to_serial(self):
        config = ParallelConfig(workers=1, backend="process")
        assert config.resolved_backend() == "serial"

    def test_small_batch_falls_back_to_serial(self):
        config = ParallelConfig(
            workers=4, backend="process", min_parallel_weight=1_000_000
        )
        assert config.resolved_backend(total_weight=10_000) == "serial"

    def test_heavy_batch_stays_parallel(self):
        config = ParallelConfig(workers=4, backend="thread")
        assert config.resolved_backend(total_weight=10**9) == "thread"

    def test_serial_backend_wins_over_workers(self):
        config = ParallelConfig(workers=8, backend="serial")
        assert config.resolved_backend(total_weight=10**9) == "serial"


class TestSpawnSeeds:
    def test_deterministic_and_independent(self):
        first = spawn_seeds(42, 4)
        second = spawn_seeds(42, 4)
        assert len(first) == 4
        for a, b in zip(first, second):
            # Same derivation -> same stream.
            assert np.random.default_rng(a).integers(0, 2**31) == (
                np.random.default_rng(b).integers(0, 2**31)
            )
        # Distinct children -> distinct streams.
        states = {
            tuple(np.random.default_rng(seed).integers(0, 2**31, 4))
            for seed in first
        }
        assert len(states) == 4

    def test_different_roots_differ(self):
        a = np.random.default_rng(spawn_seeds(1, 1)[0]).integers(0, 2**31)
        b = np.random.default_rng(spawn_seeds(2, 1)[0]).integers(0, 2**31)
        assert a != b


class TestRunTasks:
    def test_serial_preserves_order(self):
        config = ParallelConfig(workers=0)
        assert run_tasks(_echo, [(3,), (1,), (2,)], config) == [3, 1, 2]

    def test_thread_preserves_order(self):
        config = ParallelConfig(workers=2, min_parallel_weight=0)
        results = run_tasks(
            _echo, [(i,) for i in range(8)], config, backend="thread"
        )
        assert results == list(range(8))

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_preserves_order(self):
        config = ParallelConfig(workers=2, min_parallel_weight=0)
        results = run_tasks(
            _echo, [(i,) for i in range(4)], config, backend="process"
        )
        assert results == list(range(4))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_task_exception_becomes_embedding_error(self, backend):
        config = ParallelConfig(workers=2, min_parallel_weight=0)
        with pytest.raises((EmbeddingError, ValueError)) as excinfo:
            run_tasks(_boom, [(1,), (2,)], config, backend=backend)
        if backend != "serial":
            assert isinstance(excinfo.value, EmbeddingError)
            assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_exception_becomes_embedding_error(self):
        config = ParallelConfig(workers=2, min_parallel_weight=0)
        with pytest.raises(EmbeddingError, match="blew up"):
            run_tasks(_boom, [(1,)], config, backend="process")

    def test_timeout_becomes_embedding_error(self):
        # The error arrives at the deadline, not when the 5 s tasks end:
        # unkillable thread workers are left to finish in the background.
        import time

        config = ParallelConfig(
            workers=2, min_parallel_weight=0, timeout_seconds=0.05
        )
        started = time.monotonic()
        with pytest.raises(EmbeddingError, match="timed out"):
            run_tasks(_sleep, [(5.0,), (5.0,)], config, backend="thread")
        assert time.monotonic() - started < 0.05 + 1.0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_timeout_kills_process_workers(self):
        import multiprocessing
        import time

        config = ParallelConfig(
            workers=2, min_parallel_weight=0, timeout_seconds=0.2
        )
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(EmbeddingError, match="timed out"):
            run_tasks(_sleep, [(5.0,)] * 3, config, backend="process")
        assert time.monotonic() - started < 0.2 + 1.0
        # The pool's own manager thread may still be reaping the killed
        # workers; 5 s sleepers that were not killed would outlast this.
        settle = time.monotonic() + 1.0
        while time.monotonic() < settle and not (
            set(multiprocessing.active_children()) <= before
        ):
            time.sleep(0.01)
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize(
        "backend",
        [
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not fork_available(), reason="needs fork"
                ),
            ),
        ],
    )
    def test_deadline_covers_the_whole_batch(self, backend):
        # Four 0.3 s tasks on two workers end at about 0.6 s. Each task
        # alone beats the 0.45 s deadline, and so does every single
        # wait on a future; only the batch as a whole misses it.
        config = ParallelConfig(
            workers=2, min_parallel_weight=0, timeout_seconds=0.45
        )
        with pytest.raises(EmbeddingError, match="timed out"):
            run_tasks(_sleep, [(0.3,)] * 4, config, backend=backend)


class TestPlanning:
    def test_both_order_splits_dimension_and_samples(self):
        config = LineConfig(dimension=16, total_samples=100_001, seed=5)
        tasks = plan_line_tasks("host", 500, config)
        assert [t.order for t in tasks] == ["first", "second"]
        assert [t.dimension for t in tasks] == [8, 8]
        assert [t.column for t in tasks] == [0, 8]
        assert sum(t.total_samples for t in tasks) == 100_001
        assert tasks[0].epoch_total == tasks[1].epoch_total

    def test_single_order_is_one_task(self):
        config = LineConfig(dimension=8, order="first", seed=5)
        tasks = plan_line_tasks("ip", 500, config)
        assert len(tasks) == 1
        assert tasks[0].dimension == 8
        assert tasks[0].column == 0

    def test_edgeless_graph_rejected(self):
        with pytest.raises(EmbeddingError, match="edgeless"):
            plan_line_tasks("ip", 0, FAST)

    def test_view_plan_skips_edgeless_and_numbers_globally(self):
        empty = SimilarityGraph(
            kind="time",
            domains=["a", "b"],
            rows=np.empty(0, dtype=int),
            cols=np.empty(0, dtype=int),
            weights=np.empty(0),
        )
        views = [
            ("host", small_graph("host"), FAST),
            ("time", empty, FAST),
            ("ip", small_graph("ip", seed=1), FAST),
        ]
        tasks = plan_view_tasks(views)
        assert [t.task_id for t in tasks] == [0, 1, 2, 3]
        assert {t.view for t in tasks} == {"host", "ip"}

    def test_schedule_order_is_heaviest_first(self):
        tasks = plan_view_tasks(
            [
                ("host", small_graph("host"), FAST),
                ("ip", small_graph("ip", seed=1), FAST),
            ]
        )
        ordered = schedule_order(tasks)
        weights = [t.weight for t in ordered]
        assert weights == sorted(weights, reverse=True)
        assert isinstance(ordered[0], EmbeddingTask)


class TestArrayPack:
    def _arrays(self):
        rng = np.random.default_rng(0)
        return {
            "a": rng.uniform(size=100),
            "b": rng.integers(0, 100, 50).astype(np.int64),
            "c": np.empty(0, dtype=np.float64),
        }

    def test_inline_roundtrip(self):
        arrays = self._arrays()
        with ArrayPack(arrays, use_shm=False) as pack:
            with open_pack(pack.spec) as opened:
                for name, array in arrays.items():
                    assert np.array_equal(opened[name], array)

    def test_shm_roundtrip(self):
        arrays = self._arrays()
        with ArrayPack(arrays, use_shm=True) as pack:
            assert pack.spec.shm_name is not None
            with open_pack(pack.spec) as opened:
                for name, array in arrays.items():
                    assert np.array_equal(opened[name], array)
                    assert opened[name].dtype == array.dtype


class TestDeterminismContract:
    """Serial, thread, and process training must agree to the byte."""

    @pytest.fixture(scope="class")
    def serial_vectors(self):
        return train_line(small_graph(), FAST).vectors

    def test_thread_matches_serial(self, serial_vectors):
        parallel = ParallelConfig(
            workers=2, backend="thread", min_parallel_weight=0
        )
        embedding = train_line(small_graph(), FAST, parallel=parallel)
        assert np.array_equal(embedding.vectors, serial_vectors)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_matches_serial(self, serial_vectors):
        parallel = ParallelConfig(
            workers=2, backend="process", min_parallel_weight=0
        )
        embedding = train_line(small_graph(), FAST, parallel=parallel)
        assert np.array_equal(embedding.vectors, serial_vectors)

    def test_workers_zero_is_serial_fallback(self, serial_vectors):
        parallel = ParallelConfig(workers=0, backend="process")
        assert parallel.resolved_backend(total_weight=10**9) == "serial"
        embedding = train_line(small_graph(), FAST, parallel=parallel)
        assert np.array_equal(embedding.vectors, serial_vectors)

    def test_multi_view_backends_agree(self):
        views = [
            ("host", small_graph("host"), FAST),
            ("ip", small_graph("ip", seed=1), FAST),
            ("time", small_graph("time", seed=2), FAST),
        ]
        serial = train_views(views, ParallelConfig(workers=0))
        threaded = train_views(
            views,
            ParallelConfig(workers=3, backend="thread", min_parallel_weight=0),
        )
        for key, __, __ in views:
            assert np.array_equal(serial[key].vectors, threaded[key].vectors)

    def test_views_seeded_independently(self):
        # Same config for two views must still give different embeddings
        # when the graphs differ; same graph + same config is identical.
        graph = small_graph("host")
        serial = train_views(
            [("host", graph, FAST), ("ip", graph, FAST)],
            ParallelConfig(workers=0),
        )
        assert np.array_equal(
            serial["host"].vectors, serial["ip"].vectors
        )


class TestTrainViews:
    def test_empty_view_list_is_empty_dict(self):
        assert train_views([], ParallelConfig()) == {}

    def test_edgeless_view_gets_zero_embedding(self):
        empty = SimilarityGraph(
            kind="time",
            domains=["a", "b"],
            rows=np.empty(0, dtype=int),
            cols=np.empty(0, dtype=int),
            weights=np.empty(0),
        )
        result = train_views([("time", empty, FAST)], ParallelConfig())
        assert np.all(result["time"].vectors == 0)
        assert result["time"].vectors.shape == (2, FAST.dimension)

    def test_progress_reports_cover_both_orders(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def on_epoch(self, epoch, total, loss):
                self.calls.append((epoch, total))

        recorder = Recorder()
        train_views(
            [("host", small_graph(), FAST)],
            ParallelConfig(
                workers=2, backend="thread", min_parallel_weight=0
            ),
            progress=recorder,
        )
        assert recorder.calls, "expected progress callbacks"
        # Reports from the two orders interleave, but together they must
        # cover every epoch of the serial sequence exactly once.
        epochs = sorted(epoch for epoch, __ in recorder.calls)
        total = recorder.calls[0][1]
        assert epochs == list(range(1, total + 1))

    def test_worker_failure_surfaces_as_embedding_error(self, monkeypatch):
        import repro.parallel.train as train_module

        def _broken(*args, **kwargs):
            raise RuntimeError("synthetic worker crash")

        monkeypatch.setattr(train_module, "_run_embedding_task", _broken)
        with pytest.raises(EmbeddingError):
            train_views(
                [("host", small_graph(), FAST)],
                ParallelConfig(
                    workers=2, backend="thread", min_parallel_weight=0
                ),
            )
