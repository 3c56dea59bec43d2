"""Tier-1 smoke test for the CI regression bench's engine-overhead probe.

``benchmarks/bench_regression.py`` drives the stage-graph engine
directly, and only CI's bench job runs it. Loading it here means an
engine API change that breaks the bench fails the ordinary suite too.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_regression.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("_bench_regression", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_overhead_probe_runs(tiny_trace):
    result = _load_bench()._bench_engine_overhead(tiny_trace, repeats=1)
    assert set(result) == {
        "stage_engine_overhead_seconds",
        "engine_seconds",
        "direct_seconds",
    }
    assert result["engine_seconds"] > 0
    assert result["direct_seconds"] > 0
    assert result["stage_engine_overhead_seconds"] >= 0
