"""Shared fixtures.

Expensive artifacts (the tiny simulated trace and the processed detector)
are session-scoped: many test modules read them, none mutates them.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    IntelligenceFeed,
    MaliciousDomainDetector,
    PipelineConfig,
    SimulatedVirusTotal,
    SimulationConfig,
    TraceGenerator,
    build_labeled_dataset,
)
from repro.embedding.line import LineConfig


@pytest.fixture(scope="session")
def tiny_trace():
    """A small but fully structured simulated campus trace."""
    return TraceGenerator(SimulationConfig.tiny(seed=7)).generate()


@pytest.fixture(scope="session")
def fast_line_config():
    """A LINE config small enough for test-time training."""
    return LineConfig(dimension=16, total_samples=120_000, seed=5)


@pytest.fixture(scope="session")
def processed_detector(tiny_trace, fast_line_config):
    """A detector with graphs, projections and embeddings built."""
    detector = MaliciousDomainDetector(
        PipelineConfig(embedding=fast_line_config)
    )
    detector.process(tiny_trace.queries, tiny_trace.responses, tiny_trace.dhcp)
    return detector


@pytest.fixture(scope="session")
def labeled_dataset(tiny_trace, processed_detector):
    """Labels assembled with the paper's validation rule."""
    feed = IntelligenceFeed(tiny_trace.ground_truth)
    virustotal = SimulatedVirusTotal(tiny_trace.ground_truth)
    return build_labeled_dataset(feed, virustotal, processed_detector.domains)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def make_bundle():
    """Factory for small synthetic model bundles (fast to fit).

    Features carry a per-class offset so the SVM has real signal and
    threshold calibration produces a sensible cut; the seed goes into
    the config fingerprint so tests can tell bundles apart after a
    round trip through the registry.
    """
    from repro.core.detector import MaliciousDomainClassifier
    from repro.ml.preprocessing import StandardScaler
    from repro.serve import ModelBundle

    def _make(seed=0, count=24, dimension=6, scaled=False, metrics=None):
        generator = np.random.default_rng(seed)
        labels = np.arange(count) % 2
        features = (
            generator.normal(size=(count, dimension)) + labels[:, None] * 2.0
        )
        scaler = None
        train = features
        if scaled:
            scaler = StandardScaler().fit(features)
            train = scaler.transform(features)
        classifier = MaliciousDomainClassifier().fit(train, labels)
        domains = [f"d{seed}-{i}.example" for i in range(count)]
        return ModelBundle.create(
            classifier,
            features,
            domains,
            scaler=scaler,
            fingerprint=f"fp-{seed}",
            metrics=metrics,
            created_at=1_700_000_000.0 + seed,
        )

    return _make


@pytest.fixture()
def patch_scoring(monkeypatch):
    """Wrap ``DomainScorer.score_batch`` so serving tests can slow it
    down or break it.

    ``patch_scoring(latency=..., error=..., times=...)`` makes the first
    ``times`` calls (every call when ``None``) sleep ``latency`` seconds
    and then raise ``error`` if one is given; other calls score
    normally. The original method comes back at test teardown.
    """
    from repro.serve import DomainScorer

    original = DomainScorer.score_batch

    def _patch(latency=0.0, error=None, times=None):
        lock = threading.Lock()
        remaining = [times]

        def score_batch(self, domains):
            with lock:
                armed = remaining[0] is None or remaining[0] > 0
                if armed and remaining[0] is not None:
                    remaining[0] -= 1
            if armed:
                time.sleep(latency)
                if error is not None:
                    raise error
            return original(self, domains)

        monkeypatch.setattr(DomainScorer, "score_batch", score_batch)

    return _patch
