"""Simulated VirusTotal multi-engine verdict API.

The paper validates every blacklist entry with the public VirusTotal API,
keeping a domain only if it is "confirmed by the VirusTotal API, and
appears [on] at least two of the 60 global blacklists" (section 6.1), and
uses the same API to confirm newly discovered cluster domains (Figure 4).

The simulation models 60 engines with heterogeneous sensitivity. An
engine detects a truly malicious domain with a probability that grows
with the domain's age (freshly generated DGA names are poorly covered —
the property that makes Figure 4's *suspicious* bucket non-empty), and
false-positives on benign domains at a small per-engine rate. Verdicts
are deterministic per (seed, domain): querying twice gives the same
report, like the real API over a short window.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.simulation.groundtruth import GroundTruth

ENGINE_COUNT = 60


@dataclass(slots=True)
class VirusTotalConfig:
    """Behavior knobs for the simulated API."""

    engines: int = ENGINE_COUNT
    # Mean per-engine detection probability for an old, well-known
    # malicious domain.
    mature_detection_rate: float = 0.35
    # Age (days) at which coverage saturates.
    maturity_days: float = 30.0
    # Per-engine false-positive probability on benign domains.
    benign_fp_rate: float = 0.002
    # Fraction of malicious domains unknown to every engine (brand new
    # or too obscure) regardless of age.
    blind_spot_rate: float = 0.12
    seed: int = 202

    def validate(self) -> None:
        if self.engines < 1:
            raise ValueError("engines must be at least 1")
        for name in ("mature_detection_rate", "benign_fp_rate", "blind_spot_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.maturity_days <= 0:
            raise ValueError("maturity_days must be positive")


@dataclass(frozen=True, slots=True)
class VirusTotalReport:
    """One query result: how many engines flagged the domain."""

    domain: str
    positives: int
    total_engines: int


class SimulatedVirusTotal:
    """Deterministic multi-engine verdict oracle over ground truth."""

    def __init__(
        self, truth: GroundTruth, config: VirusTotalConfig | None = None
    ) -> None:
        if config is None:
            config = VirusTotalConfig()
        config.validate()
        self.config = config
        self._truth = truth
        self.query_count = 0
        # Engine sensitivities: some engines are broad, some narrow.
        rng = np.random.default_rng(config.seed)
        self._engine_sensitivity = rng.uniform(0.3, 1.7, size=config.engines)

    def _domain_rng(self, domain: str) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.config.seed}:{domain}".encode()
        ).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def query(self, domain: str) -> VirusTotalReport:
        """Return the (deterministic) engine verdicts for ``domain``."""
        self.query_count += 1
        rng = self._domain_rng(domain)
        record = self._truth.get(domain)
        if record is None or not record.is_malicious:
            flags = rng.uniform(size=self.config.engines) < self.config.benign_fp_rate
            return VirusTotalReport(domain, int(flags.sum()), self.config.engines)
        if rng.random() < self.config.blind_spot_rate:
            return VirusTotalReport(domain, 0, self.config.engines)
        age_factor = min(record.registration_age_days / self.config.maturity_days, 1.0)
        # Coverage grows with age. Very young domains sit near the
        # confirmation threshold (expected positives ~ engines * base), so
        # the ">= 2 engines" rule meaningfully rejects fresh DGA output —
        # that is what populates Figure 4's "suspicious" bucket.
        base = self.config.mature_detection_rate * (0.05 + 0.95 * age_factor)
        per_engine = np.clip(base * self._engine_sensitivity, 0.0, 0.98)
        flags = rng.uniform(size=self.config.engines) < per_engine
        return VirusTotalReport(domain, int(flags.sum()), self.config.engines)

    def is_confirmed(self, domain: str, min_positives: int = 2) -> bool:
        """The paper's validation rule: flagged by >= 2 of the 60 engines."""
        return self.query(domain).positives >= min_positives
