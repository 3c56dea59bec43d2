"""Model serving: artifact bundles, a versioned registry, and the
online scoring service.

The paper's system is an operational one — train periodically, answer
verdict queries continuously. This package is that deployment surface:

* :class:`ModelBundle` packages a trained classifier + feature matrix +
  manifest as a checksummed, pickle-free artifact directory;
* :class:`ModelRegistry` keeps versioned bundles with atomic publish;
* :class:`DomainScorer` answers single/batch verdict queries from a
  bundle (vectorized, LRU-cached, explicit unknown-domain policy);
* :class:`ScoringService` exposes it all over HTTP with health checks,
  metrics, and zero-downtime reload (``repro-dns serve``), swapping
  the active version in with one reference assignment;
* :class:`AdmissionController` bounds in-flight scoring work and sheds
  excess load (429 + ``Retry-After``) with per-request deadlines.

See ``docs/serving.md`` for the bundle format, endpoint reference, and
the operating-under-load runbook.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionResult,
    Deadline,
)
from repro.core.artifacts import ArtifactManifest
from repro.serve.bundle import ModelBundle
from repro.serve.registry import ModelRegistry
from repro.serve.scorer import UNKNOWN_POLICIES, DomainScorer, Verdict
from repro.serve.service import ScoringService, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "ArtifactManifest",
    "Deadline",
    "DomainScorer",
    "ModelBundle",
    "ModelRegistry",
    "ScoringService",
    "ServiceConfig",
    "UNKNOWN_POLICIES",
    "Verdict",
]
