"""SVM-based malicious-domain classifier (paper section 6.2).

A thin, paper-faithful wrapper around
:class:`repro.ml.svm.SupportVectorClassifier`: RBF kernel, penalty
C = 0.09, kernel coefficient gamma = 0.06, labels y=1 malicious / y=0
benign, and a tunable decision threshold on d(x).

In the stage graph this model is fitted by
:class:`repro.core.dataflow.ClassifyStage` and stored under the
``classifier.model`` artifact key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NotFittedError
from repro.ml.svm import DEFAULT_CACHE_MB, SupportVectorClassifier

PAPER_PENALTY = 0.09
PAPER_GAMMA = 0.06


class MaliciousDomainClassifier:
    """Binary malicious/benign classifier with the paper's SVM settings.

    Args:
        c: SVM penalty parameter (paper: 0.09).
        gamma: RBF kernel coefficient (paper: 0.06).
        threshold: Decision threshold on d(x). ``None`` (default)
            calibrates the threshold on the training scores to maximize
            F1 — the paper's "we could set a threshold value for d(x)"
            (section 6.2) made concrete. Pass an explicit float (e.g.
            0.0, the SVM's natural boundary) to fix it instead.
        kernel_cache_mb: Kernel-row cache budget (MiB) for the SMO
            solver.
    """

    def __init__(
        self,
        c: float = PAPER_PENALTY,
        gamma: float = PAPER_GAMMA,
        threshold: float | None = None,
        kernel_cache_mb: float = DEFAULT_CACHE_MB,
    ) -> None:
        self.threshold = threshold
        self.threshold_: float = 0.0 if threshold is None else threshold
        self._svm = SupportVectorClassifier(
            c=c,
            kernel="rbf",
            gamma=gamma,
            kernel_cache_mb=kernel_cache_mb,
        )
        self._fitted = False

    def fit(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "MaliciousDomainClassifier":
        """Train on feature vectors with labels 1=malicious / 0=benign."""
        labels = np.asarray(labels)
        if not np.all(np.isin(np.unique(labels), (0, 1))):
            raise ValueError("labels must be 0 (benign) or 1 (malicious)")
        self._svm.fit(features, labels)
        self._fitted = True
        if self.threshold is None:
            self.threshold_ = self._calibrate_threshold(features, labels)
        else:
            self.threshold_ = self.threshold
        return self

    def _calibrate_threshold(
        self, features: np.ndarray, labels: np.ndarray
    ) -> float:
        """Training-score threshold maximizing F1."""
        scores = self._svm.decision_function(features)
        order = np.argsort(scores)
        sorted_scores = scores[order]
        sorted_labels = np.asarray(labels)[order]
        positives = sorted_labels.sum()
        if positives == 0 or positives == sorted_labels.size:
            return 0.0
        best_threshold, best_f1 = 0.0, -1.0
        # Candidate cuts between consecutive distinct scores.
        candidates = (sorted_scores[:-1] + sorted_scores[1:]) / 2.0
        # Suffix sums: predictions are "malicious" for score >= cut.
        suffix_tp = np.cumsum(sorted_labels[::-1])[::-1]
        suffix_total = np.arange(sorted_labels.size, 0, -1)
        for position, cut in enumerate(candidates):
            tp = suffix_tp[position + 1]
            predicted = suffix_total[position + 1]
            if predicted == 0 or tp == 0:
                continue
            precision = tp / predicted
            recall = tp / positives
            f1 = 2 * precision * recall / (precision + recall)
            if f1 > best_f1:
                best_f1, best_threshold = f1, float(cut)
        return best_threshold

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """d(x) per equation 7 — positive means malicious side."""
        if not self._fitted:
            raise NotFittedError("MaliciousDomainClassifier")
        return self._svm.decision_function(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary predictions at the (calibrated or fixed) threshold."""
        return (self.decision_function(features) >= self.threshold_).astype(int)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean accuracy at the configured threshold."""
        return float(np.mean(self.predict(features) == np.asarray(labels)))

    @property
    def support_vector_count(self) -> int:
        if not self._fitted:
            raise NotFittedError("MaliciousDomainClassifier")
        return self._svm.support_vector_count


@dataclass(slots=True, frozen=True)
class ClassifierConfig:
    """Classify-stage knobs threaded through the pipeline config.

    None of these affect *what* the paper's model computes for a
    converged fit — ``kernel_cache_mb`` trades memory against speed —
    so they stay out of :func:`pipeline_fingerprint` and
    existing checkpoints remain valid. Picklable (frozen dataclass of
    primitives), so :meth:`build` can serve as a process-pool model
    factory for parallel cross-validation.
    """

    c: float = PAPER_PENALTY
    gamma: float = PAPER_GAMMA
    threshold: float | None = None
    kernel_cache_mb: float = DEFAULT_CACHE_MB

    def build(self) -> MaliciousDomainClassifier:
        """A fresh, unfitted classifier with these settings."""
        return MaliciousDomainClassifier(
            c=self.c,
            gamma=self.gamma,
            threshold=self.threshold,
            kernel_cache_mb=self.kernel_cache_mb,
        )
