"""Model-artifact bundles: everything online scoring needs, in one place.

A :class:`ModelBundle` freezes the output of one training run — the
fitted :class:`~repro.core.detector.MaliciousDomainClassifier`, an
optional feature scaler, the concatenated per-domain feature matrix with
its domain vocabulary, and an
:class:`~repro.core.artifacts.ArtifactManifest` of kind
``"model-bundle"`` describing where the model came from (creation time,
pipeline-config fingerprint, training metrics in ``meta["metrics"]``).

On disk a bundle is an artifact directory of pickle-free ``.npz``
files, written atomically and checked as it is read by
:mod:`repro.core.artifacts` like a stage checkpoint; this module decides
only which arrays go in which file. The classifier's scalars (bias,
kernel parameters, thresholds) are ``meta["classifier"]``, apart from
the metrics so that no metric name can collide with them.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core import artifacts
from repro.core.artifacts import Arrays, ArtifactManifest, Payload
from repro.core.dataflow import CLASSIFIER, DOMAIN_ORDER, FEATURE_SPACE
from repro.core.detector import MaliciousDomainClassifier
from repro.core.persistence import (
    decode_classifier,
    decode_scaler,
    encode_classifier,
    encode_scaler,
)
from repro.errors import ArtifactIntegrityError, DatasetError, NotFittedError
from repro.ml.preprocessing import StandardScaler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
    from repro.core.stages import ArtifactStore

__all__ = ["BUNDLE_KIND", "ModelBundle"]

BUNDLE_KIND = "model-bundle"

_CLASSIFIER_FILE = "classifier.npz"
_FEATURES_FILE = "features.npz"
_SCALER_FILE = "scaler.npz"


@dataclass(slots=True)
class ModelBundle:
    """A self-contained scoring artifact.

    Holds the fitted classifier, the feature matrix for every domain the
    model knows (row ``i`` is ``domains[i]``'s concatenated per-view
    embedding), an optional scaler applied before the decision function,
    and the manifest. Use :meth:`from_detector` to package a trained
    pipeline, :meth:`save`/:meth:`load` to move it through disk, and
    :class:`~repro.serve.scorer.DomainScorer` to answer queries from it.
    """

    classifier: MaliciousDomainClassifier
    features: np.ndarray
    domains: list[str]
    scaler: StandardScaler | None = None
    manifest: ArtifactManifest = field(
        default_factory=lambda: ArtifactManifest(kind=BUNDLE_KIND)
    )

    @classmethod
    def create(
        cls,
        classifier: MaliciousDomainClassifier,
        features: np.ndarray,
        domains: list[str],
        scaler: StandardScaler | None = None,
        fingerprint: str = "",
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Assemble a bundle and fill in its manifest (``metrics`` become
        its ``meta["metrics"]``)."""
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise DatasetError("bundle features must be a 2-D matrix")
        if features.shape[0] != len(domains):
            raise DatasetError(
                f"feature rows ({features.shape[0]}) disagree with domain "
                f"vocabulary size ({len(domains)})"
            )
        manifest = ArtifactManifest(
            kind=BUNDLE_KIND,
            fingerprint=fingerprint,
            created_at=time.time() if created_at is None else created_at,
            meta={"metrics": dict(metrics or {})},
        )
        return cls(
            classifier=classifier,
            features=features,
            domains=list(domains),
            scaler=scaler,
            manifest=manifest,
        )

    @classmethod
    def from_artifacts(
        cls,
        store: "ArtifactStore",
        config: "PipelineConfig",
        scaler: StandardScaler | None = None,
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Package a pipeline :class:`~repro.core.stages.ArtifactStore`.

        Reads the fitted classifier, feature space, and domain order
        straight from the stage-graph artifact store, so any execution
        path (batch facade, streaming refresh, checkpointed run) can be
        bundled without going through a detector object.
        """
        classifier = store.maybe(CLASSIFIER)
        if classifier is None:
            raise NotFittedError("MaliciousDomainDetector.fit")
        space = store.maybe(FEATURE_SPACE)
        if space is None:
            raise NotFittedError("MaliciousDomainDetector.learn_embeddings")
        order = store.maybe(DOMAIN_ORDER)
        domains = list(order) if order is not None else list(space.query.domains)
        features = space.matrix(domains, config.views)
        fingerprint = hashlib.sha256(
            repr(config).encode("utf-8")
        ).hexdigest()
        summary: dict[str, float] = {
            "support_vectors": float(classifier.support_vector_count),
        }
        summary.update(metrics or {})
        return cls.create(
            classifier=classifier,
            features=features,
            domains=domains,
            scaler=scaler,
            fingerprint=fingerprint,
            metrics=summary,
            created_at=created_at,
        )

    @classmethod
    def from_detector(
        cls,
        detector: "MaliciousDomainDetector",
        scaler: StandardScaler | None = None,
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Package a fitted end-to-end detector for serving.

        The feature matrix covers every domain that survived pruning, so
        a :class:`~repro.serve.scorer.DomainScorer` over the bundle
        returns exactly the scores ``detector.decision_scores`` would.
        Thin delegate: the detector is itself a facade over an artifact
        store, so this just forwards to :meth:`from_artifacts`.
        """
        return cls.from_artifacts(
            detector.artifacts,
            detector.config,
            scaler=scaler,
            metrics=metrics,
            created_at=created_at,
        )

    @property
    def dimension(self) -> int:
        """Feature dimension the classifier expects."""
        return int(self.features.shape[1])

    def decision_scores(self, matrix: np.ndarray) -> np.ndarray:
        """d(x) for pre-assembled feature rows (scaled if applicable)."""
        if self.scaler is not None:
            matrix = self.scaler.transform(matrix)
        return self.classifier.decision_function(matrix)

    def payload(self) -> tuple[ArtifactManifest, Payload]:
        """The manifest (``meta`` plus the classifier's scalars) and the
        files that :meth:`save` writes."""
        classifier, classifier_meta = encode_classifier(self.classifier)
        files: dict[str, Arrays] = {
            _CLASSIFIER_FILE: classifier,
            _FEATURES_FILE: {
                "features": self.features,
                "domains": np.array(self.domains, dtype=np.str_),
            },
        }
        if self.scaler is not None:
            files[_SCALER_FILE] = encode_scaler(self.scaler)
        meta = {**self.manifest.meta, "classifier": classifier_meta}
        return replace(self.manifest, meta=meta), files

    def save(self, directory: str | Path) -> Path:
        """Write the bundle atomically as ``directory``; returns it.

        ``directory`` must not exist yet, or be empty: the finished
        staging directory is renamed onto it, so an existing bundle is
        never overwritten.
        """
        directory = Path(directory)

        def place(staging: Path) -> Path:
            os.rename(staging, directory)
            return directory

        return artifacts.write_artifact(directory.parent, *self.payload(), place)

    @staticmethod
    def load(directory: str | Path) -> "ModelBundle":
        """Check and read a bundle written by :meth:`save`; raises
        :class:`~repro.errors.ArtifactIntegrityError` on a torn or
        corrupt one."""
        manifest, files = artifacts.read_artifact(Path(directory), BUNDLE_KIND)
        vocabulary = files[_FEATURES_FILE]
        features = np.asarray(vocabulary["features"], dtype=np.float64)
        domains = vocabulary["domains"].tolist()
        if features.ndim != 2 or len(features) != len(domains):
            raise ArtifactIntegrityError(
                f"bundle at {directory} holds {features.shape} features "
                f"for {len(domains)} domains"
            )
        return ModelBundle(
            classifier=decode_classifier(
                files[_CLASSIFIER_FILE], manifest.meta["classifier"]
            ),
            features=features,
            domains=domains,
            scaler=(
                decode_scaler(files[_SCALER_FILE])
                if _SCALER_FILE in files
                else None
            ),
            manifest=manifest,
        )
