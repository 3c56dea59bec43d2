"""The paper's core contribution: behavioral modeling + graph embedding +
SVM classification + cluster mining, wired end-to-end.

Execution is organised as a typed stage graph (:mod:`repro.core.stages`)
over the canonical detection dataflow (:mod:`repro.core.dataflow`); the
batch facade (:class:`MaliciousDomainDetector`), the streaming layer
(:class:`StreamingDetector`), and the checkpointed runner in
:mod:`repro.ingest` all execute the same stage objects in the engine's
one loop.
"""

from repro.core.features import FeatureSpace, FeatureView
from repro.core.detector import MaliciousDomainClassifier
from repro.core.clustering import (
    ClusterReport,
    DomainCluster,
    DomainClusterer,
    expand_from_seeds,
)
from repro.core.dataflow import (
    PIPELINE_STAGES,
    detection_graph,
    detection_stages,
    pipeline_fingerprint,
)
from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
from repro.core.stages import (
    ArtifactKey,
    ArtifactStore,
    ExecutionContext,
    RunReport,
    Stage,
    StageGraph,
)
from repro.core.streaming import StreamingDetector

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "ExecutionContext",
    "PIPELINE_STAGES",
    "RunReport",
    "Stage",
    "StageGraph",
    "StreamingDetector",
    "detection_graph",
    "detection_stages",
    "pipeline_fingerprint",
    "ClusterReport",
    "DomainCluster",
    "DomainClusterer",
    "FeatureSpace",
    "FeatureView",
    "MaliciousDomainClassifier",
    "MaliciousDomainDetector",
    "PipelineConfig",
    "expand_from_seeds",
]
