"""Memory-bounded, checkpointed, resumable trace ingestion.

The front end for captures too large to materialize in memory:

* :class:`~repro.ingest.chunking.ChunkedTraceReader` streams a trace as
  bounded :class:`~repro.ingest.chunking.RecordBatch` chunks with a
  monotone resume cursor;
* :class:`~repro.ingest.checkpoint.PipelineCheckpointer` persists each
  pipeline stage as a typed ``.npz`` + SHA-256 manifest checkpoint;
* :class:`~repro.ingest.runner.CheckpointedPipeline` drives the full
  detection pipeline over chunks, restarting from the last complete
  stage after a crash with byte-identical outputs to a cold run.

See ``docs/ingestion.md``.
"""

from repro.core.artifacts import ArtifactManifest
from repro.ingest.checkpoint import CHECKPOINT_STAGES, PipelineCheckpointer
from repro.ingest.chunking import ChunkedTraceReader, ChunkPolicy, RecordBatch
from repro.ingest.runner import (
    CheckpointedPipeline,
    ChunkedIngestStage,
    IngestConfig,
    PipelineOutcome,
    pipeline_fingerprint,
)

__all__ = [
    "ArtifactManifest",
    "CHECKPOINT_STAGES",
    "ChunkPolicy",
    "ChunkedIngestStage",
    "ChunkedTraceReader",
    "CheckpointedPipeline",
    "IngestConfig",
    "PipelineCheckpointer",
    "PipelineOutcome",
    "RecordBatch",
    "pipeline_fingerprint",
]
