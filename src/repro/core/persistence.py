"""Codecs between pipeline objects and artifact payloads.

Stage checkpoints and model bundles persist the expensive stages'
results (graphs, projections, LINE, SVM). Each ``encode_*`` here maps
one object to the arrays of one ``.npz`` file plus, where it has
scalars (kinds, configs, the SVM's bias and thresholds), a JSON-safe
``meta`` dict; each ``decode_*`` takes them back and refuses ids that
fall outside the table they index with
:class:`~repro.errors.ArtifactIntegrityError`. No function here touches
a file: that is :mod:`repro.core.artifacts`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

import numpy as np

from repro.core.artifacts import Arrays
from repro.core.detector import MaliciousDomainClassifier
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import ArtifactIntegrityError, NotFittedError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.core import EdgeList, VertexTable
from repro.graphs.projection import SimilarityGraph
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import SupportVectorClassifier

Meta = dict[str, Any]


def _strings(values: list[str]) -> np.ndarray:
    return np.array(values, dtype=np.str_)


def _ids(arrays: Arrays, name: str, bound: int, table: str) -> np.ndarray:
    """Member ``name`` as ``int64`` ids, each checked to index ``table``."""
    ids = np.asarray(arrays[name], dtype=np.int64)
    if ids.ndim != 1 or (ids.size and (ids.min() < 0 or ids.max() >= bound)):
        raise ArtifactIntegrityError(
            f"{name} ids fall outside the {bound} entries of {table}"
        )
    return ids


def encode_embedding(embedding: LineEmbedding) -> tuple[Arrays, Meta]:
    """One LINE embedding: vectors and domains; kind and config in meta."""
    return (
        {"vectors": embedding.vectors, "domains": _strings(embedding.domains)},
        {"kind": embedding.kind, "config": asdict(embedding.config)},
    )


def decode_embedding(arrays: Arrays, meta: Mapping[str, Any]) -> LineEmbedding:
    """Inverse of :func:`encode_embedding`; one vector per domain."""
    domains = arrays["domains"].tolist()
    vectors = np.asarray(arrays["vectors"], dtype=np.float64)
    if vectors.ndim != 2 or len(vectors) != len(domains):
        raise ArtifactIntegrityError(
            f"embedding holds {vectors.shape} vectors for {len(domains)} domains"
        )
    return LineEmbedding(
        kind=str(meta["kind"]),
        domains=domains,
        vectors=vectors,
        config=LineConfig(**meta["config"]),
    )


def encode_bipartite_graph(
    graph: BipartiteGraph, *, with_left: bool = True
) -> Arrays:
    """One bipartite graph: its vertex tables and ``uint32`` edge ids.

    Vertex tables persist as unicode strings plus a type-code column
    (so integer time-window vertices round-trip without pickle); the
    interner caps ids at 2^32 - 1. ``with_left=False`` leaves out the
    domain table, for graphs that share one already stored.
    """
    right_values, right_codes = graph.right.to_arrays()
    lefts, rights = graph.edges.columns()
    arrays = {
        "right_values": right_values,
        "right_codes": right_codes,
        "lefts": lefts.astype(np.uint32),
        "rights": rights.astype(np.uint32),
    }
    if with_left:
        arrays["left_values"], arrays["left_codes"] = graph.left.to_arrays()
    return arrays


def decode_bipartite_graph(
    arrays: Arrays, kind: str, left: VertexTable | None = None
) -> BipartiteGraph:
    """Inverse of :func:`encode_bipartite_graph`.

    ``left`` is the shared domain table for an archive written without
    one.
    """
    if left is None:
        left = VertexTable.from_arrays(arrays["left_values"], arrays["left_codes"])
    right = VertexTable.from_arrays(arrays["right_values"], arrays["right_codes"])
    lefts = _ids(arrays, "lefts", len(left), "the domain table")
    rights = _ids(arrays, "rights", len(right), f"the {kind} table")
    if lefts.shape != rights.shape:
        raise ArtifactIntegrityError(
            f"{kind} graph has {lefts.size} lefts but {rights.size} rights"
        )
    # Encoded from ``edges.columns()``, so already duplicate-free.
    edges = EdgeList._from_trusted(lefts, rights)
    return BipartiteGraph(kind=kind, left=left, right=right, edges=edges)


def encode_similarity_graph(graph: SimilarityGraph) -> tuple[Arrays, Meta]:
    """One similarity graph, ids as ``uint32``; its kind in meta."""
    return (
        {
            "domains": _strings(graph.domains),
            "rows": graph.rows.astype(np.uint32),
            "cols": graph.cols.astype(np.uint32),
            "weights": graph.weights,
        },
        {"kind": graph.kind},
    )


def decode_similarity_graph(
    arrays: Arrays, meta: Mapping[str, Any]
) -> SimilarityGraph:
    """Inverse of :func:`encode_similarity_graph`."""
    domains = arrays["domains"].tolist()
    rows = _ids(arrays, "rows", len(domains), "domains")
    cols = _ids(arrays, "cols", len(domains), "domains")
    weights = np.asarray(arrays["weights"], dtype=np.float64)
    if not rows.shape == cols.shape == weights.shape:
        raise ArtifactIntegrityError(
            f"similarity graph columns disagree: {rows.size} rows, "
            f"{cols.size} cols, {weights.size} weights"
        )
    return SimilarityGraph(
        kind=str(meta["kind"]), domains=domains, rows=rows, cols=cols, weights=weights
    )


def encode_classifier(classifier: MaliciousDomainClassifier) -> tuple[Arrays, Meta]:
    """A fitted classifier's complete decision rule.

    Support vectors, signed dual coefficients (alpha_i * y_i) and classes
    are arrays; bias, kernel parameters and the configured and
    calibrated thresholds are meta. A decoded classifier reproduces
    ``decision_function`` byte-exactly without retraining.
    """
    svm = classifier._svm
    if (
        not classifier._fitted
        or svm._support_vectors is None
        or svm._support_coefficients is None
        or svm._classes is None
    ):
        raise NotFittedError("MaliciousDomainClassifier")
    meta = {
        "c": svm.c,
        "kernel": svm.kernel,
        "gamma": svm.gamma,
        "degree": svm.degree,
        "coef0": svm.coef0,
        "tolerance": svm.tolerance,
        "max_iterations": svm.max_iterations,
        "kernel_cache_mb": svm.kernel_cache_mb,
        "bias": float(svm._bias),
        # The configured threshold (None = calibrate on fit) and the
        # value that calibration actually produced.
        "threshold": classifier.threshold,
        "threshold_": classifier.threshold_,
    }
    arrays = {
        "support_vectors": svm._support_vectors,
        "dual_coefficients": svm._support_coefficients,
        "classes": np.asarray(svm._classes),
    }
    return arrays, meta


def decode_classifier(
    arrays: Arrays, meta: Mapping[str, Any]
) -> MaliciousDomainClassifier:
    """Inverse of :func:`encode_classifier`.

    The kernel expansion is recomputed from bit-equal float64 support
    vectors, coefficients and bias, so ``decision_function`` is
    byte-identical to the encoded classifier's.
    """
    threshold = meta["threshold"]
    kernel_cache_mb = float(meta["kernel_cache_mb"])
    classifier = MaliciousDomainClassifier(
        c=float(meta["c"]),
        gamma=float(meta["gamma"]),
        threshold=None if threshold is None else float(threshold),
        kernel_cache_mb=kernel_cache_mb,
    )
    svm = SupportVectorClassifier(
        c=float(meta["c"]),
        kernel=str(meta["kernel"]),
        gamma=float(meta["gamma"]),
        degree=int(meta["degree"]),
        coef0=float(meta["coef0"]),
        tolerance=float(meta["tolerance"]),
        max_iterations=int(meta["max_iterations"]),
        kernel_cache_mb=kernel_cache_mb,
    )
    svm._support_vectors = np.asarray(arrays["support_vectors"], dtype=np.float64)
    svm._support_coefficients = np.asarray(
        arrays["dual_coefficients"], dtype=np.float64
    )
    svm._bias = float(meta["bias"])
    svm._classes = np.asarray(arrays["classes"])
    classifier._svm = svm
    classifier._fitted = True
    classifier.threshold_ = float(meta["threshold_"])
    return classifier


def encode_scaler(scaler: StandardScaler) -> Arrays:
    """A fitted :class:`StandardScaler`: its mean and scale."""
    if scaler.mean_ is None or scaler.scale_ is None:
        raise NotFittedError("StandardScaler")
    return {"mean": scaler.mean_, "scale": scaler.scale_}


def decode_scaler(arrays: Arrays) -> StandardScaler:
    """Inverse of :func:`encode_scaler`."""
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(arrays["mean"], dtype=np.float64)
    scaler.scale_ = np.asarray(arrays["scale"], dtype=np.float64)
    return scaler
