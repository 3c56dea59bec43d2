"""Persistence for pipeline artifacts.

A deployment runs the expensive stages (graphs, projections, LINE) once
per capture window and reuses the results; this module saves and restores
them — embeddings, feature spaces, graphs, and the trained classifier
and scaler (so scoring never requires retraining). Formats are plain
``.npz`` (numpy) plus small JSON sidecars — no pickle, so artifacts are
safe to share and stable across versions. Each function here handles
one file; :mod:`repro.core.artifacts` owns the directories of them.

Every ``.npz`` the system writes (these files, stage checkpoints, model
bundles) goes through :func:`write_arrays`, which stores members
uncompressed: the arrays are mostly float vectors that deflate shrinks
by a fifth at many times the cost of the write. Loaders read stored and
deflated archives alike, so artifacts written compressed still load.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.detector import MaliciousDomainClassifier
from repro.core.features import FeatureSpace
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import DatasetError, NotFittedError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.core import EdgeList, VertexTable
from repro.graphs.projection import SimilarityGraph
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import DEFAULT_CACHE_MB, SupportVectorClassifier

_FORMAT_VERSION = 1


def write_arrays(path: str | Path, **arrays: np.ndarray) -> None:
    """Write ``arrays`` as a stored (uncompressed) ``.npz`` at ``path``.

    The one place the artifact encoding is decided. ``np.savez`` writes
    ``ZIP_STORED`` members, and appends ``.npz`` to a path without it.
    """
    np.savez(path, **arrays)


def save_embedding(embedding: LineEmbedding, path: str | Path) -> None:
    """Write one LINE embedding as ``<path>`` (.npz)."""
    path = Path(path)
    config = asdict(embedding.config)
    write_arrays(
        path,
        vectors=embedding.vectors,
        domains=np.array(embedding.domains, dtype=np.str_),
        kind=np.array(embedding.kind),
        config_json=np.array(json.dumps(config)),
        format_version=np.array(_FORMAT_VERSION),
    )


def load_embedding(path: str | Path) -> LineEmbedding:
    """Read an embedding written by :func:`save_embedding`."""
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported embedding format version {version}"
            )
        config_fields = json.loads(str(archive["config_json"]))
        # Archives written while the SGD inner loop was selectable carry
        # a "kernel" key; there is one loop now, so it is dropped.
        config_fields.pop("kernel", None)
        config = LineConfig(**config_fields)
        return LineEmbedding(
            kind=str(archive["kind"]),
            domains=[str(d) for d in archive["domains"]],
            vectors=np.asarray(archive["vectors"], dtype=np.float64),
            config=config,
        )


def save_feature_space(space: FeatureSpace, directory: str | Path) -> None:
    """Write all three view embeddings under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_embedding(space.query, directory / "query.npz")
    save_embedding(space.ip, directory / "ip.npz")
    save_embedding(space.temporal, directory / "temporal.npz")


def load_feature_space(directory: str | Path) -> FeatureSpace:
    """Read a feature space written by :func:`save_feature_space`."""
    directory = Path(directory)
    return FeatureSpace(
        query=load_embedding(directory / "query.npz"),
        ip=load_embedding(directory / "ip.npz"),
        temporal=load_embedding(directory / "temporal.npz"),
    )


def save_bipartite_graph(
    graph: BipartiteGraph,
    path: str | Path,
    *,
    left_arrays: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write one bipartite graph as ``<path>`` (.npz).

    The columnar representation persists directly: both vertex-table
    interners (values as unicode strings plus a type-code column, so
    integer time-window vertices round-trip without pickle) and the
    deduplicated ``(left_id, right_id)`` edge arrays as ``uint32`` (the
    interner caps ids at 2^32 - 1). ``left_arrays`` passes
    ``graph.left.to_arrays()`` already encoded, so graphs that share one
    domain table encode it once.
    """
    if left_arrays is None:
        left_arrays = graph.left.to_arrays()
    left_values, left_codes = left_arrays
    right_values, right_codes = graph.right.to_arrays()
    lefts, rights = graph.edges.columns()
    write_arrays(
        path,
        kind=np.array(graph.kind),
        left_values=left_values,
        left_codes=left_codes,
        right_values=right_values,
        right_codes=right_codes,
        lefts=lefts.astype(np.uint32),
        rights=rights.astype(np.uint32),
        format_version=np.array(_FORMAT_VERSION),
    )


def load_bipartite_graph(path: str | Path) -> BipartiteGraph:
    """Read a graph written by :func:`save_bipartite_graph`."""
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported bipartite graph format version {version}"
            )
        left = VertexTable.from_arrays(
            archive["left_values"], archive["left_codes"]
        )
        right = VertexTable.from_arrays(
            archive["right_values"], archive["right_codes"]
        )
        # Saved from ``edges.columns()``, so already duplicate-free.
        edges = EdgeList._from_trusted(archive["lefts"], archive["rights"])
        return BipartiteGraph(
            kind=str(archive["kind"]), left=left, right=right, edges=edges
        )


def save_classifier(
    classifier: MaliciousDomainClassifier, path: str | Path
) -> None:
    """Write a fitted classifier as ``<path>`` (.npz, pickle-free).

    The archive holds the complete SVM decision rule — support vectors,
    signed dual coefficients (alpha_i * y_i), bias, kernel parameters —
    plus the calibrated threshold, so a loaded classifier reproduces
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
    params = {
        "c": svm.c,
        "kernel": svm.kernel,
        "gamma": svm.gamma,
        "degree": svm.degree,
        "coef0": svm.coef0,
        "tolerance": svm.tolerance,
        "max_iterations": svm.max_iterations,
        "kernel_cache_mb": svm.kernel_cache_mb,
        # The configured threshold (None = calibrate on fit) and the
        # value that calibration actually produced.
        "threshold": classifier.threshold,
        "threshold_": classifier.threshold_,
    }
    write_arrays(
        path,
        support_vectors=svm._support_vectors,
        dual_coefficients=svm._support_coefficients,
        bias=np.array(svm._bias, dtype=np.float64),
        classes=np.asarray(svm._classes),
        params_json=np.array(json.dumps(params)),
        format_version=np.array(_FORMAT_VERSION),
    )


def load_classifier(path: str | Path) -> MaliciousDomainClassifier:
    """Read a classifier written by :func:`save_classifier`.

    The returned classifier's ``decision_function`` is byte-identical to
    the saved one's: the kernel expansion is recomputed from bit-equal
    float64 support vectors, coefficients, and bias.
    """
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported classifier format version {version}"
            )
        params = json.loads(str(archive["params_json"]))
        threshold = params["threshold"]
        # Archives written before the row-cached solver carry no
        # kernel_cache_mb, and archives written while the solver was
        # selectable carry a "solver" key; neither changes the stored
        # decision rule, so the first defaults and the second is ignored.
        kernel_cache_mb = float(params.get("kernel_cache_mb", DEFAULT_CACHE_MB))
        classifier = MaliciousDomainClassifier(
            c=float(params["c"]),
            gamma=float(params["gamma"]),
            threshold=None if threshold is None else float(threshold),
            kernel_cache_mb=kernel_cache_mb,
        )
        svm = SupportVectorClassifier(
            c=float(params["c"]),
            kernel=str(params["kernel"]),
            gamma=float(params["gamma"]),
            degree=int(params["degree"]),
            coef0=float(params["coef0"]),
            tolerance=float(params["tolerance"]),
            max_iterations=int(params["max_iterations"]),
            kernel_cache_mb=kernel_cache_mb,
        )
        svm._support_vectors = np.asarray(
            archive["support_vectors"], dtype=np.float64
        )
        svm._support_coefficients = np.asarray(
            archive["dual_coefficients"], dtype=np.float64
        )
        svm._bias = float(archive["bias"])
        svm._classes = np.asarray(archive["classes"])
        classifier._svm = svm
        classifier._fitted = True
        classifier.threshold_ = float(params["threshold_"])
        return classifier


def save_scaler(scaler: StandardScaler, path: str | Path) -> None:
    """Write a fitted :class:`StandardScaler` as ``<path>`` (.npz)."""
    if scaler.mean_ is None or scaler.scale_ is None:
        raise NotFittedError("StandardScaler")
    write_arrays(
        path,
        mean=scaler.mean_,
        scale=scaler.scale_,
        format_version=np.array(_FORMAT_VERSION),
    )


def load_scaler(path: str | Path) -> StandardScaler:
    """Read a scaler written by :func:`save_scaler`."""
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(f"unsupported scaler format version {version}")
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(archive["mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(archive["scale"], dtype=np.float64)
        return scaler


def save_similarity_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """Write one similarity graph as ``<path>`` (.npz), ids as ``uint32``."""
    write_arrays(
        path,
        kind=np.array(graph.kind),
        domains=np.array(graph.domains, dtype=np.str_),
        rows=graph.rows.astype(np.uint32),
        cols=graph.cols.astype(np.uint32),
        weights=graph.weights,
        format_version=np.array(_FORMAT_VERSION),
    )


def load_similarity_graph(path: str | Path) -> SimilarityGraph:
    """Read a graph written by :func:`save_similarity_graph`."""
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(f"unsupported graph format version {version}")
        return SimilarityGraph(
            kind=str(archive["kind"]),
            domains=[str(d) for d in archive["domains"]],
            rows=np.asarray(archive["rows"], dtype=np.int64),
            cols=np.asarray(archive["cols"], dtype=np.int64),
            weights=np.asarray(archive["weights"], dtype=np.float64),
        )
