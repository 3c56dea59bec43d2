"""Fused minibatch SGD kernel for LINE training.

The training loop in :mod:`repro.embedding.line` decomposes into
independent single-order tasks; :func:`train_order_segment` executes
one. It makes a fused pass per minibatch: all ``negatives`` noise
vertices are drawn in one alias call, the positive and negative
context rows are gathered together as one ``(batch, K+1)`` block,
scores/sigmoids/coefficients are computed in-place on that block, and
the gradient scatter-adds run as segment reductions at C speed instead
of one ``np.add.at`` per negative. Edge orientation is pre-doubled
(each undirected edge appears once per direction at its full weight)
so the per-batch coin-flip pass disappears, and randomness is drawn in
multi-batch chunks to amortize generator overhead. The per-negative
``np.add.at`` loop this repo started with lives on in
``tests/oracles.py`` as the reference the kernel is validated against.

Scatter strategy. ``np.add.at`` applies updates sequentially in input
order, which is exactly what a CSC sparse matrix-times-dense-block
product computes when every update is one matrix entry: with
``A[indices[i], i] = data[i]``, ``out += A @ X`` accumulates
``data[i] * X[i]`` into ``out[indices[i]]`` column by column — the same
additions in the same order, run by compiled code. The kernel uses
scipy's internal ``csc_matvecs``/``csr_matvecs`` routines for this
(they accumulate straight into the output array with no intermediate),
and falls back to ``np.add.at`` when they are unavailable; both paths
produce bit-identical tables. ``np.argsort`` + ``np.add.reduceat`` and
per-dimension ``np.bincount`` were benchmarked as alternatives and
lost: numpy's stable int64 argsort costs more than the whole fused
batch, and bincount materializes per-dimension temporaries whose
final ``out += tmp`` changes summation order.

Determinism: the kernel is a pure function of (arrays, config, rng
state), so for a fixed seed the serial, thread, and process backends
produce byte-identical embeddings. The reference loop draws a different
random stream (per-negative calls instead of chunked two-call
sampling), so the two are *not* comparable bit-for-bit — their scatter
primitives are (see ``tests/test_embedding_kernels.py``), and
end-to-end quality is pinned by the pipeline integration test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.embedding.alias import AliasSampler
from repro.obs.progress import ProgressCallback

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.embedding.line import LineConfig

__all__ = [
    "prepare_edge_arrays",
    "segment_scatter_add",
    "train_order_segment",
]

_SCORE_CLIP = 10.0

# Progress reports per single-order training run ("both" makes two runs,
# so a full train_line reports up to 2x this many epochs).
_REPORTS_PER_ORDER = 10

# Batches of randomness the segment kernel draws per generator call;
# amortizes per-call sampling overhead without changing the batch-level
# update schedule. Part of the kernel's pinned random-stream layout.
_CHUNK_BATCHES = 8

_INT32_MAX = np.iinfo(np.int32).max

try:  # scipy's compiled CSC/CSR accumulation routines (private module).
    from scipy.sparse import _sparsetools

    _HAVE_SPARSETOOLS = callable(
        getattr(_sparsetools, "csc_matvecs", None)
    ) and callable(getattr(_sparsetools, "csr_matvecs", None))
except Exception:  # pragma: no cover - scipy always present in this repo
    _sparsetools = None  # type: ignore[assignment]
    _HAVE_SPARSETOOLS = False


def _index_dtype(*sizes: int) -> type[np.signedinteger]:
    """Narrowest index dtype that can address every given size."""
    return np.int32 if all(size <= _INT32_MAX for size in sizes) else np.int64


def prepare_edge_arrays(
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays and sampling weights in the layout the kernel expects.

    Orientation is pre-doubled: each undirected edge appears once per
    direction, both at the edge's weight, so sampling the doubled table
    is distribution-identical to sample-then-flip (each direction
    carries half the total mass) without spending a random draw or a
    ``np.where`` pass per batch on the flip.

    Returns ``(sources, targets, sample_weights)``; build the edge
    :class:`~repro.embedding.alias.AliasSampler` over ``sample_weights``.
    Callers on the shared-memory path ship exactly these arrays so
    worker processes train on the same bytes the serial path uses.
    """
    node_bound = int(max(rows.max(), cols.max())) + 1 if rows.size else 0
    dtype = _index_dtype(node_bound)
    sources = np.concatenate([rows, cols]).astype(dtype, copy=False)
    targets = np.concatenate([cols, rows]).astype(dtype, copy=False)
    doubled = np.concatenate([weights, weights]).astype(np.float64, copy=False)
    return sources, targets, doubled


def segment_scatter_add(
    out: np.ndarray, indices: np.ndarray, updates: np.ndarray
) -> None:
    """``out[indices[i]] += updates[i]`` with ``np.add.at`` semantics.

    Duplicate indices accumulate sequentially in input order — the same
    additions in the same order as ``np.add.at``, so results match it
    bit for bit — but through a compiled CSC product instead of the
    ufunc inner loop, which is an order of magnitude faster for the
    row-block updates LINE performs.
    """
    count = int(indices.shape[0])
    if count == 0:
        return
    if not _HAVE_SPARSETOOLS:  # pragma: no cover - scipy always present
        np.add.at(out, indices, updates)
        return
    indices = np.ascontiguousarray(indices)
    indptr = np.arange(count + 1, dtype=indices.dtype)
    _sparsetools.csc_matvecs(
        out.shape[0],
        count,
        out.shape[1],
        indptr,
        indices,
        np.ones(count),
        np.ascontiguousarray(updates),
        out,
    )


class _ProgressMeter:
    """Progress/loss cadence of one training run.

    Reports ``on_epoch`` about :data:`_REPORTS_PER_ORDER` times per
    order at fixed sample-count thresholds (the last one equals
    ``total_samples`` so the final batch always reports), passing the
    mean per-batch loss since the previous report. Instantiated only
    when a callback is present — with ``progress=None`` the kernel
    skips all loss bookkeeping.
    """

    __slots__ = (
        "_progress",
        "_thresholds",
        "_next",
        "_offset",
        "_total",
        "_loss_sum",
        "_terms",
    )

    def __init__(
        self,
        progress: ProgressCallback,
        total_samples: int,
        epoch_offset: int,
        epoch_total: int,
    ) -> None:
        self._progress = progress
        self._thresholds = [
            max(1, round(total_samples * i / _REPORTS_PER_ORDER))
            for i in range(1, _REPORTS_PER_ORDER + 1)
        ]
        self._next = 0
        self._offset = epoch_offset
        self._total = epoch_total
        self._loss_sum = 0.0
        self._terms = 0

    def update(self, drawn: int, batch_loss: float) -> None:
        """Fold one batch's loss in; report if a threshold was crossed."""
        self._loss_sum += batch_loss
        self._terms += 1
        if self._next < len(self._thresholds) and drawn >= self._thresholds[
            self._next
        ]:
            while (
                self._next < len(self._thresholds)
                and drawn >= self._thresholds[self._next]
            ):
                self._next += 1
            self._progress.on_epoch(
                self._offset + self._next,
                self._total,
                self._loss_sum / self._terms,
            )
            self._loss_sum = 0.0
            self._terms = 0


def _resolve_batch_size(config_batch: int, node_count: int) -> int:
    # Cap the minibatch relative to graph size: a batch much larger than
    # the vertex set applies hundreds of stale-gradient updates to each
    # vector at once, which overshoots and collapses small graphs.
    return min(config_batch, max(32, 4 * node_count))


def train_order_segment(
    sources: np.ndarray,
    targets: np.ndarray,
    edge_sampler: AliasSampler,
    noise_sampler: AliasSampler,
    node_count: int,
    dimension: int,
    use_context: bool,
    config: "LineConfig",
    rng: np.random.Generator,
    total_samples: int,
    progress: ProgressCallback | None = None,
    epoch_offset: int = 0,
    epoch_total: int = 0,
) -> np.ndarray:
    """Train one proximity order; returns the vertex embedding matrix.

    ``use_context=True`` trains second-order proximity with separate
    context vectors; ``False`` trains first-order with shared vectors.
    ``sources``/``targets``/``edge_sampler`` must come from
    :func:`prepare_edge_arrays` (pre-doubled orientation). Per batch
    the loop runs one gather of the positive and all ``K`` negative
    context rows, one score/sigmoid pass on the ``(batch, K+1)`` block,
    and three compiled segment reductions (gradient-to-source, rank-1
    scatter to the context table, row scatter to the vertex table).

    When ``progress`` is given, the loop additionally tracks the running
    negative-sampling loss and reports ``on_epoch`` about
    ``_REPORTS_PER_ORDER`` times over the run (``epoch_offset`` /
    ``epoch_total`` stitch the two runs of ``order="both"`` into one
    sequence). With ``progress=None`` no loss terms are computed at all.
    """
    dtype = _index_dtype(node_count, edge_sampler.size)
    vertex = (rng.uniform(-0.5, 0.5, size=(node_count, dimension))) / dimension
    context = (
        np.zeros((node_count, dimension))
        if use_context
        else vertex  # first order: both sides share the same table
    )

    batch_size = _resolve_batch_size(config.batch_size, node_count)
    negatives = config.negatives
    cols = negatives + 1
    meter = (
        _ProgressMeter(progress, total_samples, epoch_offset, epoch_total)
        if progress is not None
        else None
    )

    # Per-run constants and reusable buffers (sliced for the tail batch).
    indptr_ctx = np.arange(batch_size + 1, dtype=dtype) * cols
    indptr_row = np.arange(batch_size + 1, dtype=dtype)
    entry_seq = np.arange(batch_size * cols, dtype=dtype)
    ones = np.ones(batch_size)
    ctx_idx_buf = np.empty((batch_size, cols), dtype=dtype)
    scores_buf = np.empty((batch_size, cols))
    grad_buf = np.empty((batch_size, dimension))
    edge_prob = edge_sampler.probabilities
    edge_alias = edge_sampler.aliases.astype(dtype, copy=False)
    noise_prob = noise_sampler.probabilities
    noise_alias = noise_sampler.aliases.astype(dtype, copy=False)
    edge_slots = edge_sampler.size
    noise_slots = noise_sampler.size
    inv_total = 1.0 / total_samples

    drawn = 0
    while drawn < total_samples:
        # One chunk of randomness covers several batches: two generator
        # calls instead of 2 + negatives per batch. The batch schedule
        # (and therefore the update sequence) is unchanged.
        span = min(_CHUNK_BATCHES * batch_size, total_samples - drawn)
        slots = rng.integers(0, edge_slots, size=span, dtype=dtype)
        accept = rng.uniform(size=span) < np.take(edge_prob, slots)
        edge_ids = np.where(accept, slots, np.take(edge_alias, slots))
        slots = rng.integers(0, noise_slots, size=span * negatives, dtype=dtype)
        accept = rng.uniform(size=span * negatives) < np.take(noise_prob, slots)
        noise_ids = np.where(accept, slots, np.take(noise_alias, slots))

        offset = 0
        while offset < span:
            batch = min(batch_size, span - offset)
            lr = config.initial_lr * max(1e-4, 1.0 - drawn * inv_total)
            u = np.take(sources, edge_ids[offset : offset + batch])
            ctx_idx = ctx_idx_buf[:batch]
            ctx_idx[:, 0] = np.take(targets, edge_ids[offset : offset + batch])
            ctx_idx[:, 1:] = noise_ids[
                offset * negatives : (offset + batch) * negatives
            ].reshape(batch, negatives)
            flat_idx = ctx_idx.ravel()

            # Gather once: source rows plus positive + negative context
            # rows as one (batch, K+1, dim) block.
            vu = np.take(vertex, u, axis=0)
            ctx_flat = np.take(context, flat_idx, axis=0)
            ctx = ctx_flat.reshape(batch, cols, dimension)
            scores = scores_buf[:batch]
            np.einsum("bd,bkd->bk", vu, ctx, out=scores)
            np.clip(scores, -_SCORE_CLIP, _SCORE_CLIP, out=scores)
            if meter is not None:
                # -log sigma(x) = log1p(e^-x); column 0 is the positive
                # pair (label 1), the rest negatives (label 0). Computed
                # from the clipped scores before they are destroyed.
                signed = scores.copy()
                signed[:, 0] = -signed[:, 0]
                batch_loss = float(
                    np.log1p(np.exp(signed)).mean(axis=0).sum()
                )
            # In-place coefficient chain: scores becomes
            # (label - sigma(score)) * lr with label folded in, so the
            # scatters below add directly (no negation temporaries).
            np.negative(scores, out=scores)
            np.exp(scores, out=scores)
            scores += 1.0
            np.divide(-lr, scores, out=scores)
            coeff = scores
            coeff[:, 0] += lr

            # grad[b] = sum_k coeff[b,k] * ctx[b,k]: a block-diagonal
            # CSR product accumulating straight into the buffer.
            grad = grad_buf[:batch]
            if _HAVE_SPARSETOOLS:
                grad[...] = 0.0
                _sparsetools.csr_matvecs(
                    batch,
                    batch * cols,
                    dimension,
                    indptr_ctx[: batch + 1],
                    entry_seq[: batch * cols],
                    coeff.ravel(),
                    ctx_flat,
                    grad,
                )
                # Rank-1 scatter: context[flat_idx[i]] +=
                # coeff.flat[i] * vu[i // cols], as a CSC product with
                # K+1 entries per column — never materializes the
                # (batch*(K+1), dim) outer product.
                table = context if use_context else vertex
                _sparsetools.csc_matvecs(
                    node_count,
                    batch,
                    dimension,
                    indptr_ctx[: batch + 1],
                    flat_idx,
                    coeff.ravel(),
                    vu,
                    table,
                )
                _sparsetools.csc_matvecs(
                    node_count,
                    batch,
                    dimension,
                    indptr_row[: batch + 1],
                    u,
                    ones[:batch],
                    grad,
                    vertex,
                )
            else:  # pragma: no cover - exercised via direct tests only
                grad[...] = 0.0
                for k in range(cols):
                    grad += coeff[:, k, None] * ctx[:, k, :]
                table = context if use_context else vertex
                np.add.at(
                    table,
                    flat_idx,
                    (coeff[:, :, None] * vu[:, None, :]).reshape(
                        batch * cols, dimension
                    ),
                )
                np.add.at(vertex, u, grad)

            offset += batch
            drawn += batch
            if meter is not None:
                meter.update(drawn, batch_loss)
    return vertex
