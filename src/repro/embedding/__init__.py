"""Graph embedding: LINE (paper section 5) and t-SNE (section 7.3)."""

from repro.embedding.alias import AliasSampler
from repro.embedding.deepwalk import DeepWalkConfig, train_deepwalk
from repro.embedding.kernels import segment_scatter_add
from repro.embedding.line import LineConfig, LineEmbedding, train_line
from repro.embedding.tsne import TsneConfig, tsne_embed

__all__ = [
    "AliasSampler",
    "DeepWalkConfig",
    "LineConfig",
    "LineEmbedding",
    "TsneConfig",
    "segment_scatter_add",
    "train_deepwalk",
    "train_line",
    "tsne_embed",
]
