"""Behavioral modeling of domains via bipartite graphs (paper section 4).

Three bipartite graphs capture domain behavior — host-domain interactions
(HDBG), domain-IP resolutions (DIBG), and domain-time activity (DTBG) —
and their one-mode projections onto the domain vertex set yield the
query-behavior, IP-resolving, and temporal similarity graphs whose edge
weights are Jaccard indices (equations 1-3).
"""

from repro.graphs.bipartite import (
    AdjacencyView,
    BipartiteGraph,
    build_domain_ip_graph,
    build_domain_time_graph,
    build_host_domain_graph,
    build_query_graphs,
    fold_columns_into_graphs,
)
from repro.graphs.core import EdgeList, VertexTable
from repro.graphs.pruning import PruningReport, PruningRules, prune_graphs
from repro.graphs.projection import SimilarityGraph, project_to_similarity
from repro.graphs.host_projection import (
    InfectedHostGroup,
    find_infected_host_groups,
    project_hosts,
    transpose_bipartite,
)

__all__ = [
    "AdjacencyView",
    "BipartiteGraph",
    "EdgeList",
    "InfectedHostGroup",
    "PruningReport",
    "PruningRules",
    "SimilarityGraph",
    "VertexTable",
    "find_infected_host_groups",
    "project_hosts",
    "transpose_bipartite",
    "build_domain_ip_graph",
    "build_domain_time_graph",
    "build_host_domain_graph",
    "build_query_graphs",
    "fold_columns_into_graphs",
    "project_to_similarity",
    "prune_graphs",
]
