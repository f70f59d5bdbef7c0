"""Exact domination analysis for small graphs.

The package computes domination numbers with certified witnesses,
classifies every vertex by how deletion changes the domination number
and by its role across all minimum dominating sets, recognizes the
graph classes for which sharper statements hold, enumerates connected
graphs up to isomorphism, searches them for prescribed vertex-partition
signatures, and verifies the whole stack against brute-force oracles.
"""

from .classify import (
    ClassificationReport,
    MembershipClass,
    RemovalClass,
    VertexClassification,
    classify_all,
    classify_by_enumeration,
    classify_vertex,
)
from .enumeration import (
    count_connected_graphs,
    count_graphs,
    enumerate_connected,
    enumerate_trees,
)
from .graph import (
    Graph,
    GraphError,
    add_pendant,
    add_vertex,
    build_graph,
    delete_vertex,
    parse_edge_list,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .recognize import (
    TwinCliquePartition,
    class_flags,
    contains_induced,
    is_bipartite,
    is_chordal,
    is_claw_free,
    is_cograph,
    is_tree,
    twin_clique_partition,
)
from .search import (
    SIGNATURES,
    PartitionSignature,
    SearchResult,
    search_signature,
)
from .solve import (
    DominationReport,
    all_minimum_dominating_sets,
    core_and_corona,
    gamma_exact,
    gamma_value,
    independence_number,
    independent_domination_number,
)
from .verify import VerifyReport, verify_corpus

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "DominationReport",
    "Graph",
    "Graph6Error",
    "GraphError",
    "MembershipClass",
    "PartitionSignature",
    "RemovalClass",
    "SIGNATURES",
    "SearchResult",
    "TwinCliquePartition",
    "VerifyReport",
    "VertexClassification",
    "add_pendant",
    "add_vertex",
    "all_minimum_dominating_sets",
    "build_graph",
    "class_flags",
    "classify_all",
    "classify_by_enumeration",
    "classify_vertex",
    "contains_induced",
    "core_and_corona",
    "count_connected_graphs",
    "count_graphs",
    "delete_vertex",
    "enumerate_connected",
    "enumerate_trees",
    "gamma_exact",
    "gamma_value",
    "independence_number",
    "independent_domination_number",
    "is_bipartite",
    "is_chordal",
    "is_claw_free",
    "is_cograph",
    "is_tree",
    "parse_edge_list",
    "parse_graph6",
    "search_signature",
    "twin_clique_partition",
    "verify_corpus",
    "write_graph6",
]
