import edgex

# every public name of the package; adding or removing one is an API change
PUBLIC_NAMES = [
    "Bipartition", "BlockedHubInstance", "ColoringReport", "Edge", "EdgeColoring", "ExplorationReport",
    "Graph", "ListAssignment", "ObstructionCertificate", "Precoloring", "ProductGraph", "ReducedInstance",
    "ValidationReport", "bipartition", "build_blocked_hub_instance", "build_graph", "canonical_edge",
    "cartesian_product", "check_local_obstruction", "complete", "complete_bipartite", "cycle",
    "decide_extendable", "demand_list_color", "exact_list_color", "explore_bipartite_factor",
    "extend_hypercube", "extend_over_complete", "extend_over_hypercube", "extend_over_star",
    "find_covering_induced_matching", "hypercube", "konig_color", "make_list_assignment", "max_degree",
    "one_factorization", "path", "reduce_instance", "spider", "standard_family", "star",
    "validate_precoloring", "verify_proper",
]


def test_public_names_are_pinned():
    assert edgex.__all__ == PUBLIC_NAMES


def test_star_import_binds_no_submodule():
    namespace = {"graph": "the caller's own"}
    exec("from edgex import *", namespace)
    assert namespace["graph"] == "the caller's own"
