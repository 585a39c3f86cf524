import pytest

import edgex
from edgex.errors import BadParameterError

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


# each public function that takes a graph first -> the rest of a call
_EMPTY = edgex.Precoloring(1, {})
GRAPH_FIRST = {
    "bipartition": (),
    "max_degree": (),
    "cartesian_product": (edgex.path(2),),
    "konig_color": (),
    "make_list_assignment": ({},),
    "exact_list_color": (edgex.ListAssignment({}),),
    "demand_list_color": (edgex.ListAssignment({}),),
    "verify_proper": (edgex.EdgeColoring(1, {}),),
    "validate_precoloring": (_EMPTY,),
    "reduce_instance": (1, _EMPTY),
    "check_local_obstruction": (_EMPTY,),
    "find_covering_induced_matching": (0,),
    "build_blocked_hub_instance": (edgex.path(3),),
    "decide_extendable": (_EMPTY, 1),
}


@pytest.mark.parametrize("name", sorted(GRAPH_FIRST))
def test_non_graph_is_a_bad_parameter(name):
    # a user error at the boundary, not a bare AttributeError from inside
    with pytest.raises(BadParameterError, match="must be a Graph, got str"):
        getattr(edgex, name)("x", *GRAPH_FIRST[name])
