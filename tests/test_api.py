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


# a panel of wrong values; a slot refuses every one its type does not admit
_G = edgex.path(2)
_COL = edgex.EdgeColoring(2, {(0, 1): 1})
PANEL = ("x", None, 1.5, True, -1, [], _G)
NOT_NONE = tuple(v for v in PANEL if v is not None)
NOT_ITERABLE = (None, 1.5, True, -1, _G)
# (function, the call with the bad value in one slot, that slot, the message's
# wanted type, the panel values it must refuse)
RECORD_SLOTS = [
    ("extend_hypercube", lambda bad: edgex.extend_hypercube(1, bad), "pre", "a Precoloring", PANEL),
    ("extend_over_complete", lambda bad: edgex.extend_over_complete(_G, 1, bad), "pre", "a Precoloring", PANEL),
    ("extend_over_hypercube", lambda bad: edgex.extend_over_hypercube(_G, 1, bad), "pre", "a Precoloring", PANEL),
    ("extend_over_star", lambda bad: edgex.extend_over_star(_G, 1, bad), "pre", "a Precoloring", PANEL),
    ("validate_precoloring", lambda bad: edgex.validate_precoloring(_G, bad), "pre", "a Precoloring", PANEL),
    ("reduce_instance", lambda bad: edgex.reduce_instance(_G, 1, bad), "pre", "a Precoloring", PANEL),
    ("decide_extendable", lambda bad: edgex.decide_extendable(_G, bad, 1), "pre", "a Precoloring", PANEL),
    ("check_local_obstruction", lambda bad: edgex.check_local_obstruction(_G, bad), "pre", "a Precoloring", PANEL),
    ("verify_proper", lambda bad: edgex.verify_proper(_G, bad), "col", "an EdgeColoring", PANEL),
    ("verify_proper", lambda bad: edgex.verify_proper(_G, _COL, bad), "lists", "a ListAssignment", NOT_NONE),
    ("verify_proper", lambda bad: edgex.verify_proper(_G, _COL, None, bad), "prescribed", "a mapping", NOT_NONE),
    ("demand_list_color", lambda bad: edgex.demand_list_color(_G, bad), "lists", "a ListAssignment", PANEL),
    ("exact_list_color", lambda bad: edgex.exact_list_color(_G, bad), "lists", "a ListAssignment", PANEL),
    ("make_list_assignment", lambda bad: edgex.make_list_assignment(_G, bad), "lists", "a mapping", PANEL),
    ("ListAssignment", lambda bad: edgex.ListAssignment(bad), "lists", "a mapping", PANEL),
    ("build_graph", lambda bad: edgex.build_graph(bad, []), "labels", "iterable", NOT_ITERABLE),
    ("build_graph", lambda bad: edgex.build_graph([], bad), "pairs", "iterable", NOT_ITERABLE),
    ("standard_family", lambda bad: edgex.standard_family(bad, 1), "kind", "a str", ([],) + NOT_ITERABLE),
]


@pytest.mark.parametrize(
    "call, slot, wanted, values", [row[1:] for row in RECORD_SLOTS], ids=[f"{r[0]}-{r[2]}" for r in RECORD_SLOTS]
)
def test_wrong_record_is_a_bad_parameter(call, slot, wanted, values):
    # each message names the slot and the type it got, where a bare
    # AttributeError or TypeError came from inside
    for bad in values:
        with pytest.raises(BadParameterError, match=f"^{slot} must be {wanted}, got {type(bad).__name__}$"):
            call(bad)
