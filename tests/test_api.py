import inspect
import types

import pytest

import edgex
from edgex.cli import main
from edgex.errors import BadParameterError, EdgexError

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
    ("Graph", lambda bad: edgex.Graph(bad, ()), "labels", "a tuple", PANEL),
    ("Graph", lambda bad: edgex.Graph((), bad), "edges", "a tuple", PANEL),
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


# every bounded integer parameter one below its bound: (the call, its message);
# the CLI row returns its exit status and prints the message
_LIST = edgex.ListAssignment({(0, 1): (1,)})
BELOW_BOUND = [
    ("complete-n", lambda: edgex.complete(0), "n must be >= 1, got 0"),
    ("complete_bipartite-n", lambda: edgex.complete_bipartite(0, 1), "n must be >= 1, got 0"),
    ("complete_bipartite-m", lambda: edgex.complete_bipartite(1, 0), "m must be >= 1, got 0"),
    ("star-m", lambda: edgex.star(0), "m must be >= 1, got 0"),
    ("path-n", lambda: edgex.path(0), "n must be >= 1, got 0"),
    ("cycle-n", lambda: edgex.cycle(2), "n must be >= 3, got 2"),
    ("hypercube-d", lambda: edgex.hypercube(-1), "d must be >= 0, got -1"),
    ("spider-legs", lambda: edgex.spider(0, 1), "legs must be >= 1, got 0"),
    ("spider-leg_length", lambda: edgex.spider(1, 0), "leg_length must be >= 1, got 0"),
    ("extend_hypercube-d", lambda: edgex.extend_hypercube(0, _EMPTY), "d must be >= 1, got 0"),
    ("extend_over_complete-m", lambda: edgex.extend_over_complete(_G, 0, _EMPTY), "m must be >= 1, got 0"),
    ("extend_over_hypercube-m", lambda: edgex.extend_over_hypercube(_G, 0, _EMPTY), "m must be >= 1, got 0"),
    ("extend_over_star-m", lambda: edgex.extend_over_star(_G, 0, _EMPTY), "m must be >= 1, got 0"),
    ("reduce_instance-m", lambda: edgex.reduce_instance(_G, 0, _EMPTY), "m must be >= 1, got 0"),
    ("exact_list_color-budget", lambda: edgex.exact_list_color(_G, _LIST, -1), "budget must be >= 0, got -1"),
    ("decide_extendable-budget", lambda: edgex.decide_extendable(_G, _EMPTY, 1, -1), "budget must be >= 0, got -1"),
    ("explore_bipartite_factor-m", lambda: edgex.explore_bipartite_factor(_G, 1, 0, 5), "m must be >= 1, got 0"),
    ("explore_bipartite_factor-budget", lambda: edgex.explore_bipartite_factor(_G, 1, 1, 0),
     "budget must be >= 1, got 0"),
    ("explore_bipartite_factor-n", lambda: edgex.explore_bipartite_factor(_G, 1, 2, 5), "n must be >= 2, got 1"),
    ("cli-build-path", lambda: main(["build", "path:0"]), "n must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in BELOW_BOUND], ids=[row[0] for row in BELOW_BOUND])
def test_one_below_each_bound_is_a_bad_parameter(call, message, capsys):
    # every range check of an integer argument has one message shape
    try:
        status = call()
    except BadParameterError as exc:
        assert str(exc) == message
    else:
        assert status == 1
        assert f"error: {message}\n" in capsys.readouterr().err


# one valid call of every public callable, every parameter given (a
# var-positional one as its values); the contract test below swaps each
# argument in turn for each value of CONTRACT_PANEL
_P3 = edgex.path(3)
_HUB = edgex.build_blocked_hub_instance(edgex.path(5), edgex.spider(3, 2))
_P3_LISTS = edgex.ListAssignment({(0, 1): (1, 2), (1, 2): (1, 2)})
_P3_COL = edgex.EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
_P3_PRE = edgex.Precoloring(3, {(0, 2): 3})  # a layer entry of P_3 x K_2, Q_1 and K_1,1
VALID_CALLS = {
    "Bipartition": (("X", "Y", "X"),),
    "BlockedHubInstance": (_HUB.product, _HUB.precoloring, _HUB.hub, _HUB.g_matching, _HUB.h_matching),
    "ColoringReport": ((), (), (), (), ()),
    "Edge": None,  # a type alias, not called
    "EdgeColoring": (2, {(0, 1): 1}),
    "ExplorationReport": (1, 1, (), 1, 0, True),
    "Graph": (("a", "b"), ((0, 1),)),
    "ListAssignment": ({(0, 1): (1,)},),
    "ObstructionCertificate": (0, 1, {}),
    "Precoloring": (3, {(0, 1): 1}),
    "ProductGraph": (_P3, 3, 1),
    "ReducedInstance": (_P3, _P3_LISTS, {}, {}),
    "ValidationReport": ((), ()),
    "bipartition": (_P3,),
    "build_blocked_hub_instance": (edgex.path(5), edgex.spider(3, 2)),
    "build_graph": (["a", "b"], [(1, 0)]),
    "canonical_edge": (1, 0),
    "cartesian_product": (_P3, edgex.path(2)),
    "check_local_obstruction": (_HUB.product, _HUB.precoloring),
    "complete": (4,),
    "complete_bipartite": (2, 1),
    "cycle": (4,),
    "decide_extendable": (_HUB.product.graph, _HUB.precoloring, _HUB.precoloring.palette_size, 1000),
    "demand_list_color": (_P3, _P3_LISTS),
    "exact_list_color": (_P3, _P3_LISTS, 100),
    "explore_bipartite_factor": (edgex.path(2), 2, 1, 20, 1),
    "extend_hypercube": (3, edgex.Precoloring(3, {(0, 1): 2})),
    "extend_over_complete": (_P3, 1, _P3_PRE),
    "extend_over_hypercube": (_P3, 1, _P3_PRE),
    "extend_over_star": (_P3, 1, _P3_PRE),
    "find_covering_induced_matching": (edgex.path(5), 2),
    "hypercube": (3,),
    "konig_color": (_P3,),
    "make_list_assignment": (_P3, {(0, 1): [2, 1], (1, 2): {1}}),
    "max_degree": (_P3,),
    "one_factorization": (4,),
    "path": (3,),
    "reduce_instance": (_P3, 1, _P3_PRE),
    "spider": (2, 2),
    "standard_family": ("path", 3),
    "star": (2,),
    "validate_precoloring": (_HUB.product, _HUB.precoloring),
    "verify_proper": (_P3, _P3_COL, _P3_LISTS, {(1, 0): 1}),
}
# each wrong value: None, a str, a float, a bool, a negative int, a list,
# and a Graph where something else is expected; every value but the Graph
# is a non-graph where a Graph is expected
CONTRACT_PANEL = (None, "x", 1.5, True, -1, [], edgex.path(2))


def test_every_public_callable_has_a_valid_call():
    assert list(VALID_CALLS) == edgex.__all__
    for name, args in VALID_CALLS.items():
        f = getattr(edgex, name)
        if args is None:
            assert isinstance(f, types.GenericAlias)
            continue
        signature = inspect.signature(f)
        # every parameter is given, so each is swapped in turn
        assert set(signature.bind(*args).arguments) == set(signature.parameters), name
        f(*args)


@pytest.mark.parametrize("name", [name for name, args in VALID_CALLS.items() if args is not None])
def test_no_panel_value_escapes_as_a_bare_exception(name):
    # one argument at a time takes each panel value; the call succeeds or
    # raises an EdgexError, never a bare TypeError, AttributeError or the like
    f, args = getattr(edgex, name), VALID_CALLS[name]
    for at in range(len(args)):
        for bad in CONTRACT_PANEL:
            call = (*args[:at], bad, *args[at + 1 :])
            try:
                f(*call)
            except EdgexError:
                pass
            except Exception as exc:
                pytest.fail(f"{name} with argument {at} = {bad!r} raised {type(exc).__name__}: {exc}")
