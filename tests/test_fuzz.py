"""Structural fuzzing of the CLI, the four extend_* entry points, the
oracle's decide_extendable, explore_bipartite_factor and blocked-hub side
(find_covering_induced_matching, build_blocked_hub_instance,
check_local_obstruction), and the list coloring calls
(make_list_assignment, demand_list_color, exact_list_color) with
verify_proper.

Valid documents of small graphs (a base graph, a one-entry precoloring in
the product's palette, the extended coloring) are mutated: values of the
wrong type, bools, zero or negative integers, deleted fields, duplicated
rows, rows naming unknown edges and palettes near the valid one. Whatever
comes in, only an EdgexError may leave the library, the CLI must exit with
a code in 0..5, and input from a user never counts as an internal invariant
violation (exit 3). Integers stay small, except the oracle's palettes, up
to 10**8: its search domains do not grow with the palette. Oversized graph
parameters are the size guard's tests.
"""

import copy
import functools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edgex import (
    EdgeColoring,
    ListAssignment,
    Precoloring,
    build_blocked_hub_instance,
    build_graph,
    cartesian_product,
    check_local_obstruction,
    complete,
    complete_bipartite,
    cycle,
    decide_extendable,
    demand_list_color,
    exact_list_color,
    explore_bipartite_factor,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    find_covering_induced_matching,
    hypercube,
    make_list_assignment,
    max_degree,
    path,
    spider,
    star,
    verify_proper,
)
from edgex.cli import EXIT_INTERNAL, main
from edgex.errors import EdgexError, InternalInvariantError
from edgex.serialize import (
    coloring_to_dict,
    graph_from_dict,
    graph_to_dict,
    precoloring_to_dict,
    write_doc,
)

# (base graph, factor kind, parameter): the base is None for qd:D
CASES = [
    (path(3), "k2m", 1),
    (cycle(4), "k2m", 1),
    (path(2), "k2m", 2),
    (path(3), "q", 2),
    (star(2), "star", 2),
    (None, "qd", 3),
]

EXTEND = {
    "k2m": extend_over_complete,
    "q": extend_over_hypercube,
    "star": extend_over_star,
}


@functools.cache
def _case(index):
    """The case's product, palette, valid one-entry precoloring and the
    coloring that extends it."""
    g, kind, value = CASES[index]
    if kind == "qd":
        product, palette = hypercube(value), value
    else:
        right = {"k2m": complete(2 * value), "q": hypercube(value), "star": star(value)}[kind]
        product = cartesian_product(g, right).graph
        palette = max_degree(g) + (2 * value - 1 if kind == "k2m" else value)
    pre = Precoloring(palette, {product.edges[len(product.edges) // 2]: 1})
    col = extend_hypercube(value, pre) if kind == "qd" else EXTEND[kind](g, value, pre)
    return product, palette, pre, col


small_ints = st.integers(-2, 6)
atoms = st.one_of(
    small_ints,
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.floats(-2, 6, allow_nan=False),
)
json_values = st.one_of(atoms, st.lists(atoms, max_size=3), st.dictionaries(st.text(max_size=2), atoms, max_size=2))
MUTATIONS = ("replace", "delete", "duplicate", "unknown_edge", "palette")


def _paths(doc, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(data, doc):
    """Apply one drawn structural mutation to a copy of doc."""
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "palette" and type(doc.get("palette_size")) is int:
        doc["palette_size"] += data.draw(st.integers(-2, 2))
        return doc
    if kind == "unknown_edge":
        u, v = data.draw(small_ints), data.draw(st.integers(-2, 12))
        for key in ("edges", "entries", "assignment"):
            if isinstance(doc.get(key), list):
                row = [u, v] if key == "edges" else {"u": u, "v": v, "color": data.draw(small_ints)}
                doc[key].append(row)
        return doc
    paths = list(_paths(doc))
    if not paths:
        return doc
    *parent_path, key = data.draw(st.sampled_from(paths))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[key] = data.draw(json_values)
    return doc


def _mutated(data, doc):
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(data, doc)
    return doc


# blocked-hub factors: the first three have a covering induced matching at a
# maximum-degree vertex, the rest do not or are not bipartite
HUB_FACTORS = [path(1), path(5), spider(3, 2), path(3), cycle(4), cycle(3), build_graph("", [])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_on_mutated_documents(data):
    index = data.draw(st.integers(0, len(CASES) - 1))
    product, palette, pre, col = _case(index)
    g, kind, value = CASES[index]
    graph_doc = _mutated(data, graph_to_dict(product if g is None else g, "g"))
    pre_doc = _mutated(data, precoloring_to_dict(pre))
    command = data.draw(st.sampled_from(["extend", "verify", "oracle", "counterexample"]))
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp, f"{name}.json")) for name in ("graph", "pre", "coloring", "product", "right")}
        write_doc(files["graph"], graph_doc)
        write_doc(files["pre"], pre_doc)
        if command == "extend":
            factor = data.draw(st.one_of(st.just(f"{kind}:{value}"), st.sampled_from([f"{kind}:0", "qd:2", "star:1"])))
            argv = ["extend", "--factor", factor, "--pre", files["pre"]]
            if data.draw(st.booleans()) or kind != "qd":
                argv.insert(1, files["graph"])
        elif command == "verify":
            write_doc(files["coloring"], _mutated(data, coloring_to_dict(col)))
            write_doc(files["product"], _mutated(data, graph_to_dict(product, "p")))
            argv = ["verify", files["product"], files["coloring"]]
            if data.draw(st.booleans()):
                argv += ["--pre", files["pre"]]
        elif command == "counterexample":
            for name in ("graph", "right"):  # each factor mutated half of the time
                doc = graph_to_dict(data.draw(st.sampled_from(HUB_FACTORS)), name)
                write_doc(files[name], _mutated(data, doc) if data.draw(st.booleans()) else doc)
            argv = ["counterexample", files["graph"], files["right"], "--out-prefix", str(Path(tmp, "hub"))]
        else:
            write_doc(files["product"], _mutated(data, graph_to_dict(product, "p")))
            argv = ["oracle", files["product"], files["pre"], "--budget", str(data.draw(st.integers(-1, 2000)))]
            if data.draw(st.booleans()):
                argv += ["--palette", str(palette + data.draw(st.integers(-2, 2)))]
        code = main(argv)
    assert 0 <= code <= 5 and code != EXIT_INTERNAL, (argv, code)


entry_keys = st.one_of(
    st.tuples(atoms, atoms),
    st.tuples(small_ints, st.integers(-2, 12)),
    st.tuples(small_ints, small_ints, small_ints),
    atoms,
)


def _mutated_entries(data, product, palette, entries):
    """A copy of entries with up to three keys added, recolored or deleted."""
    entries = dict(entries)
    for _ in range(data.draw(st.integers(0, 3))):
        key = data.draw(st.one_of(st.sampled_from(product.edges), entry_keys))
        if data.draw(st.booleans()) and key in entries:
            del entries[key]
        else:
            entries[key] = data.draw(st.one_of(st.integers(-1, palette + 2), atoms))
    return entries


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extend_on_mutated_input(data):
    index = data.draw(st.integers(0, len(CASES) - 1))
    product, palette, pre, _col = _case(index)
    g, kind, value = CASES[index]
    # each part is kept valid half of the time, so that some calls pass
    # every check and the rest fail at different stages
    def kept_or(valid, strategy):
        return valid if data.draw(st.booleans()) else data.draw(strategy)

    entries = _mutated_entries(data, product, palette, pre.entries)
    palette_size = kept_or(palette, st.one_of(st.integers(palette - 2, palette + 2), atoms))
    parameter = kept_or(value, st.one_of(small_ints, atoms))
    try:
        if g is None or not data.draw(st.integers(0, 3)):
            extend_hypercube(parameter, Precoloring(palette_size, entries))
        else:
            try:
                _name, g = graph_from_dict(_mutated(data, graph_to_dict(g, "g")))
            except EdgexError:
                pass
            EXTEND[kind](g, parameter, Precoloring(palette_size, entries))
    except EdgexError as exc:
        assert not isinstance(exc, InternalInvariantError), exc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decide_extendable_on_mutated_input(data):
    index = data.draw(st.integers(0, len(CASES) - 1))
    product, palette, pre, _col = _case(index)
    palette = data.draw(st.one_of(st.integers(palette - 2, palette + 2), st.integers(1, 10**8), st.just(10**8), atoms))
    entries = _mutated_entries(data, product, palette if type(palette) is int else 3, pre.entries)
    budget = data.draw(st.one_of(st.none(), st.integers(0, 200), st.integers(-2, -1), atoms))
    try:
        decide_extendable(product, Precoloring(palette, entries), palette, budget)
    except EdgexError as exc:
        assert not isinstance(exc, InternalInvariantError), exc


def _mutated_graph(data, g):
    """g, or a graph read from a mutation of its document when that parses."""
    try:
        return graph_from_dict(_mutated(data, graph_to_dict(g, "g")))[1]
    except EdgexError:
        return g


EXPLORE_FACTORS = [path(2), path(3), cycle(4), star(2), cycle(3), build_graph("", []), build_graph("ab", [])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_explore_on_mutated_input(data):
    g = _mutated_graph(data, data.draw(st.sampled_from(EXPLORE_FACTORS)))
    # each parameter is kept valid half of the time, so that some sweeps
    # sample, the only path that reads the seed
    def kept_or(valid, strategy):
        return valid if data.draw(st.booleans()) else data.draw(strategy)

    n, m = (kept_or(valid, st.one_of(st.integers(-1, 3), atoms)) for valid in (2, 1))
    budget = kept_or(5, st.one_of(st.integers(-1, 30), atoms))
    try:
        explore_bipartite_factor(g, n, m, budget, data.draw(st.one_of(st.integers(-(2**64), 2**64), json_values)))
    except EdgexError as exc:
        assert not isinstance(exc, InternalInvariantError), exc


@functools.cache
def _hub_instance():
    return build_blocked_hub_instance(path(5), spider(3, 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocked_hub_on_mutated_input(data):
    g, h = (_mutated_graph(data, data.draw(st.sampled_from(HUB_FACTORS))) for _ in range(2))
    # each part is kept valid half of the time, so that some certificates
    # are found and the rest fail at different checks
    def kept_or(valid, strategy):
        return valid if data.draw(st.booleans()) else data.draw(strategy)

    inst = _hub_instance()
    pre = inst.precoloring
    entries = _mutated_entries(data, inst.product.graph, pre.palette_size, pre.entries)
    palette = kept_or(pre.palette_size, st.one_of(st.integers(-1, pre.palette_size + 2), atoms))
    calls = (
        lambda: find_covering_induced_matching(g, data.draw(st.one_of(st.integers(-1, 10), atoms))),
        lambda: build_blocked_hub_instance(g, h),
        lambda: check_local_obstruction(kept_or(inst.product, st.sampled_from([g, h])), Precoloring(palette, entries)),
    )
    for call in calls:
        try:
            call()
        except EdgexError as exc:
            assert not isinstance(exc, InternalInvariantError), exc


LIST_GRAPHS = [path(3), cycle(4), star(3), complete_bipartite(2, 3), cycle(3), build_graph("ab", [])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_list_coloring_on_mutated_input(data):
    g = data.draw(st.sampled_from(LIST_GRAPHS))
    # each part is kept valid half of the time, so that some calls color
    # (lists of every size, below demand included) and the rest fail at
    # different checks
    def kept_or(valid, strategy):
        return valid if data.draw(st.booleans()) else data.draw(strategy)

    lists = {}
    for e in g.edges:
        if data.draw(st.integers(0, 9)):  # now and then an edge without a list
            valid = tuple(data.draw(st.lists(st.integers(1, 6), unique=True, max_size=4)))
            lists[e] = kept_or(valid, st.one_of(json_values, st.tuples(atoms, atoms), st.just(valid * 2)))
    if data.draw(st.booleans()):
        lists[data.draw(entry_keys)] = data.draw(json_values)
    colors = {e: kept_or(data.draw(st.integers(1, 4)), json_values) for e in g.edges}
    if data.draw(st.booleans()):
        colors[data.draw(entry_keys)] = data.draw(json_values)
    palette = kept_or(4, json_values)
    budget = kept_or(None, st.one_of(st.integers(-1, 50), atoms))
    calls = (
        lambda: make_list_assignment(g, lists),
        lambda: demand_list_color(g, ListAssignment(lists)),
        lambda: exact_list_color(g, ListAssignment(lists), budget),
        lambda: verify_proper(g, EdgeColoring(palette, colors)),
        lambda: verify_proper(g, EdgeColoring(palette, colors), ListAssignment(lists)),
    )
    for call in calls:
        try:
            call()
        except EdgexError as exc:
            assert not isinstance(exc, InternalInvariantError), exc
