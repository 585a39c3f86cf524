import random
import time
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgex import (
    EdgeColoring,
    Precoloring,
    ValidationReport,
    build_graph,
    canonical_edge,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    decide_extendable,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    explore_bipartite_factor,
    hypercube,
    konig_color,
    max_degree,
    one_factorization,
    path,
    reduce_instance,
    spider,
    star,
    validate_precoloring,
    verify_proper,
)
from edgex.coloring import ListAssignment
from edgex.errors import (
    BadParameterError,
    EdgexError,
    InvalidPrecoloringError,
    NotBipartiteError,
    ProofInvariantError,
    UnknownEdgeError,
)
from edgex import coloring, extension, families, oracle
from edgex.extension import ReducedInstance, require_valid
from edgex.graph import Graph

from helpers import (
    brute_force_extendable,
    edge_distance,
    layer_edges,
    list_coloring_bases,
    random_connected_bipartite,
    random_distance2_matching,
    random_tree,
    random_valid_precoloring,
    reference_assemble,
    reference_color_fibers,
    reference_reduce_instance,
    regular_bipartite,
    roadmap_cube_instance,
    complete_factor_palette,
    star_residual,
)

# factors built once, so a size check records only the graph a call builds
P3, C4, S3, EMPTY = path(3), cycle(4), star(3), build_graph("", [])

every_extend = pytest.mark.parametrize(
    "extend",
    [
        lambda pre: extend_hypercube(3, pre),
        lambda pre: extend_over_complete(path(3), 1, pre),
        lambda pre: extend_over_hypercube(path(3), 1, pre),
        lambda pre: extend_over_star(path(3), 1, pre),
    ],
    ids=["hypercube", "complete", "over_hypercube", "star"],
)


class TestValidatePrecoloring:
    def test_empty_ok(self):
        p = cartesian_product(path(3), complete(2))
        assert validate_precoloring(p, Precoloring(3, {})).ok

    def test_shared_vertex_rejected(self):
        p = cartesian_product(path(3), complete(2))
        report = validate_precoloring(p, Precoloring(3, {(0, 2): 1, (2, 4): 2}))
        assert not report.ok
        assert report.distance_violations[0][:2] == ((0, 2), (2, 4))
        assert report.distance_violations[0][2] == 0

    def test_q3_antipodal_pair_ok(self):
        q3 = hypercube(3)
        assert validate_precoloring(q3, Precoloring(3, {(0, 1): 1, (6, 7): 1})).ok

    def test_distance_one_rejected(self):
        q3 = hypercube(3)
        report = validate_precoloring(q3, Precoloring(3, {(0, 1): 1, (2, 3): 2}))
        assert not report.ok

    def test_color_out_of_palette(self):
        report = validate_precoloring(path(2), Precoloring(2, {(0, 1): 3}))
        assert report.color_violations == (((0, 1), 3),)

    @pytest.mark.parametrize("color", [1.5, "a", True])
    def test_non_integer_color_is_a_violation(self, color):
        report = validate_precoloring(hypercube(3), Precoloring(3, {(0, 1): color}))
        assert report.color_violations == (((0, 1), color),)

    @pytest.mark.parametrize("color", [1.5, "a", True])
    @every_extend
    def test_non_integer_color_rejected_by_extend(self, extend, color):
        with pytest.raises(InvalidPrecoloringError):
            extend(Precoloring(3, {(0, 1): color}))

    def test_unknown_edge_raises(self):
        with pytest.raises(UnknownEdgeError):
            validate_precoloring(path(3), Precoloring(3, {(0, 2): 1}))

    def test_reversed_key_is_canonicalized(self):
        report = validate_precoloring(hypercube(3), Precoloring(3, {(1, 0): 4, (7, 6): 1}))
        assert report.color_violations == (((0, 1), 4),)
        assert report.distance_violations == ()

    def test_key_in_both_orders_pairs_with_itself(self):
        report = validate_precoloring(hypercube(3), Precoloring(3, {(0, 1): 1, (1, 0): 1}))
        assert report.distance_violations == (((0, 1), (0, 1), 0),)

    def test_key_in_both_orders_with_mixed_color_types(self):
        # entries sort by edge alone, so the colors are never compared
        pre = Precoloring(3, {(0, 1): "a", (1, 0): 1})
        report = validate_precoloring(hypercube(3), pre)
        assert report.color_violations == (((0, 1), "a"),)
        assert report.distance_violations == (((0, 1), (0, 1), 0),)
        with pytest.raises(InvalidPrecoloringError):
            extend_hypercube(3, pre)

    @pytest.mark.parametrize("key", [(0, 1, 2), ("a", 1), (0,), (0.0, 1)])
    def test_malformed_key_is_an_unknown_edge(self, key):
        with pytest.raises(UnknownEdgeError, match="not a pair of ints"):
            validate_precoloring(hypercube(3), Precoloring(3, {key: 1, (6, 7): 1}))

    @pytest.mark.parametrize("key", [(0, 1, 2), ("a", 1), (0,), (0.0, 1)])
    @every_extend
    def test_malformed_key_rejected_by_extend(self, extend, key):
        with pytest.raises(UnknownEdgeError, match="not a pair of ints"):
            extend(Precoloring(3, {key: 1, (2, 3): 1}))

    def test_matches_pairwise_bfs_reference(self):
        rng = random.Random(12)
        seen_ok = seen_bad = 0
        for _ in range(60):
            g = random_connected_bipartite(rng, max_n=6, max_degree_cap=3)
            h = random_connected_bipartite(rng, max_n=4, max_degree_cap=2)
            product = cartesian_product(g, h).graph
            palette = max_degree(g) + max_degree(h)
            if rng.random() < 0.5:
                pre = random_valid_precoloring(rng, product, palette, 4)
            else:
                picked = rng.sample(product.edges, min(len(product.edges), rng.randint(1, 5)))
                pre = Precoloring(palette, {
                    (e if rng.random() < 0.5 else e[::-1]): rng.randint(0, palette + 1)
                    for e in picked
                })
            report = validate_precoloring(product, pre)
            assert report == _pairwise_report(product, pre)
            seen_ok += report.ok
            seen_bad += not report.ok
        assert seen_ok and seen_bad


def _pairwise_report(g, pre):
    """The validation report built pair by pair from BFS edge distances."""
    entries = sorted((canonical_edge(*e), c) for e, c in pre.entries.items())
    edges = [e for e, _c in entries]
    close = []
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            d = edge_distance(g, e, f)
            if d < 2:
                close.append((e, f, d))
    return ValidationReport(
        color_violations=tuple((e, c) for e, c in entries if not 1 <= c <= pre.palette_size),
        distance_violations=tuple(close),
    )


# every reader of a precoloring's entries, each on path(3) with palette 3
ENTRY_READERS = {
    "validate_precoloring": lambda pre: validate_precoloring(path(3), pre),
    "require_valid": lambda pre: require_valid(path(3), pre),
    "reduce_instance": lambda pre: reduce_instance(path(3), 1, pre),
    "decide_extendable": lambda pre: decide_extendable(path(3), pre, 3),
    "check_local_obstruction": lambda pre: oracle.check_local_obstruction(path(3), pre),
    "extend_over_complete": lambda pre: extend_over_complete(path(3), 1, pre),
    "extend_over_hypercube": lambda pre: extend_over_hypercube(path(3), 1, pre),
    "extend_over_star": lambda pre: extend_over_star(path(3), 1, pre),
    "extend_hypercube": lambda pre: extend_hypercube(3, pre),
}


class TestMalformedContainers:
    """Entries or an assignment that is not a mapping is refused where the
    Precoloring or EdgeColoring is made, with an EdgexError, so no reader
    meets it and raises a bare AttributeError or TypeError."""

    @pytest.mark.parametrize("reader", ENTRY_READERS.values(), ids=ENTRY_READERS)
    @pytest.mark.parametrize("entries, kind", [(None, "NoneType"), ([((0, 1), 1)], "list"), ("01", "str")])
    def test_precoloring_entries(self, reader, entries, kind):
        with pytest.raises(InvalidPrecoloringError, match=f"entries must be a mapping, got {kind}"):
            reader(Precoloring(3, entries))

    @pytest.mark.parametrize("assignment, kind", [(None, "NoneType"), ([((0, 1), 1)], "list")])
    def test_coloring_assignment(self, assignment, kind):
        with pytest.raises(BadParameterError, match=f"assignment must be a mapping, got {kind}"):
            verify_proper(path(2), EdgeColoring(2, assignment))

    def test_any_mapping_is_accepted(self):
        entries = MappingProxyType({(1, 0): 1})
        assert validate_precoloring(path(3), Precoloring(3, entries)).ok
        col = extend_over_complete(path(3), 1, Precoloring(3, entries))
        product = cartesian_product(path(3), complete(2)).graph
        assert verify_proper(product, EdgeColoring(3, MappingProxyType(dict(col.assignment))), prescribed=entries).ok


class TestReduce:
    def test_p3_worked_example(self):
        g = path(3)
        red = reduce_instance(g, 1, Precoloring(3, {(0, 2): 3}))
        assert red.base_residual.edges == ((1, 2),)
        assert red.lists.lists[(1, 2)] == (1, 2)
        assert red.forced_layer == {(0, 1): 3}
        assert red.fiber_prescriptions == {}

    def test_no_precoloring_is_identity(self):
        g = path(4)
        red = reduce_instance(g, 1, Precoloring(3, {}))
        assert red.base_residual is g
        assert all(red.lists.lists[e] == (1, 2, 3) for e in g.edges)

    def test_p5_straddled_middle_edge(self):
        g = path(5)
        # base edges (0,1) in copy 0 and (2,3) in copy 1, distinct colors:
        # edge (1,2) loses both and keeps demand <= list size
        pre = Precoloring(3, {(0, 2): 3, (5, 7): 2})
        require_valid(cartesian_product(g, complete(2)), pre)
        red = reduce_instance(g, 1, pre)
        assert red.lists.lists[(1, 2)] == (1,)
        assert red.base_residual.degree(1) == 1
        assert red.base_residual.degree(2) == 1

    def test_fiber_prescription_deletes_at_vertex(self):
        g = path(3)
        # fiber edge at the middle base vertex, color 2
        red = reduce_instance(g, 1, Precoloring(3, {(2, 3): 2}))
        assert red.base_residual.edges == g.edges
        assert red.lists.lists[(0, 1)] == (1, 3)
        assert red.lists.lists[(1, 2)] == (1, 3)
        assert red.fiber_prescriptions == {1: ((0, 1), 2)}

    def test_loss_bound_two(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_bipartite(rng, max_n=9)
            m = rng.choice([1, 2])
            palette = complete_factor_palette(g, m)
            product = cartesian_product(g, complete(2 * m))
            pre = random_valid_precoloring(rng, product.graph, palette, 3)
            red = reduce_instance(g, m, pre)
            for e in red.base_residual.edges:
                assert palette - len(red.lists.lists[e]) <= 2

    def test_edge_keys_checked_like_the_product(self):
        # reduce_instance tells edges of G box K_2m from index arithmetic
        # alone; it must accept and reject exactly what the product does
        g = path(3)
        for m in (1, 2):
            host = cartesian_product(g, complete(2 * m)).graph
            palette = complete_factor_palette(g, m)
            for a in range(-2, host.n + 2):
                for b in range(-2, host.n + 2):
                    pre = Precoloring(palette, {(a, b): 1})
                    if host.has_edge(a, b):
                        reduce_instance(g, m, pre)
                        continue
                    with pytest.raises(UnknownEdgeError) as expected:
                        host.check_edge((a, b))
                    with pytest.raises(UnknownEdgeError) as got:
                        reduce_instance(g, m, pre)
                    assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("key", [(-4, -2), (-2, 2), (-1, 3)])
    def test_negative_key_names_no_edge(self, key):
        # divmod by 2 turns (-4, -2) into base pair (-2, -1), and (-2, 2)
        # and (-1, 3) into (-1, 1), a layer copy of (1, 2) were -1 to wrap
        # around to vertex 2; in the product, adjacency[-2] and [-1] are the
        # rows of vertices 4 and 5, which hold 2 and 3
        pre = Precoloring(3, {key: 1})
        with pytest.raises(UnknownEdgeError) as expected:
            validate_precoloring(cartesian_product(path(3), complete(2)), pre)
        with pytest.raises(UnknownEdgeError) as got:
            reduce_instance(path(3), 1, pre)
        assert str(got.value) == str(expected.value) == f"edge {key} not in graph"

    def test_layer_entry(self):
        red = reduce_instance(path(3), 1, Precoloring(3, {(0, 2): 3}))
        assert red.forced_layer == {(0, 1): 3}
        assert red.fiber_prescriptions == {}

    def test_fiber_entry(self):
        red = reduce_instance(path(3), 1, Precoloring(3, {(0, 1): 2}))
        assert red.forced_layer == {}
        assert red.fiber_prescriptions == {0: ((0, 1), 2)}

    def test_mixed(self):
        red = reduce_instance(path(4), 1, Precoloring(3, {(0, 2): 3, (6, 7): 1}))
        assert red.forced_layer == {(0, 1): 3}
        assert red.fiber_prescriptions == {3: ((0, 1), 1)}

    def test_every_edge_classified_by_the_product_indexing(self):
        # each edge of G box K_4 on its own: a layer copy of a base edge is
        # removed, a fiber edge is pinned at its base vertex
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_bipartite(rng, max_n=6)
            p = cartesian_product(g, complete(4))
            layer, fiber = set(), set()
            for e in p.graph.edges:
                red = reduce_instance(g, 2, Precoloring(complete_factor_palette(g, 2), {e: 1}))
                layer.update((f, e[0] % 4) for f in red.forced_layer)
                fiber.update((u, pair) for u, (pair, _c) in red.fiber_prescriptions.items())
                assert len(red.forced_layer) + len(red.fiber_prescriptions) == 1
            assert layer == {(e, w) for e in g.edges for w in range(4)}
            assert fiber == {(u, e) for u in range(g.n) for e in complete(4).edges}

    def test_matches_reference_reduction(self):
        # random valid prescriptions for m = 1..3, keys in either order,
        # plus the seeded cube instances; lists compared in order
        rng = random.Random(21)
        cases = []
        for _ in range(60):
            g = random_connected_bipartite(rng, max_n=8)
            m = rng.choice([1, 2, 3])
            host = cartesian_product(g, complete(2 * m)).graph
            pre = random_valid_precoloring(rng, host, complete_factor_palette(g, m), 5)
            entries = {(e if rng.random() < 0.5 else e[::-1]): c for e, c in pre.entries.items()}
            cases.append((g, m, Precoloring(pre.palette_size, entries)))
        for d in range(6, 11):
            _q, pre = roadmap_cube_instance(d)
            cases.append((hypercube(d - 1), 1, pre))
        for g, m, pre in cases:
            red = reduce_instance(g, m, pre)
            ref = reference_reduce_instance(g, m, pre)
            assert red == ref
            assert list(red.lists.lists.items()) == list(ref.lists.lists.items())
            # the residual is g itself unless an edge is removed, and equal
            # lists are one tuple
            assert (red.base_residual is g) == (not red.forced_layer)
            lists = red.lists.lists.values()
            assert len({id(t) for t in lists}) == len(set(lists))

    @pytest.mark.parametrize(
        "g, m, entries, message",
        [
            (path(2), 1, {(0, 2): 1, (1, 3): 2}, r"base edge \(0, 1\) precolored in two copies"),
            (path(2), 2, {(0, 1): 1, (2, 3): 2}, "two fiber prescriptions at base vertex 0"),
            (path(3), 1, {(0, 2): 1, (3, 5): 2}, "base vertex 1 blocked twice"),
            (path(3), 1, {(0, 1): 1, (0, 2): 2}, "base vertex 0 blocked twice"),
            (path(3), 1, {(0, 1): 1, (2, 3): 2}, r"list of \(0, 1\) shorter than its demand 2"),
            (
                build_graph("abcde", [(0, 1), (2, 3), (3, 4)]),
                1,
                {(0, 1): 1, (2, 3): 2},
                r"edge \(0, 1\) lost two colors without two removed edges",
            ),
            # colors are not validated here, so 0 is a blocked color like any other
            (
                build_graph("abcde", [(0, 1), (2, 3), (3, 4)]),
                1,
                {(0, 1): 0, (2, 3): 2},
                r"edge \(0, 1\) lost two colors without two removed edges",
            ),
            # entries sort by key alone, so the colors are never compared
            (path(2), 1, {(0, 1): "a", (1, 0): 1}, "two fiber prescriptions at base vertex 0"),
        ],
        ids=[
            "two-copies", "two-fibers", "layer-layer", "fiber-layer", "demand", "m1-fiber", "m1-fiber-color-0",
            "mixed-colors",
        ],
    )
    def test_proof_invariant_on_unvalidated_input(self, g, m, entries, message):
        palette = complete_factor_palette(g, m)
        with pytest.raises(ProofInvariantError, match=message):
            reduce_instance(g, m, Precoloring(palette, entries))

    def test_m1_guard_is_m1_only(self):
        # the same shape in G box K_4 is a valid prescription
        g = path(2)
        pre = Precoloring(4, {(0, 1): 1, (6, 7): 2})
        require_valid(cartesian_product(g, complete(4)), pre)
        assert reduce_instance(g, 2, pre).lists.lists[(0, 1)] == (3, 4)

    @pytest.mark.parametrize("key", [(0, 1, 2), ("a", 1), (0,), (0.0, 1)])
    def test_malformed_key_is_an_unknown_edge(self, key):
        for entries in ({key: 1}, {key: 1, (2, 3): 1}, {(2, 3): 1, key: 1}):
            with pytest.raises(UnknownEdgeError, match="not a pair of ints"):
                reduce_instance(path(2), 1, Precoloring(2, entries))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("color", [[1], "a", 1.0, True])
    def test_non_integer_color_is_a_bad_parameter(self, m, color):
        with pytest.raises(BadParameterError, match=r"blocked at base vertex 0 is not an int"):
            reduce_instance(path(3), m, Precoloring(3, {(0, 2 * m): color}))

    @pytest.mark.parametrize("m", [1.5, "2", True, None, 0])
    def test_non_integer_m(self, m):
        with pytest.raises(BadParameterError, match="m must be >= 1" if m == 0 else "m must be an int"):
            reduce_instance(path(2), m, Precoloring(2, {}))

    @given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(["valid", "layers", "unvalidated"]))
    @settings(max_examples=200, deadline=None)
    def test_is_its_core_keyed_by_edge(self, seed, m, shape):
        # reduce_instance keys _reduce's lists by residual edge and its
        # removed edge ids by base edge, keeping the order of both; the core's
        # color sets are those the public lists parse to; on input that
        # breaks an invariant both raise the same error
        rng = random.Random(seed)
        g = random_connected_bipartite(rng, max_n=8)
        width = 2 * m
        host = cartesian_product(g, complete(width)).graph
        palette = complete_factor_palette(g, m)
        if shape == "unvalidated":
            entries = {rng.choice(host.edges): rng.randint(0, palette + 1) for _ in range(rng.randint(0, 4))}
        else:
            pool = layer_edges(host, width) if shape == "layers" else None
            entries = random_valid_precoloring(rng, host, palette, 6, pool).entries

        def via_core():
            residual, ls, sets, forced, fibers = extension._reduce(g, m, entries)
            lists = ListAssignment(lists=dict(zip(residual.edges, ls)))
            assert sets == coloring._edge_lists(residual, lists)[1]
            return ReducedInstance(residual, lists, {g.edges[i]: c for i, c in forced.items()}, fibers)

        def outcome(reduce):
            try:
                red = reduce()
            except EdgexError as exc:
                return type(exc), str(exc)
            return red, list(red.lists.lists), list(red.forced_layer.items())

        assert outcome(lambda: reduce_instance(g, m, Precoloring(palette, entries))) == outcome(via_core)

    @pytest.mark.parametrize("d", range(3, 12))
    def test_cube_residual_rows_come_from_the_base(self, d):
        _q, pre = roadmap_cube_instance(d)
        residual = reduce_instance(hypercube(d - 1), 1, pre).base_residual
        assert residual.edges != hypercube(d - 1).edges
        assert "adjacency" in vars(residual)  # set by the reduction, not derived on use
        assert residual.adjacency == Graph(residual.labels, residual.edges).adjacency

    @pytest.mark.parametrize("kind", ["complete", "over_hypercube", "star"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product_residual_rows_come_from_the_base(self, kind, m):
        removed = 0
        for seed in range(6):
            rng = random.Random(f"{kind} {m} {seed}")
            g = random_connected_bipartite(rng, max_n=10)
            if kind == "complete":
                host = cartesian_product(g, complete(2 * m)).graph
                palette = complete_factor_palette(g, m)
                pre = random_valid_precoloring(rng, host, palette, 8, layer_edges(host, 2 * m))
                red = reduce_instance(g, m, pre)
            elif kind == "over_hypercube":
                base = cartesian_product(g, hypercube(m - 1)).graph
                host = cartesian_product(base, complete(2)).graph
                pre = random_valid_precoloring(rng, host, max_degree(g) + m, 8, layer_edges(host, 2))
                red = reduce_instance(base, 1, pre)
            else:  # G box K_{1,m+1}, whose base is G box K_{1,m}
                product = cartesian_product(g, star(m + 1)).graph
                red = star_residual(g, m + 1, random_valid_precoloring(rng, product, max_degree(g) + m + 1, 8))
            residual = red.base_residual
            removed += len(red.forced_layer)
            assert "adjacency" in vars(residual)  # the base's, or set by the reduction
            assert residual.adjacency == Graph(residual.labels, residual.edges).adjacency
        assert removed > 0


@st.composite
def fiber_instances(draw, max_n=7):
    """A bipartite G, m, a König coloring of G spread over the palette
    max_degree + 2m - 1, and prescriptions at some vertices: a pair of any
    1-factor class of K_2m with a color free at that vertex."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph([f"v{i}" for i in range(n)], edges)
    m = draw(st.integers(min_value=1, max_value=3))
    palette = max_degree(g) + 2 * m - 1
    spread = draw(st.permutations(range(1, palette + 1)))
    base = EdgeColoring(palette, {e: spread[c - 1] for e, c in konig_color(g).assignment.items()})
    classes = one_factorization(2 * m)
    prescriptions = {}
    for u in draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)):
        pair = draw(st.sampled_from(classes[draw(st.integers(min_value=0, max_value=2 * m - 2))]))
        used = {base.assignment[e] for e in g.incident_edges(u)}
        free = [c for c in range(1, palette + 1) if c not in used]
        prescriptions[u] = (pair, draw(st.sampled_from(free)))
    return g, m, base, prescriptions


def vertex_fibers(g, m, base, prescriptions):
    """extension._vertex_colors' fiber colors for a base coloring and fiber
    prescriptions as reduce_instance gives them, each pair pinned by its
    class as _extend pins it."""
    class_of = {pair: t for t, cls in enumerate(one_factorization(2 * m)) for pair in cls}
    pinned = {u: (class_of[pair], color) for u, (pair, color) in prescriptions.items()}
    base_colors = [base.assignment[e] for e in g.edges]
    fiber, _up = extension._vertex_colors(g, 2 * m, base_colors, base.palette_size, pinned)
    return fiber


def assert_fibers_match_reference(g, m, base, prescriptions):
    """fiber[u][t] is reference_color_fibers' color of every pair of class t
    in u's fiber, and the reference colors no other edge."""
    fiber = vertex_fibers(g, m, base, prescriptions)
    ref = reference_color_fibers(g, m, base, prescriptions)
    classes, width = one_factorization(2 * m), 2 * m
    assert len(fiber) == g.n and len(ref) == g.n * m * (width - 1)
    for u, colors in enumerate(fiber):
        assert len(colors) == width - 1
        for t, cls in enumerate(classes):
            for p, q in cls:
                assert ref[(u * width + p, u * width + q)] == colors[t]
    return fiber


class TestColorFibers:
    def test_m1_smallest_available(self):
        g = path(3)
        base = EdgeColoring(3, {(0, 1): 3, (1, 2): 1})
        fiber = vertex_fibers(g, 1, base, {})
        assert fiber[0] == [1]  # at vertex 0 only 3 is used
        assert fiber[1] == [2]  # at vertex 1 both 3 and 1 are used
        assert fiber[2] == [2]  # at vertex 2 only 1 is used

    def test_m1_prescription_wins(self):
        g = path(3)
        base = EdgeColoring(3, {(0, 1): 3, (1, 2): 1})
        assert vertex_fibers(g, 1, base, {0: ((0, 1), 2)})[0] == [2]

    @pytest.mark.parametrize("pair", [(0, 2), (1, 3)])
    def test_m2_prescribed_pair_lands_in_its_class(self, pair):
        g = build_graph(["u"], [])
        base = EdgeColoring(5, {})
        # round-robin classes of K_4 are [(0,3),(1,2)], [(0,2),(1,3)],
        # [(0,1),(2,3)], so either pair of class 1 pins class 1
        assert vertex_fibers(g, 2, base, {0: (pair, 5)}) == [[1, 5, 2]]

    @pytest.mark.parametrize("color", [1, 3, 0])  # used, past the palette, below it
    def test_unavailable_prescription_is_internal_error(self, color):
        g = path(2)
        base = EdgeColoring(2, {(0, 1): 1})
        with pytest.raises(ProofInvariantError, match=f"color {color} is not free at base vertex 0"):
            vertex_fibers(g, 1, base, {0: ((0, 1), color)})

    @given(fiber_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, instance):
        assert_fibers_match_reference(*instance)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_class_matches_reference(self, m):
        # each pair of K_2m prescribed at the middle of P_3, with each free color
        g = path(3)
        base = EdgeColoring(2 * m + 1, {(0, 1): 1, (1, 2): 2})
        for t, cls in enumerate(one_factorization(2 * m)):
            for pair in cls:
                for color in range(3, 2 * m + 2):
                    fiber = assert_fibers_match_reference(g, m, base, {1: (pair, color)})
                    assert fiber[1][t] == color


class TestExtendOverComplete:
    def test_builds_one_product(self, monkeypatch):
        built = []

        def counting_product(g, h):
            built.append((g, h))
            return cartesian_product(g, h)

        monkeypatch.setattr(extension, "cartesian_product", counting_product)
        col = extend_over_complete(path(4), 2, Precoloring(5, {(0, 4): 1}))
        assert col.assignment[(0, 4)] == 1
        assert len(built) == 1

    def test_p3_m1_worked_example(self):
        g = path(3)
        product = cartesian_product(g, complete(2))
        pre = Precoloring(3, {(0, 2): 3})
        col = extend_over_complete(g, 1, pre)
        assert col.palette_size == 3
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(0, 2)] == 3
        assert brute_force_extendable(product.graph, pre, 3) is not None

    def test_empty_precoloring_m2(self):
        g = random_connected_bipartite(random.Random(5), max_n=7)
        palette = complete_factor_palette(g, 2)
        col = extend_over_complete(g, 2, Precoloring(palette, {}))
        product = cartesian_product(g, complete(4))
        assert verify_proper(product.graph, col).ok
        assert max(col.assignment.values()) <= palette

    def test_k2_m2_fiber_prescription(self):
        g = path(2)
        pre = Precoloring(4, {(0, 1): 4})  # a fiber edge at base vertex 0
        col = extend_over_complete(g, 2, pre)
        product = cartesian_product(g, complete(4))
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(0, 1)] == 4
        assert decide_extendable(product.graph, pre, 4) is not None

    def test_layer_replication(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_connected_bipartite(rng, max_n=8)
            m = rng.choice([1, 2])
            product = cartesian_product(g, complete(2 * m))
            palette = complete_factor_palette(g, m)
            pre = random_valid_precoloring(rng, product.graph, palette, 3)
            col = extend_over_complete(g, m, pre)
            for (u, v) in g.edges:
                copies = {
                    col.assignment[canonical_edge(u * 2 * m + i, v * 2 * m + i)]
                    for i in range(2 * m)
                }
                assert len(copies) == 1

    def test_fiber_feasibility(self):
        rng = random.Random(7)
        g = random_connected_bipartite(rng, max_n=8)
        m = 2
        palette = complete_factor_palette(g, m)
        col = extend_over_complete(g, m, Precoloring(palette, {}))
        base = konig_color(g)
        for u in range(g.n):
            used = {base.assignment[e] for e in g.incident_edges(u)}
            assert palette - len(used) >= 2 * m - 1

    def test_rejects_distance_violation(self):
        g = path(3)
        with pytest.raises(InvalidPrecoloringError):
            extend_over_complete(g, 1, Precoloring(3, {(0, 2): 1, (2, 4): 2}))

    def test_rejects_palette_mismatch(self):
        g = path(3)
        with pytest.raises(InvalidPrecoloringError):
            extend_over_complete(g, 1, Precoloring(7, {(0, 2): 1}))

    def test_rejects_non_bipartite(self):
        from edgex import cycle

        with pytest.raises(NotBipartiteError):
            extend_over_complete(cycle(5), 1, Precoloring(3, {}))

    def test_rejects_bad_m(self):
        with pytest.raises(BadParameterError):
            extend_over_complete(path(2), 0, Precoloring(1, {}))


class TestExtendOverHypercube:
    def test_m1_matches_complete(self):
        g = path(3)
        pre = Precoloring(3, {(0, 2): 3})
        assert extend_over_hypercube(g, 1, pre) == extend_over_complete(g, 1, pre)

    def test_k2_m2_is_q3(self):
        g = path(2)
        product = cartesian_product(g, hypercube(2))
        assert product.graph.edges == hypercube(3).edges
        pre = Precoloring(3, {(0, 4): 2})
        col = extend_over_hypercube(g, 2, pre)
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(0, 4)] == 2
        assert decide_extendable(product.graph, pre, 3) is not None

    def test_p3_m2_two_entries(self):
        g = path(3)
        product = cartesian_product(g, hypercube(2))
        pre = Precoloring(4, {(0, 1): 4, (6, 7): 4})
        require_valid(product, pre)
        col = extend_over_hypercube(g, 2, pre)
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(0, 1)] == 4 and col.assignment[(6, 7)] == 4

    @pytest.mark.parametrize("d", range(1, 9))
    def test_cube_split_identity(self, d):
        # G box Q_m with G = Q_{d-m} is Q_d; every split colors it alike
        _q, pre = roadmap_cube_instance(d)
        want = list(extend_hypercube(d, pre).assignment.items())
        for m in range(1, d + 1):
            col = extend_over_hypercube(hypercube(d - m), m, pre)
            assert list(col.assignment.items()) == want
            assert col.palette_size == d

    def test_vertex_free_base(self):
        empty = build_graph([], [])
        assert extend_over_hypercube(empty, 3, Precoloring(3, {})) == EdgeColoring(3, {})

    def test_random_trees_m_up_to_3(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_tree(rng, max_n=6)
            m = rng.choice([1, 2, 3])
            product = cartesian_product(g, hypercube(m))
            palette = max_degree(g) + m
            pre = random_valid_precoloring(rng, product.graph, palette, 3)
            col = extend_over_hypercube(g, m, pre)
            assert verify_proper(product.graph, col).ok
            for e, c in pre.entries.items():
                assert col.assignment[e] == c


class TestExtendHypercube:
    def test_q2_single_edge_alternating(self):
        pre = Precoloring(2, {(0, 1): 2})
        col = extend_hypercube(2, pre)
        q2 = hypercube(2)
        assert verify_proper(q2, col).ok
        assert col.assignment == {(0, 1): 2, (0, 2): 1, (1, 3): 1, (2, 3): 2}

    def test_q3_antipodal_pair(self):
        pre = Precoloring(3, {(0, 1): 1, (6, 7): 1})
        col = extend_hypercube(3, pre)
        assert verify_proper(hypercube(3), col).ok
        assert col.assignment[(0, 1)] == 1 and col.assignment[(6, 7)] == 1

    def test_q1(self):
        col = extend_hypercube(1, Precoloring(1, {(0, 1): 1}))
        assert col.assignment == {(0, 1): 1}

    def test_q4_random_triples(self):
        rng = random.Random(9)
        q4 = hypercube(4)
        for _ in range(10):
            pre = random_valid_precoloring(rng, q4, 4, 3)
            col = extend_hypercube(4, pre)
            assert verify_proper(q4, col).ok
            for e, c in pre.entries.items():
                assert col.assignment[e] == c

    def test_bad_d(self):
        with pytest.raises(BadParameterError):
            extend_hypercube(0, Precoloring(0, {}))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_product_is_the_split_cube(self, monkeypatch, d):
        # hypercube(d) has the edges of Q_{d-1} x K_2, so it serves as the
        # product and the coloring is the one through the built split
        _, pre = roadmap_cube_instance(d)
        base = hypercube(d - 1)
        split = cartesian_product(base, complete(2)).graph
        assert split.edges == hypercube(d).edges
        through_split = extension._extend(base, 1, split, d, f"Q_{d}", pre)

        def no_product(g, h):
            raise AssertionError("extend_hypercube built a Cartesian product")

        monkeypatch.setattr(extension, "cartesian_product", no_product)
        col = extend_hypercube(d, pre)
        assert list(col.assignment.items()) == list(through_split.assignment.items())

    def test_q10_roadmap_instance(self):
        q, pre = roadmap_cube_instance(10)
        assert len(pre.entries) == 100
        col = extend_hypercube(10, pre)
        assert verify_proper(q, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())

    @pytest.mark.parametrize("d, entries", [(11, 185), (12, 360)])
    def test_roadmap_instances_past_the_search_cliff(self, d, entries):
        # 296 and 600 residual lists fall below max degree here; the
        # complete search did not finish these within a minute
        q, pre = roadmap_cube_instance(d)
        assert len(pre.entries) == entries
        with list_coloring_bases() as bases:
            col = extend_hypercube(d, pre)
        assert bases == ["peeled"]
        assert verify_proper(q, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())


class TestCubePairs:
    """extend_hypercube takes Q_{d-1} and Q_d from one pair per d, built on
    the first call at d and kept under the store's bound; a pair whose
    estimate alone passes the bound, Q_14's first, is built fresh per call."""

    @staticmethod
    def _recorded(monkeypatch):
        builds, bases, products = [], [], []
        build, reduce, verify = extension.hypercube, extension._reduce, extension._verify

        def counting(d):
            builds.append(d)
            return build(d)

        def reducing(g, m, entries):
            bases.append(g)
            return reduce(g, m, entries)

        def verifying(g, colors, p, lists=None, prescribed=None):
            products.append(g)
            return verify(g, colors, p, lists, prescribed)

        monkeypatch.setattr(extension, "hypercube", counting)
        monkeypatch.setattr(extension, "_reduce", reducing)
        monkeypatch.setattr(extension, "_verify", verifying)
        return builds, bases, products

    @pytest.mark.parametrize("d", [1, 3, 7, 12])
    def test_repeated_calls_reuse_one_pair(self, monkeypatch, d):
        builds, bases, products = self._recorded(monkeypatch)
        q = hypercube(d)
        cols = [extend_hypercube(d, random_valid_precoloring(random.Random(k), q, d, 4)) for k in range(3)]
        assert builds == [d - 1, d]
        assert all(b is bases[0] for b in bases) and all(p is products[0] for p in products)
        assert (bases[0], products[0]) == (hypercube(d - 1), q) and bases[0] is not products[0]
        assert list(families._kept_values) == [("Q", d)]
        assert all(verify_proper(q, col).ok for col in cols)

    def test_above_the_cap_builds_fresh_and_keeps_nothing(self, monkeypatch):
        builds, _bases, products = self._recorded(monkeypatch)
        for _ in range(2):
            extend_hypercube(14, Precoloring(14, {(0, 1): 1}))
        assert builds == [13, 14, 13, 14]
        assert products[0] is not products[1]
        assert not families._kept_values

    @pytest.mark.parametrize(
        "call, kept",
        [
            (lambda: extend_hypercube(3, Precoloring(4, {})), 0),
            (lambda: extend_hypercube(18, Precoloring(18, {})), 0),
            (lambda: extend_hypercube(3, Precoloring(3, {(0, 3): 1})), 1),
        ],
        ids=["palette", "size", "unknown-edge"],
    )
    def test_pair_taken_after_the_palette_and_size_checks(self, call, kept):
        # validation runs on the product, so a call refused there keeps its pair
        with pytest.raises(EdgexError):
            call()
        assert len(families._kept_values) == kept

    @pytest.mark.parametrize("d", [2, 5, 11])
    def test_product_rows_never_derived_under_the_next_base(self, d):
        # the product of d and the base of d + 1 are both Q_d, but two
        # objects: the reduction derives rows on the base only
        extend_hypercube(d, Precoloring(d, {(0, 1): 1}))
        extend_hypercube(d + 1, Precoloring(d + 1, {(0, 1): 1}))
        product = families._kept_values[("Q", d)][0][1]
        base = families._kept_values[("Q", d + 1)][0][0]
        assert product == base and product is not base
        assert "adjacency" not in vars(product)
        assert "adjacency" in vars(base)


class TestCubeBase:
    """A base that is the indexed Q_k takes its sides from each vertex's bit
    parity and its list coloring's base from the residual's dimensions:
    neither the bipartition BFS nor the König base runs on it."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {}
        for module, name in [(coloring, "_konig_base"), (coloring, "bipartition"), (extension, "bipartition")]:
            key = f"{module.__name__.split('.')[-1]}.{name}"

            def counting(*args, _f=getattr(module, name), _key=key):
                calls[_key] = calls.get(_key, 0) + 1
                return _f(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("d", range(3, 11))
    def test_extend_hypercube_runs_neither(self, monkeypatch, d):
        # fewer entries than a perfect matching of Q_{d-1}, so a vertex of
        # the residual keeps degree d - 1
        q = hypercube(d)
        pre = random_valid_precoloring(random.Random(d), q, d, 2 ** (d - 2) - 1)
        calls = self._counted(monkeypatch)
        with list_coloring_bases() as bases:
            col = extend_hypercube(d, pre)
        assert calls == {}
        assert bases in (["dimension"], ["peeled"])
        assert verify_proper(q, col, prescribed=pre.entries).ok

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [2, 3])
    def test_extend_over_hypercube_on_a_non_cube_runs_both(self, monkeypatch, seed, m):
        g = random_connected_bipartite(random.Random(seed), 8, 3)
        product = cartesian_product(g, hypercube(m)).graph
        pre = random_valid_precoloring(random.Random(seed), product, max_degree(g) + m, 6)
        calls = self._counted(monkeypatch)
        col = extend_over_hypercube(g, m, pre)
        # G's own check and the residual's sides, then the König base
        assert calls == {"extension.bipartition": 2, "coloring._konig_base": 1}
        assert verify_proper(product, col, prescribed=pre.entries).ok

    def test_residual_below_degree_k_falls_back_to_konig(self, monkeypatch):
        # layer entries on base edges (0, 1) in copy 0 and (2, 3) in copy 1
        # cover every vertex of Q_2, so the residual has maximum degree 1
        # and the dimension coloring, in 1..2, is no maximum-degree coloring
        pre = Precoloring(3, {(0, 2): 1, (5, 7): 2})
        calls = self._counted(monkeypatch)
        with list_coloring_bases() as bases:
            col = extend_hypercube(3, pre)
        assert calls == {"coloring._konig_base": 1}
        assert bases == ["konig"]
        assert verify_proper(hypercube(3), col, prescribed=pre.entries).ok

    @pytest.mark.parametrize("d", [4, 7])
    def test_split_cube_takes_the_same_base(self, monkeypatch, d):
        # Q_j x Q_m is tested on its graph, not on its entry point
        _q, pre = roadmap_cube_instance(d)
        calls = self._counted(monkeypatch)
        with list_coloring_bases() as bases:
            extend_over_hypercube(hypercube(d - 2), 2, pre)
        # only G's own check: the base Q_{d-1} takes parity sides
        assert calls.pop("extension.bipartition") == 1
        assert calls == ({"coloring._konig_base": 1} if bases == ["konig"] else {})


class TestExtendOverStar:
    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_host_residual_on_the_peeled_base(self, seed):
        # a greedy prescription of G x K_1,m on a regular G: the König base
        # of the host residual fails some short list, so the peel runs
        rng = random.Random(seed)
        g = regular_bipartite(rng.randint(4, 10), rng.randint(2, 4))
        m = rng.randint(2, 3)
        product = cartesian_product(g, star(m)).graph
        pre = random_valid_precoloring(rng, product, max_degree(g) + m, 500)
        with list_coloring_bases() as bases:
            col = extend_over_star(g, m, pre)
        assert bases == ["peeled"]
        assert verify_proper(product, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())

    def test_m1_matches_complete(self):
        g = path(3)
        pre = Precoloring(3, {(0, 2): 3})
        assert extend_over_star(g, 1, pre) == extend_over_complete(g, 1, pre)

    def test_p3_m2_single_entry(self):
        g = path(3)
        product = cartesian_product(g, star(2))
        pre = Precoloring(4, {(0, 3): 4})
        col = extend_over_star(g, 2, pre)
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(0, 3)] == 4
        assert decide_extendable(product.graph, pre, 4) is not None

    def test_star3_m3_two_entries(self):
        g = star(3)
        product = cartesian_product(g, star(3))
        palette = 6
        # two fiber edges in distant fibers
        pre = Precoloring(palette, {(4, 5): 1, (8, 9): 1})
        require_valid(product, pre)
        col = extend_over_star(g, 3, pre)
        assert verify_proper(product.graph, col).ok
        assert col.assignment[(4, 5)] == 1 and col.assignment[(8, 9)] == 1

    def test_random_trees(self):
        rng = random.Random(10)
        for _ in range(10):
            g = random_tree(rng, max_n=6)
            m = rng.choice([1, 2, 3])
            product = cartesian_product(g, star(m))
            palette = max_degree(g) + m
            pre = random_valid_precoloring(rng, product.graph, palette, 3)
            col = extend_over_star(g, m, pre)
            assert verify_proper(product.graph, col).ok
            for e, c in pre.entries.items():
                assert col.assignment[e] == c

    def test_oracle_agreement_small(self):
        g = path(2)
        product = cartesian_product(g, star(2))
        pre = Precoloring(3, {(1, 4): 2})
        col = extend_over_star(g, 2, pre)
        assert verify_proper(product.graph, col).ok
        assert brute_force_extendable(product.graph, pre, 3) is not None

    def test_random_prescriptions_up_to_m8(self):
        rng = random.Random(11)
        checked = 0
        for k in range(60):
            g = random_tree(rng, max_n=6) if k % 2 else random_connected_bipartite(rng, max_n=6, max_degree_cap=3)
            m = rng.randint(1, 8)
            product = cartesian_product(g, star(m)).graph
            palette = max_degree(g) + m
            pre = random_valid_precoloring(rng, product, palette, 4)
            keyed = {(e if rng.random() < 0.5 else e[::-1]): c for e, c in pre.entries.items()}
            col = extend_over_star(g, m, Precoloring(palette, keyed))
            assert col.palette_size == palette
            assert verify_proper(product, col).ok
            assert all(col.assignment[e] == c for e, c in pre.entries.items())
            if len(product.edges) <= 40:
                assert decide_extendable(product, pre, palette) is not None
                checked += 1
        assert checked >= 10

    def test_c6_star64(self):
        # a host of C_6 x Q_63, with 6 * 2**63 vertices, would be out of reach;
        # a random fiber edge blocks its whole fiber, so the prescription is
        # drawn from layer edges, where a large one exists
        g = cycle(6)
        product = cartesian_product(g, star(64)).graph
        pool = layer_edges(product, 65)
        pre = random_valid_precoloring(random.Random(64), product, 66, 40, pool)
        assert len(pre.entries) == 40
        col = extend_over_star(g, 64, pre)
        assert verify_proper(product, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())


@pytest.mark.parametrize(
    "extend, args, palette, entries",
    [
        (extend_hypercube, (3,), 3, {(0, 1): 1, (6, 7): 1}),
        (extend_over_complete, (path(3), 1), 3, {(0, 2): 3}),
        (extend_over_hypercube, (path(3), 2), 4, {(0, 1): 4, (6, 7): 4}),
        (extend_over_star, (path(3), 2), 4, {(0, 3): 4}),
    ],
)
def test_reversed_keys_extend_like_canonical_ones(extend, args, palette, entries):
    reversed_entries = {(v, u): c for (u, v), c in entries.items()}
    assert extend(*args, Precoloring(palette, reversed_entries)) == extend(
        *args, Precoloring(palette, entries)
    )


class TestIntegerParameters:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: extend_hypercube(1.5, Precoloring(1, {})),
            lambda: extend_hypercube(True, Precoloring(1, {})),
            lambda: extend_over_complete(path(3), 1.5, Precoloring(3, {})),
            lambda: extend_over_hypercube(path(3), "2", Precoloring(4, {})),
            lambda: extend_over_star(path(3), 2.0, Precoloring(4, {})),
        ],
        ids=["hypercube-float", "hypercube-bool", "complete", "over_hypercube", "star"],
    )
    def test_non_integer_parameter(self, call):
        with pytest.raises(BadParameterError, match="must be an int"):
            call()

    @pytest.mark.parametrize("palette", ["3", 3.0, None])
    def test_non_integer_declared_palette_fails_validation(self, palette):
        with pytest.raises(InvalidPrecoloringError, match="palette_size must be an int"):
            validate_precoloring(hypercube(3), Precoloring(palette, {(0, 1): 1}))

    def test_float_palette_rejected_by_extend(self):
        with pytest.raises(InvalidPrecoloringError, match="palette_size must be an int, got 3.0"):
            extend_hypercube(3, Precoloring(3.0, {(0, 1): 1}))

    @every_extend
    def test_string_palette_rejected_by_extend(self, extend):
        with pytest.raises(InvalidPrecoloringError, match="declares '3'"):
            extend(Precoloring("3", {(0, 1): 1}))


class TestGraphParameter:
    """A graph argument that is not a Graph is a user error, not a bare
    AttributeError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: extend_over_complete(g, 1, Precoloring(3, {})),
            lambda g: extend_over_hypercube(g, 1, Precoloring(3, {})),
            lambda g: extend_over_star(g, 1, Precoloring(3, {})),
            lambda g: explore_bipartite_factor(g, 2, 1, 5),
        ],
        ids=["complete", "over_hypercube", "star", "explore"],
    )
    @pytest.mark.parametrize(
        "g, kind",
        [("x", "str"), (None, "NoneType"), (cartesian_product(P3, complete(2)), "ProductGraph")],
        ids=["str", "none", "product-graph"],
    )
    def test_not_a_graph(self, call, g, kind):
        with pytest.raises(BadParameterError, match=f"g must be a Graph, got {kind}"):
            call(g)


def test_determinism_across_runs():
    g = path(4)
    pre = Precoloring(3, {(0, 2): 3})
    first = extend_over_complete(g, 1, pre)
    second = extend_over_complete(g, 1, pre)
    assert first == second


def test_edgeless_base_graph_colors_fibers_only():
    g = build_graph("ab", [])
    col = extend_over_complete(g, 1, Precoloring(1, {}))
    product = cartesian_product(g, complete(2))
    assert verify_proper(product.graph, col).ok
    assert set(col.assignment.values()) == {1}


def test_m4_products_still_extend():
    g = path(3)
    col = extend_over_complete(g, 4, Precoloring(9, {}))
    product = cartesian_product(g, complete(8))
    assert verify_proper(product.graph, col).ok

    pre = Precoloring(6, {(0, 16): 6})
    col = extend_over_hypercube(g, 4, pre)
    cube = cartesian_product(g, hypercube(4))
    assert verify_proper(cube.graph, col).ok
    assert col.assignment[(0, 16)] == 6

    col = extend_over_star(g, 4, Precoloring(6, {(0, 5): 6}))
    st = cartesian_product(g, star(4))
    assert verify_proper(st.graph, col).ok
    assert col.assignment[(0, 5)] == 6


class TestOnePipeline:
    """Every extend_* runs the one pipeline: G bipartitioned before any
    product is built, one final check (verify_proper's positional core,
    coloring._verify) given the prescription."""

    @pytest.mark.parametrize("extend", [extend_over_complete, extend_over_hypercube, extend_over_star])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_bipartite_g_first_with_an_odd_cycle_of_g(self, monkeypatch, extend, m):
        def no_product(g, h):
            raise AssertionError("a product was built before G was bipartitioned")

        monkeypatch.setattr(extension, "cartesian_product", no_product)
        g = cycle(5)
        with pytest.raises(NotBipartiteError) as exc:
            extend(g, m, Precoloring(99, {(0, 10**6): 0}))
        odd = exc.value.odd_cycle
        assert len(odd) % 2 == 1 and len(set(odd)) == len(odd)
        assert all(g.has_edge(u, v) for u, v in zip(odd, odd[1:] + odd[:1]))

    def test_hypercube_palette_before_validation(self):
        with pytest.raises(InvalidPrecoloringError, match="Q_3 requires palette 3"):
            extend_hypercube(3, Precoloring(4, {(0, 99): 0}))

    @every_extend
    def test_one_final_check_with_the_prescription(self, monkeypatch, extend):
        checked = []

        def recording(g, colors, p, lists=None, prescribed=None):
            checked.append(prescribed)
            return coloring._verify(g, colors, p, lists, prescribed)

        monkeypatch.setattr(extension, "_verify", recording)
        extend(Precoloring(3, {(1, 0): 1}))
        # by id: (0, 1) is the first edge of every product
        assert checked == [[(0, 1)]]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["hypercube", "complete", "over_hypercube", "star"])
    def test_product_rows_never_derived(self, monkeypatch, kind, m):
        # the product is only validated against, keyed by and verified, so
        # no extension derives its adjacency rows
        products = []

        def recording(g, colors, p, lists=None, prescribed=None):
            products.append(g)
            return coloring._verify(g, colors, p, lists, prescribed)

        monkeypatch.setattr(extension, "_verify", recording)
        g, entries = cycle(6), {(0, 1): 1}
        if kind == "hypercube":
            extend_hypercube(m + 2, Precoloring(m + 2, entries))
        elif kind == "complete":
            extend_over_complete(g, m, Precoloring(2 * m + 1, entries))
        elif kind == "over_hypercube":
            extend_over_hypercube(g, m, Precoloring(m + 2, entries))
        else:
            extend_over_star(g, m, Precoloring(m + 2, entries))
        assert len(products) == 1
        assert "adjacency" not in vars(products[0])

    @every_extend
    def test_final_check_catches_a_disagreement(self, monkeypatch, extend):
        # product edge (0, 1) is base vertex 0's fiber edge, class 0
        vertex_colors = extension._vertex_colors

        def recolored(*args):
            fiber, up = vertex_colors(*args)
            fiber[0][0] = 3 - fiber[0][0] % 3
            return fiber, up

        monkeypatch.setattr(extension, "_vertex_colors", recolored)
        with pytest.raises(ProofInvariantError, match=r"edge \(0, 1\) prescribed 1 but colored"):
            extend(Precoloring(3, {(0, 1): 1}))

    @every_extend
    def test_short_color_list_is_internal_error(self, monkeypatch, extend):
        vertex_colors = extension._vertex_colors

        def short(*args):
            fiber, up = vertex_colors(*args)
            up[0] = up[0][:-1]
            return fiber, up

        monkeypatch.setattr(extension, "_vertex_colors", short)
        with pytest.raises(ProofInvariantError, match=r"assembled \d+ colors for \d+ product edges"):
            extend(Precoloring(3, {}))

    @every_extend
    def test_uncolored_base_edge_is_internal_error(self, monkeypatch, extend):
        # the base coloring is a list by residual edge id; one short of it
        # leaves a base edge uncolored
        def dropped(*args):
            return coloring._list_color(*args)[1:]

        monkeypatch.setattr(extension, "_list_color", dropped)
        with pytest.raises(ProofInvariantError, match=r"base coloring holds \d+ colors for \d+ residual edges"):
            extend(Precoloring(3, {}))


def _matching_through(rng, g, first, size):
    """A seeded distance-2 matching of g with up to two edges from `first`
    and up to `size` more from the rest of g."""
    chosen = random_distance2_matching(rng, g, 2, first)
    rest = [e for e in g.edges if all(edge_distance(g, e, f) >= 2 for f in chosen)]
    return chosen + random_distance2_matching(rng, g, size, rest)


def _assembly_case(kind, g, m):
    """(extend, base, host m, product, palette, star m) as the entry point
    `kind` picks them for G = g and parameter m (d = m + 1 for Q_d)."""
    delta = max_degree(g)
    if kind == "complete":
        product = cartesian_product(g, complete(2 * m)).graph
        return (lambda pre: extend_over_complete(g, m, pre)), g, m, product, delta + 2 * m - 1, None
    if kind == "over_hypercube":
        base = g if m == 1 else cartesian_product(g, hypercube(m - 1)).graph
        product = cartesian_product(base, complete(2)).graph
        return (lambda pre: extend_over_hypercube(g, m, pre)), base, 1, product, delta + m, None
    if kind == "hypercube":
        base = hypercube(m)
        return (lambda pre: extend_hypercube(m + 1, pre)), base, 1, hypercube(m + 1), m + 1, None
    base = g if m == 1 else cartesian_product(g, star(m - 1)).graph
    product = cartesian_product(g, star(m)).graph
    return (lambda pre: extend_over_star(g, m, pre)), base, 1, product, delta + m, m


class TestProductOrderAssembly:
    """_extend colors the product as one list in product.edges order; the
    assignment equals the layer dict, fiber dict and star remap it replaced
    (reference_assemble), edge for edge, with the product's edge order."""

    @staticmethod
    def _check(kind, g, m, entries_from):
        extend, base, host_m, product, palette, star_m = _assembly_case(kind, g, m)
        rng = random.Random(f"{kind} {m} {len(g.edges)}")
        matching = entries_from(rng, product)
        pre = Precoloring(palette, {e: rng.randint(1, palette) for e in matching})
        col = extend(pre)
        assert col.assignment == reference_assemble(base, host_m, product, palette, pre, star_m)
        assert list(col.assignment) == list(product.edges)
        return pre

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_complete_fiber_prescriptions_in_every_class(self, m):
        width = 2 * m
        classes = one_factorization(width)
        seen = set()
        for seed in range(2 * len(classes)):
            g = random_connected_bipartite(random.Random(seed), 8, 3)
            cls = classes[seed % len(classes)]

            def entries_from(rng, product):
                fibers = [(a, b) for a, b in product.edges 
                          if a // width == b // width and (a % width, b % width) in cls]
                return _matching_through(rng, product, fibers, 6)

            pre = self._check("complete", g, m, entries_from)
            seen.update(
                t for (a, b) in pre.entries if a // width == b // width
                for t, pairs in enumerate(classes) if (a % width, b % width) in pairs
            )
        assert seen == set(range(len(classes)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stars_with_entries_on_the_last_leafs_layer(self, m):
        k = m + 1
        on_last = 0
        for seed in range(6):
            g = random_connected_bipartite(random.Random(seed), 8, 3)

            def entries_from(rng, product):
                last = [(a, b) for a, b in product.edges if a % k == m and b % k == m]
                return _matching_through(rng, product, last, 6)

            pre = self._check("star", g, m, entries_from)
            on_last += sum(1 for a, b in pre.entries if a % k == m and b % k == m)
        assert on_last > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["over_hypercube", "hypercube"])
    def test_cubes_with_fiber_prescriptions(self, kind, m):
        # the host fiber of a cube is its last bit's K_2: edges (2c, 2c + 1)
        for seed in range(4):
            g = random_connected_bipartite(random.Random(seed), 8, 3)

            def entries_from(rng, product):
                fibers = [(a, b) for a, b in product.edges if b == a + 1 and a % 2 == 0]
                return _matching_through(rng, product, fibers, 6)

            self._check(kind, g, m, entries_from)

    @pytest.mark.parametrize("kind", ["complete", "over_hypercube", "star"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_vertex_free_g(self, kind, m):
        self._check(kind, EMPTY, m, lambda rng, product: [])


class TestSizeGuard:
    """families._require_size is the one size check. Every family
    constructor, the product, one_factorization and reduce_instance run it
    on their own counts, and every extend_* on its product's counts, so a
    graph past MAX_PRODUCT_EDGES vertices or edges is rejected before any
    graph is built."""

    @pytest.mark.parametrize(
        "call, product",
        [
            (lambda: extend_hypercube(5, Precoloring(5, {})), lambda: hypercube(5)),
            (lambda: extend_over_complete(P3, 2, Precoloring(5, {})),
             lambda: cartesian_product(P3, complete(4)).graph),
            (lambda: extend_over_hypercube(C4, 3, Precoloring(5, {})),
             lambda: cartesian_product(C4, hypercube(3)).graph),
            (lambda: extend_over_star(S3, 4, Precoloring(7, {})), lambda: cartesian_product(S3, star(4)).graph),
            (lambda: extend_over_star(EMPTY, 2, Precoloring(2, {})), lambda: star(2)),
            (lambda: complete(5), lambda: complete(5)),
            (lambda: complete_bipartite(2, 3), lambda: complete_bipartite(2, 3)),
            (lambda: star(4), lambda: star(4)),
            (lambda: path(4), lambda: path(4)),
            (lambda: path(1), lambda: path(1)),
            (lambda: cycle(5), lambda: cycle(5)),
            (lambda: spider(3, 2), lambda: spider(3, 2)),
            (lambda: hypercube(0), lambda: hypercube(0)),
            (lambda: hypercube(4), lambda: hypercube(4)),
            (lambda: cartesian_product(C4, S3), lambda: cartesian_product(C4, S3).graph),
            (lambda: cartesian_product(EMPTY, S3), lambda: S3),
            (lambda: one_factorization(6), lambda: complete(6)),
            (lambda: reduce_instance(P3, 2, Precoloring(5, {})), lambda: complete(4)),
            (lambda: explore_bipartite_factor(P3, 2, 1, 1),
             lambda: cartesian_product(P3, complete_bipartite(2, 1)).graph),
        ],
        ids=["hypercube", "complete", "over_hypercube", "star", "empty-star", "family-complete",
             "family-complete_bipartite", "family-star", "family-path", "family-path-1", "family-cycle",
             "family-spider", "family-hypercube-0", "family-hypercube", "product", "empty-product",
             "one_factorization", "reduce_instance", "explore_bipartite_factor"],
    )
    def test_estimate_is_the_edge_count(self, monkeypatch, call, product):
        # the first check of a call is on the largest graph it builds, and
        # every later one is on a graph no larger; the empty G builds no
        # product, so its estimate is the factor's
        estimates = []

        def record(what, g_order, g_edges, h_order=1, h_edges=0):
            edges = families._product_edges(g_order, g_edges, h_order, h_edges)
            estimates.append((max(g_order * h_order, h_order), max(edges, h_edges)))

        for module in (families, coloring, extension, oracle):
            monkeypatch.setattr(module, "_require_size", record)
        call()
        built = product()
        assert estimates[0] == (built.n, len(built.edges))
        assert all(n <= built.n and e <= len(built.edges) for n, e in estimates)

    @pytest.mark.parametrize("d", range(0, 8))
    def test_cube_size(self, d):
        q = hypercube(d)
        assert families._cube_size(d) == (q.n, len(q.edges))

    @staticmethod
    def _no_builds(monkeypatch):
        def no_build(*args):
            raise AssertionError("a graph was built past the size limit")

        for name in ("cartesian_product", "complete", "hypercube", "star"):
            monkeypatch.setattr(extension, name, no_build)
        for name in ("cartesian_product", "complete_bipartite"):
            monkeypatch.setattr(oracle, name, no_build)

    @pytest.mark.parametrize(
        "extend, m, sizes",
        [
            (extend_over_complete, 725, lambda m: (2, 1, 2 * m, m * (2 * m - 1))),
            (extend_over_hypercube, 17, lambda m: (2, 1, *families._cube_size(m))),
            (extend_over_star, 699051, lambda m: (2, 1, m + 1, m)),
        ],
        ids=["complete", "over_hypercube", "star"],
    )
    def test_just_past_the_limit_builds_nothing(self, monkeypatch, extend, m, sizes):
        # m is the first parameter whose product with path(2) is too big,
        # and its edges, not its vertices, are what pass the limit
        limit = families.MAX_PRODUCT_EDGES
        assert families._product_edges(*sizes(m - 1)) <= limit < families._product_edges(*sizes(m))
        g_order, _g_edges, h_order, _h_edges = sizes(m)
        assert g_order * h_order <= limit
        self._no_builds(monkeypatch)
        with pytest.raises(BadParameterError, match=f"past the limit of {limit}"):
            extend(path(2), m, Precoloring(1, {}))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: extend_hypercube(18, Precoloring(18, {})),
            lambda: extend_hypercube(10**11, Precoloring(1, {})),
            lambda: extend_over_complete(path(2), 10**11, Precoloring(1, {})),
            lambda: extend_over_hypercube(path(2), 10**11, Precoloring(1, {})),
            lambda: extend_over_star(build_graph("", []), 10**11, Precoloring(1, {})),
            lambda: hypercube(18),
            lambda: hypercube(40),
            lambda: complete(10**6),
            lambda: path(10**7),
            lambda: one_factorization(10**6),
            lambda: reduce_instance(path(2), 10**9, Precoloring(3, {})),
            lambda: explore_bipartite_factor(path(2), 10**7, 1, 5),
            lambda: cartesian_product(build_graph([""] * 2000, []), build_graph([""] * 2000, [])),
        ],
        ids=["q18", "huge-hypercube", "huge-complete", "huge-over_hypercube", "empty-g-huge-star",
             "family-q18", "family-q40", "family-complete", "family-path", "one_factorization",
             "reduce_instance", "explore_bipartite_factor", "edgeless-product"],
    )
    def test_far_past_the_limit_builds_nothing(self, monkeypatch, call):
        # Q_17 has 1,114,112 edges and fits; Q_18 has 2,359,296; the
        # edgeless product has no edge but 4,000,000 vertices
        assert families._cube_size(17)[1] <= families.MAX_PRODUCT_EDGES < families._cube_size(18)[1]
        self._no_builds(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(BadParameterError, match="past the"):
            call()
        assert time.perf_counter() - start < 1

    def test_explore_checks_its_product_before_its_factor(self, monkeypatch):
        # K_{10^6,1} fits the limit, its product with path(2) does not
        self._no_builds(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(BadParameterError, match="G box K_1000000,1 would have 2000002 vertices"):
            explore_bipartite_factor(path(2), 10**6, 1, 5)
        assert time.perf_counter() - start < 0.1
