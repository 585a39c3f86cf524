import logging
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgex import (
    EdgeColoring,
    bipartition,
    canonical_edge,
    cartesian_product,
    demand_list_color,
    build_graph,
    complete_bipartite,
    cycle,
    exact_list_color,
    hypercube,
    konig_color,
    make_list_assignment,
    max_degree,
    one_factorization,
    path,
    reduce_instance,
    star,
    verify_proper,
)
from edgex import coloring
from edgex.coloring import ColoringReport, ListAssignment
from edgex.errors import (
    BadParameterError,
    BudgetExceededError,
    DemandViolationError,
    EdgexError,
    MissingEdgeError,
    NotBipartiteError,
    OddOrderError,
    UnknownEdgeError,
)

from helpers import (
    bkw_instance,
    brute_force_list_coloring,
    connected_bipartite_catalog,
    enumerate_all_list_colorings,
    layer_edges,
    list_coloring_bases,
    list_coloring_records,
    parity_bipartition,
    peeled_rank_sums,
    random_connected_bipartite,
    random_valid_precoloring,
    reference_certifies,
    reference_dimension_base,
    reference_galvin_list_color,
    reference_konig_color,
    reference_verify_proper,
    regular_bipartite,
    roadmap_cube_instance,
    small_bipartite_graphs,
    star_residual,
)

CATALOG = connected_bipartite_catalog(7)


def delta_lists(g, universe=None):
    """Every edge gets the same list 1..max_degree (or a given universe)."""
    colors = universe if universe is not None else tuple(range(1, max_degree(g) + 1))
    return make_list_assignment(g, {e: colors for e in g.edges})


@st.composite
def bipartite_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph([f"v{i}" for i in range(n)], edges)


@given(bipartite_graphs())
@settings(max_examples=80)
def test_konig_proper_with_tight_palette(g):
    col = konig_color(g)
    assert verify_proper(g, col).ok
    assert col.palette_size == max_degree(g)


@given(bipartite_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_galvin_from_shifted_delta_lists(g, shift):
    delta = max_degree(g)
    lists = delta_lists(g, tuple(range(1 + shift, delta + 1 + shift)))
    col = demand_list_color(g, lists)
    assert verify_proper(g, col, lists).ok


class TestKonig:
    def test_c6_two_colors(self):
        g = cycle(6)
        col = konig_color(g)
        assert col.palette_size == 2
        assert verify_proper(g, col).ok
        assert set(col.assignment.values()) == {1, 2}

    def test_k33_three_perfect_matchings(self):
        g = complete_bipartite(3, 3)
        col = konig_color(g)
        assert col.palette_size == 3
        assert verify_proper(g, col).ok
        for c in (1, 2, 3):
            cls = [e for e, cc in col.assignment.items() if cc == c]
            assert len(cls) == 3
            assert len({v for e in cls for v in e}) == 6

    def test_edgeless(self):
        g = build_graph("abc", [])
        col = konig_color(g)
        assert col.palette_size == 0
        assert col.assignment == {}

    def test_rejects_odd_cycle(self):
        with pytest.raises(NotBipartiteError):
            konig_color(cycle(5))

    def test_exhaustive_small_bipartite(self):
        for g in small_bipartite_graphs(5):
            col = konig_color(g)
            assert verify_proper(g, col).ok
            assert col.palette_size == max_degree(g)
            used = set(col.assignment.values())
            assert used <= set(range(1, max_degree(g) + 1))

    def test_catalog_and_random_samples(self):
        rng = random.Random(1)
        graphs = CATALOG + [random_connected_bipartite(rng) for _ in range(40)]
        for g in graphs:
            col = konig_color(g)
            assert verify_proper(g, col).ok
            assert col.palette_size == max_degree(g)

    def test_deterministic(self):
        g = complete_bipartite(3, 4)
        assert konig_color(g) == konig_color(g)


class TestGalvin:
    def test_single_edge_odd_list(self):
        g = path(2)
        col = demand_list_color(g, make_list_assignment(g, {(0, 1): (7,)}))
        assert col.assignment == {(0, 1): 7}

    def test_c4_lists_12(self):
        g = cycle(4)
        lists = delta_lists(g)
        # oracle first: of the 16 assignments from {1,2}^4 exactly 2 are proper
        proper = enumerate_all_list_colorings(g, lists)
        assert len(proper) == 2
        col = demand_list_color(g, lists)
        assert col.assignment in proper

    def test_p3_staggered_lists(self):
        g = path(3)
        lists = make_list_assignment(g, {(0, 1): (1, 2), (1, 2): (2, 3)})
        proper = enumerate_all_list_colorings(g, lists)
        assert len(proper) == 3  # (1,2) (1,3) (2,3)
        col = demand_list_color(g, lists)
        assert col.assignment in proper

    def test_rejects_short_lists(self):
        # every base ranks some edge of the star third at its center, so
        # out-degree 2, against its list of two colors
        g = star(3)
        with pytest.raises(DemandViolationError, match=r"at \[\(0, 1\), \(0, 2\), \(0, 3\)\]$"):
            demand_list_color(g, ListAssignment(lists={e: (1, 2) for e in g.edges}))

    def test_rejects_non_bipartite(self):
        g = cycle(3)
        with pytest.raises(NotBipartiteError):
            demand_list_color(g, ListAssignment(lists={e: (1, 2, 3) for e in g.edges}))

    def test_lists_are_read_before_the_bipartition(self):
        # a non-bipartite graph with malformed or missing lists reports the
        # lists: they are parsed before the list coloring seeks the sides
        g = cycle(3)
        with pytest.raises(BadParameterError, match=r"list of edge \(0, 1\) must hold distinct ints"):
            demand_list_color(g, ListAssignment(lists={e: (1, "2") for e in g.edges}))
        with pytest.raises(MissingEdgeError, match="lists misses edges"):
            demand_list_color(g, ListAssignment(lists={(0, 1): (1, 2, 3)}))

    def test_catalog_random_lists_proper_and_in_list(self):
        rng = random.Random(2)
        for g in CATALOG:
            delta = max_degree(g)
            for _ in range(5):
                lists = make_list_assignment(
                    g,
                    {e: rng.sample(range(1, delta + 4), delta) for e in g.edges},
                )
                col = demand_list_color(g, lists)
                assert verify_proper(g, col, lists).ok
                # same satisfiability verdict as the complete engine
                assert exact_list_color(g, lists) is not None

    def test_heterogeneous_list_sizes(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_connected_bipartite(rng, max_n=9)
            delta = max_degree(g)
            lists = make_list_assignment(
                g,
                {
                    e: rng.sample(range(1, delta + 5), rng.randint(delta, delta + 3))
                    for e in g.edges
                },
            )
            col = demand_list_color(g, lists)
            assert verify_proper(g, col, lists).ok

    def test_deterministic(self):
        g = complete_bipartite(2, 3)
        lists = delta_lists(g, (2, 4, 6, 8))
        assert demand_list_color(g, lists) == demand_list_color(g, lists)


class TestExactListColor:
    def test_p3_same_singleton_lists_unsat(self):
        g = path(3)
        lists = make_list_assignment(g, {(0, 1): (1,), (1, 2): (1,)})
        assert exact_list_color(g, lists) is None

    def test_star_forced_unique(self):
        g = star(3)
        lists = make_list_assignment(g, {(0, 1): (1,), (0, 2): (2,), (0, 3): (3,)})
        col = exact_list_color(g, lists)
        assert col.assignment == {(0, 1): 1, (0, 2): 2, (0, 3): 3}

    def test_node_budget(self):
        g = cycle(6)
        lists = delta_lists(g, (1, 2))
        with pytest.raises(BudgetExceededError):
            exact_list_color(g, lists, budget=1)
        assert exact_list_color(g, lists, budget=6) == exact_list_color(g, lists)
        with pytest.raises(BadParameterError):
            exact_list_color(g, lists, budget=1.5)

    def test_negative_budget_rejected(self):
        # a budget of 0 allows no node, and a graph without edges needs none
        g = build_graph("ab", [])
        assert exact_list_color(g, make_list_assignment(g, {}), budget=0).assignment == {}
        with pytest.raises(BadParameterError, match="budget must be >= 0, got -1"):
            exact_list_color(g, make_list_assignment(g, {}), budget=-1)

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(3)
        for g in CATALOG:
            if len(g.edges) > 6:
                continue
            for _ in range(4):
                lists = make_list_assignment(
                    g,
                    {e: rng.sample(range(1, 5), rng.randint(1, 3)) for e in g.edges},
                )
                every = enumerate_all_list_colorings(g, lists)
                got = exact_list_color(g, lists)
                if every:
                    assert got is not None
                    assert got.assignment in every
                else:
                    assert got is None

    def test_works_on_odd_cycles_too(self):
        g = cycle(5)
        lists = make_list_assignment(g, {e: (1, 2, 3) for e in g.edges})
        col = exact_list_color(g, lists)
        assert col is not None and verify_proper(g, col, lists).ok

    def test_agrees_on_every_four_vertex_graph(self):
        # all 64 labeled graphs on 4 vertices, bipartite or not
        rng = random.Random(12)
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = build_graph("abcd", edges)
            if not g.edges:
                continue
            lists = make_list_assignment(
                g, {e: rng.sample(range(1, 5), rng.randint(1, 3)) for e in g.edges}
            )
            every = enumerate_all_list_colorings(g, lists)
            got = exact_list_color(g, lists)
            assert (got is None) == (not every)
            if got is not None:
                assert got.assignment in every

    def test_deterministic(self):
        g = cycle(6)
        lists = delta_lists(g, (1, 2, 3))
        assert exact_list_color(g, lists) == exact_list_color(g, lists)

    def test_search_deeper_than_the_recursion_limit(self):
        # one search level per edge: 1200 levels, past CPython's default
        # recursion limit of 1000
        g = cycle(1200)
        lists = make_list_assignment(g, {e: (1, 2) for e in g.edges})
        col = exact_list_color(g, lists)
        assert col is not None and verify_proper(g, col, lists).ok


class TestBkw:
    def test_p4_demand_sized_lists(self):
        g = path(4)
        lists = make_list_assignment(
            g, {e: range(1, max(g.degree(e[0]), g.degree(e[1])) + 1) for e in g.edges}
        )
        col = demand_list_color(g, lists)
        assert verify_proper(g, col, lists).ok
        for e in g.edges:
            assert col.assignment[e] <= demand(g, e)

    def test_deficient_list_below_delta_succeeds(self):
        # star with a pendant path: edge (1,4) has both endpoints of degree
        # <= 2, so its demand-2 list stays below max degree 3
        g = build_graph("abcde", [(0, 1), (0, 2), (0, 3), (1, 4)])
        lists = make_list_assignment(
            g, {(0, 1): (1, 2, 3), (0, 2): (1, 2, 3), (0, 3): (1, 2, 3), (1, 4): (1, 2)}
        )
        assert brute_force_list_coloring(g, lists) is not None
        col = demand_list_color(g, lists)
        assert verify_proper(g, col, lists).ok

    def test_rejects_demand_violation(self):
        # two one-color lists: no base ranks both first at the center, so
        # none is certified, though the lists are colorable; only they are
        # named
        g = star(3)
        lists = ListAssignment(lists={(0, 1): (1,), (0, 2): (2,), (0, 3): (1, 2, 3)})
        assert brute_force_list_coloring(g, lists) is not None
        with pytest.raises(DemandViolationError, match=r"demand at \[\(0, 1\), \(0, 2\)\]$"):
            demand_list_color(g, lists)

    def test_certified_lists_below_demand_color(self):
        # one list below demand, certified as its edge has König color 1
        g = star(3)
        lists = ListAssignment(lists={(0, 1): (1, 2), (0, 2): (1, 2, 3), (0, 3): (1, 2, 3)})
        with list_coloring_bases() as bases:
            col = demand_list_color(g, lists)
        assert bases == ["konig"]
        assert verify_proper(g, col, lists).ok

    def test_non_bipartite_reported_before_demand_violation(self):
        g = cycle(3)
        with pytest.raises(NotBipartiteError):
            demand_list_color(g, ListAssignment(lists={e: (1,) for e in g.edges}))

    def test_one_bipartition_per_call(self, monkeypatch):
        # the kernel method and both bases reuse demand_list_color's sides
        calls = []
        monkeypatch.setattr(coloring, "bipartition", lambda g: calls.append(g) or bipartition(g))
        for d in (6, 7):
            calls.clear()
            q, pre = roadmap_cube_instance(d)
            reduced = reduce_instance(hypercube(d - 1), 1, pre)
            with list_coloring_bases() as bases:
                demand_list_color(reduced.base_residual, reduced.lists)
            assert bases == ["konig" if d == 6 else "peeled"]
            assert calls == [reduced.base_residual]

    def test_catalog_demand_lists_never_fail(self):
        rng = random.Random(4)
        for g in CATALOG:
            universe = range(1, max(6, max_degree(g)) + 1)
            for _ in range(3):
                lists = make_list_assignment(
                    g,
                    {
                        e: rng.sample(universe, max(g.degree(e[0]), g.degree(e[1])))
                        for e in g.edges
                    },
                )
                col = demand_list_color(g, lists)
                assert verify_proper(g, col, lists).ok


def demand(g, e):
    return max(g.degree(e[0]), g.degree(e[1]))


def out_degrees(g, base):
    """out(xy), x in X, from its definition: the edges at x with a lower base
    color plus the edges at y with a higher one."""
    sides = bipartition(g)
    out = {}
    for e in g.edges:
        x, y = e if sides.is_x(e[0]) else (e[1], e[0])
        out[e] = sum(base[f] < base[e] for f in g.incident_edges(x)) + sum(
            base[f] > base[e] for f in g.incident_edges(y)
        )
    return out


def demand_list_variants(g, rng):
    """Demand-sized lists: all from 1, all ending at max degree, and random."""
    delta = max_degree(g)
    yield make_list_assignment(g, {e: range(1, demand(g, e) + 1) for e in g.edges})
    yield make_list_assignment(g, {e: range(delta - demand(g, e) + 1, delta + 1) for e in g.edges})
    yield make_list_assignment(
        g, {e: rng.sample(range(1, demand(g, e) + 3), demand(g, e)) for e in g.edges}
    )


# K_2,3 minus an edge: the Konig base gives (1,4) out-degree 2 against its
# demand-sized list of 2, so the peeled base must run
K23_MINUS = build_graph("abcde", [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)])
K23_MINUS_LISTS = make_list_assignment(
    K23_MINUS, {e: range(1, demand(K23_MINUS, e) + 1) for e in K23_MINUS.edges}
)


@st.composite
def demand_instances(draw):
    """A random bipartite graph with random demand-sized lists."""
    g = draw(bipartite_graphs(max_n=10))
    lists = {
        e: draw(
            st.lists(
                st.integers(min_value=1, max_value=demand(g, e) + 3),
                min_size=demand(g, e),
                max_size=demand(g, e),
                unique=True,
            )
        )
        for e in g.edges
    }
    return g, make_list_assignment(g, lists)


@given(demand_instances())
@settings(max_examples=300, deadline=None)
def test_certified_kernel_on_demand_lists(instance):
    g, lists = instance
    with list_coloring_bases() as bases, patch.object(coloring, "_search", _no_search):
        col = demand_list_color(g, lists)
    assert bases in (["konig"], ["peeled"])
    assert verify_proper(g, col, lists).ok
    if len(g.edges) <= 8:
        assert exact_list_color(g, lists) is not None


class TestCertifiedKernel:
    def test_short_lists_within_out_degree(self):
        # star base colors 1, 2, 3 at an X center: out-degrees 0, 1, 2, so
        # lists of 1, 2, 3 colors pass the check with no flip
        g = star(3)
        lists = make_list_assignment(g, {(0, 1): (5,), (0, 2): (5, 6), (0, 3): (5, 6, 7)})
        col = demand_list_color(g, lists)
        assert col.assignment == {(0, 1): 5, (0, 2): 6, (0, 3): 7}

    def test_peeled_base_reorders_a_violating_one(self):
        # the reverse sizes: the König base ranks the one-color edge last at
        # the center; the peel removes the edges from color 3 down, so it
        # ranks that edge first
        g = star(3)
        lists = make_list_assignment(g, {(0, 1): (5, 6, 7), (0, 2): (5, 6), (0, 3): (5,)})
        with list_coloring_bases() as bases:
            col = demand_list_color(g, lists)
        assert bases == ["peeled"]
        assert verify_proper(g, col, lists).ok
        assert col.assignment[(0, 3)] == 5

    def test_no_certificate_raises(self):
        # every base ranks one edge of the star third at its center, so
        # out-degree 2 = |L|: neither base certifies, and lists below demand
        # get no record
        g = star(3)
        lists = make_list_assignment(g, {e: (1, 2) for e in g.edges})
        with list_coloring_records() as records, pytest.raises(DemandViolationError):
            demand_list_color(g, lists)
        assert records == []

    def test_certified_base_bounds_every_out_degree(self):
        # the König base where it passes, else the peeled base, whose ranks
        # bound out(e) by the demand minus one
        rng = random.Random(6)
        graphs = small_bipartite_graphs() + CATALOG
        graphs += [random_connected_bipartite(rng, max_n=16, max_degree_cap=5) for _ in range(150)]
        peeled = 0
        for g in graphs:
            out = out_degrees(g, konig_color(g).assignment)
            sums = peeled_rank_sums(g)
            for lists in demand_list_variants(g, rng):
                if not all(out[e] < len(lists.lists[e]) for e in g.edges):
                    peeled += 1
                    assert all(sums[e] < len(lists.lists[e]) for e in g.edges)
        assert peeled

    def test_exhaustive_small_graphs(self):
        rng = random.Random(8)
        for g in small_bipartite_graphs() + CATALOG:
            for lists in demand_list_variants(g, rng):
                with list_coloring_bases() as bases:
                    col = demand_list_color(g, lists)
                assert bases in (["konig"], ["peeled"])
                assert verify_proper(g, col, lists).ok
                assert exact_list_color(g, lists) is not None

    def test_konig_base_certifies_lists_of_max_degree(self):
        # why only lists below max degree are checked: out(e) <= Delta - 1
        for g in small_bipartite_graphs() + CATALOG:
            out = out_degrees(g, konig_color(g).assignment)
            assert all(o < max_degree(g) for o in out.values())

    def test_logs_kernel_engine(self, caplog):
        caplog.set_level(logging.DEBUG, logger="edgex")
        col = demand_list_color(K23_MINUS, K23_MINUS_LISTS)
        assert verify_proper(K23_MINUS, col, K23_MINUS_LISTS).ok
        assert [r.getMessage() for r in caplog.records] == ["list coloring: base=peeled short=2"]

    def test_silent_when_logging_is_off(self, caplog):
        caplog.set_level(logging.INFO, logger="edgex")
        demand_list_color(K23_MINUS, K23_MINUS_LISTS)
        assert caplog.records == []


@st.composite
def kernel_instances(draw):
    """A graph, bipartite in about nine of ten draws, with lists of one
    shape: demand-sized, at least max degree, or below demand."""
    n = draw(st.integers(min_value=2, max_value=12))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.integers(min_value=0, max_value=9)) > 0
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not bipartite or side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph([f"v{i}" for i in range(n)], [e for e, kept in zip(pairs, keep) if kept])
    shape = draw(st.sampled_from(("demand", "delta", "short")))
    slack = draw(st.integers(min_value=0, max_value=2))  # colors beyond a list's size
    lists = {}
    for e in g.edges:
        if shape == "demand":
            size = demand(g, e)
        elif shape == "delta":
            size = draw(st.integers(min_value=max_degree(g), max_value=max_degree(g) + 2))
        else:
            size = draw(st.integers(min_value=1, max_value=max(1, demand(g, e) - 1)))
        colors = st.integers(min_value=1, max_value=size + slack)
        lists[e] = draw(st.lists(colors, min_size=size, max_size=size, unique=True))
    return g, make_list_assignment(g, lists)


def _kernel_outcome(color, g, lists):
    """Ordered items and palette, the error's type and message, or None (the
    reference giving up), plus the list-coloring debug records."""
    with list_coloring_records() as records:
        try:
            col = color(g, lists)
        except EdgexError as exc:
            return (type(exc), str(exc)), records
    if col is None:
        return None, records
    return (list(col.assignment.items()), col.palette_size), records


def _check_against_reference(g, lists):
    """demand_list_color colors as the reference kernel method, with the
    same record, wherever the König base certifies the lists. Elsewhere it
    colors from the peeled base, or, when some list is below demand, may
    raise DemandViolationError naming every edge below demand, with no
    record. Returns which of the three happened."""
    got, records = _kernel_outcome(demand_list_color, g, lists)
    want, want_records = _kernel_outcome(reference_galvin_list_color, g, lists)
    if want is not None:
        assert (got, records) == (want, want_records)
        return "konig"
    if records:
        short = sum(len(lists.lists[e]) < max_degree(g) for e in g.edges)
        assert records == [f"list coloring: base=peeled short={short}"]
        items, palette = got
        assert verify_proper(g, EdgeColoring(palette, dict(items)), lists).ok
        return "peeled"
    below = [e for e in g.edges if len(lists.lists[e]) < demand(g, e)]
    assert below and got == (DemandViolationError, f"lists shorter than endpoint-degree demand at {below}")
    return "rejected"


@given(kernel_instances())
@example((K23_MINUS, K23_MINUS_LISTS))  # the peeled base
@example((star(3), make_list_assignment(star(3), {(0, 1): (1, 2), (0, 2): (1, 2, 3), (0, 3): (1, 2, 3)})))
@example((star(3), make_list_assignment(star(3), {e: (1, 2) for e in star(3).edges})))  # rejected
@settings(max_examples=300, deadline=None)
def test_galvin_matches_reference(instance):
    g, lists = instance
    _check_against_reference(g, lists)


@pytest.mark.parametrize("d", range(6, 12))
def test_galvin_matches_reference_on_seeded_cube_residuals(d):
    g, lists = _cube_residual(d)
    assert _check_against_reference(g, lists) == ("konig" if d == 6 else "peeled")


@pytest.mark.parametrize("size", [0, 40])
def test_galvin_matches_reference_on_a_star_residual(size):
    # the base C_6 x K_1,62 has degree-64 centers on both sides, whose
    # edges run through every round of the palette pass
    g = cycle(6)
    product = cartesian_product(g, star(63)).graph
    pre = random_valid_precoloring(random.Random(63), product, 65, size, layer_edges(product, 64))
    assert len(pre.entries) == size
    reduced = star_residual(g, 63, pre)
    g, lists = reduced.base_residual, reduced.lists
    assert max_degree(g) == 64
    assert _check_against_reference(g, lists) == "konig"  # with 47 short lists at size 40


def _cube_residual(d):
    """The residual base and lists of the seeded maximal induced matching of Q_d."""
    _, pre = roadmap_cube_instance(d)
    reduced = reduce_instance(hypercube(d - 1), 1, pre)
    return reduced.base_residual, reduced.lists


def _konig_outcome(color, g):
    """Ordered items and palette, or the error's type and message."""
    try:
        col = color(g)
    except EdgexError as exc:
        return type(exc), str(exc)
    return list(col.assignment.items()), col.palette_size


@given(kernel_instances())
@settings(max_examples=300, deadline=None)
def test_konig_matches_reference(instance):
    g, _ = instance
    assert _konig_outcome(konig_color, g) == _konig_outcome(reference_konig_color, g)


@pytest.mark.parametrize("d", range(6, 12))
def test_konig_and_certify_base_match_reference_on_seeded_cube_residuals(d):
    # the König base, and whether it passes the certificate, as by the
    # reference copies; only the Q_6 residual's König base passes
    g, lists = _cube_residual(d)
    assert _konig_outcome(konig_color, g) == _konig_outcome(reference_konig_color, g)
    short = [e for e in g.edges if len(lists.lists[e]) < max_degree(g)]
    certified = reference_certifies(g, lists, bipartition(g), reference_konig_color(g).assignment, short)
    with list_coloring_bases() as bases:
        demand_list_color(g, lists)
    assert bases == ["konig" if certified else "peeled"]
    assert certified == (d == 6)


def _disjoint_union(g, h):
    """g and h side by side, h's vertices shifted past g's."""
    return build_graph(
        list(g.labels) + [f"h{v}" for v in range(h.n)],
        list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges],
    )


@st.composite
def peel_graphs(draw):
    """Bipartite graphs of every shape the peel must handle: random ones
    (isolated vertices included), disjoint unions of two, stars, regular
    ones and edgeless ones."""
    kind = draw(st.sampled_from(("random", "union", "star", "regular", "edgeless")))
    if kind == "random":
        return draw(bipartite_graphs(max_n=12))
    if kind == "union":
        return _disjoint_union(draw(bipartite_graphs(max_n=8)), draw(bipartite_graphs(max_n=8)))
    if kind == "star":
        return star(draw(st.integers(min_value=1, max_value=12)))
    if kind == "edgeless":
        return build_graph([f"v{i}" for i in range(draw(st.integers(min_value=0, max_value=5)))], [])
    n = draw(st.integers(min_value=1, max_value=8))
    return regular_bipartite(n, draw(st.integers(min_value=1, max_value=n)))


@given(peel_graphs())
@example(hypercube(4))
@example(complete_bipartite(4, 5))
@settings(max_examples=300, deadline=None)
def test_peeled_ranks_meet_the_demand_bound(g):
    # r_x(e) + r_y(e) <= max(d(x), d(y)) - 1, counted from each vertex's ranking
    sums = peeled_rank_sums(g)
    assert all(sums[e] <= demand(g, e) - 1 for e in g.edges)


@pytest.mark.parametrize("d", range(3, 11))
def test_dimension_base_peels_within_the_demand_bound(d):
    # seeded induced matchings of Q_d, each smaller than a perfect matching
    # of Q_{d-1}, reduced as extend_hypercube reduces them: the residual
    # keeps degree k = d - 1, so its dimension coloring in 1..k is a proper
    # maximum-degree coloring, and the peel from it meets the demand bound
    q, k = hypercube(d), d - 1
    for seed in range(3):
        rng = random.Random(f"dimension {d} {seed}")
        pre = random_valid_precoloring(rng, q, d, rng.randint(1, 2 ** (d - 2) - 1))
        g = reduce_instance(hypercube(k), 1, pre).base_residual
        assert max_degree(g) == k
        colors, at = coloring._dimension_base(g)
        assert (colors, at) == reference_dimension_base(g)
        assert verify_proper(g, EdgeColoring(k, dict(zip(g.edges, colors)))).ok
        sides = parity_bipartition(g)
        assert all(sides.side[u] != sides.side[v] for u, v in g.edges)
        sums = peeled_rank_sums(g, (colors, at), sides)
        assert all(sums[e] <= demand(g, e) - 1 for e in g.edges)


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran")


class TestBkwScale:
    # random bipartite G(150, 150, 0.27), about 6,100 edges: each call takes
    # about 0.1 s, with the search patched to fail

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_demand_sized_lists_color(self, seed, monkeypatch):
        monkeypatch.setattr(coloring, "_search", _no_search)
        g, lists = bkw_instance(seed)
        with list_coloring_bases() as bases:
            col = demand_list_color(g, lists)
        assert bases == ["peeled"]
        assert verify_proper(g, col, lists).ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lists_one_short_rejected(self, seed, monkeypatch):
        monkeypatch.setattr(coloring, "_search", _no_search)
        g, lists = bkw_instance(seed, short=1)
        below = [e for e in g.edges if len(lists.lists[e]) < demand(g, e)]
        assert below == list(g.edges)
        with pytest.raises(DemandViolationError) as info:
            demand_list_color(g, lists)
        assert str(info.value) == f"lists shorter than endpoint-degree demand at {below}"


class TestMalformedLists:
    def test_repeated_color(self):
        lists = ListAssignment(lists={(0, 1): (1, 1), (1, 2): (1, 2)})
        for call in (demand_list_color, exact_list_color):
            with pytest.raises(BadParameterError, match=r"^list of edge \(0, 1\) must hold distinct ints, got \(1, 1\)$"):
                call(path(3), lists)

    @pytest.mark.parametrize("bad", [None, (1, "a"), (True, 2), (1.0,), "12", 3])
    def test_lists_that_are_not_ints(self, bad):
        lists = ListAssignment(lists={(0, 1): (1, 2), (1, 2): bad})
        calls = (demand_list_color, exact_list_color, lambda g, lists: make_list_assignment(g, lists.lists))
        for call in calls:
            with pytest.raises(BadParameterError, match=r"^list of edge \(1, 2\) must hold (distinct )?ints"):
                call(path(3), lists)
        with pytest.raises(BadParameterError, match=r"^list of edge \(1, 2\) must hold ints"):
            verify_proper(path(3), EdgeColoring(2, {(0, 1): 1, (1, 2): 2}), lists)

    def test_palette_read_from_the_edges_only(self):
        lists = ListAssignment(lists={(0, 1): (1,), (1, 2): (2,), (5, 6): (9,)})
        assert exact_list_color(path(3), lists) == EdgeColoring(2, {(0, 1): 1, (1, 2): 2})


class TestOneFactorization:
    def test_order_two(self):
        assert one_factorization(2) == [[(0, 1)]]

    def test_order_four_partitions_k4(self):
        classes = one_factorization(4)
        assert len(classes) == 3
        union = [e for cls in classes for e in cls]
        assert sorted(union) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_partition_property(self, m):
        order = 2 * m
        classes = one_factorization(order)
        assert len(classes) == order - 1
        seen = set()
        for cls in classes:
            assert len(cls) == m
            touched = [v for e in cls for v in e]
            assert sorted(touched) == list(range(order))  # perfect matching
            for e in cls:
                assert e not in seen
                seen.add(e)
        assert len(seen) == m * (order - 1)

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrderError):
            one_factorization(5)
        with pytest.raises(OddOrderError):
            one_factorization(0)


class TestVerifyProper:
    def test_valid_c4(self):
        g = cycle(4)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        assert verify_proper(g, col).ok

    def test_conflict_at_middle_vertex(self):
        g = path(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 1})
        report = verify_proper(g, col)
        assert report.conflicts == (((0, 1), (1, 2)),)
        assert "vertex 1" in str(report)

    def test_off_list(self):
        g = path(2)
        lists = make_list_assignment(g, {(0, 1): (2, 3)})
        report = verify_proper(g, EdgeColoring(3, {(0, 1): 1}), lists)
        assert report.off_list == ((0, 1),)

    def test_off_palette(self):
        g = path(2)
        report = verify_proper(g, EdgeColoring(2, {(0, 1): 5}))
        assert report.off_palette == ((0, 1),)

    def test_missing_edge(self):
        g = path(3)
        with pytest.raises(MissingEdgeError):
            verify_proper(g, EdgeColoring(2, {(0, 1): 1}))

    def test_all_pairs_reported(self):
        g = star(3)
        col = EdgeColoring(3, {(0, 1): 2, (0, 2): 2, (0, 3): 2})
        assert len(verify_proper(g, col).conflicts) == 3

    def test_clash_at_the_larger_endpoint_of_both_edges(self):
        g = build_graph(["a", "b", "c"], [(0, 2), (1, 2)])
        report = verify_proper(g, EdgeColoring(2, {(0, 2): 1, (1, 2): 1}))
        assert report.conflicts == (((0, 2), (1, 2)),)

    def test_aliased_keys_without_a_clash(self):
        # (p + 1) at vertex x and 0 at vertex x + 1 share a key, so the
        # exact pass runs and finds nothing
        g = path(4)
        col = EdgeColoring(3, {(0, 1): 4, (1, 2): 0, (2, 3): 1})
        report = verify_proper(g, col)
        assert report == reference_verify_proper(g, col)
        assert report.conflicts == () and report.off_palette == ((0, 1), (1, 2))

    def test_true_clashes_with_one(self):
        g = path(3)
        col = EdgeColoring(2, {(0, 1): True, (1, 2): 1})
        assert verify_proper(g, col).conflicts == (((0, 1), (1, 2)),)

    def test_edges_without_a_list_are_never_off_list(self):
        g = path(3)
        lists = ListAssignment(lists={(0, 1): (2,)})
        report = verify_proper(g, EdgeColoring(2, {(0, 1): 1, (1, 2): 2}), lists)
        assert report.off_list == ((0, 1),)

    def test_missing_edges_listed_in_edge_order(self):
        g = path(4)
        with pytest.raises(MissingEdgeError, match=r"misses edges \[\(0, 1\), \(2, 3\)\]"):
            verify_proper(g, EdgeColoring(2, {(1, 2): 1}))

    def test_disagreement_with_a_prescription(self):
        g = path(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        report = verify_proper(g, col, prescribed={(2, 1): 1, (1, 0): 1})
        assert report.disagreements == (((1, 2), 1, 2),)
        assert not report.ok and str(report) == "edge (1, 2) prescribed 1 but colored 2"
        assert verify_proper(g, col, prescribed={(1, 0): 1}).ok

    def test_uncolored_prescribed_pair_got_none(self):
        g = path(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        assert verify_proper(g, col, prescribed={(0, 2): 1}).disagreements == (((0, 2), 1, None),)

    def test_malformed_prescription_key(self):
        col = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(UnknownEdgeError):
            verify_proper(path(2), col, prescribed={(0, 1, 2): 1})

    def test_colored_non_edges(self):
        g = path(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (0, 2): 1, (5, 9): 2})
        report = verify_proper(g, col)
        assert report.not_edges == ((0, 2), (5, 9))
        assert not report.ok
        assert str(report) == "pair (0, 2) colored but not an edge; pair (5, 9) colored but not an edge"

    @pytest.mark.parametrize("palette", ["3", None, 3.0, True])
    def test_non_int_palette(self, palette):
        with pytest.raises(BadParameterError, match=r"^palette_size must be an int"):
            verify_proper(path(2), EdgeColoring(palette, {(0, 1): 1}))

    @pytest.mark.parametrize("color", [None, 1.5, 1.0, True, "1", [1]])
    def test_non_int_colors_off_palette(self, color):
        report = verify_proper(path(4), EdgeColoring(3, {(0, 1): color, (1, 2): 2, (2, 3): 1}))
        assert report == ColoringReport(off_palette=((0, 1),))

    def test_only_numbers_clash(self):
        # equal numbers clash; any other color is merely off the palette
        col = EdgeColoring(3, {(0, 1): 1.5, (1, 2): 1.5, (2, 3): None, (3, 4): None, (4, 5): [1]})
        report = verify_proper(path(6), col)
        assert report.conflicts == (((0, 1), (1, 2)),)
        assert report.off_palette == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


@pytest.mark.parametrize(
    "call, what",
    [
        (demand_list_color, "lists"),
        (exact_list_color, "lists"),
        (lambda g, lists: make_list_assignment(g, lists.lists), "lists"),
    ],
    ids=["demand", "exact", "make_list_assignment"],
)
def test_missing_edges_named(call, what):
    lists = ListAssignment(lists={(0, 1): (1, 2), (2, 3): (1, 2)})
    with pytest.raises(MissingEdgeError, match=rf"^{what} misses edges \[\(1, 2\)\]$"):
        call(path(4), lists)


@st.composite
def verify_cases(draw):
    """A graph (bipartite or not), a coloring with planted faults, and
    optionally lists covering some of the edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not bipartite or side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph([f"v{i}" for i in range(n)], edges)
    if draw(st.booleans()):
        # a color per edge: proper, so each planted clash is the only one
        p = len(g.edges) + draw(st.integers(min_value=0, max_value=2))
        colors = {e: i + 1 for i, e in enumerate(g.edges)}
    else:
        p = draw(st.integers(min_value=1, max_value=4))
        colors = {e: draw(st.integers(min_value=1, max_value=p)) for e in g.edges}
    for kind in draw(st.lists(st.sampled_from(("low", "high", "off", "alias")), max_size=4)):
        if not g.edges:
            break
        e = draw(st.sampled_from(g.edges))
        if kind in ("low", "high"):
            # copy a neighbor's color across e's smaller or larger endpoint
            x = e[0] if kind == "low" else e[1]
            others = [f for f in g.incident_edges(x) if f != e]
            if others:
                colors[e] = colors[draw(st.sampled_from(others))]
        elif kind == "off":
            colors[e] = draw(st.sampled_from((0, -1, p + 1, 1.5, True)))
        else:
            x = draw(st.sampled_from(e))
            others = [f for f in g.incident_edges(x + 1) if f != e] if x + 1 < n else []
            if others:
                colors[e] = p + 1
                colors[draw(st.sampled_from(others))] = 0
    if g.edges and draw(st.integers(min_value=0, max_value=4)) == 0:
        for e in draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=2)):
            colors.pop(e, None)
    lists = None
    if draw(st.booleans()):
        palette = list(range(0, p + 2))
        lists = ListAssignment(
            lists={
                e: tuple(sorted(draw(st.sets(st.sampled_from(palette), max_size=3))))
                for e in g.edges
                if draw(st.booleans())
            },
        )
    return g, EdgeColoring(p, colors), lists


def _verify_outcome(check, g, col, lists):
    try:
        return check(g, col, lists)
    except EdgexError as exc:
        return type(exc), str(exc)


@given(verify_cases())
@settings(max_examples=400, deadline=None)
def test_verify_proper_matches_reference(case):
    g, col, lists = case
    assert _verify_outcome(verify_proper, g, col, lists) == _verify_outcome(reference_verify_proper, g, col, lists)


@given(verify_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_verify_proper_is_its_core_on_the_edge_order(case, data):
    # verify_proper reads the colors in g.edges order (MissingEdgeError if
    # one is missing), hands them to coloring._verify with the prescription
    # as (id, color) pairs by id, and adds the pairs outside g; a prescribed
    # pair outside g reads its color from the dict
    g, col, lists = case
    keys = data.draw(st.lists(st.sampled_from([*g.edges, (0, g.n), (g.n, g.n + 1)]), max_size=3, unique=True))
    prescribed = {
        (v, u) if data.draw(st.booleans()) else (u, v): data.draw(st.integers(0, 3)) for u, v in keys
    }
    if data.draw(st.booleans()):
        col = EdgeColoring(col.palette_size, {**col.assignment, (0, g.n): 1})
    a = col.assignment

    def via_core(g, col, lists):
        missing = [e for e in g.edges if e not in a]
        if missing:
            raise MissingEdgeError(f"coloring misses edges {missing}")
        ids = {e: i for i, e in enumerate(g.edges)}
        keyed = [(canonical_edge(*key), c) for key, c in prescribed.items()]
        pins = sorted(((ids[e], c) for e, c in keyed if e in ids), key=lambda t: t[0])
        report = coloring._verify(g, [a[e] for e in g.edges], col.palette_size, lists, pins)
        strays = [(e, c, a.get(e)) for e, c in keyed if e not in ids and a.get(e) != c]
        disagreements = tuple(sorted([*report.disagreements, *strays], key=lambda t: t[0]))
        return replace(report, disagreements=disagreements, not_edges=tuple(e for e in a if e not in ids))

    def public(g, col, lists):
        return verify_proper(g, col, lists, prescribed)

    assert _verify_outcome(public, g, col, lists) == _verify_outcome(via_core, g, col, lists)


@given(kernel_instances())
@settings(max_examples=200, deadline=None)
def test_demand_list_color_is_its_core_keyed_by_edge(instance):
    # demand_list_color parses the lists by edge id, colors by edge id
    # (sides from the bipartition, inside the core) and keys the colors by
    # g.edges, in that order
    g, lists = instance

    def via_core(g, lists):
        ls = coloring._edge_lists(g, lists)
        assert all(type(colors) is frozenset for colors in ls)
        colors = coloring._list_color(g, ls)
        return EdgeColoring(max(set().union(*ls), default=0), dict(zip(g.edges, colors)))

    got = _kernel_outcome(demand_list_color, g, lists)
    assert got == _kernel_outcome(via_core, g, lists)
    outcome, _records = got
    if type(outcome[0]) is list:
        assert [e for e, _c in outcome[0]] == list(g.edges)


def test_bipartition_of_catalog_members():
    for g in CATALOG:
        bipartition(g)
