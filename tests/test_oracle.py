import itertools
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgex import (
    Precoloring,
    build_blocked_hub_instance,
    build_graph,
    canonical_edge,
    cartesian_product,
    check_local_obstruction,
    complete,
    complete_bipartite,
    cycle,
    decide_extendable,
    exact_list_color,
    explore_bipartite_factor,
    extend_hypercube,
    extend_over_complete,
    extend_over_star,
    find_covering_induced_matching,
    hypercube,
    make_list_assignment,
    max_degree,
    path,
    spider,
    star,
    validate_precoloring,
    verify_proper,
)
from edgex.errors import (
    BadParameterError,
    BudgetExceededError,
    InapplicableError,
    InvalidPrecoloringError,
    NotBipartiteError,
    ProofInvariantError,
    UnknownEdgeError,
    VertexIndexError,
)
from edgex import families, oracle
from edgex.oracle import _close_masks, _unrank_instance, _weighted_matching_count

from helpers import (
    brute_force_extendable,
    distances_from,
    edge_distance,
    random_connected_bipartite,
    random_valid_precoloring,
    reference_close_masks,
    reference_distance2_matchings,
    reference_local_obstruction,
    complete_factor_palette,
    debug_records,
    small_bipartite_graphs,
)


class TestDecideExtendable:
    def test_c4_single_edge(self):
        witness = decide_extendable(cycle(4), Precoloring(2, {(0, 1): 1}), 2)
        assert witness is not None
        assert verify_proper(cycle(4), witness).ok
        assert witness.assignment[(0, 1)] == 1

    def test_p3_improper_prescription(self):
        assert decide_extendable(path(3), Precoloring(2, {(0, 1): 1, (1, 2): 1}), 2) is None

    def test_worked_ladder_instance(self):
        g = path(3)
        product = cartesian_product(g, complete(2))
        pre = Precoloring(3, {(0, 2): 3})
        witness = decide_extendable(product.graph, pre, 3)
        assert witness is not None
        assert verify_proper(product.graph, witness).ok
        # full enumeration agrees
        assert brute_force_extendable(product.graph, pre, 3) is not None

    def test_not_enough_colors(self):
        assert decide_extendable(star(3), Precoloring(2, {}), 2) is None

    def test_agrees_with_enumeration(self):
        rng = random.Random(20)
        for _ in range(25):
            g = random_connected_bipartite(rng, max_n=6)
            palette = rng.randint(1, max_degree(g) + 1)
            entries = {}
            for e in g.edges:
                if rng.random() < 0.3:
                    entries[e] = rng.randint(1, palette)
            pre = Precoloring(palette, entries)
            fast = decide_extendable(g, pre, palette)
            slow = brute_force_extendable(g, pre, palette)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert verify_proper(g, fast).ok

    def test_palette_far_past_the_graph(self):
        # an unprescribed edge's domain is the prescribed colors plus the
        # 2 * max_degree - 1 lowest others, not all 10**8 palette colors
        witness = decide_extendable(path(4), Precoloring(10**8, {}), 10**8)
        assert witness.palette_size == 10**8
        assert list(witness.assignment.items()) == [((0, 1), 1), ((1, 2), 2), ((2, 3), 1)]
        witness = decide_extendable(path(4), Precoloring(10**8, {(2, 1): 10**8}), 10**8)
        assert list(witness.assignment.items()) == [((1, 2), 10**8), ((0, 1), 1), ((2, 3), 1)]

    def test_budget_is_inconclusive_not_a_verdict(self):
        g = cartesian_product(path(4), complete(2)).graph
        with pytest.raises(BudgetExceededError):
            decide_extendable(g, Precoloring(3, {}), 3, budget=2)

    def test_bad_color_rejected(self):
        with pytest.raises(BadParameterError):
            decide_extendable(path(2), Precoloring(2, {(0, 1): 5}), 2)

    def test_deterministic(self):
        g = hypercube(3)
        pre = Precoloring(3, {(0, 1): 2})
        assert decide_extendable(g, pre, 3) == decide_extendable(g, pre, 3)

    def test_search_deeper_than_the_recursion_limit(self):
        g = cycle(1200)
        witness = decide_extendable(g, Precoloring(2, {(0, 1): 2}), 2)
        assert witness is not None and verify_proper(g, witness).ok
        assert witness.assignment[(0, 1)] == 2

    def test_same_search_as_exact_list_color(self):
        # the decision is the list search with the prescribed colors as
        # singleton lists and the whole palette everywhere else
        rng = random.Random(31)
        for g in small_bipartite_graphs():
            for palette in range(1, max_degree(g) + 2):
                pre = random_valid_precoloring(rng, g, palette, 3)
                lists = make_list_assignment(
                    g,
                    {
                        e: (pre.entries[e],) if e in pre.entries else range(1, palette + 1)
                        for e in g.edges
                    },
                )
                witness = decide_extendable(g, pre, palette)
                expected = exact_list_color(g, lists)
                assert (witness is None) == (expected is None)
                if witness is not None:
                    assert witness.assignment == expected.assignment

    def test_budget_boundary(self):
        # this witness takes 31 search nodes (30 free edges plus one dead
        # end; 37 before pigeonhole pruning); a budget of exactly that many
        # nodes suffices, one fewer does not
        g = cartesian_product(cycle(4), complete_bipartite(2, 2)).graph
        pre = Precoloring(4, {(3, 15): 1, (10, 14): 1})
        with pytest.raises(BudgetExceededError) as info:
            decide_extendable(g, pre, 4, budget=30)
        assert info.value.nodes == 30
        witness = decide_extendable(g, pre, 4, budget=31)
        assert witness is not None and witness == decide_extendable(g, pre, 4)

    def test_negative_budget_rejected(self):
        # the pinned prescription colors path(2) without a search node, so
        # only the check tells a budget of -1 from one of 0
        pre = Precoloring(2, {(0, 1): 1})
        assert decide_extendable(path(2), pre, 2, budget=0) is not None
        with pytest.raises(BadParameterError, match="budget must be >= 0, got -1"):
            decide_extendable(path(2), pre, 2, budget=-1)

    @pytest.mark.parametrize("color", [1.5, "a", True])
    def test_non_integer_color_rejected(self, color):
        with pytest.raises(BadParameterError):
            decide_extendable(hypercube(3), Precoloring(3, {(0, 1): color}), 3)

    @pytest.mark.parametrize("colors", [(2, 1), (1, 1)])
    def test_edge_prescribed_in_both_orders_rejected(self, colors):
        pre = Precoloring(3, {(0, 1): colors[0], (1, 0): colors[1]})
        with pytest.raises(BadParameterError, match=r"edge \(0, 1\) prescribed twice"):
            decide_extendable(hypercube(3), pre, 3)

    @pytest.mark.parametrize("key", [(0, 1, 2), ("a", 1), (0,), (0.0, 1)])
    def test_malformed_key_is_an_unknown_edge(self, key):
        with pytest.raises(UnknownEdgeError, match="not a pair of ints"):
            decide_extendable(hypercube(3), Precoloring(3, {key: 1, (6, 7): 1}), 3)

    @pytest.mark.parametrize(
        "palette, budget, name",
        [(1.5, None, "palette"), ("3", None, "palette"), (None, None, "palette"), (3, "5", "budget"), (3, 2.0, "budget")],
    )
    def test_non_integer_parameter(self, palette, budget, name):
        pre = Precoloring(3, {(0, 1): 1})
        with pytest.raises(BadParameterError, match=f"{name} must be an int"):
            decide_extendable(hypercube(3), pre, palette, budget=budget)


def corrupt_witnesses(monkeypatch, change):
    """Make the oracle's search hand back each witness it finds after
    change(pins, colors) has edited its colors by id in place."""
    search = oracle._search

    def stub(g, dom, budget, pinned):
        found = search(g, dom, budget, pinned)
        if found is not None:
            change(pinned, found[1])
        return found

    monkeypatch.setattr(oracle, "_search", stub)


def repin(palette):
    """A change that gives the first pinned edge another palette color."""

    def change(pins, colors):
        if pins:
            i, c = pins[0]
            colors[i] = c % palette + 1

    return change


def off_palette(palette):
    """A change that colors the first edge one past the palette."""

    def change(pins, colors):
        colors[0] = palette + 1

    return change


class TestWitnessCheck:
    """Every witness is checked in full against the palette and the
    prescription before it is returned, whether the decision is asked for
    by decide_extendable or made inside a sweep; a witness that fails is an
    internal error, never an answer."""

    @pytest.mark.parametrize(
        "change, message",
        [(repin, r"edge \(0, 1\) prescribed 1 but colored 2"), (off_palette, r"edge \(0, 1\) colored outside palette")],
        ids=["repinned", "off-palette"],
    )
    def test_decide_extendable_raises(self, monkeypatch, change, message):
        corrupt_witnesses(monkeypatch, change(2))
        with pytest.raises(ProofInvariantError, match=f"search produced an invalid witness: .*{message}"):
            decide_extendable(cycle(4), Precoloring(2, {(0, 1): 1}), 2)

    @pytest.mark.parametrize(
        "change, message",
        [(repin, r"prescribed \d but colored \d"), (off_palette, r"edge \(0, 2\) colored outside palette")],
        ids=["repinned", "off-palette"],
    )
    def test_sweep_raises(self, monkeypatch, change, message):
        # P_3 x K_2,1 has palette 4 and first edge (0, 2); its sampled
        # draws at seed 7 include instances with entries, so a repinned
        # witness is met too
        corrupt_witnesses(monkeypatch, change(4))
        with pytest.raises(ProofInvariantError, match=f"search produced an invalid witness: .*{message}"):
            explore_bipartite_factor(path(3), 2, 1, budget=40, seed=7)


@st.composite
def bipartite_graphs(draw, max_n=6):
    """A bipartite graph on 1..max_n vertices, edgeless and disconnected
    ones included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph([f"v{i}" for i in range(n)], edges)


def brute_covering_matchings(g, v):
    """All covering induced matchings avoiding v, by subset enumeration."""
    hood = set(g.adjacency[v])
    candidates = [e for e in g.edges if v not in e]
    dist = {x: distances_from(g, x) for e in candidates for x in e}
    out = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if not hood <= {x for e in combo for x in e}:
                continue
            if all(
                min(dist[x][y] for x in e for y in f) >= 2
                for e, f in itertools.combinations(combo, 2)
            ):
                out.append(combo)
    return out


class TestCoveringInducedMatching:
    def test_spider_center(self):
        g = spider(3, 2)
        assert find_covering_induced_matching(g, 0) == [(1, 2), (3, 4), (5, 6)]

    def test_star_center_has_none(self):
        assert find_covering_induced_matching(star(3), 0) is None

    def test_p3_middle_has_none(self):
        g = path(3)
        assert find_covering_induced_matching(g, 1) is None
        assert brute_covering_matchings(g, 1) == []

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_agrees_with_subset_enumeration(self, g):
        # the enumeration lists covers by size, then lexicographically: the
        # private-neighbor rule must return its first
        for v in range(g.n):
            everything = brute_covering_matchings(g, v)
            expected = list(everything[0]) if everything else None
            assert find_covering_induced_matching(g, v) == expected

    def test_q7_vertex_has_none(self):
        # two neighbors of a cube vertex share a second common neighbor, so
        # no neighbor has a private one
        assert find_covering_induced_matching(hypercube(7), 0) is None

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotBipartiteError):
            find_covering_induced_matching(cycle(5), 0)

    @pytest.mark.parametrize("v", [1.5, "1", True, -1, 7], ids=["float", "str", "bool", "negative", "past-end"])
    def test_non_vertex_rejected(self, v):
        with pytest.raises(VertexIndexError):
            find_covering_induced_matching(spider(3, 2), v)

    def test_isolated_vertex_gets_empty_cover(self):
        from edgex import build_graph

        g = build_graph("abc", [(1, 2)])
        assert find_covering_induced_matching(g, 0) == []


@st.composite
def hub_factors(draw):
    """A bipartite graph on 1..4 vertices or, three times in four, its
    corona (a pendant on every vertex), where every vertex has a covering
    induced matching."""
    g = draw(bipartite_graphs(max_n=4))
    if not draw(st.integers(0, 3)):
        return g
    pendants = [(v, g.n + v) for v in range(g.n)]
    return build_graph([f"v{i}" for i in range(2 * g.n)], list(g.edges) + pendants)


class TestBlockedHub:
    def test_spider_spider_instance(self):
        g = spider(3, 2)
        inst = build_blocked_hub_instance(g, g)
        assert len(inst.precoloring.entries) == 6
        assert inst.product.graph.degree(inst.hub) == 6
        assert inst.precoloring.palette_size == 6
        assert set(inst.precoloring.entries.values()) == {1}
        from edgex import validate_precoloring

        assert validate_precoloring(inst.product, inst.precoloring).ok

    def test_cube_left_factor_inapplicable(self):
        with pytest.raises(InapplicableError, match="left factor"):
            build_blocked_hub_instance(hypercube(5), path(3))

    @settings(max_examples=150, deadline=None)
    @given(hub_factors(), hub_factors())
    def test_every_instance_is_certified_and_refuted(self, g, h):
        try:
            inst = build_blocked_hub_instance(g, h)
        except InapplicableError:
            return
        pre = inst.precoloring
        cert = check_local_obstruction(inst.product, pre)
        assert (cert.hub, cert.blocked_color) == (inst.hub, 1)
        assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None

    def test_star_right_factor_inapplicable(self):
        with pytest.raises(InapplicableError):
            build_blocked_hub_instance(spider(3, 2), star(3))

    def test_two_edgeless_factors_inapplicable(self):
        # the hub would have degree 0 at palette 0: nothing to block
        with pytest.raises(InapplicableError):
            build_blocked_hub_instance(path(1), path(1))

    def test_edgeless_left_factor_still_refuted(self):
        inst = build_blocked_hub_instance(path(1), spider(3, 2))
        assert inst.precoloring.palette_size == 3
        assert check_local_obstruction(inst.product, inst.precoloring) is not None
        assert decide_extendable(inst.product.graph, inst.precoloring, 3) is None

    def test_spider4_instance(self):
        g = spider(4, 2)
        inst = build_blocked_hub_instance(g, g)
        assert len(inst.precoloring.entries) == 8
        assert inst.product.graph.degree(inst.hub) == 8

    def test_every_hub_edge_is_blocked(self):
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        hub_edges = inst.product.graph.incident_edges(inst.hub)
        for e in hub_edges:
            assert any(
                f != e and not set(e).isdisjoint(f) for f in inst.precoloring.entries
            )

    def test_instance_is_not_extendable(self):
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        verdict = decide_extendable(
            inst.product.graph, inst.precoloring, inst.precoloring.palette_size, budget=10**7
        )
        assert verdict is None


@st.composite
def prescriptions(draw, max_n=6):
    """Any graph on 1..max_n vertices, a palette that is often some vertex's
    degree, and entries in up to three palette colors: not necessarily a
    distance-2 matching, nor even proper."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    g = build_graph([f"v{i}" for i in range(n)], draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    degrees = sorted({g.degree(v) for v in range(n)} - {0})
    palette = draw(st.sampled_from(degrees) if degrees and draw(st.booleans()) else st.integers(1, 4))
    colors = st.integers(min_value=1, max_value=min(palette, 3))
    entries = draw(st.dictionaries(st.sampled_from(g.edges), colors)) if g.edges else {}
    return g, Precoloring(palette, entries)


def _certificate_key(cert):
    return None if cert is None else (cert.hub, cert.blocked_color, list(cert.witnesses.items()))


class TestLocalObstruction:
    @settings(max_examples=300, deadline=None)
    @given(prescriptions())
    def test_agrees_with_the_reference_scan(self, case):
        # the index must give the scan's hub, color and witnesses, in order
        g, pre = case
        assert _certificate_key(check_local_obstruction(g, pre)) == _certificate_key(
            reference_local_obstruction(g, pre)
        )

    def test_certificate_on_spider_instance(self):
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        cert = check_local_obstruction(inst.product, inst.precoloring)
        assert cert is not None
        assert cert.hub == inst.hub
        assert cert.blocked_color == 1
        hub_edges = set(inst.product.graph.incident_edges(inst.hub))
        assert set(cert.witnesses) == hub_edges
        for e, f in cert.witnesses.items():
            assert inst.precoloring.entries[f] == 1
            assert f != e and not set(e).isdisjoint(f)

    def test_empty_precoloring_none(self):
        assert check_local_obstruction(hypercube(3), Precoloring(3, {})) is None

    @pytest.mark.parametrize("colors", [(2, 1), (1, 1)])
    def test_edge_prescribed_in_both_orders_rejected(self, colors):
        pre = Precoloring(3, {(0, 1): colors[0], (1, 0): colors[1]})
        with pytest.raises(BadParameterError, match=r"edge \(0, 1\) prescribed twice"):
            check_local_obstruction(hypercube(3), pre)

    def test_non_integer_declared_palette(self):
        with pytest.raises(InvalidPrecoloringError, match="palette_size must be an int"):
            check_local_obstruction(hypercube(3), Precoloring("3", {(0, 1): 1}))

    @pytest.mark.parametrize("color", [99, [1], 1.5, True], ids=["off-palette", "list", "float", "bool"])
    def test_colors_outside_the_palette_rejected(self, color):
        # a certificate for color 99 of a palette of 6 would prove nothing
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        pre = Precoloring(6, dict.fromkeys(inst.precoloring.entries, color))
        with pytest.raises(BadParameterError, match=r"prescribed color .* on \(7, 14\) outside 1\.\.6"):
            check_local_obstruction(inst.product, pre)

    @pytest.mark.parametrize(
        "left, right, witnesses",
        [
            (
                (3, 2),
                (3, 2),
                {(0, 1): (1, 2), (0, 3): (3, 4), (0, 5): (5, 6), (0, 7): (7, 14), (0, 21): (21, 28),
                 (0, 35): (35, 42)},
            ),
            (
                (3, 3),
                (2, 2),
                {(0, 1): (1, 2), (0, 3): (3, 4), (0, 5): (5, 10), (0, 20): (20, 25), (0, 35): (35, 40)},
            ),
        ],
    )
    def test_blocked_hub_certificates_unchanged(self, left, right, witnesses):
        inst = build_blocked_hub_instance(spider(*left), spider(*right))
        cert = check_local_obstruction(inst.product, inst.precoloring)
        assert (cert.hub, cert.blocked_color, cert.witnesses) == (0, 1, witnesses)

    def test_no_false_obstruction_on_valid_instances(self):
        rng = random.Random(22)
        for _ in range(20):
            g = random_connected_bipartite(rng, max_n=8)
            m = rng.choice([1, 2])
            product = cartesian_product(g, complete(2 * m))
            palette = complete_factor_palette(g, m)
            pre = random_valid_precoloring(rng, product.graph, palette, 3)
            assert check_local_obstruction(product, pre) is None
            extend_over_complete(g, m, pre)  # still extendable, of course

    def test_certificates_are_sound(self):
        # wherever a certificate appears, the exact search must agree
        rng = random.Random(23)
        found = 0
        for legs in (3, 4):
            inst = build_blocked_hub_instance(spider(legs, 2), spider(3, 2))
            cert = check_local_obstruction(inst.product, inst.precoloring)
            if cert is None:
                continue
            found += 1
            assert (
                decide_extendable(
                    inst.product.graph, inst.precoloring, inst.precoloring.palette_size
                )
                is None
            )
        assert found > 0


def unrank_edges(memo, close, edges, r):
    """_unrank_instance's instance of rank r, its edge ids mapped to edges."""
    ids, colors = _unrank_instance(memo, close, r)
    return tuple(edges[i] for i in ids), colors


def assert_ranks_are_the_instances(g, palette):
    """The count is the sum of palette**|M| over the reference listing, and
    unranking every rank below it gives each (matching, colors) pair once,
    each matching sorted; sorted, the pairs are the listing's matchings in
    order, each with its colorings in lexicographic order."""
    close = _close_masks(g)
    memo = _weighted_matching_count(close, palette)
    total = memo[(1 << len(g.edges)) - 1]
    listed = reference_distance2_matchings(g)
    assert total == sum(palette ** len(matching) for matching in listed)
    drawn = [unrank_edges(memo, close, g.edges, r) for r in range(total)]
    expected = [
        (matching, colors)
        for matching in listed
        for colors in itertools.product(range(1, palette + 1), repeat=len(matching))
    ]
    assert sorted(drawn) == expected
    assert all(list(matching) == sorted(matching) for matching, _colors in drawn)


@st.composite
def small_sweeps(draw):
    """A bipartite G on at most 3 vertices, K_{n,m} with n >= m and n <= 3,
    and a palette of 1 to 3 colors: at most 7,651 instances to unrank."""
    g = draw(st.sampled_from(small_bipartite_graphs(3)))
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=n))
    return g, n, m, draw(st.integers(min_value=1, max_value=3))


class TestExploreBipartiteFactor:
    def test_k2_n1_m1_exhaustive(self):
        rep = explore_bipartite_factor(complete(2), 1, 1, budget=1000)
        assert rep.exhaustive
        assert rep.counterexamples == ()
        assert rep.instances == rep.extendable == 9  # empty + 4 edges x 2 colors

    def test_k2_n2_m2_exhaustive(self):
        rep = explore_bipartite_factor(complete(2), 2, 2, budget=10_000)
        assert rep.exhaustive
        assert rep.counterexamples == ()
        # K_2 x K_{2,2} is the 3-cube: singletons 12*3, antipodal pairs 6*9
        assert rep.instances == 1 + 36 + 54

    def test_p3_n2_m1_small_budget(self):
        rep = explore_bipartite_factor(path(3), 2, 1, budget=60, seed=0)
        assert rep.counterexamples == ()
        assert rep.budget_used == 60
        assert not rep.exhaustive

    def test_seeded_determinism(self):
        a = explore_bipartite_factor(path(3), 2, 1, budget=40, seed=7)
        b = explore_bipartite_factor(path(3), 2, 1, budget=40, seed=7)
        assert a == b

    def test_rejects_bad_shape(self):
        with pytest.raises(BadParameterError):
            explore_bipartite_factor(complete(2), 1, 2, budget=10)

    @pytest.mark.parametrize(
        "n, m, budget, name",
        [(1.0, 1, 5, "n"), (2, "1", 5, "m"), (1, 1, 2.5, "budget"), (1, 1, True, "budget")],
    )
    def test_non_integer_parameter(self, n, m, budget, name):
        with pytest.raises(BadParameterError, match=f"{name} must be an int"):
            explore_bipartite_factor(path(2), n, m, budget)

    @pytest.mark.parametrize("seed", [[1], True, "a", 1.5])
    def test_non_integer_seed(self, seed):
        # random.Random would raise a bare TypeError on [1] and accept the
        # rest, echoing them in the report
        with pytest.raises(BadParameterError, match="seed must be an int"):
            explore_bipartite_factor(path(3), 2, 1, 40, seed)

    def test_refuted_instances_are_counterexample_rows(self, monkeypatch):
        # no real counterexample is known, so the oracle is made to refute
        # every instance of K_2 x K_1,1 = C_4: the empty matching, then each
        # edge alone in both colors
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        rep = explore_bipartite_factor(complete(2), 1, 1, budget=1000)
        assert (rep.instances, rep.extendable, rep.exhaustive) == (9, 0, True)
        edges = cartesian_product(complete(2), complete_bipartite(1, 1)).graph.edges
        singles = [{"palette_size": 2, "entries": [{"u": u, "v": v, "color": c}]} for u, v in edges for c in (1, 2)]
        assert list(rep.counterexamples) == [{"palette_size": 2, "entries": []}] + singles

    @pytest.mark.parametrize(
        "g, h",
        [
            (path(2), complete_bipartite(2, 1)),
            (path(3), complete(2)),
            (cycle(4), complete(2)),
            (star(2), complete_bipartite(2, 1)),
            (path(2), complete_bipartite(2, 2)),
        ],
    )
    def test_matchings_agree_with_bfs_enumeration(self, g, h):
        product = cartesian_product(g, h).graph
        edges = product.edges
        far = {
            (e, f): edge_distance(product, e, f) >= 2
            for e, f in itertools.combinations(edges, 2)
        }
        expected = [
            combo
            for size in range(len(edges) + 1)
            for combo in itertools.combinations(edges, size)
            if all(far[pair] for pair in itertools.combinations(combo, 2))
        ]
        assert reference_distance2_matchings(product) == sorted(expected)
        # the count and the ranks agree with the listing
        for palette in (1, 2, 3):
            assert_ranks_are_the_instances(product, palette)

    def test_matchings_of_q3_in_order(self, monkeypatch):
        # Q_3 = C_4 box K_1,1, palette 3: the empty matching, each edge, and
        # each edge with its antipodal edge, in lexicographic order, each
        # with its colorings in lexicographic order; decided in rank order
        decided = []

        def refute(g, entries, palette, budget):
            decided.append(tuple((g.edges[i], c) for i, c in sorted(entries.items())))

        monkeypatch.setattr(oracle, "_decide", refute)
        rep = explore_bipartite_factor(cycle(4), 1, 1, budget=91)
        assert (rep.instances, rep.extendable, rep.exhaustive) == (91, 0, True)
        matchings = [
            (),
            ((0, 1),), ((0, 1), (4, 5)),
            ((0, 2),), ((0, 2), (5, 7)),
            ((0, 6),), ((0, 6), (3, 5)),
            ((1, 3),), ((1, 3), (4, 6)),
            ((1, 7),), ((1, 7), (2, 4)),
            ((2, 3),), ((2, 3), (6, 7)),
            ((2, 4),),
            ((3, 5),),
            ((4, 5),),
            ((4, 6),),
            ((5, 7),),
            ((6, 7),),
        ]
        expected = [
            {"palette_size": 3, "entries": [{"u": u, "v": v, "color": c} for (u, v), c in zip(matching, colors)]}
            for matching in matchings
            for colors in itertools.product((1, 2, 3), repeat=len(matching))
        ]
        assert list(rep.counterexamples) == expected
        product = cartesian_product(cycle(4), complete_bipartite(1, 1)).graph
        close = _close_masks(product)
        memo = _weighted_matching_count(close, 3)
        ranked = [unrank_edges(memo, close, product.edges, r) for r in range(91)]
        assert decided == [tuple(zip(matching, colors)) for matching, colors in ranked]


class TestWeightedMatchingCount:
    @given(small_sweeps())
    @settings(max_examples=60, deadline=None)
    def test_ranks_are_the_listed_instances_of_small_sweeps(self, sweep):
        g, n, m, palette = sweep
        product = cartesian_product(g, complete_bipartite(n, m)).graph
        assert_ranks_are_the_instances(product, palette)
        # the sweep's own palette, counted against the listing alone
        sweep_palette = max_degree(g) + n
        memo = _weighted_matching_count(_close_masks(product), sweep_palette)
        listed = reference_distance2_matchings(product)
        assert memo[(1 << len(product.edges)) - 1] == sum(sweep_palette ** len(mt) for mt in listed)

    def test_edgeless_product(self):
        # the one instance, the empty matching, is always within the budget
        rep = explore_bipartite_factor(build_graph([], []), 1, 1, 1)
        assert (rep.instances, rep.exhaustive) == (1, True)

    def test_sampled_sweep_unranks_one_draw_per_instance(self, monkeypatch):
        # each sampled instance is the unranked rng.randrange(W), in order
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        rep = explore_bipartite_factor(path(3), 2, 1, budget=40, seed=7)
        product = cartesian_product(path(3), complete_bipartite(2, 1)).graph
        close = _close_masks(product)
        memo = _weighted_matching_count(close, 4)
        rng = random.Random(7)
        expected = []
        for _ in range(40):
            matching, colors = unrank_edges(memo, close, product.edges, rng.randrange(241))
            entries = [{"u": u, "v": v, "color": c} for (u, v), c in zip(matching, colors)]
            expected.append({"palette_size": 4, "entries": entries})
        assert list(rep.counterexamples) == expected


SWEEP_FACTORS = [path(3), path(4), cycle(4), star(3), spider(2, 2), cycle(6), spider(3, 2)]
SWEEP_RIGHT = [(2, 1), (2, 2), (3, 1), (3, 2)]


class TestCloseMasks:
    """_close_masks sets the bits of the pairs ``graph._close_ids`` finds
    over g's edges; ``helpers.reference_close_masks``, built from BFS edge
    distances, is the reference."""

    @given(bipartite_graphs(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_random_bipartite_graphs(self, g):
        assert _close_masks(g) == reference_close_masks(g)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless_graphs(self, n):
        g = build_graph([str(v) for v in range(n)], [])
        assert _close_masks(g) == reference_close_masks(g) == []

    @pytest.mark.parametrize("factor", SWEEP_FACTORS, ids=repr)
    @pytest.mark.parametrize("n, m", SWEEP_RIGHT)
    def test_sweep_products(self, factor, n, m):
        # every product of the benchmark's oracle sweeps, P_3 x K_2,1 to
        # spider(3, 2) x K_3,2
        product = cartesian_product(factor, complete_bipartite(n, m)).graph
        assert _close_masks(product) == reference_close_masks(product)

    def test_c10_k33(self):
        product = cartesian_product(cycle(10), complete_bipartite(3, 3)).graph
        assert len(product.edges) == 150
        assert _close_masks(product) == reference_close_masks(product)


class TestStarSweeps:
    """G box K_{n,1} is G box K_{1,n}, a case of the theorem, so the exact
    oracle and the construction must agree on every instance."""

    @pytest.mark.parametrize(
        "g, n, total",
        [
            (path(3), 2, 241),
            (cycle(4), 2, 1105),
            (path(4), 2, 1557),
            (complete(2), 2, 31),
            (path(3), 3, 2661),
            (complete(2), 3, 153),
        ],
        ids=["P3xK2,1", "C4xK2,1", "P4xK2,1", "K2xK2,1", "P3xK3,1", "K2xK3,1"],
    )
    def test_exhaustive_sweep_against_extend_over_star(self, g, n, total):
        report = explore_bipartite_factor(g, n, 1, total)
        assert (report.instances, report.extendable, report.exhaustive) == (total, total, True)
        assert report.counterexamples == ()
        # every instance, mapped onto G box K_1,n: K_n,1's vertex n is the
        # star's center 0 and its vertex i the leaf i + 1, in each layer
        product = cartesian_product(g, complete_bipartite(n, 1)).graph
        target = cartesian_product(g, star(n)).graph
        palette = max_degree(g) + n
        close = _close_masks(product)
        memo = _weighted_matching_count(close, palette)
        assert memo[(1 << len(product.edges)) - 1] == total

        def to_star(x):
            layer, b = divmod(x, n + 1)
            return layer * (n + 1) + (0 if b == n else b + 1)

        for r in range(total):
            matching, colors = unrank_edges(memo, close, product.edges, r)
            entries = {canonical_edge(to_star(u), to_star(v)): c for (u, v), c in zip(matching, colors)}
            col = extend_over_star(g, n, Precoloring(palette, entries))
            assert verify_proper(target, col, prescribed=entries).ok


class TestExploreScale:
    """Sweeps whose products have far more matchings than fit in memory;
    the exact search is stubbed, so only the count and the draws run."""

    def test_c10_k33_counts_and_draws(self, monkeypatch):
        # 150 product edges, about 1.9 * 10**14 instances, 45,374 states;
        # listing the matchings ran out of a 2 GB address space
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        start = time.perf_counter()
        rep = explore_bipartite_factor(cycle(10), 3, 3, 20)
        elapsed = time.perf_counter() - start
        assert (rep.instances, rep.exhaustive, len(rep.counterexamples)) == (20, False, 20)
        assert elapsed < 1.0, elapsed
        families._kept_values.clear()  # trace a count, not a kept state
        tracemalloc.start()
        try:
            assert explore_bipartite_factor(cycle(10), 3, 3, 20) == rep
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        product = cartesian_product(cycle(10), complete_bipartite(3, 3))
        for row in rep.counterexamples:
            entries = {(x["u"], x["v"]): x["color"] for x in row["entries"]}
            assert validate_precoloring(product, Precoloring(5, entries)).ok

    def test_budget_past_the_count_walks_the_ranks_lazily(self):
        # a budget of 10**15 makes the C_10 x K_3,3 sweep exhaustive over its
        # 1.9 * 10**14 instances; only the count's memo is held, so the
        # stub's own exception after 1,000 decisions is what ends it. Run in
        # a child under a 1 GB address space, where a sweep that listed its
        # matchings first fails with MemoryError instead of filling memory.
        child = """
import tracemalloc
from edgex import cycle, explore_bipartite_factor, oracle

class Stop(Exception):
    pass

calls = 0

def refute(g, entries, palette, budget):
    global calls
    calls += 1
    if calls > 1000:
        raise Stop

oracle._decide = refute
tracemalloc.start()
try:
    explore_bipartite_factor(cycle(10), 3, 3, 10**15)
except Stop:
    print(calls, tracemalloc.get_traced_memory()[1])
"""
        src = str(Path(oracle.__file__).resolve().parents[1])

        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = 10**9 if hard == resource.RLIM_INFINITY else min(10**9, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        run = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        )
        assert run.returncode == 0 and run.stdout, run.stderr
        calls, peak = map(int, run.stdout.split())
        assert calls == 1001
        assert peak < 64 * 2**20, peak

    def test_long_path_product_counts_without_recursion(self, monkeypatch):
        # 5,998 product edges: a recursive count would nest once per edge
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        rep = explore_bipartite_factor(path(2000), 1, 1, 3)
        assert (rep.instances, rep.exhaustive) == (3, False)
        product = cartesian_product(path(2000), complete_bipartite(1, 1))
        for row in rep.counterexamples:
            entries = {(x["u"], x["v"]): x["color"] for x in row["entries"]}
            assert len(entries) > 100
            assert validate_precoloring(product, Precoloring(3, entries)).ok

    def test_memo_cap_is_a_user_error(self, monkeypatch):
        # C_6 x K_3,2 needs 3,208 states of 66 edges
        monkeypatch.setattr(oracle, "MAX_MATCHING_MEMO", 3207 * 66)
        with pytest.raises(BadParameterError, match="past the limit of 211662 states times edges"):
            explore_bipartite_factor(cycle(6), 3, 2, 20)
        monkeypatch.setattr(oracle, "MAX_MATCHING_MEMO", 3208 * 66)
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        assert explore_bipartite_factor(cycle(6), 3, 2, 20).instances == 20


def counted(monkeypatch, module, name):
    """Wrap module.name so each call is counted; returns the count list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepStates:
    """Sweeps of one (G, n, m) in a process share one kept state: product,
    palette, close masks and the count's memo."""

    SWEEPS = [(path(3), 2, 1), (cycle(4), 2, 2), (star(3), 3, 2)]

    def test_repeated_sweeps_build_and_count_once(self, monkeypatch):
        cold = []
        for seed in range(4):
            families._kept_values.clear()
            with debug_records() as records:
                cold.append((explore_bipartite_factor(cycle(4), 3, 2, 20, seed), records))
        families._kept_values.clear()
        builds = counted(monkeypatch, oracle, "cartesian_product")
        counts = counted(monkeypatch, oracle, "_weighted_matching_count")
        for seed in range(4):
            with debug_records() as records:
                assert (explore_bipartite_factor(cycle(4), 3, 2, 20, seed), records) == cold[seed]
        assert (len(builds), len(counts)) == (1, 1)
        assert len(families._kept_values) == 1

    def test_exhaustive_sweep_reuses_its_state(self, monkeypatch):
        cold = explore_bipartite_factor(path(3), 2, 1, 1000)
        counts = counted(monkeypatch, oracle, "_weighted_matching_count")
        assert explore_bipartite_factor(path(3), 2, 1, 1000) == cold
        assert cold.exhaustive and counts == []

    def test_equal_graphs_share_a_state(self, monkeypatch):
        builds = counted(monkeypatch, oracle, "cartesian_product")
        pairs = [(0, 1), (1, 2), (2, 3)]
        explore_bipartite_factor(build_graph("abcd", pairs), 2, 1, 5)
        explore_bipartite_factor(build_graph(list("abcd"), pairs[::-1]), 2, 1, 5, 1)
        assert len(builds) == 1
        # another n, another m, other edges, other labels: each its own state
        explore_bipartite_factor(build_graph("abcd", pairs), 3, 1, 5)
        explore_bipartite_factor(build_graph("abcd", pairs), 2, 2, 5)
        explore_bipartite_factor(build_graph("abcd", [(0, 1), (1, 2), (1, 3)]), 2, 1, 5)
        explore_bipartite_factor(build_graph("wxyz", pairs), 2, 1, 5)
        assert len(builds) == len(families._kept_values) == 5

    def sizes(self):
        for g, n, m in self.SWEEPS:
            explore_bipartite_factor(g, n, m, 5)
        sizes = [size for _state, size in families._kept_values.values()]
        families._kept_values.clear()
        return sizes

    def test_eviction_drops_the_least_recently_used(self, monkeypatch):
        # sweep states and a cube pair share the one bound and evict each other
        a, b, c = self.sizes()
        extend_hypercube(5, Precoloring(5, {}))
        q = families._kept_values.pop(("Q", 5))[1]
        assert a + b <= c and a <= q
        monkeypatch.setattr(families, "_KEPT_BYTES", c + q)
        (ga, na, ma), (gb, nb, mb), (gc, nc, mc) = self.SWEEPS
        explore_bipartite_factor(ga, na, ma, 5)
        explore_bipartite_factor(gb, nb, mb, 5)
        extend_hypercube(5, Precoloring(5, {}))
        explore_bipartite_factor(ga, na, ma, 5, 1)  # a is now the most recent
        explore_bipartite_factor(gc, nc, mc, 5)  # drops b, then the cube pair
        assert list(families._kept_values) == [("sweep", ga, na, ma), ("sweep", gc, nc, mc)]
        assert sum(size for _value, size in families._kept_values.values()) == a + c
        extend_hypercube(5, Precoloring(5, {}))  # drops a
        assert list(families._kept_values) == [("sweep", gc, nc, mc), ("Q", 5)]
        assert sum(size for _value, size in families._kept_values.values()) == c + q

    def test_kept_size_stays_within_the_bound(self, monkeypatch):
        sizes = self.sizes()
        monkeypatch.setattr(families, "_KEPT_BYTES", max(sizes))
        for g, n, m in self.SWEEPS * 2:
            explore_bipartite_factor(g, n, m, 5)
            assert list(families._kept_values)[-1] == ("sweep", g, n, m)
            assert sum(size for _state, size in families._kept_values.values()) <= max(sizes)

    def test_state_over_the_bound_is_not_kept(self, monkeypatch):
        a, b, c = self.sizes()
        monkeypatch.setattr(families, "_KEPT_BYTES", b - 1)
        (ga, na, ma), (gb, nb, mb), _ = self.SWEEPS
        explore_bipartite_factor(ga, na, ma, 5)
        counts = counted(monkeypatch, oracle, "_weighted_matching_count")
        cold = explore_bipartite_factor(gb, nb, mb, 5)
        assert explore_bipartite_factor(gb, nb, mb, 5) == cold
        assert len(counts) == 2
        assert list(families._kept_values) == [("sweep", ga, na, ma)]  # kept, not evicted by b

    def test_kept_memo_is_held_to_a_lowered_cap(self, monkeypatch):
        # C_6 x K_3,2 needs 3,208 states of 66 edges
        explore_bipartite_factor(cycle(6), 3, 2, 20)
        monkeypatch.setattr(oracle, "MAX_MATCHING_MEMO", 3207 * 66)
        with pytest.raises(BadParameterError) as warm:
            explore_bipartite_factor(cycle(6), 3, 2, 20)
        families._kept_values.clear()
        with pytest.raises(BadParameterError) as cold:
            explore_bipartite_factor(cycle(6), 3, 2, 20)
        assert str(warm.value) == str(cold.value)
        assert "past the limit of 211662 states times edges" in str(cold.value)

    def test_refused_graphs_keep_no_state(self, monkeypatch):
        with pytest.raises(NotBipartiteError):
            explore_bipartite_factor(cycle(5), 2, 1, 5)
        monkeypatch.setattr(oracle, "MAX_MATCHING_MEMO", 10)
        with pytest.raises(BadParameterError, match="past the limit"):
            explore_bipartite_factor(path(3), 2, 1, 5)
        with pytest.raises(BadParameterError, match="past the limit"):
            explore_bipartite_factor(path(2), 10**6, 1, 5)
        assert not families._kept_values
