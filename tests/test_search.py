"""The search kernel behind exact_list_color and decide_extendable.

Its pigeonhole pruning and bucketed ordering must not change an outcome:
the kernel is checked against ``helpers.reference_search`` (the same search
with neither) for verdicts, witnesses in insertion order and node counts.
decide_extendable's bounded domains are checked against the kernel on
whole-palette domains, budget outcomes and prune counts included. Decisions
whose first, uncounted descent meets a dead end, so that the counted pass
runs, are pinned record for record and witness for witness.
"""

import hashlib
import logging
import re
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgex import (
    EdgeColoring,
    Precoloring,
    build_blocked_hub_instance,
    build_graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    decide_extendable,
    exact_list_color,
    explore_bipartite_factor,
    hypercube,
    make_list_assignment,
    max_degree,
    path,
    reduce_instance,
    spider,
    star,
    verify_proper,
)
from edgex import oracle
from edgex.coloring import _search
from edgex.errors import BudgetExceededError

from helpers import reference_search, roadmap_cube_instance, search_counts

REFERENCE_BUDGET = 5000  # reference searches past this are not compared


@st.composite
def list_instances(draw):
    """A graph on up to 7 vertices (bipartite or not) with random lists,
    some of them empty."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    g = build_graph([f"v{i}" for i in range(n)], edges)
    k = draw(st.integers(min_value=1, max_value=5))
    lists = {
        e: draw(st.lists(st.integers(min_value=1, max_value=k), max_size=k)) for e in g.edges
    }
    return g, make_list_assignment(g, lists)


@st.composite
def prescriptions(draw):
    """A prescription on a small G box K_n,m, distance-2 or not, with a
    palette of max_degree(G) + n or one less."""
    n_g = draw(st.integers(min_value=2, max_value=4))
    pairs = [(u, v) for u in range(n_g) for v in range(u + 1, n_g) if (u + v) % 2]
    g_edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    g = build_graph([f"g{i}" for i in range(n_g)], g_edges)
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=n))
    product = cartesian_product(g, complete_bipartite(n, m)).graph
    palette = max_degree(g) + n - draw(st.integers(min_value=0, max_value=1))
    entries = draw(
        st.dictionaries(
            st.sampled_from(product.edges),
            st.integers(min_value=1, max_value=palette),
            max_size=4,
        )
    )
    return product, Precoloring(palette, entries)


@st.composite
def palette_prescriptions(draw):
    """Any graph on up to 7 vertices, a palette of 1..3 * max_degree + 4,
    a prescription of palette colors, proper or not, and a node budget."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=12))
    g = build_graph([f"v{i}" for i in range(n)], edges)
    palette = draw(st.integers(min_value=1, max_value=3 * max_degree(g) + 4))
    entries = draw(st.dictionaries(st.sampled_from(g.edges), st.integers(min_value=1, max_value=palette), max_size=4))
    budget = draw(st.sampled_from([None, 0, 3, 50]))
    return g, Precoloring(palette, entries), budget


def reference(g, domains, pinned=()):
    """reference_search's (assignment, nodes), or None past the budget."""
    try:
        return reference_search(g, domains, REFERENCE_BUDGET, pinned)
    except BudgetExceededError:
        return None


def search(g, domains, budget=None, pinned=()):
    """The kernel on edge-keyed input and output: domains by edge, pinned
    (edge, color) pairs (converted to id pairs in a list, or in a one-shot
    generator when they come as an iterator), and the witness as a dict in
    insertion order, or None."""
    pins = ((g.edges.index(e), c) for e, c in pinned)
    found = _search(g, [domains[e] for e in g.edges], budget, pins if isinstance(pinned, Iterator) else list(pins))
    if found is None:
        return None
    order, colors = found
    return {g.edges[i]: colors[i] for i in order}


def witness_items(col):
    return None if col is None else list(col.assignment.items())


@given(list_instances())
@settings(max_examples=250, deadline=None)
def test_list_search_matches_reference(instance):
    g, lists = instance
    expected = reference(g, {e: set(lists.lists[e]) for e in g.edges})
    with search_counts() as counts:
        got = exact_list_color(g, lists)
    [(nodes, _pruned)] = counts
    if expected is not None:
        assignment, ref_nodes = expected
        assert witness_items(got) == (None if assignment is None else list(assignment.items()))
        assert nodes <= ref_nodes


@given(prescriptions())
@settings(max_examples=200, deadline=None)
def test_decision_matches_reference(instance):
    product, pre = instance
    palette = pre.palette_size
    domains = {
        e: {pre.entries[e]} if e in pre.entries else set(range(1, palette + 1))
        for e in product.edges
    }
    expected = reference(product, domains, sorted(pre.entries.items()))
    with search_counts() as counts:
        got = decide_extendable(product, pre, palette)
    [(nodes, _pruned)] = counts
    if expected is not None:
        assignment, ref_nodes = expected
        assert witness_items(got) == (None if assignment is None else list(assignment.items()))
        assert nodes <= ref_nodes


def search_outcome(call):
    """(witness items, None or the nodes of a BudgetExceededError, and the
    (nodes, prunes) of every search record)."""
    with search_counts() as counts:
        try:
            got = call()
            got = None if got is None else list(got.items())
        except BudgetExceededError as exc:
            got = exc.nodes
    return got, counts


@given(palette_prescriptions())
@settings(max_examples=300, deadline=None)
def test_bounded_domains_match_whole_palette_domains(instance):
    # decide_extendable's domains hold the prescribed colors plus the
    # 2 * max_degree - 1 lowest others; the same search on whole-palette
    # domains must give the same witness, verdict, budget outcome and counts
    g, pre, budget = instance
    palette = pre.palette_size
    domains = {e: {pre.entries[e]} if e in pre.entries else set(range(1, palette + 1)) for e in g.edges}
    expected = search_outcome(lambda: search(g, domains, budget, pinned=sorted(pre.entries.items())))

    def decide():
        col = decide_extendable(g, pre, palette, budget)
        return None if col is None else col.assignment

    assert search_outcome(decide) == expected


@given(palette_prescriptions())
@settings(max_examples=200, deadline=None)
def test_pinned_generator_matches_list(instance):
    # the pinned pairs are read once, though a search that meets a dead end
    # assigns them in both of its passes
    g, pre, budget = instance
    pairs = sorted(pre.entries.items())

    def outcome(pinned):
        domains = {e: {pre.entries[e]} if e in pre.entries else set(range(1, pre.palette_size + 1)) for e in g.edges}
        return search_outcome(lambda: search(g, domains, budget, pinned))

    assert outcome(pair for pair in pairs) == outcome(pairs)


def witness_digest(col):
    """The first 16 hex digits of the sha256 of a witness's items, in
    insertion order; None for no witness."""
    return None if col is None else hashlib.sha256(repr(list(col.assignment.items())).encode()).hexdigest()[:16]


class TestFirstDescentDeadEnds:
    """Oracle decisions whose first descent meets a dead end, so the search
    undoes it and runs its counted pass: (nodes, pruned) and the witness, as
    recorded before the search ran in two passes. A decision whose first
    descent completes logs its unprescribed edges as nodes and no prune."""

    @pytest.mark.parametrize(
        "factor, seed, dead_ends",
        [
            (cycle(6), 0, {
                0: (78, 4, "5d34019698fbb736"),
                4: (68, 4, "bb0c788e66463525"),
                7: (61, 1, "80857c3f9150e328"),
                12: (127, 8, "15e0c29c7e7d3bbc"),
                13: (81, 5, "836efcbb09840783"),
                14: (62, 1, "d42e01b35593abf4"),
            }),
            (cycle(6), 1, {
                1: (72, 4, "234d682eeb95ea52"),
                3: (61, 1, "594db974983b8d87"),
                4: (118, 8, "93fa024ba3cf564c"),
                10: (84, 5, "5db96ef404b93936"),
                14: (61, 1, "0351132f6d38ebcf"),
            }),
            (cycle(6), 2, {
                3: (98, 10, "9d47e7ae4cb58e6a"),
                5: (62, 1, "6d33f8e19d2b4c6a"),
                6: (68, 1, "6dd9851c3c9bc1d3"),
                9: (62, 1, "e63f46322f6b1970"),
            }),
            (spider(2, 2), 0, {
                6: (46, 1, "82bb77b5c5f6aa7a"),
                7: (47, 1, "d7392b7538373900"),
                8: (47, 1, "9d0520c8f84a5499"),
                19: (46, 1, "1086b108eada6e7b"),
            }),
            (spider(2, 2), 3, {
                10: (46, 1, "1b2501d2c9582a40"),
                13: (48, 2, "fa3ea54e8e12fe40"),
            }),
        ],
        ids=["C6xK3,2@0", "C6xK3,2@1", "C6xK3,2@2", "spider2,2xK3,2@0", "spider2,2xK3,2@3"],
    )
    def test_sweep_records_and_witnesses(self, monkeypatch, factor, seed, dead_ends):
        # dead_ends: a decision's place in the sweep -> (nodes, pruned,
        # witness digest); every other decision descends straight
        decide = oracle._decide
        seen = []

        def spy(g, entries, palette, budget):
            found = decide(g, entries, palette, budget)
            col = None if found is None else EdgeColoring(palette, {g.edges[i]: found[1][i] for i in found[0]})
            seen.append((len(g.edges) - len(entries), witness_digest(col)))
            return found

        monkeypatch.setattr(oracle, "_decide", spy)
        with search_counts() as counts:
            explore_bipartite_factor(factor, 3, 2, 20, seed)
        assert len(seen) == len(counts) == 20
        got = {
            k: (nodes, pruned, digest)
            for k, ((unprescribed, digest), (nodes, pruned)) in enumerate(zip(seen, counts))
            if (nodes, pruned) != (unprescribed, 0)
        }
        assert got == dead_ends

    @pytest.mark.parametrize(
        "left, right",
        [((3, 2), (3, 2)), ((3, 3), (3, 2)), ((4, 2), (3, 2)), ((4, 3), (4, 2))],
        ids=["spider3,2xspider3,2", "spider3,3xspider3,2", "spider4,2xspider3,2", "spider4,3xspider4,2"],
    )
    def test_blocked_hubs(self, left, right):
        # no descent completes on a refuted prescription; the counted pass
        # prunes at the hub as soon as the prescription is pinned
        inst = build_blocked_hub_instance(spider(*left), spider(*right))
        pre = inst.precoloring
        with search_counts() as counts:
            assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None
        assert counts == [(0, 1)]

    def test_backtracking_returns_to_the_lowest_bucket(self):
        # two isolated edges with lists {1, 2}, then a star of seven edges:
        # its first offers only 4..6 and the rest share {1, 2, 3}, so the
        # counted pass prunes at the center on every color of the first
        # star edge without trimming a domain. Each isolated edge put back
        # on backtracking lies in a lower bucket than every star edge and
        # must be chosen again; the record is the one the kernel gave
        # before it ran on edge ids
        g = build_graph(range(11), [(0, 1), (2, 3)] + [(4, x) for x in range(5, 11)])
        lists = {e: (1, 2) if e[0] < 4 else (4, 5, 6) if e == (4, 5) else (1, 2, 3) for e in g.edges}
        with search_counts() as counts:
            assert exact_list_color(g, make_list_assignment(g, lists)) is None
        assert counts == [(18, 12)]


class TestPastTheOldSearch:
    """Instances the search without pigeonhole pruning takes seconds to
    minutes on."""

    def test_blocked_hub_refutation(self):
        inst = build_blocked_hub_instance(spider(5, 3), spider(4, 3))
        pre = inst.precoloring
        with search_counts() as counts:
            assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None
        # the hub is a pigeonhole as soon as the prescription is pinned
        assert counts == [(0, 1)]

    def test_c6_k32_sweep(self):
        report = explore_bipartite_factor(cycle(6), 3, 2, 20, 1)
        assert report.instances == report.extendable == 20

    def test_q11_residual(self):
        _q, pre = roadmap_cube_instance(11)
        red = reduce_instance(hypercube(10), 1, pre)
        col = exact_list_color(red.base_residual, red.lists)
        assert col is not None and verify_proper(red.base_residual, col, red.lists).ok


class TestSearchLog:
    def test_blocked_hub_prunes(self, caplog):
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        pre = inst.precoloring
        caplog.set_level(logging.DEBUG, logger="edgex")
        assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None
        [record] = caplog.records
        found = re.fullmatch(r"search: nodes=(\d+) pruned=(\d+)", record.getMessage())
        assert found and int(found.group(2)) >= 1

    def test_one_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="edgex")
        g = cycle(6)
        assert decide_extendable(g, Precoloring(2, {(0, 1): 1}), 2) is not None
        # both colors of the first edge at the center of K_1,3 leave two
        # edges there with one color between them
        assert decide_extendable(star(3), Precoloring(2, {}), 2) is None
        assert [r.getMessage() for r in caplog.records] == [
            "search: nodes=5 pruned=0",
            "search: nodes=2 pruned=2",
        ]

    def test_silent_below_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="edgex")
        inst = build_blocked_hub_instance(spider(3, 2), spider(3, 2))
        decide_extendable(inst.product.graph, inst.precoloring, inst.precoloring.palette_size)
        g = cycle(4)
        exact_list_color(g, make_list_assignment(g, {e: (1, 2) for e in g.edges}))
        assert caplog.records == []


class TestExploreLog:
    def test_one_record_per_sweep(self, caplog):
        caplog.set_level(logging.DEBUG, logger="edgex")
        explore_bipartite_factor(complete(2), 1, 1, 100)
        explore_bipartite_factor(path(3), 2, 1, 3)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("explore:")]
        # K_2 x K_1,1 = C_4 has 9 instances, P_3 x K_2,1 241 at palette 4
        assert records == [
            "explore: weight=9 states=5 exhaustive=True",
            "explore: weight=241 states=20 exhaustive=False",
        ]

    def test_silent_below_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="edgex")
        explore_bipartite_factor(complete(2), 1, 1, 100)
        explore_bipartite_factor(path(3), 2, 1, 3)
        assert caplog.records == []
