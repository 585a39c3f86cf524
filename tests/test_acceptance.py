"""Acceptance suite: one test per contract criterion, strictest settings.

Each test prints a single PASS line with its headline numbers (visible with
pytest -s or in the captured output); a failed assert is the FAIL signal.
"""

import itertools
import random
import time

from edgex import (
    Precoloring,
    demand_list_color,
    build_blocked_hub_instance,
    canonical_edge,
    cartesian_product,
    check_local_obstruction,
    complete,
    decide_extendable,
    explore_bipartite_factor,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    hypercube,
    make_list_assignment,
    max_degree,
    one_factorization,
    reduce_instance,
    spider,
    star,
    validate_precoloring,
    verify_proper,
)
from edgex.errors import InternalInvariantError

from helpers import (
    brute_force_list_coloring,
    connected_bipartite_catalog,
    edge_distance,
    random_connected_bipartite,
    random_tree,
    random_valid_precoloring,
    complete_factor_palette,
)


def _induced_matchings_up_to_2(g):
    """All distance-2 matchings of size <= 2, the empty one included."""
    singles = [(e,) for e in g.edges]
    pairs = [
        (e, f)
        for e, f in itertools.combinations(g.edges, 2)
        if edge_distance(g, e, f) >= 2
    ]
    return [()] + singles + pairs


def test_acceptance_hypercube_suite():
    start = time.time()
    checked = 0
    for d in (2, 3):
        q = hypercube(d)
        for matching in _induced_matchings_up_to_2(q):
            for colors in itertools.product(range(1, d + 1), repeat=len(matching)):
                pre = Precoloring(d, dict(zip(matching, colors)))
                col = extend_hypercube(d, pre)
                assert verify_proper(q, col).ok
                assert all(col.assignment[e] == c for e, c in pre.entries.items())
                checked += 1
    q4 = hypercube(4)
    rng = random.Random(2024)
    for _ in range(1000):
        pre = random_valid_precoloring(rng, q4, 4, 3)
        col = extend_hypercube(4, pre)
        assert verify_proper(q4, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())
        checked += 1
    elapsed = time.time() - start
    assert elapsed <= 60.0
    print(
        f"\nACCEPTANCE hypercube-suite: PASS "
        f"({checked} instances, d in 2..4, {elapsed:.1f}s)"
    )


def test_acceptance_complete_factor_suite():
    rng = random.Random(31)
    done = 0
    for i in range(500):
        g = random_connected_bipartite(rng, max_n=12, max_degree_cap=4)
        m = 1 + i % 2
        palette = complete_factor_palette(g, m)
        product = cartesian_product(g, complete(2 * m))
        pre = random_valid_precoloring(rng, product.graph, palette, 4)
        col = extend_over_complete(g, m, pre)
        assert verify_proper(product.graph, col).ok
        assert all(col.assignment[e] == c for e, c in pre.entries.items())
        assert set(col.assignment.values()) <= set(range(1, palette + 1))
        done += 1
    print(f"\nACCEPTANCE complete-factor-suite: PASS ({done} instances, m in {{1,2}})")


def test_acceptance_m1_deficient_list_stress():
    rng = random.Random(47)
    built = 0
    while built < 100:
        g = random_connected_bipartite(rng, max_n=10, max_degree_cap=4)
        delta = max_degree(g)
        if delta < 2:
            continue
        # an edge uv with spare neighbors x, y on both sides
        target = None
        for (u, v) in g.edges:
            xs = [x for x in g.adjacency[u] if x != v]
            ys = [y for y in g.adjacency[v] if y != u and (not xs or y != xs[0])]
            if xs and ys:
                target = (u, v, xs[0], ys[0])
                break
        if target is None:
            continue
        u, v, x, y = target
        product = cartesian_product(g, complete(2))
        e1 = canonical_edge(u * 2 + 0, x * 2 + 0)
        e2 = canonical_edge(v * 2 + 1, y * 2 + 1)
        assert edge_distance(product.graph, e1, e2) == 2
        palette = delta + 1
        c1 = 1
        c2 = 2
        pre = Precoloring(palette, {e1: c1, e2: c2})

        red = reduce_instance(g, 1, pre)
        mid = canonical_edge(u, v)
        assert len(red.lists.lists[mid]) == delta - 1
        assert palette - len(red.lists.lists[mid]) == 2
        assert red.base_residual.degree(u) == g.degree(u) - 1
        assert red.base_residual.degree(v) == g.degree(v) - 1
        for e in red.base_residual.edges:
            assert palette - len(red.lists.lists[e]) <= 2

        col = extend_over_complete(g, 1, pre)
        assert verify_proper(product.graph, col).ok
        assert col.assignment[e1] == c1 and col.assignment[e2] == c2
        built += 1
    print(f"\nACCEPTANCE m1-deficient-stress: PASS ({built} engineered instances)")


def test_acceptance_demand_list_engine():
    catalog = connected_bipartite_catalog(7)
    rng = random.Random(55)
    theorem_violations = 0
    instances = 0
    for g in catalog:
        universe = range(1, max(6, max_degree(g)) + 1)
        for _ in range(50):
            lists = make_list_assignment(
                g,
                {
                    e: rng.sample(universe, max(g.degree(e[0]), g.degree(e[1])))
                    for e in g.edges
                },
            )
            try:
                col = demand_list_color(g, lists)
            except InternalInvariantError:
                theorem_violations += 1
                continue
            assert verify_proper(g, col, lists).ok
            assert brute_force_list_coloring(g, lists) is not None
            instances += 1
    assert theorem_violations == 0
    assert instances == len(catalog) * 50
    print(
        f"\nACCEPTANCE demand-list-engine: PASS "
        f"({len(catalog)} graphs x 50 lists = {instances} instances, 0 violations)"
    )


def test_acceptance_cube_and_star_suite():
    rng = random.Random(63)
    runs = 0
    for _ in range(200):
        g = random_tree(rng, max_n=8)
        for m in (1, 2, 3):
            palette = max_degree(g) + m
            cube_product = cartesian_product(g, hypercube(m))
            pre = random_valid_precoloring(rng, cube_product.graph, palette, 3)
            col = extend_over_hypercube(g, m, pre)
            assert verify_proper(cube_product.graph, col).ok
            assert all(col.assignment[e] == c for e, c in pre.entries.items())

            star_product = cartesian_product(g, star(m))
            pre_s = random_valid_precoloring(rng, star_product.graph, palette, 3)
            col_s = extend_over_star(g, m, pre_s)
            assert verify_proper(star_product.graph, col_s).ok
            assert all(col_s.assignment[e] == c for e, c in pre_s.entries.items())
            runs += 2
    print(f"\nACCEPTANCE cube-and-star-suite: PASS ({runs} extensions over 200 trees)")


def test_acceptance_blocked_hub():
    g = spider(3, 2)
    inst = build_blocked_hub_instance(g, g)
    assert validate_precoloring(inst.product, inst.precoloring).ok
    cert = check_local_obstruction(inst.product, inst.precoloring)
    assert cert is not None and cert.hub == inst.hub
    verdict = decide_extendable(
        inst.product.graph, inst.precoloring, inst.precoloring.palette_size, budget=10**7
    )
    assert verdict is None

    rng = random.Random(71)
    for _ in range(100):
        base = random_connected_bipartite(rng, max_n=8)
        m = rng.choice([1, 2])
        product = cartesian_product(base, complete(2 * m))
        palette = complete_factor_palette(base, m)
        pre = random_valid_precoloring(rng, product.graph, palette, 3)
        assert check_local_obstruction(product, pre) is None
    print(
        "\nACCEPTANCE blocked-hub: PASS "
        "(certificate at hub, oracle refutes, 0/100 false obstructions)"
    )


def test_acceptance_one_factorization():
    for m in range(1, 9):
        order = 2 * m
        classes = one_factorization(order)
        assert len(classes) == order - 1
        union = set()
        for cls in classes:
            assert len(cls) == m
            assert sorted(v for e in cls for v in e) == list(range(order))
            assert union.isdisjoint(cls)
            union.update(cls)
        assert len(union) == m * (order - 1)
    print("\nACCEPTANCE one-factorization: PASS (all m <= 8 partition K_2m)")


def test_acceptance_small_bipartite_factors():
    rep11 = explore_bipartite_factor(complete(2), 1, 1, budget=1000)
    assert rep11.exhaustive and rep11.counterexamples == ()
    rep22 = explore_bipartite_factor(complete(2), 2, 2, budget=1000)
    assert rep22.exhaustive and rep22.counterexamples == ()
    print(
        f"\nACCEPTANCE small-bipartite-factors: PASS "
        f"((1,1): {rep11.instances} instances, (2,2): {rep22.instances} instances, 0 counterexamples)"
    )


def test_acceptance_oracle_agreement():
    rng = random.Random(88)
    done = 0
    while done < 100:
        m = rng.choice([1, 1, 1, 2])
        g = random_connected_bipartite(rng, max_n=6 if m == 1 else 3)
        product = cartesian_product(g, complete(2 * m))
        if len(product.graph.edges) > 30:
            continue
        palette = complete_factor_palette(g, m)
        pre = random_valid_precoloring(rng, product.graph, palette, 3)
        col = extend_over_complete(g, m, pre)  # the pipeline accepts it
        assert verify_proper(product.graph, col).ok
        witness = decide_extendable(product.graph, pre, palette)
        assert witness is not None
        assert verify_proper(product.graph, witness).ok
        assert all(witness.assignment[e] == c for e, c in pre.entries.items())
        done += 1
    print(f"\nACCEPTANCE oracle-agreement: PASS ({done} instances, verdicts agree)")
