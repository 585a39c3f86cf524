"""Byte-identity pins for the four extend_* entry points and the oracle.

Each extend_* digest is a sha256 over (palette_size,
list(assignment.items())) of every call in a seeded set, in order: the
coloring, its palette and the assignment's order are all pinned. The
oracle's two digests cover seeded sweeps of small products: one their
ExplorationReports, the other every decision's witness items and every
debug record the sweeps log, whether a sweep builds its product's state or
reuses a kept one. A change that alters any output, even only its
order, changes a digest; one that keeps every output keeps it.
"""

import hashlib
import random

import pytest

from edgex import (
    cartesian_product,
    complete,
    cycle,
    explore_bipartite_factor,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    hypercube,
    path,
    spider,
    star,
)
from edgex import extension, families, oracle
from edgex.graph import max_degree

from helpers import debug_records, random_connected_bipartite, random_valid_precoloring, roadmap_cube_instance


def _hypercube_calls():
    for d in range(3, 10):
        _q, pre = roadmap_cube_instance(d)
        yield lambda pre=pre, d=d: extend_hypercube(d, pre)


def _complete_calls():
    bases = [spider(3, 2), spider(4, 3), spider(2, 5), cycle(4), cycle(6), cycle(10)]
    for k, g in enumerate(bases):
        for m in (2, 3):
            product = cartesian_product(g, complete(2 * m)).graph
            palette = max_degree(g) + 2 * m - 1
            pre = random_valid_precoloring(random.Random(f"complete {k} {m}"), product, palette, 8)
            yield lambda g=g, m=m, pre=pre: extend_over_complete(g, m, pre)


def _factor_calls(kind, factor, extend):
    for seed in range(6):
        g = random_connected_bipartite(random.Random(seed), 9, 3)
        for m in (2, 3):
            product = cartesian_product(g, factor(m)).graph
            palette = max_degree(g) + m
            pre = random_valid_precoloring(random.Random(f"{kind} {seed} {m}"), product, palette, 8)
            yield lambda g=g, m=m, pre=pre: extend(g, m, pre)


# name -> (its calls, the digest of their outputs)
GOLDEN = {
    "extend_hypercube": (
        _hypercube_calls,
        "84d7378a76a79962b457246b95dcba60500e5eea7ffe7404795e2aac6b28980d",
    ),
    "extend_over_complete": (
        _complete_calls,
        "611673021b1c68173045e2d7dd8cf9ee8371e027ce44557e2f95f5d8b03da9e7",
    ),
    "extend_over_hypercube": (
        lambda: _factor_calls("cube", hypercube, extend_over_hypercube),
        "58832ae61128fa98c42e5be93d5e4142afa1a9418f8b5dad2e38de3ac06a51ae",
    ),
    "extend_over_star": (
        lambda: _factor_calls("star", star, extend_over_star),
        "6b52310b590f79d249cfa307a84f76f0cc96c67f0692b4b81b9e21cc0bff5a8b",
    ),
}


def digest(calls) -> str:
    h = hashlib.sha256()
    for call in calls():
        col = call()
        h.update(repr((col.palette_size, list(col.assignment.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_byte_identical(name):
    calls, want = GOLDEN[name]
    assert digest(calls) == want


def test_extend_hypercube_cold_then_warm(monkeypatch):
    # the first pass builds and keeps each cube pair, the second reuses them
    calls, want = GOLDEN["extend_hypercube"]
    build, builds = extension.hypercube, []
    monkeypatch.setattr(extension, "hypercube", lambda d: builds.append(d) or build(d))
    assert digest(calls) == want
    assert builds == [q for d in range(3, 10) for q in (d - 1, d)]
    assert digest(calls) == want
    assert len(builds) == 14


# the benchmark's small oracle products, each factor x K_n,m swept at
# seeds 0-2 with its budget of 20 decisions
ORACLE_SWEEPS = [
    (g, n, m, seed)
    for g in (path(3), path(4), cycle(4), star(3))
    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2))
    for seed in range(3)
]
ORACLE_REPORTS = "87f50443fc7e8405674f35d99f2ede1c2e18896ed47b0e450a4414f383623607"
ORACLE_DECISIONS = "176e1f933dd76eb212b19797f0392dc4505907fcb21c253c9214bcffde5e47fe"


def sweep_digests(monkeypatch):
    """The digests of ORACLE_SWEEPS' reports and of their witnesses and
    debug records, in that order."""
    decide = oracle._decide
    witnesses = []

    def spy(g, entries, palette, budget):
        found = decide(g, entries, palette, budget)
        # the items of the witness decide_extendable would key by edge
        witnesses.append(None if found is None else [(g.edges[i], found[1][i]) for i in found[0]])
        return found

    monkeypatch.setattr(oracle, "_decide", spy)
    reports, decisions = hashlib.sha256(), hashlib.sha256()
    for g, n, m, seed in ORACLE_SWEEPS:
        witnesses.clear()
        with debug_records() as records:
            report = explore_bipartite_factor(g, n, m, 20, seed)
        reports.update(repr(report).encode())
        decisions.update(repr((witnesses, records)).encode())
    return reports.hexdigest(), decisions.hexdigest()


def test_oracle_sweeps_byte_identical(monkeypatch):
    assert sweep_digests(monkeypatch) == (ORACLE_REPORTS, ORACLE_DECISIONS)


def test_oracle_sweeps_cold_then_warm(monkeypatch):
    # each product's first sweep builds its state and its later seeds reuse
    # it; a second pass reuses every state, with the same digests
    assert not families._kept_values
    assert sweep_digests(monkeypatch) == (ORACLE_REPORTS, ORACLE_DECISIONS)
    assert len(families._kept_values) == 16
    assert sweep_digests(monkeypatch) == (ORACLE_REPORTS, ORACLE_DECISIONS)
