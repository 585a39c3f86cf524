"""Exact extendability decisions and adversarial non-extendable instances.

``decide_extendable`` is the ground truth the constructive pipeline is
cross-validated against: a complete backtracking search over proper
palette-colorings agreeing with the prescription. The adversarial side
builds the classical obstruction: precolor, in one color, an induced
matching covering the neighborhood of a maximum-degree product vertex;
that vertex needs every palette color on its incident edges, yet none of
them may take the reserved color.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass, field

from .coloring import EdgeColoring, _require_budget, _search, _verify
from .errors import (
    BadParameterError,
    InapplicableError,
    InvalidPrecoloringError,
    ProofInvariantError,
    _require_instance,
    _require_ints,
)
from .extension import Precoloring, validate_precoloring
from .families import (
    MAX_MATCHING_MEMO,
    ProductGraph,
    _as_graph,
    _kept,
    _require_size,
    cartesian_product,
    complete_bipartite,
)
from .graph import (
    Edge,
    Graph,
    _require_graph,
    bipartition,
    canonical_edge,
    max_degree,
)

_log = logging.getLogger("edgex")


def decide_extendable(
    g: Graph,
    pre: Precoloring,
    palette: int,
    budget: int | None = None,
) -> EdgeColoring | None:
    """Exact decision: a proper palette-coloring extending pre, or None.

    Complete backtracking with minimum-remaining-values ordering, forward
    checking, pigeonhole pruning and canonical tie-breaking; the witness is
    re-verified before being returned. An unprescribed edge's domain is the
    prescribed colors plus the 2*max_degree - 1 lowest others: with at most
    2*max_degree - 2 neighbors it never empties, and verdicts, witnesses and
    node counts are those of whole-palette domains. A prescription that
    leaves some vertex more uncolored edges than colors for them, the
    blocked hub among them, is refuted before any search node. Most
    decisions reach their witness on the search's first descent, which keeps
    no pigeonhole counts until it meets a dead end. With a node budget,
    exhausting it raises BudgetExceededError: an inconclusive outcome, never
    a "no". The palette and the budget must be ints, the budget at least 0,
    prescribed colors ints in 1..palette, and no edge may be prescribed
    under both of its key orders (BadParameterError).

    The boundary view of ``_decide``: it checks its arguments, finds each
    prescribed key's edge id by one bisection, and keys the witness by edge
    for the return.
    """
    _require_graph(g=g)
    _require_instance(Precoloring, pre=pre)
    _require_ints(palette=palette)
    _require_budget(budget)
    found = _decide(g, _prescribed_ids(g, pre, palette), palette, budget)
    if found is None:
        return None
    order, colors = found
    return EdgeColoring(palette_size=palette, assignment={g.edges[i]: colors[i] for i in order})


def _decide(
    g: Graph, entries: dict[int, int], palette: int, budget: int | None
) -> tuple[list[int], list[int]] | None:
    """decide_extendable on edge ids: `entries` maps distinct edge ids of g
    to colors in 1..palette. Builds the bounded domains as a list by id,
    pins the prescription first (a dead end there means it is itself
    improper or strangled, hence not extendable), and searches along g's
    neighbor lists, which g derives once for every decision on it. The
    witness, ``_search``'s (ids in insertion order, colors by id), is
    checked in full against the palette and the prescription by id before
    it is returned (ProofInvariantError otherwise); None when there is
    none."""
    used = set(entries.values())
    others = (c for c in range(1, palette + 1) if c not in used)
    bounded = used.union(itertools.islice(others, max(0, 2 * max_degree(g) - 1)))
    dom = [{entries[i]} if i in entries else set(bounded) for i in range(len(g.edges))]
    pins = sorted(entries.items())
    found = _search(g, dom, budget, pins)
    if found is None:
        return None
    report = _verify(g, found[1], palette, prescribed=pins)
    if not report.ok:
        raise ProofInvariantError(f"search produced an invalid witness: {report}")
    return found


def _prescribed_ids(g: Graph, pre: Precoloring, palette: int) -> dict[int, int]:
    """The prescription by edge id, each key found by one bisection;
    UnknownEdgeError for a key that names no edge, BadParameterError when
    two keys name one edge or a color is not an int in 1..palette (a bool
    is not)."""
    entries: dict[int, int] = {}
    for key, c in pre.entries.items():
        i = g._edge_id(key)
        if i in entries:
            raise BadParameterError(f"edge {g.edges[i]} prescribed twice")
        if not (type(c) is int and 1 <= c <= palette):
            raise BadParameterError(f"prescribed color {c!r} on {g.edges[i]} outside 1..{palette}")
        entries[i] = c
    return entries


def find_covering_induced_matching(g: Graph, v: int) -> list[Edge] | None:
    """An induced matching avoiding v whose endpoints cover N(v), or None.

    g must be bipartite (NotBipartiteError). Then N(v) lies on one side, so
    an edge avoiding v covers at most one neighbor, and a cover takes one
    edge xy per neighbor x. Its y must be private to x: not v, and adjacent
    to no other neighbor of v; any such choices form an induced matching.
    So there is no cover when some neighbor has no private neighbor, and
    otherwise each neighbor's lowest private edge, sorted, is the smallest
    cover and the lexicographically first of that size.
    """
    _require_graph(g=g)
    g.check_vertex(v)
    bipartition(g)
    return _private_cover(g, v)


def _private_cover(g: Graph, v: int) -> list[Edge] | None:
    """find_covering_induced_matching on a graph known to be bipartite."""
    touches = Counter(y for x in g.adjacency[v] for y in g.adjacency[x])
    cover = []
    for x in g.adjacency[v]:
        y = next((y for y in g.adjacency[x] if y != v and touches[y] == 1), None)
        if y is None:
            return None
        cover.append(canonical_edge(x, y))
    return sorted(cover)


@dataclass(frozen=True)
class BlockedHubInstance:
    """A provably non-extendable one-color prescription around a hub."""

    product: ProductGraph
    precoloring: Precoloring
    hub: int
    g_matching: tuple[Edge, ...]
    h_matching: tuple[Edge, ...]


@dataclass(frozen=True)
class ObstructionCertificate:
    """A search-free proof of non-extendability at a saturated vertex.

    The hub has exactly palette-many incident edges, so each palette color
    must appear on one of them; yet every incident edge is adjacent to a
    prescribed edge of the blocked color and none of them is prescribed
    that color itself.
    """

    hub: int
    blocked_color: int
    witnesses: dict[Edge, Edge] = field(repr=False)


def build_blocked_hub_instance(g: Graph, h: Graph) -> BlockedHubInstance:
    """Construct the non-extendable prescription in G box H.

    Needs, in both factors, a maximum-degree vertex whose neighborhood is
    covered by an induced matching; the lowest-index qualifying vertex and
    the smallest covering matching are used, all entries get color 1.
    """
    _require_graph(g=g, h=h)
    bipartition(g)
    bipartition(h)
    if max_degree(g) + max_degree(h) == 0:
        raise InapplicableError("both factors are edgeless, so the hub has no edge to block")
    a, mg = _hub_and_cover(g, "left factor")
    b, mh = _hub_and_cover(h, "right factor")
    product = cartesian_product(g, h)
    width = h.n
    hub = a * width + b
    entries: dict[Edge, int] = {}
    for (c, d) in mg:
        entries[canonical_edge(c * width + b, d * width + b)] = 1
    for (k, l) in mh:
        entries[canonical_edge(a * width + k, a * width + l)] = 1
    palette = max_degree(g) + max_degree(h)
    pre = Precoloring(palette_size=palette, entries=entries)

    if product.graph.degree(hub) != palette:
        raise ProofInvariantError("hub degree differs from the palette size")
    if not validate_precoloring(product, pre).ok:
        raise ProofInvariantError("blocked-hub instance is not a distance-2 matching")
    return BlockedHubInstance(
        product=product,
        precoloring=pre,
        hub=hub,
        g_matching=tuple(mg),
        h_matching=tuple(mh),
    )


def _hub_and_cover(g: Graph, which: str) -> tuple[int, list[Edge]]:
    """The lowest maximum-degree vertex of the bipartite g that has a cover, and the cover."""
    delta = max_degree(g)
    for v in range(g.n):
        if g.degree(v) != delta:
            continue
        cover = _private_cover(g, v)
        if cover is not None:
            return v, cover
    raise InapplicableError(
        f"{which}: no maximum-degree vertex has a covering induced matching"
    )


def check_local_obstruction(
    p: ProductGraph | Graph, pre: Precoloring
) -> ObstructionCertificate | None:
    """The first saturated vertex w (degree = palette size) with its lowest
    blocked color c and a witness per edge at w, in adjacency order; or None.

    c is blocked at w when no edge at w is prescribed c but each neighbor z
    is on one that is: that edge avoids w, so it witnesses wz, and the
    lowest one is read from an index (vertex, color) -> lowest such edge.
    A declared palette that is not an int raises InvalidPrecoloringError; an
    edge prescribed under both of its key orders, or a color that is not an
    int in 1..palette_size, BadParameterError, so no certificate ever names
    a color outside the palette.
    """
    _require_instance(Precoloring, pre=pre)
    _require_ints(InvalidPrecoloringError, palette_size=pre.palette_size)
    g = _as_graph(p)
    _require_graph(p=g)
    entries = _prescribed_ids(g, pre, pre.palette_size)
    lowest: dict[tuple[int, int], Edge] = {}
    for i, c in sorted(entries.items()):
        e = g.edges[i]
        for x in e:
            lowest.setdefault((x, c), e)
    colors = sorted(set(entries.values()))
    for w in range(g.n):
        if g.degree(w) != pre.palette_size:
            continue
        for c in colors:
            if (w, c) not in lowest and all((z, c) in lowest for z in g.adjacency[w]):
                witnesses = {canonical_edge(w, z): lowest[z, c] for z in g.adjacency[w]}
                return ObstructionCertificate(hub=w, blocked_color=c, witnesses=witnesses)
    return None


@dataclass(frozen=True)
class ExplorationReport:
    """Outcome of an extendability sweep over one product.

    Decisions run in rank order. An exhaustive sweep's counterexample rows
    are sorted by (matching, colors); a sampled sweep's are in draw order.
    Memory does not grow with the budget: the sweep holds the count's memo
    and these rows. A report does not depend on whether the sweep built its
    product's state or took it from the process's kept values.
    """

    instances: int
    extendable: int
    counterexamples: tuple[dict, ...]
    budget_used: int
    seed: int
    exhaustive: bool


def explore_bipartite_factor(
    g: Graph,
    n: int,
    m: int,
    budget: int,
    seed: int = 0,
) -> ExplorationReport:
    """Sweep precolored distance-2 matchings of G box K_{n,m} (n >= m) with
    palette max_degree(G) + n, deciding each exactly.

    An instance is a distance-2 matching of the product with a palette color
    on each of its edges. Their number W, the sum of palette**|M| over the
    matchings M, is counted without listing them
    (``_weighted_matching_count``), and each instance decided is a rank in
    0..W - 1 unranked into its edge ids and colors (``_unrank_instance``).
    When W fits the budget the sweep is exhaustive: it decides ranks 0..W - 1
    in that order, and sorts its counterexample rows by (matching, colors),
    matchings in lexicographic order of edge indices. Otherwise it decides
    budget seeded ``randrange(W)`` draws, uniform with replacement, and
    keeps their rows in draw order; it is flagged non-exhaustive. Either way
    the walk keeps only the count's memo, so memory does not grow with the
    budget, only with the counterexample rows. A count that would keep more
    than MAX_MATCHING_MEMO states times product edges raises
    BadParameterError before memory runs out. Counterexamples are returned
    serialized. Each call logs W, the count's states and the branch at
    debug level.

    A process keeps each (G, n, m)'s product, neighbor lists, close masks
    and memo for later sweeps (``_sweep_state``), G compared by value, in
    the store of ``families._kept``: the benchmark's 28 small products are
    estimated at 1.7 MB, C_10 box K_3,3 at 7.2 MB (6.0 MB traced). Every
    check above runs first and a kept memo is held to the cap again, so a
    later sweep raises, logs and reports exactly what the first did.

    The sweep stays on edge ids from the unranking to the verdict: each
    instance goes to ``_decide`` as it is unranked, its ids distinct and
    its colors in 1..palette by construction, and only a refuted one is
    mapped to its edges, for its row. Ids sort as their edges do, so the
    rows' order is that of the edges.
    """
    _require_graph(g=g)
    _require_ints(n=n, m=m, budget=budget, seed=seed)
    if n < m or m < 1:
        raise BadParameterError("needs n >= m >= 1")
    if budget < 1:
        raise BadParameterError("budget must be positive")
    bipartition(g)
    _require_size(f"G box K_{n},{m}", g.n, len(g.edges), n + m, n * m)  # before K_n,m is built
    palette = max_degree(g) + n
    product, close, memo = _kept(("sweep", g, n, m), lambda: _sweep_state(g, n, m, palette), _state_bytes)
    _require_memo_cap(len(memo), len(close))  # a kept memo too, against the cap as it stands now
    total = memo[(1 << len(close)) - 1]
    exhaustive = total <= budget
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("explore: weight=%d states=%d exhaustive=%s", total, len(memo), exhaustive)

    rng = random.Random(seed)
    ranks = range(total) if exhaustive else (rng.randrange(total) for _ in range(budget))
    decided = min(total, budget)
    refuted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for r in ranks:
        ids, colors = _unrank_instance(memo, close, r)
        if _decide(product, dict(zip(ids, colors)), palette, None) is None:
            refuted.append((ids, colors))
    if exhaustive:
        refuted.sort()  # matchings in lexicographic order, then their colors
    edges = product.edges
    return ExplorationReport(
        instances=decided,
        extendable=decided - len(refuted),
        counterexamples=tuple(
            {
                "palette_size": palette,
                "entries": [{"u": edges[i][0], "v": edges[i][1], "color": c} for i, c in zip(ids, colors)],
            }
            for ids, colors in refuted
        ),
        budget_used=decided,
        seed=seed,
        exhaustive=exhaustive,
    )


def _sweep_state(g: Graph, n: int, m: int, palette: int) -> tuple[Graph, list[int], dict[int, int]]:
    """The product of G box K_{n,m}, its close masks and the count's memo."""
    product = cartesian_product(g, complete_bipartite(n, m)).graph
    close = _close_masks(product)
    return product, close, _weighted_matching_count(close, palette)


def _state_bytes(state: tuple[Graph, list[int], dict[int, int]]) -> int:
    """A sweep state's estimated bytes, as measured: per memo state 120
    bytes plus a quarter byte per product edge, per product edge 200 bytes
    plus an eighth of a byte per edge (graph, neighbor list, close mask)."""
    _product, close, memo = state
    return len(memo) * (120 + len(close) // 4) + len(close) * (200 + len(close) // 8)


def _require_memo_cap(states: int, edges: int) -> None:
    """BadParameterError when a count over `edges` product edges keeps more
    than MAX_MATCHING_MEMO // edges states."""
    limit = MAX_MATCHING_MEMO // max(1, edges)
    if states > limit:
        raise BadParameterError(
            f"counting the distance-2 matchings of {edges} edges needs more than "
            f"{limit} states, past the limit of {MAX_MATCHING_MEMO} states times edges"
        )


def _close_masks(g: Graph) -> list[int]:
    """Bit j of close[i]: edges i and j of g, by id, are at distance < 2;
    bit i is set too.

    Read from g's neighbor lists, which every decision of a sweep uses
    too: own[i] holds edge i and the edges sharing an end with it. An edge
    at distance 1 from i shares an end with some edge j that shares the
    other end of that link with i, so close[i] is own[i] joined with own[j]
    for each neighbor j of i."""
    near = g._edge_neighbors
    own = []
    for i, js in enumerate(near):
        mask = 1 << i
        for j in js:
            mask |= 1 << j
        own.append(mask)
    close = []
    for mask, js in zip(own, near):
        for j in js:
            mask |= own[j]
        close.append(mask)
    return close


def _weighted_matching_count(close: list[int], palette: int) -> dict[int, int]:
    """W(S), the sum of palette**|M| over the distance-2 matchings M within
    the edge mask S, for the full mask and every mask its recurrence reaches.

    W(0) = 1 and W(S) = W(S - low) + palette * W(S - close[low]), low the
    lowest edge of S: a matching within S either skips it, or takes it in
    one of palette colors and then no edge close to it. Counted on an
    explicit stack at most twice as deep as there are edges, so a long
    product raises no RecursionError. Past MAX_MATCHING_MEMO // len(close)
    states the count raises BadParameterError.
    """
    limit = MAX_MATCHING_MEMO // max(1, len(close))
    memo = {0: 1}
    stack = [(1 << len(close)) - 1]
    while stack:
        s = stack[-1]
        if s in memo:  # the empty mask, or pushed twice before it was counted
            stack.pop()
            continue
        low = s & -s
        skip = s ^ low
        take = s & ~close[low.bit_length() - 1]
        a = memo.get(skip)
        b = memo.get(take)
        if a is None:
            stack.append(skip)
        if b is None:
            stack.append(take)
        if a is not None and b is not None:
            memo[s] = a + palette * b
            stack.pop()
            if len(memo) > limit:
                _require_memo_cap(len(memo), len(close))  # raises
    return memo


def _unrank_instance(memo: dict[int, int], close: list[int], r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The instance of rank r in 0..W(full) - 1: a distance-2 matching, as
    ascending edge ids, and a color in 1..palette for each of its edges.

    Walks the memo of ``_weighted_matching_count`` down from the full mask:
    ranks below W(S - low) skip the lowest edge of S; the rest take it, and
    divmod by W(S - close[low]) splits them into its color and the rank
    within what is left. Every rank gives a different instance.
    """
    s = (1 << len(close)) - 1
    ids: list[int] = []
    colors: list[int] = []
    while s:
        low = s & -s
        skip = memo[s ^ low]
        if r < skip:
            s ^= low
            continue
        i = low.bit_length() - 1
        s &= ~close[i]
        c, r = divmod(r - skip, memo[s])
        ids.append(i)
        colors.append(c + 1)
    return tuple(ids), tuple(colors)
