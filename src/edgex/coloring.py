"""Edge-coloring engines for bipartite graphs.

Three engines cooperate:

* ``konig_color`` builds a proper coloring with exactly max-degree colors by
  alternating-path augmentation.
* ``demand_list_color`` colors from per-edge lists via the kernel method:
  one stable matching per palette color over the edges whose list holds
  it, each X vertex proposing its own edges in ascending base color (the
  Y side keeps the highest). It runs under a certificate: for every edge xy
  (x in X), out(xy), the number of edges at x with a lower base color plus
  those at y with a higher one, is below |L(xy)|. Those are the only edges
  a stable matching can use to dominate xy, so no list runs dry, whatever
  the list sizes. Lists of max-degree colors always pass; a shorter one
  that fails is repaired by Kempe flips of the base. Inside, an edge is its
  id, the position in g.edges: ends, base colors and lists sit in flat
  per-call lists, and each vertex maps a color to the id of its edge of
  that color, so the König base, the repair and the rounds hash no edge
  tuple. As g.edges is lexicographic, id order is canonical edge order, so
  every loop visits the edges as it would by tuple and the output is the
  same item for item.
* ``exact_list_color`` is the complete cross-check: backtracking with
  minimum-remaining-values ordering (edges bucketed by colors left),
  forward checking and a pigeonhole cut at every vertex an assignment
  touches, on an explicit stack (no recursion limit), shared with the
  oracle's budgeted search.

Lists of size max(deg(u), deg(w)) per edge uw, the demand, always suffice
on bipartite graphs (Borodin, Kostochka and Woodall). For G box K_2 (so for
Q_d, G box Q_m and G box K_{1,m}) a residual edge between two prescriptions
of different colors keeps a list below max degree, so the repair runs on
nearly every maximal precolored matching. Demand-sized lists always leave a
flip for a violating edge, but nothing bounds the flips: when the repair
gives up, past its cap, ``demand_list_color`` falls back to the search,
under a node budget, and that fallback is logged. It does happen: random
bipartite G(150, 150, 0.27), seed 1 (6,120 edges), with demand-sized lists
drawn from 1..demand+2 ends in the search after 19 s on a 2-core VM. A
search that refutes the lists is reported as a library bug, never as an
unsatisfiable instance; one past its budget as inconclusive
(BudgetExceededError). Lists below demand that no repaired base certifies
are rejected (DemandViolationError).
"""

from __future__ import annotations

import heapq
import logging
import random
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import groupby

from .errors import (
    BadParameterError,
    BudgetExceededError,
    DemandViolationError,
    MissingEdgeError,
    NoKernelError,
    OddOrderError,
    TheoremViolationError,
    _require_ints,
)
from .families import _require_size
from .graph import SIDE_X, Edge, Graph, _edge_key, bipartition, canonical_edge, max_degree

_log = logging.getLogger("edgex")


@dataclass(frozen=True)
class EdgeColoring:
    """Edge -> color assignment over palette 1..palette_size."""

    palette_size: int
    assignment: dict[Edge, int]


@dataclass(frozen=True)
class ListAssignment:
    """Per-edge color lists, duplicate-free ascending tuples."""

    lists: dict[Edge, tuple[int, ...]]


def _require_covered(g: Graph, mapping: Mapping, what: str) -> None:
    """Raise MissingEdgeError naming the edges of g that `mapping` lacks."""
    missing = [e for e in g.edges if e not in mapping]
    if missing:
        raise MissingEdgeError(f"{what} misses edges {missing}")


def make_list_assignment(g: Graph, lists: dict[Edge, object]) -> ListAssignment:
    """Normalize every edge's list to a duplicate-free ascending tuple."""
    _require_covered(g, lists, "lists")
    return ListAssignment(lists={e: tuple(sorted(set(lists[e]))) for e in g.edges})


@dataclass(frozen=True)
class ColoringReport:
    """Everything wrong with a coloring; empty everywhere means valid.

    disagreements holds (edge, prescribed color, color got or None) for each
    prescribed edge colored otherwise; not_edges the colored pairs that are
    not edges of the graph.
    """

    conflicts: tuple[tuple[Edge, Edge], ...] = ()
    off_palette: tuple[Edge, ...] = ()
    off_list: tuple[Edge, ...] = ()
    disagreements: tuple[tuple[Edge, object, object], ...] = ()
    not_edges: tuple[object, ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.conflicts or self.off_palette or self.off_list or self.disagreements or self.not_edges
        )

    def __str__(self) -> str:
        if self.ok:
            return "coloring ok"
        lines = []
        for e, f in self.conflicts:
            v = (set(e) & set(f)).pop()
            lines.append(f"edges {e} and {f} share vertex {v} and color")
        lines.extend(f"edge {e} colored outside palette" for e in self.off_palette)
        lines.extend(f"edge {e} colored outside its list" for e in self.off_list)
        lines.extend(f"edge {e} prescribed {c} but colored {got}" for e, c, got in self.disagreements)
        lines.extend(f"pair {e} colored but not an edge" for e in self.not_edges)
        return "; ".join(lines)


def verify_proper(
    g: Graph,
    col: EdgeColoring,
    lists: ListAssignment | None = None,
    prescribed: Mapping[Edge, object] | None = None,
) -> ColoringReport:
    """Check properness, palette membership, that only edges of g are
    colored and, optionally, list membership and agreement with a
    prescription (edge -> color, keys in either order).

    Linear passes over g.edges read each edge's color once. Properness is
    screened with a set of int keys x * (p + 1) + c, one per end x of an
    edge colored c (p the palette size). On palette colors a key names the
    pair (x, c), so the coloring is proper iff the set holds 2|E| keys; two
    edges clashing at a vertex always give equal keys, whatever the color.
    An off-palette color may alias another end's key, which only costs the
    exact pass. That pass runs only when the set is short and lists every
    clashing pair vertex by vertex, colors ascending, edges in adjacency
    order, so reports are the same as when it ran on every call. Once every
    edge is known colored, the coloring holds a pair outside g only when it
    has more keys than g has edges; those keys are listed in insertion
    order. Disagreements are listed by canonical edge, a prescribed pair
    left uncolored as got None. This is the one place a coloring is
    compared with a prescription.
    """
    a = col.assignment
    try:
        colors = [a[e] for e in g.edges]
    except KeyError:
        _require_covered(g, a, "coloring")
        raise
    p = col.palette_size
    ends = {x * (p + 1) + c for e, c in zip(g.edges, colors) for x in e}
    conflicts = []
    if len(ends) < 2 * len(colors):
        for v in range(g.n):
            by_color: dict[int, list[Edge]] = {}
            for w in g.adjacency[v]:
                e = canonical_edge(v, w)
                by_color.setdefault(a[e], []).append(e)
            # two distinct edges share at most one vertex, so each clashing
            # pair is discovered exactly once, at that vertex
            for _, same in sorted(by_color.items()):
                conflicts.extend(
                    (same[i], same[j])
                    for i in range(len(same))
                    for j in range(i + 1, len(same))
                )
    off_palette = [e for e, c in zip(g.edges, colors) if not 1 <= c <= p]
    off_list = []
    if lists is not None:
        off_list = [e for e, c in zip(g.edges, colors) if c not in lists.lists.get(e, (c,))]
    disagreements = []
    if prescribed is not None:
        keyed = ((_edge_key(e), c) for e, c in prescribed.items())
        disagreements = sorted(((e, c, a.get(e)) for e, c in keyed if a.get(e) != c), key=lambda t: t[0])
    known = set(g.edges) if len(a) > len(colors) else None
    not_edges = [e for e in a if e not in known] if known is not None else []
    return ColoringReport(
        conflicts=tuple(conflicts),
        off_palette=tuple(off_palette),
        off_list=tuple(off_list),
        disagreements=tuple(disagreements),
        not_edges=tuple(not_edges),
    )


def konig_color(g: Graph) -> EdgeColoring:
    """Proper coloring of a bipartite graph with exactly max_degree colors.

    Classical augmenting construction: color edges in canonical order; when
    the endpoints share no free color, swap colors along the alternating
    path starting at one endpoint, which frees a common color.
    """
    bipartition(g)  # raises NotBipartiteError on bad input
    base, _at = _konig_base(g)
    return EdgeColoring(palette_size=max_degree(g), assignment=dict(zip(g.edges, base)))


def _konig_base(g: Graph) -> tuple[list[int], list[dict[int, int]]]:
    """konig_color of a graph known to be bipartite, by edge id: the color
    of each edge, and each vertex's map from color to the edge holding it."""
    edges = g.edges
    base = [0] * len(edges)
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> edge id
    for i, (u, v) in enumerate(edges):
        at_u, at_v = at[u], at[v]
        a = 1
        while a in at_u:
            a += 1
        b = 1
        while b in at_v:
            b += 1
        if a != b and a in at_v:
            if b not in at_u:
                a = b
            else:
                _flip_alternating_path(edges, at, base, v, a, b)
        base[i] = a
        at_u[a] = i
        at_v[a] = i
    return base, at


def _flip_alternating_path(
    edges: tuple[Edge, ...], at: list[dict[int, int]], base: list[int], start: int, a: int, b: int
) -> list[int]:
    """Swap colors a and b along the path leaving `start` on its a-edge.

    `start` misses b, so the walk is a simple path; bipartiteness keeps the
    other endpoint of the to-be-colored edge off it. Returns the path's
    edge ids.
    """
    path = []
    z, want = start, a
    while want in at[z]:
        i = at[z][want]
        path.append(i)
        u, v = edges[i]
        z, want = (v if u == z else u), (b if want == a else a)
    for i in path:
        u, v = edges[i]
        del at[u][base[i]]
        del at[v][base[i]]
    for i in path:
        new = base[i] = b if base[i] == a else a
        u, v = edges[i]
        at[u][new] = i
        at[v][new] = i
    return path


def _edge_lists(g: Graph, lists: ListAssignment) -> list[tuple[int, ...]]:
    """The list of every edge of g, by edge id; MissingEdgeError names the
    edges that `lists` lacks."""
    try:
        return [lists.lists[e] for e in g.edges]
    except KeyError:
        _require_covered(g, lists.lists, "lists")
        raise


def _kernel_rounds(
    g: Graph,
    ls: list[tuple[int, ...]],
    xs: list[int],
    ys: list[int],
    side: tuple[str, ...],
    base: list[int],
    at: list[dict[int, int]],
) -> EdgeColoring:
    """The kernel rounds of ``demand_list_color`` on a certified base: the
    lists `ls`, the oriented ends xs (in X) and ys, the base colors `base`
    and each vertex's map `at` from color to edge, all by edge id, under the
    bipartition sides `side` of g.

    Per palette color, ascending, until every edge is colored, the uncolored
    edges whose list holds it are matched by deferred acceptance (X proposes
    its edges of the round in ascending base color; Y holds the highest).
    The stable matching is a kernel, so every unmatched edge is dominated by
    a newly colored out-neighbor and can afford to lose that color, which no
    later round reads. Since g.edges is lexicographic, ascending ids are
    canonical edge order, so the rounds meet the edges in the same order as
    over edge tuples. A round forms the tuples of its colored edges only at
    its end, as one set filled in the order of `held`, so the result
    receives them in the same order too, item for item.
    """
    edges = g.edges

    # one set per distinct list object: the residual's unblocked edges all
    # share one tuple, and `ls` keeps every tuple (so its id) alive
    sets: dict[int, set[int]] = {}
    allowed = []
    for colors in ls:
        s = sets.get(id(colors))
        if s is None:
            s = sets[id(colors)] = set(colors)
        allowed.append(s)
    colored: dict[Edge, int] = {}
    palette = sorted(set().union(*sets.values()))

    # each X vertex's edges in one run, by ascending base color (distinct at
    # x); a round's filter keeps that order, so its runs are its proposals
    # and a round walks only its own edges
    uncolored = [at_x[c] for x, at_x in enumerate(at) if side[x] == SIDE_X for c in sorted(at_x)]
    for k in palette:
        if not uncolored:  # later rounds would find nothing to match
            break
        rough = [i for i in uncolored if k in allowed[i]]
        todo = {x: iter(list(run)) for x, run in groupby(rough, key=xs.__getitem__)}
        held: dict[int, int] = {}  # y -> the edge it holds
        free = deque(todo)
        while free:
            x = free.popleft()
            i = next(todo[x], None)  # x proposes its next edge of this round
            if i is None:  # none left: x stays unmatched
                continue
            y = ys[i]
            cur = held.get(y)
            if cur is None:
                held[y] = i
            elif base[i] > base[cur]:  # Y side prefers the higher base color
                held[y] = i
                free.append(xs[cur])
            else:
                free.append(x)
        colored.update(dict.fromkeys({edges[i] for i in held.values()}, k))
        matched = set(held.values())
        if matched:
            uncolored = [i for i in uncolored if i not in matched]
        at_x = {xs[i]: i for i in matched}
        for i in rough:
            # dominated: x's match below i or y's above (no match reads as i)
            if i not in matched and base[at_x.get(xs[i], i)] >= base[i] >= base[held.get(ys[i], i)]:
                raise NoKernelError(f"edge {edges[i]} neither colored nor dominated for color {k}")

    if len(colored) != len(edges):
        raise NoKernelError("edges left uncolored after the palette pass")
    return EdgeColoring(palette_size=palette[-1] if palette else 0, assignment=colored)


def _flip_cap(g: Graph) -> int:
    """Kempe flips ``_certify_base`` may spend before it gives up."""
    return max(1000, 4 * len(g.edges))


def _search_cap(g: Graph) -> int:
    """Search nodes the fallback of ``demand_list_color`` may spend."""
    return max(1_000_000, 100 * len(g.edges))


def _certify_base(
    g: Graph,
    ls: list[tuple[int, ...]],
    xs: list[int],
    ys: list[int],
    base: list[int],
    at: list[dict[int, int]],
    short: list[int],
    delta: int,
) -> int | None:
    """Flip `base` and `at` in place until out(e) < |L(e)| on every edge;
    the flips, or None when the repair gives up.

    Edges are ids into g.edges, as in ``_kernel_rounds``: edge i runs
    from xs[i] in X to ys[i], has list ls[i] and base color base[i], and
    at[v] maps each color at v to its edge. out(i) counts the edges at xs[i]
    with a lower base color and at ys[i] with a higher one. An edge with
    |L(e)| >= max degree `delta` never violates, as out(e) <= delta - 1, so
    only the `short` edges are checked. The lowest violating edge xy of
    color c goes first (lowest id, so canonical order): one Kempe flip gives
    it either a color above c that x misses or a color below c that y
    misses, side and color drawn from random.Random(0); then the edges of
    the flipped path's vertices, read off `at`, are checked again if short.
    The heap pops depend only on the ids pushed, not on their order. Under
    demand-sized lists every violator has such a color (if x saw every color
    above c, deg(x) > out(xy) >= |L(xy)|; likewise for y), but convergence
    is not proven, so past ``_flip_cap`` flips, or at a violator without a
    flip, this gives up; `base` and `at` are then left mid-repair.
    """
    if not short:
        return 0
    edges = g.edges

    def violates(i: int) -> bool:
        c = base[i]
        return len([k for k in at[xs[i]] if k < c]) + len([k for k in at[ys[i]] if k > c]) >= len(ls[i])

    heap = [i for i in short if violates(i)]
    heapq.heapify(heap)
    rng = random.Random(0)
    cap = _flip_cap(g)
    flips = 0
    while heap:
        i = heapq.heappop(heap)
        if not violates(i):  # repaired since it was pushed
            continue
        x, y, c = xs[i], ys[i], base[i]
        options = [(x, k) for k in range(c + 1, delta + 1) if k not in at[x]]
        options += [(y, k) for k in range(1, c) if k not in at[y]]
        if not options or flips == cap:
            return None
        start, k = rng.choice(options)
        path = _flip_alternating_path(edges, at, base, start, c, k)
        flips += 1
        for z in {v for j in path for v in edges[j]}:
            for f in at[z].values():
                if len(ls[f]) < delta and violates(f):
                    heapq.heappush(heap, f)
    return flips


def exact_list_color(g: Graph, lists: ListAssignment, budget: int | None = None) -> EdgeColoring | None:
    """Complete search for a proper in-list coloring; None if none exists.

    Minimum-remaining-values edge ordering with forward checking and
    pigeonhole pruning; all ties broken by canonical edge order and
    ascending color, so the result is deterministic. With a node budget (an
    int), exhausting it raises BudgetExceededError: an inconclusive outcome,
    never a "no". A budget that is not an int >= 0 raises BadParameterError.
    """
    _require_budget(budget)
    _require_covered(g, lists.lists, "lists")
    assignment = _search(g, {e: set(lists.lists[e]) for e in g.edges}, budget)
    if assignment is None:
        return None
    palette = max((c for cs in lists.lists.values() for c in cs), default=0)
    return EdgeColoring(palette_size=palette, assignment=assignment)


def _require_budget(budget: int | None) -> None:
    """A node budget is None or an int >= 0, else BadParameterError."""
    if budget is not None:
        _require_ints(budget=budget)
        if budget < 0:
            raise BadParameterError(f"budget must be >= 0, got {budget}")


def _search(
    g: Graph,
    domains: dict[Edge, set[int]],
    budget: int | None = None,
    pinned: Iterable[tuple[Edge, int]] = (),
) -> dict[Edge, int] | None:
    """A proper coloring of g from the given domains, or None if none exists.

    The pinned (edge, color in its domain) pairs, distinct edges of g, are
    assigned first, in order, as no search nodes. Then a depth-first search
    with forward checking: the unassigned edge with the fewest colors left
    goes next (ties by canonical edge), its colors are tried in ascending
    order, one node each; passing the node budget raises
    BudgetExceededError. Domains are trimmed in place. The witness lists the
    pinned edges first, then the searched ones in search order.

    Edges are indices in canonical order, and the unassigned ones sit in
    buckets by domain size, so the next edge is the lowest index in the
    lowest non-empty bucket. Per vertex v, free[v] counts the unassigned
    edges at v and cnt[v] maps each color to how many of them still offer
    it. An assignment fails when a neighbor's domain empties, or when some
    vertex it touched is left with more unassigned edges than colors to give
    them (free[v] > len(cnt[v]), a pigeonhole; the blocked hub is one). Both
    only cut subtrees without a solution, so the verdict and the first
    witness are those of the same search without the pigeonhole. Each call
    logs its nodes and pigeonhole prunes at debug level.
    """
    edges = g.edges
    at: list[list[int]] = [[] for _ in range(g.n)]  # vertex -> its edges
    for i, (u, v) in enumerate(edges):
        at[u].append(i)
        at[v].append(i)
    dom = [domains[e] for e in edges]
    val: list[int | None] = [None] * len(edges)
    free = [len(incident) for incident in at]
    cnt: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, d in zip(edges, dom):
        for v in e:
            counts = cnt[v]
            for k in d:
                counts[k] = counts.get(k, 0) + 1
    buckets: list[set[int]] = [set() for _ in range(max(map(len, dom), default=0) + 1)]
    for i, d in enumerate(dom):
        buckets[len(d)].add(i)
    trimmed: dict[int, list[int]] = {}  # assigned edge -> neighbors that lost its color
    nodes = pruned = 0

    def assign(i: int, c: int) -> bool:
        """Assign and forward-check; False on an emptied domain or a pigeonhole."""
        nonlocal pruned
        val[i] = c
        d = dom[i]
        buckets[len(d)].remove(i)
        for x in edges[i]:
            free[x] -= 1
            counts = cnt[x]
            for k in d:
                if counts[k] == 1:
                    del counts[k]
                else:
                    counts[k] -= 1
        trim = trimmed[i] = []
        for x in edges[i]:
            for j in at[x]:  # i itself is assigned, so it is skipped
                dj = dom[j]
                if val[j] is None and c in dj:
                    buckets[len(dj)].remove(j)
                    dj.remove(c)
                    buckets[len(dj)].add(j)
                    trim.append(j)
                    for y in edges[j]:
                        counts = cnt[y]
                        if counts[c] == 1:
                            del counts[c]
                        else:
                            counts[c] -= 1
                    if not dj:
                        return False
        for x in edges[i]:
            if free[x] > len(cnt[x]):
                pruned += 1
                return False
        for j in trim:
            for y in edges[j]:
                if free[y] > len(cnt[y]):
                    pruned += 1
                    return False
        return True

    def unassign(i: int) -> None:
        c = val[i]
        val[i] = None
        for j in trimmed.pop(i):
            dj = dom[j]
            buckets[len(dj)].remove(j)
            dj.add(c)
            buckets[len(dj)].add(j)
            for y in edges[j]:
                cnt[y][c] = cnt[y].get(c, 0) + 1
        d = dom[i]
        for x in edges[i]:
            free[x] += 1
            counts = cnt[x]
            for k in d:
                counts[k] = counts.get(k, 0) + 1
        buckets[len(d)].add(i)

    try:
        order = []  # pinned, then searched edges: the witness's insertion order
        for e, c in pinned:
            order.append(bisect_left(edges, e))
            if not assign(order[-1], c):
                return None
        stack: list[tuple[int, Iterator[int]]] = []  # search edges, each with its untried colors
        while True:
            low = next((b for b in buckets if b), None)
            if low is None:
                break
            i = min(low)
            stack.append((i, iter(sorted(dom[i]))))
            while stack:
                i, colors = stack[-1]
                if val[i] is not None:
                    unassign(i)
                c = next(colors, None)
                if c is None:
                    stack.pop()
                    continue
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceededError(nodes - 1)
                if assign(i, c):
                    break
            else:
                return None
        order.extend(i for i, _colors in stack)
        return {edges[i]: val[i] for i in order}
    finally:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("search: nodes=%d pruned=%d", nodes, pruned)


def demand_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring:
    """List-color a bipartite graph from per-edge lists of any size.

    The kernel method (see the module docstring) colors every list that the
    König base, repaired by ``_certify_base``, certifies, below the demand
    max(deg(u), deg(w)) of its edge uw or not. When the repair gives up,
    demand-sized lists, always colorable (Borodin, Kostochka and Woodall),
    fall back to the complete search under a node budget (``_search_cap``):
    BudgetExceededError past it, TheoremViolationError on a refutation.
    Lists below demand then raise DemandViolationError naming their edges,
    after the repair has spent up to ``_flip_cap`` flips. A call that colors
    logs its engine, short lists and flips at debug level. The one
    bipartition of g, its degrees and its lists by edge id are shared with
    the König base, the repair and the kernel rounds.
    """
    sides = bipartition(g)
    ls = _edge_lists(g, lists)
    deg = [len(ns) for ns in g.adjacency]
    delta = max(deg, default=0)
    side = sides.side
    xs = [u if side[u] == SIDE_X else v for u, v in g.edges]
    ys = [v if side[u] == SIDE_X else u for u, v in g.edges]
    short = [i for i, colors in enumerate(ls) if len(colors) < delta]
    base, at = _konig_base(g)
    flips = _certify_base(g, ls, xs, ys, base, at, short, delta)
    if flips is not None:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("list coloring: engine=kernel short=%d flips=%d", len(short), flips)
        return _kernel_rounds(g, ls, xs, ys, side, base, at)
    bad = [(u, v) for (u, v), colors in zip(g.edges, ls) if len(colors) < deg[u] or len(colors) < deg[v]]
    if bad:
        raise DemandViolationError(f"lists shorter than endpoint-degree demand at {bad}")
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("list coloring: engine=search short=%d flips=%d", len(short), _flip_cap(g))
    result = exact_list_color(g, lists, _search_cap(g))
    if result is None:
        raise TheoremViolationError("demand-sized lists reported unsatisfiable")
    return result


def one_factorization(order: int) -> list[list[Edge]]:
    """Partition E(K_order) into order-1 perfect matchings (circle method).

    The highest-index vertex stays fixed; the others rotate. Round r pairs
    the pivot with r and i with j whenever i + j = 2r modulo order-1.
    """
    _require_ints(order=order)
    if order < 2 or order % 2:
        raise OddOrderError(f"1-factorization needs a positive even order, got {order}")
    _require_size(f"K_{order}", order, order * (order - 1) // 2)
    rounds = []
    mod = order - 1
    for r in range(mod):
        pairs = [canonical_edge(order - 1, r)]
        pairs.extend(canonical_edge((r + i) % mod, (r - i) % mod) for i in range(1, order // 2))
        rounds.append(sorted(pairs))
    return rounds
