"""Edge-coloring engines for bipartite graphs.

Three engines cooperate:

* ``konig_color`` builds a proper coloring with exactly max-degree colors by
  alternating-path augmentation.
* ``galvin_list_color`` colors from per-edge lists via the kernel method:
  one stable matching per palette color, over preference lists oriented
  and sorted once from a base coloring (low base color wins on the X side,
  high on the Y side). It runs under a certificate: for every edge xy
  (x in X), out(xy), the number of edges at x with a lower base color plus
  those at y with a higher one, is below |L(xy)|. Those are the only edges
  a stable matching can use to dominate xy, so no list runs dry. Lists of
  max-degree colors always pass; a shorter one that fails is repaired by
  Kempe flips of the base.
* ``exact_list_color`` is the complete cross-check: backtracking with
  minimum-remaining-values ordering (edges bucketed by colors left),
  forward checking and a pigeonhole cut at every vertex an assignment
  touches, on an explicit stack (no recursion limit), shared with the
  oracle's budgeted search.

``demand_list_color`` takes lists of size max(deg(u), deg(w)) per edge uw,
which always suffice on bipartite graphs (Borodin, Kostochka and Woodall).
For G box K_2 (so for Q_d, G box Q_m and G box K_{1,m}) a residual edge
between two prescriptions of different colors keeps a list below max
degree, so the repair runs on nearly every maximal precolored matching.
Demand-sized lists always leave a flip for a violating edge; only a repair
that passes its flip cap falls back to the search, and that fallback is
logged. A failure of the search is reported as a library bug, never as an
unsatisfiable instance.
"""

from __future__ import annotations

import heapq
import logging
import random
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    DemandViolationError,
    ListTooShortError,
    MissingEdgeError,
    NoKernelError,
    OddOrderError,
    TheoremViolationError,
    _require_ints,
)
from .graph import Bipartition, Edge, Graph, _edge_key, bipartition, canonical_edge, max_degree

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
    not_edges = [e for e in a if e not in g.edge_set] if len(a) > len(colors) else []
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
    return _konig_color(g)


def _konig_color(g: Graph) -> EdgeColoring:
    """konig_color on a graph already known to be bipartite."""
    delta = max_degree(g)
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> neighbor
    assignment: dict[Edge, int] = {}

    def first_free(v: int) -> int:
        c = 1
        while c in at[v]:
            c += 1
        return c

    for (u, v) in g.edges:
        a = first_free(u)
        b = first_free(v)
        if a != b and a in at[v]:
            if b not in at[u]:
                a = b
            else:
                _flip_alternating_path(at, assignment, v, a, b)
        assignment[(u, v)] = a
        at[u][a] = v
        at[v][a] = u
    return EdgeColoring(palette_size=delta, assignment=assignment)


def _flip_alternating_path(at, assignment, start: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """Swap colors a and b along the path leaving `start` on its a-edge.

    `start` misses b, so the walk is a simple path; bipartiteness keeps the
    other endpoint of the to-be-colored edge off it. Returns the path as
    (vertex, next vertex, old color) steps.
    """
    path = []
    z, want = start, a
    while want in at[z]:
        nxt = at[z][want]
        path.append((z, nxt, want))
        z, want = nxt, (b if want == a else a)
    for (x, y, old) in path:
        del at[x][old]
        del at[y][old]
    for (x, y, old) in path:
        new = b if old == a else a
        at[x][new] = y
        at[y][new] = x
        assignment[canonical_edge(x, y)] = new
    return path


def galvin_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring:
    """List-color a bipartite graph by the kernel method under a certificate.

    Edges are oriented once as (x, y), x in X. The base is a König
    coloring, Kempe-flipped until out(e) < |L(e)| on every edge (see
    ``_certify_base``); ListTooShortError when that fails. Each X vertex's
    edges are sorted once by base color. Per palette color, ascending, until
    every edge is colored, the uncolored edges whose list holds it are
    matched by deferred acceptance (X proposes along its sorted edges,
    skipping the rest; Y holds the highest base color). The stable matching
    is a kernel, so every unmatched edge is dominated by a newly colored
    out-neighbor and can afford to lose that color, which no later round
    reads.
    """
    sides = bipartition(g)
    _require_covered(g, lists.lists, "lists")
    return _galvin_list_color(g, lists, sides)


def _galvin_list_color(g: Graph, lists: ListAssignment, sides: Bipartition) -> EdgeColoring:
    """galvin_list_color under the bipartition `sides` of g."""
    delta = max_degree(g)
    short = [e for e in g.edges if len(lists.lists[e]) < delta]
    ends = {e: e if sides.is_x(e[0]) else (e[1], e[0]) for e in g.edges}  # (x, y)
    base = _konig_color(g).assignment
    flips = _certify_base(g, lists, ends, base, short)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("list coloring: engine=kernel short=%d flips=%d", len(short), flips)

    prefs: dict[int, list[Edge]] = {}  # x -> its edges by ascending base color
    for e in sorted(g.edges, key=base.__getitem__):
        prefs.setdefault(ends[e][0], []).append(e)
    # one set per distinct list object: the residual's unblocked edges all
    # share one tuple, and the lists dict keeps every tuple (so its id) alive
    sets: dict[int, set[int]] = {}
    allowed = {}
    for e in g.edges:
        colors = lists.lists[e]
        if id(colors) not in sets:
            sets[id(colors)] = set(colors)
        allowed[e] = sets[id(colors)]
    colored: dict[Edge, int] = {}
    palette = sorted(set().union(*sets.values()))

    uncolored = list(g.edges)
    for k in palette:
        if not uncolored:  # later rounds would find nothing to match
            break
        rough = [e for e in uncolored if k in allowed[e]]
        wants = set(rough)
        todo = {x: iter(prefs[x]) for x in sorted({ends[e][0] for e in rough})}
        held: dict[int, Edge] = {}  # y -> the edge it holds
        free = deque(todo)
        while free:
            x = free.popleft()
            for e in todo[x]:  # x proposes its next edge of this round
                if e in wants:
                    break
            else:  # none left: x stays unmatched
                continue
            y = ends[e][1]
            cur = held.get(y)
            if cur is None:
                held[y] = e
            elif base[e] > base[cur]:  # Y side prefers the higher base color
                held[y] = e
                free.append(ends[cur][0])
            else:
                free.append(x)
        matched = set(held.values())
        colored.update(dict.fromkeys(matched, k))
        if matched:
            uncolored = [e for e in uncolored if e not in matched]
        at_x = {ends[e][0]: e for e in matched}
        for e in rough:
            x, y = ends[e]
            # dominated: x's match below e or y's above (no match reads as e)
            if e not in matched and base[at_x.get(x, e)] >= base[e] >= base[held.get(y, e)]:
                raise NoKernelError(f"edge {e} neither colored nor dominated for color {k}")

    if len(colored) != len(g.edges):
        raise NoKernelError("edges left uncolored after the palette pass")
    return EdgeColoring(palette_size=palette[-1] if palette else 0, assignment=colored)


def _flip_cap(g: Graph) -> int:
    """Kempe flips ``_certify_base`` may spend before it gives up."""
    return max(1000, 4 * len(g.edges))


def _certify_base(
    g: Graph,
    lists: ListAssignment,
    ends: dict[Edge, Edge],
    base: dict[Edge, int],
    short: list[Edge],
) -> int:
    """Flip `base` in place until out(e) < |L(e)| on every edge; the flips.

    out(xy), with ends[e] = (x, y) and x in X, counts the edges at x with a
    lower base color and at y with a higher one. An edge with |L(e)| >= max
    degree never violates, as out(e) <= max degree - 1, so only the short
    edges are checked. The lowest violating edge xy of color c goes first:
    one Kempe flip gives it either a color above c that x misses or a color
    below c that y misses, side and color drawn from random.Random(0); then
    the short edges at the vertices of the flipped path are checked again.
    Under demand-sized lists every violator has such a color (if x saw every
    color above c, deg(x) > out(xy) >= |L(xy)|; likewise for y), but
    convergence is not proven, so past ``_flip_cap`` flips, or at a violator
    without a flip, this raises ListTooShortError.
    """
    if not short:
        return 0
    delta = max_degree(g)
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> neighbor
    for (u, v), c in base.items():
        at[u][c] = v
        at[v][c] = u
    short_at: dict[int, list[Edge]] = {}
    for e in short:
        for v in e:
            short_at.setdefault(v, []).append(e)

    def violates(e: Edge) -> bool:
        x, y = ends[e]
        c = base[e]
        out = sum(1 for k in at[x] if k < c) + sum(1 for k in at[y] if k > c)
        return out >= len(lists.lists[e])

    heap = [e for e in short if violates(e)]
    heapq.heapify(heap)
    rng = random.Random(0)
    cap = _flip_cap(g)
    flips = 0
    while heap:
        e = heapq.heappop(heap)
        if not violates(e):  # repaired since it was pushed
            continue
        x, y = ends[e]
        c = base[e]
        options = [(x, k) for k in range(c + 1, delta + 1) if k not in at[x]]
        options += [(y, k) for k in range(1, c) if k not in at[y]]
        if not options:
            raise ListTooShortError(f"no Kempe flip lowers out-degree of {e} below its list length")
        if flips == cap:
            raise ListTooShortError(f"base repair passed its cap of {cap} flips")
        start, k = rng.choice(options)
        path = _flip_alternating_path(at, base, start, c, k)
        flips += 1
        for z in {v for step in path for v in step[:2]}:
            for f in short_at.get(z, ()):
                if violates(f):
                    heapq.heappush(heap, f)
    return flips


def exact_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring | None:
    """Complete search for a proper in-list coloring; None if none exists.

    Minimum-remaining-values edge ordering with forward checking and
    pigeonhole pruning; all ties broken by canonical edge order and
    ascending color, so the result is deterministic.
    """
    _require_covered(g, lists.lists, "lists")
    assignment = _search(g, {e: set(lists.lists[e]) for e in g.edges})
    if assignment is None:
        return None
    palette = max((c for cs in lists.lists.values() for c in cs), default=0)
    return EdgeColoring(palette_size=palette, assignment=assignment)


def _search(
    g: Graph,
    domains: dict[Edge, set[int]],
    budget: int | None = None,
    pinned: Iterable[tuple[Edge, int]] = (),
) -> dict[Edge, int] | None:
    """A proper coloring of g from the given domains, or None if none exists.

    The pinned (edge, color in its domain) pairs, distinct edges, are
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
    index = {e: i for i, e in enumerate(edges)}
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
            order.append(index[e])
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
    """List-color a bipartite graph with per-edge lists of size >= demand.

    The demand of edge uw is max(deg(u), deg(w)); such instances are always
    colorable, so this never fails on valid input. The kernel method runs on
    a certified base (``galvin_list_color``); demand-sized lists always leave
    a Kempe flip for a violating edge, so only a repair past its flip cap
    falls back to the complete search, whose "unsatisfiable" outcome would
    contradict the guarantee and is raised as TheoremViolationError. Each
    call logs its engine, short lists and flips at debug level. The one
    bipartition of g is shared with the kernel method and its König base.
    """
    sides = bipartition(g)
    _require_covered(g, lists.lists, "lists")
    bad = [
        e
        for e in g.edges
        if len(lists.lists[e]) < max(g.degree(e[0]), g.degree(e[1]))
    ]
    if bad:
        raise DemandViolationError(f"lists shorter than endpoint-degree demand at {bad}")
    try:
        return _galvin_list_color(g, lists, sides)
    except ListTooShortError:
        pass
    if _log.isEnabledFor(logging.DEBUG):
        delta = max_degree(g)
        short = sum(1 for e in g.edges if len(lists.lists[e]) < delta)
        _log.debug("list coloring: engine=search short=%d flips=%d", short, _flip_cap(g))
    result = exact_list_color(g, lists)
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
    rounds = []
    mod = order - 1
    for r in range(mod):
        pairs = [canonical_edge(order - 1, r)]
        pairs.extend(canonical_edge((r + i) % mod, (r - i) % mod) for i in range(1, order // 2))
        rounds.append(sorted(pairs))
    return rounds
