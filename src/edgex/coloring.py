"""Edge-coloring engines for bipartite graphs.

Three engines cooperate:

* ``konig_color`` builds a proper coloring with exactly max-degree colors by
  alternating-path augmentation.
* ``galvin_list_color`` colors from per-edge lists via the kernel method:
  one stable matching per palette color, preferences read off a fixed base
  coloring (low base color wins on the X side, high on the Y side). Complete
  whenever every list has at least max-degree colors.
* ``exact_list_color`` is the complete fallback and cross-check: backtracking
  with minimum-remaining-values ordering and forward checking on an explicit
  stack (no recursion limit), shared with the oracle's budgeted search.

``demand_list_color`` dispatches between the last two under the guarantee that
lists of size max(deg(u), deg(w)) per edge uw always suffice on bipartite
graphs, so a failure of the fallback is reported as a library bug, never as
an unsatisfiable instance. For G box K_2 (so for Q_d, G box Q_m and
G box K_{1,m}) a residual edge between two prescriptions of different colors
keeps a list below max degree, so the search runs on nearly every maximal
precolored matching.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    DemandViolationError,
    ListTooShortError,
    MissingEdgeError,
    NoKernelError,
    OddOrderError,
    TheoremViolationError,
)
from .graph import Bipartition, Edge, Graph, bipartition, canonical_edge, max_degree


@dataclass(frozen=True)
class EdgeColoring:
    """Edge -> color assignment over palette 1..palette_size."""

    palette_size: int
    assignment: dict[Edge, int]


@dataclass(frozen=True)
class ListAssignment:
    """Per-edge color lists plus the per-edge demand f(e).

    Lists are duplicate-free ascending tuples. When built through
    ``make_list_assignment`` the demand of uw is max(deg(u), deg(w)).
    """

    lists: dict[Edge, tuple[int, ...]]
    demand: dict[Edge, int]


def make_list_assignment(g: Graph, lists: dict[Edge, object]) -> ListAssignment:
    """Normalize lists and attach the max-endpoint-degree demand."""
    norm = {}
    demand = {}
    for e in g.edges:
        norm[e] = tuple(sorted(set(lists[e])))
        demand[e] = max(g.degree(e[0]), g.degree(e[1]))
    return ListAssignment(lists=norm, demand=demand)


@dataclass(frozen=True)
class ColoringReport:
    """Everything wrong with a coloring; empty everywhere means valid."""

    conflicts: tuple[tuple[Edge, Edge], ...] = ()
    off_palette: tuple[Edge, ...] = ()
    off_list: tuple[Edge, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.conflicts or self.off_palette or self.off_list)

    def __str__(self) -> str:
        if self.ok:
            return "coloring ok"
        lines = []
        for e, f in self.conflicts:
            v = (set(e) & set(f)).pop()
            lines.append(f"edges {e} and {f} share vertex {v} and color")
        lines.extend(f"edge {e} colored outside palette" for e in self.off_palette)
        lines.extend(f"edge {e} colored outside its list" for e in self.off_list)
        return "; ".join(lines)


def verify_proper(g: Graph, col: EdgeColoring, lists: ListAssignment | None = None) -> ColoringReport:
    """Check properness, palette membership and (optionally) list membership."""
    missing = [e for e in g.edges if e not in col.assignment]
    if missing:
        raise MissingEdgeError(f"coloring misses edges {missing}")
    conflicts = []
    for v in range(g.n):
        by_color: dict[int, list[Edge]] = {}
        for w in g.adjacency[v]:
            e = canonical_edge(v, w)
            by_color.setdefault(col.assignment[e], []).append(e)
        # two distinct edges share at most one vertex, so each clashing
        # pair is discovered exactly once, at that vertex
        for _, same in sorted(by_color.items()):
            conflicts.extend(
                (same[i], same[j])
                for i in range(len(same))
                for j in range(i + 1, len(same))
            )
    off_palette = [e for e in g.edges if not 1 <= col.assignment[e] <= col.palette_size]
    off_list = []
    if lists is not None:
        off_list = [e for e in g.edges if col.assignment[e] not in lists.lists.get(e, (col.assignment[e],))]
    return ColoringReport(
        conflicts=tuple(conflicts),
        off_palette=tuple(off_palette),
        off_list=tuple(off_list),
    )


def konig_color(g: Graph) -> EdgeColoring:
    """Proper coloring of a bipartite graph with exactly max_degree colors.

    Classical augmenting construction: color edges in canonical order; when
    the endpoints share no free color, swap colors along the alternating
    path starting at one endpoint, which frees a common color.
    """
    bipartition(g)  # raises NotBipartiteError on bad input
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


def _flip_alternating_path(at, assignment, start: int, a: int, b: int) -> None:
    """Swap colors a and b along the path leaving `start` on its a-edge.

    `start` misses b, so the walk is a simple path; bipartiteness keeps the
    other endpoint of the to-be-colored edge off it.
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


def galvin_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring:
    """List-color a bipartite graph whose lists all have >= max_degree colors.

    Kernel method: per palette color, the edges still wanting that color are
    matched by deferred acceptance (X proposes along ascending base colors,
    Y holds the highest base color); the stable matching is a kernel, so
    every unmatched edge is dominated by a newly colored one and can afford
    to drop the color from its working list.
    """
    sides = bipartition(g)
    delta = max_degree(g)
    short = [e for e in g.edges if len(lists.lists[e]) < delta]
    if short:
        raise ListTooShortError(f"lists shorter than max degree {delta} at {short}")

    base = konig_color(g).assignment
    work = {e: set(lists.lists[e]) for e in g.edges}
    colored: dict[Edge, int] = {}
    palette = sorted(set().union(*work.values())) if work else []

    for k in palette:
        rough = [e for e in g.edges if e not in colored and k in work[e]]
        if not rough:
            continue
        matched = _stable_matching(rough, base, sides)
        matched_at: dict[int, Edge] = {}
        for e in matched:
            colored[e] = k
            matched_at[e[0]] = e
            matched_at[e[1]] = e
        for e in rough:
            if e in matched:
                continue
            if not _dominated(e, matched_at, base, sides):
                raise NoKernelError(f"edge {e} neither colored nor dominated for color {k}")
            work[e].discard(k)

    if len(colored) != len(g.edges):
        raise NoKernelError("edges left uncolored after the palette pass")
    palette_size = palette[-1] if palette else 0
    return EdgeColoring(palette_size=palette_size, assignment=colored)


def _stable_matching(edges: list[Edge], base: dict[Edge, int], sides: Bipartition) -> set[Edge]:
    """X-optimal deferred acceptance over the given edge subgraph."""
    prefs: dict[int, list[Edge]] = {}
    x_of: dict[Edge, int] = {}
    for e in edges:
        x = e[0] if sides.is_x(e[0]) else e[1]
        x_of[e] = x
        prefs.setdefault(x, []).append(e)
    for x in prefs:
        prefs[x].sort(key=lambda e: base[e])
    ptr = dict.fromkeys(prefs, 0)
    held: dict[int, Edge] = {}
    free = deque(sorted(prefs))
    while free:
        x = free.popleft()
        if ptr[x] >= len(prefs[x]):
            continue
        e = prefs[x][ptr[x]]
        ptr[x] += 1
        y = e[1] if e[0] == x else e[0]
        cur = held.get(y)
        if cur is None:
            held[y] = e
        elif base[e] > base[cur]:  # Y side prefers the higher base color
            held[y] = e
            free.append(x_of[cur])
        else:
            free.append(x)
    return set(held.values())


def _dominated(e: Edge, matched_at: dict[int, Edge], base: dict[Edge, int], sides: Bipartition) -> bool:
    """True when a matched neighbor outranks e at their shared endpoint."""
    for v in e:
        f = matched_at.get(v)
        if f is None or f == e:
            continue
        if sides.is_x(v):
            if base[f] < base[e]:
                return True
        elif base[f] > base[e]:
            return True
    return False


def exact_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring | None:
    """Complete search for a proper in-list coloring; None if none exists.

    Minimum-remaining-values edge ordering with forward checking; all ties
    broken by canonical edge order and ascending color, so the result is
    deterministic.
    """
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

    The pinned (edge, color in its domain) pairs are assigned first, in
    order, as no search nodes. Then a depth-first search with forward
    checking: the unassigned edge with the fewest colors left goes next (ties
    by canonical edge), its colors are tried in ascending order, one node
    each; passing the node budget raises BudgetExceededError. Domains are
    trimmed in place.
    """
    neighbors = {e: [f for v in e for f in g.incident_edges(v) if f != e] for e in g.edges}
    assignment: dict[Edge, int] = {}
    trimmed: dict[Edge, list[Edge]] = {}  # assigned edge -> neighbors that lost its color

    def assign(e: Edge, c: int) -> bool:
        """Assign and forward-check; False when a neighbor's domain empties."""
        assignment[e] = c
        trimmed[e] = [f for f in neighbors[e] if f not in assignment and c in domains[f]]
        for f in trimmed[e]:
            domains[f].discard(c)
        return all(domains[f] for f in trimmed[e])

    for e, c in pinned:
        if not assign(e, c):
            return None
    nodes = 0
    stack: list[tuple[Edge, Iterator[int]]] = []  # search edges, each with its untried colors
    while len(assignment) < len(g.edges):
        e = min(
            (e for e in g.edges if e not in assignment),
            key=lambda e: (len(domains[e]), e),
        )
        stack.append((e, iter(sorted(domains[e]))))
        while stack:
            e, colors = stack[-1]
            if e in assignment:
                c = assignment.pop(e)
                for f in trimmed.pop(e):
                    domains[f].add(c)
            c = next(colors, None)
            if c is None:
                stack.pop()
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(nodes - 1)
            if assign(e, c):
                break
        else:
            return None
    return assignment


def demand_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring:
    """List-color a bipartite graph with per-edge lists of size >= demand.

    The demand of edge uw is max(deg(u), deg(w)); such instances are always
    colorable, so this never fails on valid input. Fast path: the kernel
    method whenever every list reaches max_degree; otherwise the complete
    search, whose "unsatisfiable" outcome would contradict the guarantee and
    is raised as TheoremViolationError.
    """
    bipartition(g)
    bad = [
        e
        for e in g.edges
        if len(lists.lists[e]) < max(g.degree(e[0]), g.degree(e[1]))
    ]
    if bad:
        raise DemandViolationError(f"lists shorter than endpoint-degree demand at {bad}")
    delta = max_degree(g)
    if all(len(lists.lists[e]) >= delta for e in g.edges):
        return galvin_list_color(g, lists)
    result = exact_list_color(g, lists)
    if result is None:
        raise TheoremViolationError("demand-sized lists reported unsatisfiable")
    return result


def one_factorization(order: int) -> list[list[Edge]]:
    """Partition E(K_order) into order-1 perfect matchings (circle method).

    The highest-index vertex stays fixed; the others rotate. Round r pairs
    the pivot with r and i with j whenever i + j = 2r modulo order-1.
    """
    if order < 2 or order % 2:
        raise OddOrderError(f"1-factorization needs a positive even order, got {order}")
    rounds = []
    mod = order - 1
    for r in range(mod):
        pairs = [canonical_edge(order - 1, r)]
        pairs.extend(canonical_edge((r + i) % mod, (r - i) % mod) for i in range(1, order // 2))
        rounds.append(sorted(pairs))
    return rounds
