"""Edge-coloring engines for bipartite graphs.

* ``konig_color`` builds a proper coloring with exactly max-degree colors by
  alternating-path augmentation.
* ``demand_list_color`` colors from per-edge lists by Galvin's kernel
  method, ranking the edges at each vertex by the König base or by the
  peeled base, which certifies every list of at least the endpoint-degree
  demand (Borodin, Kostochka and Woodall); no repair and no search runs.
  Its core, ``_list_color``, takes the lists as one frozenset per edge id
  and picks the sides and the base itself. Told that g is a subgraph of
  the indexed Q_k, as the extension pipeline tells it for a cube's
  residual, it reads the sides off the bit parities and, while g keeps a
  vertex of degree k, starts from ``_dimension_base``, which colors each
  edge by the bit its ends differ in, at no search cost.
  An edge is its id, its position in the lexicographic g.edges, so loops
  visit the edges in canonical order, item for item as over edge tuples.
  Colors stay lists by edge id until the boundary: the assignment lists the
  edges in g.edges order, as every other coloring of the library does.
* ``exact_list_color`` is the complete cross-check: backtracking with
  minimum-remaining-values ordering (edges bucketed by colors left),
  forward checking and a pigeonhole cut at every vertex an assignment
  touches, on an explicit stack (no recursion limit), shared with the
  oracle's budgeted search. The search runs on edge ids: domains a list of
  sets, pins (id, color) pairs, and each assignment trims along the
  graph's neighbor lists, which a graph derives once and keeps, so the
  decisions of one oracle sweep share them. The per-vertex counts the cut
  reads are built only when a first descent without them meets a dead
  end; the outcome is the counted search's either way.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

from .errors import (
    BadParameterError,
    BudgetExceededError,
    DemandViolationError,
    MissingEdgeError,
    NoKernelError,
    OddOrderError,
    ProofInvariantError,
    _require_at_least,
    _require_instance,
    _require_ints,
    _require_mapping,
)
from .families import _require_size
from .graph import SIDE_X, Edge, Graph, bipartition, canonical_edge, max_degree
from .graph import _edge_key, _parity_sides, _require_graph

_log = logging.getLogger("edgex")


@dataclass(frozen=True)
class EdgeColoring:
    """Edge -> color assignment over palette 1..palette_size. An
    assignment that is not a mapping raises BadParameterError here, so no
    reader of it meets a bare TypeError or AttributeError."""

    palette_size: int
    assignment: dict[Edge, int]

    def __post_init__(self) -> None:
        _require_mapping(BadParameterError, assignment=self.assignment)


@dataclass(frozen=True)
class ListAssignment:
    """Per-edge color lists, duplicate-free ascending tuples. Lists that
    are not a mapping raise BadParameterError here, as for EdgeColoring."""

    lists: dict[Edge, tuple[int, ...]]

    def __post_init__(self) -> None:
        _require_mapping(BadParameterError, lists=self.lists)


def _require_covered(g: Graph, mapping: Mapping, what: str) -> None:
    """Raise MissingEdgeError naming the edges of g that `mapping` lacks."""
    missing = [e for e in g.edges if e not in mapping]
    if missing:
        raise MissingEdgeError(f"{what} misses edges {missing}")


def make_list_assignment(g: Graph, lists: dict[Edge, object]) -> ListAssignment:
    """Normalize every edge's list of ints to a duplicate-free ascending
    tuple; BadParameterError names an edge whose list is not ints."""
    _require_graph(g=g)
    _require_mapping(BadParameterError, lists=lists)
    _require_covered(g, lists, "lists")
    return ListAssignment(lists={e: tuple(sorted(set(_color_list(e, lists[e])))) for e in g.edges})


def _color_list(e: Edge, colors: object, distinct: bool = False) -> tuple:
    """Edge e's list as a tuple of ints (a bool is not; a string is no list),
    and no repeats if `distinct`; BadParameterError otherwise."""
    try:
        items = colors if type(colors) is tuple else None if isinstance(colors, (str, bytes)) else tuple(colors)
    except TypeError:
        items = None
    if items is None or not {int}.issuperset(map(type, items)) or distinct and len(set(items)) < len(items):
        raise BadParameterError(f"list of edge {e} must hold {'distinct ' * distinct}ints, got {colors!r}")
    return items


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
    colored and, optionally, list membership (BadParameterError on a list
    that is not ints) and agreement with a prescription (edge -> color,
    keys in either order; UnknownEdgeError for a key that is not a pair of
    ints).

    The boundary view of ``_verify``: it reads each edge's color once, in
    g.edges order (MissingEdgeError names the edges left uncolored), and
    checks the color list. A prescribed key disagrees exactly when the
    coloring's color at its canonical edge differs from the prescribed one
    (got None when the coloring has none), whether or not that edge is in
    g; the disagreements are listed by canonical edge, keys naming one edge
    in insertion order. Once every edge is known colored, the coloring
    holds a pair outside g only when it has more keys than g has edges;
    those are listed in insertion order.
    """
    _require_graph(g=g)
    _require_instance(EdgeColoring, col=col)
    if lists is not None:
        _require_instance(ListAssignment, lists=lists)
    if prescribed is not None:
        _require_mapping(BadParameterError, prescribed=prescribed)
    a = col.assignment
    try:
        colors = [a[e] for e in g.edges]
    except KeyError:
        _require_covered(g, a, "coloring")
        raise
    disagreements = []
    if prescribed is not None:
        for key, c in prescribed.items():
            e = _edge_key(key)
            if (got := a.get(e)) != c:
                disagreements.append((e, c, got))
    report = _verify(g, colors, col.palette_size, lists)
    if disagreements:
        report = replace(report, disagreements=tuple(sorted(disagreements, key=itemgetter(0))))
    if len(a) > len(colors):
        known = set(g.edges)
        report = replace(report, not_edges=tuple(e for e in a if e not in known))
    return report


def _verify(
    g: Graph,
    colors: list,
    p: int,
    lists: ListAssignment | None = None,
    prescribed: Iterable[tuple[int, object]] | None = None,
) -> ColoringReport:
    """verify_proper of the coloring that gives edge i of g colors[i], over
    palette 1..p, against the prescribed (id, color) pairs, ids ascending.

    Linear passes over g.edges read each edge's color once. Properness is
    screened with a set of int keys x * (p + 1) + c, one per end x of an
    edge colored c, built in one flat pass over the first ends and one over
    the second. On palette colors a key names the pair (x, c), so the
    coloring is proper iff the set holds 2|E| keys; two edges clashing at a
    vertex always give equal keys, whatever the color. An off-palette color
    may alias another end's key, which only costs the exact pass. A color
    that is not an int (a bool is not) is off the palette and sends the call
    to the exact pass, where only numbers clash (True equals 1). That pass
    runs only then or when the set is short and lists every clashing pair
    vertex by vertex, colors ascending, edges in adjacency order (each
    vertex's edge ids in g.edges order), so reports are the same as when it
    ran on every call. A palette size that is not an int raises
    BadParameterError. Disagreements are listed in the order of the pairs,
    by edge: the oracle and the extension pipeline hand it the ids they
    already hold.
    """
    edges = g.edges
    _require_ints(palette_size=p)
    off = [i for i, c in enumerate(colors) if type(c) is not int or not 1 <= c <= p]
    conflicts = []
    proper = all(type(colors[i]) is int for i in off)
    if proper:
        q = p + 1
        keys = {u * q + c for (u, _v), c in zip(edges, colors)}
        keys.update([v * q + c for (_u, v), c in zip(edges, colors)])
        proper = len(keys) == 2 * len(colors)
    if not proper:
        at: list[list[int]] = [[] for _ in range(g.n)]  # vertex -> its edge ids
        for i, (u, v) in enumerate(edges):
            at[u].append(i)
            at[v].append(i)
        for ids in at:
            by_color: dict[object, list[Edge]] = {}
            for i in ids:
                if isinstance(colors[i], (int, float)):
                    by_color.setdefault(colors[i], []).append(edges[i])
            # two distinct edges share at most one vertex, so each clashing
            # pair is discovered exactly once, at that vertex
            for _, same in sorted(by_color.items()):
                conflicts.extend((same[i], same[j]) for i in range(len(same)) for j in range(i + 1, len(same)))
    off_list = []
    if lists is not None:
        ls = lists.lists
        off_list = [e for e, c in zip(edges, colors) if e in ls and c not in _color_list(e, ls[e])]
    disagreements = []
    if prescribed is not None:
        disagreements = [(edges[i], c, colors[i]) for i, c in prescribed if colors[i] != c]
    return ColoringReport(
        conflicts=tuple(conflicts),
        off_palette=tuple(edges[i] for i in off),
        off_list=tuple(off_list),
        disagreements=tuple(disagreements),
    )


def konig_color(g: Graph) -> EdgeColoring:
    """Proper coloring of a bipartite graph with exactly max_degree colors.

    Classical augmenting construction: color edges in canonical order; when
    the endpoints share no free color, swap colors along the alternating
    path starting at one endpoint, which frees a common color.
    """
    _require_graph(g=g)
    bipartition(g)  # raises NotBipartiteError on bad input
    base, _at = _konig_base(g)
    return EdgeColoring(palette_size=max_degree(g), assignment=dict(zip(g.edges, base)))


def _konig_base(g: Graph) -> tuple[list[int], list[dict[int, int]]]:
    """konig_color of a graph known to be bipartite, by edge id: the color
    of each edge, and each vertex's map from color to the edge holding it."""
    base = [0] * len(g.edges)
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> edge id
    _insert(g.edges, at, base, range(len(base)))
    return base, at


def _dimension_base(g: Graph) -> tuple[list[int], list[dict[int, int]]]:
    """The dimension coloring of g, a subgraph of the indexed Q_k, as
    ``_konig_base`` gives its base: edge uv takes (u ^ v).bit_length(), one
    more than the index of the bit its ends differ in. The edges at a vertex
    differ from it in distinct bits, so the coloring is proper in 1..k, and
    a proper max-degree coloring once g keeps a vertex of degree k."""
    base = [(u ^ v).bit_length() for u, v in g.edges]
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> edge id
    for i, ((u, v), c) in enumerate(zip(g.edges, base)):
        at[u][c] = i
        at[v][c] = i
    return base, at


def _insert(edges: tuple[Edge, ...], at: list[dict[int, int]], base: list[int], ids: Iterable[int]) -> list[int]:
    """König's insertion step for each uncolored edge uv of `ids`: color a,
    the lowest free at u; if v holds it, v's lowest free b if u misses it,
    else a after swapping a and b from v. Returns the edges swapped."""
    swapped: list[int] = []
    for i in ids:
        u, v = edges[i]
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
                swapped += _flip_alternating_path(edges, at, base, v, a, b)
        base[i] = a
        at_u[a] = i
        at_v[a] = i
    return swapped


def _flip_alternating_path(
    edges: tuple[Edge, ...], at: list[dict[int, int]], base: list[int], start: int, a: int, b: int
) -> list[int]:
    """Swap colors a and b along the path leaving `start` on its a-edge;
    returns the path's edge ids. `start` misses b, so the walk is a simple
    path; bipartiteness keeps the other endpoint of the to-be-colored edge
    off it. One pass sets each edge's new color at both ends, reading the
    next edge first, and then drops the path's two stale end entries."""
    path = []
    z, old, new = start, a, b
    i = at[z][a]
    while True:
        path.append(i)
        base[i] = new
        u, v = edges[i]
        w = v if u == z else u
        nxt = at[w].get(new)  # w's edge of old color `new` leads on
        at[z][new] = i
        at[w][new] = i
        if nxt is None:
            del at[w][old]
            break
        z, old, new, i = w, new, old, nxt
    del at[start][a]
    return path


def _peeled_ranks(
    g: Graph, xs: list[int], ys: list[int], base: list[int], at: list[dict[int, int]]
) -> tuple[list[int], list[int]]:
    """The peeled base, from `base`, `at` (consumed), a proper max-degree
    coloring of g by edge id and each vertex's color -> edge id map (the
    König base, or any other such as ``_dimension_base``), edges oriented
    by xs and ys: each edge's rank at its X and its Y end,
    r_v(e) counting the edges v ranks above e, with r_x(e) + r_y(e) <=
    max(d(x), d(y)) - 1. While edges remain: D is the maximum degree, the
    hot vertices have degree D, and M, the color-D edges at a hot vertex, is
    a matching covering them: a proper coloring in 1..D gives a vertex of
    degree D every color, whatever coloring it is. A hot vertex matched to a cold one is forced.
    One search per forced X vertex (Kuhn's pass) looks for an alternating
    path to a forced Y vertex (an edge outside M to a hot y, y's M edge, and
    so on) and swaps M along it. An M edge's first end is its hot end if the
    other is cold; else its X end if a forced X vertex reaches the edge by
    such paths, else its Y end. There it ranks above every edge left, at its
    other end below them. M is removed, and the edges still colored D are
    recolored into 1..D-1 by König's insertion step.

    Proof, by induction on |E|, d' the degrees in G - M: an M edge ranks 0
    at its first end and d(b) - 1 at its other end b. An edge xy outside M
    gains a rank at each end that is a first end, and at most one is: were
    both, a forced X vertex would reach x, then over xy the hot y and y's M
    edge, which leads to a forced Y vertex (the pass leaves no such path)
    or is reached, so its first end is X, not y. A first end is hot, so
    when xy gains a rank its ends of degree D are covered by M and
    max(d'(x), d'(y)) = max(d(x), d(y)) - 1.
    """
    edges = g.edges
    top = max(map(len, at), default=0)
    by_deg: list[list[int]] = [[] for _ in range(top + 1)]  # degree -> cold vertices that reached it, or stale
    by_color: list[list[int]] = [[] for _ in range(top + 1)]  # color -> edges that took it, or stale (color 0)
    for v, at_v in enumerate(at):
        by_deg[len(at_v)].append(v)
    for i, c in enumerate(base):
        by_color[c].append(i)
    above, below = [0] * g.n, [len(at_v) - 1 for at_v in at]  # each vertex's next rank from the top, the bottom
    rx, ry = [0] * len(edges), [0] * len(edges)
    mate: dict[int, int] = {}  # hot vertex -> its M edge

    def augment(x0: int) -> bool:
        # breadth first from x0 over hot Y vertices not yet seen; at a forced one, swap M along the path
        reach, queue = {}, [x0]  # hot y -> the edge outside M it was reached by; the X vertices to search
        for x in queue:
            for j in at[x].values():
                y = ys[j]
                if y in mate and y not in seen:
                    seen.add(y)
                    reach[y] = j
                    k = mate[y]
                    if xs[k] not in mate:
                        while True:  # back along the path, each x's old M edge leading on
                            x, k = xs[j], mate[xs[j]]
                            mate[x] = mate[ys[j]] = j
                            if x == x0:
                                seen.clear()
                                return True
                            j = reach[ys[k]]
                    queue.append(xs[k])
        return False

    for d in range(top, 0, -1):
        # hot: the last round's hot vertices, now of degree d, and the cold ones that reached d
        mate = {v: at[v][d] for v in [*mate, *(v for v in by_deg[d] if len(at[v]) == d)]}
        forced = [v for v, i in mate.items() if xs[i] == v and ys[i] not in mate]
        seen: set[int] = set()  # hot Y vertices searched since the last swap
        if [x for x in forced if augment(x)]:  # after a swap, the forced X left search again to mark their reach
            seen.clear()
            for x in forced:
                if ys[mate[x]] not in mate:
                    augment(x)
        reached = {mate[y] for y in seen}
        for a, i in mate.items():  # each M edge from its first end
            x, y = xs[i], ys[i]
            b = y if a == x else x
            if b in mate and (a == x) != (i in reached):
                continue  # b is its first end
            r, s = above[a], below[b]
            rx[i], ry[i] = (r, s) if a == x else (s, r)
            above[a], below[b] = r + 1, s - 1
            c, base[i] = base[i], 0
            del at[x][c], at[y][c]
            if b not in mate:  # a cold end, now of a lower degree
                by_deg[len(at[b])].append(b)
        left = sorted({i for i in by_color.pop() if base[i] == d})  # the edges left with color d
        for i in left:
            del at[xs[i]][d], at[ys[i]][d]
        for i in _insert(edges, at, base, left) + left:
            by_color[base[i]].append(i)
    return rx, ry


def _edge_lists(g: Graph, lists: ListAssignment) -> list[frozenset[int]]:
    """Each edge's list by edge id, one frozenset per distinct list object;
    MissingEdgeError names the edges `lists` lacks, BadParameterError a bad
    list's edge."""
    try:
        given = [lists.lists[e] for e in g.edges]
    except KeyError:
        _require_covered(g, lists.lists, "lists")
        raise
    parsed: dict[int, frozenset[int]] = {}  # id of a given list (`given` keeps it alive) -> its colors
    for e, colors in zip(g.edges, given):
        if id(colors) not in parsed:
            parsed[id(colors)] = frozenset(_color_list(e, colors, True))
    return [parsed[id(colors)] for colors in given]


def _kernel_rounds(
    g: Graph,
    ls: list[frozenset[int]],
    xs: list[int],
    ys: list[int],
    kx: list[int],
    ky: list[int],
) -> list[int]:
    """The kernel rounds of ``demand_list_color``, by edge id: each edge's
    list in `ls`, a frozenset that a round tests for its color, ends xs in
    X and ys, and a base's rank keys kx at the X end and ky at the Y end
    (the lower ranks higher; 0 <= kx <= |E|). Returns each edge's color by
    edge id.

    Per palette color, ascending, until every edge is colored, the uncolored
    edges whose list holds it are matched by deferred acceptance (X proposes
    by ascending key; Y holds its lowest). The stable matching is a kernel:
    an unmatched edge xy is dominated by a newly colored edge that x or y
    ranks above it, and loses that color. So the base is certified, and no
    list runs dry, when out(xy), the edges that x and y rank above xy, stay
    below |L(xy)|. A round writes its color at the ids it matched; no edge
    tuple is formed but to name an edge in an error.
    """
    edges = g.edges
    colored = [0] * len(edges)
    palette = sorted(set().union(*set(ls)))

    # each X vertex's edges in one run, by ascending key; a round's filter
    # keeps that order, so its runs are its proposals and a round walks
    # only its own edges
    uncolored = sorted(range(len(edges)), key=[x * (len(edges) + 1) + k for x, k in zip(xs, kx)].__getitem__)
    for k in palette:
        if not uncolored:  # later rounds would find nothing to match
            break
        rough = [i for i in uncolored if k in ls[i]]
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
            elif ky[i] < ky[cur]:  # y ranks i above the edge it holds
                held[y] = i
                free.append(xs[cur])
            else:
                free.append(x)
        matched = set(held.values())
        for i in matched:
            colored[i] = k
        if matched:
            uncolored = [i for i in uncolored if i not in matched]
        at_x = {xs[i]: i for i in matched}
        for i in rough:
            # dominated: x's match or y's ranked above i (no match reads as i)
            if i not in matched and kx[at_x.get(xs[i], i)] >= kx[i] and ky[held.get(ys[i], i)] >= ky[i]:
                raise NoKernelError(f"edge {edges[i]} neither colored nor dominated for color {k}")

    if uncolored:
        raise NoKernelError("edges left uncolored after the palette pass")
    return colored


def exact_list_color(g: Graph, lists: ListAssignment, budget: int | None = None) -> EdgeColoring | None:
    """Complete search for a proper in-list coloring; None if none exists.

    Minimum-remaining-values edge ordering with forward checking and
    pigeonhole pruning; all ties broken by canonical edge order and
    ascending color, so the result is deterministic. With a node budget (an
    int), exhausting it raises BudgetExceededError: an inconclusive outcome,
    never a "no". A budget that is not an int >= 0 raises BadParameterError.
    """
    _require_graph(g=g)
    _require_instance(ListAssignment, lists=lists)
    if budget is not None:
        _require_at_least(0, budget=budget)
    ls = _edge_lists(g, lists)
    found = _search(g, [set(colors) for colors in ls], budget)
    if found is None:
        return None
    order, colors = found
    palette = max((c for colors in ls for c in colors), default=0)
    return EdgeColoring(palette_size=palette, assignment={g.edges[i]: colors[i] for i in order})


def _search(
    g: Graph,
    dom: list[set[int]],
    budget: int | None = None,
    pinned: Iterable[tuple[int, int]] = (),
) -> tuple[list[int], list[int]] | None:
    """A proper coloring of g from the domains `dom`, a set per edge id, or
    None if none exists.

    The pinned (id, color) pairs, distinct edges of g whose domain is that
    one color, are assigned first, in order, as no search nodes. Then a
    depth-first search with forward checking (Haralick and Elliott, 1980):
    the unassigned edge with the fewest colors left goes next (ties by
    canonical edge), its colors are tried in ascending order, one node each;
    passing the node budget raises BudgetExceededError. Domains are trimmed
    in place. A coloring is returned as the witness's edge ids in insertion
    order, the pinned edges first, then the searched ones in search order,
    and the list of colors by edge id.

    Edges are ids in canonical order, and the unassigned ones sit in
    buckets by domain size, so the next edge is the lowest id in the lowest
    non-empty bucket; no non-empty bucket lies below the index `lo`, which
    each trim and unassignment lowers and the next choice raises. An
    assignment trims its edge's neighbors in g's neighbor lists, derived
    once per graph. It fails when a neighbor's domain empties. When counts
    are kept, free[v] counts the unassigned edges at vertex v and cnt[v]
    maps each color to how many of them still offer it, and an assignment
    also fails when some vertex it touched is left with more unassigned
    edges than colors to give them (free[v] > len(cnt[v]), a pigeonhole;
    the blocked hub is one). Both only cut subtrees without a solution, so
    the verdict and the first witness are those of the same search without
    the pigeonhole.

    The search runs in up to two passes of the same loop. Pass 1 keeps no
    counts (cnt is None) and never backtracks: it stops at its first dead
    end, an assignment that empties a domain, or when it passes the budget.
    Only then does pass 2 run: every assignment is undone in reverse, which
    restores the domains and buckets; free and the counts are built (each
    vertex's tallied by one Counter.update per edge domain at it, then kept
    as a plain dict, which the counted search updates faster), the node
    count and `lo` are reset, and the counted search runs from the pinned
    edges. A pass 1 that completes returns what the counted search would,
    with its node count and no prune:
    1. both passes see the same domains, so until one of them fails they
       choose the same edges and colors;
    2. a complete pass 1 gives each edge a color of its domain at that
       time, and no two edges at a vertex the same color; domains only
       shrink along the descent, so at each of its nodes the unassigned
       edges at every vertex still offer at least as many colors as there
       are of them, and the pigeonhole cannot fire;
    3. so the counted search walks the same nodes to the same witness, with
       pruned = 0. Where pass 1 stops, pass 2 is the counted search itself.
    Each call logs its nodes and pigeonhole prunes (pass 2's when it runs)
    at debug level.
    """
    edges = g.edges
    near = g._edge_neighbors
    val: list[int | None] = [None] * len(edges)
    free: list[int] = []  # pass 1 keeps neither these nor the counts
    cnt: list[dict[int, int]] | None = None
    top = max(map(len, dom), default=0) + 1
    buckets: list[set[int]] = [set() for _ in range(top)]
    for i, d in enumerate(dom):
        buckets[len(d)].add(i)
    lo = 0
    trimmed: list = [None] * len(edges)  # assigned edge -> neighbors that lost its color
    pins = list(pinned)  # read once, assigned by each pass
    nodes = pruned = 0

    def assign(i: int, c: int) -> bool:
        """Assign and forward-check; False on an emptied domain or, with
        counts, a pigeonhole."""
        nonlocal pruned, lo
        val[i] = c
        d = dom[i]
        buckets[len(d)].remove(i)
        if cnt is not None:
            for x in edges[i]:
                free[x] -= 1
                counts = cnt[x]
                for k in d:
                    if counts[k] == 1:
                        del counts[k]
                    else:
                        counts[k] -= 1
        trim = trimmed[i] = []
        for j in near[i]:
            dj = dom[j]
            if val[j] is None and c in dj:
                k = len(dj)
                buckets[k].remove(j)
                dj.remove(c)
                k -= 1
                buckets[k].add(j)
                if k < lo:
                    lo = k
                trim.append(j)
                if cnt is not None:
                    for y in edges[j]:
                        counts = cnt[y]
                        if counts[c] == 1:
                            del counts[c]
                        else:
                            counts[c] -= 1
                if not k:
                    return False
        if cnt is None:
            return True
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
        nonlocal lo
        c = val[i]
        val[i] = None
        for j in trimmed[i]:
            dj = dom[j]
            k = len(dj)
            buckets[k].remove(j)
            dj.add(c)
            buckets[k + 1].add(j)
            if cnt is not None:
                for y in edges[j]:
                    cnt[y][c] = cnt[y].get(c, 0) + 1
        d = dom[i]
        if cnt is not None:
            for x in edges[i]:
                free[x] += 1
                counts = cnt[x]
                for k in d:
                    counts[k] = counts.get(k, 0) + 1
        k = len(d)
        buckets[k].add(i)
        if k < lo:
            lo = k

    try:
        while True:
            stack: list[tuple[int, Iterator[int]]] = []  # search edges, each with its untried colors
            ok = all(assign(i, c) for i, c in pins)
            # pass 1 ends at its first dead end; pass 2 backtracks until the stack empties
            while ok or stack and cnt is not None:
                if ok:
                    while lo < top and not buckets[lo]:
                        lo += 1
                    if lo == top:
                        return [i for i, _c in pins] + [i for i, _colors in stack], val
                    i = min(buckets[lo])
                    stack.append((i, iter(sorted(dom[i]))))
                i, colors = stack[-1]
                if val[i] is not None:
                    unassign(i)
                c = next(colors, None)
                if c is None:
                    stack.pop()
                    ok = False
                    continue
                nodes += 1
                if budget is not None and nodes > budget:
                    if cnt is not None:
                        raise BudgetExceededError(nodes - 1)
                    break
                ok = assign(i, c)
            if cnt is not None:
                return None
            # pass 1 stopped: undo its assignments in reverse, then count
            for i in reversed([i for i, _c in pins] + [i for i, _colors in stack]):
                if val[i] is not None:
                    unassign(i)
            free = list(map(len, g.adjacency))
            tally = [Counter() for _ in free]
            for (u, v), d in zip(edges, dom):
                tally[u].update(d)
                tally[v].update(d)
            cnt = list(map(dict, tally))
            nodes = lo = 0
    finally:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("search: nodes=%d pruned=%d", nodes, pruned)


def demand_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring:
    """List-color a bipartite graph from per-edge lists of distinct ints
    (else BadParameterError), of any size. One path: the König base; if a
    list below max degree fails its certificate (``_kernel_rounds``), the
    peeled base, which certifies every list of at least the demand
    max(deg(u), deg(w)) of its edge uw (else ProofInvariantError); then the
    kernel rounds. Lists below demand that no base certifies raise
    DemandViolationError naming every edge below demand. A call that colors
    logs its base (konig or peeled) and its lists below max degree. The
    assignment lists the edges in g.edges order, as konig_color's does; the
    palette size is the largest color of any list.

    The boundary view of ``_list_color``: it reads the lists by edge id,
    before g's bipartition is sought, and keys the colors by edge."""
    _require_graph(g=g)
    _require_instance(ListAssignment, lists=lists)
    ls = _edge_lists(g, lists)
    colors = _list_color(g, ls)
    palette = max(set().union(*set(ls)), default=0)
    return EdgeColoring(palette_size=palette, assignment=dict(zip(g.edges, colors)))


def _list_color(g: Graph, ls: list[frozenset[int]], cube: int | None = None) -> list[int]:
    """demand_list_color by edge id: g and each edge's list `ls`, as
    ``_edge_lists`` gives them; returns each edge's color by edge id.
    `cube` is k when g is a subgraph of the indexed Q_k: its sides are then
    the bit parities (``graph._parity_sides``), with no bipartition search,
    and while g keeps a vertex of degree k its base is the dimension
    coloring (``_dimension_base``, logged as base=dimension) in place of
    the König base; any proper max-degree coloring ranks as the König base
    does and meets the peel's proof."""
    side = bipartition(g).side if cube is None else _parity_sides(cube)
    edges = g.edges
    xs = [u if side[u] == SIDE_X else v for u, v in edges]
    ys = [v if side[u] == SIDE_X else u for u, v in edges]
    delta = max_degree(g)
    short = [i for i, colors in enumerate(ls) if len(colors) < delta]
    name, (base, at) = ("dimension", _dimension_base(g)) if delta == cube else ("konig", _konig_base(g))
    # out(e) on a base ranked by color: the colors at x below e's, and at y above it
    out = (len([c for c in at[xs[i]] if c < base[i]]) + len([c for c in at[ys[i]] if c > base[i]]) for i in short)
    if any(o >= len(ls[i]) for o, i in zip(out, short)):
        name = "peeled"
        kx, ky = _peeled_ranks(g, xs, ys, base, at)
        if any(kx[i] + ky[i] >= len(ls[i]) for i in short):
            bad = [(u, v) for (u, v), colors in zip(edges, ls) if len(colors) < max(g.degree(u), g.degree(v))]
            if not bad:
                raise ProofInvariantError("the peeled base fails lists that meet the endpoint-degree demand")
            raise DemandViolationError(f"lists shorter than endpoint-degree demand at {bad}")
    else:  # the base ranks by color: ascending at X, descending at Y
        kx, ky = base, [-c for c in base]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("list coloring: base=%s short=%d", name, len(short))
    return _kernel_rounds(g, ls, xs, ys, kx, ky)


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
