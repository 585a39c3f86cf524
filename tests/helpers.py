"""Shared test machinery: small-graph catalogs, brute-force oracles, BFS
distances, reference copies of replaced library code, seeded instance
generators.

The brute-force searchers here are deliberately primitive (fixed edge order,
no pruning heuristics) so they stay independent of the library's engines.
The BFS distances are the independent oracle for the library's local rule
``close_edge_pairs``; infinite distance (between components) is
``math.inf``, never a sentinel integer.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
import re
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from unittest.mock import patch

from edgex import (
    Bipartition,
    ColoringReport,
    Edge,
    EdgeColoring,
    Graph,
    ListAssignment,
    ObstructionCertificate,
    Precoloring,
    ProductGraph,
    ReducedInstance,
    bipartition,
    build_graph,
    canonical_edge,
    cartesian_product,
    hypercube,
    make_list_assignment,
    max_degree,
    one_factorization,
    reduce_instance,
    star,
)
from edgex import coloring
from edgex.coloring import _require_covered
from edgex.extension import _star_to_host
from edgex.graph import close_edge_pairs
from edgex.errors import (
    BadParameterError,
    BudgetExceededError,
    MissingEdgeError,
    NoKernelError,
    ProofInvariantError,
    UnknownEdgeError,
)

_log = logging.getLogger("edgex")


# ---------------------------------------------------------------------------
# catalog of small connected bipartite graphs, one per isomorphism class


def _canonical_form(n: int, edges: tuple) -> tuple:
    """Minimum relabeled edge tuple over refinement-respecting permutations."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [len(adj[v]) for v in range(n)]
    while True:
        sig = [(color[v], tuple(sorted(color[w] for w in adj[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(n)]
        if new == color:
            break
        color = new
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    starts = []
    pos = 0
    for cls in ordered:
        starts.append(pos)
        pos += len(cls)
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in ordered)):
        mapping = {}
        for start, part in zip(starts, parts):
            for off, v in enumerate(part):
                mapping[v] = start + off
        relabeled = tuple(sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in edges))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


def _is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def connected_bipartite_catalog(max_edges: int = 7) -> list[Graph]:
    """All connected bipartite graphs with 1..max_edges edges, one graph per
    isomorphism class, grown edge by edge from K_2."""
    seed = (2, ((0, 1),))
    seen = {_canonical_form(*seed): seed}
    frontier = [seed]
    for _ in range(max_edges - 1):
        next_frontier = []
        for (n, edges) in frontier:
            have = set(edges)
            candidates = []
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) not in have:
                        candidates.append((n, tuple(sorted(have | {(u, v)}))))
                candidates.append((n + 1, tuple(sorted(have | {(u, n)}))))
            for n2, edges2 in candidates:
                if not _is_bipartite(n2, edges2):
                    continue
                key = _canonical_form(n2, edges2)
                if key not in seen:
                    seen[key] = (n2, edges2)
                    next_frontier.append((n2, edges2))
        frontier = next_frontier
    return [build_graph([f"v{i}" for i in range(n)], edges) for (n, edges) in sorted(seen.values())]


def small_bipartite_graphs(max_vertices: int = 5) -> list[Graph]:
    """Every labeled bipartite graph on up to max_vertices vertices."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for of in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if of >> i & 1)
            if _is_bipartite(n, edges):
                out.append(build_graph([f"v{i}" for i in range(n)], edges))
    return out


# ---------------------------------------------------------------------------
# brute-force oracles (fixed canonical edge order, no heuristics)


def brute_force_list_coloring(g: Graph, lists: ListAssignment):
    """First proper in-list coloring in lexicographic order, or None."""
    edges = list(g.edges)

    def ok(assignment, e, c):
        return all(
            assignment.get(f) != c
            for v in e
            for f in g.incident_edges(v)
            if f != e
        )

    def walk(i, assignment):
        if i == len(edges):
            return dict(assignment)
        e = edges[i]
        for c in lists.lists[e]:
            if ok(assignment, e, c):
                assignment[e] = c
                found = walk(i + 1, assignment)
                if found is not None:
                    return found
                del assignment[e]
        return None

    return walk(0, {})


def enumerate_all_list_colorings(g: Graph, lists: ListAssignment):
    """Every proper in-list coloring, by full cartesian enumeration."""
    edges = list(g.edges)
    out = []
    for combo in itertools.product(*(lists.lists[e] for e in edges)):
        assignment = dict(zip(edges, combo))
        proper = all(
            assignment[e] != assignment[f]
            for e in edges
            for v in e
            for f in g.incident_edges(v)
            if f != e
        )
        if proper:
            out.append(assignment)
    return out


def brute_force_extendable(g: Graph, pre: Precoloring, palette: int):
    """First proper palette-coloring extending pre, canonical order, or None."""
    lists = {
        e: (pre.entries[e],) if e in pre.entries else tuple(range(1, palette + 1))
        for e in g.edges
    }
    return brute_force_list_coloring(g, ListAssignment(lists=lists))


def reference_search(
    g: Graph,
    domains: dict[Edge, set[int]],
    budget: int | None = None,
    pinned: Iterable[tuple[Edge, int]] = (),
) -> tuple[dict[Edge, int] | None, int]:
    """The library's search kernel before pigeonhole pruning and bucketed
    MRV (an O(E) scan per node), kept as a test oracle: same arguments,
    returns (assignment or None, search nodes used)."""
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
            return None, 0
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
            return None, nodes
    return assignment, nodes


# ---------------------------------------------------------------------------
# BFS distances


def vertex_distance(g: Graph, u: int, v: int) -> int | float:
    """BFS shortest-path length; math.inf across components."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in g.adjacency[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                if w == v:
                    return dist[w]
                queue.append(w)
    return math.inf


def distances_from(g: Graph, u: int) -> list[int | float]:
    """Single-source BFS distances; math.inf where unreachable."""
    g.check_vertex(u)
    dist: list[int | float] = [math.inf] * g.n
    dist[u] = 0
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in g.adjacency[x]:
            if dist[w] == math.inf:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def edge_distance(g: Graph, e: Edge, f: Edge) -> int | float:
    """min over the four endpoint distances; 0 iff the edges share a vertex."""
    e = g.check_edge(e)
    f = g.check_edge(f)
    x, y = e
    z, w = f
    from_x = distances_from(g, x)
    from_y = distances_from(g, y)
    return min(from_x[z], from_x[w], from_y[z], from_y[w])


def adjacent_edges(e: Edge, f: Edge) -> bool:
    """True when the two canonical edges share an endpoint."""
    return not set(e).isdisjoint(f)


def x_vertices(sides: Bipartition) -> list[int]:
    """The vertices on the X side of a bipartition, ascending."""
    return [v for v in range(len(sides.side)) if sides.is_x(v)]


# ---------------------------------------------------------------------------
# reference coloring check


def reference_verify_proper(g: Graph, col: EdgeColoring, lists: ListAssignment | None = None) -> ColoringReport:
    """The library's verify_proper before the key-set filter (a per-vertex
    by-color enumeration on every call), kept as a test oracle. A color
    that is not an int is off the palette."""
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
    off_palette = [
        e for e in g.edges
        if type(col.assignment[e]) is not int or not 1 <= col.assignment[e] <= col.palette_size
    ]
    off_list = []
    if lists is not None:
        off_list = [e for e in g.edges if col.assignment[e] not in lists.lists.get(e, (col.assignment[e],))]
    return ColoringReport(
        conflicts=tuple(conflicts),
        off_palette=tuple(off_palette),
        off_list=tuple(off_list),
    )


# ---------------------------------------------------------------------------
# reference reduction


def _reference_classify(pre: Precoloring, width: int, check_edge):
    """Split entries into layer entries (base edge, copy, color) and fiber
    entries (base vertex, right pair, color) from the vertex indexing."""
    layer = []
    fiber = []
    for e in sorted(pre.entries):
        (u, w), (v, z) = (divmod(x, width) for x in check_edge(e))
        if w == z:
            layer.append(((u, v), w, pre.entries[e]))
        else:
            fiber.append((u, (w, z), pre.entries[e]))
    return layer, fiber


def reference_reduce_instance(g: Graph, m: int, pre: Precoloring) -> ReducedInstance:
    """The library's reduce_instance before the per-vertex blocked colors (a
    classification pass, then an edge -> endpoint -> color table), kept as a
    test oracle; the same output up to the order of forced_layer and
    fiber_prescriptions when keys are given reversed."""
    if m < 1:
        raise BadParameterError(f"m must be >= 1, got {m!r}")
    width = 2 * m

    def check_edge(e: Edge) -> Edge:
        # membership in G box K_2m by index arithmetic, without the product
        a, b = canonical_edge(*e)
        (u, w), (v, z) = divmod(a, width), divmod(b, width)
        if not (g.has_edge(u, v) if w == z else u == v and 0 <= u < g.n):
            raise UnknownEdgeError(f"edge {(a, b)} not in graph")
        return a, b

    palette = max_degree(g) + 2 * m - 1
    layer, fiber = _reference_classify(pre, width, check_edge)

    forced_layer: dict[Edge, int] = {}
    for base_edge, _copy, color in layer:
        if base_edge in forced_layer:
            raise ProofInvariantError(f"base edge {base_edge} precolored in two copies")
        forced_layer[base_edge] = color
    fiber_prescriptions: dict[int, tuple[Edge, int]] = {}
    for base_vertex, right_edge, color in fiber:
        if base_vertex in fiber_prescriptions:
            raise ProofInvariantError(f"two fiber prescriptions at base vertex {base_vertex}")
        fiber_prescriptions[base_vertex] = (right_edge, color)

    residual = build_graph(g.labels, [e for e in g.edges if e not in forced_layer])
    full = tuple(range(1, palette + 1))
    lists = {e: set(full) for e in residual.edges}
    events: dict[Edge, dict[int, int]] = {e: {} for e in residual.edges}  # edge -> endpoint -> color

    def delete(edge: Edge, endpoint: int, color: int) -> None:
        if endpoint in events[edge]:
            raise ProofInvariantError(
                f"edge {edge} loses two colors through endpoint {endpoint}"
            )
        events[edge][endpoint] = color
        lists[edge].discard(color)

    for (u, v), color in sorted(forced_layer.items()):
        for w in (u, v):
            for e in residual.incident_edges(w):
                delete(e, w, color)
    for u, (_pair, color) in sorted(fiber_prescriptions.items()):
        for e in residual.incident_edges(u):
            delete(e, u, color)

    demand = {
        e: max(residual.degree(e[0]), residual.degree(e[1])) for e in residual.edges
    }
    removed_ends = {x for f in forced_layer for x in f}
    for e in residual.edges:
        if len(lists[e]) < demand[e]:
            raise ProofInvariantError(f"list of {e} shorter than its demand {demand[e]}")
        if m == 1 and len(set(events[e].values())) == 2:
            if any(w not in removed_ends for w in e):
                raise ProofInvariantError(
                    f"edge {e} lost two colors without two removed edges"
                )
    norm = {e: tuple(sorted(lists[e])) for e in residual.edges}
    return ReducedInstance(
        base_residual=residual,
        lists=ListAssignment(lists=norm),
        forced_layer=forced_layer,
        fiber_prescriptions=fiber_prescriptions,
    )


# ---------------------------------------------------------------------------
# reference product builds and fibers


def reference_cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """The library's cartesian_product before the one ordered pass: layer
    and fiber pairs handed to build_graph, which checks and sorts them;
    kept as a test oracle."""
    k = h.n
    labels = [f"{lu}|{lw}" for lu in g.labels for lw in h.labels]
    layer = [(u * k + w, v * k + w) for (u, v) in g.edges for w in range(k)]
    fiber = [(u * k + w, u * k + z) for u in range(g.n) for (w, z) in h.edges]
    return ProductGraph(graph=build_graph(labels, layer + fiber), left_order=g.n, right_order=k)


def reference_hypercube(d: int) -> Graph:
    """The library's hypercube before the ordered build, through build_graph."""
    n = 1 << d
    labels = [format(i, f"0{d}b") if d else "" for i in range(n)]
    pairs = [(i, i | (1 << b)) for i in range(n) for b in range(d) if not i & (1 << b)]
    return build_graph(labels, pairs)


def reference_color_fibers(
    g: Graph,
    m: int,
    base_coloring: EdgeColoring,
    fiber_prescriptions: dict[int, tuple[Edge, int]],
) -> dict[Edge, int]:
    """The fiber completion as an edge -> color dict, built per base vertex
    from its free colors and the prescribed pair's class (the library's
    removed color_fibers before its slot template); a test oracle for
    extension._vertex_colors on prescriptions as reduce_instance gives
    them."""
    _require_covered(g, base_coloring.assignment, "base coloring")
    palette = base_coloring.palette_size
    classes = one_factorization(2 * m)
    width = 2 * m
    out: dict[Edge, int] = {}
    for u in range(g.n):
        used = {base_coloring.assignment[e] for e in g.incident_edges(u)}
        avail = [c for c in range(1, palette + 1) if c not in used]
        if len(avail) < 2 * m - 1:
            raise ProofInvariantError(f"only {len(avail)} colors free at base vertex {u}")
        prescription = fiber_prescriptions.get(u)
        if prescription is None:
            class_color = {t: c for t, c in enumerate(avail[: 2 * m - 1])}
        else:
            pair, color = prescription
            if color not in avail:
                raise ProofInvariantError(
                    f"prescribed fiber color {color} already used at base vertex {u}"
                )
            rest = [c for c in avail if c != color][: 2 * m - 2]
            target = next(t for t, cls in enumerate(classes) if pair in cls)
            class_color = {target: color}
            others = [t for t in range(2 * m - 1) if t != target]
            class_color.update(zip(others, rest))
        for t, cls in enumerate(classes):
            for (p, q) in cls:
                out[(u * width + p, u * width + q)] = class_color[t]
    return out


def reference_cube_dim(g: Graph) -> int | None:
    """k when g has 2^k vertices and reference_hypercube(k)'s edges, else None."""
    k = g.n.bit_length() - 1
    if g.n and g.n == 1 << k and g.edges == reference_hypercube(k).edges:
        return k
    return None


def reference_dimension_base(g: Graph) -> tuple[list[int], list[dict[int, int]]]:
    """The dimension coloring of a subgraph of a cube, bit by bit: edge uv
    colored one more than the index of the bit where u and v differ; with
    each vertex's color -> edge id map, as coloring._konig_base gives them."""
    base: list[int] = []
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        c = next(b for b in itertools.count() if (u >> b) & 1 != (v >> b) & 1) + 1
        base.append(c)
        at[u][c] = at[v][c] = i
    return base, at


def parity_bipartition(g: Graph) -> Bipartition:
    """Sides by the parity of each vertex's 1 bits: X when even."""
    return Bipartition(side=tuple("Y" if bin(v).count("1") % 2 else "X" for v in range(g.n)))


def reference_assemble(
    base: Graph, m: int, product: Graph, palette: int, pre: Precoloring, star_m: int | None = None
) -> dict[Edge, int]:
    """The extension pipeline's assembly before the product-order pass, for
    a prescription of `product`: the base colored as the pipeline colors it
    (on a cube base, Q_k, by the list coloring's core for a subgraph of
    Q_k, its parity sides and dimension base their references),
    copied into every layer of base box K_{2m} by edge, the fibers of
    reference_color_fibers added, and for G box K_{1,star_m} every product
    edge looked up in that host through ``_star_to_host``."""

    def to_host(e: Edge) -> Edge:
        return e if star_m is None else canonical_edge(_star_to_host(e[0], star_m), _star_to_host(e[1], star_m))

    red = reduce_instance(base, m, Precoloring(palette, {to_host(e): c for e, c in pre.entries.items()}))
    residual, k = red.base_residual, reference_cube_dim(base)
    if k is None:
        colored = dict(coloring.demand_list_color(residual, red.lists).assignment)
    else:  # a cube base: the list coloring's parity sides and dimension base are their references
        sides, ls = parity_bipartition(residual).side, coloring._edge_lists(residual, red.lists)
        with (patch.object(coloring, "_parity_sides", lambda _k: sides),
              patch.object(coloring, "_dimension_base", reference_dimension_base)):
            colored = dict(zip(residual.edges, coloring._list_color(residual, ls, k)))
    colored.update(red.forced_layer)
    width = 2 * m
    host = {(u * width + i, v * width + i): c for (u, v), c in colored.items() for i in range(width)}
    host.update(reference_color_fibers(base, m, EdgeColoring(palette, colored), red.fiber_prescriptions))
    return {e: host[to_host(e)] for e in product.edges}


# ---------------------------------------------------------------------------
# reference kernel method


def reference_konig_color(g: Graph) -> EdgeColoring:
    """The library's konig_color before edge ids (an edge -> color dict and
    a color -> neighbor map per vertex), kept as a test oracle."""
    bipartition(g)
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
                _reference_flip_alternating_path(at, assignment, v, a, b)
        assignment[(u, v)] = a
        at[u][a] = v
        at[v][a] = u
    return EdgeColoring(palette_size=max_degree(g), assignment=assignment)


def _reference_flip_alternating_path(at, assignment, start: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """Swap colors a and b along the path leaving `start` on its a-edge;
    the path as (vertex, next vertex, old color) steps."""
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


def reference_galvin_list_color(g: Graph, lists: ListAssignment) -> EdgeColoring | None:
    """The kernel method of the library's demand_list_color on the König
    base, before the one oriented pass (per round: proposal lists rebuilt
    and re-sorted, sides read per edge, a working list per edge), kept as a
    test oracle; None when the König base fails the certificate. It logs
    the same base=konig record, and lists the edges in g.edges order."""
    sides = bipartition(g)
    delta = max_degree(g)
    short = [e for e in g.edges if len(lists.lists[e]) < delta]
    base = reference_konig_color(g).assignment
    if not reference_certifies(g, lists, sides, base, short):
        return None
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("list coloring: base=konig short=%d", len(short))

    work = {e: set(lists.lists[e]) for e in g.edges}
    colored: dict[Edge, int] = {}
    palette = sorted(set().union(*work.values())) if work else []

    for k in palette:
        rough = [e for e in g.edges if e not in colored and k in work[e]]
        if not rough:
            continue
        matched = _reference_stable_matching(rough, base, sides)
        matched_at: dict[int, Edge] = {}
        for e in matched:
            colored[e] = k
            matched_at[e[0]] = e
            matched_at[e[1]] = e
        for e in rough:
            if e in matched:
                continue
            if not _reference_dominated(e, matched_at, base, sides):
                raise NoKernelError(f"edge {e} neither colored nor dominated for color {k}")
            work[e].discard(k)

    if len(colored) != len(g.edges):
        raise NoKernelError("edges left uncolored after the palette pass")
    palette_size = palette[-1] if palette else 0
    return EdgeColoring(palette_size=palette_size, assignment={e: colored[e] for e in g.edges})


def reference_certifies(
    g: Graph,
    lists: ListAssignment,
    sides: Bipartition,
    base: dict[Edge, int],
    short: list[Edge],
) -> bool:
    """Whether out(e) < |L(e)| on every short edge e = xy of a base
    coloring: out(e) counts the edges at x with a lower color and at y with
    a higher one, read off the colors at each vertex."""
    at: list[set[int]] = [set() for _ in range(g.n)]  # vertex -> its colors
    for (u, v), c in base.items():
        at[u].add(c)
        at[v].add(c)
    for e in short:
        x, y = e if sides.is_x(e[0]) else (e[1], e[0])
        c = base[e]
        if sum(1 for k in at[x] if k < c) + sum(1 for k in at[y] if k > c) >= len(lists.lists[e]):
            return False
    return True


def peeled_rank_sums(
    g: Graph, start: tuple[list[int], list[dict[int, int]]] | None = None, sides: Bipartition | None = None
) -> dict[Edge, int]:
    """r_x(e) + r_y(e) for every edge e = xy of the library's peeled base of
    g, r_v(e) counted as the edges at v whose rank key at v is lower than
    e's; asserts that every vertex gives its edges distinct keys. The peel
    starts from `start`, a proper max-degree coloring with its color maps
    (the König base when None), with the X ends on `sides`'s X side
    (bipartition(g)'s when None)."""
    sides = bipartition(g) if sides is None else sides
    ends = [(u, v) if sides.is_x(u) else (v, u) for u, v in g.edges]
    base, at = coloring._konig_base(g) if start is None else start
    rx, ry = coloring._peeled_ranks(g, [x for x, _ in ends], [y for _, y in ends], base, at)
    key = {}  # (vertex, edge) -> the edge's key at that vertex
    for e, (x, y), kx, ky in zip(g.edges, ends, rx, ry):
        key[x, e], key[y, e] = kx, ky
    for v in range(g.n):
        keys = [key[v, e] for e in g.incident_edges(v)]
        assert len(set(keys)) == len(keys), (v, keys)
    return {
        e: sum(key[v, f] < key[v, e] for v in e for f in g.incident_edges(v))
        for e in g.edges
    }


def _reference_stable_matching(edges: list[Edge], base: dict[Edge, int], sides: Bipartition) -> set[Edge]:
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


def _reference_dominated(e: Edge, matched_at: dict[int, Edge], base: dict[Edge, int], sides: Bipartition) -> bool:
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


# ---------------------------------------------------------------------------
# seeded random instance generators


def random_connected_bipartite(rng: random.Random, max_n: int = 12, max_degree_cap: int = 4) -> Graph:
    """Random connected bipartite graph: random tree plus a few cross edges."""
    n = rng.randint(2, max_n)
    side = [0] * n
    edges = set()
    degree = [0] * n
    for v in range(1, n):
        candidates = [u for u in range(v) if degree[u] < max_degree_cap]
        if not candidates:
            candidates = list(range(v))
        u = rng.choice(candidates)
        edges.add(canonical_edge(u, v))
        degree[u] += 1
        degree[v] += 1
        side[v] = 1 - side[u]
    extra = rng.randint(0, n // 2)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        e = canonical_edge(u, v)
        if (
            u != v
            and side[u] != side[v]
            and e not in edges
            and degree[u] < max_degree_cap
            and degree[v] < max_degree_cap
        ):
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
    return build_graph([f"v{i}" for i in range(n)], sorted(edges))


def bkw_instance(seed: int, short: int = 0) -> tuple[Graph, ListAssignment]:
    """Random bipartite G(150, 150, 0.27) from random.Random(seed), X the
    vertices 0..149, with lists `short` colors below the endpoint-degree
    demand of their edge, each drawn from 1..demand+2 by the same rng."""
    rng = random.Random(seed)
    g = build_graph(list(range(300)), [(u, 150 + v) for u in range(150) for v in range(150) if rng.random() < 0.27])
    lists = {}
    for u, v in g.edges:
        need = max(g.degree(u), g.degree(v))
        lists[(u, v)] = rng.sample(range(1, need + 3), need - short)
    return g, make_list_assignment(g, lists)


def regular_bipartite(n: int, k: int) -> Graph:
    """The k-regular bipartite circulant: x_i (vertex i < n) joined to
    y_((i + j) mod n) (vertex n + that) for j < k."""
    return build_graph([f"v{i}" for i in range(2 * n)], [(i, n + (i + j) % n) for i in range(n) for j in range(k)])


def random_tree(rng: random.Random, max_n: int = 8) -> Graph:
    n = rng.randint(2, max_n)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    return build_graph([f"v{i}" for i in range(n)], pairs)


def random_distance2_matching(
    rng: random.Random, g: Graph, max_size: int, pool: Iterable[Edge] | None = None
) -> list:
    """Greedy random distance-2 matching of at most max_size edges, drawn
    from `pool` (every edge of g by default)."""
    pool = list(g.edges if pool is None else pool)
    rng.shuffle(pool)
    chosen = []
    dist_cache = {}

    def dist_from(v):
        if v not in dist_cache:
            dist_cache[v] = distances_from(g, v)
        return dist_cache[v]

    for e in pool:
        if len(chosen) >= max_size:
            break
        if all(min(dist_from(x)[y] for x in f for y in e) >= 2 for f in chosen):
            chosen.append(e)
    return chosen


def reference_distance2_matchings(g: Graph) -> list[tuple[Edge, ...]]:
    """Every distance-2 matching of g, the empty one included, each sorted,
    in lexicographic order: a test reference over edge tuples and
    ``edge_distance``, which the oracle's count and ranks must agree with."""
    edges = g.edges
    far = {(e, f): edge_distance(g, e, f) >= 2 for e, f in itertools.combinations(edges, 2)}
    out: list[tuple[Edge, ...]] = []

    def grow(prefix: list[Edge], start: int) -> None:
        out.append(tuple(prefix))
        for k in range(start, len(edges)):
            if all(far[e, edges[k]] for e in prefix):
                prefix.append(edges[k])
                grow(prefix, k + 1)
                prefix.pop()

    grow([], 0)
    return out


def reference_close_masks(g: Graph) -> list[int]:
    """The oracle's close masks by the pairwise rule: bit j of close[i] for
    each pair of edges i, j that ``close_edge_pairs`` finds at distance < 2
    over all of g's edges, and bit i; a reference copy of the construction
    the oracle replaced with one read of g's neighbor lists."""
    edges = g.edges
    index = {e: i for i, e in enumerate(edges)}
    close = [1 << i for i in range(len(edges))]
    for e, f, _d in close_edge_pairs(g, list(edges)):
        close[index[e]] |= 1 << index[f]
        close[index[f]] |= 1 << index[e]
    return close


def reference_local_obstruction(g: Graph, pre: Precoloring) -> ObstructionCertificate | None:
    """The obstruction search as a scan: for each saturated vertex w and
    each prescribed color in order, skip the color if an edge at w has it,
    else give each edge at w the first prescribed edge of that color, in
    sorted order, that touches it. A test reference for the oracle's
    indexed ``check_local_obstruction``; takes canonical keys and palette
    colors only."""
    by_color: dict[int, list[Edge]] = {}
    for e, c in sorted(pre.entries.items()):
        by_color.setdefault(c, []).append(e)
    for w in range(g.n):
        if g.degree(w) != pre.palette_size:
            continue
        incident = g.incident_edges(w)
        for color, colored in sorted(by_color.items()):
            if any(pre.entries.get(e) == color for e in incident):
                continue
            witnesses: dict[Edge, Edge] = {}
            for e in incident:
                witness = next((f for f in colored if f != e and not set(e).isdisjoint(f)), None)
                if witness is None:
                    break
                witnesses[e] = witness
            else:
                return ObstructionCertificate(hub=w, blocked_color=color, witnesses=witnesses)
    return None


def random_valid_precoloring(
    rng: random.Random, g: Graph, palette: int, max_size: int, pool: Iterable[Edge] | None = None
) -> Precoloring:
    matching = random_distance2_matching(rng, g, max_size, pool)
    return Precoloring(
        palette_size=palette,
        entries={e: rng.randint(1, palette) for e in matching},
    )


def layer_edges(p: Graph, width: int) -> list[Edge]:
    """The edges of a product with `width` right-factor vertices that join
    two fibers (layer copies of the left factor's edges)."""
    return [(a, b) for a, b in p.edges if a // width != b // width]


def star_residual(g: Graph, m: int, pre: Precoloring) -> ReducedInstance:
    """The residual instance extend_over_star colors for a prescription of
    G box K_{1,m}: the entries mapped into (G box K_{1,m-1}) box K_2 and
    reduced over the base G box K_{1,m-1}."""
    entries = {
        canonical_edge(_star_to_host(u, m), _star_to_host(v, m)): c for (u, v), c in pre.entries.items()
    }
    base = cartesian_product(g, star(m - 1)).graph
    return reduce_instance(base, 1, Precoloring(pre.palette_size, entries))


def complete_factor_palette(g: Graph, m: int) -> int:
    return max_degree(g) + 2 * m - 1


def roadmap_cube_instance(d: int) -> tuple[Graph, Precoloring]:
    """Q_d with a greedy maximal induced matching over its edges shuffled by
    random.Random(d), colored at random from 1..d by the same rng."""
    q = hypercube(d)
    rng = random.Random(d)
    order = list(q.edges)
    rng.shuffle(order)
    near, matching = set(), []
    for u, v in order:
        if u not in near and v not in near:
            matching.append((u, v))
            near.update((u, v, *q.adjacency[u], *q.adjacency[v]))
    return q, Precoloring(d, {e: rng.randint(1, d) for e in matching})


# ---------------------------------------------------------------------------
# debug records of the "edgex" logger


@contextmanager
def _debug_records(pattern: str, convert):
    """Collect convert(match) for every record the "edgex" logger emits
    inside the block whose message matches pattern, in order."""
    found: list = []

    class Collect(logging.Handler):
        def emit(self, record):
            match = re.search(pattern, record.getMessage())
            if match:
                found.append(convert(match))

    logger = logging.getLogger("edgex")
    handler = Collect(logging.DEBUG)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield found
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)


def list_coloring_bases():
    """The base ("konig" or "peeled") of every list-coloring record."""
    return _debug_records(r"^list coloring: base=(\w+)", lambda m: m.group(1))


def list_coloring_records():
    """The full message of every list-coloring record."""
    return _debug_records(r"^list coloring: .*", lambda m: m.group(0))


def debug_records():
    """The full message of every record."""
    return _debug_records(r".*", lambda m: m.group(0))


def search_counts():
    """(nodes, pigeonhole prunes) of every search kernel call."""
    return _debug_records(
        r"^search: nodes=(\d+) pruned=(\d+)$", lambda m: (int(m.group(1)), int(m.group(2)))
    )
