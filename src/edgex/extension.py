"""Constructive extension of precolored distance-2 matchings.

Every extend_* call runs one pipeline, ``_extend``, through a host
base box K_{2m}, in a fixed order: palette check; one validation of the
prescription on the caller's product; the reduction (layer entries remove
their base edge, fiber entries stay; every surviving base edge gets the
palette minus the colors blocked at its two ends); the list coloring of the
residual base; one pass that colors the product in its own edge order, each
edge a copy of its base edge's color or its fiber class's color at its base
vertex (``_vertex_colors``, the free-color rule, with each fiber entry's
class pinned to its color); one final check on the caller's product
(proper, in palette, agreeing with the prescription), whose failure is an
internal error. Each stage is the private, positional core of a public
function (``_reduce`` of reduce_instance, ``coloring._list_color`` of
demand_list_color, ``coloring._verify`` of verify_proper): lists and colors
pass between them as lists by edge id, validation resolves each
prescription key to its edge id once and the final check reads those
(id, color) pairs, and the only per-edge dict is the result.
When the base is the indexed Q_k (``Graph._cube_dim``), as it is for
extend_hypercube, for extend_over_hypercube(Q_j, m) and for any other call
whose base is a cube, the residual, Q_k less a matching, takes its sides
from each vertex's bit parity (no bipartition BFS), and its list coloring
starts from its dimension coloring (``coloring._dimension_base``) in place
of the König base, unless the removed matching covers every vertex, so
that the dimension coloring is no max-degree coloring.
An entry point checks its integers, bipartitions the caller's own G first
(so an odd cycle is reported in G's indices), runs the families size check
on the counts of its product before building anything, and picks base,
product and palette. Hypercube and star
products take m = 1: G box Q_m is (G box Q_{m-1}) box K_2 split on the
least significant bit, and G box K_{1,m} is an induced subgraph of
(G box K_{1,m-1}) box K_2, so the star maps its prescription into that
host and reads its edges' colors from the host's base. Both are identities
of the vertex indexing, proven by the test suite rather than checked at run
time.

extend_hypercube takes its base Q_{d-1} and product Q_d from the
process's kept values (``families._kept``), after its integer, size and
palette checks: the base with the adjacency rows the reduction derives on
it, the product as a separate object whose rows are never derived. A pair
is estimated at 90 bytes per edge of its two cubes, so each pair up to
Q_13 fits the store's bound on its own and a Q_14 pair alone passes it.
Outputs are byte-identical to fresh builds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .coloring import (
    EdgeColoring,
    ListAssignment,
    _dimension_base,
    _list_color,
    _verify,
    one_factorization,
)
from .errors import (
    BadParameterError,
    InvalidPrecoloringError,
    ProofInvariantError,
    UnknownEdgeError,
    _require_instance,
    _require_ints,
    _require_mapping,
)
from .families import ProductGraph, _as_graph, cartesian_product, complete, hypercube, star
from .families import _cube_size, _kept, _require_size
from .graph import (
    Edge,
    Graph,
    _edge_key,
    _parity_sides,
    _require_graph,
    _without_edges,
    bipartition,
    canonical_edge,
    close_edge_pairs,
    max_degree,
)


@dataclass(frozen=True)
class Precoloring:
    """Palette size plus a partial edge -> color prescription. Entries that
    are not a mapping raise InvalidPrecoloringError here, so no reader of
    them meets a bare AttributeError; everything else about them is checked
    where they are used."""

    palette_size: int
    entries: dict[Edge, int]

    def __post_init__(self) -> None:
        _require_mapping(InvalidPrecoloringError, entries=self.entries)


@dataclass(frozen=True)
class ValidationReport:
    """Violations that make a precoloring unusable; empty means valid."""

    color_violations: tuple[tuple[Edge, int], ...] = ()
    distance_violations: tuple[tuple[Edge, Edge, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.color_violations or self.distance_violations)

    def __str__(self) -> str:
        if self.ok:
            return "precoloring ok"
        lines = [
            f"edge {e} colored {c} outside palette" for e, c in self.color_violations
        ]
        lines.extend(
            f"edges {e} and {f} at distance {d} < 2" for e, f, d in self.distance_violations
        )
        return "; ".join(lines)


@dataclass(frozen=True)
class ReducedInstance:
    """The residual list-coloring problem on the base graph.

    forced_layer maps each removed base edge to its prescribed color;
    fiber_prescriptions maps a base vertex to its (right pair, color), at
    most one per vertex on valid input.
    """

    base_residual: Graph
    lists: ListAssignment
    forced_layer: dict[Edge, int]
    fiber_prescriptions: dict[int, tuple[Edge, int]]


def validate_precoloring(p: ProductGraph | Graph, pre: Precoloring) -> ValidationReport:
    """Check colors lie in the palette and entries form a distance-2 matching.

    Keys may name an edge in either order; entries are reported by edge, in
    insertion order among keys naming the same edge. Unknown edges and keys
    that are not pairs of ints raise UnknownEdgeError; everything else is
    reported, not raised, so callers can show all problems at once.
    """
    g = _as_graph(p)
    _require_graph(p=g)
    _require_instance(Precoloring, pre=pre)
    return _validate(g, pre)[0]


def _validate(g: Graph, pre: Precoloring) -> tuple[ValidationReport, list[tuple[int, int]]]:
    """validate_precoloring on g, and the entries as (edge id, color) pairs
    in the order it reports them: each key is resolved once."""
    _require_ints(InvalidPrecoloringError, palette_size=pre.palette_size)
    entries = sorted(((g._edge_id(e), c) for e, c in pre.entries.items()), key=itemgetter(0))
    edges = g.edges
    report = ValidationReport(
        color_violations=tuple(
            (edges[i], c) for i, c in entries if not (type(c) is int and 1 <= c <= pre.palette_size)
        ),
        distance_violations=tuple(close_edge_pairs(g, [edges[i] for i, _c in entries])),
    )
    return report, entries


def require_valid(p: ProductGraph | Graph, pre: Precoloring) -> None:
    report = validate_precoloring(p, pre)
    if not report.ok:
        raise InvalidPrecoloringError(report)


def reduce_instance(g: Graph, m: int, pre: Precoloring) -> ReducedInstance:
    """Build the residual base instance for a valid precoloring of G box K_{2m}.

    One pass over the entries, by canonical key, tells layer entries (a copy
    of a base edge, which is removed) from fiber entries (inside one base
    vertex's K_{2m}) by the vertex indexing, and records the color each
    blocks at its base vertices. Keys are checked against G box K_{2m} by
    index arithmetic, without building it. The residual is g less the
    removed edges, its rows g's with those at the removed edges' ends
    rebuilt (g itself when none is removed). A residual edge's list is the
    palette minus the colors blocked at its two ends, one tuple per
    distinct set of blocked colors; only the edges with a blocked end are
    looked at one by one, and the full lists' demand is checked once,
    against the residual's maximum degree. On valid input each base vertex
    is blocked at most once, so a list loses at most two colors and never
    drops below the endpoint-degree demand; any breach of that is a
    validation bug and raises ProofInvariantError. A color that is not an
    int raises BadParameterError once the entries are classified.

    The boundary view of ``_reduce``: it keys the lists and the layer
    entries by edge, the layer entries in the order of their keys.
    """
    _require_graph(g=g)
    _require_instance(Precoloring, pre=pre)
    residual, ls, _sets, forced, fiber_prescriptions = _reduce(g, m, pre.entries)
    return ReducedInstance(
        base_residual=residual,
        lists=ListAssignment(lists=dict(zip(residual.edges, ls))),
        forced_layer={g.edges[i]: color for i, color in forced.items()},
        fiber_prescriptions=fiber_prescriptions,
    )


def _reduce(
    g: Graph, m: int, entries: dict[Edge, int]
) -> tuple[Graph, list[tuple[int, ...]], dict[int, set[int]], dict[int, int], dict[int, tuple[Edge, int]]]:
    """reduce_instance by edge id: the residual; its lists in
    residual.edges order and their colors by list id, as ``_edge_lists``
    gives them; each removed base edge's id mapped to its color, in the
    order of the entries' keys; and the fiber prescriptions."""
    _require_positive(m=m)
    width = 2 * m
    _require_size(f"K_{width}", width, m * (width - 1))  # bounds the palette, max degree + 2m - 1
    edges = g.edges
    forced: dict[int, int] = {}  # removed base edge id -> its color
    fiber_prescriptions: dict[int, tuple[Edge, int]] = {}
    blocked: dict[int, int] = {}  # base vertex -> the color prescribed at it
    keyed = sorted(((_edge_key(e), c) for e, c in entries.items()), key=lambda t: t[0])
    for (a, b), color in keyed:
        (u, w), (v, z) = divmod(a, width), divmod(b, width)
        i = bisect_left(edges, (u, v))  # a < b, so (u, v) is canonical
        if w == z and i < len(edges) and edges[i] == (u, v):
            if i in forced:
                raise ProofInvariantError(f"base edge {(u, v)} precolored in two copies")
            forced[i] = color
        elif w != z and u == v and 0 <= u < g.n:
            if u in fiber_prescriptions:
                raise ProofInvariantError(f"two fiber prescriptions at base vertex {u}")
            fiber_prescriptions[u] = ((w, z), color)
        else:
            raise UnknownEdgeError(f"edge {(a, b)} not in graph")
        for x in (u, v) if u != v else (u,):
            if x in blocked:
                raise ProofInvariantError(f"base vertex {x} blocked twice")
            blocked[x] = color
    for x, color in blocked.items():  # lists are keyed by blocked colors
        if type(color) is not int:
            raise BadParameterError(f"color {color!r} blocked at base vertex {x} is not an int")

    full = tuple(range(1, max_degree(g) + width))
    residual = _without_edges(g, sorted(forced)) if forced else g
    rows = residual.adjacency
    top = max_degree(residual)
    if top > len(full):  # every full list meets its edge's demand
        raise ProofInvariantError(f"{len(full)} colors fall short of the residual's maximum degree {top}")
    ls = [full] * len(residual.edges)
    mark: list[int | None] = [None] * g.n  # base vertex -> the color blocked at it
    for x, color in blocked.items():
        mark[x] = color
    touched = [i for i, (u, v) in enumerate(residual.edges) if mark[u] is not None or mark[v] is not None]
    without: dict[frozenset[int], tuple[int, ...]] = {}  # lost colors -> list
    for i in touched:
        e = u, v = residual.edges[i]
        lost = frozenset(mark[x] for x in e if mark[x] is not None)
        if lost not in without:
            without[lost] = tuple(c for c in full if c not in lost)
        colors = ls[i] = without[lost]
        demand = max(len(rows[u]), len(rows[v]))
        if len(colors) < demand:
            raise ProofInvariantError(f"list of {e} shorter than its demand {demand}")
        # for m = 1 a fiber entry at one end leaves no room for any entry at
        # the other: both ends lie within distance 1 in G box K_2
        if m == 1 and len(lost) == 2 and (u in fiber_prescriptions or v in fiber_prescriptions):
            raise ProofInvariantError(f"edge {e} lost two colors without two removed edges")
    used = [*without.values(), full] if len(touched) < len(ls) else without.values()
    sets = {id(colors): set(colors) for colors in used}
    return residual, ls, sets, forced, fiber_prescriptions


def _vertex_colors(
    g: Graph,
    width: int,
    base_colors: list[int],
    palette: int,
    pinned: dict[int, tuple[int, int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Per base vertex u of g: fiber[u], the colors of the 2m - 1 classes
    of the 1-factorization of K_{2m} (width = 2m) in u's fiber, and up[u],
    the colors of u's edges to higher neighbors. base_colors colors g.edges
    by position, so up[u] is a slice of it: u's upper edges are contiguous.

    The base coloring uses at most max_degree colors at a vertex out of a
    palette of max_degree + 2m - 1, so at least 2m - 1 colors remain at each
    vertex: exactly enough for the 2m - 1 classes. pinned maps a base vertex
    to (class, color), as ``_extend`` derives it from reduce_instance's
    fiber prescriptions, which are already checked: that class takes that
    color, and the other classes take the lowest remaining free colors in
    ascending class order. The colors used at each vertex come from one
    pass over the base edges. At most deg(u) colors are taken at u, so the
    first 2m - 1 free ones lie in 1..deg(u) + 2m - 1, within the palette,
    and only those are scanned.
    """
    used: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v), c in zip(g.edges, base_colors):
        used[u].append(c)
        used[v].append(c)
    palette_colors = range(1, palette + 1)
    fiber: list[list[int]] = []
    up: list[list[int]] = []
    lo = 0
    for u, row in enumerate(g.adjacency):
        hi = lo + len(row) - bisect_right(row, u)
        up.append(base_colors[lo:hi])
        lo = hi
        taken = set(used[u])
        # the first 2m - 1 free colors are all any class can take
        avail = [c for c in range(1, len(row) + width) if c not in taken][: width - 1]
        if len(avail) < width - 1:
            raise ProofInvariantError(f"only {len(avail)} colors free at base vertex {u}")
        if u in pinned:
            target, color = pinned[u]
            if color not in palette_colors or color in taken:
                raise ProofInvariantError(
                    f"prescribed fiber color {color} is not free at base vertex {u}"
                )
            rest = [c for c in avail if c != color][: width - 2]
            avail = rest[:target] + [color] + rest[target:]
        fiber.append(avail)
    return fiber, up


def _require_positive(**params: int) -> None:
    """_require_ints, and each parameter at least 1."""
    _require_ints(**params)
    for name, value in params.items():
        if value < 1:
            raise BadParameterError(f"{name} must be >= 1")


def _require_palette(pre: Precoloring, palette: int, what: str) -> None:
    if pre.palette_size != palette:
        raise InvalidPrecoloringError(
            f"{what} requires palette {palette}, precoloring declares {pre.palette_size!r}"
        )


def _extend(
    base: Graph,
    m: int,
    product: Graph,
    palette: int,
    what: str,
    pre: Precoloring,
    star: int | None = None,
) -> EdgeColoring:
    """The pipeline (module docstring) for `product`, named `what`, through
    the host base box K_{2m}; for G box K_{1,star}, the subgraph of the host
    (G box K_{1,star-1}) box K_2 that ``_star_to_host`` gives, only the
    prescription is mapped into the host.

    The coloring is built as one list in product.edges order from
    ``_vertex_colors``: cartesian_product emits product vertex u*k + w with
    its upper fiber edges, then its upper layer edges, which are the copies
    of u's upper base edges, colored up[u]. In the host (k = 2m) the fiber
    edges of w are the pairs (w, z > w), each colored by its class at u.
    The star's vertex u*(star+1) + s sits on base vertex c + s (c = u*star)
    for s < star: the center's fiber edges to leaves 1..star-1 are c's upper
    fiber edges in the base, up[c][:star-1], its edge to leaf `star` is
    c's host fiber edge, class 0, and its layer edges are c's upper layer
    edges, up[c][star-1:]; leaf s < star has only the layer edges up[c+s];
    leaf `star` sits on c in copy 1, whose layer edges are copies of c's,
    up[c][star-1:] again.
    """
    _require_palette(pre, palette, what)
    report, prescribed = _validate(product, pre)  # valid, so the ids are distinct
    if not report.ok:
        raise InvalidPrecoloringError(report)
    entries = pre.entries
    if star is not None:
        entries = {
            canonical_edge(_star_to_host(u, star), _star_to_host(v, star)): c for (u, v), c in entries.items()
        }
    residual, ls, sets, forced, fiber_prescriptions = _reduce(base, m, entries)
    k = base._cube_dim
    if k is None:
        colored = _list_color(residual, bipartition(residual).side, ls, sets)
    else:  # Q_k less a matching: parity sides, and the dimension base while a vertex keeps degree k
        start = _dimension_base(residual) if max_degree(residual) == k else None
        colored = _list_color(residual, _parity_sides(k), ls, sets, start)
    if len(colored) != len(residual.edges):
        raise ProofInvariantError(
            f"base coloring holds {len(colored)} colors for {len(residual.edges)} residual edges"
        )
    # the removed edges' ids are ascending; before id i, k of them and i - k residual edges
    base_colors: list[int] = []
    lo = 0
    for k, (i, color) in enumerate(sorted(forced.items())):
        base_colors += colored[lo : i - k]
        base_colors.append(color)
        lo = i - k
    base_colors += colored[lo:]
    width = 2 * m
    class_of = {pair: t for t, cls in enumerate(one_factorization(width)) for pair in cls}
    pinned = {u: (class_of[pair], color) for u, (pair, color) in fiber_prescriptions.items()}
    fiber, up = _vertex_colors(base, width, base_colors, palette, pinned)
    colors: list[int] = []
    if star is None:
        # vertex u's block reads its fiber colors f and upper layer colors
        # from f + up[u], by one index pattern per upper degree
        rows = [[class_of[w, z] for z in range(w + 1, width)] for w in range(width)]
        patterns: dict[int, itemgetter] = {}
        for f, layer in zip(fiber, up):
            block = patterns.get(len(layer))
            if block is None:
                at = [t for row in rows for t in (*row, *range(width - 1, width - 1 + len(layer)))]
                # itemgetter of one index gives a bare item, so one item is a slice
                block = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
                patterns[len(layer)] = block
            colors += block(f + layer)
    else:
        k = star - 1
        for c in range(0, base.n, star):
            center = up[c]
            layer = center[k:]
            colors += center[:k]
            colors.append(fiber[c][0])
            colors += layer
            for leaf in up[c + 1 : c + star]:
                colors += leaf
            colors += layer
    if len(colors) != len(product.edges):
        raise ProofInvariantError(f"assembled {len(colors)} colors for {len(product.edges)} product edges")
    report = _verify(product, colors, palette, prescribed=prescribed)
    if not report.ok:
        raise ProofInvariantError(f"assembled coloring fails its final check: {report}")
    return EdgeColoring(palette_size=palette, assignment=dict(zip(product.edges, colors)))


def extend_over_complete(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box K_{2m} to a full proper coloring
    with max_degree(G) + 2m - 1 colors."""
    _require_graph(g=g)
    _require_positive(m=m)
    _require_instance(Precoloring, pre=pre)
    bipartition(g)
    what = f"G box K_{2 * m}"
    _require_size(what, g.n, len(g.edges), 2 * m, m * (2 * m - 1))
    product = cartesian_product(g, complete(2 * m)).graph
    return _extend(g, m, product, max_degree(g) + 2 * m - 1, what, pre)


def extend_over_hypercube(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box Q_m using max_degree(G) + m colors,
    as one K_2 extension of the iterated base G box Q_{m-1}."""
    _require_graph(g=g)
    _require_positive(m=m)
    _require_instance(Precoloring, pre=pre)
    bipartition(g)
    what = f"G box Q_{m}"
    _require_size(what, g.n, len(g.edges), *_cube_size(m))
    base = g if m == 1 else cartesian_product(g, hypercube(m - 1)).graph
    product = cartesian_product(base, complete(2)).graph
    return _extend(base, 1, product, max_degree(g) + m, what, pre)


def extend_hypercube(d: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precolored induced matching of Q_d to a proper
    d-edge-coloring: the hypercube is Q_{d-1} box K_2 on the last bit, with
    the same edges as hypercube(d), which serves as the product."""
    _require_positive(d=d)
    _require_instance(Precoloring, pre=pre)
    what = f"Q_{d}"
    _require_size(what, *_cube_size(d))
    _require_palette(pre, d, what)
    base, product = _kept(
        ("Q", d), lambda: (hypercube(d - 1), hypercube(d)), lambda pair: 90 * sum(len(q.edges) for q in pair)
    )
    return _extend(base, 1, product, d, what, pre)


def _star_to_host(i: int, m: int) -> int:
    """Vertex i = u*(m+1) + s of G box K_{1,m} as a vertex of
    (G box K_{1,m-1}) box K_2: the center and leaves 1..m-1 keep their place
    in copy 0, and leaf m goes to (u, center) in copy 1. The identity at m = 1."""
    u, s = divmod(i, m + 1)
    return (u * m + (s if s < m else 0)) * 2 + (s == m)


def extend_over_star(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box K_{1,m} using max_degree(G) + m
    colors, as one K_2 extension of the base G box K_{1,m-1}, restricted.

    K_{1,m} is induced in K_{1,m-1} box K_2 (``_star_to_host``), so the
    prescription transfers, stays a distance-2 matching and extends over
    the host, whose colors the product's edges take (``_extend``); the
    host's base has maximum degree max_degree(G) + m - 1, which gives the
    palette. The map does not keep edges canonical, so every mapped entry
    is put back in canonical order.
    """
    _require_graph(g=g)
    _require_positive(m=m)
    _require_instance(Precoloring, pre=pre)
    bipartition(g)
    what = f"G box K_1,{m}"
    _require_size(what, g.n, len(g.edges), m + 1, m)
    base = g if m == 1 else cartesian_product(g, star(m - 1)).graph
    product = cartesian_product(g, star(m)).graph
    return _extend(base, 1, product, max_degree(g) + m, what, pre, star=m)
