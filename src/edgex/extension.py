"""Constructive extension of precolored distance-2 matchings.

Pipeline for G box K_{2m}: classify the precolored edges as layer or fiber
entries, drop the forced base edges and the prescribed colors from the
neighboring lists, list-color the residual base graph, replicate the base
coloring into every layer, then finish each fiber's complete graph from the
colors still free at its base vertex. Hypercube and star products reduce to
that case: G box Q_m splits as (G box Q_{m-1}) box K_2 on the least
significant bit, and G box K_{1,m} embeds into G box Q_m.

Each extend_* call builds its host product, validates the prescription once,
constructs, and verifies its output once (properness, agreement with the
prescription, palette bound) before returning; a failure of that final check
is an internal error, never user error. The cube split and the star-in-cube
map are identities of the vertex indexing, proven by the test suite rather
than checked at run time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .coloring import EdgeColoring, ListAssignment, demand_list_color, one_factorization, verify_proper
from .errors import (
    BadParameterError,
    InvalidPrecoloringError,
    ProofInvariantError,
    UnknownEdgeError,
)
from .families import (
    ProductGraph,
    cartesian_product,
    complete,
    embed_star_in_hypercube,
    hypercube,
    star,
)
from .graph import (
    Edge,
    Graph,
    bipartition,
    build_graph,
    canonical_edge,
    close_edge_pairs,
    max_degree,
)


@dataclass(frozen=True)
class Precoloring:
    """Palette size plus a partial edge -> color prescription."""

    palette_size: int
    entries: dict[Edge, int]


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


def _host_graph(p: ProductGraph | Graph) -> Graph:
    return p.graph if isinstance(p, ProductGraph) else p


def validate_precoloring(p: ProductGraph | Graph, pre: Precoloring) -> ValidationReport:
    """Check colors lie in the palette and entries form a distance-2 matching.

    Keys may name an edge in either order; entries are reported by edge, in
    insertion order among keys naming the same edge. Unknown edges and keys
    that are not pairs of ints raise UnknownEdgeError; everything else is
    reported, not raised, so callers can show all problems at once.
    """
    g = _host_graph(p)
    entries = sorted(((g.check_edge(e), c) for e, c in pre.entries.items()), key=lambda t: t[0])
    return ValidationReport(
        color_violations=tuple(
            (e, c) for e, c in entries if not (type(c) is int and 1 <= c <= pre.palette_size)
        ),
        distance_violations=tuple(close_edge_pairs(g, [e for e, _c in entries])),
    )


def require_valid(p: ProductGraph | Graph, pre: Precoloring) -> None:
    report = validate_precoloring(p, pre)
    if not report.ok:
        raise InvalidPrecoloringError(report)


def classify_precolored(p: ProductGraph, pre: Precoloring):
    """Split entries into layer entries (base edge, copy, color) and fiber
    entries (base vertex, right pair, color) from the vertex indexing."""
    return _classify(pre, p.right_order, p.graph.check_edge)


def _classify(pre: Precoloring, width: int, check_edge: Callable[[Edge], Edge]):
    """classify_precolored for a product whose right factor has `width`
    vertices; check_edge canonicalizes a key or raises UnknownEdgeError."""
    layer = []
    fiber = []
    for e in sorted(pre.entries):
        (u, w), (v, z) = (divmod(x, width) for x in check_edge(e))
        if w == z:
            layer.append(((u, v), w, pre.entries[e]))
        else:
            fiber.append((u, (w, z), pre.entries[e]))
    return layer, fiber


def reduce_instance(g: Graph, m: int, pre: Precoloring) -> ReducedInstance:
    """Build the residual base instance for a valid precoloring of G box K_{2m}.

    Each removed base edge deletes its color from the lists of the edges
    adjacent to it; each fiber prescription deletes its color at its base
    vertex. On valid input every list loses at most two colors, at most one
    per endpoint, and never drops below the endpoint-degree demand; any
    breach of that is a validation bug and raises ProofInvariantError.
    """
    if m < 1:
        raise BadParameterError("m must be >= 1")
    width = 2 * m

    def check_edge(e: Edge) -> Edge:
        # membership in G box K_2m by index arithmetic, without the product
        a, b = canonical_edge(*e)
        (u, w), (v, z) = divmod(a, width), divmod(b, width)
        if not (g.has_edge(u, v) if w == z else u == v and 0 <= u < g.n):
            raise UnknownEdgeError(f"edge {(a, b)} not in graph")
        return a, b

    palette = max_degree(g) + 2 * m - 1
    layer, fiber = _classify(pre, width, check_edge)

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
        lists=ListAssignment(lists=norm, demand=demand),
        forced_layer=forced_layer,
        fiber_prescriptions=fiber_prescriptions,
    )


def color_fibers(
    g: Graph,
    m: int,
    base_coloring: EdgeColoring,
    fiber_prescriptions: dict[int, tuple[Edge, int]],
) -> dict[Edge, int]:
    """Color every fiber K_{2m} from the colors unused at its base vertex.

    The base coloring covers all of g (forced edges included) with at most
    max_degree colors out of a palette of max_degree + 2m - 1, so at least
    2m - 1 colors remain at each vertex: exactly enough for a 1-factorization
    of K_{2m}. The class containing a prescribed pair is pinned to its
    prescribed color; the other classes take the remaining chosen colors in
    ascending class order.
    """
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
                out[canonical_edge(u * width + p, u * width + q)] = class_color[t]
    return out


def _check_extension(
    product: ProductGraph,
    pre: Precoloring,
    coloring: EdgeColoring,
) -> EdgeColoring:
    """Post-verify an extension: proper, in palette, agrees with pre."""
    report = verify_proper(product.graph, coloring)
    if not report.ok:
        raise ProofInvariantError(f"assembled coloring is improper: {report}")
    for e, c in pre.entries.items():
        got = coloring.assignment[canonical_edge(*e)]
        if got != c:
            raise ProofInvariantError(f"edge {e} got {got} instead of prescribed {c}")
    return coloring


def _require_palette(pre: Precoloring, palette: int, what: str) -> None:
    if pre.palette_size != palette:
        raise InvalidPrecoloringError(
            f"{what} requires palette {palette}, precoloring declares {pre.palette_size}"
        )


def _assemble(
    g: Graph, m: int, palette: int, red: ReducedInstance, residual: EdgeColoring
) -> dict[Edge, int]:
    """The G box K_{2m} assignment: the base coloring (residual plus forced
    edges) replicated into every layer, then every fiber completed."""
    base_assignment = dict(residual.assignment)
    base_assignment.update(red.forced_layer)
    base = EdgeColoring(palette_size=palette, assignment=base_assignment)
    width = 2 * m
    assignment: dict[Edge, int] = {}
    for (u, v), c in base_assignment.items():
        for i in range(width):
            assignment[canonical_edge(u * width + i, v * width + i)] = c
    assignment.update(color_fibers(g, m, base, red.fiber_prescriptions))
    return assignment


def extend_over_complete(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box K_{2m} to a full proper coloring
    with max_degree(G) + 2m - 1 colors."""
    if m < 1:
        raise BadParameterError("m must be >= 1")
    bipartition(g)
    product = cartesian_product(g, complete(2 * m))
    palette = max_degree(g) + 2 * m - 1
    _require_palette(pre, palette, f"G box K_{2 * m}")
    require_valid(product, pre)
    red = reduce_instance(g, m, pre)
    assignment = _assemble(g, m, palette, red, demand_list_color(red.base_residual, red.lists))
    return _check_extension(product, pre, EdgeColoring(palette_size=palette, assignment=assignment))


def _extend_split_cube(g: Graph, m: int, palette: int, pre: Precoloring) -> dict[Edge, int]:
    """Color G box Q_m, given a valid prescription in its indices, as
    (G box Q_{m-1}) box K_2: the two are the same indexed graph when the cube
    coordinate splits on its least significant bit (see families)."""
    base = g if m == 1 else cartesian_product(g, hypercube(m - 1)).graph
    bipartition(base)
    red = reduce_instance(base, 1, pre)
    return _assemble(base, 1, palette, red, demand_list_color(red.base_residual, red.lists))


def extend_over_hypercube(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box Q_m using max_degree(G) + m colors,
    as one K_2 extension of the iterated base G box Q_{m-1}."""
    if m < 1:
        raise BadParameterError("m must be >= 1")
    product = cartesian_product(g, hypercube(m))
    palette = max_degree(g) + m
    _require_palette(pre, palette, f"G box Q_{m}")
    require_valid(product, pre)
    assignment = _extend_split_cube(g, m, palette, pre)
    return _check_extension(product, pre, EdgeColoring(palette_size=palette, assignment=assignment))


def extend_hypercube(d: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precolored induced matching of Q_d to a proper
    d-edge-coloring: the hypercube is Q_{d-1} box K_2 on the last bit."""
    if d < 1:
        raise BadParameterError("d must be >= 1")
    _require_palette(pre, d, f"Q_{d}")
    return extend_over_complete(hypercube(d - 1), 1, pre)


def extend_over_star(g: Graph, m: int, pre: Precoloring) -> EdgeColoring:
    """Extend a valid precoloring of G box K_{1,m} using max_degree(G) + m
    colors by embedding it into G box Q_m and restricting the extension.

    The star sits in the cube as an induced subgraph (center at the all-zero
    string, leaf t at unit bitstring t), so the prescription transfers, stays
    a distance-2 matching, extends over the cube, and restricts back.
    """
    if m < 1:
        raise BadParameterError("m must be >= 1")
    product = cartesian_product(g, star(m))
    palette = max_degree(g) + m
    _require_palette(pre, palette, f"G box K_1,{m}")
    require_valid(product, pre)

    emb = embed_star_in_hypercube(m)
    cube_width = 1 << m
    star_width = m + 1

    def to_cube(i: int) -> int:
        u, s = divmod(i, star_width)
        return u * cube_width + emb.image(s)

    mapped = {
        canonical_edge(to_cube(e[0]), to_cube(e[1])): c for e, c in pre.entries.items()
    }
    cube = _extend_split_cube(g, m, palette, Precoloring(palette_size=palette, entries=mapped))
    assignment = {
        e: cube[canonical_edge(to_cube(e[0]), to_cube(e[1]))] for e in product.graph.edges
    }
    return _check_extension(product, pre, EdgeColoring(palette_size=palette, assignment=assignment))
