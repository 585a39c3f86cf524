"""Standard graph families and the Cartesian product.

Product vertices (u, w) are indexed u * |V(H)| + w and labeled "u|w" from the
factor labels; that indexing is the only record of which edges are layer
copies of G and which are fiber copies of H, and serialization relies on it.
Hypercube vertices are labeled by bitstrings; vertex index i carries the
label ``format(i, "0db")`` and bit t means the bit of value 2**t. Under this
convention Q_d and Q_{d-1} x K_2 (split on the least significant bit) are the
same indexed graph, which the extension pipeline relies on. Star K_{1,m} has
its center at index 0 and leaves at 1..m, so K_{1,m-1} is K_{1,m} without
its last leaf; the extension pipeline places G x K_{1,m} inside
(G x K_{1,m-1}) x K_2 by that indexing.

Products and hypercubes are emitted with canonical edges in lexicographic
order by construction, in one pass and unchecked: their inputs are Graphs or
a checked dimension. They build no adjacency rows (a Graph derives those on
first use), and every vertex in their edge tuples is the one int object of
its index. The small families with user parameters go through build_graph,
the checked entry for outside input.

Every constructor here and the product, and every extension entry point on
its product's counts, first run ``_require_size``, the one size check. Each
family's integer parameters pass ``errors._require_at_least``, the one
bounds check, before that.

What a process keeps across calls, extend_hypercube's cube pairs and the
oracle's sweep states, it keeps in one store (``_kept``) under one bound.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from .errors import BadParameterError, _require_at_least, _shown
from .graph import Edge, Graph, _require_graph, build_graph

MAX_PRODUCT_EDGES = 2**21  # in vertices or edges: Q_17 (1,114,112 edges) is built, Q_18 (2,359,296) is not
# memo states times product edges in explore_bipartite_factor's count of
# distance-2 matchings: a state keeps an edge mask, so this bounds the memo's
# mask bits; C_10 x K_3,3 needs 45,374 states of 150 edges (6.8 million),
# P_2000 x K_1,1 7,996 of 5,998 (48 million)
MAX_MATCHING_MEMO = 2**26
# the bound on the estimated bytes of every value _kept keeps
_KEPT_BYTES = 8 << 20

# key -> (kept value, its estimated bytes), least recently used first
_kept_values: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()


def _kept(key: Hashable, build: Callable[[], object], size: Callable[[object], int]) -> object:
    """The value kept under key, else build()'s, kept unless its estimate
    size(value) alone passes _KEPT_BYTES; the least recently used values
    are then dropped until the rest fit."""
    hit = _kept_values.get(key)
    if hit is not None:
        _kept_values.move_to_end(key)
        return hit[0]
    value = build()
    if (estimate := size(value)) <= _KEPT_BYTES:
        _kept_values[key] = (value, estimate)
        while sum(est for _value, est in _kept_values.values()) > _KEPT_BYTES:
            _kept_values.popitem(last=False)
    return value


def _product_edges(g_order: int, g_edges: int, h_order: int, h_edges: int) -> int:
    """|E(G box H)| from the orders and sizes of G and H."""
    return g_edges * h_order + g_order * h_edges


def _cube_size(d: int) -> tuple[int, int]:
    """|V(Q_d)| and |E(Q_d)| = d * 2**(d-1). Past the bit length of the size
    limit Q_d alone has more edges than the limit, so such a d is rejected
    before any power of two is formed."""
    if d > MAX_PRODUCT_EDGES.bit_length():
        raise BadParameterError(f"Q_{_shown(d)} has more than {MAX_PRODUCT_EDGES} edges, past the size limit")
    return 1 << d, d * (1 << d) // 2


def _require_size(what: str, g_order: int, g_edges: int, h_order: int = 1, h_edges: int = 0) -> None:
    """BadParameterError, before anything is allocated, when G box H (G itself
    for the default H = K_1), or H alone for an empty G, would have more than
    MAX_PRODUCT_EDGES vertices or edges."""
    order = max(g_order * h_order, h_order)
    edges = max(_product_edges(g_order, g_edges, h_order, h_edges), h_edges)
    if max(order, edges) > MAX_PRODUCT_EDGES:
        raise BadParameterError(
            f"{what} would have {_shown(order)} vertices and {_shown(edges)} edges,"
            f" past the limit of {MAX_PRODUCT_EDGES}"
        )


@dataclass(frozen=True)
class ProductGraph:
    """G box H with vertex (u, w) at index u * right_order + w."""

    graph: Graph
    left_order: int
    right_order: int

    def factors(self, i: int) -> tuple[int, int]:
        """Split product vertex index i into its (left, right) coordinates."""
        return divmod(i, self.right_order)

    def vertex(self, u: int, w: int) -> int:
        return u * self.right_order + w


def _as_graph(p: ProductGraph | Graph) -> Graph:
    return p.graph if isinstance(p, ProductGraph) else p


def complete(n: int) -> Graph:
    _require_at_least(1, n=n)
    _require_size(f"K_{_shown(n)}", n, n * (n - 1) // 2)
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(n: int, m: int) -> Graph:
    _require_at_least(1, n=n, m=m)
    _require_size(f"K_{_shown(n)},{_shown(m)}", n + m, n * m)
    labels = [f"x{i}" for i in range(n)] + [f"y{j}" for j in range(m)]
    return build_graph(labels, [(i, n + j) for i in range(n) for j in range(m)])


def star(m: int) -> Graph:
    """K_{1,m}: center index 0, leaves 1..m."""
    _require_at_least(1, m=m)
    _require_size(f"K_1,{_shown(m)}", m + 1, m)
    labels = ["c"] + [f"l{t}" for t in range(1, m + 1)]
    return build_graph(labels, [(0, t) for t in range(1, m + 1)])


def path(n: int) -> Graph:
    _require_at_least(1, n=n)
    _require_size(f"P_{_shown(n)}", n, n - 1)
    labels = [f"p{i}" for i in range(n)]
    return build_graph(labels, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require_at_least(3, n=n)
    _require_size(f"C_{_shown(n)}", n, n)
    labels = [f"c{i}" for i in range(n)]
    return build_graph(labels, [(i, (i + 1) % n) for i in range(n)])


def hypercube(d: int) -> Graph:
    """Q_d with vertices labeled by d-bit strings (empty label for d = 0).

    Built by doubling: Q_{b+1} is two copies of Q_b, the vertices with bit
    b clear and then those with it set. Each vertex's upper edges set one
    clear bit, lowest first, so a vertex of the lower copy keeps its
    offsets and gains 2**b, and one of the upper copy keeps its offsets.
    The edges then come out sorted, and both ends of each are taken from
    one list of the vertex ints. The result is Q_d by construction, so its
    ``_cube_dim`` is set to d, and no caller scans its edges for it."""
    _require_at_least(0, d=d)
    _require_size(f"Q_{_shown(d)}", *_cube_size(d))
    labels = [""]
    up: list[list[int]] = [[]]  # vertex -> its upper neighbors' offsets
    for b in range(d):
        labels = ["0" + s for s in labels] + ["1" + s for s in labels]
        up = [u + [1 << b] for u in up] + up
    ids = list(range(1 << d))
    edges = tuple((i, ids[i + o]) for i, offsets in zip(ids, up) for o in offsets)
    g = Graph(tuple(labels), edges)
    vars(g)["_cube_dim"] = d  # the cached_property's own slot
    return g


def spider(legs: int, leg_length: int) -> Graph:
    """Center index 0 with `legs` paths of `leg_length` vertices hanging off it.

    With leg_length >= 2 the center is a maximum-degree vertex not adjacent
    to any leaf, the canonical host for non-extendable instances.
    """
    _require_at_least(1, legs=legs, leg_length=leg_length)
    what = f"spider:{_shown(legs)},{_shown(leg_length)}"
    _require_size(what, 1 + legs * leg_length, legs * leg_length)
    labels = ["c"] + [f"s{t}.{k}" for t in range(legs) for k in range(1, leg_length + 1)]
    pairs = []
    for t in range(legs):
        first = 1 + t * leg_length
        pairs.append((0, first))
        pairs.extend((first + k, first + k + 1) for k in range(leg_length - 1))
    return build_graph(labels, pairs)


_FAMILIES = {f.__name__: f for f in (complete, complete_bipartite, star, path, cycle, hypercube, spider)}


def standard_family(kind: str, *params: int) -> Graph:
    """Dispatch on a family name; used by the CLI's `build` subcommand. A
    family takes as many parameters as its function's signature names."""
    if not isinstance(kind, str):
        raise BadParameterError(f"kind must be a str, got {type(kind).__name__}")
    if kind not in _FAMILIES:
        raise BadParameterError(f"unknown family {kind!r}; expected one of {sorted(_FAMILIES)}")
    build = _FAMILIES[kind]
    arity = len(inspect.signature(build).parameters)
    if len(params) != arity:
        raise BadParameterError(f"family {kind!r} takes {arity} parameter(s)")
    return build(*params)


def cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """G box H: a layer copy of G for every vertex of H (edges (u,w)-(v,w))
    and a fiber copy of H for every vertex of G (edges (u,w)-(u,z)).

    One pass in product index order emits canonical edges already sorted,
    without build_graph's checks and without adjacency rows. Vertex
    a = u*k + w has its upper fiber edges at offsets z - w, z > w in H,
    then its upper layer edges at offsets (v - u)*k, v > u in G: every
    fiber end lies below (u+1)*k and every layer end at or above it. The
    fiber offsets are the same for every u and the layer offsets for every
    w. Both ends of each edge are taken from one list of the product's
    vertex ints.
    """
    _require_graph(g=g, h=h)
    _require_size("G box H", g.n, len(g.edges), h.n, len(h.edges))
    k = h.n
    ids = list(range(g.n * k))
    labels = tuple(f"{lu}|{lw}" for lu in g.labels for lw in h.labels)
    fiber = [[z - w for z in ns if z > w] for w, ns in enumerate(h.adjacency)]
    edges: list[Edge] = []
    for u, ns in enumerate(g.adjacency):
        s = u * k
        layer = [(v - u) * k for v in ns if v > u]
        edges += [(ids[a], ids[a + o]) for a, up in zip(range(s, s + k), [f + layer for f in fiber]) for o in up]
    return ProductGraph(graph=Graph(labels, tuple(edges)), left_order=g.n, right_order=k)

