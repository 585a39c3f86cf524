"""Immutable simple undirected graphs and the local distance rule.

Vertices are dense indices 0..n-1 carrying text labels. Edges are canonical
pairs (u, v) with u < v, kept in lexicographic order so every derived
structure (adjacency, colorings, serializations) is deterministic; their
positions in that order are the only edge index a Graph has. A Graph holds
only its labels and edges: the adjacency rows, the maximum degree, each
edge's neighboring edge ids for the exact search, and whether it is the
indexed cube Q_k, are derived from the edges on first use and kept, and
edge tests and the distance rule read the edges directly, so a graph that
is only validated against and verified never builds its rows.
A graph less some of its edges takes its rows from its parent's.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadParameterError,
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    UnknownEdgeError,
    VertexIndexError,
    _require_instance,
)

Edge = tuple[int, int]

SIDE_X = "X"
SIDE_Y = "Y"


def canonical_edge(u: int, v: int) -> Edge:
    """Return the unordered pair as (min, max)."""
    return (u, v) if u < v else (v, u)


def _edge_key(e: object) -> Edge:
    """Canonicalize an edge key; UnknownEdgeError unless it is a pair of ints."""
    if not (isinstance(e, tuple) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
        raise UnknownEdgeError(f"edge key {e!r} is not a pair of ints")
    return canonical_edge(*e)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable after construction. Its edges are
    canonical and sorted: build_graph sorts them, the other builders emit
    them in order. Equality, hashing and repr read the labels and the edges
    only, never what is derived from them."""

    labels: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending, from one pass over the edges:
        every (u, x) with u < x sorts before every (x, w), so row x takes
        its lower neighbors before its upper ones. Derived on first use and
        kept; the rows hold the edge tuples' own int objects."""
        rows: list[list[int]] = [[] for _ in self.labels]
        for u, v in self.edges:
            rows[u].append(v)
            rows[v].append(u)
        return tuple(map(tuple, rows))

    @cached_property
    def _max_degree(self) -> int:
        """The longest adjacency row's length, 0 without vertices; derived
        once from the rows and kept, for max_degree."""
        return max(map(len, self.adjacency), default=0)

    @cached_property
    def _edge_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each edge's neighboring edge ids: for edge i = (u, v), the other
        edges at u, then those at v, each run ascending. Derived on first
        use and kept, so the decisions of one sweep, which share their
        product graph, derive them once."""
        at: list[list[int]] = [[] for _ in self.labels]  # vertex -> its edge ids
        for i, (u, v) in enumerate(self.edges):
            at[u].append(i)
            at[v].append(i)
        return tuple(
            tuple(j for j in at[u] + at[v] if j != i) for i, (u, v) in enumerate(self.edges)
        )

    @cached_property
    def _cube_dim(self) -> int | None:
        """k when the graph is the indexed Q_k, hypercube(k)'s vertices and
        edges (its labels play no part), else None. Any other graph is told
        apart on its counts in O(1) unless it has 2^k vertices and
        k * 2^(k-1) edges; then one scan decides: the edges are distinct,
        so they are all of Q_k's iff the ends of each differ in one bit.
        Derived on first use and kept, so a kept cube pays the scan once;
        hypercube sets it when it builds Q_k, so a cube it built pays none."""
        n = self.n
        k = n.bit_length() - 1
        if n == 0 or n != 1 << k or len(self.edges) != k * n // 2:
            return None
        return k if all(not (u ^ v) & ((u ^ v) - 1) for u, v in self.edges) else None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v, two ints in either order, are joined by an edge:
        one bisection of the sorted edges, without the adjacency rows."""
        if not (type(u) is int and type(v) is int):
            return False
        e = canonical_edge(u, v)
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def check_vertex(self, v: int) -> None:
        if not (type(v) is int and 0 <= v < self.n):
            raise VertexIndexError(f"vertex {v!r} not in 0..{self.n - 1}")

    def check_edge(self, e: Edge) -> Edge:
        """Canonicalize a key naming an edge in either order; a key that is
        not a pair of ints, or names no edge, raises UnknownEdgeError."""
        return self.edges[self._edge_id(e)]

    def _edge_id(self, e: object) -> int:
        """The id of the edge a key names in either order, by one bisection
        of the sorted edges; UnknownEdgeError as check_edge."""
        e = _edge_key(e)
        i = bisect_left(self.edges, e)
        if i == len(self.edges) or self.edges[i] != e:
            raise UnknownEdgeError(f"edge {e} not in graph")
        return i

    def incident_edges(self, v: int) -> list[Edge]:
        return [canonical_edge(v, w) for w in self.adjacency[v]]


def _require_graph(**params: object) -> None:
    """BadParameterError naming the first parameter that is not a Graph."""
    _require_instance(Graph, **params)


def _without_edges(g: Graph, removed: list[int]) -> Graph:
    """g less its edges at the ascending ids `removed`. The edges are the
    runs between them, and the adjacency rows are g's: only the rows at a
    removed edge's end are rebuilt, by filtering, so the result never
    derives its rows from scratch. They equal a fresh derivation, since
    filtering keeps a row ascending."""
    edges = g.edges
    kept: list[Edge] = []
    gone: dict[int, set[int]] = {}  # vertex -> its neighbors across removed edges
    lo = 0
    for i in removed:
        kept += edges[lo:i]
        lo = i + 1
        u, v = edges[i]
        gone.setdefault(u, set()).add(v)
        gone.setdefault(v, set()).add(u)
    kept += edges[lo:]
    rows = list(g.adjacency)
    for x, ws in gone.items():
        rows[x] = tuple(w for w in rows[x] if w not in ws)
    h = Graph(g.labels, tuple(kept))
    vars(h)["adjacency"] = tuple(rows)  # the cached_property's own slot
    return h


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex side flags; the lowest vertex of each component sits in X."""

    side: tuple[str, ...]

    def is_x(self, v: int) -> bool:
        return self.side[v] == SIDE_X


def build_graph(labels, pairs) -> Graph:
    """Build a Graph from vertex labels and unordered index pairs.

    The one checked constructor, for input from outside the library (files,
    the CLI, family constructors with user parameters). Pairs are
    canonicalized to (min, max); duplicates (in either order) and self-loops
    are rejected, and so is a pair that is not two int indices in range.
    The edges are sorted, so identical input always yields an identical
    graph. Graphs derived from Graphs (products, hypercubes, residuals) are
    emitted in canonical order by construction instead. Labels or pairs
    that are not iterable raise BadParameterError.
    """
    for name, value in (("labels", labels), ("pairs", pairs)):
        try:
            iter(value)
        except TypeError:
            raise BadParameterError(f"{name} must be iterable, got {type(value).__name__}") from None
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    seen: set[Edge] = set()
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise VertexIndexError(f"edge {pair!r} is not a pair of int vertex indices") from None
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n) or u == v:
            if type(u) is not int or type(v) is not int:
                raise VertexIndexError(f"edge {pair!r} is not a pair of int vertex indices")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            raise VertexIndexError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        e = canonical_edge(u, v)
        if e in seen:
            raise DuplicateEdgeError(f"edge {e} supplied twice")
        seen.add(e)
    return Graph(labels, tuple(sorted(seen)))


def bipartition(g: Graph) -> Bipartition:
    """2-color the vertices, or raise NotBipartiteError with an odd cycle.

    Deterministic: components are scanned in index order and the lowest
    vertex of each lands in X.
    """
    _require_graph(g=g)
    side: list[str | None] = [None] * g.n
    parent: list[int] = [-1] * g.n
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = SIDE_X
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if side[w] is None:
                    side[w] = SIDE_Y if side[u] == SIDE_X else SIDE_X
                    parent[w] = u
                    queue.append(w)
                elif side[w] == side[u]:
                    raise NotBipartiteError(_odd_cycle(parent, u, w))
    return Bipartition(side=tuple(side))


def _parity_sides(k: int) -> tuple[str, ...]:
    """bipartition(hypercube(k)).side without a BFS: vertex v sits in X iff
    it has an even number of 1 bits, so each edge, which flips one bit,
    joins the two sides; so does every edge of a subgraph of Q_k. Built by
    doubling: vertices 2^b..2^(b+1)-1 are those below 2^b with bit b set,
    so they take the swapped sides."""
    side = [SIDE_X]
    for _ in range(k):
        side += [SIDE_Y if s == SIDE_X else SIDE_X for s in side]
    return tuple(side)


def _odd_cycle(parent: list[int], u: int, w: int) -> list[int]:
    """Reconstruct the odd cycle closed by the conflicting edge (u, w)."""
    path_u = _root_path(parent, u)
    path_w = _root_path(parent, w)
    shared = 0
    while shared < min(len(path_u), len(path_w)) and path_u[shared] == path_w[shared]:
        shared += 1
    # paths from the last common ancestor plus the closing edge u-w
    return path_u[shared - 1:][::-1] + path_w[shared:]


def _root_path(parent: list[int], v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path[::-1]


def close_edge_pairs(g: Graph, edges: list[Edge]) -> list[tuple[Edge, Edge, int]]:
    """Pairs (edges[i], edges[j], d), i < j, at edge distance d < 2, by (i, j).

    Distance 0 means a shared endpoint, 1 an endpoint of one adjacent to an
    endpoint of the other; every other pair is at distance >= 2. The entries
    are indexed by endpoint once. An entry end x finds the entry ends
    adjacent to it in its run of upper edges (x, w) in g.edges, which one
    bisection locates; each such link is recorded at both ends, unless both
    ends hold the same entries, which already pair at distance 0 there. Only
    the entries at a linked or shared end then look up their partners, so a
    distance-2 matching costs one bisection and one upper run per end, and
    g's adjacency rows are never read. Edges must be canonical edges of g; a
    repeated edge pairs with itself at distance 0.
    """
    at: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for x in e:
            at.setdefault(x, []).append(i)
    g_edges = g.edges
    size = len(g_edges)
    near: dict[int, list[int]] = {}  # entry end -> the linked entry ends
    for x, here in at.items():
        k = bisect_left(g_edges, (x, x))
        while k < size:
            u, w = g_edges[k]
            if u != x:
                break
            if w in at and at[w] != here:
                near.setdefault(x, []).append(w)
                near.setdefault(w, []).append(x)
            k += 1
    touched = {i for x in near for i in at[x]}
    touched.update(i for here in at.values() if len(here) > 1 for i in here)
    pairs = []
    for i in sorted(touched):
        e = edges[i]
        dist = {j: 1 for x in e for w in near.get(x, ()) for j in at[w] if j > i}
        for x in e:
            for j in at[x]:
                if j > i:
                    dist[j] = 0
        pairs += [(e, edges[j], dist[j]) for j in sorted(dist)]
    return pairs


def max_degree(g: Graph) -> int:
    _require_graph(g=g)
    return g._max_degree

