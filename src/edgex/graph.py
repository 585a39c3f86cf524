"""Immutable simple undirected graphs and the local distance rule.

Vertices are dense indices 0..n-1 carrying text labels. Edges are canonical
pairs (u, v) with u < v, kept in lexicographic order so every derived
structure (adjacency, colorings, serializations) is deterministic; their
positions in that order are the only edge index a Graph has.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .errors import (
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    UnknownEdgeError,
    VertexIndexError,
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
    """Simple undirected graph; immutable after construction. Adjacency
    rows are sorted: build_graph checks it, the other builders keep it."""

    labels: tuple[str, ...]
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        # a negative u would index a row from the end
        if not (type(u) is int and type(v) is int and 0 <= u < self.n):
            return False
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def check_vertex(self, v: int) -> None:
        if not (type(v) is int and 0 <= v < self.n):
            raise VertexIndexError(f"vertex {v!r} not in 0..{self.n - 1}")

    def check_edge(self, e: Edge) -> Edge:
        """Canonicalize a key naming an edge in either order; a key that is
        not a pair of ints, or names no edge, raises UnknownEdgeError."""
        e = _edge_key(e)
        if not self.has_edge(*e):
            raise UnknownEdgeError(f"edge {e} not in graph")
        return e

    def incident_edges(self, v: int) -> list[Edge]:
        return [canonical_edge(v, w) for w in self.adjacency[v]]


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
    Adjacency lists come out sorted, so identical input always yields an
    identical graph. Graphs derived from Graphs (products, hypercubes,
    residuals) are emitted in canonical order by construction instead.
    """
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
    edges = tuple(sorted(seen))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return Graph(labels, edges, adjacency)


def bipartition(g: Graph) -> Bipartition:
    """2-color the vertices, or raise NotBipartiteError with an odd cycle.

    Deterministic: components are scanned in index order and the lowest
    vertex of each lands in X.
    """
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
    are indexed by endpoint once; each entry then looks up the entries at
    its ends and at every neighbor of its ends, in O(sum of endpoint degrees
    + pairs), without a BFS. Edges must be canonical edges of g; a repeated
    edge pairs with itself at distance 0.
    """
    at: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for x in e:
            at.setdefault(x, []).append(i)
    adjacency = g.adjacency
    pairs = []
    for i, e in enumerate(edges):
        dist = {j: 1 for x in e for w in adjacency[x] for j in at.get(w, ()) if j > i}
        dist.update((j, 0) for x in e for j in at[x] if j > i)
        pairs.extend((e, edges[j], dist[j]) for j in sorted(dist))
    return pairs


def max_degree(g: Graph) -> int:
    return max((len(ns) for ns in g.adjacency), default=0)

