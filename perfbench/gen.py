"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: graphs are built from edge
lists with ``edgex.build_graph`` (or the family constructors), but product
edge sets, adjacency and the maximal induced matchings are computed locally
from the documented index convention (product vertex ``(u, w)`` has index
``u * |V(H)| + w``; hypercube vertex ``i`` is the bitstring of ``i``). The
program under test never sees anything but the finished inputs.
"""

from __future__ import annotations

import random


def canonical(u, v):
    return (u, v) if u < v else (v, u)


def hypercube_edges(d):
    n = 1 << d
    return n, [(i, i | (1 << b)) for i in range(n) for b in range(d) if not i & (1 << b)]


def complete_edges(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(m):
    return m + 1, [(0, t) for t in range(1, m + 1)]


def complete_bipartite_edges(n, m):
    return n + m, [(i, n + j) for i in range(n) for j in range(m)]


def product_edges(g_n, g_edges, h_n, h_edges):
    """Edges of G box H under the ``u * |V(H)| + w`` index convention."""
    out = [canonical(u * h_n + w, v * h_n + w) for (u, v) in g_edges for w in range(h_n)]
    out.extend(canonical(u * h_n + w, u * h_n + z) for u in range(g_n) for (w, z) in h_edges)
    return g_n * h_n, out


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def greedy_induced_matching(rng, edges, adj):
    """A maximal induced (distance-2) matching grown over shuffled edges.

    An edge joins when neither endpoint is a chosen endpoint or adjacent
    to one, which is exactly edge distance >= 2 to every chosen edge.
    """
    order = list(edges)
    rng.shuffle(order)
    near = set()
    chosen = []
    for u, v in order:
        if u in near or v in near:
            continue
        chosen.append((u, v))
        near.update((u, v))
        near.update(adj[u])
        near.update(adj[v])
    return chosen


def random_connected_bipartite(rng, n, max_deg, extra):
    """A connected bipartite graph on n vertices with degrees <= max_deg.

    A random tree fixes the sides (each vertex hangs off an earlier one with
    spare degree and takes the other side); then up to ``extra`` cross-side
    edges are added between vertices that still have spare degree.
    """
    side = [0] * n
    edges = set()
    deg = [0] * n
    for v in range(1, n):
        # keep a spare degree on tree vertices where possible, for the extras
        hosts = [u for u in range(v) if deg[u] < max_deg - 1] or [u for u in range(v) if deg[u] < max_deg]
        u = rng.choice(hosts)
        side[v] = 1 - side[u]
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    attempts = 4 * extra
    while extra and attempts:
        attempts -= 1
        u, v = rng.randrange(n), rng.randrange(n)
        e = canonical(u, v)
        if side[u] == side[v] or e in edges or deg[u] >= max_deg or deg[v] >= max_deg:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
        extra -= 1
    return n, sorted(edges)


def spider_edges(legs, leg_length):
    """Same indexing as ``edgex.spider``: centre 0, leg t holds 1+t*L .. (t+1)*L."""
    edges = []
    for t in range(legs):
        first = 1 + t * leg_length
        edges.append((0, first))
        edges.extend((first + k, first + k + 1) for k in range(leg_length - 1))
    return 1 + legs * leg_length, edges


def cycle_edges(n):
    return n, sorted(canonical(i, (i + 1) % n) for i in range(n))


def path_edges(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def max_degree(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def sub_rng(seed, *parts):
    """An independent stream per (seed, parts) so adding an instance class
    never reshuffles the others."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))
