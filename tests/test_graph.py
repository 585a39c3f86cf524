import math
import random
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgex import (
    EdgeColoring,
    Graph,
    Precoloring,
    bipartition,
    build_graph,
    canonical_edge,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    explore_bipartite_factor,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    hypercube,
    max_degree,
    path,
    reduce_instance,
    spider,
    standard_family,
    star,
    validate_precoloring,
    verify_proper,
)
from edgex.errors import (
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    UnknownEdgeError,
    VertexIndexError,
)
from edgex.graph import _parity_sides, close_edge_pairs
from helpers import (
    adjacent_edges,
    connected_bipartite_catalog,
    distances_from,
    edge_distance,
    random_valid_precoloring,
    reference_cube_dim,
    roadmap_cube_instance,
    small_bipartite_graphs,
    vertex_distance,
    x_vertices,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph([f"v{i}" for i in range(n)], edges)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(["a", "b"], [(0, 1)])
        assert g.n == 2
        assert g.edges == ((0, 1),)

    def test_p3_degrees(self):
        g = build_graph(["a", "b", "c"], [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(["a"], [(0, 0)])

    def test_duplicate_rejected_even_reversed(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(["a", "b"], [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(VertexIndexError):
            build_graph(["a", "b"], [(0, 2)])

    @pytest.mark.parametrize(
        "pairs",
        [[(0, "1")], [(0.0, 1)], [(0, 1, 2)], [0], [(True, 2)]],
        ids=["str-vertex", "float-vertex", "triple", "bare-int", "bool-vertex"],
    )
    def test_non_int_vertex_pair_rejected(self, pairs):
        with pytest.raises(VertexIndexError):
            build_graph("abc", pairs)

    def test_out_of_range_self_loop_is_still_a_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph("ab", [(5, 5)])

    def test_unordered_input_canonicalized(self):
        g = build_graph(["a", "b", "c"], [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    @given(graphs())
    def test_deterministic(self, g):
        again = build_graph(g.labels, list(g.edges))
        assert again == g


class TestBipartition:
    def test_c4_alternates(self):
        g = build_graph("abcd", [(0, 1), (1, 2), (2, 3), (0, 3)])
        sides = bipartition(g)
        assert x_vertices(sides) == [0, 2]

    def test_c5_odd_cycle_witness(self):
        g = build_graph("abcde", [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        with pytest.raises(NotBipartiteError) as exc:
            bipartition(g)
        cycle = exc.value.odd_cycle
        assert len(cycle) == 5
        assert len(set(cycle)) == 5
        # consecutive vertices (cyclically) really are edges
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(a, b)

    def test_q3_splits_by_bit_parity(self):
        g = hypercube(3)
        sides = bipartition(g)
        expected = [v for v in range(8) if bin(v).count("1") % 2 == 0]
        assert x_vertices(sides) == expected

    def test_lowest_vertex_per_component_is_x(self):
        g = build_graph("abcd", [(0, 1), (2, 3)])
        sides = bipartition(g)
        assert sides.is_x(0) and sides.is_x(2)

    @given(graphs())
    def test_no_monochromatic_edge(self, g):
        try:
            sides = bipartition(g)
        except NotBipartiteError:
            return
        for (u, v) in g.edges:
            assert sides.side[u] != sides.side[v]


class TestVertexDistance:
    def test_path_end_to_end(self):
        assert vertex_distance(path(3), 0, 2) == 2

    def test_q3_matches_hamming(self):
        g = hypercube(3)
        for u in range(8):
            for v in range(8):
                assert vertex_distance(g, u, v) == bin(u ^ v).count("1")

    def test_disconnected_is_infinite(self):
        g = build_graph("abcd", [(0, 1), (2, 3)])
        assert vertex_distance(g, 0, 3) == math.inf

    def test_self_distance_zero(self):
        assert vertex_distance(path(2), 1, 1) == 0

    def test_bad_vertex(self):
        with pytest.raises(VertexIndexError):
            vertex_distance(path(2), 0, 5)

    @given(graphs(max_n=6))
    @settings(max_examples=50)
    def test_triangle_inequality(self, g):
        dists = [distances_from(g, v) for v in range(g.n)]
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    assert dists[a][b] <= dists[a][c] + dists[c][b]


class TestEdgeDistance:
    def test_shared_endpoint_is_zero(self):
        g = path(3)
        assert edge_distance(g, (0, 1), (1, 2)) == 0

    def test_p5_outer_edges(self):
        g = path(5)
        assert edge_distance(g, (0, 1), (3, 4)) == 2

    def test_same_edge(self):
        g = path(2)
        assert edge_distance(g, (0, 1), (0, 1)) == 0

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdgeError):
            edge_distance(path(3), (0, 1), (0, 2))

    @given(graphs(max_n=6))
    @settings(max_examples=50)
    def test_symmetric_and_zero_iff_adjacent(self, g):
        for e in g.edges:
            for f in g.edges:
                d = edge_distance(g, e, f)
                assert d == edge_distance(g, f, e)
                assert (d == 0) == adjacent_edges(e, f)


class TestMaxDegree:
    def test_k2(self):
        assert max_degree(path(2)) == 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hypercube_regular(self, d):
        g = hypercube(d)
        assert max_degree(g) == d
        assert all(g.degree(v) == d for v in range(g.n))

    def test_edgeless(self):
        assert max_degree(build_graph("abcde", [])) == 0


def test_canonical_edge():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


class TestCheckEdge:
    @pytest.mark.parametrize("key", [(0, 1, 2), ("a", 1), (0,), (0.0, 1), (True, 1), [0, 1], 1])
    def test_key_must_be_a_pair_of_ints(self, key):
        with pytest.raises(UnknownEdgeError, match="not a pair of ints"):
            path(3).check_edge(key)

    @pytest.mark.parametrize("key", [(-1, 2), (2, -1), (-4, -1), (3, 4), (0, 9), (0, 2), (1, 3), (1, 1)])
    def test_negative_out_of_range_and_non_edges(self, key):
        # path(4): a negative index must not wrap around to the last vertex
        with pytest.raises(UnknownEdgeError, match="not in graph"):
            path(4).check_edge(key)

    @pytest.mark.parametrize("key", [(0, 1), (1, 0), (3, 2)])
    def test_edge_in_either_order(self, key):
        assert path(4).check_edge(key) == canonical_edge(*key)


class TestHasEdge:
    """Membership bisects the sorted edges; it answers as the edge list
    does for every pair of ints, and False for anything else, without
    deriving the adjacency rows."""

    @pytest.mark.parametrize(
        "g",
        [path(4), hypercube(3), build_graph("abcde", [(0, 4), (1, 2), (2, 4)]), build_graph("ab", [])],
        ids=["path", "cube", "sparse", "edgeless"],
    )
    def test_matches_the_edge_list(self, g):
        # negative and out-of-range indices included: in path(4),
        # adjacency[-1] is vertex 3's row, which holds 2
        edges = set(g.edges)
        span = range(-g.n - 2, g.n + 3)
        for u in span:
            for v in span:
                assert g.has_edge(u, v) == (canonical_edge(u, v) in edges), (u, v)
        assert "adjacency" not in vars(g)

    def test_matches_the_edge_list_on_the_catalog(self):
        # both orders, negative and out-of-range indices, on every small
        # bipartite graph, disconnected and edgeless ones included
        for g in small_bipartite_graphs(4):
            edges = set(g.edges)
            span = range(-2, g.n + 2)
            assert all(g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges) for u in span for v in span)
            assert "adjacency" not in vars(g)

    @pytest.mark.parametrize(
        "u, v",
        [(1.0, 2), (1, 2.0), (True, 2), ("1", 2), (1, "2"), (None, 0), (0, None), (False, True), (0.0, 1.0), (0, True)],
    )
    def test_non_int_is_no_edge(self, u, v):
        # (0, 1) and (1, 2) are edges of path(4): a bool or a float naming
        # them must still answer False
        assert not path(4).has_edge(u, v)


def _bfs_close_pairs(g, edges):
    """What close_edge_pairs must return, from the BFS edge distances."""
    return [(e, f, d) for e, f in combinations(edges, 2) if (d := edge_distance(g, e, f)) < 2]


class TestCloseEdgePairs:
    """The local distance rule against BFS distances: pairs by entry
    position, a repeated edge paired with itself at distance 0, nothing
    across components, and the adjacency rows never derived."""

    def test_agrees_with_bfs_on_the_catalog(self):
        for index, g in enumerate(small_bipartite_graphs(5)):
            rng = random.Random(index)
            entries = rng.sample(g.edges, rng.randint(0, len(g.edges)))  # in any order
            if entries and rng.random() < 0.5:
                entries.insert(rng.randrange(len(entries) + 1), rng.choice(entries))
            got = close_edge_pairs(g, entries)
            assert "adjacency" not in vars(g)
            assert got == _bfs_close_pairs(g, entries), (g.edges, entries)

    @given(graphs(), st.data())
    @settings(max_examples=200)
    def test_agrees_with_bfs_on_any_graph(self, g, data):
        # odd cycles too; entries repeat and come in any order
        entries = data.draw(st.lists(st.sampled_from(g.edges))) if g.edges else []
        assert close_edge_pairs(g, entries) == _bfs_close_pairs(g, entries)

    def test_agrees_with_bfs_on_a_product(self):
        product = cartesian_product(cycle(6), complete(4)).graph
        rng = random.Random(6)
        for size in (0, 1, 5, 20, len(product.edges)):
            entries = rng.sample(product.edges, size)
            assert close_edge_pairs(product, entries) == _bfs_close_pairs(product, entries)

    def test_repeated_edge_pairs_with_itself(self):
        g = path(4)
        assert close_edge_pairs(g, [(1, 2), (1, 2)]) == [((1, 2), (1, 2), 0)]
        assert close_edge_pairs(g, [(0, 1), (2, 3), (0, 1)]) == [
            ((0, 1), (2, 3), 1),
            ((0, 1), (0, 1), 0),
            ((2, 3), (0, 1), 1),
        ]

    def test_pairs_follow_entry_positions(self):
        g = path(5)
        assert close_edge_pairs(g, [(3, 4), (2, 3), (0, 1)]) == [((3, 4), (2, 3), 0), ((2, 3), (0, 1), 1)]

    def test_disconnected(self):
        g = build_graph("abcdefg", [(0, 1), (1, 2), (3, 4), (5, 6)])
        assert close_edge_pairs(g, [(0, 1), (3, 4), (5, 6)]) == []
        assert close_edge_pairs(g, [(5, 6), (1, 2), (3, 4), (0, 1)]) == [((1, 2), (0, 1), 0)]
        assert "adjacency" not in vars(g)


def _independent_rows(g):
    near = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        near[u].add(v)
        near[v].add(u)
    return tuple(tuple(sorted(near[v])) for v in range(g.n))


class TestDerivedAdjacency:
    """A Graph holds its labels and edges; every builder's rows, derived on
    first use, are the sorted neighbor sets of its edges."""

    @given(graphs())
    def test_build_graph(self, g):
        assert "adjacency" not in vars(g)
        assert g.adjacency == _independent_rows(g)
        assert vars(g)["adjacency"] is g.adjacency

    @pytest.mark.parametrize(
        "kind, params",
        [("complete", (5,)), ("complete_bipartite", (3, 4)), ("star", (5,)), ("path", (6,)), ("cycle", (7,)),
         ("hypercube", (0,)), ("hypercube", (1,)), ("hypercube", (9,)), ("spider", (4, 3))],
    )
    def test_families(self, kind, params):
        g = standard_family(kind, *params)
        assert g.adjacency == _independent_rows(g)

    def test_cartesian_product(self):
        catalog = connected_bipartite_catalog(4) + [build_graph("ab", []), hypercube(3)]
        for g in catalog:
            for h in catalog:
                p = cartesian_product(g, h).graph
                assert p.adjacency == _independent_rows(p)

    def test_reduce_instance_residual(self):
        rng = random.Random(3)
        for g in connected_bipartite_catalog(6):
            for m in (1, 2):
                product = cartesian_product(g, complete(2 * m)).graph
                pre = random_valid_precoloring(rng, product, max_degree(g) + 2 * m - 1, 4)
                residual = reduce_instance(g, m, pre).base_residual
                assert residual.adjacency == _independent_rows(residual)

    def test_validation_and_verification_leave_the_product_rows_underived(self):
        g = cycle(8)
        product = cartesian_product(g, complete(4)).graph
        pre = random_valid_precoloring(random.Random(8), product, 5, 6)
        col = extend_over_complete(g, 2, pre)
        fresh = cartesian_product(g, complete(4)).graph
        assert validate_precoloring(fresh, pre).ok
        assert verify_proper(fresh, col, prescribed=pre.entries).ok
        assert "adjacency" not in vars(fresh)
        # an invalid prescription and a conflict are still reported
        e, f = fresh.edges[:2]
        assert not validate_precoloring(fresh, Precoloring(5, {e: 1, f: 2})).ok
        assert "adjacency" not in vars(fresh)
        assert not verify_proper(fresh, EdgeColoring(5, {**col.assignment, e: col.assignment[f]})).ok


def _independent_neighbors(g):
    """Each edge's neighbors by a scan of all edges per end: the other edges
    at its first end, then those at its second, each ascending."""
    return tuple(
        tuple(j for x in e for j, f in enumerate(g.edges) if x in f and j != i) for i, e in enumerate(g.edges)
    )


@pytest.fixture
def neighbor_derivations(monkeypatch):
    """The graphs whose edge neighbor lists the test derives, in order."""
    derive = Graph.__dict__["_edge_neighbors"].func
    derived = []

    def counted(g):
        derived.append(g)
        return derive(g)

    prop = cached_property(counted)
    prop.__set_name__(Graph, "_edge_neighbors")
    monkeypatch.setattr(Graph, "_edge_neighbors", prop)
    return derived


class TestEdgeNeighbors:
    """The search's per-edge neighbor ids: derived on first use and kept,
    equal to a scan of the edges, and outside equality, hashing and repr."""

    @given(graphs())
    def test_build_graph(self, g):
        assert "_edge_neighbors" not in vars(g)
        assert g._edge_neighbors == _independent_neighbors(g)
        assert vars(g)["_edge_neighbors"] is g._edge_neighbors

    def test_catalog_and_edgeless(self):
        edgeless = [build_graph([], []), build_graph("abc", [])]
        for g in connected_bipartite_catalog(6) + edgeless + [hypercube(4), complete(6)]:
            assert g._edge_neighbors == _independent_neighbors(g)

    def test_reduce_instance_residual(self):
        rng = random.Random(5)
        for g in connected_bipartite_catalog(6):
            for m in (1, 2):
                product = cartesian_product(g, complete(2 * m)).graph
                pre = random_valid_precoloring(rng, product, max_degree(g) + 2 * m - 1, 4)
                residual = reduce_instance(g, m, pre).base_residual
                assert residual._edge_neighbors == _independent_neighbors(residual)

    def test_equality_hash_and_repr(self):
        g, fresh = cycle(6), cycle(6)
        assert g._edge_neighbors and "_edge_neighbors" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert "_edge_neighbors" not in repr(g)
        assert g != Graph(g.labels, g.edges[1:])

    def test_one_derivation_per_sweep(self, neighbor_derivations):
        report = explore_bipartite_factor(cycle(6), 3, 2, 20, 1)
        assert report.instances == 20
        assert neighbor_derivations == [cartesian_product(cycle(6), complete_bipartite(3, 2)).graph]

    def test_extend_entry_points_derive_none(self, neighbor_derivations):
        rng = random.Random(7)
        g = spider(3, 2)
        _q, pre = roadmap_cube_instance(6)
        assert extend_hypercube(6, pre) is not None
        for m in (1, 2):
            product = cartesian_product(g, complete(2 * m)).graph
            pre = random_valid_precoloring(rng, product, max_degree(g) + 2 * m - 1, 6)
            assert extend_over_complete(g, m, pre) is not None
        for factor, extend in ((hypercube, extend_over_hypercube), (star, extend_over_star)):
            for m in (2, 3):
                product = cartesian_product(g, factor(m)).graph
                pre = random_valid_precoloring(rng, product, max_degree(g) + m, 6)
                assert extend(g, m, pre) is not None
        assert neighbor_derivations == []


class TestCubeDim:
    """Whether a graph is the indexed Q_k: derived on first use and kept,
    equal to a comparison with reference_hypercube, and outside equality."""

    @pytest.mark.parametrize("k", range(11))
    def test_hypercubes(self, k):
        q = hypercube(k)
        scanned = build_graph(q.labels, q.edges)  # hypercube sets its own; an equal graph derives it
        assert "_cube_dim" not in vars(scanned)
        assert scanned._cube_dim == k and vars(scanned)["_cube_dim"] == k
        assert q == hypercube(k) and "_cube_dim" not in repr(q)
        assert _parity_sides(k) == bipartition(q).side

    @given(graphs())
    @example(path(2))
    @example(hypercube(2))
    @example(hypercube(3))
    def test_matches_the_reference(self, g):
        assert g._cube_dim == reference_cube_dim(g)

    def test_products_and_near_misses(self):
        assert cartesian_product(hypercube(3), hypercube(2)).graph._cube_dim == 5
        assert cartesian_product(hypercube(3), complete(2)).graph._cube_dim == 4
        q = hypercube(4)
        # Q_4's counts, one edge joining two vertices two bits apart
        assert build_graph(q.labels, [*q.edges[1:], (0, 3)])._cube_dim is None
        assert cycle(4)._cube_dim is None  # Q_2's counts in another indexing
        assert build_graph([], [])._cube_dim is None
        assert Graph(q.labels, q.edges[1:])._cube_dim is None
        residual = reduce_instance(hypercube(3), 1, Precoloring(4, {(0, 2): 1})).base_residual
        assert residual._cube_dim is None


def test_small_bipartite_catalog_is_bipartite():
    for g in small_bipartite_graphs(4):
        sides = bipartition(g)
        for (u, v) in g.edges:
            assert sides.side[u] != sides.side[v]
