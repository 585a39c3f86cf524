import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgex import (
    Precoloring,
    build_graph,
    canonical_edge,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    extend_over_star,
    hypercube,
    max_degree,
    one_factorization,
    path,
    spider,
    standard_family,
    star,
)
from edgex.errors import BadParameterError
from edgex.extension import _star_to_host

from helpers import (
    connected_bipartite_catalog,
    edge_distance,
    random_connected_bipartite,
    random_distance2_matching,
    reference_cartesian_product,
    reference_hypercube,
)


@st.composite
def factors(draw, max_n=6):
    """Any simple graph on 1..max_n vertices, edgeless ones included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph([f"a{i}" for i in range(n)], edges)


class TestStandardFamilies:
    def test_hypercube3_counts(self):
        g = hypercube(3)
        assert g.n == 8
        assert len(g.edges) == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_hypercube_labels_are_bitstrings(self):
        g = hypercube(2)
        assert g.labels == ("00", "01", "10", "11")

    def test_star4(self):
        g = star(4)
        assert g.n == 5
        assert max_degree(g) == 4
        assert g.degree(0) == 4

    def test_spider_3_2(self):
        g = spider(3, 2)
        assert g.n == 7
        assert g.degree(0) == 3
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        assert all(not g.has_edge(0, leaf) for leaf in leaves)

    def test_spider_leg_structure(self):
        g = spider(2, 3)
        # center-1-2-3 and center-4-5-6
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)
        assert g.has_edge(0, 4) and g.has_edge(4, 5) and g.has_edge(5, 6)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and len(g.edges) == 6

    def test_cycle_and_path(self):
        assert len(cycle(5).edges) == 5
        assert len(path(5).edges) == 4

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: cycle(2),
            lambda: star(0),
            lambda: hypercube(-1),
            lambda: spider(0, 1),
            lambda: complete(0),
            # parameters that are not ints (a bool is not)
            lambda: complete(2.5),
            lambda: complete_bipartite(2, True),
            lambda: star(True),
            lambda: path(True),
            lambda: cycle(5.0),
            lambda: hypercube("3"),
            lambda: hypercube(True),
            lambda: spider(2, 1.5),
            lambda: one_factorization(4.0),
            # an empty side or an empty path
            lambda: complete_bipartite(0, 1),
            lambda: complete_bipartite(1, 0),
            lambda: path(0),
        ],
    )
    def test_bad_parameters(self, bad):
        with pytest.raises(BadParameterError):
            bad()

    def test_dispatch(self):
        assert standard_family("hypercube", 3).n == 8
        assert standard_family("spider", 3, 2).n == 7
        with pytest.raises(BadParameterError):
            standard_family("petersen", 1)
        with pytest.raises(BadParameterError):
            standard_family("star")


class TestCartesianProduct:
    def test_k2_box_k2_is_c4(self):
        p = cartesian_product(complete(2), complete(2))
        assert p.graph.n == 4
        assert len(p.graph.edges) == 4
        assert all(p.graph.degree(v) == 2 for v in range(4))

    def test_edge_count_formula(self):
        p = cartesian_product(path(3), complete(3))
        assert len(p.graph.edges) == 3 * 3 + 3 * 2

    def test_edgeless_left_factor(self):
        g = build_graph("abc", [])
        h = complete(4)
        p = cartesian_product(g, h)
        assert len(p.graph.edges) == 18
        assert set(p.graph.edges) == {
            (p.vertex(u, w), p.vertex(u, z)) for u in range(g.n) for (w, z) in h.edges
        }

    def test_degree_sum_rule(self):
        g, h = path(4), star(3)
        p = cartesian_product(g, h)
        for i in range(p.graph.n):
            u, w = p.factors(i)
            assert p.graph.degree(i) == g.degree(u) + h.degree(w)

    def test_layer_fiber_split(self):
        g, h = path(3), complete(2)
        p = cartesian_product(g, h)
        layer, fiber = set(), set()
        for (a, b) in p.graph.edges:
            (u, w), (v, z) = p.factors(a), p.factors(b)
            if w == z:
                layer.add(((u, v), w))
            else:
                assert u == v
                fiber.add((u, (w, z)))
        assert layer == {(e, w) for e in g.edges for w in range(h.n)}
        assert fiber == {(u, e) for u in range(g.n) for e in h.edges}
        assert (len(layer), len(fiber)) == (2 * 2, 3 * 1)

    def test_labels(self):
        p = cartesian_product(path(2), complete(2))
        assert p.graph.labels == ("p0|v0", "p0|v1", "p1|v0", "p1|v1")

    def test_layers_isomorphic_to_base(self):
        g = spider(2, 2)
        p = cartesian_product(g, complete(2))
        for w in (0, 1):
            for (u, v) in g.edges:
                assert p.graph.has_edge(p.vertex(u, w), p.vertex(v, w))

    def test_hypercube_is_iterated_k2_product(self):
        # the extension pipeline colors Q_d as Q_{d-1} x K_2 in Q_d's indices,
        # and extend_hypercube takes hypercube(d) itself as that product
        for d in range(1, 11):
            direct = hypercube(d)
            p = cartesian_product(hypercube(d - 1), complete(2))
            assert p.graph.edges == direct.edges
            assert p.graph.n == direct.n

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_cube_product_splits_on_last_bit(self, m):
        # extend_over_hypercube colors G x Q_m as (G x Q_{m-1}) x K_2
        for g in connected_bipartite_catalog():
            direct = cartesian_product(g, hypercube(m)).graph
            base = cartesian_product(g, hypercube(m - 1)).graph
            split = cartesian_product(base, complete(2)).graph
            assert split.n == direct.n
            assert split.edges == direct.edges


class TestOrderedBuilds:
    """Products and hypercubes skip build_graph; they must equal its output."""

    @given(factors(), factors())
    @example(build_graph(["a"], []), complete(3))
    @example(complete(3), build_graph(["a"], []))
    @example(build_graph("abc", []), build_graph("xy", []))
    @settings(max_examples=200, deadline=None)
    def test_product_equals_reference(self, g, h):
        assert cartesian_product(g, h) == reference_cartesian_product(g, h)

    def test_hypercube_equals_reference(self):
        for d in range(13):
            assert hypercube(d) == reference_hypercube(d)

    def test_one_int_object_per_vertex(self):
        # vertex ints above 256 are not cached by CPython: the builders take
        # both ends of every edge from one list, and the derived rows hold
        # the same objects
        g = hypercube(10)
        ids = {id(x) for e in g.edges for x in e}
        assert len(ids) == 1024
        assert {id(x) for row in g.adjacency for x in row} == ids
        p = cartesian_product(hypercube(6), complete(5)).graph
        assert len({id(x) for e in p.edges for x in e}) == p.n == 320


class TestStarEmbedding:
    """``_star_to_host`` places G x K_{1,m} inside (G x K_{1,m-1}) x K_2;
    extend_over_star relies on these properties instead of checking the
    image at run time."""

    @staticmethod
    def host(g, m):
        base = g if m == 1 else cartesian_product(g, star(m - 1)).graph
        return cartesian_product(base, complete(2)).graph

    @staticmethod
    def to_host(e, m):
        return canonical_edge(_star_to_host(e[0], m), _star_to_host(e[1], m))

    @staticmethod
    def graphs(m):
        rng = random.Random(40 + m)
        return [random_connected_bipartite(rng, max_n=6, max_degree_cap=3) for _ in range(15)]

    def test_m1_identity(self):
        for g in self.graphs(1):
            assert [_star_to_host(i, 1) for i in range(2 * g.n)] == list(range(2 * g.n))

    def test_m2_image_induced(self):
        # K_{1,2} into K_{1,1} x K_2 = C_4: leaf 1 stays in copy 0, leaf 2
        # goes to the center's copy 1
        point = build_graph(["a"], [])
        assert [_star_to_host(s, 2) for s in range(3)] == [0, 2, 1]
        host = self.host(point, 2)
        assert [self.to_host(e, 2) for e in star(2).edges] == [(0, 2), (0, 1)]
        assert [e for e in host.edges if 3 not in e] == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_edges_map_to_canonical_host_edges(self, m):
        for g in self.graphs(m):
            host = self.host(g, m)
            for u, v in cartesian_product(g, star(m)).graph.edges:
                a, b = self.to_host((u, v), m)
                assert a < b and host.has_edge(a, b)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_image_is_induced_star(self, m):
        for g in self.graphs(m):
            source = cartesian_product(g, star(m)).graph
            host = self.host(g, m)
            image = {_star_to_host(i, m) for i in range(source.n)}
            assert len(image) == source.n
            induced = {(a, b) for a, b in host.edges if a in image and b in image}
            assert induced == {self.to_host(e, m) for e in source.edges}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_star_product_matchings_map_to_host_matchings(self, m):
        rng = random.Random(50 + m)
        for g in self.graphs(m):
            source = cartesian_product(g, star(m)).graph
            host = self.host(g, m)
            matching = random_distance2_matching(rng, source, 6)
            image = [self.to_host(e, m) for e in matching]
            for i, e in enumerate(image):
                for f in image[i + 1:]:
                    assert edge_distance(host, e, f) >= 2

    def test_bad_parameter(self):
        # the map is defined for m >= 1; extend_over_star rejects m = 0 first
        with pytest.raises(BadParameterError):
            extend_over_star(path(3), 0, Precoloring(2, {}))
