import random

import pytest

from edgex import (
    build_graph,
    canonical_edge,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    embed_star_in_hypercube,
    hypercube,
    max_degree,
    path,
    spider,
    standard_family,
    star,
)
from edgex.errors import BadParameterError

from helpers import (
    connected_bipartite_catalog,
    edge_distance,
    random_connected_bipartite,
    random_distance2_matching,
    vertex_distance,
)


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
        # the extension pipeline colors Q_d as Q_{d-1} x K_2 in Q_d's indices
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


class TestStarEmbedding:
    def test_m1_identity(self):
        emb = embed_star_in_hypercube(1)
        assert emb.vertex_map == (0, 1)

    def test_m2_image_induced(self):
        emb = embed_star_in_hypercube(2)
        q = hypercube(2)
        image = set(emb.vertex_map)
        assert image == {0, 1, 2}
        induced = [
            (a, b) for (a, b) in q.edges if a in image and b in image
        ]
        assert sorted(induced) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_image_is_induced_star(self, m):
        emb = embed_star_in_hypercube(m)
        q = hypercube(m)
        center, leaves = emb.vertex_map[0], emb.vertex_map[1:]
        assert center == 0
        assert len(set(leaves)) == m
        for leaf in leaves:
            assert q.has_edge(center, leaf)
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert vertex_distance(q, a, b) == 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_star_product_matchings_map_to_cube_product_matchings(self, m):
        # extend_over_star relies on this instead of checking the image at run time
        rng = random.Random(40 + m)
        emb = embed_star_in_hypercube(m)

        def to_cube(i):
            u, s = divmod(i, m + 1)
            return u * (1 << m) + emb.image(s)

        for _ in range(15):
            g = random_connected_bipartite(rng, max_n=6, max_degree_cap=3)
            source = cartesian_product(g, star(m)).graph
            cube = cartesian_product(g, hypercube(m)).graph
            assert all(cube.has_edge(to_cube(u), to_cube(v)) for u, v in source.edges)
            matching = random_distance2_matching(rng, source, 6)
            image = [canonical_edge(to_cube(u), to_cube(v)) for u, v in matching]
            for i, e in enumerate(image):
                for f in image[i + 1:]:
                    assert edge_distance(cube, e, f) >= 2

    def test_bad_parameter(self):
        with pytest.raises(BadParameterError):
            embed_star_in_hypercube(0)
