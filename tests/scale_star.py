"""Star scale check, kept out of the tier-1 run: pytest does not collect
this file. Run it from the repository root:

    PYTHONPATH=src:tests timeout 120 python tests/scale_star.py

C_6 x K_1,256 (3,078 edges) with a seeded prescription of 200 layer
edges, and C_6 x K_1,1000 (12,006 edges) with none, each colored
through the host (G x K_1,m-1) x K_2, whose base has n*m vertices,
in the product's own edge order;
then the m = 256 host residual list-colored by the kernel method and
by its reference copy, which must agree item for item and in the
logged record: its König base certifies its 260 short lists. Its
coloring must lie in its lists, and its peeled base (built here,
not by the call) keeps every edge's ranks within the demand bound.
The host holds leaf m in its copy 1, so only entries on leaf m's
layer give the residual short lists: the prescription draws some
there and the rest on the layers of leaves 1..m-1, which lie at
distance 2 from leaf m's. About three seconds in all, mostly the
kernel method's palette pass at m = 1000, so it is kept out of the
tier-1 command.
"""

import random
from edgex import (Precoloring, cartesian_product, cycle, demand_list_color, extend_over_star, star,
                   verify_proper)
from helpers import (layer_edges, list_coloring_records, peeled_rank_sums, random_valid_precoloring,
                     reference_galvin_list_color, star_residual)
g = cycle(6)
for m in (256, 1000):
    product = cartesian_product(g, star(m)).graph
    if m == 256:
        rng, layers = random.Random(m), layer_edges(product, m + 1)
        last = random_valid_precoloring(rng, product, 2 + m, 6, [e for e in layers if e[0] % (m + 1) == m])
        rest = random_valid_precoloring(rng, product, 2 + m, 198, [e for e in layers if 0 < e[0] % (m + 1) < m])
        pre = Precoloring(2 + m, {**last.entries, **rest.entries})
        assert last.entries and len(pre.entries) == 200
    else:
        pre = Precoloring(2 + m, {})
    col = extend_over_star(g, m, pre)
    assert verify_proper(product, col).ok
    assert all(col.assignment[e] == c for e, c in pre.entries.items())
    assert list(col.assignment) == list(product.edges)
    print(f"C_6 x K_1,{m}: {len(product.edges)} edges, {len(pre.entries)} prescribed, extended in edge order")
    if m == 256:
        reduced = star_residual(g, m, pre)
        residual, lists = reduced.base_residual, reduced.lists
        with list_coloring_records() as records:
            kernel = demand_list_color(residual, lists)
        with list_coloring_records() as reference_records:
            reference = reference_galvin_list_color(residual, lists)
        assert records == reference_records == ["list coloring: base=konig short=260"], records
        assert kernel.palette_size == reference.palette_size
        assert list(kernel.assignment.items()) == list(reference.assignment.items())
        assert verify_proper(residual, kernel, lists).ok
        sums = peeled_rank_sums(residual)
        assert all(sums[e] <= max(residual.degree(e[0]), residual.degree(e[1])) - 1 for e in residual.edges)
        print(f"C_6 x K_1,{m} host residual: {len(residual.edges)} edges colored as by the reference"
              f" kernel method, {records[0].split(': ', 1)[1]}")
