"""Q_14 scale check, kept out of the tier-1 run: pytest does not collect
this file. Run it from the repository root:

    PYTHONPATH=src:tests timeout 120 python tests/scale_q14.py

The seeded maximal induced matching of Q_14 (114,688 edges, 2,477 short
residual lists) is extended in a few seconds from the residual's parity
sides and dimension base and the peel, with neither a bipartition search
(in coloring or extension) nor a König base, far past the complete
search's reach, and colored in Q_14's edge order; its cube pair, estimated past
the bound on kept values, is not kept, and what is kept stays within that
bound. Then the prescription is validated and the coloring verified on a
fresh Q_14, whose adjacency rows neither derives; the same instance as
Q_11 x Q_3 must color identically, item for item; one edge recolored to a
neighbor's color sends verify_proper through its exact conflict pass at
that size. The Q_14 residual, whose
adjacency rows the reduction patches from Q_13's and which equal a fresh
derivation, is König-colored as by its reference copy, item for item, and
list-colored by demand_list_color from the peeled base (the logged record
names the base and the 2,477 short lists), in its lists and in its edge
order, with every edge's ranks within the demand bound. Last, Q_13 x K_2,
built in one ordered pass, equals its build_graph reference and Q_14's
edges and adjacency.
"""

from unittest.mock import patch

from edgex import coloring, extension, families
from edgex import (EdgeColoring, Graph, cartesian_product, complete, extend_hypercube,
                   extend_over_hypercube, demand_list_color, hypercube, konig_color, reduce_instance,
                   validate_precoloring, verify_proper)
from helpers import (list_coloring_bases, list_coloring_records, peeled_rank_sums,
                     reference_cartesian_product, reference_konig_color, reference_verify_proper,
                     roadmap_cube_instance)
q, pre = roadmap_cube_instance(14)
with (list_coloring_bases() as bases,
      patch.object(coloring, "_konig_base", wraps=coloring._konig_base) as konig,
      patch.object(coloring, "bipartition", wraps=coloring.bipartition) as sides,
      patch.object(extension, "bipartition", wraps=extension.bipartition) as g_sides):
    col = extend_hypercube(14, pre)
assert bases == ["peeled"], bases
assert konig.call_count == 0, konig.call_count
assert sides.call_count == g_sides.call_count == 0, (sides.call_count, g_sides.call_count)
assert verify_proper(q, col).ok
assert list(col.assignment) == list(q.edges)
assert ("Q", 14) not in families._kept_values, list(families._kept_values)
kept = sum(size for _value, size in families._kept_values.values())
assert kept <= families._KEPT_BYTES, kept
print(f"Q_14: {len(pre.entries)} prescribed edges extended, colored in edge order;"
      f" its cube pair not kept, {kept} bytes kept")
fresh = hypercube(14)
assert validate_precoloring(fresh, pre).ok
assert verify_proper(fresh, col, prescribed=pre.entries).ok
assert "adjacency" not in vars(fresh)
print("fresh Q_14: prescription valid and coloring proper, its adjacency never derived")
split = extend_over_hypercube(hypercube(11), 3, pre)
assert split.palette_size == col.palette_size
assert list(split.assignment.items()) == list(col.assignment.items())
print("Q_11 x Q_3: the same coloring, item for item")
e = q.edges[len(q.edges) // 2]
c = col.assignment[next(f for f in q.incident_edges(e[0]) if f != e)]
bad = EdgeColoring(col.palette_size, {**col.assignment, e: c})
expected = sorted(
    tuple(sorted((e, f)))
    for x in e for f in q.incident_edges(x) if f != e and col.assignment[f] == c
)
report = verify_proper(q, bad)
assert list(report.conflicts) == expected, (report.conflicts, expected)
assert report == reference_verify_proper(q, bad)
print(f"Q_14: edge {e} recolored {c}, conflicts {expected}")
reduced = reduce_instance(hypercube(13), 1, pre)
g, lists = reduced.base_residual, reduced.lists
assert "adjacency" in vars(g) and g.adjacency == Graph(g.labels, g.edges).adjacency
konig, reference = konig_color(g), reference_konig_color(g)
assert konig.palette_size == reference.palette_size
assert list(konig.assignment.items()) == list(reference.assignment.items())
with list_coloring_records() as records:
    kernel = demand_list_color(g, lists)
assert records == ["list coloring: base=peeled short=2477"], records
assert verify_proper(g, kernel, lists).ok
assert list(kernel.assignment) == list(g.edges)
sums = peeled_rank_sums(g)
assert all(sums[e] <= max(g.degree(e[0]), g.degree(e[1])) - 1 for e in g.edges)
print(f"Q_14 residual: {len(g.edges)} edges, rows patched from Q_13's as derived afresh,"
      f" König-colored as by the reference, list-colored in edge order"
      f" ({records[0].split(': ', 1)[1]}), ranks within the demand bound")
split = cartesian_product(hypercube(13), complete(2)).graph
assert split == reference_cartesian_product(hypercube(13), complete(2)).graph
assert len(split.edges) == 114688
assert split.edges == q.edges and split.adjacency == q.adjacency
print(f"Q_13 x K_2: {len(split.edges)} edges as by build_graph, the edges and adjacency of Q_14")
