"""edgex: constructive extension of precolored distance-2 matchings.

A precolored induced (distance-2) matching in a product G box K_{2m},
G box Q_m, G box K_{1,m} of a bipartite G, or in a hypercube Q_d, always
extends to a proper edge coloring within the matching palette bound; this
package builds such extensions, verifies them, decides extendability
exactly, and constructs non-extendable instances for products that escape
those bounds.
"""

from types import ModuleType as _ModuleType

from .coloring import (
    ColoringReport,
    EdgeColoring,
    ListAssignment,
    demand_list_color,
    exact_list_color,
    konig_color,
    make_list_assignment,
    one_factorization,
    verify_proper,
)
from .extension import (
    Precoloring,
    ReducedInstance,
    ValidationReport,
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
    reduce_instance,
    validate_precoloring,
)
from .families import (
    ProductGraph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    path,
    spider,
    standard_family,
    star,
)
from .graph import (
    Bipartition,
    Edge,
    Graph,
    bipartition,
    build_graph,
    canonical_edge,
    max_degree,
)
from .oracle import (
    BlockedHubInstance,
    ExplorationReport,
    ObstructionCertificate,
    build_blocked_hub_instance,
    check_local_obstruction,
    decide_extendable,
    explore_bipartite_factor,
    find_covering_induced_matching,
)

# the API's names, not the submodules the imports above also bind
__all__ = [
    name for name, value in sorted(vars().items()) if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
