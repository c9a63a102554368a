"""Graphs whose automorphism groups act richly on a perfect matching.

The package builds the classical families (odd graphs, folded hypercubes,
joins, matching joins, Paley-type incidence graphs, ...), computes
automorphism groups and canonical forms, decides whether a group acts on a
matching as the full symmetric group or 2-transitively, lifts graphs and
matchings through voltage covers, certifies near-polygonal cycle systems,
and classifies the graphs with such a perfect matching by group.
"""

from types import ModuleType as _ModuleType

from .autiso import (
    CanonicalForm,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    canonical_graph6,
)
from .classify import (
    Catalog,
    CatalogEntry,
    classification_report,
    classify_perfect_matchings,
    matching_catalog,
    verify_catalog_membership,
)
from .graphs import (
    Graph,
    Matching,
    complement,
    complete,
    complete_bipartite,
    composition,
    cycle,
    degree_sequence,
    empty_graph,
    folded_hypercube,
    graph6_decode,
    graph6_encode,
    hypercube,
    is_connected,
    join,
    matching_join,
    odd_graph,
    odd_graph_action,
    odd_graph_vertex,
    paley_incidence,
    paley_incidence_cliques,
    path_graph,
    petersen,
    subdivide_all,
    subdivide_matching_twice,
    subdivide_non_matching,
    validate_matching,
)
from .matchings import (
    MODE_PERMUTABLE,
    MODE_TWO_TRANSITIVE,
    MatchingReport,
    check_group_action,
    degree_bound_check,
    find_matching,
    is_2arc_transitive,
    is_arc_transitive,
    is_locally_primitive,
    is_locally_symmetric,
    matching_report,
    matching_stabilizer,
    normalize_mode,
)
from .perms import (
    BlockSystem,
    Perm,
    PermGroup,
    induced_action,
    is_2transitive,
    is_primitive,
    is_transitive,
    minimal_block,
    orbits,
    subgroup_search,
)
from .polygonal import (
    CycleSystem,
    QuotientResult,
    near_polygonal_certificate,
    quotient_by_partition,
    verify_cycle_system,
)
from .voltage import (
    VoltageAssignment,
    covering_transformations,
    cycle_system_matching,
    derived_cover,
    lift_automorphism,
    lift_group,
    lift_matching_in_tree,
    spanning_tree,
    standard_assignment,
)

__version__ = "0.1.0"

# the public names imported above, not the submodules they come from
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
