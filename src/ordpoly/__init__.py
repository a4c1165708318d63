"""Exact combinatorics of ordinary polytopes.

The package constructs the facet lists, face lattices, colex shellings,
shallow boundary triangulations, and toric h-vectors of the ordinary
polytopes, and cross-checks every quantity by independent routes.
"""

from .bijection import (
    BijectionRecord,
    bijection_records,
    count_by_size,
    facet_to_subset,
    subset_to_facet,
)
from .combinat import Interval, Params, colex_key
from .hvector import h_closed_form, multiplicial_h, shelling_contributions
from .lattice import FaceLattice, build_face_lattice, euler_check
from .multiplex import (
    multiplex_boundary_triangulation,
    multiplex_facet,
    multiplex_facets,
    multiplex_g,
    multiplex_triangulation,
)
from .ordinary import enumerate_facets, facets_by_recursion, lsh
from .shelling import (
    ShellingStep,
    colex_shelling,
    minimal_new_face_nonrecursive,
    minimal_new_face_recursive,
    step_intervals,
    verify_shelling_partition,
    verify_shelling_topological,
)
from .triangulation import (
    TriangulationStep,
    boundary_triangulation,
    shallowness_check,
    shelling_restriction_faces,
    simplicial_h,
    triangulation_shelling,
)
from .verify import CheckResult, InstanceBundle, grid_instances, verify_instance

__version__ = "0.1.0"

__all__ = [
    "BijectionRecord",
    "CheckResult",
    "FaceLattice",
    "InstanceBundle",
    "Interval",
    "Params",
    "ShellingStep",
    "TriangulationStep",
    "bijection_records",
    "boundary_triangulation",
    "build_face_lattice",
    "colex_key",
    "colex_shelling",
    "count_by_size",
    "enumerate_facets",
    "euler_check",
    "facet_to_subset",
    "facets_by_recursion",
    "grid_instances",
    "h_closed_form",
    "lsh",
    "minimal_new_face_nonrecursive",
    "minimal_new_face_recursive",
    "multiplex_boundary_triangulation",
    "multiplex_facet",
    "multiplex_facets",
    "multiplex_g",
    "multiplex_triangulation",
    "multiplicial_h",
    "shallowness_check",
    "shelling_contributions",
    "shelling_restriction_faces",
    "simplicial_h",
    "step_intervals",
    "subset_to_facet",
    "triangulation_shelling",
    "verify_instance",
    "verify_shelling_partition",
    "verify_shelling_topological",
]
