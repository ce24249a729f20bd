"""Exact combinatorial invariants of central hyperplane arrangements.

Intersection lattices, dense edges, local and global (multivariate)
topological zeta functions with genuine pole extraction, wall-and-chamber
geometry of filtration parameters, log canonical polytopes and adapted
vectors, and monodromy-conjecture verification workflows.  All arithmetic
is exact over Q; the intersection lattice is built over the integers.
"""

from .core import (AffineForm, MultiPoly, QMatrix, integer_kernel, poly_eval,
                   primitive_normal, rank, rational)
from .arrangement import (Arrangement, ArrangementError, Flat,
                          IntersectionLattice, char_poly, complement_euler,
                          dense_edges, intersection_lattice, is_essential,
                          is_indecomposable, localize_at_point,
                          proj_complement_euler)
from .zeta import (PoleReport, ResolutionDatum, ZetaFunction, candidate_poles,
                   global_zeta, local_zeta, multivariate_global_zeta,
                   multivariate_local_zeta, poles, rank2_zeta,
                   resolution_datum, snc_zeta)
from .walls import (WallFamily, WallInstance, WallSet, chamber_path,
                    extend_restricted_walls, localized_walls, nd_wall_set,
                    separating_walls, walls_from_resolution)
from .vmono import (DiagClass, MonomialConnectionSpec, diag_annihilator,
                    diag_s_eigenvalue, diag_vres_member, diag_walls,
                    ncv_generator, ncv_walls)
from .harness import (BRootSet, Polytope, Verdict, adapted_vector, lct,
                      log_canonical_polytope, multi_nd_check, multi_smc_verify,
                      nd_check, smc_verify, validate_adapted)

__version__ = "0.1.0"
