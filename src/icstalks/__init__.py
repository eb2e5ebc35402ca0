"""Exact combinatorial invariants of affine toric varieties.

Given a strongly convex full-dimensional rational polyhedral cone, this
package computes, in exact rational arithmetic:

  * the face lattice and dual description of the cone,
  * barycentric and interior-ray (staged stellar, built from face chains)
    subdivisions with their cone-counting multiplicity tables,
  * shellings of the barycentric boundary complex,
  * higher-direct-image dimensions of reflexive differential forms via
    exact chain-complex linear algebra,
  * intersection-cohomology stalk polynomials and decomposition-theorem
    multiplicities via the stalk recursion on the face poset,
  * the graded de Rham generating functions of the intersection cohomology
    Hodge module, cross-checked through two independent routes.
"""

from .polynomials import BiLaurentPolynomial, LaurentPolynomial
from .cones import FaceLattice, face_lattice, pick_degree
from .subdivision import (
    barycentric_subdivision,
    chain_count_oracle,
    interior_ray_subdivision,
    multiplicity_table,
)
from .shelling import (
    SimplicialComplex,
    complex_from_fan,
    find_shelling,
    lexicographic_shelling,
    verify_shelling,
)
from .differentials import (
    build_degree_complex,
    check_second_degree,
    cohomology_dims,
    omega_closed_form,
    omega_from_fiber_poincare,
    omega_oracle,
)
from .decomposition import (
    DecompositionResult,
    fiber_poincare,
    solve_decomposition,
)
from .derham import derham_by_elimination, derham_table

__all__ = [
    "BiLaurentPolynomial",
    "LaurentPolynomial",
    "FaceLattice",
    "face_lattice",
    "pick_degree",
    "barycentric_subdivision",
    "interior_ray_subdivision",
    "multiplicity_table",
    "chain_count_oracle",
    "SimplicialComplex",
    "complex_from_fan",
    "verify_shelling",
    "find_shelling",
    "lexicographic_shelling",
    "build_degree_complex",
    "cohomology_dims",
    "omega_oracle",
    "check_second_degree",
    "omega_closed_form",
    "omega_from_fiber_poincare",
    "fiber_poincare",
    "solve_decomposition",
    "DecompositionResult",
    "derham_by_elimination",
    "derham_table",
]

__version__ = "0.1.0"
