"""Exact verification of the stable cohomology bookkeeping for discriminant complements.

The library computes, in exact arithmetic, the three ingredients that
pin down the stable rational cohomology of spaces of non-singular homogeneous
polynomials:

* codimensions of singularity conditions at point configurations (and the
  degree bound past which they become independent),
* closed-form homology tables: Gaussian-binomial Poincare polynomials of
  Grassmannians, sign-twisted Borel-Moore homology of configuration spaces of
  projective points, and the exterior-algebra cohomology of the general
  linear group,
* the first-page degree and Tate-weight accounting of the associated
  spectral sequence, Alexander duality, and the stable-band match with the
  general linear group.
"""

__version__ = "0.1.0"

from .conditions import (
    codimension,
    general_position_bound,
    hilbert_function,
    ideal_degree_part,
    ordinary_square_dim,
    symbolic_square_dim,
    verify_codim_lemma,
)
from .e1 import (
    alexander_dual,
    assemble_e1,
    stable_range_report,
    stratum_bm,
    vanishing_band,
    verify_stable_match,
)
from .monomials import enumerate_monomials
from .params import ParameterTriple, coefficient_space_dim
from .points import (
    PointConfiguration,
    collinear_configuration,
    coordinate_configuration,
    parse_points_json,
    random_configuration,
)
from .tables import (
    GradedTateVector,
    gaussian_binomial,
    gl_cohomology,
    grassmannian_poincare,
    twisted_config_bm,
)

__all__ = [
    "GradedTateVector",
    "ParameterTriple",
    "PointConfiguration",
    "__version__",
    "alexander_dual",
    "assemble_e1",
    "codimension",
    "coefficient_space_dim",
    "collinear_configuration",
    "coordinate_configuration",
    "enumerate_monomials",
    "gaussian_binomial",
    "general_position_bound",
    "gl_cohomology",
    "grassmannian_poincare",
    "hilbert_function",
    "ideal_degree_part",
    "ordinary_square_dim",
    "parse_points_json",
    "random_configuration",
    "stable_range_report",
    "stratum_bm",
    "symbolic_square_dim",
    "twisted_config_bm",
    "vanishing_band",
    "verify_codim_lemma",
]
