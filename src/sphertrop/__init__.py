"""Exact-arithmetic toolkit for spherical tropicalization and balancing.

Computes tropicalizations of points and parametrized curve branches for a
catalog of spherical homogeneous spaces (tori, sl2_u, gln), models colored
cone/fan combinatorics with full axiom validation, and verifies the
balancing condition for the weighted ray fans of tropical curves.
"""

from .balance import (
    BalanceReport,
    WeightedRayFan,
    assemble,
    check_balancing,
    solve_colored_weights,
)
from .catalog import builtin_space, sl2u_family, space_by_id
from .lattice import (
    Cone,
    ZeroVectorError,
    primitive,
    quotient_projection,
    relint_meets,
    smith_normal_form,
)
from .luna_vust import (
    ColoredCone,
    ColoredFan,
    SphericalSpace,
    StarResult,
    colored_faces,
    decolor,
    star,
    validate_colored_cone,
    validate_colored_fan,
)
from .puiseux import (
    INF,
    PuiseuxPoly,
    determinant,
    format_puiseux,
    parse_puiseux,
)
from .tropicalize import (
    CurveBranch,
    NonIntegerRayError,
    OffSpaceError,
    ZeroTropicalizationError,
    branch_rays,
    invariant_factor_valuations,
    trop_branch_ray,
    trop_point,
    trop_sl2u,
    trop_torus,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "ColoredCone",
    "ColoredFan",
    "Cone",
    "CurveBranch",
    "INF",
    "NonIntegerRayError",
    "OffSpaceError",
    "PuiseuxPoly",
    "SphericalSpace",
    "StarResult",
    "WeightedRayFan",
    "ZeroTropicalizationError",
    "ZeroVectorError",
    "assemble",
    "branch_rays",
    "builtin_space",
    "check_balancing",
    "colored_faces",
    "decolor",
    "determinant",
    "format_puiseux",
    "invariant_factor_valuations",
    "parse_puiseux",
    "primitive",
    "quotient_projection",
    "relint_meets",
    "sl2u_family",
    "smith_normal_form",
    "solve_colored_weights",
    "space_by_id",
    "star",
    "trop_branch_ray",
    "trop_point",
    "trop_sl2u",
    "trop_torus",
    "validate_colored_cone",
    "validate_colored_fan",
]
