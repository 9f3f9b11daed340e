"""Spherical tropicalization maps for the catalog spaces.

Points and parametrized curve branches over the Puiseux field are sent to
the valuation cone: coordinatewise valuations for tori, min of the two
coordinate valuations for sl2_u, and invariant-factor valuations (Cartan
decomposition) for gln.  Branches are expected in normalized local
parameter ``s = t``; approach to different boundary points is encoded by
separate branches (substitute e.g. ``s = t^(-1)`` explicitly).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import catalog
from .lattice import primitive
from .puiseux import INF, PuiseuxPoly, minor_valuation_profile


class OffSpaceError(ValueError):
    """The point or branch does not lie in the homogeneous space."""


class ZeroTropicalizationError(ValueError):
    """The branch does not approach the boundary (tropicalizes to zero)."""


class NonIntegerRayError(ValueError):
    """The tropical point has non-integer coordinates; rescale the parameter."""


@dataclass(frozen=True)
class CurveBranch:
    """Coordinates of a curve branch over the Puiseux field.

    One entry per ambient coordinate of the space, as many as its catalog
    family's ``arity`` gives; a gln(n) matrix is stored row-major.
    """

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if any(not isinstance(p, PuiseuxPoly) for p in self.coords):
            raise TypeError("branch coordinates must be Puiseux polynomials")

    @classmethod
    def from_matrix(cls, rows):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("expected a square coordinate matrix")
        return cls(tuple(p for row in rows for p in row))

    def matrix(self, n):
        if len(self.coords) != n * n:
            raise ValueError("branch has %d coordinates, expected %d" % (len(self.coords), n * n))
        return [list(self.coords[i * n : (i + 1) * n]) for i in range(n)]


def trop_torus(coords):
    """Coordinatewise valuation vector; every coordinate must be nonzero."""
    values = []
    for i, p in enumerate(coords):
        if p.is_zero:
            raise OffSpaceError("coordinate %d vanishes: point is off the torus" % i)
        values.append(p.val())
    return tuple(values)


def trop_sl2u(x, y):
    """Minimum of the two coordinate valuations, as a rank-1 vector."""
    if x.is_zero and y.is_zero:
        raise OffSpaceError("both coordinates vanish: point is off the space")
    return (min(x.val(), y.val()),)


def invariant_factor_valuations(M):
    """Decreasing valuations of the diagonal in a Cartan decomposition.

    Computed through minor valuations: with d_k the minimum valuation over
    all k x k minors, the increasing invariant-factor valuations are the
    consecutive differences of the d_k, and the result is their reversal.
    :func:`minor_valuation_profile` reads every d_k off one fraction-free
    elimination: by Sylvester's identity its k-th pivot is a k x k minor,
    and pivoting on a least-valuation entry makes it one of least
    valuation, so the work is O(n^3) operations on packed ints (or on
    Puiseux polynomials, for a matrix too wide to pack).
    Raises :class:`OffSpaceError` on singular matrices.
    """
    ds = minor_valuation_profile(M)
    if ds[-1] == INF:
        raise OffSpaceError("matrix is singular: point is off the general linear group")
    increasing = []
    prev = 0
    for d in ds:
        increasing.append(d - prev)
        prev = d
    return tuple(reversed(increasing))


def trop_point(space, branch):
    """Tropicalize a branch in the given catalog space: the tuple of exact
    rational coordinates of its point in the valuation cone: ints where the
    valuations behind them lie on integral exponent grids, else Fractions.

    Applies the map of the space's catalog family and checks that the
    result lies in the valuation cone.  A branch with the wrong number of
    coordinates is off the space.
    """
    family = catalog.FAMILIES.get(space.family)
    if family is None:
        raise ValueError("unsupported space kind %r" % (space.family,))
    coords = branch.coords
    n = family.arity(space.rank)
    if len(coords) != n:
        raise OffSpaceError("branch has %d coordinates, expected %d" % (len(coords), n))
    point = family.trop(branch, space.rank)
    if not space.valuation_cone.contains(point):
        numbers = ", ".join(map(str, point))  # as documents write them: "-1", "1/2"
        raise OffSpaceError("tropical point (%s) escapes the valuation cone" % numbers)
    return point


def trop_branch_ray(space, branch):
    """Primitive ray and lattice multiplicity of a branch tropicalization.

    The multiplicity is the stretch factor onto the primitive generator.
    Zero tropicalizations (the branch stays in the interior) and fractional
    coordinates are rejected with dedicated errors.
    """
    point = trop_point(space, branch)
    if all(c == 0 for c in point):
        raise ZeroTropicalizationError("branch tropicalizes to zero; no boundary ray")
    ints = []
    for c in point:
        if c.denominator != 1:
            raise NonIntegerRayError(
                "tropical point (%s) is fractional; rescale the branch parameter"
                % ", ".join(map(str, point))
            )
        ints.append(int(c))
    return primitive(tuple(ints))


def branch_rays(space, branches):
    """Rays with multiplicities from a list of branches.

    Branches tropicalizing to zero are excluded from ray assembly with a
    warning, per their error contract.
    """
    out = []
    for i, branch in enumerate(branches):
        try:
            out.append(trop_branch_ray(space, branch))
        except ZeroTropicalizationError:
            warnings.warn(
                "branch %d tropicalizes to zero and is excluded from the ray fan" % i
            )
    return out
