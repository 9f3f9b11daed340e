"""Weighted ray fans and the balancing condition for tropical curves.

The central check: the weighted sum of the primitive rays of a curve's
tropical fan equals minus the weighted sum of the color vectors, i.e. the
residual ``sum(m_r * v_r) + sum(m_c * v_c)`` vanishes.  Residuals are
reported as exact integer vectors so failures always carry a witness.
Colored weights that balance given rays are found by one lattice test and
one bounded integer search over a Fourier-Motzkin projection
(:func:`lattice.least_integer_point`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .lattice import (
    least_integer_point,
    mat_vec,
    primitive,
    quotient_projection,
    smith_normal_form,
    vec_add,
    vec_scale,
)


def _integer(value, what):
    """``value`` as an int; ValueError when it is not an integer, which ``int`` would truncate."""
    n = int(value)
    if n != value:
        raise ValueError("%s %r is not an integer" % (what, value))
    return n


@dataclass(frozen=True)
class WeightedRayFan:
    """Primitive rays with positive integer weights plus colored weights.

    ``rays`` maps primitive vectors in the valuation cone to weights;
    ``colored_weights`` maps palette indices to nonnegative weights.  Both
    are stored sorted and duplicate-free.
    """

    space: object
    rays: tuple = ()
    colored_weights: tuple = ()

    def __post_init__(self):
        rays = tuple((tuple(v), _integer(m, "ray weight")) for v, m in self.rays)
        seen = set()
        for v, m in rays:
            if len(v) != self.space.rank:
                raise ValueError("ray %r has the wrong dimension" % (v,))
            p, scale = primitive(v)
            if scale != 1 or p != v:
                raise ValueError("ray %r is not primitive" % (v,))
            if not self.space.valuation_cone.contains(v):
                raise ValueError("ray %r is outside the valuation cone" % (v,))
            if m <= 0:
                raise ValueError("ray %r has nonpositive weight %d" % (v, m))
            if v in seen:
                raise ValueError("duplicate ray %r" % (v,))
            seen.add(v)
        colored = tuple(
            (_integer(j, "palette index"), _integer(m, "colored weight")) for j, m in self.colored_weights
        )
        seen_colors = set()
        for j, m in colored:
            self.space.palette_vector(j)  # raises KeyError when out of range
            if m < 0:
                raise ValueError("colored weight for index %d is negative" % j)
            if j in seen_colors:
                raise ValueError("duplicate colored weight for index %d" % j)
            seen_colors.add(j)
        object.__setattr__(self, "rays", tuple(sorted(rays)))
        object.__setattr__(self, "colored_weights", tuple(sorted(colored)))


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of a balancing check, with exact residual witnesses."""

    residual: tuple
    balanced: bool
    quotient_residual: tuple
    per_character: tuple  # (character label, integer residual) pairs


def _merged(contributions, what):
    """Summed multiplicity per key; a negative contribution, which the sum
    would hide, raises."""
    totals = {}
    for key, m in contributions:
        m = _integer(m, "multiplicity")
        if m < 0:
            raise ValueError("negative multiplicity %d for %s %r" % (m, what, key))
        totals[key] = totals.get(key, 0) + m
    return totals


def assemble(space, ray_contributions, colored=()):
    """Merge branch ray contributions and colored weights into a fan.

    Equal rays are merged with summed multiplicities, as are equal colors;
    zero-weight rays are dropped with a warning.  The merged rays are
    checked by :class:`WeightedRayFan`.
    """
    totals = _merged(((tuple(v), m) for v, m in ray_contributions), "ray")
    rays = []
    for v, m in sorted(totals.items()):
        if m == 0:
            warnings.warn("ray %r has weight zero and is dropped from the fan" % (v,))
        else:
            rays.append((v, m))
    colored_weights = _merged(((_integer(j, "palette index"), m) for j, m in colored), "color")
    return WeightedRayFan(space, tuple(rays), tuple(colored_weights.items()))


def residual_vector(wf):
    """Exact integer residual ``sum(m_r * v_r) + sum(m_c * v_c)``."""
    n = wf.space.rank
    total = (0,) * n
    for v, m in wf.rays:
        total = vec_add(total, vec_scale(m, v))
    for j, m in wf.colored_weights:
        total = vec_add(total, vec_scale(m, wf.space.palette_vector(j)))
    return total


def check_balancing(wf):
    """Full balancing report: residual, quotient residual, character pairings."""
    residual = residual_vector(wf)
    balanced = all(a == 0 for a in residual)
    # the lattice modulo the span of the palette vectors
    projection = quotient_projection([v for _, v in wf.space.palette], wf.space.rank)
    per_character = tuple(
        (label, residual[i]) for i, label in enumerate(wf.space.character_basis_labels)
    )
    return BalanceReport(
        residual=residual,
        balanced=balanced,
        quotient_residual=mat_vec(projection, residual),
        per_character=per_character,
    )


def solve_colored_weights(space, rays):
    """Nonnegative integer colored weights that balance the given rays.

    Returns the solution minimizing the total colored weight, ties broken
    lexicographically by palette index, or None when no solution exists.
    A target outside the lattice the colors span gets None from one Smith
    form: with ``U V W = D`` for the palette matrix V, some integer w has
    ``V w = target`` iff each ``(U target)_i`` is a multiple of ``d_i``
    (zero past the rank).  Otherwise one search decides: the least integer
    point of ``w >= 0``, ``sum(w) = total`` and ``sum(w_j * v_j) = target``
    over ``(total, w_1, ..., w_r)``.  Eisenbrand and Weismantel (ACM TALG 16,
    2020) put a least solution within l1 distance m(2m.Delta + 1)^m of an
    optimal vertex of the rational relaxation (m the rank, Delta the largest
    palette entry in absolute value), so the total is searched no further
    than that past its projected lower bound.
    """
    wf = WeightedRayFan(space, tuple(rays), ())
    target = tuple(-a for a in residual_vector(wf))
    vectors = [v for _, v in space.palette]
    r, m = len(vectors), space.rank
    U, D, _ = smith_normal_form([[v[i] for v in vectors] for i in range(m)])
    diagonal = [D[i][i] if i < r else 0 for i in range(m)]
    if any(s % d if d else s for s, d in zip(mat_vec(U, target), diagonal)):
        return None
    rows = [(tuple(int(j == i) for j in range(r + 1)), 0) for i in range(1, r + 1)]
    equations = [((-1,) + (1,) * r, 0)]
    equations += [((0, *(v[i] for v in vectors)), t) for i, t in enumerate(target)]
    rows += equations + [(tuple(-a for a in coeffs), -rhs) for coeffs, rhs in equations]
    delta = max((abs(a) for v in vectors for a in v), default=0)
    point = least_integer_point(rows, r + 1, m * (2 * m * delta + 1) ** m)
    return None if point is None else tuple(enumerate(point[1:]))
