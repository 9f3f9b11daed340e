import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from sphertrop.catalog import builtin_space
from sphertrop.puiseux import PuiseuxPoly, determinant
from sphertrop.tropicalize import (
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

from helpers import (
    cartan_valuations_by_elimination,
    random_nonsingular_matrix,
    random_poly,
    random_unit_matrix,
)

t = PuiseuxPoly.t_power(1)
ti = PuiseuxPoly.t_power(-1)
one = PuiseuxPoly.one()
zero = PuiseuxPoly.zero()


def mat_mul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), PuiseuxPoly.zero()) for j in range(n)]
        for i in range(n)
    ]


# --- torus ----------------------------------------------------------------------


def test_trop_torus_examples():
    assert trop_torus((t**2, ti)) == (2, -1)
    assert trop_torus((one + t, one - t)) == (0, 0)
    with pytest.raises(OffSpaceError):
        trop_torus((zero, t))


def test_trop_torus_homomorphism():
    rng = random.Random(21)
    for _ in range(50):
        x = tuple(random_poly(rng) for _ in range(3))
        y = tuple(random_poly(rng) for _ in range(3))
        xy = tuple(a * b for a, b in zip(x, y))
        assert trop_torus(xy) == tuple(
            a + b for a, b in zip(trop_torus(x), trop_torus(y))
        )


# --- sl2_u -----------------------------------------------------------------------


def test_trop_sl2u_examples():
    assert trop_sl2u(t, t**2) == (1,)
    assert trop_sl2u(one + t, ti) == (-1,)
    assert trop_sl2u(zero, t**3) == (3,)
    with pytest.raises(OffSpaceError):
        trop_sl2u(zero, zero)


# --- invariant factors -------------------------------------------------------------


def test_invariant_factor_examples():
    assert invariant_factor_valuations([[t, zero], [zero, t**2]]) == (2, 1)
    assert invariant_factor_valuations([[t + one, t], [t, zero]]) == (2, 0)
    eye = [[one, zero], [zero, one]]
    assert invariant_factor_valuations(eye) == (0, 0)
    assert invariant_factor_valuations([[ti + one, ti], [ti, zero]]) == (-1, -1)
    with pytest.raises(OffSpaceError):
        invariant_factor_valuations([[t, t], [t, t]])


def test_invariant_factors_of_diagonal_matrices():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(1, 4)
        exps = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
        M = [
            [PuiseuxPoly.t_power(exps[i]) if i == j else zero for j in range(n)]
            for i in range(n)
        ]
        assert invariant_factor_valuations(M) == tuple(sorted(exps, reverse=True))


def test_invariant_factor_structure():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        M = random_nonsingular_matrix(rng, n)
        mu = invariant_factor_valuations(M)
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert sum(mu) == determinant(M).val()


def test_elimination_oracle_agrees():
    rng = random.Random(24)
    for n in [rng.randint(1, 4) for _ in range(60)] + [5] * 4:
        M = random_nonsingular_matrix(rng, n)
        assert cartan_valuations_by_elimination(M) == invariant_factor_valuations(M)
    for _ in range(10):
        # rank deficient: a repeated row, or a zero column
        n = rng.randint(2, 4)
        M = random_nonsingular_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        M[j] = list(M[i])
        N = random_nonsingular_matrix(rng, n)
        for row in N:
            row[j] = zero
        for singular in (M, N):
            with pytest.raises(OffSpaceError):
                cartan_valuations_by_elimination(singular)
            with pytest.raises(OffSpaceError):
                invariant_factor_valuations(singular)


def test_integral_unit_invariance():
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(2, 3)
        M = random_nonsingular_matrix(rng, n)
        g = random_unit_matrix(rng, n)
        h = random_unit_matrix(rng, n)
        mu = invariant_factor_valuations(M)
        assert invariant_factor_valuations(mat_mul(g, M)) == mu
        assert invariant_factor_valuations(mat_mul(M, h)) == mu
        assert invariant_factor_valuations(mat_mul(mat_mul(g, M), h)) == mu


# --- dispatch ------------------------------------------------------------------------


def test_trop_point_dispatch():
    gl2 = builtin_space("gln", 2)
    branch = CurveBranch.from_matrix([[t + one, t], [t, zero]])
    point = trop_point(gl2, branch)
    assert point == (2, 0)
    assert gl2.valuation_cone.contains(point)

    torus2 = builtin_space("torus", 2)
    assert trop_point(torus2, CurveBranch((t, t))) == (1, 1)

    sl2u = builtin_space("sl2_u")
    assert trop_point(sl2u, CurveBranch((t**2, t**2))) == (2,)


def test_trop_point_lands_in_valuation_cone():
    rng = random.Random(26)
    gl3 = builtin_space("gln", 3)
    for _ in range(20):
        M = random_nonsingular_matrix(rng, 3)
        point = trop_point(gl3, CurveBranch.from_matrix(M))
        assert gl3.valuation_cone.contains(point)


def _integral_unit_matrix(rng, n):
    # the identity plus t-multiples: a unit over the valuation ring, on the integral grid
    return [
        [(one if i == j else zero) + PuiseuxPoly.t_power(rng.randint(1, 2), rng.randint(-3, 3)) for j in range(n)]
        for i in range(n)
    ]


def test_trop_point_is_an_int_tuple_on_integral_branches():
    rng = random.Random(27)
    for n in (2, 3, 4):
        gln = builtin_space("gln", n)
        torus = builtin_space("torus", n)
        for _ in range(10):
            a = [rng.randint(-3, 3) for _ in range(n)]
            diag = [[PuiseuxPoly.t_power(a[i]) if i == j else zero for j in range(n)] for i in range(n)]
            M = mat_mul(mat_mul(_integral_unit_matrix(rng, n), diag), _integral_unit_matrix(rng, n))
            point = trop_point(gln, CurveBranch.from_matrix(M))
            assert point == tuple(sorted(a, reverse=True))
            assert all(type(c) is int for c in point)
            coords = [PuiseuxPoly.t_power(e, rng.choice((-2, 1, 3))) + PuiseuxPoly.t_power(e + 1) for e in a]
            point = trop_point(torus, CurveBranch(coords))
            assert point == tuple(a) and all(type(c) is int for c in point)
    # a coordinate on a finer grid stays a Fraction
    point = trop_point(builtin_space("torus", 2), CurveBranch((PuiseuxPoly.t_power(Fraction(1, 2)), t)))
    assert point == (Fraction(1, 2), 1) and [type(c) for c in point] == [Fraction, int]


def test_trop_point_errors():
    gl2 = builtin_space("gln", 2)
    with pytest.raises(OffSpaceError):
        trop_point(gl2, CurveBranch.from_matrix([[t, t], [t, t]]))
    nameless = dataclasses.replace(builtin_space("torus", 2), family="mystery")
    with pytest.raises(ValueError):
        trop_point(nameless, CurveBranch((t, t)))


def test_trop_point_rejects_a_branch_of_the_wrong_arity():
    with pytest.raises(OffSpaceError, match="branch has 1 coordinates, expected 2"):
        trop_point(builtin_space("torus", 2), CurveBranch((t,)))


def test_curve_branch_shape_errors():
    with pytest.raises(TypeError, match="must be Puiseux polynomials"):
        CurveBranch((t, 1))
    with pytest.raises(ValueError, match="branch has 4 coordinates, expected 9"):
        CurveBranch((t,) * 4).matrix(3)


# --- branch rays ----------------------------------------------------------------------


def test_trop_branch_ray_examples():
    gl2 = builtin_space("gln", 2)
    assert trop_branch_ray(gl2, CurveBranch.from_matrix([[t + one, t], [t, zero]])) == (
        (1, 0),
        2,
    )
    assert trop_branch_ray(
        gl2, CurveBranch.from_matrix([[ti + one, ti], [ti, zero]])
    ) == ((-1, -1), 1)
    torus2 = builtin_space("torus", 2)
    assert trop_branch_ray(torus2, CurveBranch((t, -one - t))) == ((1, 0), 1)


def test_trop_branch_ray_rejects_zero_and_fractional():
    torus2 = builtin_space("torus", 2)
    with pytest.raises(ZeroTropicalizationError):
        trop_branch_ray(torus2, CurveBranch((one + t, one - t)))
    half = PuiseuxPoly.t_power(Fraction(1, 2))
    with pytest.raises(NonIntegerRayError):
        trop_branch_ray(torus2, CurveBranch((half, t)))


def test_branch_rays_skips_interior_branches_with_warning():
    torus2 = builtin_space("torus", 2)
    branches = [CurveBranch((one + t, one - t)), CurveBranch((t, -one - t))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rays = branch_rays(torus2, branches)
    assert rays == [((1, 0), 1)]
    assert any("tropicalizes to zero" in str(w.message) for w in caught)
