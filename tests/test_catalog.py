import random

import pytest

from sphertrop import lattice
from sphertrop.balance import check_balancing
from sphertrop.catalog import (
    CurveFixture,
    builtin_space,
    fixture_names,
    reference_fixture,
    sl2u_family,
    space_by_id,
)
from sphertrop.luna_vust import validate_colored_fan
from sphertrop.puiseux import PuiseuxPoly, val
from sphertrop.tropicalize import branch_rays
from sphertrop.balance import assemble


# --- built-in spaces -----------------------------------------------------------


def test_builtin_space_examples():
    gl2 = builtin_space("gln", 2)
    assert gl2.palette == (("E2", (-1, 1)),)
    sl2u = builtin_space("sl2_u")
    assert sl2u.palette == (("E1", (1,)),)
    gl3 = builtin_space("gln", 3)
    assert gl3.palette == (("E2", (-1, 1, 0)), ("E3", (0, -1, 1)))


def test_whole_space_cones_run_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fourier-Motzkin step run")

    lattice._prune.cache_clear()  # a memoised answer would hide an elimination
    lattice._dual.cache_clear()
    monkeypatch.setattr(lattice, "_eliminate", refuse)
    for space, n in ((builtin_space("torus", 128), 128), (builtin_space("sl2_u"), 1)):
        assert space.valuation_cone.inequalities == ()
        assert space.valuation_cone.generators == tuple(sorted(lattice.signed_basis(n)))


def test_builtin_space_shapes():
    torus3 = builtin_space("torus", 3)
    assert torus3.rank == 3 and torus3.palette == ()
    assert torus3.valuation_cone.inequalities == ()
    with pytest.raises(ValueError):
        builtin_space("flag", 2)
    with pytest.raises(ValueError):
        builtin_space("torus", 0)


def test_builtin_space_rejects_gln0_and_the_sl2u_id():
    with pytest.raises(ValueError, match="gln needs a positive size"):
        builtin_space("gln", 0)
    with pytest.raises(ValueError, match="unknown space family 'sl2u'"):
        builtin_space("sl2u")  # a space id: space_by_id reads it


def test_space_by_id():
    assert space_by_id("gln2").name == "gln2"
    assert space_by_id("torus4").rank == 4
    assert space_by_id("sl2u").family == "sl2_u"
    with pytest.raises(KeyError):
        space_by_id("grassmannian")


def test_sl2u_valuation_cone_is_whole_line():
    sl2u = builtin_space("sl2_u")
    assert sl2u.valuation_cone.contains((1,))
    assert sl2u.valuation_cone.contains((-1,))


def test_gln_palette_telescopes():
    for n in range(2, 7):
        space = builtin_space("gln", n)
        total = [0] * n
        for _, v in space.palette:
            total = [a + b for a, b in zip(total, v)]
        expected = [0] * n
        expected[0] = -1
        expected[-1] = 1
        assert total == expected


def test_gln_palette_dimensions_and_membership():
    for n in range(2, 6):
        space = builtin_space("gln", n)
        assert len(space.palette) == n - 1
        for _, v in space.palette:
            # colors point out of the valuation cone for gln
            assert not space.valuation_cone.contains(v)


# --- derivation oracle for the gln palette ------------------------------------------
#
# The palette vector of the j-th color is the vector of orders of the
# character basis functions f_i along the divisor of the j-th nested minor.
# The oracle computes those orders on random matrix curves crossing the
# divisor transversally and compares with the cataloged vector.


from sphertrop.catalog import nested_minor


def random_transversal_curve(rng, n, j):
    """Matrix curve with ord(h_j) = 1 and ord(h_i) = 0 for all other i."""
    t = PuiseuxPoly.t_power(1)
    while True:
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = [
            [PuiseuxPoly.constant(A[r][c]) + t * B[r][c] for c in range(n)]
            for r in range(n)
        ]
        orders = [val(nested_minor(M, i)) for i in range(1, n + 1)]
        if orders[j - 1] == 1 and all(
            orders[i - 1] == 0 for i in range(1, n + 1) if i != j
        ):
            return M


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gln_palette_matches_divisor_orders(n):
    rng = random.Random(40 + n)
    space = builtin_space("gln", n)
    for j in range(2, n + 1):
        for _ in range(3):
            M = random_transversal_curve(rng, n, j)
            h_orders = [val(nested_minor(M, i)) for i in range(1, n + 1)] + [0]
            observed = tuple(
                int(h_orders[i - 1] - h_orders[i]) for i in range(1, n + 1)
            )
            assert observed == space.palette[j - 2][1]


# --- fixtures ------------------------------------------------------------------------


def test_fixture_names():
    assert set(fixture_names()) == {
        "gl2_fig1_fan",
        "gl2_line_curve",
        "torus_line_curve",
    }
    with pytest.raises(KeyError):
        reference_fixture("nonexistent")


def test_reference_fans_validate():
    fan = reference_fixture("gl2_fig1_fan")
    assert validate_colored_fan(fan).ok


def test_reference_curves_balance():
    for name in ("gl2_line_curve", "torus_line_curve"):
        fixture = reference_fixture(name)
        assert isinstance(fixture, CurveFixture)
        rays = branch_rays(fixture.space, fixture.branches)
        wf = assemble(fixture.space, rays, fixture.colored_weights)
        assert wf == fixture.expected
        assert check_balancing(wf).balanced
        assert check_balancing(fixture.expected).balanced


def test_gl2_line_curve_expected_fan():
    fixture = reference_fixture("gl2_line_curve")
    assert fixture.expected.rays == (((-1, -1), 1), ((1, 0), 2))
    assert fixture.expected.colored_weights == ((0, 1),)


def test_torus_line_fixture_rays():
    fixture = reference_fixture("torus_line_curve")
    assert fixture.expected.rays == (
        ((-1, -1), 1),
        ((0, 1), 1),
        ((1, 0), 1),
    )
    assert fixture.expected.colored_weights == ()


def test_sl2u_family_balances_for_all_small_parameters():
    for d in range(1, 11):
        for e in range(0, d + 1):
            wf = sl2u_family(d, e)
            assert check_balancing(wf).balanced, (d, e)


def test_sl2u_family_structure():
    wf = sl2u_family(5, 2)
    assert wf.rays == (((-1,), 5), ((1,), 3))
    assert wf.colored_weights == ((0, 2),)
    with pytest.raises(ValueError):
        sl2u_family(0, 0)
    with pytest.raises(ValueError):
        sl2u_family(3, 4)


# --- symbolic semi-invariants -----------------------------------------------------


def test_character_functions_on_diagonal_gln_branches():
    # on a diagonal matrix in Cartan form, evaluating the basis functions
    # reads off the tropical coordinates directly
    from sphertrop.catalog import character_function
    from sphertrop.tropicalize import CurveBranch, trop_point

    rng = random.Random(55)
    for n in (2, 3):
        space = builtin_space("gln", n)
        for _ in range(10):
            exps = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            M = [
                [PuiseuxPoly.t_power(exps[i]) if i == j else PuiseuxPoly.zero() for j in range(n)]
                for i in range(n)
            ]
            branch = CurveBranch.from_matrix(M)
            coords = trop_point(space, branch).coords
            for i in range(n):
                num, den = character_function(space, i)(branch)
                assert num.val() - den.val() == coords[i]


def test_character_functions_torus_and_sl2u():
    from sphertrop.catalog import character_function
    from sphertrop.tropicalize import CurveBranch

    t = PuiseuxPoly.t_power(1)
    torus2 = builtin_space("torus", 2)
    branch = CurveBranch((t**2, PuiseuxPoly.t_power(-1)))
    assert character_function(torus2, 0)(branch) == (t**2, PuiseuxPoly.one())
    assert character_function(torus2, 1)(branch) == (PuiseuxPoly.t_power(-1), PuiseuxPoly.one())
    sl2u = builtin_space("sl2_u")
    assert character_function(sl2u, 0)(CurveBranch((t, t**3))) == (t**3, PuiseuxPoly.one())
    with pytest.raises(IndexError):
        character_function(torus2, 2)
