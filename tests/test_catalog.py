import random

import pytest

from sphertrop import lattice
from sphertrop.balance import check_balancing
from sphertrop.catalog import (
    FAMILIES,
    FIXTURE_FILES,
    builtin_space,
    fixture_doc,
    sl2u_family,
    space_by_id,
)
from sphertrop.documents import (
    catalog_to_doc,
    curve_from_doc,
    dumps,
    fan_from_doc,
    load_text,
    space_from_doc,
    space_to_doc,
)
from sphertrop.luna_vust import validate_colored_fan
from sphertrop.puiseux import PuiseuxPoly
from sphertrop.tropicalize import CurveBranch, OffSpaceError, branch_rays, trop_point
from sphertrop.balance import assemble

from helpers import nested_minor


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
        orders = [nested_minor(M, i).val() for i in range(1, n + 1)]
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
            h_orders = [nested_minor(M, i).val() for i in range(1, n + 1)] + [0]
            observed = tuple(
                int(h_orders[i - 1] - h_orders[i]) for i in range(1, n + 1)
            )
            assert observed == space.palette[j - 2][1]


# --- fixtures ------------------------------------------------------------------------


def test_fixture_names():
    assert FIXTURE_FILES == ("gl2_fig1_fan", "gl2_line_curve", "torus_line_curve")
    assert list(FIXTURE_FILES) == sorted(FIXTURE_FILES)  # as `catalog list` prints them
    with pytest.raises(KeyError):
        fixture_doc("nonexistent")


def test_reference_fans_validate():
    fan = fan_from_doc(fixture_doc("gl2_fig1_fan"))
    assert validate_colored_fan(fan).ok


def test_reference_curves_balance():
    for name in ("gl2_line_curve", "torus_line_curve"):
        space, branches, colored, expected = curve_from_doc(fixture_doc(name))
        wf = assemble(space, branch_rays(space, branches), colored)
        assert wf == expected
        assert check_balancing(wf).balanced
        assert check_balancing(expected).balanced


def test_gl2_line_curve_expected_fan():
    expected = curve_from_doc(fixture_doc("gl2_line_curve"))[3]
    assert expected.rays == (((-1, -1), 1), ((1, 0), 2))
    assert expected.colored_weights == ((0, 1),)


def test_torus_line_fixture_rays():
    expected = curve_from_doc(fixture_doc("torus_line_curve"))[3]
    assert expected.rays == (
        ((-1, -1), 1),
        ((0, 1), 1),
        ((1, 0), 1),
    )
    assert expected.colored_weights == ()


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


# --- the family table ---------------------------------------------------------------


def _listed(value, n):
    """A ``catalog list`` rank or palette entry at size n."""
    return {"n": n, "n-1": None if n is None else n - 1}.get(value, value)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_contract(name):
    family = FAMILIES[name]
    row = family.row
    one, t = PuiseuxPoly.one(), PuiseuxPoly.t_power(1)
    for n in (1, 2, 3) if "<n>" in row["id"] else (None,):
        space = builtin_space(name, n)
        assert space_by_id(row["id"].replace("<n>", str(n))) == space
        assert (space.family, space.rank, len(space.palette)) == (
            name,
            _listed(row["rank"], n),
            _listed(row["palette"], n),
        )
        doc = space_to_doc(space)
        assert doc["family_size"] == family.size(space.rank)
        assert space_from_doc(load_text(dumps(doc))) == space
        # ones on the diagonal of a gln matrix, t elsewhere: on every space
        arity = family.arity(space.rank)
        coords = tuple(one if i % (space.rank + 1) == 0 else t for i in range(arity))
        assert len(trop_point(space, CurveBranch(coords))) == space.rank
        with pytest.raises(OffSpaceError):
            trop_point(space, CurveBranch(coords + (one,)))


def test_catalog_list_rows_are_the_family_rows_in_order():
    assert catalog_to_doc()["spaces"] == [
        {"id": "torus<n>", "rank": "n", "palette": 0},
        {"id": "sl2u", "rank": 1, "palette": 1},
        {"id": "gln<n>", "rank": "n", "palette": "n-1"},
    ]
    assert catalog_to_doc()["spaces"] == [family.row for family in FAMILIES.values()]


def test_trop_point_on_diagonal_gln_branches():
    # on a diagonal matrix in Cartan form, the valuations of the nested
    # minor ratios h_i / h_{i+1} are the tropical coordinates
    rng = random.Random(55)
    for n in (2, 3):
        space = builtin_space("gln", n)
        for _ in range(10):
            exps = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            M = [
                [PuiseuxPoly.t_power(exps[i]) if i == j else PuiseuxPoly.zero() for j in range(n)]
                for i in range(n)
            ]
            h = [nested_minor(M, i).val() for i in range(1, n + 1)] + [0]
            coords = trop_point(space, CurveBranch.from_matrix(M))
            assert coords == tuple(h[i] - h[i + 1] for i in range(n))
