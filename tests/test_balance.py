import random
import time
import warnings
from fractions import Fraction

import pytest

from sphertrop.balance import (
    WeightedRayFan,
    assemble,
    check_balancing,
    residual_vector,
    solve_colored_weights,
)
from sphertrop.catalog import builtin_space
from sphertrop.lattice import Cone, matrix_rank, primitive, signed_basis
from sphertrop.luna_vust import SphericalSpace

from helpers import random_balanced_fan

GL2 = builtin_space("gln", 2)
SL2U = builtin_space("sl2_u")
TORUS2 = builtin_space("torus", 2)


def gl2_reference_fan():
    return WeightedRayFan(GL2, (((-1, -1), 1), ((1, 0), 2)), ((0, 1),))


# --- assembly -------------------------------------------------------------------


def test_assemble_reference_example():
    wf = assemble(GL2, [((1, 0), 2), ((-1, -1), 1)], [(0, 1)])
    assert wf.rays == (((-1, -1), 1), ((1, 0), 2))
    assert wf.colored_weights == ((0, 1),)


def test_assemble_merges_equal_rays():
    wf = assemble(TORUS2, [((1, 0), 2), ((1, 0), 3)])
    assert wf.rays == (((1, 0), 5),)


def test_assemble_empty():
    wf = assemble(TORUS2, [])
    assert wf.rays == () and wf.colored_weights == ()
    assert check_balancing(wf).balanced


def test_assemble_drops_zero_weight_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wf = assemble(SL2U, [((-1,), 3), ((1,), 0)], [(0, 3)])
    assert wf.rays == (((-1,), 3),)
    assert any("weight zero" in str(w.message) for w in caught)


BAD_RAYS = [(TORUS2, (2, 4), "is not primitive"), (GL2, (-1, 1), "is outside the valuation cone")]


def test_assemble_rejects_bad_rays():
    """A bad ray with a positive total fails WeightedRayFan's own check."""
    for space, ray, message in BAD_RAYS:
        with pytest.raises(ValueError, match=message):
            assemble(space, [(ray, 1)])
        with pytest.raises(ValueError, match=message):
            WeightedRayFan(space, ((ray, 1),))


def test_assemble_drops_a_bad_ray_of_zero_total():
    for space, ray, _ in BAD_RAYS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wf = assemble(space, [(ray, 0), (ray, 0)])
        assert wf.rays == ()
        warning = "ray %r has weight zero and is dropped from the fan" % (ray,)
        assert [str(w.message) for w in caught] == [warning]


def test_assemble_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="negative multiplicity -1"):
        assemble(TORUS2, [((1, 0), 2), ((1, 0), -1)])


def test_assemble_rejects_negative_colored_contribution():
    """Merging would hide it: 3 + (-2) is a valid weight 1."""
    rays = [((1, 0), 2), ((-1, -1), 1)]
    assert assemble(GL2, rays, [(0, 0), (0, 1)]).colored_weights == ((0, 1),)
    with pytest.raises(ValueError, match="negative multiplicity -2 for color 0"):
        assemble(GL2, rays, [(0, 3), (0, -2)])


def test_non_integer_weights_and_indices_are_rejected_not_truncated():
    """``int`` would truncate: 3/2 against -1 would read as balanced, 1.9 as 1."""
    torus1 = builtin_space("torus", 1)
    for weight in (Fraction(3, 2), 1.9):
        with pytest.raises(ValueError, match="not an integer"):
            assemble(torus1, [((1,), weight), ((-1,), 1)])
        with pytest.raises(ValueError, match="not an integer"):
            WeightedRayFan(torus1, (((1,), weight),), ())
        with pytest.raises(ValueError, match="not an integer"):
            assemble(GL2, [((1, 0), 2), ((-1, -1), 1)], [(0, weight)])
        with pytest.raises(ValueError, match="not an integer"):
            WeightedRayFan(GL2, (), ((0, weight),))
        with pytest.raises(ValueError, match="not an integer"):
            assemble(GL2, [], [(weight - 1, 1)])
        with pytest.raises(ValueError, match="not an integer"):
            WeightedRayFan(GL2, (), ((weight - 1, 1),))
    # an integer held as a Fraction or a float is that integer
    wf = assemble(torus1, [((1,), Fraction(4, 2)), ((-1,), 2.0)])
    assert wf.rays == (((-1,), 2), ((1,), 2)) and check_balancing(wf).balanced
    assert all(type(m) is int for _, m in wf.rays)


def test_weighted_fan_invariants():
    with pytest.raises(ValueError):
        WeightedRayFan(GL2, (((1, 0), 0),), ())
    with pytest.raises(ValueError):
        WeightedRayFan(GL2, (((1, 0), 1), ((1, 0), 1)), ())
    with pytest.raises(KeyError):
        WeightedRayFan(GL2, (), ((4, 1),))
    with pytest.raises(ValueError):
        WeightedRayFan(GL2, (), ((0, -1),))


# --- balancing ------------------------------------------------------------------


def test_check_balancing_reference_curve():
    report = check_balancing(gl2_reference_fan())
    assert report.residual == (0, 0)
    assert report.balanced
    assert report.quotient_residual == (0,)
    assert report.per_character == (("chi1", 0), ("chi2", 0))


def test_check_balancing_torus_line():
    wf = WeightedRayFan(TORUS2, (((-1, -1), 1), ((0, 1), 1), ((1, 0), 1)), ())
    assert check_balancing(wf).balanced


def test_check_balancing_sl2u_example():
    wf = assemble(SL2U, [((-1,), 3), ((1,), 2)], [(0, 1)])
    report = check_balancing(wf)
    assert report.residual == (0,) and report.balanced


def test_check_balancing_unbalanced_witness():
    wf = WeightedRayFan(GL2, (((1, 0), 1),), ())
    report = check_balancing(wf)
    assert report.residual == (1, 0)
    assert not report.balanced


# --- pairing form ------------------------------------------------------------------


def test_pairing_residual_examples():
    balanced = check_balancing(gl2_reference_fan())
    assert balanced.per_character == (("chi1", 0), ("chi2", 0))
    unbalanced = check_balancing(WeightedRayFan(GL2, (((1, 0), 1),), ()))
    assert unbalanced.per_character == (("chi1", 1), ("chi2", 0))


def test_pairing_reconstructs_residual():
    rng = random.Random(31)
    for _ in range(50):
        wf = random_balanced_fan(rng, builtin_space("gln", rng.choice([2, 3])))
        report = check_balancing(wf)
        assert tuple(label for label, _ in report.per_character) == wf.space.character_basis_labels
        assert tuple(pairing for _, pairing in report.per_character) == residual_vector(wf)


# --- quotient balancing ---------------------------------------------------------------


def test_quotient_balancing_examples():
    assert check_balancing(gl2_reference_fan()).quotient_residual == (0,)
    torus_fan = WeightedRayFan(TORUS2, (((1, 0), 1),), ())
    assert check_balancing(torus_fan).quotient_residual == residual_vector(torus_fan) == (1, 0)
    unbalanced = WeightedRayFan(GL2, (((1, 0), 1),), ())
    assert check_balancing(unbalanced).quotient_residual == (1,)


def test_balanced_implies_quotient_balanced():
    rng = random.Random(32)
    for _ in range(150):
        space = builtin_space("gln", rng.choice([2, 3]))
        wf = random_balanced_fan(rng, space)
        report = check_balancing(wf)
        assert report.balanced
        assert all(a == 0 for a in report.quotient_residual)


def test_colored_terms_lie_in_projection_kernel():
    for space in (GL2, builtin_space("gln", 3), SL2U):
        for j, (_, v) in enumerate(space.palette):
            report = check_balancing(WeightedRayFan(space, (), ((j, 3),)))
            assert report.residual == tuple(3 * a for a in v)
            assert all(a == 0 for a in report.quotient_residual)


# --- colored weight solver --------------------------------------------------------------


def test_solver_examples():
    assert solve_colored_weights(GL2, (((1, 0), 2), ((-1, -1), 1))) == ((0, 1),)
    assert solve_colored_weights(TORUS2, (((1, 0), 1), ((-1, 0), 1))) == ()
    assert solve_colored_weights(TORUS2, (((1, 0), 1),)) is None
    assert solve_colored_weights(SL2U, (((-1,), 3), ((1,), 2))) == ((0, 1),)


def test_solver_infeasible_cases():
    # residual not in the palette span
    assert solve_colored_weights(GL2, (((1, 1), 1),)) is None
    # needs a negative weight
    assert solve_colored_weights(GL2, (((-1, -1), 1), ((1, 0), 1))) is None


def test_solver_solution_balances():
    rng = random.Random(33)
    found = 0
    while found < 40:
        space = builtin_space("gln", rng.choice([2, 3]))
        wf = random_balanced_fan(rng, space)
        solution = solve_colored_weights(space, wf.rays)
        if solution is None:
            continue
        found += 1
        rebuilt = WeightedRayFan(space, wf.rays, solution)
        assert check_balancing(rebuilt).balanced


def _plane_space(palette):
    """A space of the palette's rank whose valuation cone is everything."""
    rank = len(palette[0])
    colors = tuple(("C%d" % (j + 1), tuple(v)) for j, v in enumerate(palette))
    return SphericalSpace("plane", rank, Cone(signed_basis(rank), rank), colors)


def _compositions(total, parts):
    """All nonnegative integer tuples of the given length and sum, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _reference_weights(palette, rays, limit):
    """Exhaustive search by total up to ``limit``, each total in lex order."""
    target = tuple(-sum(m * v[i] for v, m in rays) for i in range(len(palette[0])))
    for total in range(limit + 1):
        for weights in _compositions(total, len(palette)):
            combo = tuple(sum(w * v[i] for w, v in zip(weights, palette)) for i in range(len(target)))
            if combo == target:
                return tuple(enumerate(weights))
    return None


def test_solver_matches_exhaustive_search():
    rng = random.Random(34)
    seen = {"dependent": 0, "independent": 0, "feasible": 0, "unbounded": 0}
    for _ in range(240):
        rank, ncolors = rng.randint(1, 2), rng.randint(1, 3)
        palette = []
        while len(palette) < ncolors:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(v):
                palette.append(v)
        if rng.random() < 0.5:
            combo = tuple(sum(rng.randint(0, 3) * v[i] for v in palette) for i in range(rank))
            rays = [primitive(tuple(-a for a in combo))] if any(combo) else []
        else:
            rays = {}
            for _ in range(rng.randint(1, 2)):
                v = tuple(rng.randint(-2, 2) for _ in range(rank))
                if any(v):
                    rays[primitive(v)[0]] = rng.randint(1, 3)
            rays = sorted(rays.items())
        # the total is bounded exactly when no nonzero nonnegative combination of colors is zero
        bounded = Cone(palette, rank).is_pointed()
        expected = _reference_weights(palette, rays, 40)
        solution = solve_colored_weights(_plane_space(palette), rays)
        if expected is not None or solution is None:
            assert solution == expected, (palette, rays)
        else:
            # a least solution the reference cannot reach: it must balance
            weights = [w for _, w in solution]
            target = tuple(-sum(m * v[i] for v, m in rays) for i in range(rank))
            combo = tuple(sum(w * v[i] for w, v in zip(weights, palette)) for i in range(rank))
            assert min(weights) >= 0 and sum(weights) > 40 and combo == target, (palette, rays)
        seen["independent" if matrix_rank(palette) == len(palette) else "dependent"] += 1
        seen["feasible"] += expected is not None
        seen["unbounded"] += not bounded
    assert min(seen.values()) >= 30, seen


def test_solver_total_may_exceed_ray_mass():
    space = _plane_space(((1, -1), (-1, 2), (1, 2)))
    assert solve_colored_weights(space, (((-2, 1), 1),)) == ((0, 3), (1, 1), (2, 0))


@pytest.mark.parametrize(
    "palette, rays, expected",
    [
        (((-2,), (1,)), (((1,), 1),), ((0, 1), (1, 1))),
        (((-1,), (2,), (-2,)), (((-1,), 1),), ((0, 1), (1, 1), (2, 0))),
    ],
)
def test_solver_total_may_exceed_ray_mass_when_unbounded(palette, rays, expected):
    # some nonnegative combination of colors is zero, so the projection leaves the total unbounded
    assert solve_colored_weights(_plane_space(palette), rays) == expected


@pytest.mark.parametrize("palette", [((2, 0), (4, 0)), ((2, 0, 0), (4, 0, 0), (0, 0, 4))])
def test_solver_lattice_test_answers_parity_blocked_palette_at_once(palette):
    # 2 w_1 + 4 w_2 = 10^6 + 1 has rational but no integer solutions
    space = _plane_space(palette)
    ray = (-1,) + (0,) * (len(palette[0]) - 1)
    started = time.perf_counter()
    assert solve_colored_weights(space, ((ray, 10**6 + 1),)) is None
    assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("weight", [120, 10**6])
@pytest.mark.parametrize("palette", [((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (1, 1), (2, 1))])
def test_solver_infeasible_probes_are_fast(palette, weight):
    space = _plane_space(palette)
    started = time.perf_counter()
    assert solve_colored_weights(space, (((1, 0), weight),)) is None
    assert time.perf_counter() - started < 0.05


# --- scaling and splitting invariances -----------------------------------------------------


def test_weight_scaling_preserves_balance():
    wf = gl2_reference_fan()
    for c in (2, 3, 7):
        scaled = WeightedRayFan(
            GL2,
            tuple((v, c * m) for v, m in wf.rays),
            tuple((j, c * m) for j, m in wf.colored_weights),
        )
        assert check_balancing(scaled).balanced


def test_split_ray_weights_preassembly():
    merged = assemble(GL2, [((1, 0), 2), ((-1, -1), 1)], [(0, 1)])
    split = assemble(GL2, [((1, 0), 1), ((1, 0), 1), ((-1, -1), 1)], [(0, 1)])
    assert merged == split
    assert check_balancing(merged) == check_balancing(split)
