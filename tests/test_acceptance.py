"""Acceptance suite: one test per criterion, exact tolerances, pass/fail lines.

Every check is exact (integer/rational equality); the only tolerances are
the stated wall-clock budgets, measured with a monotonic clock around the
computation under test.
"""

import random
import time

from sphertrop.balance import (
    WeightedRayFan,
    assemble,
    check_balancing,
    residual_vector,
    solve_colored_weights,
)
from sphertrop.catalog import builtin_space, fixture_doc, sl2u_family
from sphertrop.documents import curve_from_doc, fan_from_doc
from sphertrop.luna_vust import star, validate_colored_fan
from sphertrop.puiseux import PuiseuxPoly, determinant
from sphertrop.tropicalize import branch_rays, invariant_factor_valuations

from fuzz import mutations
from helpers import (
    cartan_valuations_by_elimination,
    random_balanced_fan,
    random_nonsingular_matrix,
    random_unit_matrix,
    random_valuation_ray,
)


def _report(number, text):
    print("ACCEPTANCE %d PASS: %s" % (number, text))


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), PuiseuxPoly.zero()) for j in range(n)]
        for i in range(n)
    ]


def test_criterion_1_gl2_end_to_end():
    started = time.monotonic()
    space, branches, _, _ = curve_from_doc(fixture_doc("gl2_line_curve"))
    rays = branch_rays(space, branches)
    assert sorted(rays) == [((-1, -1), 1), ((1, 0), 2)]
    fan = assemble(space, rays, [(0, 1)])  # colored weight 1 on E=(-1,1)
    assert space.palette[0][1] == (-1, 1)
    report = check_balancing(fan)
    assert report.residual == (0, 0)
    assert report.balanced
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, "took %.3fs" % elapsed
    _report(1, "gl2 line curve gives rays (1,0)x2, (-1,-1)x1; residual (0,0) [%.3fs]" % elapsed)


def test_criterion_2_sl2u_family():
    started = time.monotonic()
    checks = 0
    for d in range(1, 11):
        for e in range(0, d + 1):
            fan = sl2u_family(d, e)
            report = check_balancing(fan)
            assert report.residual == (0,), (d, e)
            checks += 1
    elapsed = time.monotonic() - started
    assert checks == 65  # all pairs 1 <= d <= 10, 0 <= e <= d
    assert elapsed < 1.0, "took %.3fs" % elapsed
    _report(2, "sl2_u family balances for all %d (d, e) pairs [%.3fs]" % (checks, elapsed))


def _criterion3_samples():
    rng = random.Random(2024)
    samples = []
    while len(samples) < 200:
        n = rng.randint(1, 4)
        samples.append(random_nonsingular_matrix(rng, n))
    return rng, samples


def test_criterion_3_invariant_factor_oracle_equivalence():
    rng, samples = _criterion3_samples()
    started = time.monotonic()
    for M in samples:
        mu = invariant_factor_valuations(M)
        assert mu == cartan_valuations_by_elimination(M)
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert sum(mu) == determinant(M).val()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "took %.1fs" % elapsed
    _report(3, "minor- and elimination-based invariant factors agree on %d samples [%.1fs]" % (len(samples), elapsed))


def test_criterion_4_integral_unit_invariance():
    rng, samples = _criterion3_samples()
    checked = 0
    for M in samples:
        n = len(M)
        mu = invariant_factor_valuations(M)
        g = random_unit_matrix(rng, n)
        h = random_unit_matrix(rng, n)
        assert invariant_factor_valuations(_mat_mul(g, M)) == mu
        assert invariant_factor_valuations(_mat_mul(M, h)) == mu
        checked += 1
        if checked >= 110:
            break
    assert checked >= 100
    _report(4, "invariant factors unchanged under %d left/right unit multiplications" % (2 * checked))


def test_criterion_5_fan_axioms_and_fuzzer():
    fan = fan_from_doc(fixture_doc("gl2_fig1_fan"))
    assert validate_colored_fan(fan).ok
    rng = random.Random(77)
    muts = mutations(fan, rng, 55)
    assert len(muts) >= 50
    by_kind = {}
    for kind, mutated, expected in muts:
        report = validate_colored_fan(mutated)
        assert not report.ok, kind
        assert expected & report.axioms(), (kind, expected, report.axioms())
        by_kind.setdefault(kind, 0)
        by_kind[kind] += 1
    assert set(by_kind) == {
        "drop_face",
        "duplicate_cone",
        "overlap",
        "color_outside_region",
        "zero_color_vector",
    }
    _report(5, "fig-1 fan validates; %d mutations across %d classes rejected with the named axiom" % (len(muts), len(by_kind)))


def test_criterion_6_quotient_balancing_implication():
    rng = random.Random(3001)
    checked = 0
    while checked < 1000:
        space = builtin_space("gln", 2 if checked % 2 == 0 else 3)
        fan = random_balanced_fan(rng, space)
        report = check_balancing(fan)
        assert report.balanced
        assert all(a == 0 for a in report.quotient_residual)
        checked += 1
    _report(6, "quotient residual vanished on %d exactly balanced gln(2)/gln(3) configurations" % checked)


def _random_possibly_unbalanced_fan(rng, space):
    nrays = rng.randint(1, 3)
    rays = {}
    for _ in range(nrays):
        rays[random_valuation_ray(rng, space)] = rng.randint(1, 4)
    colored = tuple(
        (j, rng.randint(0, 3)) for j in range(len(space.palette)) if rng.random() < 0.6
    )
    return WeightedRayFan(space, tuple(rays.items()), colored)


def test_criterion_7_pairing_form_equivalence():
    rng = random.Random(4001)
    fixtures = [
        curve_from_doc(fixture_doc("gl2_line_curve"))[3],
        curve_from_doc(fixture_doc("torus_line_curve"))[3],
        sl2u_family(3, 1),
    ]
    fans = list(fixtures)
    spaces = [
        builtin_space("gln", 2),
        builtin_space("gln", 3),
        builtin_space("torus", 2),
        builtin_space("sl2_u"),
    ]
    for _ in range(500):
        fans.append(_random_possibly_unbalanced_fan(rng, rng.choice(spaces)))
    balanced_seen = unbalanced_seen = 0
    for fan in fans:
        pairings_vanish = all(pairing == 0 for _, pairing in check_balancing(fan).per_character)
        residual_zero = all(a == 0 for a in residual_vector(fan))
        assert pairings_vanish == residual_zero
        balanced_seen += residual_zero
        unbalanced_seen += not residual_zero
    assert balanced_seen >= 3 and unbalanced_seen >= 100
    _report(7, "pairing form vanished on all basis characters iff residual zero, on %d fans" % len(fans))


def test_criterion_8_torus_line_sanity():
    space, branches, _, _ = curve_from_doc(fixture_doc("torus_line_curve"))
    rays = branch_rays(space, branches)
    assert sorted(rays) == [((-1, -1), 1), ((0, 1), 1), ((1, 0), 1)]
    fan = assemble(space, rays, [])
    assert space.palette == ()
    report = check_balancing(fan)
    assert report.residual == (0, 0) and report.balanced
    _report(8, "line in the 2-torus tropicalizes to (1,0),(0,1),(-1,-1) with weight 1 and balances")


def test_criterion_9_star_quotient():
    fan = fan_from_doc(fixture_doc("gl2_fig1_fan"))
    member = next(m for m in fan.cones if m.cone.generators == ((-1, -1),))
    result = star(fan, member)
    assert result.kernel_basis == ((1, 1),)
    assert result.space.rank == 1
    gens = sorted(m.cone.generators for m in result.fan.cones)
    assert gens == [(), ((1,),)]  # the origin and the nonnegative ray
    _report(9, "star at ray(-1,-1) is {0, R>=0} in the rank-1 quotient with kernel span (1,1)")


def test_solver_recovers_paper_colored_weight():
    # companion check: the diagnostic solver reproduces the colored weight 1
    assert solve_colored_weights(
        builtin_space("gln", 2), (((1, 0), 2), ((-1, -1), 1))
    ) == ((0, 1),)
