"""Independent exact arithmetic and answer checks for benchmark items.

Nothing here imports sphertrop.  The generators in :mod:`bench.workloads`
use these helpers to write documents whose answers are known by
construction, and :func:`check` compares the program's results with those
answers.  A check returns ``None`` on success and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# integer vectors


def primitive(v):
    """``(p, m)`` with ``v == m * p``, ``p`` primitive and ``m >= 1``."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(a // g for a in v), g


def leading_positive(v):
    for a in v:
        if a:
            return tuple(v) if a > 0 else tuple(-x for x in v)
    return tuple(v)


def combine(pairs, dim):
    """``sum(m * v)`` over ``(v, m)`` pairs, as an integer vector."""
    total = [0] * dim
    for v, m in pairs:
        for i, a in enumerate(v):
            total[i] += m * a
    return tuple(total)


def mat_vec(rows, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def det(rows):
    """Integer determinant by Laplace expansion (the matrices here are tiny)."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def maximal_minors_gcd(rows):
    """gcd of the maximal minors of a full-row-rank integer matrix."""
    m, n = len(rows), len(rows[0])
    g = 0

    def choose(start, picked):
        nonlocal g
        if len(picked) == m:
            g = gcd(g, det([[row[j] for j in picked] for row in rows]))
            return
        for j in range(start, n):
            choose(j + 1, picked + [j])

    choose(0, [])
    return g


def gln_palette(n):
    """Color vectors ``E_j = e_j - e_{j-1}`` (j = 2..n) of the gln catalog space."""
    out = []
    for j in range(1, n):
        v = [0] * n
        v[j] = 1
        v[j - 1] = -1
        out.append(tuple(v))
    return out


def in_gln_cone(v):
    return all(a >= b for a, b in zip(v, v[1:]))


# ---------------------------------------------------------------------------
# Puiseux polynomials as {exponent: coefficient} dicts of Fractions


def poly_add(a, b):
    out = dict(a)
    for q, c in b.items():
        out[q] = out.get(q, 0) + c
    return {q: c for q, c in out.items() if c}


def poly_mul(a, b):
    out = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return {q: c for q, c in out.items() if c}


def poly_text(p):
    """Text in the documented Puiseux format: ``c``, ``c*t^(q)`` terms."""
    if not p:
        return "0"
    parts = []
    for i, q in enumerate(sorted(p)):
        c = Fraction(p[q])
        body = str(abs(c)) if q == 0 else "%s*t^(%s)" % (abs(c), Fraction(q))
        if i == 0:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# expected answers


def gln_branch_ray(a):
    """Ray and multiplicity of ``g diag(t^a) h`` for integral units g, h."""
    return primitive(tuple(sorted(a, reverse=True)))


def merged_rays(contributions):
    """Sum multiplicities of equal rays; sorted like a weighted fan stores them."""
    totals = {}
    for v, m in contributions:
        totals[v] = totals.get(v, 0) + m
    return tuple(sorted((v, m) for v, m in totals.items() if m))


def residual(rays, colored, palette, dim):
    """``sum m_r v_r + sum m_c v_c`` with the harness's own arithmetic."""
    return combine(list(rays) + [(palette[j], m) for j, m in colored], dim)


# ---------------------------------------------------------------------------
# checks of program results against the expectations


def _vec(doc_vector):
    return tuple(Fraction(a) for a in doc_vector)


def _cone_set(fan):
    return sorted((tuple(cc.cone.generators), tuple(sorted(cc.colors))) for cc in fan.cones)


def check_balance_report(expect, report, text):
    """``text`` is the emitted balance-report/1 document."""
    want = tuple(expect["residual"])
    if tuple(report.residual) != want:
        return "residual %r, expected %r" % (report.residual, want)
    balanced = not any(want)
    if report.balanced != balanced:
        return "balanced flag %r, expected %r" % (report.balanced, balanced)
    if balanced and any(report.quotient_residual):
        return "balanced fan has quotient residual %r" % (report.quotient_residual,)
    doc = json.loads(text)
    if doc.get("balanced") is not balanced or _vec(doc.get("residual", ())) != want:
        return "emitted balance report disagrees with the expected residual"
    return None


def check_curve(expect, result):
    fan, report, texts = result
    rays = tuple((tuple(v), m) for v, m in expect["rays"])
    if fan.rays != rays:
        return "rays %r, expected %r" % (fan.rays, rays)
    colored = tuple(tuple(p) for p in expect["colored"])
    if fan.colored_weights != colored:
        return "colored weights %r, expected %r" % (fan.colored_weights, colored)
    return check_balance_report(expect, report, texts[0])


def check_balance(expect, result):
    report, texts = result
    return check_balance_report(expect, report, texts[0])


def check_family(expect, result):
    report, matches, texts = result
    if not matches:
        return "document differs from the catalog family member %r" % (tuple(expect["de"]),)
    return check_balance_report(expect, report, texts[0])


def check_solve(expect, result):
    solution, texts = result
    feasible = json.loads(texts[0]).get("feasible")
    if expect["target"] is None:
        if solution is not None or feasible is not False:
            return "infeasible target answered %r" % (solution,)
        return None
    if solution is None or feasible is not True:
        return "feasible target answered None"
    palette = [tuple(p) for p in expect["palette"]]
    weights = dict(solution)
    if any(m < 0 for m in weights.values()):
        return "negative colored weight in %r" % (solution,)
    got = combine([(palette[j], m) for j, m in weights.items()], len(palette[0]))
    if got != tuple(expect["target"]):
        return "weights %r give %r, not the target %r" % (solution, got, tuple(expect["target"]))
    if sum(weights.values()) > expect["total"]:
        return "total %d exceeds the construction's %d" % (sum(weights.values()), expect["total"])
    return None


def check_star(expect, result):
    """Star at ray ``r``: images of the members through r under the returned projection.

    The projection itself is checked first: it must kill ``r`` and map the
    lattice onto Z^(n-1) (its maximal minors are coprime).
    """
    r = tuple(expect["star_ray"])
    n = len(r)
    proj = [tuple(row) for row in result.projection]
    if len(proj) != n - 1 or any(mat_vec(proj, r)) or maximal_minors_gcd(proj) != 1:
        return "star projection %r is not a primitive quotient by %r" % (proj, r)
    if tuple(result.kernel_basis) != (leading_positive(r),):
        return "star kernel %r, expected span of %r" % (result.kernel_basis, r)
    want = set()
    for gens, _ in expect["cones"]:
        gens = [tuple(g) for g in gens]
        if r in gens:
            images = [primitive(mat_vec(proj, g))[0] for g in gens if g != r]
            want.add((tuple(sorted(images)), ()))
    got = set(_cone_set(result.fan))
    if got != want:
        return "star cones %r, expected %r" % (sorted(got), sorted(want))
    return None


def check_fan(expect, result):
    report, star_result, decolored, texts = result
    doc = json.loads(texts[0])
    if expect["axioms"]:
        want = set(expect["axioms"])
        if report.ok or report.axioms() != want:
            return "violations %r, expected exactly %r" % (sorted(report.axioms()), sorted(want))
        return None if doc.get("valid") is False else "emitted report claims validity"
    if not report.ok:
        return "valid fan rejected: %s" % report
    if doc.get("valid") is not True:
        return "emitted report claims invalidity"
    problem = check_star(expect, star_result)
    if problem:
        return problem
    fan, fan_report = decolored
    want = sorted((tuple(tuple(g) for g in gens), ()) for gens in expect["decolored"])
    if _cone_set(fan) != want:
        return "decolored cones %r, expected %r" % (_cone_set(fan), want)
    if not fan_report.ok:
        return "decolored fan failed validation: %s" % fan_report
    return None


CHECKS = {
    "curve": check_curve,
    "balance": check_balance,
    "family": check_family,
    "solve": check_solve,
    "fan": check_fan,
}


def check(item, result):
    return CHECKS[item.kind](item.expect, result)
