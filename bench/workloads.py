"""Seeded document generators for the three benchmark workloads.

Every item is JSON document text plus the answer its construction implies,
computed with :mod:`bench.oracle` and never with sphertrop.  Inputs depend
only on the workload name and the seed, so the same seed gives
byte-identical documents on every version of the program.

A workload is an endless sequence of rounds.  Each round holds one item per
entry of the workload's class schedule, so class shares are exact in every
run that measures whole rounds.  The shares are chosen so that the median
and the 90th percentile of item latency each fall inside one class, not on
the boundary between two.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction

from . import oracle
from .oracle import gln_palette, merged_rays, poly_add, poly_mul, poly_text, primitive

Item = namedtuple("Item", "cls kind text expect")


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _vec(v):
    return [str(a) for a in v]


def _weights(labels, colored):
    return [{"color": labels[j], "weight": str(m)} for j, m in colored]


# ---------------------------------------------------------------------------
# space/1 documents written from the catalog definitions


def gln_space_doc(n):
    gens = [(-1,) * n] + [(1,) * k + (0,) * (n - k) for k in range(1, n + 1)]
    return {
        "format": "space/1",
        "name": "gln%d" % n,
        "rank": n,
        "family": "gln",
        "family_size": n,
        "valuation_cone": {"generators": [_vec(g) for g in gens]},
        "palette": [
            {"label": "E%d" % (j + 2), "vector": _vec(v)} for j, v in enumerate(gln_palette(n))
        ],
        "characters": ["chi%d" % (i + 1) for i in range(n)],
    }


def _unit_vectors(n):
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return units + [tuple(-a for a in e) for e in units]


def torus_space_doc(n):
    return {
        "format": "space/1",
        "name": "torus%d" % n,
        "rank": n,
        "family": "torus",
        "family_size": n,
        "valuation_cone": {"generators": [_vec(g) for g in sorted(_unit_vectors(n))]},
        "palette": [],
        "characters": ["x%d" % (i + 1) for i in range(n)],
    }


SL2U_SPACE = {
    "format": "space/1",
    "name": "sl2u",
    "rank": 1,
    "family": "sl2_u",
    "family_size": 2,
    "valuation_cone": {"generators": [["-1"], ["1"]]},
    "palette": [{"label": "E1", "vector": ["1"]}],
    "characters": ["chi1"],
}

# Rank 2, whole-plane valuation cone, four linearly dependent colors in the
# closed first quadrant.  Colors never cancel, so a target with a negative
# coordinate is infeasible, and a feasible target's minimal colored total is
# at most the ray mass the solver searches up to.
DEP4_PALETTE = ((1, 0), (0, 1), (1, 1), (1, 2))
DEP4_SPACE = {
    "format": "space/1",
    "name": "dep4",
    "rank": 2,
    "family": None,
    "family_size": None,
    "valuation_cone": {"generators": [_vec(g) for g in sorted(_unit_vectors(2))]},
    "palette": [{"label": "C%d" % (j + 1), "vector": _vec(v)} for j, v in enumerate(DEP4_PALETTE)],
    "characters": ["chi1", "chi2"],
}


# ---------------------------------------------------------------------------
# gln_curves: branches g diag(t^a) h with integral units g, h


def _const(c):
    return {Fraction(0): Fraction(c)} if c else {}


def _integral_unit(rng, n):
    """A signed row permutation of L U plus t-adic noise on a checkerboard.

    L and U are the lower and upper triangular matrices of ones, so
    ``(L U)[p][j] = min(p, j) + 1`` has determinant 1 and every entry is
    integral: the matrix is a unit over the valuation ring and leaves
    invariant factors unchanged.  The signed permutation, the noise
    coefficients and the exponents vary with the seed; the fixed shape keeps
    the work per item within a few percent across seeds.
    """
    out = []
    for p in rng.sample(range(n), n):
        sign = rng.choice((-1, 1))
        row = []
        for j in range(n):
            entry = _const(sign * (min(p, j) + 1))
            if (p + j) % 2 == 0:
                entry = poly_add(entry, {Fraction(1): Fraction(rng.choice((-2, -1, 1, 2)))})
            row.append(entry)
        out.append(row)
    return out


def _gln_branch(rng, n, step):
    """A matrix with invariant-factor valuations ``a``, and the vector ``a``.

    ``a`` is a shuffled arithmetic progression of n distinct integers with
    the given step, so the ray multiplicity gcd(a) equals the step.
    """
    start = rng.randint(-n + 1, 0)
    a = [step * (start + i) for i in range(n)]
    rng.shuffle(a)
    g = _integral_unit(rng, n)
    h = [list(col) for col in zip(*_integral_unit(rng, n))]
    gd = [[poly_mul(g[i][k], {Fraction(a[k]): Fraction(1)}) for k in range(n)] for i in range(n)]
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = poly_add(acc, poly_mul(gd[i][k], h[k][j]))
            row.append(poly_text(acc))
        matrix.append(row)
    return matrix, a


def gln_curve(rng, n):
    branches = []
    contributions = []
    for step in (1, 2):
        matrix, a = _gln_branch(rng, n, step)
        branches.append({"matrix": matrix})
        contributions.append(oracle.gln_branch_ray(a))
    colored = [(j, rng.randint(0, 2)) for j in range(n - 1)]
    labels = ["E%d" % (j + 2) for j in range(n - 1)]
    rays = merged_rays(contributions)
    doc = {
        "format": "curve/1",
        "space": {"builtin": "gln%d" % n},
        "branches": branches,
        "colored_weights": _weights(labels, colored),
    }
    expect = {
        "rays": rays,
        "colored": tuple(colored),
        "residual": oracle.residual(rays, colored, gln_palette(n), n),
    }
    return "curve", doc, expect


# ---------------------------------------------------------------------------
# fan_validate: orthant fans, the gl2 fig-1 fan and colored gln2 fans


def _signed_permutation(rng, n, shear):
    """A signed permutation matrix, after one elementary row operation with
    +-1 when ``shear`` is set.

    Coordinates stay small: the cost of exact cone arithmetic grows with
    them, and a steady cost per class keeps the latency percentiles steady
    across seeds.
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if shear:
        i, j = rng.sample(range(n), 2)
        m[i][j] = rng.choice((-1, 1))
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[j] * m[i][perm[j]] for j in range(n)] for i in range(n)]


def _orthant_fan(rng, n):
    """The 3^n cones of the coordinate orthant fan, moved by a unimodular map.

    The torus valuation cone is all of R^n, so the image is again a complete
    colorless simplicial fan; decoloring returns it unchanged.  torus3 fans
    hold the p90 and the slowest items of their workload, so they get no
    shear: their cost then varies only with member order and the variant.
    """
    u = _signed_permutation(rng, n, shear=n < 3)
    cols = [tuple(u[i][j] for i in range(n)) for j in range(n)]
    members = []
    for signs in itertools.product((-1, 0, 1), repeat=n):
        gens = sorted(tuple(s * a for a in cols[i]) for i, s in enumerate(signs) if s)
        members.append((gens, []))
    return members


FIG1_MEMBERS = [
    ([], []),
    ([(-1, -1)], []),
    ([(1, 0)], []),
    ([(1, 1)], []),
    ([(-1, -1), (1, 0)], []),
    ([(1, 0), (1, 1)], []),
]

E2 = (-1, 1)


def _small_primitive(rng, accept):
    while True:
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        if any(v) and primitive(v)[1] == 1 and accept(v):
            return v


def _colored_gln2_fan(rng):
    """Members {0}, s, r, cone(s, r) and the colored cone (cone(r, E2), {E2}).

    r = (p, q) with p > |q| lies inside the valuation cone mu1 >= mu2 and
    below the diagonal; s lies in the valuation cone clockwise of r.  Then
    cone(r, E2) meets the valuation cone in cone(r, (1, 1)) (CC1, CC2
    hold), its only supported proper faces are {0} and r (CF1), and the
    relative interiors of the members are disjoint (CF2).
    """
    r = _small_primitive(rng, lambda v: v[0] > abs(v[1]))
    s = _small_primitive(rng, lambda v: v[0] >= v[1] and v[0] * r[1] - v[1] * r[0] > 0)
    members = [([], []), ([s], []), ([r], []), (sorted([s, r]), []), (sorted([r, E2]), ["E2"])]
    decolored = [[], [s], [r], [(1, 1)], sorted([s, r]), sorted([r, (1, 1)])]
    return members, [s, r], decolored


def _fan_doc(space, members):
    return {
        "format": "fan/1",
        "space": {"builtin": space},
        "cones": [{"generators": [_vec(g) for g in gens], "colors": colors} for gens, colors in members],
    }


def _valid_fan(rng, space, members, rays, decolored):
    members = list(members)
    rng.shuffle(members)
    expect = {"axioms": [], "cones": members, "star_ray": rng.choice(rays), "decolored": decolored}
    return "fan", _fan_doc(space, members), expect


def _invalid_fan(rng, space, members, rank, kinds):
    """Break exactly one axiom: drop a face (CF1), duplicate or overlap a
    member (CF2), or add a color whose ray misses the valuation cone (CC2).
    """
    members = list(members)
    kind = rng.choice(kinds)
    if kind == "drop":
        faces = [m for m in members if len(m[0]) < rank]
        members.remove(rng.choice(faces))
        axiom = "CF1"
    elif kind == "duplicate":
        members.append(rng.choice(members))
        axiom = "CF2"
    elif kind == "overlap":
        widest = [gens for gens, colors in members if len(gens) == rank and not colors]
        gens = rng.choice(widest)
        ray = primitive(tuple(sum(col) for col in zip(*gens)))[0]
        members.append(([ray], []))
        axiom = "CF2"
    else:
        members.append(([E2], ["E2"]))
        axiom = "CC2"
    rng.shuffle(members)
    return "fan", _fan_doc(space, members), {"axioms": [axiom]}


def torus_fan(rng, n, valid):
    members = _orthant_fan(rng, n)
    space = "torus%d" % n
    if not valid:
        # torus3 variants all have 28 members, so the class that holds p90
        # has a steady cost; dropped faces are covered on the smaller fans
        kinds = ("duplicate", "overlap") if n == 3 else ("drop", "duplicate", "overlap")
        return _invalid_fan(rng, space, members, n, kinds)
    rays = [gens[0] for gens, _ in members if len(gens) == 1]
    return _valid_fan(rng, space, members, rays, [gens for gens, _ in members])


def gln2_fan(rng, valid):
    if rng.random() < 0.25:
        members = FIG1_MEMBERS
        rays = [(-1, -1), (1, 0), (1, 1)]
        decolored = [gens for gens, _ in FIG1_MEMBERS]
    else:
        members, rays, decolored = _colored_gln2_fan(rng)
    if not valid:
        return _invalid_fan(rng, "gln2", members, 2, ("drop", "duplicate", "overlap", "color_outside"))
    return _valid_fan(rng, "gln2", members, rays, decolored)


# ---------------------------------------------------------------------------
# small_docs: line curves, sl2u family, balanced fans, colored-weight solver


def _nonzero(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2, 3)))


def _term(c, q):
    return {Fraction(q): Fraction(c)}


def gl2_line_curve(rng):
    """Scaled and reparametrized gl2 line: rays (1,0) x 2m and (-1,-1) x k."""
    m, k = rng.choice((1, 1, 2)), rng.choice((1, 1, 2))
    branches = []
    for q in (m, -k):
        a, b, c, e = (_nonzero(rng) for _ in range(4))
        rows = [[poly_add(_term(a, q), _const(e)), _term(b, q)], [_term(c, q), {}]]
        branches.append({"matrix": [[poly_text(p) for p in row] for row in rows]})
    w = rng.randint(0, 3)
    rays = merged_rays([((1, 0), 2 * m), ((-1, -1), k)])
    doc = {
        "format": "curve/1",
        "space": gln_space_doc(2),
        "branches": branches,
        "colored_weights": _weights(["E2"], [(0, w)]),
    }
    expect = {"rays": rays, "colored": ((0, w),), "residual": oracle.residual(rays, [(0, w)], [E2], 2)}
    return "curve", doc, expect


def torus2_line_curve(rng):
    """Line branches with valuations (m, 0), (0, k) and (-j, -j)."""
    m, k, j = (1, 1, 1) if rng.random() < 0.5 else [rng.randint(1, 2) for _ in range(3)]
    c = [_nonzero(rng) for _ in range(9)]
    coords = [
        (_term(c[0], m), poly_add(_const(c[1]), _term(c[2], m))),
        (poly_add(_const(c[3]), _term(c[4], k)), _term(c[5], k)),
        (_term(c[6], -j), poly_add(_const(c[7]), _term(c[8], -j))),
    ]
    rays = merged_rays([((1, 0), m), ((0, 1), k), ((-1, -1), j)])
    doc = {
        "format": "curve/1",
        "space": torus_space_doc(2),
        "branches": [{"coords": [poly_text(p) for p in pair]} for pair in coords],
        "colored_weights": [],
    }
    return "curve", doc, {"rays": rays, "colored": (), "residual": oracle.combine(rays, 2)}


def sl2u_family_doc(rng):
    """Member (d, e) of the sl2u family: rays -1 x d, +1 x (d - e), color x e."""
    d = rng.randint(1, 10)
    e = rng.randint(0, d)
    rays = [((-1,), d)] + ([((1,), d - e)] if d > e else [])
    doc = {
        "format": "weighted-fan/1",
        "space": SL2U_SPACE,
        "rays": [{"vector": _vec(v), "weight": str(w)} for v, w in rays],
        "colored_weights": _weights(["E1"], [(0, e)]),
    }
    return "family", doc, {"de": (d, e), "residual": oracle.residual(rays, [(0, e)], [(1,)], 1)}


def _random_ray(rng, n, in_cone):
    while True:
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        if any(v):
            p = primitive(v)[0]
            if in_cone(p):
                return p


def balanced_fan(rng, family, n):
    """Random rays and colored weights closed by one ray carrying the residual."""
    if family == "gln":
        space, palette, in_cone = gln_space_doc(n), gln_palette(n), oracle.in_gln_cone
    else:
        space, palette, in_cone = torus_space_doc(n), [], lambda v: True
    labels = [entry["label"] for entry in space["palette"]]
    while True:
        rays = [(_random_ray(rng, n, in_cone), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        colored = [(j, rng.randint(0, 3)) for j in range(len(palette))]
        rest = oracle.residual(rays, colored, palette, n)
        if any(rest):
            closing, mult = primitive(tuple(-a for a in rest))
            if not in_cone(closing):
                continue
            rays.append((closing, mult))
        rays = merged_rays(rays)
        break
    doc = {
        "format": "weighted-fan/1",
        "space": space,
        "rays": [{"vector": _vec(v), "weight": str(w)} for v, w in rays],
        "colored_weights": _weights(labels, colored),
    }
    return "balance", doc, {"residual": (0,) * n}


INFEASIBLE_MASS = 7


def solve_doc(rng, feasible):
    """Rays for the colored-weight solver on the dep4 space.

    Feasible: the rays cancel a random color combination of total at most 5.
    Infeasible: every ray has a positive first coordinate, so the target
    needs a negative one.  The solver searches every color combination up to
    the ray mass before it answers None, so a fixed mass fixes that work.
    """
    if feasible:
        while True:
            w = [rng.randint(0, 2) for _ in DEP4_PALETTE]
            target = oracle.combine(zip(DEP4_PALETTE, w), 2)
            if not any(target):
                continue
            first = (_random_ray(rng, 2, lambda v: True), rng.randint(1, 3))
            rest = tuple(-t - first[1] * a for t, a in zip(target, first[0]))
            rays = [first] + ([primitive(rest)] if any(rest) else [])
            rays = merged_rays(rays)
            if all(m <= 12 for _, m in rays):
                break
        expect = {"target": target, "total": sum(w), "palette": DEP4_PALETTE}
    else:
        while True:
            rays = merged_rays(
                ((1, rng.randint(-1, 1)), rng.randint(1, 10)) for _ in range(rng.randint(1, 2))
            )
            if sum(m * (abs(v[0]) + abs(v[1])) for v, m in rays) == INFEASIBLE_MASS:
                break
        expect = {"target": None}
    doc = {
        "format": "weighted-fan/1",
        "space": DEP4_SPACE,
        "rays": [{"vector": _vec(v), "weight": str(m)} for v, m in rays],
        "colored_weights": [],
    }
    return "solve", doc, expect


# ---------------------------------------------------------------------------
# workloads

CLASSES = {
    "gln3": lambda rng: gln_curve(rng, 3),
    "gln4": lambda rng: gln_curve(rng, 4),
    "gln5": lambda rng: gln_curve(rng, 5),
    "torus2_valid": lambda rng: torus_fan(rng, 2, True),
    "torus2_invalid": lambda rng: torus_fan(rng, 2, False),
    "torus3_valid": lambda rng: torus_fan(rng, 3, True),
    "torus3_invalid": lambda rng: torus_fan(rng, 3, False),
    "gln2_valid": lambda rng: gln2_fan(rng, True),
    "gln2_invalid": lambda rng: gln2_fan(rng, False),
    "gl2_line": gl2_line_curve,
    "torus2_line": torus2_line_curve,
    "sl2u_family": sl2u_family_doc,
    "balanced_gln2": lambda rng: balanced_fan(rng, "gln", 2),
    "balanced_gln3": lambda rng: balanced_fan(rng, "gln", 3),
    "balanced_torus2": lambda rng: balanced_fan(rng, "torus", 2),
    "solve_feasible": lambda rng: solve_doc(rng, True),
    "solve_infeasible": lambda rng: solve_doc(rng, False),
}

# One round per workload, in item order.  Ordered by cost, the classes
# put the median and p90 here:
#   gln_curves    40/40/20 gln3/gln4/gln5: p50 a quarter into gln4, p90
#                 mid-gln5;
#   fan_validate  4/5/7/5/3/1 of 25 gln2_invalid/torus2_invalid/gln2_valid/
#                 torus2_valid/torus3_invalid/torus3_valid: p50 mid-gln2_valid,
#                 p90 mid-torus3_invalid, and the one torus3_valid (validate,
#                 star and decolor of 27 cones) is the top 4%;
#   small_docs    a fifth solver calls, three of them infeasible: p50 inside
#                 the gl2 line curves, p90 inside the infeasible solver calls.
SCHEDULES = {
    "gln_curves": ("gln3", "gln4", "gln3", "gln4", "gln5"),
    "fan_validate": (
        "gln2_invalid", "torus2_invalid", "gln2_valid", "torus2_valid", "torus3_invalid",
        "gln2_valid", "torus2_invalid", "gln2_valid", "torus2_valid", "gln2_invalid",
        "torus2_invalid", "gln2_valid", "torus3_invalid", "torus2_valid", "torus3_valid",
        "gln2_invalid", "gln2_valid", "torus2_invalid", "torus2_valid", "gln2_valid",
        "torus2_invalid", "gln2_invalid", "torus3_invalid", "gln2_valid", "torus2_valid",
    ),
    "small_docs": (
        "gl2_line", "sl2u_family", "balanced_gln2", "gl2_line", "solve_infeasible",
        "torus2_line", "gl2_line", "balanced_torus2", "solve_feasible", "balanced_gln3",
        "gl2_line", "sl2u_family", "solve_infeasible", "torus2_line", "balanced_gln2",
        "gl2_line", "gl2_line", "torus2_line", "balanced_gln3", "solve_infeasible",
    ),
}

# The catalog spaces each workload resolves; set-up time resolves them once.
SPACES = {
    "gln_curves": ("gln3", "gln4", "gln5"),
    "fan_validate": ("torus2", "torus3", "gln2"),
    "small_docs": ("sl2u", "gln2", "gln3", "torus2"),
}


def rounds(workload, seed):
    """Endless rounds of items for ``workload``, determined by ``seed`` alone."""
    rng = random.Random("%s/%d" % (workload, seed))
    schedule = SCHEDULES[workload]
    while True:
        out = []
        for cls in schedule:
            kind, doc, expect = CLASSES[cls](rng)
            out.append(Item(cls, kind, _dumps(doc), expect))
        yield out
