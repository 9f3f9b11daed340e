"""The shaded region of a rank-2 plot is the valuation cone cut to the box."""

import random
from fractions import Fraction
from math import lcm

from sphertrop.lattice import Cone, signed_basis
from sphertrop.plotting import BOX, _region_polygon

GRID = [(x, y) for x in range(-BOX, BOX + 1, 25) for y in range(-BOX, BOX + 1, 25)]
ORIGIN = (Fraction(0), Fraction(0))


def _cones():
    """The special shapes, then seeded cones of 1-4 generators in [-5, 5]^2."""
    cones = [
        Cone((), 2),
        Cone([(1, 2)]),
        Cone([(1, 2), (-1, -2)]),
        Cone.from_inequalities([(1, -1)], 2),
        Cone(signed_basis(2), 2),
    ]
    rng = random.Random(2024)
    while len(cones) < 2005:
        gens = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        if any(g != (0, 0) for g in gens):
            cones.append(Cone(gens, 2))
    return cones


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _row(a, b, p):
    """Integer ``(a', b', c')``: ``a' x + b' y + c' >= 0`` iff ``a (x - p_x) + b (y - p_y) >= 0``."""
    row = (a, b, -a * p[0] - b * p[1])
    scale = lcm(*(Fraction(v).denominator for v in row))
    return tuple(int(v * scale) for v in row)


def _hull_rows(region):
    """Integer half-planes cutting out the convex hull of a ccw polygon or a segment."""
    edges = list(zip(region, region[1:] + region[:1]))
    rows = [_row(p[1] - q[1], q[0] - p[0], p) for p, q in edges]  # left of each edge
    if len(region) == 2:  # the segment's line, so also between its two ends
        rows += [_row(q[0] - p[0], q[1] - p[1], p) for p, q in edges]
    return rows


def _stretch(v):
    m = max(abs(a) for a in v)
    return tuple(Fraction(a * BOX, m) for a in v)


def test_region_is_the_cone_cut_to_the_box():
    shapes = {"zero": 0, "segment": 0, "polygon": 0}
    for cone in _cones():
        region = _region_polygon(cone)
        if cone.is_zero:
            assert region is None
            shapes["zero"] += 1
            continue
        assert len(set(region)) == len(region), (cone, region)
        if cone.dim() == 1:
            shapes["segment"] += 1
            ends = [_stretch(g) for g in cone.generators]
            assert set(region) == set(ends if len(ends) == 2 else [ORIGIN] + ends), (cone, region)
        else:
            shapes["polygon"] += 1
            assert len(region) >= 3, (cone, region)
            turns = [_cross(region[i - 2], region[i - 1], region[i]) for i in range(len(region))]
            assert all(t >= 0 for t in turns) and any(t > 0 for t in turns), (cone, region)
        rows = _hull_rows(region)
        inside = [x for x in GRID if all(a * x[0] + b * x[1] + c >= 0 for a, b, c in rows)]
        assert inside == [x for x in GRID if cone.contains(x)], (cone, region)
    assert shapes["zero"] == 1 and shapes["segment"] > 100 and shapes["polygon"] > 1000
