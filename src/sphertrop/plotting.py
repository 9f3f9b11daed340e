"""Deterministic SVG rendering of rank-1 and rank-2 fans.

The drawing shows the valuation cone as a shaded region, the palette as
labeled dots, and rays with their weight labels.  All geometry is computed
with exact rationals and formatted with fixed-point integer arithmetic, so
identical input yields identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import dot

BOX = 200  # half-width of the drawing area in user units
UNIT = 55  # pixels per lattice step
RAY_LEN = 165
AXIS_LEN = 190


class PlotError(ValueError):
    """The fan cannot be drawn (unsupported rank)."""


def _fmt(x):
    """Fixed-point decimal with two digits, via integer arithmetic only."""
    x = Fraction(x)
    scaled = x * 100
    # round half away from zero, deterministically
    n, d = scaled.numerator, scaled.denominator
    if n >= 0:
        i = (2 * n + d) // (2 * d)
    else:
        i = -((-2 * n + d) // (2 * d))
    sign = "-" if i < 0 else ""
    i = abs(i)
    return "%s%d.%02d" % (sign, i // 100, i % 100)


def _pt(v):
    """Map a rational plane point to SVG coordinates (y axis flipped)."""
    return "%s,%s" % (_fmt(v[0]), _fmt(-v[1]))


def _stretch(v, length):
    m = max(abs(Fraction(a)) for a in v)
    return tuple(Fraction(a) * length / m for a in v)


def _region_polygon(cone):
    """Vertices of cone intersect box, counterclockwise, each once; None if zero.

    Reentrant polygon clipping (Sutherland and Hodgman, Commun. ACM 17,
    1974): the box is clipped by each half-plane ``n . x >= 0`` in turn.  A
    vertex on the clip line is kept, and an edge adds its crossing point
    only where it passes strictly from one side to the other, so no vertex
    repeats and a ray or a line comes out as its segment.
    """
    if cone.is_zero:
        return None
    corners = [(BOX, BOX), (-BOX, BOX), (-BOX, -BOX), (BOX, -BOX)]
    polygon = [tuple(map(Fraction, c)) for c in corners]
    for n in cone.inequalities:
        kept = []
        for p, q in zip(polygon, polygon[1:] + polygon[:1]):
            a, b = dot(n, p), dot(n, q)
            if a >= 0:
                kept.append(p)
            if a * b < 0:
                cut = tuple(u + (v - u) * a / (a - b) for u, v in zip(p, q))
                if cut not in kept:  # a segment, traversed both ways, crosses twice
                    kept.append(cut)
        polygon = kept
    return polygon


def _svg(parts):
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%d %d %d %d">'
        % (-BOX - 20, -BOX - 20, 2 * BOX + 40, 2 * BOX + 40)
    )
    return header + "\n" + "\n".join(parts) + "\n</svg>\n"


def _text(x, y, content, size=13, anchor="middle", fill="#000000"):
    return (
        '<text x="%s" y="%s" font-size="%d" font-family="monospace" '
        'text-anchor="%s" fill="%s">%s</text>' % (_fmt(x), _fmt(-y), size, anchor, fill, content)
    )


def _member_lines(cones):
    """One grey line per member generator; a rank-1 generator lies on the x axis."""
    tips = [_stretch((*g, 0)[:2], RAY_LEN - 25) for cc in cones for g in cc.cone.generators]
    return [
        '<line x1="0" y1="0" x2="%s" y2="%s" stroke="#bbbbbb" stroke-width="2"/>' % (_fmt(x), _fmt(-y))
        for x, y in tips
    ]


def render_rank2(space, rays, colored_weights=(), cones=()):
    parts = []
    region = _region_polygon(space.valuation_cone)
    if region:
        parts.append(
            '<polygon points="%s" fill="#f4c7c3" stroke="none"/>'
            % " ".join(_pt(p) for p in region)
        )
    for i in range(-3, 4):
        for j in range(-3, 4):
            parts.append(
                '<circle cx="%s" cy="%s" r="1.5" fill="#555555"/>'
                % (_fmt(Fraction(i * UNIT)), _fmt(Fraction(-j * UNIT)))
            )
    parts.append('<line x1="%d" y1="0" x2="%d" y2="0" stroke="#888888"/>' % (-AXIS_LEN, AXIS_LEN))
    parts.append('<line x1="0" y1="%d" x2="0" y2="%d" stroke="#888888"/>' % (-AXIS_LEN, AXIS_LEN))

    parts += _member_lines(cones)

    for v, m in rays:
        tip = _stretch(v, RAY_LEN)
        parts.append(
            '<line x1="0" y1="0" x2="%s" y2="%s" stroke="#000000" stroke-width="3"/>'
            % (_fmt(tip[0]), _fmt(-tip[1]))
        )
        label_at = tuple(a * Fraction(6, 10) for a in tip)
        offset = (label_at[0] + 12, label_at[1] + 12)
        parts.append(_text(offset[0], offset[1], str(m)))

    for idx, (label, v) in enumerate(space.palette):
        dot_at = tuple(Fraction(a * UNIT) for a in v)
        parts.append(
            '<circle cx="%s" cy="%s" r="4" fill="#3355cc"/>' % (_fmt(dot_at[0]), _fmt(-dot_at[1]))
        )
        weight = dict(colored_weights).get(idx)
        text = label if weight is None else "%s (%s)" % (label, weight)
        parts.append(_text(dot_at[0], dot_at[1] + 14, text, fill="#3355cc"))
    return _svg(parts)


def render_rank1(space, rays, colored_weights=(), cones=()):
    parts = []
    region = space.valuation_cone
    lo = -AXIS_LEN if region.contains((-1,)) else 0
    hi = AXIS_LEN if region.contains((1,)) else 0
    parts.append(
        '<rect x="%d" y="-6" width="%d" height="12" fill="#f4c7c3"/>' % (lo, hi - lo)
    )
    parts.append('<line x1="%d" y1="0" x2="%d" y2="0" stroke="#888888"/>' % (-AXIS_LEN, AXIS_LEN))
    for i in range(-3, 4):
        parts.append(
            '<line x1="%d" y1="-4" x2="%d" y2="4" stroke="#555555"/>' % (i * UNIT, i * UNIT)
        )
    parts += _member_lines(cones)
    for v, m in rays:
        tip = RAY_LEN if v[0] > 0 else -RAY_LEN
        parts.append(
            '<line x1="0" y1="0" x2="%d" y2="0" stroke="#000000" stroke-width="3"/>' % tip
        )
        parts.append(_text(Fraction(tip * 6, 10), Fraction(20), str(m)))
    for idx, (label, v) in enumerate(space.palette):
        x = Fraction(v[0] * UNIT)
        parts.append('<circle cx="%s" cy="0" r="4" fill="#3355cc"/>' % _fmt(x))
        weight = dict(colored_weights).get(idx)
        text = label if weight is None else "%s (%s)" % (label, weight)
        parts.append(_text(x, Fraction(-18), text, fill="#3355cc"))
    return _svg(parts)


def render_fan(space, rays=(), colored_weights=(), cones=()):
    """SVG text for a weighted or plain fan; ranks 1 and 2 only."""
    if space.rank == 2:
        return render_rank2(space, rays, colored_weights, cones)
    if space.rank == 1:
        return render_rank1(space, rays, colored_weights, cones)
    raise PlotError("plotting supports rank 1 and 2, got rank %d" % space.rank)
