"""Shared random generators (all seeded by callers) and reference implementations for the test suite."""

import itertools
import json
import re
from fractions import Fraction

from sphertrop import lattice, luna_vust
from sphertrop.catalog import builtin_space
from sphertrop.documents import DocumentError
from sphertrop.lattice import (
    Cone,
    dot,
    is_zero_vector,
    mat_vec,
    primitive,
    quotient_projection,
    relint_common_point,
    relint_meets,
    saturation_basis,
    signed_basis,
    vec_scale,
)
from sphertrop.luna_vust import ColoredCone, ColoredFan, SphericalSpace, StarResult, ValidationReport
from sphertrop.puiseux import INF, PuiseuxParseError, PuiseuxPoly, _from_ratios, determinant, divexact
from sphertrop.tropicalize import OffSpaceError

EXPONENTS = [Fraction(n, 2) for n in range(-4, 5)]


def random_poly(rng, min_terms=1, max_terms=3, allow_zero=False):
    if allow_zero and rng.random() < 0.15:
        return PuiseuxPoly.zero()
    nterms = rng.randint(min_terms, max_terms)
    terms = []
    for _ in range(nterms):
        coeff = 0
        while coeff == 0:
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((rng.choice(EXPONENTS), coeff))
    p = PuiseuxPoly(terms)
    if p.is_zero and not allow_zero:
        return random_poly(rng, min_terms, max_terms, allow_zero)
    return p


def fraction_terms(pairs):
    """``{exponent: coefficient}`` of the sum of ``(exponent, coefficient)`` pairs.

    The reference for PuiseuxPoly's int representation: plain Fraction
    arithmetic on a dict, with zero coefficients dropped.
    """
    out = {}
    for q, c in pairs:
        out[Fraction(q)] = out.get(Fraction(q), 0) + Fraction(c)
    return {q: c for q, c in out.items() if c}


def fraction_sum(a, b):
    return fraction_terms([*a.items(), *b.items()])


def fraction_product(a, b):
    return fraction_terms((qa + qb, ca * cb) for qa, ca in a.items() for qb, cb in b.items())


def permutation_determinant(M):
    """Leibniz sum over all permutations: the definitional determinant."""
    n = len(M)
    out = PuiseuxPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = PuiseuxPoly.one()
        for i in range(n):
            term = term * M[i][perm[i]]
        out = out + term if sign == 1 else out - term
    return out


def _row_reduce(rows):
    """Reduced row echelon form over Fractions, pivots left unscaled.

    Returns ``(work, pivots)``: row ``i`` of ``work`` has its pivot in column
    ``pivots[i]`` and every other row is zero there.
    """
    work = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][col]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


# --- the reference Puiseux text parser --------------------------------------

# denominators need a nonzero digit
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")
_TPART_RE = re.compile(r"^t(\^(?P<plain>[+-]?\d+)|\^\((?P<paren>[+-]?\d+(/0*[1-9]\d*)?)\))?$")
_ZERO_DENOMINATOR_RE = re.compile(r"/0+(?!\d)")


def _split_terms(text):
    """Split on top-level + and -, keeping signs; parens protect exponents."""
    chunks = []
    sign = 1
    pending = False
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PuiseuxParseError("unbalanced ')' in %r" % text)
        if ch in "+-" and depth == 0 and not _sign_binds_right(current):
            if any(c.strip() for c in current):
                chunks.append((sign, "".join(current).strip()))
                current = []
                sign = 1
                pending = False
            elif pending:
                raise PuiseuxParseError("consecutive signs in %r" % text)
            sign *= -1 if ch == "-" else 1
            pending = True
            continue
        current.append(ch)
    if depth != 0:
        raise PuiseuxParseError("unbalanced '(' in %r" % text)
    if any(c.strip() for c in current):
        chunks.append((sign, "".join(current).strip()))
    elif pending or not chunks:
        raise PuiseuxParseError("dangling sign or empty input in %r" % text)
    return chunks


def _sign_binds_right(current):
    # A sign directly after '^' belongs to an exponent (`t^-1`), not a term split.
    for ch in reversed(current):
        if ch.isspace():
            continue
        return ch == "^"
    return False


def reference_parse_puiseux(text):
    """Parse the text format for Puiseux polynomials, one character at a time.

    The term splitter ``parse_puiseux`` had before it became one
    regular-expression match; kept as the reference it is compared with.

    Accepts sums of terms ``c``, ``c*t^e``, ``t^e``, ``t``, with ``c`` a
    rational ``p/q`` and ``e`` an integer or a parenthesized rational;
    ``t^-1`` is tolerated as a shorthand for ``t^(-1)``.
    """
    if not isinstance(text, str):
        raise PuiseuxParseError("expected a string, got %r" % (text,))
    stripped = text.strip()
    if not stripped:
        raise PuiseuxParseError("empty input")
    terms = []
    for sign, chunk in _split_terms(stripped):
        coeff = sign, 1
        tpart = None
        pieces = [piece.strip() for piece in chunk.split("*")]
        if any(not piece for piece in pieces):
            raise PuiseuxParseError("empty factor in term %r" % chunk)
        if len(pieces) > 2:
            raise PuiseuxParseError("too many factors in term %r" % chunk)
        if _ZERO_DENOMINATOR_RE.search(chunk):
            raise PuiseuxParseError("zero denominator in term %r" % chunk)
        if len(pieces) == 2:
            coeff_text, tpart = pieces
            if not _RATIONAL_RE.match(coeff_text):
                raise PuiseuxParseError("bad coefficient %r" % coeff_text)
            coeff = _ratio(coeff_text, sign)
        else:
            piece = pieces[0]
            if _RATIONAL_RE.match(piece):
                coeff = _ratio(piece, sign)
            else:
                tpart = piece
        if tpart is None:
            terms.append((0, 1, *coeff))
            continue
        m = _TPART_RE.match(tpart)
        if not m:
            raise PuiseuxParseError("bad t-power %r" % tpart)
        terms.append((*_ratio(m.group("plain") or m.group("paren") or "1"), *coeff))
    return _from_ratios(terms)


def _ratio(text, sign=1):
    """``(numerator, denominator)`` of a ``p`` or ``p/q`` literal, times ``sign``."""
    num, _, den = text.partition("/")
    return sign * int(num), int(den or 1)


# --- the reference document number reader -----------------------------------

_RATIONAL_TEXT = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def reference_rational_from_str(text):
    """The document number reader before it became one match with groups.

    It checks the text with ``_RATIONAL_TEXT`` and parses it again with
    ``Fraction``; kept as the reference ``documents.rational_from_str`` is
    compared with.
    """
    if not isinstance(text, str) or not _RATIONAL_TEXT.match(text):
        raise DocumentError("bad rational %r (expected 'p' or 'p/q')" % (text,))
    return Fraction(text)


def reference_integer_from_str(text):
    value = reference_rational_from_str(text)
    if value.denominator != 1:
        raise DocumentError("expected an integer, got %r" % (text,))
    return int(value)


# --- the reference document writer ------------------------------------------


def reference_dumps(doc):
    """The document writer before it was written out: ``documents.dumps``
    gives the same text on every document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def random_matrix(rng, n, allow_zero=True):
    return [[random_poly(rng, allow_zero=allow_zero) for _ in range(n)] for _ in range(n)]


def random_nonsingular_matrix(rng, n):
    from sphertrop.puiseux import determinant

    while True:
        M = random_matrix(rng, n)
        if not determinant(M).is_zero:
            return M


def random_unit_matrix(rng, n):
    """Matrix with valuation >= 0 entries and invertible reduction at t=0.

    Built as a unimodular integer matrix plus positive-valuation noise, so
    the constant-term determinant is +-1 and never vanishes.
    """
    base = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            base[i][k] += c * base[j][k]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = PuiseuxPoly.constant(base[i][j])
            if rng.random() < 0.5:
                exp = rng.choice([Fraction(1, 2), 1, 2])
                coeff = rng.randint(-3, 3)
                entry = entry + PuiseuxPoly.t_power(exp, coeff)
            row.append(entry)
        out.append(row)
    return out


def random_cone(rng, dim, max_gens=None):
    max_gens = max_gens or dim + 2
    k = rng.randint(1, max_gens)
    gens = []
    for _ in range(k):
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if not is_zero_vector(v):
            gens.append(v)
    if not gens:
        return random_cone(rng, dim, max_gens)
    return Cone(gens, dim)


def cc1_by_construction(space, cc):
    """The colored-cone axiom CC1 by its definition.

    The cone equals the cone generated by its nonzero color vectors together
    with its intersection with the valuation cone; the intersection comes
    from a dual description, and the two cones are compared as sets.
    """
    sigma = cc.cone
    colors = [space.palette_vector(j) for j in sorted(cc.colors)]
    intersection = sigma.intersect(space.valuation_cone)
    regenerated = Cone(
        [v for v in colors if not is_zero_vector(v)] + list(intersection.generators), space.rank
    )
    return regenerated == sigma


def memos():
    """Every memo of ``lattice`` and ``luna_vust``: each ``lru_cache``."""
    return [f for module in (lattice, luna_vust) for f in vars(module).values() if hasattr(f, "cache_info")]


def clear_memos():
    """Empty every memo of ``lattice`` and ``luna_vust``, as in a fresh process."""
    for memo in memos():
        memo.cache_clear()


def orthant_fan(n, columns=None):
    """The 3^n cones of the coordinate orthant fan of torus n, with the
    unit vectors replaced by ``columns`` when given."""
    columns = columns or signed_basis(n)[::2]
    members = []
    for signs in itertools.product((-1, 0, 1), repeat=n):
        gens = [vec_scale(s, columns[i]) for i, s in enumerate(signs) if s]
        members.append(ColoredCone(Cone(gens, n)))
    return ColoredFan(builtin_space("torus", n), tuple(members))


def reference_validate_colored_cone(space, cc, member=None):
    """The colored-cone axioms decided on every call, from ``cc``'s own cone.

    ``validate_colored_cone`` before it read its report from one memo of
    member facts; kept as the reference that memo is compared with.
    """
    report = ValidationReport()
    sigma = cc.cone
    if sigma.ambient_dim != space.rank:
        report.add(member, "SPACE", "cone dimension %d != rank %d" % (sigma.ambient_dim, space.rank))
        return report
    color_vectors = [space.palette_vector(j) for j in sorted(cc.colors)]

    for j in sorted(cc.colors):
        if is_zero_vector(space.palette_vector(j)):
            report.add(member, "CC3", "color %s maps to the zero vector" % space.palette[j][0])

    pointed = sigma.is_pointed()
    color_rays = {primitive(v)[0] for v in color_vectors if not is_zero_vector(v)}
    if pointed and not (
        all(sigma.contains(v) for v in color_vectors)
        and all(g in color_rays or space.valuation_cone.contains(g) for g in sigma.generators)
    ):
        report.add(
            member,
            "CC1",
            "cone is not generated by its colors plus its valuation-cone part",
        )

    if not relint_meets(sigma, space.valuation_cone):
        report.add(member, "CC2", "relative interior misses the valuation cone")

    if not pointed:
        report.add(member, "SC", "cone contains a line (not strictly convex)")
    return report


def reference_colored_faces(space, cc):
    """The colored faces face by face: each face ``Cone.faces`` lists, with
    the selected colors whose vectors it contains."""
    return [
        ColoredCone(face, frozenset(j for j in cc.colors if face.contains(space.palette_vector(j))))
        for face in cc.cone.faces()
    ]


def reference_validate_colored_fan(fan):
    """The fan axioms checked in member order on every call, each member's
    axioms and colored faces decided face by face.

    ``validate_colored_fan`` before it kept the member sets found valid;
    kept as the reference its reports are compared with.
    """
    space = fan.space
    report = ValidationReport()
    for problem in space.invariant_problems():
        report.add(None, "SPACE", problem)
    members = set(fan.cones)
    missing = ValidationReport()
    for i, cc in enumerate(fan.cones):
        sub = reference_validate_colored_cone(space, cc, member=i)
        report.extend(sub)
        for face in reference_colored_faces(space, cc) if sub.ok else ():
            if relint_meets(face.cone, space.valuation_cone) and face not in members:
                missing.add(
                    i,
                    "CF1",
                    "colored face %r with colors %s is missing from the fan"
                    % (list(face.cone.generators), sorted(face.colors)),
                )
    report.extend(missing)
    for i, j in itertools.combinations(range(len(fan.cones)), 2):
        witness = relint_common_point(fan.cones[i].cone, fan.cones[j].cone, space.valuation_cone)
        if witness is not None:
            report.add(
                i,
                "CF2",
                "relative interiors of members %d and %d share the point (%s) inside the valuation cone"
                % (i, j, ", ".join(map(str, witness))),
                witness=witness,
            )
    return report


def reference_decolor(fan):
    """The decolored fan of a valid fan, clipped member by member in member
    order: ``decolor``'s body before its memo."""
    space = fan.space
    collected = dict.fromkeys(
        face for cc in fan.cones for face in cc.cone.intersect(space.valuation_cone).faces()
    )
    faces = sorted(collected, key=lambda c: c.sort_key())
    return ColoredFan(space, tuple(ColoredCone(c, frozenset()) for c in faces))


def reference_star(fan, cc, restriction_colors=None):
    """The star of the member ``cc`` of a valid fan, its members read in
    member order: ``star``'s body before its memo."""
    space = fan.space
    survivors = frozenset(restriction_colors or ())
    vs = list(cc.cone.generators)
    projection = tuple(quotient_projection(vs, space.rank))
    kernel = tuple(saturation_basis(vs, space.rank))
    m = len(projection)
    new_palette = []
    index_map = {}
    for j in sorted(survivors):
        label, v = space.palette[j]
        index_map[j] = len(new_palette)
        new_palette.append((label, mat_vec(projection, v)))
    quotient_space = SphericalSpace(
        name="%s/star" % space.name,
        rank=m,
        valuation_cone=Cone([mat_vec(projection, g) for g in space.valuation_cone.generators], m),
        palette=tuple(new_palette),
        character_basis_labels=tuple("q%d" % (i + 1) for i in range(m)),
    )
    members = {}
    for member in fan.cones:
        if cc in reference_colored_faces(space, member):
            image_cone = Cone([mat_vec(projection, g) for g in member.cone.generators], m)
            image_colors = frozenset(index_map[j] for j in member.colors & survivors)
            members.setdefault(ColoredCone(image_cone, image_colors))
    quotient_fan = ColoredFan(quotient_space, sorted(members, key=lambda c: c.sort_key()))
    return StarResult(projection, kernel, quotient_space, quotient_fan)


def subset_face_generators(cone):
    """Generator tuples of all faces, sorted as ``Cone.faces`` sorts them.

    The definitional enumeration: every subset of the facet normals cuts
    out the face of the generators tight on all of its normals.
    """
    normals = cone.inequalities
    gen_sets = set()
    for r in range(len(normals) + 1):
        for subset in itertools.combinations(normals, r):
            gen_sets.add(
                tuple(g for g in cone.generators if all(dot(n, g) == 0 for n in subset))
            )
    faces = [Cone(gens, cone.ambient_dim) for gens in gen_sets]
    faces.sort(key=lambda c: c.sort_key())
    return [f.generators for f in faces]


def random_valuation_ray(rng, space):
    """Primitive integer ray inside the valuation cone of a catalog space."""
    while True:
        if space.family == "gln":
            entries = sorted((rng.randint(-4, 4) for _ in range(space.rank)), reverse=True)
            v = tuple(entries)
        else:
            v = tuple(rng.randint(-4, 4) for _ in range(space.rank))
        if is_zero_vector(v):
            continue
        p, _ = primitive(v)
        if space.valuation_cone.contains(p):
            return p


def random_balanced_fan(rng, space, max_rays=3):
    """Exactly balanced weighted fan: random rays/colors, last ray solves.

    Follows the construction the balancing properties call for: pick rays
    and colored weights freely, then close the configuration with one extra
    ray carrying the residual (kept only when it lands in the valuation
    cone, else retry).
    """
    from sphertrop.balance import assemble, residual_vector, WeightedRayFan

    while True:
        nrays = rng.randint(1, max_rays)
        rays = {}
        for _ in range(nrays):
            rays[random_valuation_ray(rng, space)] = rng.randint(1, 4)
        colored = []
        for j in range(len(space.palette)):
            if rng.random() < 0.7:
                colored.append((j, rng.randint(0, 3)))
        partial = WeightedRayFan(space, tuple(rays.items()), tuple(colored))
        residual = residual_vector(partial)
        if all(a == 0 for a in residual):
            return partial
        closing = tuple(-a for a in residual)
        p, multiplier = primitive(closing)
        if not space.valuation_cone.contains(p):
            continue
        contributions = list(rays.items()) + [(p, multiplier)]
        return assemble(space, contributions, colored)


def nested_minor(matrix, i):
    """Determinant of the lower-right block starting at row/column i (1-based).

    The ratios h_i / h_{i+1} of these minors are the character basis of
    gln(n): the oracle for its palette and for its tropicalization map.
    """
    return determinant([row[i - 1 :] for row in matrix[i - 1 :]])


def cartan_valuations_by_elimination(M):
    """Independent reference for ``tropicalize.invariant_factor_valuations``.

    Division-free Gaussian elimination, always pivoting on an entry of least
    valuation: each step replaces the remaining block by ``pivot * a_ij -
    a_i0 * a_0j``.  That block is a nonzero scalar c times the Schur
    complement over the fraction field, whose least-valuation pivots keep
    every multiplier integral at t=0, so their valuations are the invariant
    factors, in increasing order; val(c) is the sum of the earlier pivot
    valuations.  Unlike the fraction-free elimination behind
    ``invariant_factor_valuations``, it never divides.  Raises
    :class:`OffSpaceError` on singular matrices.
    """
    work = [list(row) for row in M]
    increasing = []
    scale = 0
    while work:
        best = INF
        for i, row in enumerate(work):
            for j, a in enumerate(row):
                v = a.val()
                if v < best:
                    best, pi, pj = v, i, j
        if best == INF:
            raise OffSpaceError("matrix is singular: point is off the general linear group")
        increasing.append(best - scale)
        scale += best
        top = work.pop(pi)
        pivot = top.pop(pj)
        rest = []
        for row in work:
            lead = row.pop(pj)
            rest.append([pivot * a - lead * b for a, b in zip(row, top)])
        work = rest
    return tuple(reversed(increasing))


def reference_pivots(M):
    """Reference for ``puiseux._pivots``: the same Bareiss elimination on PuiseuxPoly entries.

    Pivots on the first entry of least valuation, row-major, and divides
    each updated entry by the previous pivot with ``divexact``; returns
    ``(sign, pivots)`` with ``sign`` the parity of the row and column swaps.
    """
    n = len(M)
    work = [list(row) for row in M]
    sign = 1
    pivots = []
    for k in range(n):
        best = INF
        for i in range(k, n):
            for j in range(k, n):
                v = work[i][j].val()
                if v < best:
                    best, pi, pj = v, i, j
        if best == INF:
            break
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            sign = -sign
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            row, lead = work[i], work[i][k]
            for j in range(k + 1, n):
                num = pivot * row[j]
                if lead and work[k][j]:
                    num = num - lead * work[k][j]
                if pivots:
                    num = divexact(num, pivots[-1])
                    if num is None:
                        raise ArithmeticError("non-exact Bareiss division")
                row[j] = num
        pivots.append(pivot)
    return sign, pivots
