"""Finite Puiseux polynomials over the rationals with the t-adic valuation.

Field elements are finite sums ``c * t**q`` with rational exponents ``q``
and rational coefficients ``c``.  They are stored on ints: each exponent is
an int multiple of ``1/den`` and each coefficient an int numerator over one
common denominator, so sums, products and the exact quotients of the
fraction-free elimination below run on Python ints.  Infinite series are out
of scope: callers enter truncations and guarantee that the truncation order
exceeds every valuation in play.  A valuation is an int on an integral
exponent grid and a ``Fraction`` otherwise; that of the zero polynomial is
``math.inf``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, inf, lcm

INF = inf


class PuiseuxParseError(ValueError):
    """Text does not describe a Puiseux polynomial."""


class PuiseuxPoly:
    """Immutable finite Puiseux polynomial.

    ``_ints`` is a tuple of ``(k, m)`` int pairs sorted by ``k``, one for each
    term ``m/_scale * t^(k/_den)``, with ``m`` nonzero.  ``_den`` is the least
    common denominator of the exponents and ``_scale`` the least positive
    common denominator of the coefficients (both 1 for zero), so the form is
    canonical: equal polynomials have equal ``(_den, _scale, _ints)``.
    """

    __slots__ = ("_den", "_scale", "_ints")

    def __new__(cls, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = [(Fraction(q), Fraction(c)) for q, c in items]
        return _from_ratios([(q.numerator, q.denominator, c.numerator, c.denominator) for q, c in pairs])

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxPoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(((0, 1),))

    @classmethod
    def constant(cls, c):
        return cls(((0, c),))

    @classmethod
    def t_power(cls, q, c=1):
        return cls(((q, c),))

    @property
    def terms(self):
        """``(exponent, coefficient)`` Fraction pairs, exponents increasing."""
        den, scale = self._den, self._scale
        # Fraction(k) skips the gcd that Fraction(k, 1) pays
        return tuple(
            (Fraction(k) if den == 1 else Fraction(k, den), Fraction(m) if scale == 1 else Fraction(m, scale))
            for k, m in self._ints
        )

    @property
    def is_zero(self):
        return not self._ints

    def val(self):
        """Least exponent with nonzero coefficient, an int when ``_den`` is 1; INF for zero."""
        if not self._ints:
            return INF
        k = self._ints[0][0]
        return k if self._den == 1 else Fraction(k, self._den)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        if isinstance(other, PuiseuxPoly):
            return (self._ints, self._den, self._scale) == (other._ints, other._den, other._scale)
        if isinstance(other, (int, Fraction)):
            return self == PuiseuxPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._ints, self._den, self._scale))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den, left, right = _common_grid(self, other)
        scale = lcm(self._scale, other._scale)
        fa, fb = scale // self._scale, scale // other._scale
        acc = {k: m * fa for k, m in left}
        for k, m in right:
            acc[k] = acc.get(k, 0) + m * fb
        return _canonical(den, scale, acc)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._den, self._scale, tuple((k, -m) for k, m in self._ints))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den, left, right = _common_grid(self, other)
        acc = {}
        get = acc.get
        for ka, ma in left:
            for kb, mb in right:
                key = ka + kb
                acc[key] = get(key, 0) + ma * mb
        return _canonical(den, self._scale * other._scale, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = PuiseuxPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        return format_puiseux(self)

    def __repr__(self):
        return "PuiseuxPoly(%r)" % format_puiseux(self)


# the slot setters get past the __setattr__ that keeps instances immutable
_store_den = PuiseuxPoly._den.__set__
_store_scale = PuiseuxPoly._scale.__set__
_store_ints = PuiseuxPoly._ints.__set__


def _make(den, scale, ints):
    out = object.__new__(PuiseuxPoly)
    _store_den(out, den)
    _store_scale(out, scale)
    _store_ints(out, ints)
    return out


def _canonical(den, scale, acc):
    """The sum of ``m/scale * t^(k/den)`` over ``acc = {k: m}``, reduced."""
    ints = [item for item in sorted(acc.items()) if item[1]]
    if not ints:
        return _make(1, 1, ())
    g = gcd(den, *[k for k, _ in ints]) if den > 1 else 1
    h = gcd(scale, *[m for _, m in ints]) if scale > 1 else 1
    if g > 1 or h > 1:
        den, scale = den // g, scale // h
        ints = [(k // g, m // h) for k, m in ints]
    return _make(den, scale, tuple(ints))


def _from_ratios(terms):
    """The sum of ``c_num/c_den * t^(q_num/q_den)`` over ``(q_num, q_den, c_num, c_den)``."""
    den = lcm(*(term[1] for term in terms))
    scale = lcm(*(term[3] for term in terms))
    acc = {}
    for q_num, q_den, c_num, c_den in terms:
        k = q_num * (den // q_den)
        acc[k] = acc.get(k, 0) + c_num * (scale // c_den)
    return _canonical(den, scale, acc)


def _common_grid(a, b):
    """``(den, a_ints, b_ints)``: both term lists with exponents over one ``den``."""
    da, db = a._den, b._den
    if da == db:
        return da, a._ints, b._ints
    den = lcm(da, db)
    fa, fb = den // da, den // db
    return den, [(k * fa, m) for k, m in a._ints], [(k * fb, m) for k, m in b._ints]


def _coerce(x):
    if isinstance(x, PuiseuxPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return PuiseuxPoly.constant(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# text format: sums of `c*t^(a/b)` terms, e.g. ``1 + 3/2*t^(1/2) - t^2``


def _format_exponent(q):
    if q.denominator == 1:
        if q >= 0:
            return "t" if q == 1 else "t^%d" % q
        return "t^(%d)" % q
    return "t^(%s)" % q


def _format_term(q, c):
    body = "" if q == 0 else _format_exponent(q)
    mag = abs(c)
    if not body:
        return str(mag)
    if mag == 1:
        return body
    return "%s*%s" % (mag, body)


def format_puiseux(p):
    """Canonical text form; :func:`parse_puiseux` round-trips it."""
    if p.is_zero:
        return "0"
    parts = []
    for i, (q, c) in enumerate(p.terms):
        if i == 0:
            head = _format_term(q, c)
            parts.append("-" + head if c < 0 else head)
        else:
            parts.append(("- " if c < 0 else "+ ") + _format_term(q, c))
    return " ".join(parts)


# The grammar of docs/formats.md, whitespace stripped at both ends.  Every
# repeated part must start with a sign, so a failed match backtracks through
# each character a bounded number of times: the match is linear in the text.
_RAT = r"\d+(?:/0*[1-9]\d*)?"  # denominators need a nonzero digit
_T = r"t(?:\^(?:[+-]?\d+|\([+-]?%s\)))?" % _RAT
_TERM = r"(?:%s(?:\s*\*\s*%s)?|%s)" % (_RAT, _T, _T)
_WHOLE_RE = re.compile(r"(?:[+-]\s*)?%s(?:\s*[+-]\s*%s)*" % (_TERM, _TERM))
# On text _WHOLE_RE accepts, one match per term: sign, coefficient numerator
# and denominator, ``t``, exponent numerator and denominator.
_TERM_RE = re.compile(
    r"\s*(?:([+-])\s*)?(?=[\dt])(?:(\d+)(?:/(\d+))?)?(?:\s*\*\s*)?(t?)(?:\^\(?([+-]?\d+)(?:/(\d+))?\)?)?"
)
# On text _WHOLE_RE accepts with its whitespace removed and no "/", one match
# per term: sign, coefficient, ``t`` and exponent.
_INT_TERM_RE = re.compile(r"([+-]?)(?=[\dt])(\d*)\*?(t?)(?:\^\(?([+-]?\d+)\)?)?")
_ZERO_DENOMINATOR_RE = re.compile(r"/0+(?!\d)")


def parse_puiseux(text):
    """Parse the text format for Puiseux polynomials.

    Accepts sums of terms ``c``, ``c*t^e``, ``t^e``, ``t``, with ``c`` a
    rational ``p/q`` and ``e`` an integer or a parenthesized rational;
    ``t^-1`` is tolerated as a shorthand for ``t^(-1)``.  The grammar is
    the one in ``docs/formats.md``: one regular-expression match checks the
    whole text and one ``findall`` reads its terms, both linear in the
    length of the text.  Only rejected text is searched again, for the
    error message.  Accepted text has whitespace only next to a sign or a
    ``*``, so text without a ``/`` is read with its whitespace removed,
    straight into int exponents and coefficients.
    """
    if not isinstance(text, str):
        raise PuiseuxParseError("expected a string, got %r" % (text,))
    stripped = text.strip()
    if not _WHOLE_RE.fullmatch(stripped):
        if not stripped:
            raise PuiseuxParseError("empty input")
        if _ZERO_DENOMINATOR_RE.search(stripped):
            raise PuiseuxParseError("zero denominator in %r" % stripped)
        if stripped.count("(") > stripped.count(")"):
            raise PuiseuxParseError("unbalanced '(' in %r" % stripped)
        raise PuiseuxParseError("malformed Puiseux polynomial %r" % stripped)
    try:
        if "/" not in stripped:
            acc = {}
            for sign, c, t, q in _INT_TERM_RE.findall("".join(stripped.split())):
                k = int(q) if q else 1 if t else 0
                m = int(c) if c else 1
                acc[k] = acc.get(k, 0) + (-m if sign == "-" else m)
            return _canonical(1, 1, acc)
        terms = []
        for sign, c_num, c_den, t, q_num, q_den in _TERM_RE.findall(stripped):
            c = int(c_num or 1)
            q = int(q_num) if q_num else 1 if t else 0
            terms.append((q, int(q_den or 1), -c if sign == "-" else c, int(c_den or 1)))
    except ValueError:  # more digits than int() reads
        raise PuiseuxParseError("number has more than %d digits" % sys.get_int_max_str_digits()) from None
    return _from_ratios(terms)


# ---------------------------------------------------------------------------
# exact division (every division of the fraction-free elimination below is
# exact in the ring of finite Puiseux polynomials)


def divexact(p, d):
    """Quotient ``p / d`` when the division is exact, else None.

    Long division from the lowest term, on the int numerators over the
    common exponent grid; one dict holds the remainder.  A step whose lead
    coefficient does not divide exactly takes a Fraction quotient, which
    only rational input needs.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by the zero Puiseux polynomial")
    if p.is_zero:
        return PuiseuxPoly.zero()
    den, rem, divisor = _common_grid(p, d)
    rem = dict(rem)
    lead_e, lead_c = divisor[0]
    # an exact quotient's top exponent is the difference of the top exponents
    top = max(rem) - divisor[-1][0]
    quotient = {}
    while rem:
        e = min(rem) - lead_e
        if e > top:
            return None
        r = rem[e + lead_e]
        c, rest = divmod(r, lead_c)
        if rest:
            c = Fraction(r, lead_c)
        quotient[e] = c
        for de, dc in divisor:
            left = rem.get(e + de, 0) - c * dc
            if left:
                rem[e + de] = left
            else:
                del rem[e + de]
    # p / d is the numerator quotient times d._scale over p._scale
    lcd = lcm(*(c.denominator for c in quotient.values()))
    ints = {e: c.numerator * (lcd // c.denominator) * d._scale for e, c in quotient.items()}
    return _canonical(den, p._scale * lcd, ints)


# ---------------------------------------------------------------------------
# matrices of Puiseux polynomials


def _check_square(M):
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("expected a nonempty square matrix")
    return n


# the cap on n * (span + 1) * bits, the width of a packed minor (see _pack); a
# wider matrix is eliminated on its PuiseuxPoly entries
PACKED_BITS = 1 << 16


def _pack(M):
    """Pack M for the int elimination: ``(work, bits, den, scale, low, first)`` or None.

    ``scale * t^(-low/den) * M`` has entries a(u) in Z[u], u = t^(1/den), and
    ``work`` holds each as the int a(2^bits).  Its minors, which are all the
    entries the elimination keeps, have coefficients at most the product R of
    its row sums of |coefficients|; 2^(bits-1) > R, so an int packs one
    polynomial.  ``first`` is M's first least-valuation entry, row-major.
    None when M is zero or a minor could take more than ``PACKED_BITS`` bits.
    """
    den = lcm(*[p._den for row in M for p in row])
    scale = lcm(*[p._scale for row in M for p in row])
    low, high, first = INF, -INF, None
    bound = 1
    for row in M:
        total = 0
        for p in row:
            ints = p._ints
            if ints:
                f = den // p._den
                lo, hi = ints[0][0] * f, ints[-1][0] * f
                if lo < low:
                    low, first = lo, p
                if hi > high:
                    high = hi
                total += sum([abs(m) for _, m in ints]) * (scale // p._scale)
        bound *= total or 1
    if first is None:
        return None
    bits = (bound.bit_length() + 8) // 8 * 8
    if len(M) * (high - low + 1) * bits > PACKED_BITS:
        return None
    work = []
    for row in M:
        packed = []
        for p in row:
            f, g, x = den // p._den, scale // p._scale, 0
            for k, m in p._ints:
                x += m * g << bits * (k * f - low)
            packed.append(x)
        work.append(packed)
    return work, bits, den, scale, low, first


def _unpack(x, bits, den):
    """The polynomial a(t^(1/den)), not reduced, whose packed int a(2^bits) is ``x``."""
    width, size, half = bits // 8, x.bit_length() // bits + 1, 1 << (bits - 1)
    # adding half to every digit makes every digit nonnegative: one to_bytes pass reads them
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    data = (x + offset).to_bytes(width * size, "little")
    digits = (int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * size, width))
    return _make(den, 1, tuple((e, m) for e, m in enumerate(digits) if m))


def _divide_ints(num, d):
    q, r = divmod(num, d)
    return None if r else q


def _pivots(M):
    """Fraction-free (Bareiss) elimination, pivoting on a least-valuation entry.

    Returns ``(sign, pivots)``: ``sign`` is the parity of the row and column
    swaps, and by Sylvester's identity the k-th pivot is the leading k x k
    minor of the swapped matrix, so every division below is exact.  Divided
    by the previous pivot, the remaining block is the Schur complement of
    plain elimination, whose least-valuation pivots keep every multiplier
    integral over the valuation ring; so the k-th pivot is a k x k minor of
    least valuation (Caruso, Roe and Vaccon, ISSAC 2015).  Elimination stops
    at the first step whose remaining block is all zero.

    The steps run on the ints of :func:`_pack`, where each product, exact
    division and valuation is one int operation, and only the pivots are
    unpacked; a matrix too wide to pack runs them on its PuiseuxPoly entries.
    """
    n = _check_square(M)
    packed = _pack(M)
    if packed:
        work, bits, den, scale, low, first = packed
        valuation, divide = lambda x: ((x & -x).bit_length() - 1) // bits, _divide_ints
    else:
        work, valuation, divide = [list(row) for row in M], PuiseuxPoly.val, divexact
    sign = 1
    pivots = []
    for k in range(n):
        best = INF
        for i in range(k, n):
            for j in range(k, n):
                if work[i][j]:
                    v = valuation(work[i][j])
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
                    num = divide(num, pivots[-1])
                    if num is None:
                        raise ArithmeticError("non-exact Bareiss division")
                row[j] = num
        pivots.append(pivot)
    if packed:
        # the k-th pivot is a k x k minor of scale * t^(-low/den) * M
        restore = lambda k, x: _unpack(x, bits, den) * _make(den, scale**k, ((k * low, 1),))
        pivots = [first] + [restore(k, x) for k, x in enumerate(pivots[1:], 2)]
    return sign, pivots


def determinant(M):
    """Exact determinant of a square matrix of Puiseux polynomials.

    By Sylvester's identity, the last pivot of the fraction-free elimination
    behind :func:`minor_valuation_profile`, up to the sign of its swaps.
    """
    sign, pivots = _pivots(M)
    if len(pivots) < len(M):
        return PuiseuxPoly.zero()
    return pivots[-1] if sign == 1 else -pivots[-1]


def minor_valuation_profile(M):
    """Minimum valuation over k x k minors, for every k = 1..n at once.

    The valuations of the elimination pivots: pivoting on an entry of least
    valuation makes the k-th pivot, by Sylvester's identity a k x k minor,
    one of least valuation.  Sizes above the rank give INF.  The work is
    O(n^3) operations on packed minors of at most ``PACKED_BITS`` bits, or
    O(n^3) Puiseux products for a matrix too wide to pack.
    """
    _, pivots = _pivots(M)
    return [p.val() for p in pivots] + [INF] * (len(M) - len(pivots))
