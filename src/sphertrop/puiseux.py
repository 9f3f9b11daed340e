"""Finite Puiseux polynomials over the rationals with the t-adic valuation.

Field elements are represented by finite sums ``c * t**q`` with rational
exponents ``q`` and rational coefficients ``c``.  Infinite series are out of
scope: callers enter truncations and guarantee that the truncation order
exceeds every valuation in play.  The valuation of the zero polynomial is
``math.inf``, the only non-Fraction value that ever appears.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf, lcm

INF = inf
_ZERO = Fraction(0)


class PuiseuxParseError(ValueError):
    """Text does not describe a Puiseux polynomial."""


class PuiseuxPoly:
    """Immutable finite Puiseux polynomial.

    Terms are kept as a sorted tuple of ``(exponent, coefficient)`` pairs
    with nonzero coefficients and strictly increasing exponents.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for q, c in items:
            q = Fraction(q)
            c = Fraction(c)
            if c:
                acc[q] = acc.get(q, Fraction(0)) + c
        object.__setattr__(
            self, "_terms", tuple(sorted((q, c) for q, c in acc.items() if c != 0))
        )

    @classmethod
    def _from_accumulator(cls, acc):
        # internal fast path: entries are known to be Fractions already
        out = object.__new__(cls)
        object.__setattr__(
            out, "_terms", tuple(sorted((q, c) for q, c in acc.items() if c != 0))
        )
        return out

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
        return self._terms

    @property
    def is_zero(self):
        return not self._terms

    def val(self):
        """Least exponent with nonzero coefficient; INF for zero."""
        return self._terms[0][0] if self._terms else INF

    def coefficient(self, q):
        q = Fraction(q)
        for e, c in self._terms:
            if e == q:
                return c
        return Fraction(0)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, PuiseuxPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == PuiseuxPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for q, c in other._terms:
            acc[q] = acc.get(q, _ZERO) + c
        return PuiseuxPoly._from_accumulator(acc)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(PuiseuxPoly)
        object.__setattr__(out, "_terms", tuple((q, -c) for q, c in self._terms))
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for q, c in other._terms:
            acc[q] = acc.get(q, _ZERO) - c
        return PuiseuxPoly._from_accumulator(acc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return PuiseuxPoly.zero()
        den, left, right = _on_grid(self, other)
        acc = {}
        for qa, ca in left:
            for qb, cb in right:
                key = qa + qb
                prior = acc.get(key)
                acc[key] = ca * cb if prior is None else prior + ca * cb
        out = object.__new__(PuiseuxPoly)
        object.__setattr__(
            out,
            "_terms",
            tuple(
                (Fraction(k, den), c) for k, c in sorted(acc.items()) if c != 0
            ),
        )
        return out

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


def _on_grid(a, b):
    """``(den, a_terms, b_terms)`` with exponents as ints on the grid 1/den.

    Int keys hash far faster than Fractions, and den, the lcm of the
    exponent denominators, stays small.
    """
    den = lcm(*(q.denominator for q, _ in a._terms + b._terms))
    return den, [(int(q * den), c) for q, c in a._terms], [(int(q * den), c) for q, c in b._terms]


def _coerce(x):
    if isinstance(x, PuiseuxPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return PuiseuxPoly.constant(x)
    return NotImplemented


def val(p):
    """t-adic valuation: least exponent of ``p``, or INF for the zero element."""
    return p.val()


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


def parse_puiseux(text):
    """Parse the text format for Puiseux polynomials.

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
        coeff = Fraction(sign)
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
            coeff *= Fraction(coeff_text)
        else:
            piece = pieces[0]
            if _RATIONAL_RE.match(piece):
                coeff *= Fraction(piece)
            else:
                tpart = piece
        if tpart is None:
            terms.append((Fraction(0), coeff))
            continue
        m = _TPART_RE.match(tpart)
        if not m:
            raise PuiseuxParseError("bad t-power %r" % tpart)
        exp_text = m.group("plain") or m.group("paren")
        exponent = Fraction(exp_text) if exp_text is not None else Fraction(1)
        terms.append((exponent, coeff))
    return PuiseuxPoly(terms)


# ---------------------------------------------------------------------------
# exact division (every division of the fraction-free elimination below is
# exact in the ring of finite Puiseux polynomials)


def divexact(p, d):
    """Quotient ``p / d`` when the division is exact, else None.

    Long division from the lowest term, on the exponent grid of ``__mul__``;
    one dict holds the remainder.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by the zero Puiseux polynomial")
    if p.is_zero:
        return PuiseuxPoly.zero()
    den, rem, divisor = _on_grid(p, d)
    rem = dict(rem)
    lead_e, lead_c = divisor[0]
    # an exact quotient's top exponent is the difference of the top exponents
    top = max(rem) - divisor[-1][0]
    quotient = {}
    while rem:
        e = min(rem) - lead_e
        if e > top:
            return None
        c = rem[e + lead_e] / lead_c
        quotient[Fraction(e, den)] = c
        for de, dc in divisor:
            left = rem.get(e + de, _ZERO) - c * dc
            if left:
                rem[e + de] = left
            else:
                del rem[e + de]
    return PuiseuxPoly._from_accumulator(quotient)


# ---------------------------------------------------------------------------
# matrices of Puiseux polynomials


def _check_square(M):
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("expected a nonempty square matrix")
    return n


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
    """
    n = _check_square(M)
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
    O(n^3) Puiseux products.
    """
    _, pivots = _pivots(M)
    return [p.val() for p in pivots] + [INF] * (len(M) - len(pivots))


def min_minor_valuation(M, k):
    """Minimum t-adic valuation over all k x k minors; INF if all vanish."""
    n = _check_square(M)
    if not 1 <= k <= n:
        raise ValueError("minor size %d out of range 1..%d" % (k, n))
    return minor_valuation_profile(M)[k - 1]
