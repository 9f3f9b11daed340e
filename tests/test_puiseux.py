import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from sphertrop.puiseux import (
    INF,
    PuiseuxParseError,
    PuiseuxPoly,
    _pack,
    _pivots,
    determinant,
    divexact,
    format_puiseux,
    minor_valuation_profile,
    parse_puiseux,
)

from helpers import (
    fraction_product,
    fraction_sum,
    fraction_terms,
    permutation_determinant,
    random_matrix,
    random_poly,
    random_unit_matrix,
    reference_parse_puiseux,
    reference_pivots,
)

t = PuiseuxPoly.t_power(1)
one = PuiseuxPoly.one()
zero = PuiseuxPoly.zero()


# --- valuation ----------------------------------------------------------------


def test_val_examples():
    assert (t**2 + t**3).val() == 2
    assert zero.val() == INF
    assert (PuiseuxPoly.t_power(-1) + one).val() == -1


def test_val_is_an_int_exactly_on_an_integral_grid():
    rng = random.Random(16)
    for _ in range(300):
        p = random_poly(rng) * PuiseuxPoly.t_power(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        assert type(p.val()) is (int if p._den == 1 else Fraction)
    # on a finer grid an integral least exponent is still the Fraction 1
    assert type((t + PuiseuxPoly.t_power(Fraction(3, 2))).val()) is Fraction


def test_val_of_sum_and_product():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        assert (p * q).val() == p.val() + q.val()
        s = p + q
        assert s.val() >= min(p.val(), q.val())
        if p.val() != q.val():
            assert s.val() == min(p.val(), q.val())


# --- ring arithmetic ------------------------------------------------------------


def test_arithmetic_examples():
    assert (one + t) * (one - t) == one - t**2
    half = Fraction(1, 2)
    assert PuiseuxPoly.t_power(half) * PuiseuxPoly.t_power(half) == t
    p = t + t**2
    q = PuiseuxPoly.t_power(-1)
    assert p * q == one + t
    assert (p * q).val() == p.val() + q.val() == 0


def test_cancellation_removes_terms():
    p = one + t
    assert (p - p).is_zero
    assert (p + (-p)) == zero
    assert not (p - t - one)


# --- the int representation against a dict-of-Fraction reference -----------------

# rational coefficients (zero included) on mixed grids: halves, thirds, quarters, sixths
EXPONENTS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
TERMS = st.lists(st.tuples(EXPONENTS, COEFFICIENTS), max_size=5)
PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _assert_canonical(p):
    """Terms as Fraction pairs with increasing exponents; the int form reduced."""
    exponents = [q for q, _ in p.terms]
    assert exponents == sorted(set(exponents))
    assert all(type(q) is Fraction and type(c) is Fraction and c for q, c in p.terms)
    ks, ms = [k for k, _ in p._ints], [m for _, m in p._ints]
    assert p._scale > 0 and gcd(p._den, *ks) == 1 and gcd(p._scale, *ms) == 1
    assert p.val() == (exponents[0] if exponents else INF)


@PROPERTIES
@given(TERMS, TERMS)
def test_ring_operations_match_fraction_reference(a, b):
    p, q = PuiseuxPoly(a), PuiseuxPoly(b)
    ra, rb = fraction_terms(a), fraction_terms(b)
    neg_rb = {e: -c for e, c in rb.items()}
    cases = [
        (p, ra),
        (p + q, fraction_sum(ra, rb)),
        (p - q, fraction_sum(ra, neg_rb)),
        (-q, neg_rb),
        (p * q, fraction_product(ra, rb)),
        (p * Fraction(-2, 3) + 1, fraction_sum(fraction_product(ra, {0: Fraction(-2, 3)}), {0: 1})),
    ]
    for got, want in cases:
        assert dict(got.terms) == want
        _assert_canonical(got)


@PROPERTIES
@given(TERMS, TERMS, EXPONENTS, COEFFICIENTS.filter(bool))
def test_divexact_inverts_multiplication(a, b, e, c):
    p, q = PuiseuxPoly(a), PuiseuxPoly(b)
    assume(q)
    quotient = divexact(p * q, q)
    assert quotient == p
    _assert_canonical(quotient)
    if len(q.terms) >= 2:
        # the units are the monomials, so a monomial is no multiple of q
        assert divexact(p * q + PuiseuxPoly.t_power(e, c), q) is None


@PROPERTIES
@given(TERMS, TERMS, TERMS)
def test_equal_polynomials_have_one_form(a, b, c):
    p, q, r = PuiseuxPoly(a), PuiseuxPoly(b), PuiseuxPoly(c)
    assert ((p * q) - p * q).is_zero
    routes = [
        (p * q, q * p),
        ((p + q) * r, p * r + q * r),
        (PuiseuxPoly(a[::-1]), p),
        (PuiseuxPoly(dict(fraction_terms(a))), p),
    ]
    for left, right in routes:
        assert left == right and hash(left) == hash(right)


@PROPERTIES
@given(TERMS)
def test_format_parse_roundtrip_property(a):
    p = PuiseuxPoly(a)
    back = parse_puiseux(format_puiseux(p))
    assert back == p and hash(back) == hash(p)
    _assert_canonical(back)


def test_exponents_reduce_to_lowest_terms():
    half = PuiseuxPoly.t_power(Fraction(1, 2))
    assert PuiseuxPoly.t_power(Fraction(2, 4)) == half == parse_puiseux("t^(2/4)")
    assert hash(parse_puiseux("t^(2/4)")) == hash(half)
    assert half * half == t and (half * half)._den == 1
    assert parse_puiseux("2/4*t^(3/6) + 1/2*t^(1/2)") == half


# --- determinants ---------------------------------------------------------------


def test_determinant_examples():
    M = [[t + one, t], [t, zero]]
    assert determinant(M) == -(t**2)
    eye3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert determinant(eye3) == one
    with_zero_row = [[t, one], [zero, zero]]
    assert determinant(with_zero_row).is_zero


def test_determinant_against_permutation_sum():
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5):
        for _ in range(25 if n == 3 else 6):
            M = random_matrix(rng, n)
            assert determinant(M) == permutation_determinant(M)


def _det_cofactor(M):
    """Laplace expansion along the first row: an elimination-free reference."""
    n = len(M)
    if n == 1:
        return M[0][0]
    out = PuiseuxPoly.zero()
    for j in range(n):
        if M[0][j].is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * _det_cofactor(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def test_cofactor_and_bareiss_agree():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            M = random_matrix(rng, n)
            # determinant() is the least-valuation Bareiss elimination for every n
            assert determinant(M) == _det_cofactor(M)
    M = random_matrix(rng, 5)
    M[3] = list(M[1])  # rank deficient: the elimination stops early
    assert determinant(M).is_zero and _det_cofactor(M).is_zero


# --- minors ----------------------------------------------------------------------


def test_min_minor_examples():
    assert minor_valuation_profile([[t, zero], [zero, t**2]]) == [1, 3]
    assert minor_valuation_profile([[one, zero], [zero, one]]) == [0, 0]
    assert minor_valuation_profile([[t + one, t], [t, zero]]) == [0, 2]
    assert minor_valuation_profile([[zero, zero], [zero, zero]]) == [INF, INF]


def _profile_by_minors(M):
    n = len(M)
    profile = []
    for k in range(1, n + 1):
        profile.append(
            min(
                permutation_determinant([[M[i][j] for j in cols] for i in rows]).val()
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(n), k)
            )
        )
    return profile


def test_minor_profile_against_all_minors():
    # entries have Laurent and half-integer exponents; zero entries are common
    rng = random.Random(16)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(8):
            cases.append(random_matrix(rng, n))
        M = random_matrix(rng, n)
        if n > 1:
            M[-1] = list(M[0])  # a repeated row: rank deficient
        cases.append(M)
        cases.append([[zero if rng.random() < 0.6 else p for p in row] for row in random_matrix(rng, n)])
    M = random_matrix(rng, 5)
    M[3] = list(M[1])
    cases += [random_matrix(rng, 5), M]
    for M in cases:
        assert minor_valuation_profile(M) == _profile_by_minors(M)


def _gln_branch(rng, a):
    # a gln-shaped branch g diag(t^a) h with integral units g and h
    n = len(a)
    g = random_unit_matrix(rng, n)
    h = random_unit_matrix(rng, n)
    gd = [[g[i][k] * PuiseuxPoly.t_power(a[k]) for k in range(n)] for i in range(n)]
    return [[sum((gd[i][k] * h[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]


def test_minor_profile_does_cubic_polynomial_work(monkeypatch):
    rng = random.Random(17)
    n = 7
    a = [3, -1, 0, 2, -2, 1, 4]
    packed = _gln_branch(rng, a)
    # exponents a thousand times wider: the packed minors would pass PACKED_BITS
    wide = _gln_branch(rng, [1000 * e for e in a])
    assert _pack(packed) is not None and _pack(wide) is None
    calls = []
    original = PuiseuxPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(PuiseuxPoly, "__mul__", counting)
    assert minor_valuation_profile(packed) == list(itertools.accumulate(sorted(a)))
    # the packed elimination multiplies only to restore the scale of pivots 2..n
    assert len(calls) == n - 1
    calls.clear()
    assert minor_valuation_profile(wide) == list(itertools.accumulate(sorted(1000 * e for e in a)))
    assert len(calls) <= n**3


def _seeded_entry(rng, zeros):
    # up to three terms, exponents in [-6, 6] over denominators 1-3, coefficients up to 1000/7
    if rng.random() < zeros:
        return zero
    terms = []
    for _ in range(rng.randint(1, 3)):
        coefficient = Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000), rng.randint(1, 7))
        terms.append((Fraction(rng.randint(-6, 6), rng.randint(1, 3)), coefficient))
    return PuiseuxPoly(terms)


def test_pivots_equal_the_puiseux_elimination():
    rng = random.Random(18)
    for case in range(2000):
        n = rng.choices(range(1, 7), weights=(10, 25, 30, 25, 9, 1))[0]
        zeros = rng.choice((0, 0.3, 0.7))
        M = [[_seeded_entry(rng, zeros) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            M[rng.randrange(1, n)] = list(M[0])  # a repeated row: rank deficient
        if case % 40 == 0:
            # a far or finely divided exponent beside t: too wide to pack
            far = rng.choice((10000, -10000, Fraction(1, 9973)))
            M[rng.randrange(n)][rng.randrange(n)] += PuiseuxPoly({far: rng.randint(1, 9), 1: 1})
            assert _pack(M) is None
        assert _pivots(M) == reference_pivots(M), case


@pytest.mark.parametrize(
    "a, b",
    [(3, 5), (255, 257), (-255, 257), (255, -257), (10**40, 10**40 + 1), (-(10**40), 10**40), (2**132 - 1, -(2**132) - 1)],
    ids=["3,5", "255,257", "-255,257", "255,-257", "1e40,1e40+1", "-1e40,1e40", "2^132-1,-2^132-1"],
)
def test_packing_bound_at_its_edge(a, b):
    # the determinant's coefficient a*b is as large as the product of the row
    # sums allows; 255 * 257 = 2^16 - 1 and (2^132 - 1)(2^132 + 1) = 2^264 - 1
    # need every bit of the packing, sign bit included
    for ea, eb in ((0, 0), (1, Fraction(-1, 2))):
        M = [[PuiseuxPoly.t_power(ea, a), zero], [zero, PuiseuxPoly.t_power(eb, b)]]
        assert determinant(M) == PuiseuxPoly.t_power(ea + eb, a * b)
        assert _pivots(M) == reference_pivots(M)


SPARSE_SECONDS = 0.05  # budget for one elimination on sparse exponents


def test_sparse_exponents_take_the_puiseux_path():
    cases = [
        [[parse_puiseux("t^1000000 + 1"), one], [PuiseuxPoly.constant(2), parse_puiseux("t^500000 + 3")]],
        # exponents 1/p for the primes p up to 23: the common denominator is 223,092,870
        [[PuiseuxPoly.t_power(Fraction(1, p)) for p in row] for row in ((2, 3, 5), (7, 11, 13), (17, 19, 23))],
    ]
    for M in cases:
        assert _pack(M) is None
        started = time.perf_counter()
        profile = minor_valuation_profile(M)
        elapsed = time.perf_counter() - started
        assert profile == _profile_by_minors(M)
        assert elapsed < SPARSE_SECONDS


# --- exact division and fractions -------------------------------------------------


def test_divexact_roundtrip():
    rng = random.Random(14)
    exact = 0
    for _ in range(300):
        p = random_poly(rng)
        d = random_poly(rng, max_terms=rng.choice((1, 2, 3)))
        # thirds put the operands on a grid finer than either one's own
        d = d * PuiseuxPoly.t_power(Fraction(rng.randint(-4, 4), 3))
        assert divexact(p * d, d) == p
        q = divexact(p, d)
        if q is not None:
            exact += 1
            assert q * d == p
    assert exact > 50
    assert divexact(one + t, one + t + t**2) is None
    with pytest.raises(ZeroDivisionError):
        divexact(one, zero)


# --- text format -------------------------------------------------------------------


CASES = [
    ("1 + 3/2*t^(1/2) - t^2", [(0, 1), (Fraction(1, 2), Fraction(3, 2)), (2, -1)]),
    ("t^-1", [(-1, 1)]),
    ("t^(-1)", [(-1, 1)]),
    ("0", []),
    ("-t^2", [(2, -1)]),
    ("5", [(0, 5)]),
    ("t", [(1, 1)]),
    ("2*t^(-7/3) + 1/2", [(Fraction(-7, 3), 2), (0, Fraction(1, 2))]),
    ("1 - t", [(0, 1), (1, -1)]),
    ("-3/4", [(0, Fraction(-3, 4))]),
    # text without a "/" is read on ints, text with one through Fractions
    ("t - t", []),
    ("t^-1 + 2*t^(-1)", [(-1, 3)]),
    ("2*t^(+3)", [(3, 2)]),
    ("3*t^(1/2) - 1", [(Fraction(1, 2), 3), (0, -1)]),
    pytest.param("1" * 5000 + "*t", PuiseuxParseError, id="digit-limit-int"),
    pytest.param("t^(1/" + "1" * 5000 + ")", PuiseuxParseError, id="digit-limit-ratio"),
]


@pytest.mark.parametrize("text,terms", CASES)
def test_parse_examples(text, terms):
    if terms is PuiseuxParseError:
        with pytest.raises(PuiseuxParseError, match="number has more than"):
            parse_puiseux(text)
    else:
        assert parse_puiseux(text) == PuiseuxPoly(terms)


def test_print_parse_roundtrip_random():
    rng = random.Random(15)
    for _ in range(300):
        p = random_poly(rng, allow_zero=True)
        assert parse_puiseux(format_puiseux(p)) == p
        # printing is canonical: a second round trip is the identity on text
        assert format_puiseux(parse_puiseux(format_puiseux(p))) == format_puiseux(p)


@pytest.mark.parametrize(
    "bad",
    ["", "t^", "1 +", "++1", "t^(1/2", "2**t", "x", "1/0", "t^t", "3 t", "(1)"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises((PuiseuxParseError, ZeroDivisionError, ValueError)):
        parse_puiseux(bad)


def test_parser_rejects_non_rational_coefficients():
    # the coefficient field is exactly Q: no floats, no algebraic symbols
    with pytest.raises((PuiseuxParseError, ValueError)):
        parse_puiseux("1.5*t")
    with pytest.raises((PuiseuxParseError, ValueError)):
        parse_puiseux("sqrt2*t")


# NBSP is whitespace and ARABIC-INDIC DIGIT THREE a digit to both parsers
MUTATION_ALPHABET = "t^()/*+-0123456789 \t\xa0\u0663"


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3) if i < len(chars) else 0
        if op == 0:
            chars.insert(i, rng.choice(MUTATION_ALPHABET))
        elif op == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


def _parsed_or_rejected(parse, text):
    try:
        return parse(text)
    except PuiseuxParseError:
        return "rejected"


def test_parser_agrees_with_reference_splitter():
    rng = random.Random(14)
    outcomes = {"accepted": 0, "rejected": 0}
    for case in range(20000):
        if case % 5 == 0:
            text = "".join(rng.choice(MUTATION_ALPHABET) for _ in range(rng.randint(0, 8)))
        else:
            text = format_puiseux(random_poly(rng, max_terms=4, allow_zero=True))
            if rng.random() < 0.5:
                text = re.sub(r"\^\((-?\d+)\)", r"^\1", text)  # the t^-1 spelling
            if case % 5 != 1:
                text = _mutated(rng, text)
        expected = _parsed_or_rejected(reference_parse_puiseux, text)
        assert _parsed_or_rejected(parse_puiseux, text) == expected, text
        outcomes["rejected" if expected == "rejected" else "accepted"] += 1
    assert min(outcomes.values()) > 5000


def test_parse_is_linear_in_the_text():
    # a failed match must not backtrack quadratically (``\s*[+-]?\s*`` would)
    texts = [
        " " * 10**5 + "x",
        "1" + " " * 10**5 + "x",
        "7" * 10**5 + "x",
        "1" + " - t" * 10**4,
        "t^(" + "7" * 10**5,
        "1" + "*" * 10**5,
    ]
    for text in texts:
        start = time.perf_counter()
        _parsed_or_rejected(parse_puiseux, text)
        assert time.perf_counter() - start < 0.5, text[:12]
    assert parse_puiseux(texts[3]) == 1 - 10**4 * t
