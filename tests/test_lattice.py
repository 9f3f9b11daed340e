import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sphertrop import lattice
from sphertrop.catalog import builtin_space
from sphertrop.lattice import (
    Cone,
    ZeroVectorError,
    _integer_rows,
    _project,
    dot,
    dual_description,
    feasible_point,
    leading_positive,
    mat_mul,
    mat_vec,
    matrix_rank,
    primitive,
    quotient_projection,
    relint_common_point,
    relint_meets,
    saturation_basis,
    signed_basis,
    smith_normal_form,
)

from helpers import _row_reduce, clear_memos, memos, random_cone, subset_face_generators


# --- primitive -------------------------------------------------------------


def test_primitive_examples():
    assert primitive((2, 4)) == ((1, 2), 2)
    assert primitive((-1, -1)) == ((-1, -1), 1)
    with pytest.raises(ZeroVectorError):
        primitive((0, 0))


def test_primitive_scaling_property():
    rng = random.Random(1)
    for _ in range(100):
        dim = rng.randint(1, 5)
        p = [rng.randint(-5, 5) for _ in range(dim)]
        g = 0
        for a in p:
            g = gcd(g, abs(a))
        if g != 1:
            continue
        lam = rng.randint(1, 9)
        assert primitive(tuple(lam * a for a in p)) == (tuple(p), lam)


# --- Smith normal form -----------------------------------------------------


def det(rows):
    """Leibniz permutation sum; the matrices here are at most 4 x 4."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def snf_diagonal_by_minor_gcds(A):
    """Independent oracle: d_1...d_k = gcd of k x k minors."""
    m, n = len(A), len(A[0])
    values = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(det(sub)))
        if g == 0:
            break
        values.append(g // prev)
        prev = g
    return values


def assert_snf_contract(A):
    U, D, V = smith_normal_form(A)
    m, n = len(A), len(A[0])
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert [d for d in diag if d != 0] == snf_diagonal_by_minor_gcds(A)
    return diag


def test_snf_identity():
    U, D, V = smith_normal_form([[1, 0], [0, 1]])
    assert (U, D, V) == ([[1, 0], [0, 1]],) * 3


def test_snf_divisibility_example():
    diag = assert_snf_contract([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_zero_matrix():
    U, D, V = smith_normal_form([[0]])
    assert D == [[0]] and U == [[1]] and V == [[1]]


def test_snf_random_matrices():
    rng = random.Random(2)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        assert_snf_contract(A)


def test_snf_deterministic():
    A = [[4, 6, 2], [6, 12, 6], [2, 6, 8]]
    assert smith_normal_form(A) == smith_normal_form([row[:] for row in A])


MATRICES = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-30, 30), min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0]
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(MATRICES)
def test_snf_contract_property(A):
    assert_snf_contract(A)


def _palette_matrix(vectors, rank):
    return [[v[i] for v in vectors] for i in range(rank)]


# (U, D, V) recorded before the Smith form became one pass; on these inputs
# every pivot divides the block after it, so the operations are unchanged.
# The diag and rand5 cases were recorded before the steps moved onto one
# block matrix; on diag(2, 3) and diag(2, 3, 5, 7) the divisibility step adds
# a row to the pivot row once and three times.
PINNED_SNF = {
    "gln2": (
        _palette_matrix([v for _, v in builtin_space("gln", 2).palette], 2),
        ([[-1, 0], [1, 1]], [[1], [0]], [[1]]),
    ),
    "gln3": (
        _palette_matrix([v for _, v in builtin_space("gln", 3).palette], 3),
        ([[-1, 0, 0], [-1, -1, 0], [1, 1, 1]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 1]]),
    ),
    "gln4": (
        _palette_matrix([v for _, v in builtin_space("gln", 4).palette], 4),
        (
            [[-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0], [1, 1, 1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ),
    ),
    "gln5": (
        _palette_matrix([v for _, v in builtin_space("gln", 5).palette], 5),
        (
            [[-1, 0, 0, 0, 0], [-1, -1, 0, 0, 0], [-1, -1, -1, 0, 0], [-1, -1, -1, -1, 0], [1, 1, 1, 1, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ),
    ),
    "dep4": (
        _palette_matrix([(1, 0), (0, 1), (1, 1), (1, 2)], 2),
        ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, -1, -1], [0, 1, -1, -2], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ),
    "ray2": ([[2], [-3]], ([[2, 1], [-3, -2]], [[1], [0]], [[1]])),
    "ray3": ([[3], [-1], [2]], ([[0, -1, 0], [1, 3, 0], [0, 2, 1]], [[1], [0], [0]], [[1]])),
    "ray4": (
        [[1], [4], [-2], [3]],
        ([[1, 0, 0, 0], [-4, 1, 0, 0], [2, 0, 1, 0], [-3, 0, 0, 1]], [[1], [0], [0], [0]], [[1]]),
    ),
    "diag23": ([[2, 0], [0, 3]], ([[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]])),
    "diag2357": (
        [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]],
        (
            [[1, 1, 0, 0], [-3, -2, 1, 0], [15, 10, -6, 1], [1365, 910, -546, 90]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 210]],
            [[-1, -3, 45, -105], [1, 2, -30, 70], [0, -1, 18, -42], [0, 0, 13, -30]],
        ),
    ),
    # random.Random(23), entries in [-9, 9], drawn row by row
    "rand5": (
        [[0, -7, -9, 9, 0], [4, 3, 7, 2, -5], [-3, -1, 5, -9, -2], [5, -9, -6, -7, 6], [4, -9, 7, 4, 2]],
        (
            [
                [0, 0, -1, 0, 0],
                [0, -1, -3, 0, 0],
                [-1, 28, 91, 0, 0],
                [22424, -628162, -2041526, 23, -15],
                [182282, -5106252, -16595315, 187, -122],
            ],
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 94107]],
            [
                [0, -2, 107, 6, -69406],
                [1, 4, -50, -9, 104166],
                [0, 0, 0, 8, -92615],
                [0, 0, -39, 1, -11597],
                [0, 1, 40, 11, -127325],
            ],
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SNF))
def test_snf_pinned_on_bench_shapes(case):
    A, expected = PINNED_SNF[case]
    assert smith_normal_form(A) == expected


# --- quotient projection ---------------------------------------------------


def test_quotient_projection_examples():
    assert quotient_projection([(-1, 1)], 2) == [(1, 1)]
    assert quotient_projection([], 2) == [(1, 0), (0, 1)]
    assert quotient_projection([(2, 0)], 2) == [(0, 1)]
    # along a torus3 ray the projection has two rows, and no choice of them is unique; pinned
    assert quotient_projection([(2, -1, 3)], 3) == [(1, 2, 0), (0, 3, 1)]


def test_quotient_projection_properties():
    rng = random.Random(3)
    for _ in range(50):
        dim = rng.randint(1, 5)
        k = rng.randint(0, dim)
        vs = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
        vs = [v for v in vs if any(v)]
        pi = quotient_projection(vs, dim)
        r = matrix_rank(vs) if vs else 0
        assert len(pi) == dim - r
        for v in vs:
            assert all(a == 0 for a in mat_vec(pi, v))
        if pi:
            # surjective onto Z^m: the Smith form of pi is all ones
            _, D, _ = smith_normal_form([list(row) for row in pi])
            assert all(D[i][i] == 1 for i in range(len(pi)))
        # kernel is saturated: saturation basis maps to zero and has full rank
        basis = saturation_basis(vs, dim)
        assert len(basis) == r
        for b in basis:
            assert all(a == 0 for a in mat_vec(pi, b))
            assert b == leading_positive(b)
            assert primitive(b)[1] == 1


# A Fraction entry is an error, never truncated: the quotient row of
# (1/2, 1) is (2, -1), while int() would give (1, 0), the row of (0, 1).
NON_INTEGER_ENTRIES = {
    "primitive": lambda: primitive((Fraction(1, 2), 1)),
    "smith_normal_form": lambda: smith_normal_form([[Fraction(3, 2)]]),
    "quotient_projection": lambda: quotient_projection([(Fraction(1, 2), 1)], 2),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_ENTRIES))
def test_non_integer_entries_raise_type_error(case):
    with pytest.raises(TypeError, match="expects integer entries"):
        NON_INTEGER_ENTRIES[case]()


def test_saturation_example():
    assert saturation_basis([(2, 0)], 2) == [(1, 0)]
    assert saturation_basis([(-1, -1)], 2) == [(1, 1)]


# --- cone membership and duality -------------------------------------------


def test_cone_contains_examples():
    half = Cone.from_inequalities([(1, -1)], 2)  # first coordinate >= second
    assert half.contains((1, 0))
    assert not half.contains((0, 1))
    assert half.contains((0, 0))
    assert Cone([(1, 2)]).contains((0, 0))


def test_cone_contains_generators():
    rng = random.Random(4)
    for _ in range(30):
        c = random_cone(rng, rng.randint(1, 4))
        for g in c.generators:
            assert c.contains(g)


def test_cone_dual_examples():
    orthant = Cone([(1, 0), (0, 1)])
    assert set(orthant.inequalities) == {(1, 0), (0, 1)}
    line = Cone([(1, 1), (-1, -1)])
    assert set(line.inequalities) == {(1, -1), (-1, 1)}
    zero = Cone([], 2)
    normals = zero.inequalities
    assert matrix_rank(normals) == 2
    # no nonzero point satisfies them: x_i >= 1 and -x_i >= 1 are both infeasible
    for e in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert feasible_point([(n, 0) for n in normals] + [(e, 1)], 2) is None
    # the normals cut out exactly the origin
    assert Cone.from_inequalities(normals, 2).generators == ()


def test_duality_round_trip_random():
    rng = random.Random(5)
    for _ in range(50):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        dual = Cone(c.inequalities, dim)
        assert Cone(dual.inequalities, dim) == c


def test_generator_and_inequality_descriptions_agree():
    rng = random.Random(51)
    for _ in range(30):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        rebuilt = Cone.from_inequalities(c.inequalities, dim)
        assert rebuilt == c


def test_matrix_rank_matches_fraction_elimination():
    rng = random.Random(22)
    cases = [[], [()], [(0, 0, 0)] * 3, [(0, 0), (2, 4), (Fraction(1, 2), 1)]]
    for _ in range(200):
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            rows.append([a + b for a, b in zip(rng.choice(rows), rng.choice(rows))])
        if rng.random() < 0.5:
            rows = [[a if rng.random() < 0.5 else Fraction(a, rng.randint(1, 6)) for a in r] for r in rows]
        cases.append([tuple(r) for r in rows])
    for rows in cases:
        assert matrix_rank(rows) == len(_row_reduce(rows)[1])


def test_dim_and_pointedness():
    assert Cone([(1, 0), (0, 1)]).dim() == 2
    assert Cone([(1, 1)]).dim() == 1
    assert Cone([], 3).dim() == 0
    assert Cone([(1, 1), (-1, -1)]).is_pointed() is False
    assert Cone([(1, 0), (1, 1)]).is_pointed() is True
    assert Cone([], 2).is_pointed() is True


# --- dimension mismatches ---------------------------------------------------

RAY2, RAY3 = Cone([(1, 0)]), Cone([(1, 0, 0)])

DIMENSION_MISMATCHES = {
    "dot": (lambda: dot((1, 2), (1, 2, 3)), "dimension mismatch: 2 vs 3"),
    "contains": (lambda: RAY2.contains((1, 0, 0)), "not in dimension 2"),
    "contains_cone": (lambda: RAY2.contains_cone(RAY3), "ambient dimension mismatch"),
    "intersect": (lambda: RAY2.intersect(RAY3), "ambient dimension mismatch"),
    "relint_meets": (lambda: relint_meets(RAY2, RAY3), "ambient dimension mismatch"),
    "relint_common_point_cone": (lambda: relint_common_point(RAY2, RAY3, RAY2), "ambient dimension mismatch"),
    "relint_common_point_region": (lambda: relint_common_point(RAY2, RAY2, RAY3), "ambient dimension mismatch"),
    "span_snf": (lambda: quotient_projection([(1, 0, 0)], 2), "does not live in Z\\^2"),
    "zero_cone_without_dimension": (lambda: Cone([]), "ambient dimension required"),
}


@pytest.mark.parametrize("case", sorted(DIMENSION_MISMATCHES))
def test_dimension_mismatch_raises_value_error(case):
    call, message = DIMENSION_MISMATCHES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_cones_in_different_dimensions_are_unequal():
    assert RAY2 != RAY3 and RAY3 != RAY2
    assert Cone([], 2) != Cone([], 3)


# --- relative interiors -----------------------------------------------------


def test_relint_meets_examples():
    V = Cone.from_inequalities([(1, -1)], 2)
    assert relint_meets(Cone([(-1, 1)]), V) is False
    assert relint_meets(Cone([(-1, 1), (1, 0)]), V) is True
    assert relint_meets(V, V) is True


def test_relint_zero_cone():
    V = Cone.from_inequalities([(1, -1)], 2)
    assert relint_meets(Cone([], 2), V) is True


def test_relint_symmetry_property():
    rng = random.Random(6)
    for _ in range(40):
        dim = rng.randint(1, 3)
        c1, c2 = random_cone(rng, dim), random_cone(rng, dim)
        if relint_common_point(c1, c2, Cone.from_inequalities((), dim)) is not None:
            assert relint_meets(c1, c2) and relint_meets(c2, c1)


def test_relint_common_point_is_exact_witness():
    V = Cone.from_inequalities([(1, -1)], 2)
    c = Cone([(-1, 1), (1, 0)])
    w = relint_common_point(c, c, V)
    assert w is not None
    assert all(isinstance(a, Fraction) for a in w)
    assert V.contains(w) and c.contains(w)


def _separated(a, b):
    """The CF2 certificate: a normal of one cone positive on one of its own
    generators and at most 0 on every generator of the other."""
    return any(
        any(dot(n, g) > 0 for g in own.generators) and all(dot(n, g) <= 0 for g in other.generators)
        for own, other in ((a, b), (b, a))
        for n in own.inequalities
    )


def test_relint_common_point_certificate_agrees_with_elimination():
    rng = random.Random(23)
    eliminate = lattice._common_point
    separated = 0
    for _ in range(200):
        dim = rng.randint(2, 4)
        a = _random_cone_with_lines(rng, dim)
        b = rng.choice([a, rng.choice(a.faces()), _random_cone_with_lines(rng, dim)])
        region = rng.choice([Cone.from_inequalities((), dim), random_cone(rng, dim)])
        # the LP alone, with no certificate
        expected = eliminate(a.generators, b.generators, region.inequalities, dim)
        assert relint_common_point(a, b, region) == expected
        if _separated(a, b):
            separated += 1
            assert expected is None
    assert separated >= 20


def test_relint_answers_match_cold_and_warm():
    rng = random.Random(6)
    V = Cone.from_inequalities([(1, -1)], 2)
    pairs = [(Cone([(-1, 1)]), V), (Cone([(-1, 1), (1, 0)]), V), (V, V), (Cone([], 2), V)]
    for _ in range(40):
        dim = rng.randint(1, 3)
        pairs.append((random_cone(rng, dim), random_cone(rng, dim)))

    def answers(a, b):
        whole = Cone.from_inequalities((), a.ambient_dim)
        return relint_meets(a, b), relint_common_point(a, b, whole), relint_common_point(a, a, b)

    cold = []
    for a, b in pairs:
        clear_memos()
        cold.append(answers(a, b))
    for a, b in pairs:
        answers(a, b)  # fill the memos, so the pass below reads them
    assert [answers(a, b) for a, b in pairs] == cold
    assert any(meets for meets, _, _ in cold) and not all(meets for meets, _, _ in cold)


# --- memos -------------------------------------------------------------------


def test_memos_are_bounded():
    assert {memo.__module__ for memo in memos()} == {"sphertrop.lattice", "sphertrop.luna_vust"}
    for memo in memos():
        assert memo.cache_info().maxsize == lattice.MEMO_SIZE
    fan_layer = {memo.__name__ for memo in memos() if memo.__module__ == "sphertrop.luna_vust"}
    assert fan_layer == {"_member_facts", "_record", "_star"}
    cone_layer = {memo.__name__ for memo in memos() if memo.__module__ == "sphertrop.lattice"}
    assert cone_layer == {
        "_prune", "_dual", "_generators", "_pointed_rank", "_cut_out", "_relint_meets", "_relint_common_point"
    }


def test_a_cone_is_cut_out_before_its_normals_are_normalised():
    """``Cone.from_inequalities`` reads its normals and generators from a
    memo keyed on the normals as given; the answer is the normalisation it
    skips, cold and warm."""
    cases = [
        ([(1, -1)], 2),
        ([(2, -2), (1, -1), (1, -1)], 2),  # duplicates, a non-primitive normal
        ([(Fraction(1, 2), Fraction(-1, 2)), (3, 0)], 2),  # Fractions
        ([[1, 0], [0, 1], [1, 1]], 2),  # lists, a redundant normal
        ([(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, 0, 0)], 3),  # an equality, the zero vector
        ((), 3),  # the whole space
    ]
    rng = random.Random(43)
    for _ in range(30):
        dim = rng.randint(1, 4)
        normals = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 5))]
        normals += rng.sample(normals, rng.randint(0, len(normals)))  # duplicates
        cases.append(([[Fraction(a, 2) if rng.random() < 0.3 else a for a in n] for n in normals], dim))
    for normals, dim in cases:
        pruned = lattice._irredundant(lattice._directions(normals, dim), dim)
        expected = tuple(sorted(dual_description(pruned, dim)))
        clear_memos()
        for _ in range(2):  # cold, then warm
            cone = Cone.from_inequalities(normals, dim)
            assert (cone.inequalities, cone.generators) == (pruned, expected)
            assert cone == Cone(expected, dim)
    # an int and an equal Fraction are one key, with one answer
    assert Cone.from_inequalities([(2, -2)], 2).inequalities == ((1, -1),)
    hits = lattice._cut_out.cache_info().hits
    assert Cone.from_inequalities([(Fraction(2), Fraction(-2))], 2).inequalities == ((1, -1),)
    assert lattice._cut_out.cache_info().hits == hits + 1
    for _ in range(2):  # no exception is memoised
        with pytest.raises(ValueError):
            Cone.from_inequalities([(1, -1), (1, 0, 0)], 2)


def test_a_cone_is_looked_up_before_its_generators_are_normalised():
    """``Cone`` reads its generators from a memo keyed on the vectors as
    given; the answer is the normalisation it skips, cold and warm."""
    rng = random.Random(41)
    cases = [
        [(2, 4), (1, 2), (0, 3), (2, 4)],  # duplicates, non-primitive vectors
        [[Fraction(1, 2), 1], [3, 6], [0, 0]],  # lists of lists, Fractions, the zero vector
        [(Fraction(2), Fraction(4)), (Fraction(-3, 7), 0)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, -1, 0)],  # a line
    ]
    for _ in range(40):
        dim = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        vectors += rng.sample(vectors, rng.randint(0, len(vectors)))  # duplicates
        vectors = [[Fraction(a, rng.randint(1, 3)) if rng.random() < 0.3 else 2 * a for a in v] for v in vectors]
        cases.append(vectors)
    for vectors in cases:
        dim = len(vectors[0])
        expected = lattice._irredundant(lattice._directions(vectors, dim), dim)
        clear_memos()
        assert Cone(vectors, dim).generators == expected
        assert Cone(vectors).generators == expected
        assert Cone(iter(vectors), dim).generators == expected
        assert all(type(a) is int for g in expected for a in g)
        # dual_description is looked up on the vectors as given too
        assert dual_description(vectors, dim) == list(lattice._dual(tuple(lattice._directions(vectors, dim)), dim))
    # an int and an equal Fraction are one key, with one answer
    assert Cone([(2, 4)]).generators == ((1, 2),)
    hits = lattice._generators.cache_info().hits
    assert Cone([(Fraction(2), Fraction(4))]).generators == ((1, 2),)
    assert lattice._generators.cache_info().hits == hits + 1


def test_a_bad_cone_raises_on_every_call_and_a_cone_keeps_its_generators():
    for _ in range(2):  # no exception is memoised
        with pytest.raises(ValueError):
            Cone([(1, 0), (1, 0, 0)], 2)
        with pytest.raises(ValueError):
            dual_description([(1, 0), (1, 0, 0)], 2)
    vectors = [[1, 0], [0, 1]]
    cone = Cone(vectors, 2)
    vectors[0][0] = 5
    vectors.append([-1, -1])
    assert cone.generators == ((0, 1), (1, 0))
    assert Cone([[1, 0], [0, 1]], 2).generators == ((0, 1), (1, 0))


def test_dual_description_result_is_a_fresh_list():
    gens = [(1, 0), (1, 2)]
    first = dual_description(gens, 2)
    expected = list(first)
    first[0] = (0, 0)
    first.append((9, 9))
    assert dual_description(gens, 2) == expected
    assert dual_description([], 2) is not dual_description([], 2)


# --- faces -------------------------------------------------------------------


def test_faces_examples():
    orthant = Cone([(1, 0), (0, 1)])
    face_gens = {f.generators for f in orthant.faces()}
    assert face_gens == {(), ((1, 0),), ((0, 1),), ((0, 1), (1, 0))}

    ray = Cone([(1, 1)])
    assert {f.generators for f in ray.faces()} == {(), ((1, 1),)}

    skew = Cone([(1, 0), (1, 1)])
    assert len(skew.faces()) == 4


def test_faces_are_contained_and_closed():
    rng = random.Random(7)
    for _ in range(15):
        c = random_cone(rng, rng.randint(1, 3))
        fs = c.faces()
        assert any(f == c for f in fs)
        for f in fs:
            assert c.contains_cone(f)


def _random_cone_with_lines(rng, dim):
    c = random_cone(rng, dim)
    if rng.random() < 0.5:
        g = rng.choice(c.generators)
        c = Cone(list(c.generators) + [tuple(-a for a in g)], dim)
    return c


def parabola_cone(k):
    """The cone over k points of a parabola: k generators, k facets."""
    return Cone([(1, i, i * i) for i in range(k)])


def test_faces_match_subset_enumeration():
    rng = random.Random(20)
    cones = [
        parabola_cone(13),
        Cone([(1, 0), (-1, 0), (0, 1)]),  # half-plane
        Cone([(1, 1, 0), (-1, -1, 0)]),  # line
        Cone(signed_basis(3), 3),  # whole space
        Cone([], 2),
    ]
    cones += [_random_cone_with_lines(rng, rng.randint(1, 3)) for _ in range(60)]
    assert any(not c.is_pointed() for c in cones)
    for c in cones:
        assert [f.generators for f in c.faces()] == subset_face_generators(c)
    assert len(parabola_cone(13).faces()) == 1 + 13 + 13 + 1


def test_faces_carry_their_inequality_description():
    rng = random.Random(21)
    cones = [parabola_cone(6), Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    cones += [_random_cone_with_lines(rng, rng.randint(2, 4)) for _ in range(60)]
    for c in cones:
        d = c.ambient_dim
        for face in c.faces():
            fresh = Cone(face.generators, d)
            assert Cone.from_inequalities(face.inequalities, d) == fresh
            assert face.is_pointed() == fresh.is_pointed()


def test_faces_depend_only_on_the_generators():
    # The quadrant in the plane z = 0, cut out by normals that differ from
    # those dual_description gives its generators.
    cut = Cone.from_inequalities([(1, 0, 1), (0, 1, 0), (0, 0, 1), (0, 0, -1)], 3)
    built = Cone([(1, 0, 0), (0, 1, 0)], 3)
    assert cut.inequalities != tuple(dual_description(built.generators, 3))
    listed = [(f.generators, f.inequalities) for f in cut.faces()]
    assert [(f.generators, f.inequalities) for f in built.faces()] == listed
    assert [g for g, _ in listed] == [(), ((0, 1, 0),), ((1, 0, 0),), ((0, 1, 0), (1, 0, 0))]


def test_faces_returns_a_fresh_list():
    c = parabola_cone(5)
    first = c.faces()
    expected = list(first)
    first.pop()
    first.append(Cone([], 3))
    assert c.faces() == expected
    assert c.faces() is not c.faces()


# --- intersections and equality ----------------------------------------------


def test_intersection_example():
    V = Cone.from_inequalities([(1, -1)], 2)
    c = Cone([(-1, 1), (1, 0)])
    assert c.intersect(V) == Cone([(1, 1), (1, 0)])


def test_cone_equality_not_representation():
    assert Cone([(1, 0), (0, 1), (1, 1)]) == Cone([(0, 1), (1, 0)])
    assert Cone([(1, 0)]) != Cone([(0, 1)])


def test_equality_of_cones_with_lines():
    plane = Cone(signed_basis(2), 2)
    other_plane = Cone([(1, 0), (0, 1), (-1, -1)])
    assert plane.generators != other_plane.generators
    assert plane == other_plane
    upper = Cone([(1, 0), (-1, 0), (0, 1)])
    other_upper = Cone([(1, 0), (-1, 0), (1, 1), (-1, 1)])
    assert upper.generators != other_upper.generators
    assert upper == other_upper
    assert upper != Cone([(0, 1), (0, -1), (1, 0)])
    quadrant = Cone([(1, 0), (0, 1)])
    assert quadrant != upper and upper != quadrant
    assert quadrant != plane and plane != quadrant


def _random_cone_by_normals(rng, dim):
    """A cone cut out by random normals; a normal next to its negative makes
    it lower-dimensional."""
    normals = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, dim + 1))]
    if normals and rng.random() < 0.5:
        normals.append(tuple(-a for a in rng.choice(normals)))
    return Cone.from_inequalities(normals, dim)


def test_equality_and_pointedness_match_containment_and_rank():
    rng = random.Random(31)
    by_normals = random.Random(32)
    equal_with_lines = lower = other_normals = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        a = _random_cone_with_lines(rng, dim)
        if rng.random() < 0.5:
            # the same set, generated differently: add sums of generators
            extra = [tuple(map(sum, zip(*rng.sample(a.generators, min(2, len(a.generators))))))]
            b = Cone(list(a.generators) + extra, dim)
        else:
            b = _random_cone_with_lines(rng, dim)
        # a cone built from normals, and the same generators built from
        # generators: pointedness and rank are read from one memo keyed on
        # the generators, while the two instances keep their own normals
        c = _random_cone_by_normals(by_normals, dim)
        d = Cone(c.generators, dim)
        lower += c.dim() < dim
        other_normals += c.inequalities != d.inequalities
        for x, y in ((a, b), (a, c), (d, c)):
            for z in (x, y):
                assert z.is_pointed() == (matrix_rank(z.inequalities) == dim)
                assert z.dim() == matrix_rank(z.generators)
            mutual = x.contains_cone(y) and y.contains_cone(x)
            assert (x == y) == mutual and (y == x) == mutual
            assert not mutual or hash(x) == hash(y)
            assert (y in {x}) == mutual
            if mutual and x.generators != y.generators:
                equal_with_lines += 1
    assert equal_with_lines > 0 and lower > 0 and other_normals > 0


def test_hash_is_computed_once_per_cone(monkeypatch):
    pairs = [
        # a ray in the plane, and the same ray cut out by other normals
        (Cone([(1, 0)]), Cone.from_inequalities([(1, 1), (0, 1), (0, -1)], 2)),
        # cones that contain a line, by generators and by normals
        (Cone([(1, 0), (-1, 0), (0, 1)]), Cone.from_inequalities([(0, 1)], 2)),
        (
            Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
            Cone.from_inequalities([(0, 1, 0), (0, 0, 1), (0, 0, -1)], 3),
        ),
    ]
    pointed = Cone.is_pointed
    scans = []
    monkeypatch.setattr(Cone, "is_pointed", lambda cone: scans.append(cone) or pointed(cone))
    assert pairs[0][0].inequalities != pairs[0][1].inequalities
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b) == hash(a) == hash(b)
    assert len(scans) == 2 * len(pairs)


def test_feasible_point_witness():
    rows = [((1, 0), 1), ((0, 1), 2), ((-1, -1), -10)]
    point = feasible_point(rows, 2)
    assert point is not None
    assert all(sum(c * x for c, x in zip(coeffs, point)) >= rhs for coeffs, rhs in rows)
    assert feasible_point([((1,), 1), ((-1,), 0)], 1) is None


def naive_fm_feasible(rows, nvars):
    """Reference decision procedure: Fourier-Motzkin with no acceleration."""
    rows = [(tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows]
    for k in range(nvars - 1, -1, -1):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        nxt = [(r[0][:k], r[1]) for r in rows if r[0][k] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = -cn[k], cp[k]
                nxt.append(
                    (tuple(a * x + b * y for x, y in zip(cp[:k], cn[:k])), a * rp + b * rn)
                )
        rows = nxt
    return all(rhs <= 0 for _, rhs in rows)


def test_feasibility_matches_unaccelerated_reference():
    rng = random.Random(52)
    seen_infeasible = 0
    for _ in range(150):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 7)
        rows = [
            (
                tuple(rng.randint(-3, 3) for _ in range(nvars)),
                rng.randint(-4, 4),
            )
            for _ in range(nrows)
        ]
        if rng.random() < 0.5:
            # rational rows reach the engine only through entry conversion
            rows = [
                (tuple(Fraction(c, rng.randint(1, 4)) for c in coeffs), Fraction(rhs, rng.randint(1, 6)))
                for coeffs, rhs in rows
            ]
        witness = feasible_point(rows, nvars)
        assert (witness is not None) == naive_fm_feasible(rows, nvars)
        integer_rows = _integer_rows(((rhs, *coeffs) for coeffs, rhs in rows), nvars)
        assert (_project(integer_rows, nvars) is None) == (witness is None)
        if witness is None:
            seen_infeasible += 1
        else:
            for coeffs, rhs in rows:
                assert sum(c * x for c, x in zip(coeffs, witness)) >= rhs
    assert seen_infeasible >= 10


def naive_member(x, gens):
    """Is ``x`` a nonnegative combination of ``gens``?  Decided by the reference FM."""
    k = len(gens)
    rows = [(tuple(1 if i == j else 0 for i in range(k)), 0) for j in range(k)]
    for i, xi in enumerate(x):
        coeffs = tuple(g[i] for g in gens)
        rows.append((coeffs, xi))
        rows.append((tuple(-c for c in coeffs), -xi))
    return naive_fm_feasible(rows, k)


def test_generator_pruning_matches_reference():
    rng = random.Random(53)
    pruned = 0
    for _ in range(60):
        # the unaccelerated reference blows up beyond dimension 3 / six generators
        dim = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
        kept = Cone(gens, dim).generators
        for i, g in enumerate(kept):
            assert not naive_member(g, kept[:i] + kept[i + 1 :])
        for g in gens:
            assert naive_member(g, kept)
        pruned += len(kept) < len({tuple(g) for g in gens if any(g)})
    assert pruned >= 10
