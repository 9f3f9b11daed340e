"""Exact integer/rational linear algebra and polyhedral cone primitives.

Everything here works over ``int`` and ``fractions.Fraction``; no decision
is ever made with floating point.  Vectors are plain tuples.  A linear
inequality is a pair ``(a, b)`` meaning ``a . x >= b``; cone descriptions
are homogeneous, so they are stored as bare normal vectors ``n`` meaning
``n . x >= 0``.

Every cone decision runs on one integer Fourier-Motzkin engine
(:func:`_eliminate`): rational rows are scaled to primitive integer rows
once, at entry, by :func:`_coprime`, whose all-int branch takes no common
denominator.  :func:`matrix_rank` eliminates fraction-free on such rows.
:func:`_project` eliminates every variable and so decides feasibility;
:func:`feasible_point` then back-substitutes a rational witness and
:func:`least_integer_point` searches the same bounds for the least integer
point, while the yes/no tests (:func:`_implied`, :func:`relint_meets`)
build none.
:func:`dual_description` only projects.  Redundant normals and redundant
generators are both dropped by the same implication test, :func:`_implied`.

The eight pure exact computations are memoised in bounded LRU caches of
``MEMO_SIZE`` entries each, keyed on immutable data: a new cone's stored
generators, :func:`dual_description` and :func:`quotient_projection` on
the vectors as given (tuples that compare equal have equal directions) and
the dimension; pruning (:func:`_irredundant`) on the sorted distinct
vectors and the dimension; a cone's pointedness and rank on its generators
and the dimension; :meth:`Cone.from_inequalities`, and so
:meth:`Cone.intersect`, on the normals as given and the dimension, with the
pointedness and rank of the cone they cut out;
:func:`relint_meets` on one cone's generators and the other's normals;
:func:`relint_common_point` on both cones' generators and the region's
normals, where a separating normal of either cone decides a disjoint
pair before any elimination.  No exception is stored, so bad input
raises on every call.  The memos sit in private helpers below the public
names, so every public call still happens, and each stores tuples or
immutable cones, so no caller can alter a cached answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm

# Entries kept by each memo of an exact cone computation (least recently
# used first out).  The answers are small tuples of ints or Fractions.
MEMO_SIZE = 4096


class ZeroVectorError(ValueError):
    """An operation that needs a direction received the zero vector."""


# ---------------------------------------------------------------------------
# vectors


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def is_zero_vector(v):
    return all(a == 0 for a in v)


def _coprime(values):
    """``(p, g)``: ints ``g * p`` equal ``values`` times their common denominator.

    ``values`` are ints or Fractions; ``p`` has coprime entries (all zero,
    with ``g == 0``, when the input is zero).  This is the one place rational
    data becomes primitive integer data; all-int data skips the common
    denominator, and data with gcd 1 (or 0) skips the division.
    """
    ints = values
    if not all(type(a) is int for a in values):
        den = lcm(*(a.denominator for a in values))
        ints = [a.numerator * (den // a.denominator) for a in values]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints), g


def primitive(v):
    """Write an integer vector as ``m * p`` with ``p`` primitive and ``m >= 1``.

    Returns ``(p, m)``.  Raises :class:`ZeroVectorError` on the zero vector,
    which spans no ray.
    """
    if any(not isinstance(a, int) for a in v):
        raise TypeError("primitive() expects integer entries, got %r" % (v,))
    p, g = _coprime(v)
    if g == 0:
        raise ZeroVectorError("zero vector has no direction")
    return p, g


def _directions(vectors, dim):
    """Primitive integer directions of the nonzero rational ``vectors`` in Q^dim."""
    out = []
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector %r does not live in dimension %d" % (v, dim))
        p, g = _coprime(v)
        if g:
            out.append(p)
    return out


def _unit_vectors(dim):
    return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]


def signed_basis(dim):
    """The vectors ``e_1, -e_1, ..., e_dim, -e_dim`` of Z^dim.

    They generate the whole space and cut out the zero cone.
    """
    out = []
    for e in _unit_vectors(dim):
        out += [e, tuple(-a for a in e)]
    return out


def leading_positive(v):
    """Flip the sign of ``v`` if its first nonzero entry is negative."""
    for a in v:
        if a != 0:
            return v if a > 0 else tuple(-x for x in v)
    return tuple(v)


# ---------------------------------------------------------------------------
# matrices (lists of row tuples)


def mat_vec(rows, x):
    return tuple(dot(tuple(row), x) for row in rows)


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[dot(tuple(row), col) for col in Bt] for row in A]


def matrix_rank(rows):
    """Rank over the rationals, by fraction-free elimination on primitive integer rows."""
    work = [_coprime(row)[0] for row in rows]
    rank = 0
    while work := [r for r in work if any(r)]:
        p = work.pop()
        c = next(i for i, a in enumerate(p) if a)
        work = [_coprime([p[c] * a - r[c] * b for a, b in zip(r, p)])[0] if r[c] else r for r in work]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(A):
    """Return (U, D, V) with ``U A V = D`` in Smith normal form.

    U and V are unimodular; D is diagonal, nonnegative, with each diagonal
    entry dividing the next.  The steps run on one block matrix
    ``M = [[A, I_m], [I_n, 0]]``: a row step on M's first m rows acts on A
    and records U, a column step on its first n columns acts on A and
    records V, and U, D and V are M's three nonzero blocks at the end.  The
    diagonal entries are placed in turn.  At each position the pivot is the
    smallest-magnitude nonzero entry of the remaining block, ties broken in
    row-major order; row steps clear its column, column steps its row, and a
    remainder left by either picks a new pivot.  Once both are clear, the
    first row (in row-major order) holding an entry the pivot does not
    divide is added to the pivot row and the position is pivoted again, so
    each placed entry divides the whole block after it; a pivot of +-1
    divides it all and skips that scan.  Its sign is fixed as it is placed.
    Non-integer entries raise TypeError.
    """
    if any(not isinstance(a, int) for row in A for a in row):
        raise TypeError("smith_normal_form() expects integer entries, got %r" % (A,))
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[int(a) for a in row] + [0] * m for row in A] + [[0] * (n + m) for _ in range(n)]
    for r, row in enumerate(M):
        row[(n + r) % (n + m)] = 1  # the blocks I_m and I_n
    k = 0
    while k < min(m, n):
        best = None
        for r in range(k, m):
            for c in range(k, n):
                a = M[r][c]
                if a and (best is None or abs(a) < best):
                    best, i, j = abs(a), r, c
        if best is None:
            break
        M[k], M[i] = M[i], M[k]
        if j != k:
            for row in M:
                row[k], row[j] = row[j], row[k]
        p = M[k][k]
        dirty = False
        for i in range(k + 1, m):
            if M[i][k]:
                q = M[i][k] // p
                M[i] = [a - q * b for a, b in zip(M[i], M[k])]
                dirty = dirty or M[i][k] != 0
        for j in range(k + 1, n):
            if M[k][j]:
                q = M[k][j] // p
                for row in M:
                    row[j] -= q * row[k]
                dirty = dirty or M[k][j] != 0
        if dirty:
            continue
        if abs(p) != 1:
            i = next((i for i in range(k + 1, m) if any(a % p for a in M[i][k + 1 : n])), None)
            if i is not None:
                M[k] = [a + b for a, b in zip(M[k], M[i])]
                continue
        if p < 0:
            M[k] = [-a for a in M[k]]
        k += 1
    return [row[n:] for row in M[:m]], [row[:n] for row in M[:m]], [row[:n] for row in M[m:]]


def _span_snf(vs, dim):
    """``(A, U, D, V, rank)``: the Smith form of the matrix A whose columns are ``vs``."""
    for v in vs:
        if len(v) != dim:
            raise ValueError("vector %r does not live in Z^%d" % (v, dim))
    A = [[v[i] for v in vs] for i in range(dim)]
    U, D, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(dim, len(vs))) if D[i][i] != 0)
    return A, U, D, V, rank


def quotient_projection(vs, dim):
    """Integer projection matrix killing exactly the saturated span of ``vs``.

    Returns a list of row tuples defining a surjection Z^dim -> Z^m with
    m = dim - rank(vs), whose rational kernel is span(vs).  Rows are sign
    normalized so their first nonzero entry is positive; for fixed input the
    output is deterministic, and memoised on the vectors as given and ``dim``.
    """
    return list(_quotient_projection(tuple(map(tuple, vs)), dim))


@lru_cache(maxsize=MEMO_SIZE)
def _quotient_projection(vs, dim):
    _, U, _, _, rank = _span_snf(vs, dim)
    return tuple(leading_positive(tuple(U[i])) for i in range(rank, dim))


def saturation_basis(vs, dim):
    """Lattice basis of the saturation of span(vs) inside Z^dim.

    The first ``rank`` columns of U^-1 span it; as U^-1 D = A V, column j is
    column j of A V divided by d_j.  Basis vectors are primitive with
    positive leading entry; the list is empty when ``vs`` is empty or all
    zero.
    """
    A, _, D, V, rank = _span_snf(vs, dim)
    AV = mat_mul(A, V)
    return [leading_positive(tuple(AV[i][j] // D[j][j] for i in range(dim))) for j in range(rank)]


# ---------------------------------------------------------------------------
# exact linear feasibility: one integer Fourier-Motzkin engine
#
# The engine works on primitive integer rows ``(b, a_1, ..., a_n)`` meaning
# ``a . x >= b``, each mapped to the set of input rows it combines.


def _integer_rows(rows, nvars):
    """Entry conversion of rational rows; the first copy of a row wins.

    Returns None when some row reads ``0 >= b`` with ``b > 0``.
    """
    out = {}
    for idx, row in enumerate(rows):
        if len(row) != nvars + 1:
            raise ValueError("inequality arity %d != %d" % (len(row) - 1, nvars))
        row, _ = _coprime(row)
        if not any(row[1:]):
            if row[0] > 0:
                return None
            continue
        out.setdefault(row, frozenset((idx,)))
    return out


def _eliminate(rows, bound):
    """One Fourier-Motzkin step: project the last variable away.

    Returns ``(projected, pos, neg)``, where ``pos``/``neg`` are the rows
    bounding that variable from below/above, or None when a combination
    reads ``0 >= b`` with ``b > 0``.  Imbert's acceleration: a combination of
    more than ``bound`` input rows is redundant and dropped.  Of two equal
    combinations the one with fewer ancestors is kept.
    """
    pos = [(r, anc) for r, anc in rows.items() if r[-1] > 0]
    neg = [(r, anc) for r, anc in rows.items() if r[-1] < 0]
    out = {r[:-1]: anc for r, anc in rows.items() if r[-1] == 0}
    for p, anc_p in pos:
        for q, anc_q in neg:
            ancestors = anc_p | anc_q
            if len(ancestors) > bound:
                continue
            a, b = -q[-1], p[-1]
            row = tuple(a * x + b * y for x, y in zip(p[:-1], q[:-1]))
            g = gcd(*row[1:])
            if g == 0:
                if row[0] > 0:
                    return None
                continue
            g = gcd(g, row[0])
            if g > 1:
                row = tuple(v // g for v in row)
            old = out.get(row)
            if old is None or len(ancestors) < len(old):
                out[row] = ancestors
    return out, pos, neg


def _project(rows, nvars):
    """Eliminate all ``nvars`` variables from :func:`_integer_rows` output.

    Returns the per-level ``(pos, neg)`` bounds, last variable first, or
    None when the system is infeasible (``rows`` None included).  Deciding
    feasibility needs nothing more; only :func:`feasible_point`
    back-substitutes a witness.
    """
    if rows is None:
        return None
    levels = []
    for step in range(1, nvars + 1):
        projected = _eliminate(rows, step + 1)
        if projected is None:
            return None
        rows, pos, neg = projected
        levels.append((pos, neg))
    return levels


def _bounds(pos, neg, point):
    """``(lo, hi)`` on the next variable once ``point`` fixes those before it.

    Read off one ``(pos, neg)`` level of :func:`_project` as Fractions; a side
    with no row is None.
    """
    lo = max((Fraction(r[0] - dot(r[1:-1], point), r[-1]) for r, _ in pos), default=None)
    hi = min((Fraction(r[0] - dot(r[1:-1], point), r[-1]) for r, _ in neg), default=None)
    return lo, hi


def feasible_point(ineqs, nvars):
    """Exact witness for a system of inequalities ``a . x >= b``, or None.

    ``ineqs`` is an iterable of ``(coeffs, rhs)`` pairs over ``nvars``
    variables, with int or Fraction entries.  Each row is scaled once to a
    primitive integer row; integer Fourier-Motzkin elimination then drops
    the variables last to first, with Imbert's acceleration (a derived row
    combining more than ``eliminated + 1`` original rows is redundant),
    which keeps desk-scale systems small.  The witness is back-substituted
    first to last, taking each variable midway between its bounds (at its
    one bound, or 0 with none).  Callers that need only a yes/no answer skip
    the witness: they run the same elimination through :func:`_project`.
    """
    levels = _project(_integer_rows(((rhs, *coeffs) for coeffs, rhs in ineqs), nvars), nvars)
    if levels is None:
        return None
    point = ()
    for pos, neg in reversed(levels):
        bounds = [b for b in _bounds(pos, neg, point) if b is not None]
        point += (sum(bounds, Fraction(0)) / max(len(bounds), 1),)
    return point


def least_integer_point(ineqs, nvars, slack):
    """Lexicographically least integer point of ``a . x >= b``, or None.

    ``ineqs`` is as for :func:`feasible_point`.  After one projection, a
    depth-first search tries each variable, first to last, from the ceiling
    of its lower bound (which must exist) to the floor of its upper bound,
    and backtracks from dead prefixes.  The first variable stops at its
    lower bound plus ``slack``, which must cover the least integer point;
    each later variable needs an upper bound once those before it are fixed.
    """
    levels = _project(_integer_rows(((rhs, *coeffs) for coeffs, rhs in ineqs), nvars), nvars)
    if levels is None:
        return None
    levels.reverse()

    def search(point):
        if len(point) == nvars:
            return point
        lo, hi = _bounds(*levels[len(point)], point)
        if not point:
            hi = lo + slack if hi is None else min(hi, lo + slack)
        for x in range(ceil(lo), floor(hi) + 1):
            found = search(point + (x,))
            if found is not None:
                return found
        return None

    return search(())


def _implied(normal, others, dim):
    """Is ``normal . x >= 0`` implied by ``o . x >= 0`` for all ``o``?

    By Farkas' lemma this is also the test whether ``normal`` is a
    nonnegative combination of ``others``.  Decided without a witness.
    """
    rows = [(0, *o) for o in others]
    rows.append((1, *(-a for a in normal)))
    return _project(_integer_rows(rows, dim), dim) is None


def _irredundant(vectors, dim):
    """Sorted distinct ``vectors``, dropping each one implied by those kept.

    Applied to normals this drops redundant inequalities; applied to
    generators it drops those lying in the cone of the others (Farkas).
    Returns a tuple, memoised on the sorted distinct vectors and ``dim``.
    """
    return _prune(tuple(sorted(set(vectors))), dim)


@lru_cache(maxsize=MEMO_SIZE)
def _prune(vectors, dim):
    rows = list(vectors)
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        if _implied(rows[i], others, dim):
            rows.pop(i)
        else:
            i += 1
    return tuple(rows)


def dual_description(vectors, dim):
    """The two-way bridge between generators and inequalities of a cone.

    Given generators, returns the irredundant inequality normals; given
    inequality normals, the same computation returns generators.  Both are
    instances of computing the dual cone's extreme data: the system
    ``y = sum_j lambda_j v_j, lambda >= 0`` is projected onto ``y`` by the
    Fourier-Motzkin engine.  No vectors give ``signed_basis(dim)``, which
    is both the normals of the zero cone and the generators of the space.
    The answer is memoised on the vectors as given, in input order (the
    elimination's tie rule sees that order), and ``dim``; each call returns
    a fresh list.
    """
    return list(_dual(tuple(map(tuple, vectors)), dim))


@lru_cache(maxsize=MEMO_SIZE)
def _dual(vecs, dim):
    vecs = _directions(vecs, dim)
    if not vecs:
        return tuple(signed_basis(dim))
    rows = []
    for i, e in enumerate(_unit_vectors(dim)):
        row = (0, *e, *(-g[i] for g in vecs))
        rows += [row, tuple(-a for a in row)]
    rows += [(0,) * (1 + dim) + e for e in _unit_vectors(len(vecs))]
    current = _integer_rows(rows, dim + len(vecs))
    for step in range(1, len(vecs) + 1):
        current = _eliminate(current, step + 1)[0]
    return _irredundant([row[1:] for row in current], dim)


# ---------------------------------------------------------------------------
# cones


class Cone:
    """Finitely generated rational convex cone.

    Stored by primitive integer generators; a generator that is a
    nonnegative combination of the others is pruned deterministically, by
    the same exact test that prunes redundant normals, and the stored
    generators are memoised on the generators as given, so rebuilding a cone
    seen before costs one lookup.  Generators known to be sorted, primitive
    and irredundant skip that pruning through the private ``_known``, the
    cone's normals (or None) and ``(pointed, rank)``, as :meth:`faces` and
    :meth:`from_inequalities` pass them; normals not given are computed
    lazily, once per instance, by :func:`dual_description` (memoised).  The
    zero cone has an empty generator list.  Instances are immutable;
    equality is set equality.  The stored generators are sorted, irredundant
    and primitive, so for a pointed cone they are exactly its primitive
    extreme rays: equal generator tuples are equal cones, differing tuples
    with a pointed side are unequal, and only two cones that both contain a
    line are compared by mutual containment.  The hash of a pointed cone is
    the hash of its generator tuple; every cone that contains a line hashes
    to one value per ambient dimension.  The hash, and the pointedness and
    rank read from their memo, are kept on the instance once computed.
    """

    __slots__ = ("ambient_dim", "generators", "_normals", "_hash", "_shape")

    def __init__(self, generators, ambient_dim=None, _known=None):
        gens = tuple(map(tuple, generators))
        if ambient_dim is None:
            if not gens:
                raise ValueError("ambient dimension required for the zero cone")
            ambient_dim = len(gens[0])
        if _known is None:
            gens, _known = _generators(gens, ambient_dim), (None, None)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_normals", _known[0])
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_shape", _known[1])

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    @classmethod
    def from_inequalities(cls, normals, ambient_dim):
        """Cone cut out by ``n . x >= 0`` for the given normals.

        The dual description of the pruned normals is already sorted,
        primitive and irredundant, so it is stored as the generators without
        pruning again; no normals give the whole space, whose signed basis
        only needs sorting, with no elimination at all.  Both are memoised
        on the normals as given, so cutting out a cone seen before costs one
        lookup and normalises nothing, and reads off its pointedness and rank.
        """
        pruned, gens, shape = _cut_out(tuple(map(tuple, normals)), ambient_dim)
        return cls(gens, ambient_dim, (pruned, shape))

    @property
    def inequalities(self):
        """Irredundant primitive normals with ``n . x >= 0`` cutting out the cone."""
        if self._normals is None:
            normals = tuple(dual_description(self.generators, self.ambient_dim))
            object.__setattr__(self, "_normals", normals)
        return self._normals

    @property
    def is_zero(self):
        return not self.generators

    def _read_shape(self):
        if self._shape is None:
            object.__setattr__(self, "_shape", _pointed_rank(self.generators, self.ambient_dim))
        return self._shape

    def dim(self):
        return self._read_shape()[1]

    def is_pointed(self):
        """True iff the cone contains no line.

        The lineality space ``{x : N x = 0}`` is the same for every
        inequality description ``N``, so the answer depends on the
        generators alone and is memoised on them and the dimension.
        """
        return self._read_shape()[0]

    def contains(self, x):
        if len(x) != self.ambient_dim:
            raise ValueError("point %r not in dimension %d" % (x, self.ambient_dim))
        return all(dot(n, x) >= 0 for n in self.inequalities)

    def contains_cone(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(g) for g in other.generators)

    def intersect(self, other):
        """The cone cut out by both cones' normals."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Cone.from_inequalities(self.inequalities + other.inequalities, self.ambient_dim)

    def faces(self):
        """All faces, including the cone itself and its minimal face.

        A face is the set of generators tight on some set of facet normals,
        so the faces are the closure of ``{generators}`` under taking the
        tight part on one normal at a time (Kaibel and Pfetsch, Comput.
        Geom. 23, 2002), in O(faces x facets) set intersections.  The
        normals are those :func:`dual_description` gives the generators, so
        the list, sorted by :meth:`sort_key`, depends on the generators alone.
        A face of a pointed cone is pointed and its generators are its extreme
        rays, so it is built unpruned, its rank read by :func:`matrix_rank`.
        Each call computes a fresh list: the fan layer memoises each member's
        colored faces, and decolor lists faces only of clipped colored members.
        """
        gens, dim, pointed = self.generators, self.ambient_dim, self.is_pointed()
        tight = dict.fromkeys((gens,))
        for n in _dual(gens, dim):
            for s in list(tight):
                tight.setdefault(tuple(g for g in s if dot(n, g) == 0))
        faces = (Cone(s, dim, (None, (True, matrix_rank(s))) if pointed else None) for s in tight)
        return sorted(faces, key=Cone.sort_key)

    def sort_key(self):
        return (self.dim(), self.generators)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            return False
        if self.generators == other.generators:
            return True
        if self.is_pointed() or other.is_pointed():
            return False
        return self.contains_cone(other) and other.contains_cone(self)

    def __hash__(self):
        if self._hash is None:
            key = self.generators if self.is_pointed() else self.ambient_dim
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self):
        return "Cone(%r, dim=%d)" % (list(self.generators), self.ambient_dim)


@lru_cache(maxsize=MEMO_SIZE)
def _generators(vectors, dim):
    """The stored generators of the cone ``vectors`` span, keyed on the vectors as given."""
    return _irredundant(_directions(vectors, dim), dim)


@lru_cache(maxsize=MEMO_SIZE)
def _pointed_rank(gens, dim):
    """``(pointed, rank)`` of the cone the primitive, irredundant ``gens`` span.

    The lineality space is the minimal face, and a face is generated by the
    generators it contains, so the cone contains a line exactly when some
    generator is tight on every normal.
    """
    normals = _dual(gens, dim)
    return not any(all(dot(n, g) == 0 for n in normals) for g in gens), matrix_rank(gens)


@lru_cache(maxsize=MEMO_SIZE)
def _cut_out(normals, dim):
    """``(pruned normals, sorted generators, (pointed, rank))`` of the cone ``normals`` cut out,
    keyed on the normals as given; its lineality space is ``{x : N x = 0}``, so it is pointed
    exactly when its normals have full rank.  No normals cut out the whole space, of rank
    ``dim``, read with no elimination."""
    pruned = _irredundant(_directions(normals, dim), dim)
    gens = tuple(sorted(dual_description(pruned, dim)))
    return pruned, gens, (matrix_rank(pruned) == dim, matrix_rank(gens) if pruned else dim)


def relint_meets(cone_a, cone_b):
    """Does the relative interior of ``cone_a`` intersect ``cone_b``?

    Decided exactly: relint(cone_a) is the set of strictly positive
    combinations of its generators, and by homogeneity strict positivity
    can be normalized to ``lambda_i >= 1``; for the zero cone every row
    reads ``0 >= 0``, so it meets every cone.  No witness is built; the
    answer is memoised on ``cone_a``'s generators and ``cone_b``'s normals.
    """
    if cone_b.ambient_dim != cone_a.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _relint_meets(cone_a.generators, cone_b.inequalities)


@lru_cache(maxsize=MEMO_SIZE)
def _relint_meets(gens, normals):
    rows = [(0, *(dot(n, g) for g in gens)) for n in normals]
    rows += [(1, *e) for e in _unit_vectors(len(gens))]
    return _project(_integer_rows(rows, len(gens)), len(gens)) is not None


def relint_common_point(cone_a, cone_b, region):
    """Exact rational point in relint(a) & relint(b) & region, or None.

    A normal of one cone positive on one of its own generators and at most 0
    on every generator of the other separates the relative interiors; such a
    pair gets None with no elimination.  Memoised on both cones' generators,
    the region's normals and the dimension.
    """
    dim = cone_a.ambient_dim
    if cone_b.ambient_dim != dim or region.ambient_dim != dim:
        raise ValueError("ambient dimension mismatch")
    return _relint_common_point(cone_a.generators, cone_b.generators, region.inequalities, dim)


@lru_cache(maxsize=MEMO_SIZE)
def _relint_common_point(ga, gb, normals, dim):
    for own, other in ((ga, gb), (gb, ga)):
        for n in _dual(own, dim):
            if any(dot(n, g) > 0 for g in own) and all(dot(n, g) <= 0 for g in other):
                return None
    return _common_point(ga, gb, normals, dim)


def _common_point(ga, gb, normals, dim):
    """The point of :func:`relint_common_point` by one Fourier-Motzkin LP."""
    ka, kb = len(ga), len(gb)
    nv = ka + kb
    rows = [(e, 1) for e in _unit_vectors(nv)]
    for i in range(dim):
        coeffs = tuple(g[i] for g in ga) + tuple(-g[i] for g in gb)
        rows.append((coeffs, 0))
        rows.append((tuple(-c for c in coeffs), 0))
    for n in normals:
        rows.append((tuple(dot(n, g) for g in ga) + (0,) * kb, 0))
    witness = feasible_point(rows, nv)
    if witness is None:
        return None
    point = [Fraction(0)] * dim
    for lam, g in zip(witness[:ka], ga):
        for i in range(dim):
            point[i] += lam * g[i]
    return tuple(point)
