"""Built-in spherical space descriptors and reference fixtures.

Three families are shipped:

* ``torus(n)``: rank n, valuation cone all of R^n, empty palette;
* ``sl2_u``: rank 1, valuation cone all of R, one color at +1;
* ``gln(n)``: rank n, valuation cone ``mu_1 >= ... >= mu_n`` in the dual
  basis of the characters of the nested lower-right minors, palette
  ``E_j -> e_j - e_{j-1}`` for j = 2..n.

The gln palette vectors follow from the orders of the character basis
functions along the divisor of the j-th minor; the n = 2 value is pinned
independently and the general rule is validated by an order-computation
oracle in the test suite.  Reference fans and curves live in JSON fixture
files so other tooling can share them byte-for-byte; the sl2_u family of
weighted fans is built in code by :func:`sl2u_family`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .lattice import Cone
from .luna_vust import SphericalSpace


def builtin_space(name, n=None):
    """Construct a catalog space descriptor by family name."""
    if name == "torus":
        if n is None or n < 1:
            raise ValueError("torus needs a positive rank")
        return SphericalSpace(
            name="torus%d" % n,
            rank=n,
            valuation_cone=Cone.from_inequalities((), n),
            palette=(),
            character_basis_labels=tuple("x%d" % (i + 1) for i in range(n)),
            family="torus",
        )
    if name == "sl2_u":
        return SphericalSpace(
            name="sl2u",
            rank=1,
            valuation_cone=Cone.from_inequalities((), 1),
            palette=(("E1", (1,)),),
            character_basis_labels=("chi1",),
            family="sl2_u",
        )
    if name == "gln":
        if n is None or n < 1:
            raise ValueError("gln needs a positive size")
        normals = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            row[i + 1] = -1
            normals.append(tuple(row))
        palette = []
        for j in range(2, n + 1):
            v = [0] * n
            v[j - 1] = 1
            v[j - 2] = -1
            palette.append(("E%d" % j, tuple(v)))
        return SphericalSpace(
            name="gln%d" % n,
            rank=n,
            valuation_cone=Cone.from_inequalities(normals, n),
            palette=tuple(palette),
            character_basis_labels=tuple("chi%d" % (i + 1) for i in range(n)),
            family="gln",
        )
    raise ValueError("unknown space family %r" % (name,))


# The space id grammar: torus<n> or gln<n>, else sl2u (also written sl2_u).
_SPACE_ID = re.compile(r"(torus|gln)(\d+)|sl2_?u")


def parse_space_id(ident):
    """``(family, n)`` of a CLI-style space id ``torus<n>``, ``gln<n>`` (n >= 1)
    or ``sl2u`` (n is None); else KeyError.  Builds no space."""
    m = _SPACE_ID.fullmatch(ident)
    if m and not m.group(1):
        return "sl2_u", None
    try:
        n = int(m.group(2)) if m else 0
    except ValueError:  # more digits than int() reads
        n = 0
    if not n:
        raise KeyError("unknown space id %r" % (ident,))
    return m.group(1), n


def space_by_id(ident):
    """The catalog space of a CLI-style space id; else KeyError."""
    return builtin_space(*parse_space_id(ident))


@dataclass(frozen=True)
class CurveFixture:
    """A reference curve: branches plus the fan its tropicalization must give."""

    name: str
    space: SphericalSpace
    branches: tuple
    colored_weights: tuple
    expected: object  # WeightedRayFan


# Each fixture ``<name>`` is the packaged document ``fixtures/<name>.json``.
FIXTURE_FILES = ("gl2_fig1_fan", "gl2_line_curve", "torus_line_curve")


def fixture_names():
    return tuple(sorted(FIXTURE_FILES))


def _load_fixture_doc(name):
    if name not in FIXTURE_FILES:
        raise KeyError("unknown fixture %r" % (name,))
    path = resources.files("sphertrop").joinpath("fixtures", name + ".json")
    return json.loads(path.read_text())


def reference_fixture(name):
    """Load a named fixture.

    ``gl2_fig1_fan`` gives a ColoredFan; the curve fixtures give
    :class:`CurveFixture` objects.
    """
    from . import documents

    doc = _load_fixture_doc(name)
    if doc.get("format") == "fan/1":
        return documents.fan_from_doc(doc)
    if doc.get("format") == "curve/1":
        space, branches, colored, expected = documents.curve_from_doc(doc)
        return CurveFixture(name, space, branches, colored, expected)
    raise ValueError("fixture %r has unsupported format %r" % (name, doc.get("format")))


def sl2u_family(d, e):
    """The one-parameter degree-d family with colored weight e.

    Rays ``(-1)`` with weight d and ``(+1)`` with weight d - e, plus colored
    weight e on the single color; requires ``1 <= d`` and ``0 <= e <= d``.
    At e = d the ray ``(+1)`` has weight zero and is left out.
    """
    from .balance import assemble

    if d < 1 or not 0 <= e <= d:
        raise ValueError("need 1 <= d and 0 <= e <= d, got d=%r e=%r" % (d, e))
    rays = [((-1,), d)] + ([((1,), d - e)] if e < d else [])
    return assemble(builtin_space("sl2_u"), rays, [(0, e)])


def catalog_listing():
    """Human-oriented list of built-in spaces and fixtures for the CLI."""
    return {
        "spaces": [
            {"id": "torus<n>", "rank": "n", "palette": 0},
            {"id": "sl2u", "rank": 1, "palette": 1},
            {"id": "gln<n>", "rank": "n", "palette": "n-1"},
        ],
        "fixtures": list(fixture_names()),
    }


# ---------------------------------------------------------------------------
# symbolic semi-invariants
#
# The character basis of each catalog space is realized by concrete
# functions: coordinates for the torus, the second coordinate for sl2_u,
# and ratios of nested lower-right minors for gln.  They are kept here so
# character pairings can be demonstrated on explicit branches (note that a
# raw evaluation computes the valuation at the specific point, not the
# generic-translate valuation that defines the tropicalization).


def nested_minor(matrix, i):
    """Determinant of the lower-right block starting at row/column i (1-based)."""
    from .puiseux import determinant

    sub = [row[i - 1 :] for row in matrix[i - 1 :]]
    return determinant(sub)


def character_function(space, index):
    """Evaluator for the index-th character basis function of a catalog space.

    Returns a callable CurveBranch -> ``(numerator, denominator)``, a pair
    of :class:`~sphertrop.puiseux.PuiseuxPoly` whose quotient is the basis
    semi-invariant: x_i for torus(n), y for sl2_u, and the minor ratio
    h_i / h_{i+1} for gln(n).  Its valuation is ``numerator.val() -
    denominator.val()``.
    """
    from .puiseux import PuiseuxPoly

    if not 0 <= index < space.rank:
        raise IndexError("character index %d out of range" % index)
    one = PuiseuxPoly.one()
    if space.family == "torus":
        return lambda branch: (branch.coords[index], one)
    if space.family == "sl2_u":
        return lambda branch: (branch.coords[1], one)
    if space.family == "gln":
        n = space.rank
        i = index + 1

        def evaluate(branch):
            matrix = branch.matrix(n)
            denominator = one if i == n else nested_minor(matrix, i + 1)
            return nested_minor(matrix, i), denominator

        return evaluate
    raise ValueError("no symbolic characters for space kind %r" % (space.family,))
