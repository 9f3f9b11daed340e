"""Built-in spherical space descriptors and reference fixtures.

Three families are shipped, each declared once as a :class:`Family`
record in :data:`FAMILIES`:

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
from functools import lru_cache
from importlib import resources

from . import tropicalize
from .balance import assemble
from .lattice import MEMO_SIZE, Cone
from .luna_vust import SphericalSpace


def _torus(n):
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


def _sl2u(_n):
    return SphericalSpace(
        name="sl2u",
        rank=1,
        valuation_cone=Cone.from_inequalities((), 1),
        palette=(("E1", (1,)),),
        character_basis_labels=("chi1",),
        family="sl2_u",
    )


def _gln(n):
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


@dataclass(frozen=True)
class Family:
    """One catalog family of spherical homogeneous spaces G/H.

    ``build(n)`` constructs the space (n is the rank or size, None for
    sl2_u); ``arity(rank)`` is the coordinate count of a branch,
    ``size(rank)`` the space/1 ``family_size``; ``trop(branch, rank)`` is
    the family's tropicalization map; ``row`` is its ``catalog list`` entry.
    """

    build: object
    arity: object
    size: object
    trop: object
    row: dict


# Every catalog family, in ``catalog list`` order, keyed by SphericalSpace.family.
FAMILIES = {
    "torus": Family(
        build=_torus,
        arity=lambda n: n,
        size=lambda n: n,
        trop=lambda branch, n: tropicalize.trop_torus(branch.coords),
        row={"id": "torus<n>", "rank": "n", "palette": 0},
    ),
    "sl2_u": Family(
        build=_sl2u,
        arity=lambda n: 2,
        size=lambda n: 2,  # its group is SL2
        trop=lambda branch, n: tropicalize.trop_sl2u(*branch.coords),
        row={"id": "sl2u", "rank": 1, "palette": 1},
    ),
    "gln": Family(
        build=_gln,
        arity=lambda n: n**2,
        size=lambda n: n,
        trop=lambda branch, n: tropicalize.invariant_factor_valuations(branch.matrix(n)),
        row={"id": "gln<n>", "rank": "n", "palette": "n-1"},
    ),
}


def builtin_space(name, n=None):
    """A catalog space descriptor by family name: one object per ``(name, n)`` while in its memo."""
    return _builtin_space(name, n)


@lru_cache(maxsize=MEMO_SIZE)
def _builtin_space(name, n):
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError("unknown space family %r" % (name,))
    return family.build(n)


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


# Each fixture ``<name>`` is the packaged document ``fixtures/<name>.json``,
# listed in sorted order.
FIXTURE_FILES = ("gl2_fig1_fan", "gl2_line_curve", "torus_line_curve")


def fixture_doc(name):
    """The packaged fixture document ``name``, a fan/1 or curve/1 document to
    read with ``documents.fan_from_doc`` or ``documents.curve_from_doc``;
    KeyError for a name not in :data:`FIXTURE_FILES`."""
    if name not in FIXTURE_FILES:
        raise KeyError("unknown fixture %r" % (name,))
    path = resources.files("sphertrop").joinpath("fixtures", name + ".json")
    return json.loads(path.read_text())


def sl2u_family(d, e):
    """The one-parameter degree-d family with colored weight e.

    Rays ``(-1)`` with weight d and ``(+1)`` with weight d - e, plus colored
    weight e on the single color; requires ``1 <= d`` and ``0 <= e <= d``.
    At e = d the ray ``(+1)`` has weight zero and is left out.
    """
    if d < 1 or not 0 <= e <= d:
        raise ValueError("need 1 <= d and 0 <= e <= d, got d=%r e=%r" % (d, e))
    rays = [((-1,), d)] + ([((1,), d - e)] if e < d else [])
    return assemble(builtin_space("sl2_u"), rays, [(0, e)])
