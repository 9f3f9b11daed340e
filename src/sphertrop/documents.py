"""Versioned JSON documents for spaces, fans, curves, and reports.

All rationals are encoded as strings ``"p/q"`` (or ``"p"``) so no binary
float ever reaches a persisted artifact; Puiseux polynomials use the text
format of :mod:`sphertrop.puiseux`.  ``parse(print(x)) == x`` on canonical
forms, and every document carries a top-level ``format`` field.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import catalog
from .balance import WeightedRayFan
from .lattice import MEMO_SIZE, Cone
from .luna_vust import ColoredCone, ColoredFan, SphericalSpace
from .puiseux import format_puiseux, parse_puiseux
from .tropicalize import CurveBranch


class DocumentError(ValueError):
    """A JSON document violates its schema."""


def rational_to_str(x):
    """``"p"`` or ``"p/q"`` with q > 0; over the digit limit, which no reader
    would take back, a DocumentError."""
    try:
        return str(x) if type(x) is int else str(Fraction(x))
    except ValueError:  # more digits than str() writes
        raise _over_digit_limit() from None


# The number grammar of docs/formats.md: "p" or "p/q" with q > 0, nothing else.
_NUMBER = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


def _ratio_from_str(text):
    """``(p, q)`` ints of a document number, q > 0."""
    m = _NUMBER.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise DocumentError("bad rational %r (expected 'p' or 'p/q')" % (text,))
    num, den = m.groups()
    try:
        return int(num), int(den) if den else 1
    except ValueError:  # more digits than int() reads
        raise _over_digit_limit() from None


def _over_digit_limit():
    return DocumentError("number has more than %d digits" % sys.get_int_max_str_digits())


def rational_from_str(text):
    return Fraction(*_ratio_from_str(text))


def integer_from_str(text):
    p, q = _ratio_from_str(text)
    if p % q:
        raise DocumentError("expected an integer, got %r" % (text,))
    return p // q


def vector_to_doc(v):
    return [rational_to_str(a) for a in v]


def int_vector_from_doc(doc):
    """A list of strings is read once per process while in the memo, which stores no rejected one."""
    if not isinstance(doc, list):
        raise DocumentError("expected a vector, got %r" % (doc,))
    if all(type(a) is str for a in doc):
        return _int_vector(tuple(doc))
    return tuple(integer_from_str(a) for a in doc)


@lru_cache(maxsize=MEMO_SIZE)
def _int_vector(texts):
    return tuple(integer_from_str(a) for a in texts)


def _require(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise DocumentError("missing field %r" % (key,))
    return doc[key]


_JSON_KINDS = {list: "array", dict: "object", str: "string"}


def _shaped(value, kind, what):
    """``value`` if it is a JSON ``kind`` (``list``, ``dict`` or ``str``)."""
    if not isinstance(value, kind):
        raise DocumentError("%s must be a JSON %s, got %r" % (what, _JSON_KINDS[kind], value))
    return value


def _check_format(doc, expected):
    fmt = _require(doc, "format")
    if fmt != expected:
        raise DocumentError("expected format %r, got %r" % (expected, fmt))


# ---------------------------------------------------------------------------
# spaces


# "torus, sl2_u or gln": the catalog families, as error messages name them
_FAMILY_NAMES = "%s or %s" % (", ".join(list(catalog.FAMILIES)[:-1]), list(catalog.FAMILIES)[-1])


def space_to_doc(space):
    family = catalog.FAMILIES.get(space.family)
    return {
        "format": "space/1",
        "name": space.name,
        "rank": space.rank,
        "family": space.family,
        "family_size": family.size(space.rank) if family else None,
        "valuation_cone": {"generators": [vector_to_doc(g) for g in space.valuation_cone.generators]},
        "palette": [
            {"label": label, "vector": vector_to_doc(v)} for label, v in space.palette
        ],
        "characters": list(space.character_basis_labels),
    }


def space_from_doc(doc):
    """Accepts either ``{"builtin": "gln2"}`` or a full space/1 document."""
    if isinstance(doc, dict) and "builtin" in doc:
        try:
            return catalog.space_by_id(_shaped(doc["builtin"], str, "'builtin'"))
        except KeyError as exc:
            raise DocumentError(exc.args[0]) from None
    _check_format(doc, "space/1")
    rank = _require(doc, "rank")
    if type(rank) is not int or rank < 1:
        raise DocumentError("bad rank %r" % (rank,))
    family, family_size = doc.get("family"), doc.get("family_size")
    if family not in (None, *catalog.FAMILIES):  # a tuple scan: no TypeError on a family such as []
        raise DocumentError("unknown family %r (expected %s)" % (family, _FAMILY_NAMES))
    if family == "sl2_u" and rank != 1:
        raise DocumentError("an sl2_u space has rank 1, got %d" % rank)
    if family == "gln" and (type(family_size) is not int or family_size != rank):
        raise DocumentError("a gln space needs family_size %d (its rank), got %r" % (rank, family_size))
    valuation_cone = _cone_from_doc(_require(doc, "valuation_cone"), rank)
    palette = {}  # label -> vector: documents name colors by label
    for entry in _shaped(doc.get("palette", []), list, "'palette'"):
        label = _shaped(_require(entry, "label"), str, "'label'")
        vector = int_vector_from_doc(_require(entry, "vector"))
        if len(vector) != rank:
            raise DocumentError("palette vector %r needs %d entries" % (entry["vector"], rank))
        if label in palette:
            raise DocumentError("palette label %r repeats" % (label,))
        palette[label] = vector
    characters = _shaped(doc.get("characters", []), list, "'characters'")
    if characters and not (
        all(isinstance(c, str) for c in characters) and len(set(characters)) == len(characters) == rank
    ):
        raise DocumentError("'characters' must be empty or %d distinct strings, got %r" % (rank, characters))
    return SphericalSpace(
        name=_shaped(doc.get("name", "space"), str, "'name'"),
        rank=rank,
        valuation_cone=valuation_cone,
        palette=tuple(palette.items()),
        character_basis_labels=tuple(characters),
        family=family,
    )


def _cone_from_doc(doc, rank):
    """The cone of a document's ``generators``."""
    gens = [int_vector_from_doc(g) for g in _shaped(_require(doc, "generators"), list, "'generators'")]
    try:
        return Cone(gens, rank)
    except ValueError as exc:
        raise DocumentError("bad cone: %s" % exc) from None


# ---------------------------------------------------------------------------
# fans


def fan_to_doc(fan):
    return {
        "format": "fan/1",
        "space": space_to_doc(fan.space),
        "cones": [
            {
                "generators": [vector_to_doc(g) for g in cc.cone.generators],
                "colors": [fan.space.palette[j][0] for j in sorted(cc.colors)],
            }
            for cc in fan.cones
        ],
    }


def fan_from_doc(doc):
    _check_format(doc, "fan/1")
    space = space_from_doc(_require(doc, "space"))
    cones = []
    for entry in _shaped(_require(doc, "cones"), list, "'cones'"):
        cone = _cone_from_doc(entry, space.rank)
        colors = set()
        for label in _shaped(entry.get("colors", []), list, "'colors'"):
            try:
                colors.add(space.color_index(_shaped(label, str, "a 'colors' entry")))
            except KeyError as exc:
                raise DocumentError(exc.args[0]) from None
        cones.append(ColoredCone(cone, frozenset(colors)))
    return ColoredFan(space, tuple(cones))


# ---------------------------------------------------------------------------
# weighted ray fans


def weighted_fan_to_doc(wf):
    return {
        "format": "weighted-fan/1",
        "space": space_to_doc(wf.space),
        "rays": [
            {"vector": vector_to_doc(v), "weight": rational_to_str(m)} for v, m in wf.rays
        ],
        "colored_weights": _colored_weight_list(wf.space, wf.colored_weights),
    }


def _colored_weight_list(space, pairs):
    return [{"color": space.palette[j][0], "weight": rational_to_str(m)} for j, m in pairs]


def weighted_fan_from_doc(doc):
    _check_format(doc, "weighted-fan/1")
    space = space_from_doc(_require(doc, "space"))
    rays = [
        (int_vector_from_doc(_require(entry, "vector")), integer_from_str(_require(entry, "weight")))
        for entry in _shaped(_require(doc, "rays"), list, "'rays'")
    ]
    colored = _colored_weights_from_doc(doc.get("colored_weights", []), space)
    try:
        return WeightedRayFan(space, tuple(rays), colored)
    except (ValueError, KeyError) as exc:
        raise DocumentError("bad weighted fan: %s" % exc) from None


def _colored_weights_from_doc(entries, space):
    colored = {}  # palette index -> weight: each color is named once
    for entry in _shaped(entries, list, "'colored_weights'"):
        label = _shaped(_require(entry, "color"), str, "'color'")
        try:
            j = space.color_index(label)
        except KeyError as exc:
            raise DocumentError(exc.args[0]) from None
        if j in colored:
            raise DocumentError("color %r repeats in 'colored_weights'" % (label,))
        weight = integer_from_str(_require(entry, "weight"))
        if weight < 0:
            raise DocumentError("colored weight %d for %s is negative" % (weight, label))
        colored[j] = weight
    return tuple(colored.items())


# ---------------------------------------------------------------------------
# curves


def _branch_to_doc(branch, space):
    if space.family == "gln":
        return {
            "matrix": [
                [format_puiseux(p) for p in row] for row in branch.matrix(space.rank)
            ]
        }
    return {"coords": [format_puiseux(p) for p in branch.coords]}


def curve_to_doc(space, branches, colored_weights=(), expected=None):
    doc = {
        "format": "curve/1",
        "space": space_to_doc(space),
        "branches": [_branch_to_doc(b, space) for b in branches],
        "colored_weights": _colored_weight_list(space, colored_weights),
    }
    if expected is not None:
        doc["expected"] = weighted_fan_to_doc(expected)
    return doc


def curve_from_doc(doc):
    """Returns (space, branches, colored weight pairs, expected fan or None).

    The space must belong to a catalog family, and a branch whose
    coordinate count does not fit that family is a schema error.
    """
    _check_format(doc, "curve/1")
    space = space_from_doc(_require(doc, "space"))
    family = catalog.FAMILIES.get(space.family)
    if family is None:
        raise DocumentError("a curve/1 space needs a family (%s)" % _FAMILY_NAMES)
    arity = family.arity(space.rank)
    branches = []
    for entry in _shaped(_require(doc, "branches"), list, "'branches'"):
        if "matrix" not in _shaped(entry, dict, "a branch") and "coords" not in entry:
            raise DocumentError("branch needs 'coords' or 'matrix'")
        try:
            if "matrix" in entry:
                matrix = _shaped(entry["matrix"], list, "'matrix'")
                rows = [
                    [parse_puiseux(cell) for cell in _shaped(row, list, "a matrix row")]
                    for row in matrix
                ]
                branches.append(CurveBranch.from_matrix(rows))
            else:
                coords = _shaped(entry["coords"], list, "'coords'")
                branches.append(CurveBranch(tuple(parse_puiseux(c) for c in coords)))
        except ValueError as exc:  # a parse error or a non-square matrix
            raise DocumentError("bad branch coordinates: %s" % exc) from None
        if len(branches[-1].coords) != arity:
            raise DocumentError(
                "branch has %d coordinates, %s expects %d"
                % (len(branches[-1].coords), space.name, arity)
            )
    colored = _colored_weights_from_doc(doc.get("colored_weights", []), space)
    expected = None
    if "expected" in doc:
        expected = weighted_fan_from_doc(doc["expected"])
    return space, tuple(branches), colored, expected


# ---------------------------------------------------------------------------
# results


def tropical_point_to_doc(space, coords):
    return {
        "format": "tropical-point/1",
        "space": space.name,
        "coords": vector_to_doc(coords),
    }


def balance_report_to_doc(report):
    return {
        "format": "balance-report/1",
        "balanced": report.balanced,
        "residual": vector_to_doc(report.residual),
        "quotient_residual": vector_to_doc(report.quotient_residual),
        "per_character": {label: rational_to_str(value) for label, value in report.per_character},
    }


def validation_report_to_doc(report):
    return {
        "format": "validation-report/1",
        "valid": report.ok,
        "violations": [
            {
                "member": v.member,
                "axiom": v.axiom,
                "message": v.message,
                "witness": None if v.witness is None else vector_to_doc(v.witness),
            }
            for v in report.violations
        ],
    }


def colored_weights_to_doc(space, solution):
    """``solution`` is (palette index, weight) pairs, or None when no weights balance."""
    doc = {"format": "colored-weights/1", "feasible": solution is not None}
    if solution is not None:
        doc["weights"] = {space.palette[j][0]: rational_to_str(m) for j, m in solution}
    return doc


def catalog_to_doc():
    """The built-in spaces, one row per family in ``catalog list`` order, and
    the packaged fixtures."""
    return {
        "format": "catalog/1",
        "spaces": [dict(family.row) for family in catalog.FAMILIES.values()],
        "fixtures": list(catalog.FIXTURE_FILES),
    }


def star_to_doc(result):
    return {
        "format": "star/1",
        "projection": [vector_to_doc(row) for row in result.projection],
        "kernel_basis": [vector_to_doc(v) for v in result.kernel_basis],
        "space": space_to_doc(result.space),
        "fan": fan_to_doc(result.fan),
    }


def dumps(doc):
    """Serialize a document deterministically: the text of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline.

    A document holds only dicts with string keys, lists, strings, ints,
    booleans and None; anything else (a float, a tuple, a Fraction, a
    non-string key) raises TypeError.  Written here because ``json.dumps``
    with an indent runs the pure-Python encoder.
    """
    return _text(doc, "\n") + "\n"


def _text(value, newline):
    """The JSON text of one document value, its lines after the first
    starting with ``newline``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_text(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):  # keys of mixed types raise TypeError here
            if not isinstance(key, str):
                raise TypeError("document keys must be strings, got %r" % (key,))
            items.append(encode_basestring_ascii(key) + ": " + _text(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("a document holds no %s value: %r" % (type(value).__name__, value))


def load_text(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long int, or nested too deeply
        raise DocumentError("not valid JSON: %s" % exc) from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise DocumentError("document needs a top-level 'format' field")
    return doc
