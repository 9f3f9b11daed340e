import json
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphertrop import cli, documents
from sphertrop.balance import WeightedRayFan, check_balancing
from sphertrop.catalog import FAMILIES, builtin_space, fixture_doc, space_by_id
from sphertrop.documents import (
    DocumentError,
    balance_report_to_doc,
    curve_from_doc,
    curve_to_doc,
    dumps,
    fan_from_doc,
    fan_to_doc,
    integer_from_str,
    load_text,
    rational_from_str,
    rational_to_str,
    space_from_doc,
    space_to_doc,
    weighted_fan_from_doc,
    weighted_fan_to_doc,
)
from sphertrop.lattice import Cone, primitive
from sphertrop.luna_vust import ColoredCone, ColoredFan, SphericalSpace, validate_colored_fan
from sphertrop.puiseux import PuiseuxPoly
from sphertrop.tropicalize import CurveBranch

from helpers import orthant_fan, reference_dumps, reference_integer_from_str, reference_rational_from_str


def test_rational_codec():
    assert rational_to_str(Fraction(3, 2)) == "3/2"
    assert rational_to_str(Fraction(-4, 2)) == "-2"
    assert rational_from_str("7/3") == Fraction(7, 3)
    assert rational_from_str("-5") == Fraction(-5)
    with pytest.raises(DocumentError):
        rational_from_str("1.5")
    with pytest.raises(DocumentError):
        rational_from_str("1/0")


def test_number_text_is_exactly_the_grammar():
    assert integer_from_str("4/2") == 2
    assert integer_from_str("+7") == 7
    assert integer_from_str("\u0663") == 3
    assert rational_from_str("-6/4") == Fraction(-3, 2)
    for text in ["1.5", "1/0", " 5", "1_0", "5\n", "1/-2", "", 5]:
        with pytest.raises(DocumentError, match="bad rational"):
            integer_from_str(text)
    with pytest.raises(DocumentError, match="expected an integer, got '3/2'"):
        integer_from_str("3/2")
    limit = sys.get_int_max_str_digits()
    assert integer_from_str("-" + "9" * limit) == -(10**limit - 1)
    with pytest.raises(DocumentError, match="more than %d digits" % limit):
        integer_from_str("9" * (limit + 1))
    with pytest.raises(DocumentError, match="more than %d digits" % limit):
        rational_from_str("1/" + "9" * (limit + 1))


# ARABIC-INDIC DIGIT THREE is a digit to both readers
NUMBER_ALPHABET = "0123456789\u0663+-/0 \n._"


def _number_text(rng):
    kind = rng.randrange(50)
    if kind == 0:  # a long run, at or past int()'s digit limit
        run = rng.choice("17") * rng.choice([4299, 4300, 4301, 5000])
        return rng.choice(["", "-"]) + run + rng.choice(["", "/3", "/" + run, "\n"])
    if kind < 10:
        return "".join(rng.choice(NUMBER_ALPHABET) for _ in range(rng.randint(0, 6)))
    chars = list(rng.choice(["", "", "-", "+"]) + str(rng.randint(0, 10**rng.randint(1, 6))))
    if rng.random() < 0.4:
        chars += "/" + str(rng.randint(1, 999))
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(chars) + 1)
        if i < len(chars) and rng.random() < 0.5:
            chars[i] = rng.choice(NUMBER_ALPHABET)
        else:
            chars.insert(i, rng.choice(NUMBER_ALPHABET))
    return "".join(chars)


def _read_or_rejected(read, text, rejection):
    try:
        value = read(text)
    except rejection:
        return "rejected"
    return type(value), value


def test_number_reader_agrees_with_reference():
    rng = random.Random(15)
    outcomes = {"accepted": 0, "rejected": 0, "final newline": 0}
    for _ in range(20000):
        text = _number_text(rng)
        for read, reference in [
            (rational_from_str, reference_rational_from_str),
            (integer_from_str, reference_integer_from_str),
        ]:
            # the reference lets int()'s digit limit out as a bare ValueError
            expected = _read_or_rejected(reference, text, ValueError)
            got = _read_or_rejected(read, text, DocumentError)
            if got != expected:  # "$" matches before one final newline, fullmatch does not
                assert got == "rejected" and re.fullmatch(r"[^\n]*\n", text), (text, expected)
                outcomes["final newline"] += 1
            else:
                outcomes["rejected" if got == "rejected" else "accepted"] += 1
    assert min(outcomes.values()) > 100 and min(outcomes["accepted"], outcomes["rejected"]) > 10000


@given(st.one_of(st.integers(), st.fractions()))
def test_number_text_round_trip(x):
    text = rational_to_str(x)
    assert rational_from_str(text) == x
    if isinstance(x, int):
        value = integer_from_str(text)
        assert type(value) is int and value == x


def test_every_written_format_is_documented():
    root = pathlib.Path(__file__).resolve().parents[1]
    sections = re.findall(r"^## (\S+)", (root / "docs" / "formats.md").read_text(), re.M)
    written = set()
    for path in (root / "src" / "sphertrop").glob("*.py"):
        written.update(re.findall(r'"format": "([^"]+)"', path.read_text()))
    assert len(written) >= 10
    assert written <= set(sections)


def test_space_roundtrip_builtin_and_inline():
    gl2 = builtin_space("gln", 2)
    doc = space_to_doc(gl2)
    back = space_from_doc(doc)
    assert back.rank == gl2.rank
    assert back.palette == gl2.palette
    assert back.valuation_cone == gl2.valuation_cone
    assert space_from_doc({"builtin": "gln2"}).name == "gln2"
    with pytest.raises(DocumentError):
        space_from_doc({"builtin": "own_space"})


def _space_doc(name, family, family_size, generators, palette=(), characters=None):
    """A space/1 document written out field by field, as a benchmark or a user would."""
    rank = len(generators[0])
    return {
        "format": "space/1",
        "name": name,
        "rank": rank,
        "family": family,
        "family_size": family_size,
        "valuation_cone": {"generators": [[str(a) for a in g] for g in generators]},
        "palette": [{"label": label, "vector": [str(a) for a in v]} for label, v in palette],
        "characters": characters or ["chi%d" % (i + 1) for i in range(rank)],
    }


def _units(n):
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return sorted(units + [tuple(-a for a in e) for e in units])


def _gln_space_doc(n):
    gens = [(-1,) * n] + [(1,) * k + (0,) * (n - k) for k in range(1, n + 1)]
    palette = [
        ("E%d" % (j + 1), tuple(1 if i == j else -1 if i == j - 1 else 0 for i in range(n)))
        for j in range(1, n)
    ]
    return _space_doc("gln%d" % n, "gln", n, gens, palette)


def _torus_space_doc(n):
    return _space_doc("torus%d" % n, "torus", n, _units(n), characters=["x%d" % (i + 1) for i in range(n)])


def test_space_doc_writes_the_family_size_of_each_family():
    sizes = {"sl2u": 2, **{"torus%d" % n: n for n in range(1, 5)}, **{"gln%d" % n: n for n in range(1, 5)}}
    for ident, size in sizes.items():
        doc = space_to_doc(space_by_id(ident))
        assert doc["family_size"] == size, ident
        assert space_to_doc(space_from_doc(doc)) == doc, ident
    written = [
        _space_doc("sl2u", "sl2_u", 2, [(-1,), (1,)], [("E1", (1,))]),
        _space_doc("dep4", None, None, _units(2), [("C1", (1, 0)), ("C2", (0, 1)), ("C3", (1, 1)), ("C4", (1, 2))]),
        *(_torus_space_doc(n) for n in range(1, 5)),
        *(_gln_space_doc(n) for n in range(1, 6)),
    ]
    for doc in written:
        assert space_to_doc(space_from_doc(doc)) == doc, doc["name"]


def test_space_doc_family_size_is_derived_on_read():
    # only a gln space's family_size is checked; the others are ignored and written back derived
    torus = _torus_space_doc(2)
    plane = _space_doc("plane", None, None, _units(2))
    for doc, size in ((torus, 2), (plane, None)):
        for claimed in (None, 7, "seven"):
            back = space_from_doc({**doc, "family_size": claimed})
            assert space_to_doc(back)["family_size"] == size
    with pytest.raises(DocumentError):
        space_from_doc({**_gln_space_doc(2), "family_size": 3})


def test_fan_document_roundtrip_is_identity_on_canonical_forms():
    fan = fan_from_doc(fixture_doc("gl2_fig1_fan"))
    doc = fan_to_doc(fan)
    again = fan_to_doc(fan_from_doc(doc))
    assert doc == again
    assert dumps(doc) == dumps(again)
    back = fan_from_doc(doc)
    assert validate_colored_fan(back).ok
    assert len(back.cones) == len(fan.cones)


def test_a_fan_document_reads_each_distinct_generator_once(monkeypatch):
    """The rank-3 orthant fan's 27 members list 54 generators, 6 of them
    distinct: the reader runs ``int_vector_from_doc`` once per distinct one,
    and reads the same fan."""
    doc = fan_to_doc(orthant_fan(3))
    doc["space"] = {"builtin": "torus3"}
    texts = [g for entry in doc["cones"] for g in entry["generators"]]
    assert (len(texts), len({tuple(g) for g in texts})) == (54, 6)
    read = []
    int_vector = documents.int_vector_from_doc
    monkeypatch.setattr(documents, "int_vector_from_doc", lambda g: read.append(g) or int_vector(g))
    fan = fan_from_doc(doc)
    assert sorted(read) == sorted({tuple(g): g for g in texts}.values())
    assert fan == orthant_fan(3)


@pytest.mark.parametrize(
    "generator, message",
    [("123", "expected a vector, got '123'"), (["1", 2, "3"], "bad rational 2 (expected 'p' or 'p/q')")],
)
def test_a_generator_that_is_no_list_of_strings_is_read_as_before(capsys, tmp_path, generator, message):
    """After the vector ("1", "2", "3") is read, the string "123", whose tuple
    is that key, and a list holding a non-string are still rejected in full:
    ``fan validate`` exits 2 with the reader's message."""
    doc = {
        "format": "fan/1",
        "space": {"builtin": "torus3"},
        "cones": [{"generators": [["1", "2", "3"]]}, {"generators": [generator]}],
    }
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["fan", "validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_weighted_fan_roundtrip():
    wf = curve_from_doc(fixture_doc("gl2_line_curve"))[3]
    doc = weighted_fan_to_doc(wf)
    back = weighted_fan_from_doc(doc)
    assert back == wf
    assert weighted_fan_to_doc(back) == doc


def test_curve_roundtrip():
    fixture = curve_from_doc(fixture_doc("gl2_line_curve"))
    doc = curve_to_doc(*fixture)
    space, branches, colored, expected = curve_from_doc(doc)
    assert (space, branches, colored, expected) == fixture
    assert curve_to_doc(space, branches, colored, expected) == doc


def test_fixture_files_print_stably():
    # print(parse(print(x))) == print(x) for every fixture document on disk
    fan_doc = fixture_doc("gl2_fig1_fan")
    assert dumps(fan_to_doc(fan_from_doc(fan_doc))) == dumps(
        fan_to_doc(fan_from_doc(fan_to_doc(fan_from_doc(fan_doc))))
    )
    curve_doc = fixture_doc("gl2_line_curve")
    space, branches, colored, expected = curve_from_doc(curve_doc)
    printed = curve_to_doc(space, branches, colored, expected)
    reparsed = curve_from_doc(json.loads(dumps(printed)))
    assert curve_to_doc(*reparsed[:3], reparsed[3]) == printed


# strings with what the ASCII escapes must handle: quotes, backslashes,
# control characters, non-ASCII text, astral characters and lone surrogates
DOC_STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\xe9\u2028\ud800\udfff\U0001f600'),
        st.characters(blacklist_categories=()),
    ),
    max_size=8,
)
DOC_VALUES = st.recursive(
    st.one_of(
        DOC_STRINGS,
        st.integers(),
        st.integers(-(1 << 5000), 1 << 5000),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(DOC_STRINGS, children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(DOC_VALUES)
def test_writer_text_is_the_reference_text(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "value",
    [1.5, 0.0, (1, 2), {"a": [(1,)]}, {1: "x"}, {"a": "x", 2: "y"}, {"v": [Fraction(1, 2)]}],
)
def test_writer_rejects_non_document_values(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_balance_report_doc():
    wf = curve_from_doc(fixture_doc("gl2_line_curve"))[3]
    doc = balance_report_to_doc(check_balancing(wf))
    assert doc["balanced"] is True
    assert doc["residual"] == ["0", "0"]
    assert doc["per_character"] == {"chi1": "0", "chi2": "0"}


def test_schema_errors():
    with pytest.raises(DocumentError):
        load_text("not json")
    with pytest.raises(DocumentError):
        load_text('{"no_format": 1}')
    with pytest.raises(DocumentError):
        fan_from_doc({"format": "fan/1"})
    with pytest.raises(DocumentError):
        fan_from_doc(
            {
                "format": "fan/1",
                "space": {"builtin": "gln2"},
                "cones": [{"generators": [], "colors": ["E9"]}],
            }
        )
    with pytest.raises(DocumentError):
        weighted_fan_from_doc(
            {
                "format": "weighted-fan/1",
                "space": {"builtin": "gln2"},
                "rays": [{"vector": ["1", "0"], "weight": "1/2"}],
            }
        )
    with pytest.raises(DocumentError):
        weighted_fan_from_doc(
            {
                "format": "weighted-fan/1",
                "space": {"builtin": "gln2"},
                "rays": [{"vector": ["2", "0"], "weight": "1"}],
            }
        )


# --- round trip of every format that has a reader: write, dumps, load_text, read --

ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CATALOG_IDS = ("sl2u", "torus1", "torus2", "torus3", "gln1", "gln2", "gln3")
LABELS = st.text(max_size=4)
# palette labels may repeat, as a document can write them; two names make repeats common
PALETTE_LABELS = st.one_of(st.sampled_from(("E1", "E2")), LABELS)


def _round_trip(doc):
    return load_text(dumps(doc))


def _vectors(rank):
    return st.tuples(*[st.integers(-3, 3)] * rank)


@st.composite
def inline_spaces(draw):
    rank = draw(st.integers(1, 3))
    family = draw(st.sampled_from((None, "torus", "gln") + (("sl2_u",) if rank == 1 else ())))
    vectors = draw(st.lists(_vectors(rank).filter(any), max_size=3))
    labels = draw(st.lists(PALETTE_LABELS, min_size=len(vectors), max_size=len(vectors)))
    characters = draw(st.lists(LABELS, min_size=rank, max_size=rank, unique=True))
    return SphericalSpace(
        name=draw(LABELS),
        rank=rank,
        valuation_cone=Cone(draw(st.lists(_vectors(rank), max_size=4)), rank),
        palette=tuple(zip(labels, vectors)),
        character_basis_labels=tuple(draw(st.sampled_from(((), characters)))),
        family=family,
    )


SPACES = st.one_of(st.sampled_from(CATALOG_IDS).map(space_by_id), inline_spaces())
FAMILY_SPACES = SPACES.filter(lambda space: space.family is not None)


@st.composite
def weighted_fans(draw, space):
    rays = {}
    for v in draw(st.lists(_vectors(space.rank).filter(any), max_size=4)):
        if primitive(v)[0] == v and space.valuation_cone.contains(v):
            rays[v] = draw(st.integers(1, 5))
    colors = draw(st.lists(st.integers(0, len(space.palette) - 1), unique=True)) if space.palette else []
    return WeightedRayFan(space, tuple(rays.items()), tuple((j, draw(st.integers(0, 5))) for j in colors))


def _assert_reads_back(space, read, doc, value):
    """``read`` gives ``value`` back from ``doc`` after dumps and load_text,
    or a DocumentError exactly when two palette labels of ``space`` repeat."""
    labels = [label for label, _ in space.palette]
    if len(set(labels)) < len(labels):
        with pytest.raises(DocumentError, match="palette label .* repeats"):
            read(_round_trip(doc))
    else:
        assert read(_round_trip(doc)) == value


@ROUND_TRIP
@given(SPACES)
def test_space_round_trip(space):
    _assert_reads_back(space, space_from_doc, space_to_doc(space), space)


@ROUND_TRIP
@given(SPACES, st.data())
def test_fan_round_trip(space, data):
    members = data.draw(
        st.lists(
            st.tuples(
                st.lists(_vectors(space.rank), max_size=3),
                st.sets(st.integers(0, len(space.palette) - 1)) if space.palette else st.just(()),
            ),
            max_size=4,
        )
    )
    fan = ColoredFan(space, tuple(ColoredCone(Cone(gens, space.rank), colors) for gens, colors in members))
    _assert_reads_back(space, fan_from_doc, fan_to_doc(fan), fan)


@ROUND_TRIP
@given(SPACES, st.data())
def test_weighted_fan_round_trip(space, data):
    wf = data.draw(weighted_fans(space))
    _assert_reads_back(space, weighted_fan_from_doc, weighted_fan_to_doc(wf), wf)


@ROUND_TRIP
@given(FAMILY_SPACES, st.data())
def test_curve_round_trip(space, data):
    terms = st.lists(
        st.tuples(
            st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))),
            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        ),
        max_size=3,
    )
    arity = FAMILIES[space.family].arity(space.rank)
    branches = tuple(
        CurveBranch(tuple(PuiseuxPoly(t) for t in coords))
        for coords in data.draw(st.lists(st.lists(terms, min_size=arity, max_size=arity), max_size=3))
    )
    wf = data.draw(weighted_fans(space))
    expected = data.draw(st.sampled_from((None, wf)))
    doc = curve_to_doc(space, branches, wf.colored_weights, expected)
    _assert_reads_back(space, curve_from_doc, doc, (space, branches, wf.colored_weights, expected))
