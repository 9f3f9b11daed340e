import argparse
import copy
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from sphertrop import catalog, documents, lattice
from sphertrop.catalog import fixture_doc, sl2u_family, space_by_id
from sphertrop.cli import build_parser, main

from fuzz import mutate
from helpers import clear_memos


@pytest.fixture
def fan_file(tmp_path):
    fan = documents.fan_from_doc(fixture_doc("gl2_fig1_fan"))
    path = tmp_path / "fan.json"
    path.write_text(documents.dumps(documents.fan_to_doc(fan)))
    return str(path)


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(fixture_doc("gl2_line_curve")))
    return str(path)


# gln2 with its one color E2 = (-1, 1) on the cone over (-1, 1) and (1, 0)
COLORED_GLN2_FAN = {
    "format": "fan/1",
    "space": {"builtin": "gln2"},
    "cones": [
        {"generators": [["-1", "1"], ["1", "0"]], "colors": ["E2"]},
        {"generators": [["1", "0"]], "colors": []},
        {"generators": [], "colors": []},
    ],
}


def _colored_fan_file(tmp_path):
    path = tmp_path / "colored.json"
    path.write_text(json.dumps(COLORED_GLN2_FAN))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- trop -----------------------------------------------------------------------


def test_trop_gln2_matrix(capsys):
    code, out, _ = run(capsys, "trop", "gln2", "[[t+1,t],[t,0]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "tropical-point/1"
    assert doc["coords"] == ["2", "0"]


def test_trop_gln2_with_sparse_exponents(capsys):
    # too wide to pack: the elimination runs on the polynomials within a stated budget
    started = time.perf_counter()
    code, out, err = run(capsys, "trop", "gln2", "[[t^1000000 + 1, 1], [2, t^500000 + 3]]")
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert json.loads(out) == {"format": "tropical-point/1", "space": "gln2", "coords": ["0", "0"]}
    assert elapsed < 0.05


def test_trop_torus_vector(capsys):
    code, out, _ = run(capsys, "trop", "torus2", "(t^2, t^-1)")
    assert code == 0
    assert json.loads(out)["coords"] == ["2", "-1"]
    code, out, _ = run(capsys, "trop", "torus2", "[t^2, t^-1]")
    assert code == 0
    assert json.loads(out)["coords"] == ["2", "-1"]


def test_trop_torus_fractional_point_text(capsys):
    # a Fraction and an int coordinate are written in one number grammar
    code, out, err = run(capsys, "trop", "torus2", "(t^(1/2), t)")
    assert (code, err) == (0, "")
    assert out == '{\n  "coords": [\n    "1/2",\n    "1"\n  ],\n  "format": "tropical-point/1",\n  "space": "torus2"\n}\n'


@pytest.mark.parametrize(
    "text, coords", [("t, t", ["1", "1"]), ("[t, 1]", ["1", "0"]), (" ( t^2 , t^-1 ) ", ["2", "-1"])]
)
def test_trop_vector_forms(capsys, text, coords):
    code, out, _ = run(capsys, "trop", "torus2", text)
    assert code == 0
    assert json.loads(out)["coords"] == coords


def test_trop_takes_its_space_only_as_the_positional_id(capsys):
    code, out, err = run(capsys, "trop", "--space", "gln2", "[[t+1,t],[t,0]]")
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --space\n")


def test_trop_sl2u(capsys):
    code, out, _ = run(capsys, "trop", "sl2u", "(0, t^3)")
    assert code == 0
    assert json.loads(out)["coords"] == ["3"]


def test_trop_membership_failure_exit_code(capsys):
    code, _, err = run(capsys, "trop", "torus2", "(0, t)")
    assert code == 1
    assert "off the torus" in err


def test_trop_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "trop", "torus2", "(t^, 1)")
    assert code == 2
    code, _, err = run(capsys, "trop", "paradise", "(t)")
    assert code == 2


# --- fan ------------------------------------------------------------------------


def test_fan_validate_fixture(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "validate", fan_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["violations"] == []


def test_fan_validate_mutated_fan(capsys, tmp_path):
    fan = documents.fan_from_doc(fixture_doc("gl2_fig1_fan"))
    mutated, expected = mutate(fan, "drop_face", random.Random(3))
    path = tmp_path / "broken.json"
    path.write_text(documents.dumps(documents.fan_to_doc(mutated)))
    code, out, _ = run(capsys, "fan", "validate", str(path))
    assert code == 1
    doc = json.loads(out)
    assert not doc["valid"]
    assert {v["axiom"] for v in doc["violations"]} & expected


def test_fan_star(capsys, fan_file):
    fan_doc = json.loads(open(fan_file).read())
    index = next(
        i
        for i, cone in enumerate(fan_doc["cones"])
        if cone["generators"] == [["-1", "-1"]]
    )
    code, out, _ = run(capsys, "fan", "star", fan_file, "--cone-index", str(index))
    assert code == 0
    doc = json.loads(out)
    assert doc["projection"] == [["1", "-1"]]
    assert doc["kernel_basis"] == [["1", "1"]]
    gens = sorted(tuple(map(tuple, c["generators"])) for c in doc["fan"]["cones"])
    assert gens == [(), (("1",),)]


def test_fan_star_with_surviving_colors(capsys, tmp_path):
    code, out, err = run(
        capsys, "fan", "star", _colored_fan_file(tmp_path), "--cone-index", "1", "--colors", "E2"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["projection"] == [["0", "1"]]
    assert doc["kernel_basis"] == [["1", "0"]]
    assert doc["space"]["palette"] == [{"label": "E2", "vector": ["1"]}]
    assert doc["fan"]["cones"] == [
        {"colors": [], "generators": []},
        {"colors": ["E2"], "generators": [["1"]]},
    ]
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(doc["fan"]))
    code, out, _ = run(capsys, "fan", "validate", str(path))
    assert (code, json.loads(out)["valid"]) == (0, True)


def test_fan_star_bad_index(capsys, fan_file):
    code, _, err = run(capsys, "fan", "star", fan_file, "--cone-index", "99")
    assert code == 2


def test_fan_decolor(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "decolor", fan_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "fan/1"
    assert all(c["colors"] == [] for c in doc["cones"])


def test_fan_schema_error(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "fan/1"}')
    code, _, err = run(capsys, "fan", "validate", str(path))
    assert code == 2


def _fan_doc_with(tmp_path, edit):
    doc = documents.fan_to_doc(documents.fan_from_doc(fixture_doc("gl2_fig1_fan")))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return ["fan", "validate", str(path)]


def _curve_doc_with(tmp_path, edit, fixture="gl2_line_curve"):
    doc = fixture_doc(fixture)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return ["balance", "check", str(path)]


def _curve_space_with(tmp_path, space_edit, branches=None):
    """The gl2_line_curve document with its space written out as space/1.

    ``branches`` replaces the fixture's branches, so that they fit the
    edited space and the reader gets past the arity check.
    """

    def edit(doc):
        doc["space"] = documents.space_to_doc(space_by_id("gln2"))
        space_edit(doc["space"])
        if branches is not None:
            doc["branches"] = branches
            doc["colored_weights"] = []
            del doc["expected"]

    return _curve_doc_with(tmp_path, edit)


def _deeply_nested(tmp_path, *command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return [*command, str(path)]


def _not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"format": "fan/1"}'.encode("utf-16-le"))
    return ["fan", "validate", str(path)]


def _short_palette_vector(space):
    space["palette"][0]["vector"] = ["1"]


def _negative_colored_weight(doc):
    doc["colored_weights"][0]["weight"] = "-1"


def _weighted_fan_file(tmp_path, text):
    path = tmp_path / "weighted.json"
    path.write_text(text)
    return ["balance", "check", str(path)]


def _torus1_weighted_fan(vector, weight):
    return json.dumps(
        {
            "format": "weighted-fan/1",
            "space": {"builtin": "torus1"},
            "rays": [{"vector": [vector], "weight": weight}, {"vector": ["-1"], "weight": "2"}],
        }
    )


# int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
OVER_LONG = "1" * 5000

BAD_INPUTS = {
    "member_generator_wrong_dimension": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc["cones"][-1].update(generators=[["1", "0", "0"]])
    ),
    "valuation_generator_wrong_dimension": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc["space"]["valuation_cone"].update(generators=[["1", "0", "0"]])
    ),
    "trop_non_square_matrix": lambda tmp: ["trop", "gln2", "[[t,1],[1]]"],
    "curve_non_square_branch": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"][0].update(matrix=[["t", "1"], ["1"]])
    ),
    "zero_exponent_denominator": lambda tmp: ["trop", "torus2", "(t^(1/0), 1)"],
    "zero_coefficient_denominator": lambda tmp: ["trop", "torus2", "(1/0*t, 1)"],
    "unknown_star_color": lambda tmp: [
        "fan", "star", "--fixture", "gl2_fig1_fan", "--cone-index", "1", "--colors", "BOGUS"
    ],
    "curve_branches_not_array": lambda tmp: _curve_doc_with(tmp, lambda doc: doc.update(branches=5)),
    "curve_branch_not_object": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"].__setitem__(0, 5)
    ),
    "curve_matrix_not_array": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"][0].update(matrix=5)
    ),
    "curve_matrix_rows_not_arrays": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"][0].update(matrix=[5, 6])
    ),
    "curve_coords_not_array": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"].__setitem__(0, {"coords": 5})
    ),
    "curve_colored_weights_not_array": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc.update(colored_weights=5)
    ),
    "curve_branch_wrong_arity": lambda tmp: _curve_doc_with(
        tmp, lambda doc: doc["branches"].__setitem__(0, {"coords": ["t", "1"]})
    ),
    "fan_cones_not_array": lambda tmp: _fan_doc_with(tmp, lambda doc: doc.update(cones=5)),
    "fan_generators_not_array": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc["cones"][-1].update(generators=5)
    ),
    "fan_colors_not_array": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc["cones"][-1].update(colors=5)
    ),
    "fan_builtin_not_string": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc.update(space={"builtin": 5})
    ),
    "gln_space_without_family_size": lambda tmp: _curve_space_with(
        tmp, lambda space: space.pop("family_size")
    ),
    "gln_space_string_family_size": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(family_size="2")
    ),
    "gln_space_bool_family_size": lambda tmp: _curve_space_with(
        tmp,
        lambda space: space.update(
            family_size=True, rank=1, palette=[], valuation_cone={"generators": [["1"], ["-1"]]}
        ),
        branches=[{"matrix": [["t"]]}],
    ),
    "gln_family_size_not_rank": lambda tmp: _curve_space_with(
        tmp,
        lambda space: space.update(family_size=3),
        branches=[{"matrix": [["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}],
    ),
    "unknown_family_name": lambda tmp: _curve_space_with(tmp, lambda space: space.update(family="foo")),
    "unknown_family_number": lambda tmp: _curve_space_with(tmp, lambda space: space.update(family=5)),
    "sl2u_space_of_rank_2": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(family="sl2_u"), branches=[{"coords": ["t", "1"]}]
    ),
    "curve_on_family_less_space": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(family=None, family_size=None)
    ),
    "trop_torus0": lambda tmp: ["trop", "torus0", "(t)"],
    "trop_gln0": lambda tmp: ["trop", "gln0", "[[t]]"],
    "fan_builtin_gln0": lambda tmp: _fan_doc_with(tmp, lambda doc: doc.update(space={"builtin": "gln0"})),
    "fan_builtin_torus0": lambda tmp: _fan_doc_with(
        tmp, lambda doc: doc.update(space={"builtin": "torus0"})
    ),
    "fan_validate_deeply_nested_json": lambda tmp: _deeply_nested(tmp, "fan", "validate"),
    "balance_check_deeply_nested_json": lambda tmp: _deeply_nested(tmp, "balance", "check"),
    "fan_validate_short_palette_vector": lambda tmp: _fan_doc_with(
        tmp, lambda doc: _short_palette_vector(doc["space"])
    ),
    "balance_check_short_palette_vector": lambda tmp: _curve_space_with(tmp, _short_palette_vector),
    "solve_colors_short_palette_vector": lambda tmp: [
        "balance", "solve-colors", _curve_space_with(tmp, _short_palette_vector)[-1]
    ],
    "plot_short_palette_vector": lambda tmp: [
        "plot", _curve_space_with(tmp, _short_palette_vector)[-1], "--out", str(tmp / "out.svg")
    ],
    "space_rank_true": lambda tmp: _curve_space_with(
        tmp,
        lambda space: space.update(
            rank=True, family="torus", family_size=None, palette=[],
            valuation_cone={"generators": [["1"], ["-1"]]}, characters=[],
        ),
        branches=[{"coords": ["t"]}],
    ),
    "balance_check_negative_colored_weight": lambda tmp: _curve_doc_with(tmp, _negative_colored_weight),
    "solve_colors_negative_colored_weight": lambda tmp: [
        "balance", "solve-colors", _curve_doc_with(tmp, _negative_colored_weight)[-1]
    ],
    "characters_entry_not_string": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(characters=[["chi1"], "chi2"])
    ),
    "characters_longer_than_rank": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(characters=["x1", "x2", "x1"])
    ),
    "characters_shorter_than_rank": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(characters=["a"])
    ),
    "characters_repeated": lambda tmp: _curve_space_with(
        tmp, lambda space: space.update(characters=["x1", "x1"])
    ),
    "fan_validate_not_utf8": _not_utf8,
    "trop_out_in_missing_directory": lambda tmp: [
        "trop", "gln2", "[[t,1],[1,t]]", "--out", str(tmp / "missing" / "x.json")
    ],
    "plot_out_in_missing_directory": lambda tmp: [
        "plot", "--fixture", "gl2_fig1_fan", "--out", str(tmp / "missing" / "x.svg")
    ],
    "trop_matrix_extra_closing_bracket": lambda tmp: ["trop", "gln2", "[[t,1],[1,t]]]"],
    "trop_matrix_split_in_two": lambda tmp: ["trop", "gln2", "[[t,1]],[[1,t]]"],
    "trop_matrix_text_between_rows": lambda tmp: ["trop", "gln2", "[[t,1] x [1,t]]"],
    "trop_matrix_trailing_comma": lambda tmp: ["trop", "gln2", "[[t,1],[1,t],]]"],
    "balance_check_number_with_final_newline": lambda tmp: _weighted_fan_file(
        tmp, _torus1_weighted_fan("1\n", "2\n")
    ),
    "balance_check_over_long_weight": lambda tmp: _weighted_fan_file(
        tmp, _torus1_weighted_fan("1", OVER_LONG)
    ),
    "balance_check_over_long_json_integer": lambda tmp: _weighted_fan_file(
        tmp, _torus1_weighted_fan("1", "2")[:-1] + ', "note": %s}' % OVER_LONG
    ),
    "trop_over_long_coefficient": lambda tmp: ["trop", "torus1", "(%s)" % OVER_LONG],
    "trop_over_long_space_id": lambda tmp: ["trop", "gln" + OVER_LONG, "[[t]]"],
    "trop_space_id_with_final_newline": lambda tmp: ["trop", "torus2\n", "(t, t^2)"],
    "balance_check_builtin_with_final_newline": lambda tmp: _weighted_fan_file(
        tmp, _torus1_weighted_fan("1", "2").replace('"torus1"', '"torus1\\n"')
    ),
    # gln<n> with 2500 digits takes n * n coordinates, a number over the digit limit
    "trop_coordinate_count_over_digit_limit": lambda tmp: ["trop", "gln" + "9" * 2500, "[[t]]"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_exit_2(capsys, tmp_path, case):
    code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert err.startswith("error:")


REPEATED_E2 = [{"color": "E2", "weight": "1"}, {"color": "E2", "weight": "0"}]


def _messages_are_lines(err):
    """Every stderr line is one ``error:`` or ``warning:`` message."""
    return all(line.startswith(("error: ", "warning: ")) for line in err.splitlines())


INPUT_ERROR_TEXTS = {
    "trop_without_arguments": (lambda tmp: ["trop"], "trop needs a space id and coordinates"),
    "trop_without_coordinates": (lambda tmp: ["trop", "torus2"], "trop needs a space id and coordinates"),
    "trop_unknown_space": (lambda tmp: ["trop", "torus9x", "(t)"], "unknown space id 'torus9x'"),
    "trop_torus0": (lambda tmp: ["trop", "torus0", "(t)"], "unknown space id 'torus0'"),
    "trop_unbalanced_parenthesis": (lambda tmp: ["trop", "torus2", "((1,2"], "unbalanced '(' in '((1'"),
    "trop_malformed_term": (lambda tmp: ["trop", "torus2", "(3 t, 1)"], "malformed Puiseux polynomial '3 t'"),
    "trop_empty_parentheses": (lambda tmp: ["trop", "torus2", "()"], "empty coordinate list"),
    "trop_empty_brackets": (lambda tmp: ["trop", "torus2", "[]"], "empty coordinate list"),
    "trop_empty_middle_cell": (lambda tmp: ["trop", "torus2", "(t,,t^2)"], "empty input"),
    "trop_vector_trailing_comma": (lambda tmp: ["trop", "torus2", "(t, t^2,)"], "empty input"),
    "trop_empty_first_cell": (lambda tmp: ["trop", "torus2", "(,t,t)"], "empty input"),
    "trop_matrix_empty_cell": (lambda tmp: ["trop", "gln2", "[[t,],[1,t]]"], "empty input"),
    "fan_validate_without_input": (lambda tmp: ["fan", "validate"], "an input file (or --fixture) is required"),
    "star_without_index": (
        lambda tmp: ["fan", "star", "--fixture", "gl2_fig1_fan"], "star needs --cone-index"
    ),
    "star_index_out_of_range": (
        lambda tmp: ["fan", "star", "--fixture", "gl2_fig1_fan", "--cone-index", "99"],
        "cone index 99 out of range",
    ),
    "star_colored_member_without_colors": (
        lambda tmp: ["fan", "star", _colored_fan_file(tmp), "--cone-index", "0"],
        "cone 0 has colors: star needs --colors",
    ),
    "unknown_fixture": (lambda tmp: ["fan", "validate", "--fixture", "nope"], "unknown fixture 'nope'"),
    "fan_unknown_builtin": (
        lambda tmp: _fan_doc_with(tmp, lambda doc: doc.update(space={"builtin": "foo"})),
        "unknown space id 'foo'",
    ),
    "fan_unknown_color_label": (
        lambda tmp: _fan_doc_with(tmp, lambda doc: doc["cones"][-1].update(colors=["BOGUS"])),
        "unknown color label 'BOGUS'",
    ),
    "curve_unknown_color_label": (
        lambda tmp: _curve_doc_with(tmp, lambda doc: doc["colored_weights"][0].update(color="BOGUS")),
        "unknown color label 'BOGUS'",
    ),
    "fan_color_label_not_a_string": (
        lambda tmp: _fan_doc_with(tmp, lambda doc: doc["cones"][-1].update(colors=[[]])),
        "a 'colors' entry must be a JSON string, got []",
    ),
    # a result document names its space after the input's, so a repr must not reach it
    "fan_star_space_name_not_a_string": (
        lambda tmp: [
            "fan", "star", _fan_doc_with(tmp, lambda doc: doc["space"].update(name={"x": [1]}))[-1],
            "--cone-index", "1",
        ],
        "'name' must be a JSON string, got {'x': [1]}",
    ),
    "fan_palette_label_not_a_string": (
        lambda tmp: _fan_doc_with(tmp, lambda doc: doc["space"]["palette"][0].update(label=3)),
        "'label' must be a JSON string, got 3",
    ),
    "weighted_fan_color_not_a_string": (
        lambda tmp: _weighted_fan_file(
            tmp,
            json.dumps(
                {
                    "format": "weighted-fan/1",
                    "space": {"builtin": "sl2u"},
                    "rays": [{"vector": ["-1"], "weight": "1"}],
                    "colored_weights": [{"color": 3, "weight": "1"}],
                }
            ),
        ),
        "'color' must be a JSON string, got 3",
    ),
    # colored weights name colors by label, so each label is named once
    "curve_repeated_colored_weight": (
        lambda tmp: _curve_doc_with(tmp, lambda doc: doc.update(colored_weights=REPEATED_E2)),
        "color 'E2' repeats in 'colored_weights'",
    ),
    "weighted_fan_repeated_colored_weight": (
        lambda tmp: _weighted_fan_file(
            tmp, json.dumps(dict(fixture_doc("gl2_line_curve")["expected"], colored_weights=REPEATED_E2))
        ),
        "color 'E2' repeats in 'colored_weights'",
    ),
    "curve_branch_without_coordinates": (
        lambda tmp: _curve_doc_with(tmp, lambda doc: doc["branches"].__setitem__(0, {})),
        "branch needs 'coords' or 'matrix'",
    ),
    # colors are named by label, so a repeated one would resolve to its first entry
    "fan_validate_repeated_palette_label": (
        lambda tmp: _fan_doc_with(
            tmp, lambda doc: doc["space"]["palette"].append({"label": "E2", "vector": ["1", "-1"]})
        ),
        "palette label 'E2' repeats",
    ),
    "balance_solve_colors_repeated_palette_label": (
        lambda tmp: [
            "balance",
            "solve-colors",
            _weighted_fan_file(
                tmp,
                json.dumps(
                    {
                        "format": "weighted-fan/1",
                        "space": {
                            "format": "space/1",
                            "rank": 1,
                            "valuation_cone": {"generators": [["1"], ["-1"]]},
                            "palette": [{"label": "E", "vector": ["1"]}, {"label": "E", "vector": ["-1"]}],
                        },
                        "rays": [{"vector": ["-1"], "weight": "1"}],
                    }
                ),
            )[-1],
        ],
        "palette label 'E' repeats",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERROR_TEXTS))
def test_input_error_text(capsys, tmp_path, case):
    argv, message = INPUT_ERROR_TEXTS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert "Fraction(" not in err
    assert _messages_are_lines(err)


def _torus_curve_with_branch(tmp, coords):
    return _curve_doc_with(
        tmp, lambda doc: doc["branches"].__setitem__(0, {"coords": coords}), "torus_line_curve"
    )


def _on_first_quadrant(doc):
    """The torus family on the first quadrant, with a branch that leaves it."""
    doc["space"] = {
        "format": "space/1",
        "rank": 2,
        "family": "torus",
        "valuation_cone": {"generators": [["1", "0"], ["0", "1"]]},
    }
    doc["branches"] = [{"coords": ["t^-1", "t"]}]
    del doc["expected"]


DOMAIN_ERROR_TEXTS = {
    "trop_vanishing_coordinate": (
        lambda tmp: ["trop", "torus2", "(0, t)"],
        "coordinate 0 vanishes: point is off the torus",
    ),
    "curve_vanishing_coordinate": (
        lambda tmp: _torus_curve_with_branch(tmp, ["0", "t"]),
        "coordinate 0 vanishes: point is off the torus",
    ),
    "curve_non_integer_ray": (
        lambda tmp: _torus_curve_with_branch(tmp, ["t^(1/2)", "1"]),
        "tropical point (1/2, 0) is fractional; rescale the branch parameter",
    ),
    "plot_curve_non_integer_ray": (
        lambda tmp: [
            "plot", _torus_curve_with_branch(tmp, ["t^(1/2)", "1"])[-1], "--out", str(tmp / "out.svg")
        ],
        "tropical point (1/2, 0) is fractional; rescale the branch parameter",
    ),
    "curve_escapes_valuation_cone": (
        lambda tmp: _curve_doc_with(tmp, _on_first_quadrant, "torus_line_curve"),
        "tropical point (-1, 1) escapes the valuation cone",
    ),
    "star_of_invalid_fan": (
        # without the ray (-1, -1), a face of the member at index 3, the fan breaks CF1
        lambda tmp: [
            "fan", "star", _fan_doc_with(tmp, lambda doc: doc["cones"].pop(1))[-1], "--cone-index", "0"
        ],
        "[CF1] member=3 colored face [(-1, -1)] with colors [] is missing from the fan",
    ),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_ERROR_TEXTS))
def test_domain_error_text(capsys, tmp_path, case):
    argv, message = DOMAIN_ERROR_TEXTS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out, err) == (1, "", "error: %s\n" % message)
    assert "Fraction(" not in err
    assert _messages_are_lines(err)


@pytest.mark.parametrize("coords", ["(1/0, 1)", "(1/00*t, 1)", "(t^(1/0), 1)"])
def test_zero_denominator_is_named(capsys, coords):
    code, _, err = run(capsys, "trop", "torus2", coords)
    assert code == 2
    assert "zero denominator" in err


def test_trop_arity_mismatch_is_input_error(capsys):
    code, _, err = run(capsys, "trop", "gln2", "[[1]]")
    assert code == 2
    assert err == "error: gln2 takes 4 coordinates, got 1\n"


def test_trop_checks_arity_before_building_the_space(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "builtin_space", lambda *args: built.append(args))
    code, _, err = run(capsys, "trop", "gln80", "[[t]]")
    assert (code, err, built) == (2, "error: gln80 takes 6400 coordinates, got 1\n", [])


def test_result_over_digit_limit_names_the_limit(capsys, tmp_path):
    # each number read fits the digit limit, but the residual entry (about 8000 digits) does not
    big = "9" * 4000
    doc = {"format": "weighted-fan/1", "space": {"builtin": "torus2"}, "rays": [{"vector": [big, "1"], "weight": big}]}
    code, out, err = run(capsys, *_weighted_fan_file(tmp_path, json.dumps(doc)))
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (2, "", "error: number has more than %d digits\n" % limit)


# Every catalog space of size 1 to 12
CATALOG_SWEEP = ["torus%d" % n for n in range(1, 13)] + ["gln%d" % n for n in range(1, 13)] + ["sl2u"]
CATALOG_SWEEP_SECONDS = 3.0  # budget for the whole sweep from cold memos; about 0.2 s on a 2-vCPU VM


def test_fan_commands_on_every_catalog_space_convert_no_valuation_cone(capsys, tmp_path, monkeypatch):
    """``fan validate``, ``fan star --cone-index 1`` and ``fan decolor`` on
    the zero cone plus one ray inside the valuation cone, over every space
    of the sweep, within one budget.  A catalog valuation cone is cut out by
    its normals, which decide membership, and its pointedness and rank are
    read off them; so the dual description (``lattice._dual``, behind
    ``dual_description``) never receives its generators, which for gln n
    span a cone with a line whose conversion is unbounded.  A valuation
    cone that is the whole space is left out of the watch: its generators,
    the signed basis, are also the normals that cut out the zero cone."""
    clear_memos()
    catalog_gens = set()
    dual = lattice._dual

    def watched(vecs, dim):
        assert (vecs, dim) not in catalog_gens, "dual description of a catalog valuation cone's generators"
        return dual(vecs, dim)

    monkeypatch.setattr(lattice, "_dual", watched)
    path = tmp_path / "fan.json"
    started = time.perf_counter()
    for ident in CATALOG_SWEEP:
        space = space_by_id(ident)
        if space.valuation_cone.inequalities:
            catalog_gens.add((space.valuation_cone.generators, space.rank))
        ray = ["1"] + ["0"] * (space.rank - 1)
        cones = [{"generators": []}, {"generators": [ray]}]
        path.write_text(json.dumps({"format": "fan/1", "space": {"builtin": ident}, "cones": cones}))
        code, out, err = run(capsys, "fan", "validate", str(path))
        assert (code, err, json.loads(out)["valid"]) == (0, "", True), ident
        code, out, err = run(capsys, "fan", "star", str(path), "--cone-index", "1")
        assert (code, err) == (0, ""), ident
        assert len(json.loads(out)["projection"]) == space.rank - 1, ident
        code, out, err = run(capsys, "fan", "decolor", str(path))
        assert (code, err, len(json.loads(out)["cones"])) == (0, "", 2), ident
    elapsed = time.perf_counter() - started
    assert elapsed < CATALOG_SWEEP_SECONDS, elapsed


GLN40_SECONDS = 2.0  # budget for building gln40 from cold memos; about 0.1 s on a 2-vCPU VM


def test_an_empty_gln40_fan_is_validated_within_its_budget(capsys, tmp_path):
    """Building a catalog space is the whole cost of an empty fan: gln40's
    valuation cone is cut out by its 39 normals, each pruned by one
    Fourier-Motzkin LP, and converted by one dual description (the
    catalog-space row of the Work bounds in docs/formats.md)."""
    clear_memos()
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"format": "fan/1", "space": {"builtin": "gln40"}, "cones": []}))
    started = time.perf_counter()
    code, out, err = run(capsys, "fan", "validate", str(path))
    elapsed = time.perf_counter() - started
    assert (code, err, json.loads(out)["valid"]) == (0, "", True)
    assert elapsed < GLN40_SECONDS, elapsed


TORUS1200_SECONDS = 1.0  # budget for building torus1200 from cold memos; about 0.3 s on a 2-vCPU VM


def test_an_empty_torus1200_fan_is_validated_within_its_budget(capsys, tmp_path):
    """torus1200's valuation cone is the whole space, cut out by no normals:
    its rank is read with no elimination over its 2,400 signed unit vectors
    (the catalog-space row of the Work bounds in docs/formats.md)."""
    clear_memos()
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"format": "fan/1", "space": {"builtin": "torus1200"}, "cones": []}))
    started = time.perf_counter()
    code, out, err = run(capsys, "fan", "validate", str(path))
    elapsed = time.perf_counter() - started
    assert (code, err, json.loads(out)["valid"]) == (0, "", True)
    assert elapsed < TORUS1200_SECONDS, elapsed


# --- mutated fixture documents ---------------------------------------------------

FUZZ_CASES = 300
FUZZ_CASE_SECONDS = 2.0
# (command, flags): each run is the command, the document's path, then the flags
FUZZ_COMMANDS = (
    (["fan", "validate"], []),
    (["fan", "decolor"], []),
    (["fan", "star"], ["--cone-index", "0"]),
    (["fan", "star"], ["--cone-index", "1", "--colors", "E2"]),
    (["balance", "check"], []),
    (["balance", "solve-colors"], []),
    (["plot"], ["--out", os.devnull]),
)
JSON_VALUES = (None, True, 0, 3, "x", "1", [], {})


def _fuzz_bases():
    """The fan, weighted fan and curve fixtures, and the colored gln2 fan, as
    documents with their space written out."""
    docs = [
        documents.fan_to_doc(documents.fan_from_doc(fixture_doc("gl2_fig1_fan"))),
        documents.fan_to_doc(documents.fan_from_doc(COLORED_GLN2_FAN)),
        documents.weighted_fan_to_doc(sl2u_family(3, 1)),
    ]
    for name in ("gl2_line_curve", "torus_line_curve"):
        docs.append(documents.curve_to_doc(*documents.curve_from_doc(fixture_doc(name))))
    return docs


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _paths(item, path + (key,))


def _mutated(rng, doc):
    """A copy of ``doc`` with one random edit, and a description of the edit."""
    doc = copy.deepcopy(doc)
    *head, key = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for step in head:
        parent = parent[step]
    value = parent[key]
    kinds = ["replace", "wrap"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(value, list):
        kinds += ["truncate", "extend"] if value else ["extend"]
    if isinstance(value, str) and value.isdigit():
        kinds.append("negate")
    kind = rng.choice(kinds)
    if kind == "drop":
        del parent[key]
    elif kind == "truncate":
        parent[key] = value[: rng.randrange(len(value))]
    elif kind == "extend":
        value.append(copy.deepcopy(rng.choice(value)) if value else rng.choice(JSON_VALUES))
    elif kind == "wrap":
        parent[key] = [value]
    elif kind == "negate":
        parent[key] = "-" + value
    else:
        parent[key] = rng.choice([v for v in JSON_VALUES if type(v) is not type(value)])
    return doc, "%s at %r" % (kind, [*head, key])


def test_mutated_fixture_documents_exit_cleanly(capsys, tmp_path):
    rng = random.Random(1)
    bases = _fuzz_bases()
    path = tmp_path / "mutated.json"
    for case in range(FUZZ_CASES):
        doc, edit = _mutated(rng, rng.choice(bases))
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        for command, flags in FUZZ_COMMANDS:
            try:
                code = main([*command, str(path), *flags])
            except Exception as exc:
                pytest.fail("case %d (%s): %s raised %r" % (case, edit, command, exc))
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (case, edit, command, code)
            assert "Fraction(" not in err, (case, edit, command, err)
            assert _messages_are_lines(err), (case, edit, command, err)
        elapsed = time.perf_counter() - started
        assert elapsed < FUZZ_CASE_SECONDS, (case, edit, elapsed)


# --- balance -----------------------------------------------------------------------


def test_balance_check_curve(capsys, curve_file):
    code, out, _ = run(capsys, "balance", "check", curve_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"] is True
    assert doc["residual"] == ["0", "0"]


def test_balance_solve_colors(capsys, curve_file):
    code, out, _ = run(capsys, "balance", "solve-colors", curve_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["weights"] == {"E2": "1"}


def test_balance_check_unbalanced_exit(capsys, tmp_path):
    doc = {
        "format": "weighted-fan/1",
        "space": {"builtin": "gln2"},
        "rays": [{"vector": ["1", "0"], "weight": "1"}],
        "colored_weights": [],
    }
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "balance", "check", str(path))
    assert code == 1
    assert json.loads(out)["residual"] == ["1", "0"]


def test_balance_solve_colors_infeasible_exit(capsys, tmp_path):
    doc = {
        "format": "weighted-fan/1",
        "space": {"builtin": "torus2"},
        "rays": [{"vector": ["1", "0"], "weight": "1"}],
        "colored_weights": [],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "balance", "solve-colors", str(path))
    assert code == 1
    assert json.loads(out)["feasible"] is False


# --- catalog and plot -----------------------------------------------------------------


PINNED_CATALOG_LIST = """{
  "fixtures": [
    "gl2_fig1_fan",
    "gl2_line_curve",
    "torus_line_curve"
  ],
  "format": "catalog/1",
  "spaces": [
    {
      "id": "torus<n>",
      "palette": 0,
      "rank": "n"
    },
    {
      "id": "sl2u",
      "palette": 1,
      "rank": 1
    },
    {
      "id": "gln<n>",
      "palette": "n-1",
      "rank": "n"
    }
  ]
}
"""


def test_writers_keep_their_bytes(capsys, tmp_path):
    """The exact bytes of colored-weights/1, feasible and not, and of catalog/1."""
    code, out, _ = run(capsys, "balance", "solve-colors", "--fixture", "gl2_line_curve")
    feasible = '{\n  "feasible": true,\n  "format": "colored-weights/1",\n  "weights": {\n    "E2": "1"\n  }\n}\n'
    assert (code, out) == (0, feasible)
    infeasible = {
        "format": "weighted-fan/1",
        "space": {"builtin": "torus2"},
        "rays": [{"vector": ["1", "0"], "weight": "1"}],
    }
    argv = _weighted_fan_file(tmp_path, json.dumps(infeasible))
    code, out, _ = run(capsys, "balance", "solve-colors", argv[-1])
    assert (code, out) == (1, '{\n  "feasible": false,\n  "format": "colored-weights/1"\n}\n')
    assert run(capsys, "catalog", "list") == (0, PINNED_CATALOG_LIST, "")


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    doc = json.loads(out)
    assert "gl2_line_curve" in doc["fixtures"]


def test_plot_deterministic(tmp_path, capsys):
    wf = documents.curve_from_doc(fixture_doc("gl2_line_curve"))[3]
    src = tmp_path / "wf.json"
    src.write_text(documents.dumps(documents.weighted_fan_to_doc(wf)))
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["plot", str(src), "--out", str(out1)]) == 0
    assert main(["plot", str(src), "--out", str(out2)]) == 0
    svg = out1.read_text()
    assert svg == out2.read_text()
    assert svg.startswith("<svg")
    assert ">2</text>" in svg and ">1</text>" in svg  # the ray weight labels


def test_plot_fixtures_through_the_entry_point(tmp_path):
    """Each fixture the catalog/1 table lists with ``plot`` draws through ``python -m``."""
    root = pathlib.Path(__file__).parents[1]
    table = (root / "docs" / "formats.md").read_text()
    names = re.findall(r"^\| `(\w+)` \| [^|]+ \| [^|]*`plot`[^|]* \|$", table, re.M)
    assert names == ["gl2_fig1_fan", "gl2_line_curve", "torus_line_curve"]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    for name in names:
        out = tmp_path / (name + ".svg")
        done = subprocess.run(
            [sys.executable, "-m", "sphertrop", "plot", "--fixture", name, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", ""), name
        assert out.read_text().count("<polygon") == 1, name


def test_warnings_are_one_line_each_through_the_entry_point(tmp_path):
    """A branch that tropicalizes to zero is dropped with one ``warning:`` line."""
    doc = {
        "format": "curve/1",
        "space": {"builtin": "torus2"},
        "branches": [{"coords": ["2", "3"]}, {"coords": ["t", "1"]}],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    root = pathlib.Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    warning = "warning: branch 0 tropicalizes to zero and is excluded from the ray fan\n"
    for command, code in ((["balance", "check"], 1), (["plot", "--out", str(tmp_path / "out.svg")], 0)):
        done = subprocess.run(
            [sys.executable, "-m", "sphertrop", *command, str(path)], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stderr) == (code, warning), command


def test_plot_rank1(tmp_path, capsys):
    from sphertrop.catalog import sl2u_family

    wf = sl2u_family(3, 1)
    src = tmp_path / "s.json"
    src.write_text(documents.dumps(documents.weighted_fan_to_doc(wf)))
    out = tmp_path / "s.svg"
    assert main(["plot", str(src), "--out", str(out)]) == 0
    assert "E1" in out.read_text()


def _plot(tmp_path, doc):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.svg"
    assert main(["plot", str(src), "--out", str(out)]) == 0
    return out.read_text()


def _weighted_fan_doc_of(curve_doc, rays, colored_weights):
    return {
        "format": "weighted-fan/1",
        "space": curve_doc["space"],
        "rays": rays,
        "colored_weights": colored_weights,
    }


def test_plot_curve_draws_its_branches(tmp_path):
    """A curve is drawn from the rays its branches tropicalize to, so a
    curve without ``expected`` plots, and one whose ``expected`` disagrees
    with its branches draws the derived rays."""
    doc = fixture_doc("gl2_line_curve")
    rays = doc["expected"]["rays"]  # equal to the derived rays on this fixture
    derived = _plot(tmp_path, _weighted_fan_doc_of(doc, rays, doc["colored_weights"]))
    del doc["expected"]
    assert _plot(tmp_path, doc) == derived
    doc["expected"] = _weighted_fan_doc_of(doc, [{"vector": ["1", "1"], "weight": "7"}], [])
    assert _plot(tmp_path, doc) == derived
    assert ">7</text>" not in derived


def test_plot_rank1_fan_draws_member_lines(tmp_path):
    doc = {
        "format": "fan/1",
        "space": {"builtin": "sl2u"},
        "cones": [{"generators": [["1"]], "colors": ["E1"]}, {"generators": [["-1"]], "colors": []}],
    }
    svg = _plot(tmp_path, doc)
    lines = re.findall(r'<line x1="0" y1="0" x2="(\S+)" y2="(\S+)" stroke="#bbbbbb"', svg)
    assert lines == [("140.00", "0.00"), ("-140.00", "0.00")]


def test_plot_unsupported_rank(tmp_path, capsys):
    doc = {
        "format": "weighted-fan/1",
        "space": {"builtin": "gln3"},
        "rays": [],
        "colored_weights": [],
    }
    src = tmp_path / "g3.json"
    src.write_text(json.dumps(doc))
    code = main(["plot", str(src), "--out", str(tmp_path / "x.svg")])
    capsys.readouterr()
    assert code == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "fan", "validate", "/nonexistent/fan.json")
    assert code == 2


# --- flag surface ---------------------------------------------------------------------


def test_fixture_flag(capsys):
    code, out, _ = run(capsys, "balance", "check", "--fixture", "gl2_line_curve")
    assert code == 0
    assert json.loads(out)["balanced"] is True
    code, out, _ = run(capsys, "fan", "validate", "--fixture", "gl2_fig1_fan")
    assert code == 0
    code, _, err = run(capsys, "balance", "check", "--fixture", "sl2u_family")
    assert code == 2  # no such fixture: the sl2u family is built by catalog.sl2u_family


FIXTURE_COMMANDS = {"fan/1": ["fan", "validate"], "curve/1": ["balance", "check"]}


def test_every_listed_fixture_loads(capsys):
    _, out, _ = run(capsys, "catalog", "list")
    names = json.loads(out)["fixtures"]
    for name in names:
        command = FIXTURE_COMMANDS[catalog.fixture_doc(name)["format"]]
        code, out, err = run(capsys, *command, "--fixture", name)
        assert (code, err) == (0, ""), name
        assert json.loads(out)["format"] in ("validation-report/1", "balance-report/1")
    packaged = pathlib.Path(catalog.__file__).with_name("fixtures")
    assert sorted(p.name for p in packaged.iterdir()) == sorted(name + ".json" for name in names)


def test_fixture_and_file_are_exclusive(capsys, fan_file):
    code, _, err = run(
        capsys, "fan", "validate", fan_file, "--fixture", "gl2_fig1_fan"
    )
    assert code == 2


def test_json_flag_compact_output(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--json")
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out)["format"] == "catalog/1"


def _leaf_commands(parser, path=()):
    """``(path, parser)`` of every command under ``parser`` that has no subcommands."""
    groups = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for choices in groups:
        for name, child in choices.items():
            yield from _leaf_commands(child, path + (name,))


TROP_OPERANDS = {"space": "gln2", "coordinates": "[[t,1],[1,t]]"}


def _operand(tmp, action):
    """A value for the positional ``action``: its first choice, a trop
    operand, or a fixture document of a format its help names, written to a
    file."""
    if action.choices:
        return next(iter(action.choices))
    if action.dest in TROP_OPERANDS:
        return TROP_OPERANDS[action.dest]
    formats = re.findall(r"[\w-]+/1", action.help)
    name = next(n for n in catalog.FIXTURE_FILES if catalog.fixture_doc(n)["format"] in formats)
    path = tmp / (name + ".json")
    path.write_text(json.dumps(catalog.fixture_doc(name)))
    return str(path)


def test_every_command_takes_its_flags_before_between_or_after_its_operands(capsys, tmp_path):
    """Each flag of each command with operands, put before, between and
    after the operands (its other flags after them), gives one exit code,
    one stdout and one output file."""
    covered = []
    values = {"--out": str(tmp_path / "out"), "--cone-index": "1", "--colors": ""}
    for path, parser in _leaf_commands(build_parser()):
        operands = [_operand(tmp_path, a) for a in parser._get_positional_actions()]
        if not operands:
            continue
        flags = {}
        for action in parser._get_optional_actions():
            option = action.option_strings[-1]
            if option not in ("--help", "--fixture"):
                flags[option] = [option] + ([] if action.nargs == 0 else [values[option]])
        for option, tokens in flags.items():
            rest = [t for other, ts in flags.items() if other != option for t in ts]
            results = set()
            for k in range(len(operands) + 1):
                (tmp_path / "out").unlink(missing_ok=True)
                argv = [*path, *operands[:k], *tokens, *operands[k:], *rest]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv
                results.add((out, (tmp_path / "out").read_text()))
            assert len(results) == 1, (path, option)
            covered.append((path, option))
    assert {path for path, _ in covered} >= {
        ("trop",), ("fan", "validate"), ("fan", "star"), ("fan", "decolor"),
        ("balance", "check"), ("balance", "solve-colors"), ("catalog",), ("plot",),
    }
    assert {option for _, option in covered} == {"--json", "--out", "--cone-index", "--colors"}


def test_star_options_belong_to_star(capsys):
    for action in ("validate", "decolor"):
        for flag in (["--cone-index", "0"], ["--colors", "E2"]):
            code, out, err = run(capsys, "fan", action, "--fixture", "gl2_fig1_fan", *flag)
            assert (code, out) == (2, "") and err.startswith("error: unrecognized arguments: %s" % flag[0])


@pytest.mark.parametrize(
    "argv, text",
    [
        ([], "the following arguments are required: command"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["fan"], "the following arguments are required: action"),
        (["fan", "frob"], "argument action: invalid choice: 'frob'"),
        (["balance", "frob", "--json"], "argument action: invalid choice: 'frob'"),
        (["fan", "star", "--cone-index", "x"], "argument --cone-index: invalid int value: 'x'"),
        (["catalog", "list", "--bogus"], "unrecognized arguments: --bogus"),
        (["plot", "--fixture", "gl2_fig1_fan"], "the following arguments are required: --out"),
    ],
)
def test_parser_errors_are_one_error_line(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + text) and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["fan", "--help"], ["fan", "star", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: sphertrop" in capsys.readouterr().out
