"""Command-line front door.

Subcommands: ``trop``, ``fan validate|star|decolor``, ``balance
check|solve-colors``, ``catalog list``, ``plot``.  Each action has its own
parser and handler, and takes only the options it reads, before, between or
after its operands.  Exit codes form a stable contract for shell harnesses:
0 on success (balanced / valid / feasible), 1 on a domain failure
(unbalanced, invalid fan, infeasible, point off the space), 2 on input
errors (parse or schema problems, arguments the parser rejects included).
Stderr holds one ``warning: ...`` line per warning the command raised, then
at most one ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings

from . import catalog, documents, plotting
from .balance import assemble, check_balancing, solve_colored_weights
from .luna_vust import InvalidColoredConeError, decolor, star, validate_colored_fan
from .puiseux import PuiseuxParseError, parse_puiseux
from .tropicalize import CurveBranch, NonIntegerRayError, OffSpaceError, branch_rays, trop_point

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parse errors are input errors; missing operands are named by the ``missing`` default."""

    def error(self, message):
        if message.startswith("the following arguments are required"):
            message = self.get_default("missing") or message
        raise _CliInputError(message)


def _emit(doc, args):
    if args.json:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = documents.dumps(doc)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliInputError(str(exc)) from None


def _read_doc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliInputError(str(exc)) from None
    except UnicodeDecodeError:
        raise _CliInputError("%s: not UTF-8 text" % path) from None
    return documents.load_text(text)


def _input_doc(args):
    if args.fixture:
        if args.input:
            raise _CliInputError("give either an input file or --fixture, not both")
        try:
            return catalog.fixture_doc(args.fixture)
        except KeyError as exc:
            raise _CliInputError(exc.args[0]) from None
    if not args.input:
        raise _CliInputError("an input file (or --fixture) is required")
    return _read_doc(args.input)


_ROW_RE = re.compile(r"\[([^][]*)\]")
_MATRIX_RE = re.compile(r"\[\s*\[[^][]*\](\s*,\s*\[[^][]*\])*\s*\]")


def _cells(text):
    """The Puiseux polynomials of a comma-separated list; an empty cell is a parse error."""
    return [parse_puiseux(cell) for cell in text.split(",")]


def _parse_coordinates(text):
    """A vector ``(p1, p2, ...)`` or matrix ``[[p11, ...], ...]`` of polynomials."""
    stripped = text.strip()
    if re.match(r"\[\s*\[", stripped):
        if not _MATRIX_RE.fullmatch(stripped):
            raise _CliInputError("malformed matrix literal: expected [[...], ..., [...]]")
        matrix = [_cells(row) for row in _ROW_RE.findall(stripped)]
        try:
            return CurveBranch.from_matrix(matrix)
        except ValueError as exc:
            raise _CliInputError(str(exc)) from None
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    elif stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    if not stripped.strip():
        raise _CliInputError("empty coordinate list")
    return CurveBranch(tuple(_cells(stripped)))


def cmd_trop(args):
    try:
        family, n = catalog.parse_space_id(args.space)
    except KeyError as exc:
        raise _CliInputError(exc.args[0]) from None
    branch = _parse_coordinates(args.coordinates)
    arity = catalog.FAMILIES[family].arity(n)
    if len(branch.coords) != arity:
        raise _CliInputError(
            "%s takes %s coordinates, got %d"
            % (args.space, documents.rational_to_str(arity), len(branch.coords))
        )
    space = catalog.builtin_space(family, n)  # built only once the arity fits
    _emit(documents.tropical_point_to_doc(space, trop_point(space, branch)), args)
    return EXIT_OK


def cmd_fan_validate(args):
    report = validate_colored_fan(documents.fan_from_doc(_input_doc(args)))
    _emit(documents.validation_report_to_doc(report), args)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_fan_decolor(args):
    try:
        toroidal, report = decolor(documents.fan_from_doc(_input_doc(args)))
    except InvalidColoredConeError as exc:
        _emit(documents.validation_report_to_doc(exc.report), args)
        return EXIT_DOMAIN
    _emit(documents.fan_to_doc(toroidal), args)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_fan_star(args):
    fan = documents.fan_from_doc(_input_doc(args))
    if args.cone_index is None:
        raise _CliInputError("star needs --cone-index")
    if not 0 <= args.cone_index < len(fan.cones):
        raise _CliInputError("cone index %d out of range" % args.cone_index)
    member = fan.cones[args.cone_index]
    survivors = None
    if args.colors is not None:
        try:
            survivors = frozenset(fan.space.color_index(label) for label in args.colors.split(",") if label)
        except KeyError as exc:
            raise _CliInputError(exc.args[0]) from None
    elif member.colors:
        raise _CliInputError("cone %d has colors: star needs --colors" % args.cone_index)
    _emit(documents.star_to_doc(star(fan, member, survivors)), args)
    return EXIT_OK


def _weighted_fan_from_input(doc, expects="balance expects a weighted-fan/1 or curve/1 document"):
    """The weighted fan of a weighted-fan/1 document, or the one a curve/1
    document's branches tropicalize to; ``expects`` opens the message for
    any other format."""
    if doc["format"] == "weighted-fan/1":
        return documents.weighted_fan_from_doc(doc)
    if doc["format"] == "curve/1":
        space, branches, colored, _ = documents.curve_from_doc(doc)
        return assemble(space, branch_rays(space, branches), colored)
    raise documents.DocumentError("%s, got %r" % (expects, doc["format"]))


def cmd_balance_check(args):
    report = check_balancing(_weighted_fan_from_input(_input_doc(args)))
    _emit(documents.balance_report_to_doc(report), args)
    return EXIT_OK if report.balanced else EXIT_DOMAIN


def cmd_balance_solve_colors(args):
    wf = _weighted_fan_from_input(_input_doc(args))
    solution = solve_colored_weights(wf.space, wf.rays)
    _emit(documents.colored_weights_to_doc(wf.space, solution), args)
    return EXIT_DOMAIN if solution is None else EXIT_OK


def cmd_catalog(args):
    _emit(documents.catalog_to_doc(), args)
    return EXIT_OK


def cmd_plot(args):
    doc = _input_doc(args)
    if doc["format"] == "fan/1":
        fan = documents.fan_from_doc(doc)
        svg = plotting.render_fan(fan.space, cones=fan.cones)
    else:
        wf = _weighted_fan_from_input(doc, "plot expects a weighted-fan/1, curve/1, or fan/1 document")
        svg = plotting.render_fan(wf.space, wf.rays, wf.colored_weights)
    _write(args.out, svg)
    return EXIT_OK


def _common_output_flags(parser):
    parser.add_argument("--out", help="write the result document here instead of stdout")
    parser.add_argument("--json", action="store_true", help="compact single-line JSON output")


def _document_action(sub, name, handler, input_help):
    """The parser of an action that reads one document, from a file or a fixture."""
    parser = sub.add_parser(name)
    parser.add_argument("input", nargs="?", help=input_help)
    parser.add_argument("--fixture", help="use a built-in fixture instead of a file")
    _common_output_flags(parser)
    parser.set_defaults(handler=handler)
    return parser


def build_parser():
    description = "Exact spherical tropicalization, colored fans, and balancing checks."
    parser = _Parser(prog="sphertrop", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trop = sub.add_parser("trop", help="tropicalize a point or matrix over the Puiseux field")
    p_trop.add_argument("space", help="space id, e.g. torus2, sl2u, gln2")
    p_trop.add_argument("coordinates", help="vector '(t, 1-t)' or matrix '[[t+1,t],[t,0]]'")
    _common_output_flags(p_trop)
    p_trop.set_defaults(handler=cmd_trop, missing="trop needs a space id and coordinates")

    p_fan = sub.add_parser("fan", help="validate, decolor, or take the star of a colored fan")
    fan = p_fan.add_subparsers(dest="action", required=True)
    _document_action(fan, "validate", cmd_fan_validate, "fan/1 JSON file")
    p_star = _document_action(fan, "star", cmd_fan_star, "fan/1 JSON file")
    p_star.add_argument("--cone-index", type=int, help="member index")
    p_star.add_argument("--colors", help="comma-separated surviving colors")
    _document_action(fan, "decolor", cmd_fan_decolor, "fan/1 JSON file")

    p_bal = sub.add_parser("balance", help="check balancing or solve for colored weights")
    balance = p_bal.add_subparsers(dest="action", required=True)
    _document_action(balance, "check", cmd_balance_check, "weighted-fan/1 or curve/1 JSON file")
    _document_action(balance, "solve-colors", cmd_balance_solve_colors, "weighted-fan/1 or curve/1 JSON file")

    p_cat = sub.add_parser("catalog", help="list built-in spaces and fixtures")
    p_cat.add_argument("action", choices=("list",))
    _common_output_flags(p_cat)
    p_cat.set_defaults(handler=cmd_catalog)

    p_plot = sub.add_parser("plot", help="render a rank-1 or rank-2 fan as SVG")
    p_plot.add_argument("input", nargs="?", help="weighted-fan/1, curve/1, or fan/1 JSON file")
    p_plot.add_argument("--fixture", help="use a built-in fixture instead of a file")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(handler=cmd_plot)
    return parser


@functools.cache
def _parser():
    return build_parser()  # built on the first main() call, not at import


def main(argv=None):
    """Run one command; every failure (a parse error too) is mapped to its
    exit code here, and each warning is printed as one line before any error."""
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = _parser().parse_args(argv)
            code = args.handler(args)
        except (documents.DocumentError, PuiseuxParseError, _CliInputError, plotting.PlotError) as exc:
            failure, code = exc, EXIT_INPUT
        except (OffSpaceError, NonIntegerRayError, InvalidColoredConeError) as exc:
            failure, code = exc, EXIT_DOMAIN
    for warning in caught:
        print("warning: %s" % warning.message, file=sys.stderr)
    if failure is not None:
        print("error: %s" % failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
