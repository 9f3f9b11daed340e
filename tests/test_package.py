import ast
import pathlib
import re
import shlex

import sphertrop
from sphertrop.cli import main

PACKAGE = pathlib.Path(sphertrop.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from sphertrop import *", namespace)
    assert [name for name in sphertrop.__all__ if name not in namespace] == []


def test_readme_module_table_names_exactly_the_modules():
    table = [line for line in README.read_text().splitlines() if line.startswith("| `sphertrop.")]
    listed = {name for line in table for name in re.findall(r"`sphertrop\.(\w+)`", line.split("|")[1])}
    modules = {path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_")}
    assert listed == modules


def test_no_module_imports_inside_a_function():
    # every import runs once, at module level, so the import graph is the one
    # the module headers show
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    "%s:%d" % (path.name, inner.lineno)
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def _readme_block(heading, language):
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text().split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % language, 1)[1].split("```", 1)[0]


def test_readme_library_quick_start_runs_as_its_comments_say(capsys):
    code = _readme_block("Library quick start", "python")
    namespace = {}
    exec(code, namespace)
    rays_line = next(line for line in code.splitlines() if line.startswith("rays = "))
    assert namespace["rays"] == ast.literal_eval(rays_line.split("#", 1)[1].strip())
    print_line = next(line for line in code.splitlines() if line.startswith("print("))
    assert capsys.readouterr().out.split() == print_line.split("#", 1)[1].split()
    assert namespace["report"].balanced


def test_readme_command_line_examples_exit_0(capsys, tmp_path):
    ran = set()
    for line in _readme_block("Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "sphertrop", line
        args = argv[1:]
        if any(a.endswith(".json") for a in args):
            continue  # a user file the README only names
        if "--out" in args:
            i = args.index("--out") + 1
            args[i] = str(tmp_path / args[i])
        assert main(args) == 0, line
        assert capsys.readouterr().err == "", line
        ran.add(args[0])
    assert ran == {"trop", "fan", "balance", "catalog", "plot"}
