import pathlib
import re

import sphertrop

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
