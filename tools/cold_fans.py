"""Cold timings of the fan layer on the orthant fan of torus n.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/cold_fans.py --rank 4

The fan has the 3^n cones spanned by the sets of signed unit vectors with
at most one sign per coordinate.  Before each timed call every
``functools`` memo of every ``sphertrop`` module (catalog spaces and
document vectors included) is emptied and the fan rebuilt, so ``validate_colored_fan``, ``star`` (on the
ray e_1) and ``decolor`` each run as in a fresh process; ``star`` and
``decolor`` validate the fan first.  ``fan_from_doc`` reads the fan's
fan/1 text (``load_text``, then ``fan_from_doc``), written before the
memos are emptied.  ``validate_repeated`` validates the fan with the ray
e_1 appended again, a first full check of a fan with a repeated member
(invalid by CF2).  Prints one JSON line: the rank and,
per call, the least wall time of ``RUNS`` runs in seconds.  The fan and the
memo clearing are those of the test suite (``tests/helpers.py``).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from sphertrop import documents, luna_vust

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import clear_memos, orthant_fan  # noqa: E402

RUNS = 3

CALLS = {
    "validate_colored_fan": lambda fan, ray, text: luna_vust.validate_colored_fan(fan),
    "star": lambda fan, ray, text: luna_vust.star(fan, ray),
    "decolor": lambda fan, ray, text: luna_vust.decolor(fan),
    "fan_from_doc": lambda fan, ray, text: documents.fan_from_doc(documents.load_text(text)),
    "validate_repeated": lambda fan, ray, text: luna_vust.validate_colored_fan(
        luna_vust.ColoredFan(fan.space, fan.cones + (ray,))
    ),
}


def cold_seconds(call, n):
    """Wall seconds of one ``call`` on a freshly built fan, its ray e_1 and
    its fan/1 text, every memo empty."""
    text = documents.dumps(documents.fan_to_doc(orthant_fan(n)))
    clear_memos()
    fan = orthant_fan(n)
    e1 = ((1,) + (0,) * (n - 1),)
    ray = next(member for member in fan.cones if member.cone.generators == e1)
    started = time.perf_counter()
    call(fan, ray, text)
    return time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rank", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rank < 1:
        parser.error("--rank must be at least 1")
    result = {"rank": args.rank}
    for name, call in CALLS.items():
        result[name] = min(cold_seconds(call, args.rank) for _ in range(RUNS))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
