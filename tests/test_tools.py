"""The scripts under ``tools/`` run and print what their docstrings promise."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cold_fans_prints_one_json_line_at_rank_2():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cold_fans.py"), "--rank", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    [line] = done.stdout.splitlines()
    result = json.loads(line)
    timed = ["validate_colored_fan", "star", "decolor", "fan_from_doc"]
    assert list(result) == ["rank", *timed]
    assert result["rank"] == 2
    assert all(0 < result[name] < 10 for name in timed)
