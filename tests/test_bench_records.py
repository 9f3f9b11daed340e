"""The committed perf record: every ``BENCH_<n>.json`` in the shape of ``BENCH_6.json``.

Reads ``BENCHMARK.json`` and the record files and writes nothing.  Each file
holds ten parent/change pairs per workload, alternating which side ran first,
and its summary is what those runs recompute to.  A gain marked as holding
must meet the rule in ROADMAP.md: the change wins at least nine of the ten
pairs, and the medians differ by more than the parent's interquartile range.
"""

import glob
import json
import os
import re
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


SPEC = _load("BENCHMARK.json")
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
RECORDS = sorted(
    (os.path.basename(path) for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))),
    key=lambda name: int(re.fullmatch(r"BENCH_(\d+)\.json", name).group(1)),
)


def _better(metric, change, parent):
    return change > parent if END_TO_END[metric]["better"] == "higher" else change < parent


def _quartile_choices(values):
    # BENCH_6 to BENCH_9 took inclusive quartiles, the later files exclusive ones
    return [statistics.quantiles(values, n=4, method=method) for method in ("inclusive", "exclusive")]


def test_records_exist():
    assert RECORDS[0] == "BENCH_6.json" and len(RECORDS) >= 2


@pytest.mark.parametrize("name", RECORDS)
def test_record_shape_and_summary(name):
    record = _load(name)
    assert list(record) == list(_load("BENCH_6.json"))
    assert set(record["workloads"]) == {workload["name"] for workload in SPEC["workloads"]}
    for workload in record["workloads"].values():
        runs = workload["runs"]
        assert len(runs) == PAIRS
        firsts = [run["first"] for run in runs]
        assert set(firsts) == {"parent", "change"}
        assert all(a != b for a, b in zip(firsts, firsts[1:]))
        for run in runs:
            for side in ("parent", "change"):
                assert set(END_TO_END) <= set(run[side])
        summary = workload["summary"]
        assert set(summary) == set(END_TO_END)
        for metric, spec in END_TO_END.items():
            entry = summary[metric]
            values = {side: [run[side][metric] for run in runs] for side in ("parent", "change")}
            for side, sample in values.items():
                stats = entry[side]
                assert stats["median"] == pytest.approx(statistics.median(sample))
                assert any(
                    stats["q1"] == pytest.approx(q1) and stats["q3"] == pytest.approx(q3)
                    for q1, _, q3 in _quartile_choices(sample)
                )
                assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"])
            wins = sum(_better(metric, run["change"][metric], run["parent"][metric]) for run in runs)
            assert entry["change_better_pairs"] == wins
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            worse = (change - parent) / parent * (1 if spec["better"] == "lower" else -1)
            assert entry["change_worse_by"] == pytest.approx(worse)
            assert entry["bound"] == spec["bound"]
            assert entry["within_bound"] == (worse <= spec["bound"])


@pytest.mark.parametrize("name", [name for name in RECORDS if _load(name)["claimed_gain"]])
def test_claimed_gain_meets_the_rule(name):
    claim = _load(name)["claimed_gain"]
    entry = _load(name)["workloads"][claim["workload"]]["summary"][claim["metric"]]
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    assert claim["pairs"] == PAIRS
    assert claim["change_better_pairs"] == entry["change_better_pairs"]
    assert claim["median_difference"] == pytest.approx(change - parent)
    assert claim["median_ratio"] == pytest.approx(change / parent)
    assert claim["parent_iqr"] == pytest.approx(entry["parent"]["iqr"])
    gain = change - parent if END_TO_END[claim["metric"]]["better"] == "higher" else parent - change
    holds = 10 * claim["change_better_pairs"] >= 9 * claim["pairs"] and gain > claim["parent_iqr"]
    assert claim["holds"] == holds
