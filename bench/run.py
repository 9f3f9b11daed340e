"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload gln_curves --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each item starts when
the previous one has finished.  An item is parse, compute and emit on one
generated document; only those calls are timed, so generating inputs and
checking answers never count against the program.  The loop runs whole
rounds of the workload's class schedule until ``--seconds`` have passed.

Times are reported at reference speed.  On a shared machine the speed of
one process drifts by tens of percent over tens of seconds, so a fixed
reference task (small Fractions in a dict, the program's kind of work) is
timed before and after every item and every set-up sample, and each time is
scaled by ``REFERENCE_S`` over the mean of its two reference timings: the
result is the time a machine that runs the reference in ``REFERENCE_S``
would take.  Measured on a 2-vCPU VM under varying load, this cut the
spread of 10-second medians of one repeated item from about 15% to about 4%,
and that of 30-second throughputs from 13% to 2%.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each round
untraced and then traced, and reports the per-layer metrics plus the ratio
of the two times.  The last line of standard output is the result
object; progress and per-class figures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
REFERENCE_S = 0.0008  # the reference task on an idle 2-vCPU VM, Python 3.11

# Set-up in a fresh interpreter: import the CLI module, then resolve the
# workload's catalog spaces once.  Prints the seconds this took.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sphertrop.cli
from sphertrop import catalog
for ident in sys.argv[2:]:
    catalog.space_by_id(ident)
print(repr(time.perf_counter() - t0))
"""


def reference_seconds():
    """Time a fixed piece of interpreter work, to gauge the machine's speed now."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 150):
        q = Fraction(i % 7 + 1, i % 5 + 1)
        acc[i % 13] = acc.get(i % 13, 0) + q * q
    return time.perf_counter() - t0


def measure_setup(spaces):
    """Median set-up seconds over fresh interpreters, bytecode compiled first."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = reference_seconds()
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, *spaces],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        scale = 2 * REFERENCE_S / (before + reference_seconds())
        if i:  # the first run only writes the bytecode cache
            samples.append(float(out.stdout.strip().splitlines()[-1]) * scale)
    return statistics.median(samples)


def run_items(items, pipeline, oracle, tracer=None):
    """Run and check ``items``; returns (latencies at reference speed, failures)."""
    latencies = []
    failures = 0
    clock = time.perf_counter
    before = reference_seconds()
    for item in items:
        if tracer is not None:
            tracer.request_id += 1  # spans of one item share this id
        t0 = clock()
        try:
            result = pipeline.run(item)
        except Exception as exc:  # any raise is a failed item, never a crash
            result, problem = None, "raised %r" % (exc,)
        elapsed = clock() - t0
        after = reference_seconds()
        latencies.append(elapsed * 2 * REFERENCE_S / (before + after))
        before = after
        if result is not None:
            problem = oracle.check(item, result)
        if problem:
            failures += 1
            print("FAIL %s: %s" % (item.cls, problem), file=sys.stderr)
    return latencies, failures


def measure(rounds, seconds, pipeline, oracle):
    """Whole rounds until ``seconds`` of wall time; returns classes, latencies, failures."""
    classes, latencies, failures = [], [], 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        batch = next(rounds)
        lat, bad = run_items(batch, pipeline, oracle)
        classes += [item.cls for item in batch]
        latencies += lat
        failures += bad
    return classes, latencies, failures


def measure_traced(rounds, seconds, pipeline, oracle, tracer):
    """Each round both untraced and traced, until ``seconds`` of wall time.

    The two passes alternate which goes first, so drifts in machine speed
    cancel out of the overhead ratio.  Returns classes, untraced and traced
    latencies, failures.
    """
    classes, untraced, traced, failures = [], [], [], 0
    order = (False, True)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        batch = next(rounds)
        order = order[::-1]
        for with_trace in order:
            if with_trace:
                tracer.install()
                try:
                    lat, bad = run_items(batch, pipeline, oracle, tracer)
                finally:
                    tracer.uninstall()
                traced += lat
            else:
                lat, bad = run_items(batch, pipeline, oracle)
                untraced += lat
            failures += bad
        classes += [item.cls for item in batch]
    return classes, untraced, traced, failures


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def by_class(classes, latencies):
    per = {}
    for cls, lat in zip(classes, latencies):
        per.setdefault(cls, []).append(lat)
    return per


def throughput(classes, latencies):
    """Items per second when every item takes its class's median time.

    Class shares are exact, so this is the closed loop's rate with each
    class's outliers (a slowdown the reference timings missed) left out.
    """
    per = by_class(classes, latencies)
    return len(classes) / sum(len(lat) * statistics.median(lat) for lat in per.values())


def class_summary(classes, latencies):
    per = by_class(classes, latencies)
    for cls, lat in sorted(per.items(), key=lambda kv: statistics.median(kv[1])):
        print(
            "  %-18s n=%5d median %9.3f ms" % (cls, len(lat), 1000 * statistics.median(lat)),
            file=sys.stderr,
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sphertrop", "__init__.py")):
        print("error: no sphertrop sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:1] = [SRC, ROOT]  # the checkout's sources, never an installed copy
    import sphertrop

    if os.path.dirname(os.path.abspath(sphertrop.__file__)) != os.path.join(SRC, "sphertrop"):
        print("error: imported sphertrop from %s" % sphertrop.__file__, file=sys.stderr)
        return 2
    from bench import oracle, pipeline, tracing, workloads

    if args.workload not in workloads.SCHEDULES:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    warnings.simplefilter("error")  # a dropped branch or ray fails its item
    rounds = workloads.rounds(args.workload, args.seed)
    if args.trace == 0:
        setup_s = measure_setup(workloads.SPACES[args.workload])
        classes, latencies, failed = measure(rounds, args.seconds, pipeline, oracle)
        values = {
            "items_per_s": (throughput(classes, latencies), "items/s"),
            "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "item_p90_ms": (1000 * percentile(latencies, 90), "ms"),
            "ok_ratio": ((len(classes) - failed) / len(classes), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        names = [m["name"] for m in spec["end_to_end"]]
        attempted = len(classes)
    else:
        tracer = tracing.Tracer()
        classes, untraced, latencies, failed = measure_traced(rounds, args.seconds, pipeline, oracle, tracer)
        attempted = 2 * len(classes)
        idle = tracer.idle_layers(args.workload)
        if idle:
            print("error: traced layers saw no call on %s: %s" % (args.workload, ", ".join(idle)), file=sys.stderr)
            return 1
        names = [m["name"] for m in spec["per_layer"]]
        values = tracer.metrics(names)
        values["trace.overhead_ratio"] = (sum(latencies) / sum(untraced), "ratio")
        print("  %d spans recorded" % len(tracer.start), file=sys.stderr)

    print("%s seed %d: %d items, %d failed" % (args.workload, args.seed, len(classes), failed), file=sys.stderr)
    class_summary(classes, latencies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
