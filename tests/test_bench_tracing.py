"""Every layer the traced benchmark run calls busy sees calls.

One traced round of seed 1 of each workload runs through
``bench.tracing.Tracer``, from cold memos as in a fresh bench
process.  ``idle_layers`` must come back empty, as the traced run requires,
and the valuation cone of each gln_curves space, built by
``Cone.from_inequalities``, must show up in the ``lattice.cone_init`` span.
"""

import os
import sys

import pytest

# bench/ is a package at the repository root, beside src/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import oracle, pipeline, tracing, workloads  # noqa: E402
from helpers import clear_memos  # noqa: E402


def _traced_round(workload):
    clear_memos()
    batch = next(workloads.rounds(workload, 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in batch:
            tracer.request_id += 1
            assert oracle.check(item, pipeline.run(item)) is None, item.cls
    finally:
        tracer.uninstall()
    return tracer, len(batch)


@pytest.mark.parametrize("workload", sorted(workloads.SCHEDULES))
def test_no_traced_layer_is_idle(workload):
    tracer, items = _traced_round(workload)
    assert tracer.idle_layers(workload) == []
    if workload == "gln_curves":
        assert tracer.layer_totals()["lattice.cone_init"][1] >= items
