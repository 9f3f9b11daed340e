"""Tests for the benchmark's own generator, oracle and tracer."""

import dataclasses
import itertools
import random
from types import SimpleNamespace

from bench import oracle, pipeline, tracing, workloads


def _texts(workload, seed, nrounds):
    return [item.text for item in itertools.chain.from_iterable(
        itertools.islice(workloads.rounds(workload, seed), nrounds)
    )]


def test_same_seed_gives_byte_identical_inputs():
    for workload in workloads.SCHEDULES:
        nrounds = 1 if workload == "gln_curves" else 2
        first = _texts(workload, 7, nrounds)
        assert first == _texts(workload, 7, nrounds)
        assert first != _texts(workload, 8, nrounds)


def test_gl2_line_curve_rays_by_construction():
    # [[t+1, t], [t, 0]] has invariant-factor valuations (2, 0); its t -> oo
    # twin has (-1, -1).
    rays = oracle.merged_rays([oracle.gln_branch_ray((0, 2)), oracle.gln_branch_ray((-1, -1))])
    assert rays == (((-1, -1), 1), ((1, 0), 2))
    assert oracle.residual(rays, [(0, 1)], oracle.gln_palette(2), 2) == (0, 0)


def test_sl2u_family_residual_is_zero():
    for d in range(1, 11):
        for e in range(d + 1):
            rays = [((-1,), d), ((1,), d - e)]
            assert oracle.residual(rays, [(0, e)], [(1,)], 1) == (0,)
    rng = random.Random(3)
    for _ in range(20):
        _, _, expect = workloads.sl2u_family_doc(rng)
        assert expect["residual"] == (0,)


def _fan(cones):
    members = [
        SimpleNamespace(cone=SimpleNamespace(generators=tuple(gens)), colors=frozenset())
        for gens in cones
    ]
    return SimpleNamespace(cones=members)


def test_torus2_orthant_star_is_torus1_orthant_fan():
    members = [(sorted(tuple(s * a for a in col) for col, s in zip(((1, 0), (0, 1)), signs) if s), [])
               for signs in itertools.product((-1, 0, 1), repeat=2)]
    expect = {"star_ray": (1, 0), "cones": members}
    torus1 = _fan([(), ((1,),), ((-1,),)])
    good = SimpleNamespace(projection=((0, 1),), kernel_basis=((1, 0),), fan=torus1)
    assert oracle.check_star(expect, good) is None
    flipped = SimpleNamespace(projection=((0, -1),), kernel_basis=((1, 0),), fan=torus1)
    assert oracle.check_star(expect, flipped) is None
    half = SimpleNamespace(projection=((0, 1),), kernel_basis=((1, 0),), fan=_fan([(), ((1,),)]))
    assert oracle.check_star(expect, half) is not None
    not_onto = SimpleNamespace(projection=((0, 2),), kernel_basis=((1, 0),), fan=torus1)
    assert oracle.check_star(expect, not_onto) is not None


def test_oracle_rejects_wrong_answers():
    kind, doc, expect = workloads.gl2_line_curve(random.Random(5))
    item = workloads.Item("gl2_line", kind, workloads._dumps(doc), expect)
    fan, report, texts = pipeline.run(item)
    assert oracle.check(item, (fan, report, texts)) is None
    off = dataclasses.replace(report, residual=tuple(a + 1 for a in report.residual))
    assert oracle.check(item, (fan, off, texts)) is not None

    kind, doc, expect = workloads.solve_doc(random.Random(5), feasible=True)
    item = workloads.Item("solve_feasible", kind, workloads._dumps(doc), expect)
    solution, texts = pipeline.run(item)
    assert oracle.check(item, (solution, texts)) is None
    assert oracle.check(item, (None, ['{"feasible": false}'])) is not None
    padded = tuple((j, m + 1) for j, m in solution)
    assert oracle.check(item, (padded, texts)) is not None


def test_program_agrees_with_oracle_on_every_cheap_class():
    rng = random.Random(11)
    classes = [c for c in workloads.CLASSES if c not in ("gln5", "torus3_valid", "torus3_invalid")]
    for cls in classes:
        for _ in range(3):
            kind, doc, expect = workloads.CLASSES[cls](rng)
            item = workloads.Item(cls, kind, workloads._dumps(doc), expect)
            assert oracle.check(item, pipeline.run(item)) is None, cls


def test_tracer_rebinds_every_module_and_restores():
    import sphertrop.luna_vust as luna_vust
    import sphertrop.lattice as lattice
    import sphertrop.puiseux as puiseux
    import sphertrop.tropicalize as tropicalize

    originals = (lattice.relint_common_point, puiseux.minor_valuation_profile, lattice.Cone.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert luna_vust.relint_common_point is not originals[0]
        assert tropicalize.minor_valuation_profile is not originals[1]
        assert lattice.Cone.__init__ is not originals[2]
        batch = next(workloads.rounds("small_docs", 1))
        for item in batch:
            tracer.request_id += 1
            assert oracle.check(item, pipeline.run(item)) is None
    finally:
        tracer.uninstall()
    assert (luna_vust.relint_common_point, tropicalize.minor_valuation_profile, lattice.Cone.__init__) == originals
    assert tracer.idle_layers("small_docs") == []
    totals = tracer.layer_totals()
    assert totals["lattice.cone_init"][1] > 0
    assert all(seconds >= 0 for seconds, _ in totals.values())
