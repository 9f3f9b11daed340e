"""One benchmark item: parse the document, compute, emit result documents.

Every call goes through a module attribute of sphertrop (``documents.dumps``,
``balance.check_balancing``, ...) so that the wrappers the traced run
installs on those bindings see it.  Each function returns the computed
objects followed by the list of emitted texts, which :mod:`bench.oracle`
checks; the first emitted text is always the decision report.
"""

from __future__ import annotations

from sphertrop import balance, catalog, documents, luna_vust, tropicalize


def _emit(*docs):
    return [documents.dumps(doc) for doc in docs]


def run_curve(item):
    doc = documents.load_text(item.text)
    space, branches, colored, _ = documents.curve_from_doc(doc)
    rays = tropicalize.branch_rays(space, branches)
    fan = balance.assemble(space, rays, colored)
    report = balance.check_balancing(fan)
    return fan, report, _emit(documents.balance_report_to_doc(report), documents.weighted_fan_to_doc(fan))


def run_balance(item):
    fan = documents.weighted_fan_from_doc(documents.load_text(item.text))
    report = balance.check_balancing(fan)
    return report, _emit(documents.balance_report_to_doc(report))


def run_family(item):
    """Check a document against the catalog's sl2u family member (d, e)."""
    fan = documents.weighted_fan_from_doc(documents.load_text(item.text))
    member = catalog.sl2u_family(*item.expect["de"])
    matches = fan.rays == member.rays and fan.colored_weights == member.colored_weights
    report = balance.check_balancing(fan)
    return report, matches, _emit(documents.balance_report_to_doc(report))


def run_solve(item):
    fan = documents.weighted_fan_from_doc(documents.load_text(item.text))
    solution = balance.solve_colored_weights(fan.space, fan.rays)
    if solution is None:
        doc = {"format": "colored-weights/1", "feasible": False}
    else:
        weights = {fan.space.palette[j][0]: str(m) for j, m in solution}
        doc = {"format": "colored-weights/1", "feasible": True, "weights": weights}
    return solution, _emit(doc)


def run_fan(item):
    """Validate; a valid fan also gets its star at a ray member and its decoloring."""
    fan = documents.fan_from_doc(documents.load_text(item.text))
    report = luna_vust.validate_colored_fan(fan)
    texts = _emit(documents.validation_report_to_doc(report))
    if not report.ok:
        return report, None, None, texts
    ray = tuple(item.expect["star_ray"])
    member = next(cc for cc in fan.cones if cc.cone.generators == (ray,) and not cc.colors)
    star = luna_vust.star(fan, member)
    decolored = luna_vust.decolor(fan)
    texts += _emit(documents.star_to_doc(star), documents.fan_to_doc(decolored[0]))
    return report, star, decolored, texts


RUNNERS = {
    "curve": run_curve,
    "balance": run_balance,
    "family": run_family,
    "solve": run_solve,
    "fan": run_fan,
}


def run(item):
    return RUNNERS[item.kind](item)
