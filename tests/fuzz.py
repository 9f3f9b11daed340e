"""Fan mutator for the tests: produces invalid variants with a known broken axiom.

Each mutation class targets one validation axiom, so the validator can be
exercised against labeled counterexamples: dropping a face breaks CF1,
overlapping relative interiors (or duplicating a member) break CF2, a
colored ray leaving the valuation region breaks CC2, and zeroing a palette
vector breaks CC3 together with the space invariant.
"""

from __future__ import annotations

from dataclasses import replace

from sphertrop.lattice import Cone, relint_common_point, vec_scale
from sphertrop.luna_vust import ColoredCone, ColoredFan, colored_faces

MUTATION_KINDS = (
    "drop_face",
    "duplicate_cone",
    "overlap",
    "color_outside_region",
    "zero_color_vector",
)


class MutationError(ValueError):
    """The fan offers no mutation of the requested kind."""


def _proper_face_indices(fan):
    """Indices of the members that are a proper colored face of some member."""
    proper = set()
    for other in fan.cones:
        dim = other.cone.dim()
        proper |= {f for f in colored_faces(fan.space, other) if f.cone.dim() < dim}
    return [i for i, cc in enumerate(fan.cones) if cc in proper]


def mutate(fan, kind, rng):
    """One mutated fan of the given kind; returns (fan, expected axioms)."""
    space = fan.space
    if kind == "drop_face":
        candidates = _proper_face_indices(fan)
        if not candidates:
            raise MutationError("no droppable face")
        drop = rng.choice(candidates)
        cones = tuple(cc for i, cc in enumerate(fan.cones) if i != drop)
        return ColoredFan(space, cones), {"CF1"}

    if kind == "duplicate_cone":
        candidates = [i for i, cc in enumerate(fan.cones) if not cc.cone.is_zero]
        if not candidates:
            raise MutationError("no nonzero member to duplicate")
        i = rng.choice(candidates)
        return ColoredFan(space, fan.cones + (fan.cones[i],)), {"CF2"}

    if kind == "overlap":
        candidates = [
            cc for cc in fan.cones if cc.cone.dim() == 2 and not cc.colors
        ]
        if not candidates:
            raise MutationError("no two-dimensional member to overlap")
        target = rng.choice(candidates)
        witness = relint_common_point(target.cone, target.cone, space.valuation_cone)
        if witness is None:
            raise MutationError("member has no interior point in the region")
        ray = Cone([witness], space.rank)
        extra = ColoredCone(ray, frozenset())
        return ColoredFan(space, fan.cones + (extra,)), {"CF2"}

    if kind == "color_outside_region":
        options = []
        for j, (_, v) in enumerate(space.palette):
            ray = Cone([v], space.rank)
            if relint_common_point(ray, ray, space.valuation_cone) is None:
                options.append((j, v))
        if not options:
            raise MutationError("every color lies inside the valuation region")
        j, v = options[rng.randrange(len(options))]
        scale = rng.randrange(1, 6)
        extra = ColoredCone(Cone([vec_scale(scale, v)], space.rank), frozenset({j}))
        return ColoredFan(space, fan.cones + (extra,)), {"CC2"}

    if kind == "zero_color_vector":
        if not space.palette:
            raise MutationError("space has an empty palette")
        j = rng.randrange(len(space.palette))
        palette = tuple(
            (name, (0,) * space.rank if idx == j else v)
            for idx, (name, v) in enumerate(space.palette)
        )
        broken = replace(space, palette=palette)
        ray_members = [
            i
            for i, cc in enumerate(fan.cones)
            if cc.cone.dim() == 1 and not cc.colors
        ]
        if not ray_members:
            raise MutationError("no ray member to attach the zeroed color to")
        i = rng.choice(ray_members)
        cones = list(fan.cones)
        cones[i] = ColoredCone(cones[i].cone, frozenset({j}))
        rebuilt = ColoredFan(broken, tuple(cones))
        return rebuilt, {"CC3", "SPACE"}

    raise ValueError("unknown mutation kind %r" % (kind,))


def mutations(fan, rng, count):
    """A stream of (kind, mutated fan, expected axioms), cycling the classes."""
    out = []
    kinds = [k for k in MUTATION_KINDS]
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        kind = kinds[attempts % len(kinds)]
        attempts += 1
        try:
            mutated, expected = mutate(fan, kind, rng)
        except MutationError:
            continue
        out.append((kind, mutated, expected))
    return out
