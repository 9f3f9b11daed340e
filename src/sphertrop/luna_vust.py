"""Colored cones and colored fans with full axiom validation.

A colored cone is a pair (cone, set of palette indices); a colored fan is a
finite collection of colored cones over a fixed spherical space descriptor.
Validity is checked, never assumed: constructors accept raw data and the
``validate_*`` functions return structured reports, so axiom failures can be
demonstrated as first-class results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import (
    Cone,
    is_zero_vector,
    quotient_projection,
    relint_common_point,
    relint_meets,
    saturation_basis,
    mat_vec,
)


@dataclass(frozen=True)
class SphericalSpace:
    """Combinatorial descriptor of a spherical homogeneous space.

    ``rank`` is the dimension of the cocharacter-side lattice, in which the
    valuation cone lives; ``palette`` lists the color labels with their
    vectors; ``character_basis_labels`` names the dual basis used for
    character pairings.  ``family`` tags catalog entries so tropicalization
    can dispatch.
    """

    name: str
    rank: int
    valuation_cone: Cone
    palette: tuple = ()
    character_basis_labels: tuple = ()
    family: str | None = None

    def __post_init__(self):
        if not self.character_basis_labels:
            object.__setattr__(
                self,
                "character_basis_labels",
                tuple("chi%d" % (i + 1) for i in range(self.rank)),
            )

    @property
    def family_size(self):
        """n for torus(n) and gln(n), 2 for sl2_u (the group SL2), else None."""
        return {"torus": self.rank, "gln": self.rank, "sl2_u": 2}.get(self.family)

    def palette_vector(self, j):
        if not 0 <= j < len(self.palette):
            raise KeyError("unknown palette index %r" % (j,))
        return self.palette[j][1]

    def color_index(self, label):
        for j, (name, _) in enumerate(self.palette):
            if name == label:
                return j
        raise KeyError("unknown color label %r" % (label,))

    def invariant_problems(self):
        """Violations of the descriptor's own invariants, as strings."""
        problems = []
        if self.valuation_cone.ambient_dim != self.rank:
            problems.append("valuation cone lives in the wrong dimension")
        for label, v in self.palette:
            if len(v) != self.rank:
                problems.append("color %s has the wrong dimension" % label)
            elif is_zero_vector(v):
                problems.append("color %s has the zero vector" % label)
        if len(self.character_basis_labels) != self.rank:
            problems.append("character basis has the wrong size")
        return problems


@dataclass(frozen=True)
class ColoredCone:
    """A cone together with the palette indices of its colors.

    Two colored cones are equal when their cones are equal and their color
    sets are equal; they hash by the same pair, so sets and dicts of them
    test colored-cone identity by one hash lookup.
    """

    cone: Cone
    colors: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))

    def sort_key(self):
        return (self.cone.sort_key(), tuple(sorted(self.colors)))


@dataclass(frozen=True)
class ColoredFan:
    """A finite collection of colored cones over one space.

    :func:`validate_colored_fan` stores its violations on the fan object,
    which is immutable, and reads them back on later calls.  The store is per
    object, not per ``==``: equal fans whose members contain a line can list
    different generators, and so get different CF2 witnesses.
    """

    space: SphericalSpace
    cones: tuple = ()
    _violations: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))

    def member_index(self, cc):
        return self.cones.index(cc) if cc in self.cones else None


@dataclass(frozen=True)
class Violation:
    member: int | None
    axiom: str
    message: str
    witness: tuple | None = None


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def axioms(self):
        return {v.axiom for v in self.violations}

    def add(self, member, axiom, message, witness=None):
        self.violations.append(Violation(member, axiom, message, witness))

    def extend(self, other):
        self.violations.extend(other.violations)

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(
            "[%s] member=%s %s" % (v.axiom, v.member, v.message) for v in self.violations
        )


class InvalidColoredConeError(ValueError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def validate_colored_cone(space, cc, member=None):
    """Check the colored-cone axioms plus strict convexity.

    CC1: the cone is generated by its color vectors together with its
    intersection with the valuation cone.  CC2: the relative interior meets
    the valuation cone.  CC3: no selected color vector is zero.  SC: the
    cone contains no line.  Unknown palette indices raise KeyError.
    """
    report = ValidationReport()
    sigma = cc.cone
    if sigma.ambient_dim != space.rank:
        report.add(member, "SPACE", "cone dimension %d != rank %d" % (sigma.ambient_dim, space.rank))
        return report
    color_vectors = [space.palette_vector(j) for j in sorted(cc.colors)]

    for j in sorted(cc.colors):
        if is_zero_vector(space.palette_vector(j)):
            report.add(member, "CC3", "color %s maps to the zero vector" % space.palette[j][0])

    intersection = sigma.intersect(space.valuation_cone)
    regenerated = Cone(
        [v for v in color_vectors if not is_zero_vector(v)] + list(intersection.generators),
        space.rank,
    )
    if regenerated != sigma:
        report.add(
            member,
            "CC1",
            "cone is not generated by its colors plus its valuation-cone part",
        )

    if not relint_meets(sigma, space.valuation_cone):
        report.add(member, "CC2", "relative interior misses the valuation cone")

    if not sigma.is_pointed():
        report.add(member, "SC", "cone contains a line (not strictly convex)")
    return report


def colored_faces(space, cc):
    """All colored faces of a valid colored cone, the cone itself included.

    The colors of a face are exactly the selected colors whose vectors lie
    in the face.  Raises :class:`InvalidColoredConeError` when ``cc`` fails
    validation; callers holding an already validated cone use
    :func:`_colored_faces`, which lists the faces without re-validating.
    """
    report = validate_colored_cone(space, cc)
    if not report.ok:
        raise InvalidColoredConeError(report)
    return _colored_faces(space, cc)


def _colored_faces(space, cc):
    out = []
    for face in cc.cone.faces():
        colors = frozenset(j for j in cc.colors if face.contains(space.palette_vector(j)))
        out.append(ColoredCone(face, colors))
    return out


def validate_colored_fan(fan):
    """Check every member's cone axioms plus the fan axioms CF1 and CF2.

    CF1: every supported colored face of a member is a member, where
    supported means the face's relative interior meets the valuation cone
    (an unsupported face is not a colored cone at all, so requiring it
    would outlaw every fan with colors off the valuation cone).  CF2:
    inside the valuation cone, relative interiors of distinct members are
    disjoint; violations carry an exact rational witness point.  Each fan
    object is checked once; every call returns a fresh report.
    """
    if fan._violations is not None:
        return ValidationReport(list(fan._violations))
    space = fan.space
    report = ValidationReport()
    for problem in space.invariant_problems():
        report.add(None, "SPACE", problem)

    member_ok = []
    members = set(fan.cones)
    for i, cc in enumerate(fan.cones):
        sub = validate_colored_cone(space, cc, member=i)
        report.extend(sub)
        member_ok.append(sub.ok)

    for i, cc in enumerate(fan.cones):
        if not member_ok[i]:
            continue
        for face in _colored_faces(space, cc):
            if not relint_meets(face.cone, space.valuation_cone):
                continue
            if face not in members:
                report.add(
                    i,
                    "CF1",
                    "colored face %r with colors %s is missing from the fan"
                    % (list(face.cone.generators), sorted(face.colors)),
                )

    for i in range(len(fan.cones)):
        for j in range(i + 1, len(fan.cones)):
            witness = relint_common_point(
                fan.cones[i].cone, fan.cones[j].cone, space.valuation_cone
            )
            if witness is not None:
                report.add(
                    i,
                    "CF2",
                    "relative interiors of members %d and %d share the point (%s) inside the valuation cone"
                    % (i, j, ", ".join(map(str, witness))),
                    witness=witness,
                )
    object.__setattr__(fan, "_violations", tuple(report.violations))
    return report


def is_toroidal(fan):
    """True iff no member carries a color."""
    return all(not cc.colors for cc in fan.cones)


def decolor(fan):
    """Strip colors and intersect every cone with the valuation cone.

    The result is closed under faces and toroidal: it collects every face
    of every clipped cone, the clipped cone included, once each (by one
    hash lookup; of equal faces the first one collected stays).  It is
    re-validated and the report returned alongside the fan.
    """
    base = validate_colored_fan(fan)
    if not base.ok:
        raise InvalidColoredConeError(base)
    space = fan.space
    collected = dict.fromkeys(
        face for cc in fan.cones for face in cc.cone.intersect(space.valuation_cone).faces()
    )
    faces = sorted(collected, key=lambda c: c.sort_key())
    out = ColoredFan(space, tuple(ColoredCone(c, frozenset()) for c in faces))
    return out, validate_colored_fan(out)


@dataclass(frozen=True)
class StarResult:
    """Star of a colored cone: the fan of the corresponding orbit closure."""

    projection: tuple  # rows of the quotient map Z^n -> Z^m
    kernel_basis: tuple  # saturated lattice basis of the projected-away span
    space: SphericalSpace
    fan: ColoredFan


def star(fan, cc, restriction_colors=None):
    """Quotient fan of the orbit closure attached to a member colored cone.

    Members of ``fan`` having ``cc`` as a colored face (``cc`` is among the
    member's colored faces, the listing CF1 reads) are mapped through the
    projection killing the saturated span of ``cc``'s cone.  Colors that
    survive on the orbit closure cannot be derived combinatorially, so they
    are the explicit parameter ``restriction_colors`` (palette indices);
    it defaults to the empty set, which is the correct value for colorless
    fans, and is required when ``cc`` itself has colors.
    """
    base = validate_colored_fan(fan)
    if not base.ok:
        raise InvalidColoredConeError(base)
    space = fan.space
    if cc not in fan.cones:
        raise ValueError("the given colored cone is not a member of the fan")
    if cc.colors and restriction_colors is None:
        raise ValueError(
            "a colored cone needs explicit surviving colors for its star"
        )
    survivors = frozenset(restriction_colors or ())
    for j in survivors:
        space.palette_vector(j)  # raises KeyError when unknown

    vs = list(cc.cone.generators)
    projection = tuple(quotient_projection(vs, space.rank))
    kernel = tuple(saturation_basis(vs, space.rank))
    m = len(projection)

    new_palette = []
    index_map = {}
    for j in sorted(survivors):
        label, v = space.palette[j]
        image = mat_vec(projection, v)
        index_map[j] = len(new_palette)
        new_palette.append((label, image))

    quotient_space = SphericalSpace(
        name="%s/star" % space.name,
        rank=m,
        valuation_cone=Cone(
            [mat_vec(projection, g) for g in space.valuation_cone.generators],
            m,
        ),
        palette=tuple(new_palette),
        character_basis_labels=tuple("q%d" % (i + 1) for i in range(m)),
    )

    members = {}
    for member in fan.cones:
        if cc not in _colored_faces(space, member):
            continue
        image_cone = Cone([mat_vec(projection, g) for g in member.cone.generators], m)
        image_colors = frozenset(index_map[j] for j in member.colors & survivors)
        members.setdefault(ColoredCone(image_cone, image_colors))
    quotient_fan = ColoredFan(quotient_space, sorted(members, key=lambda c: c.sort_key()))
    return StarResult(projection, kernel, quotient_space, quotient_fan)
