"""Colored cones and colored fans with full axiom validation.

A colored cone is a pair (cone, set of palette indices); a colored fan is a
finite collection of colored cones over a fixed spherical space descriptor.
Validity is checked, never assumed: constructors accept raw data and the
``validate_*`` functions return structured reports, so axiom failures can be
demonstrated as first-class results.  What the fan layer learns of one member
set over one space is kept in one shared record, which each validated fan
object points at.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .lattice import (
    MEMO_SIZE,
    Cone,
    is_zero_vector,
    mat_vec,
    primitive,
    quotient_projection,
    relint_common_point,
    relint_meets,
    saturation_basis,
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
        labels = set()
        for label, v in self.palette:
            if label in labels:
                problems.append("color label %s repeats" % label)
            labels.add(label)
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
    which is immutable, together with the record of its distinct members
    over its space, and reads them back on later calls; :func:`star` and
    :func:`decolor` read the record from there.  Across objects, only the
    record is shared: what the first full check of the member set found, in
    no member order, repeating a member or not, and the decolored fan.  An
    invalid fan's report lists members by their index, and equal fans whose
    members contain a line can list different generators, and so get
    different CF2 witnesses; both are computed for each fan object.
    """

    space: SphericalSpace
    cones: tuple = ()
    _checked: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))


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
    return ValidationReport([Violation(member, *problem) for problem in _facts(space, cc)[0]])


def colored_faces(space, cc):
    """All colored faces of a valid colored cone, the cone itself included.

    The colors of a face are exactly the selected colors whose vectors lie
    in the face.  Raises :class:`InvalidColoredConeError` when ``cc`` fails
    validation.
    """
    problems, faces = _facts(space, cc)
    if problems:
        raise InvalidColoredConeError(ValidationReport([Violation(None, *p) for p in problems]))
    return list(faces)


def _facts(space, cc):
    """:func:`_member_facts` of ``cc`` over ``space``; a cone in another dimension
    has the SPACE problem alone, found before any color is read (unknown ones raise KeyError)."""
    if cc.cone.ambient_dim != space.rank:
        mismatch = ("SPACE", "cone dimension %d != rank %d" % (cc.cone.ambient_dim, space.rank))
        return (mismatch,), ()
    colors = tuple(sorted((j, space.palette_vector(j), space.palette[j][0]) for j in cc.colors))
    vc = space.valuation_cone
    return _member_facts(cc.cone.generators, cc.cone.ambient_dim, colors, vc.inequalities, vc.ambient_dim)


@lru_cache(maxsize=MEMO_SIZE)
def _member_facts(gens, dim, colors, vc_normals, vc_dim):
    """``(problems, faces)`` of the cone ``gens`` spans, colored by ``colors``
    (sorted (index, vector, label) triples), over the valuation cone
    ``vc_normals`` cut out: its CC3, CC1, CC2 and SC ``(axiom, message)``
    pairs, and its colored faces, in :meth:`Cone.faces` order (a color of
    the wrong length, on which CC1 raises, lies in none).

    CC1 is decided without building a cone, and only on a strictly convex
    cone (a cone with a line is reported SC alone).  There each generator
    spans an extreme ray, and a sum of elements of the cone that lies on an
    extreme ray has every summand on it; so CC1 holds exactly when every
    color vector lies in the cone and every generator lies in the valuation
    cone or on the ray of a nonzero color vector.
    """
    sigma, valuation = Cone(gens, dim), Cone.from_inequalities(vc_normals, vc_dim)
    problems = [("CC3", "color %s maps to the zero vector" % c) for _, v, c in colors if is_zero_vector(v)]
    pointed = sigma.is_pointed()
    color_rays = {primitive(v)[0] for _, v, _ in colors if not is_zero_vector(v)}
    if pointed and not (
        all(sigma.contains(v) for _, v, _ in colors)
        and all(g in color_rays or valuation.contains(g) for g in gens)
    ):
        problems.append(("CC1", "cone is not generated by its colors plus its valuation-cone part"))
    if not relint_meets(sigma, valuation):
        problems.append(("CC2", "relative interior misses the valuation cone"))
    if not pointed:
        problems.append(("SC", "cone contains a line (not strictly convex)"))
    faces = tuple(
        ColoredCone(face, frozenset(j for j, v, _ in colors if len(v) == dim and face.contains(v)))
        for face in sigma.faces()
    )
    return tuple(problems), faces


@dataclass(eq=False, slots=True)
class _Record:
    """What the fan layer knows of one set of distinct members over one space,
    none of it depending on the member order: once a fan of it was checked in
    full, each member's problems and CF1 messages (``found``), the unordered
    pairs of distinct members whose relative interiors meet inside the
    valuation cone (``overlaps``) and whether a fan of the set with no repeated
    member is valid (``valid``); and its decolored fan once built.
    Records compare by identity, so a memo keyed on one makes no set
    comparison."""

    space: SphericalSpace
    members: frozenset
    valid: bool = False
    found: dict | None = None
    overlaps: tuple = ()
    decolored: ColoredFan | None = None


@lru_cache(maxsize=MEMO_SIZE)
def _record(space, vc_gens, members):
    """The one :class:`_Record` of ``members`` over ``space``.  The key holds
    the valuation cone's generators, which the spaces of a star and of a
    decolored fan list: equal cones with a line can list different ones."""
    return _Record(space, members)


def validate_colored_fan(fan):
    """Check every member's cone axioms plus the fan axioms CF1 and CF2.

    CF1: every supported colored face of a member is a member, where
    supported means the face's relative interior meets the valuation cone
    (an unsupported face is not a colored cone at all, so requiring it
    would outlaw every fan with colors off the valuation cone); support is
    decided only for a face the fan lacks.  CF2:
    inside the valuation cone, relative interiors of distinct members are
    disjoint; violations carry an exact rational witness point.  Each fan
    object is checked once; every call returns a fresh report.

    Every axiom is about one member or a pair of members, so a check finds
    what the space and the set of distinct members decide, up to the member
    indices, the CF2 witnesses and the repeats: a fan repeating no member
    whose set's record is marked valid is valid with no check.  A fan whose
    record holds a full check reads each member's problems and CF1 messages
    from it and computes a witness only for the pairs of positions holding
    recorded overlapping members or one member twice, in (i, j) order, as a
    witness depends on which cone comes first; its report is that of a full
    check.  Any other fan is checked in full, in its member order, and fills
    its record.
    """
    if fan._checked is None:
        object.__setattr__(fan, "_checked", _check(fan))
    return ValidationReport(list(fan._checked[0]))


def _check(fan):
    """``(violations, record)`` of ``fan``, its record that of its distinct members; CF2
    skips every pair holding a member of another dimension than the rank (a SPACE problem)."""
    space, cones = fan.space, fan.cones
    if space.valuation_cone.ambient_dim != space.rank:  # no member can be checked against it
        return tuple(Violation(None, "SPACE", problem) for problem in space.invariant_problems()), None
    members = frozenset(cones)
    record = _record(space, space.valuation_cone.generators, members)
    if record.valid and len(members) == len(cones):
        return (), record
    kept = [i for i, cc in enumerate(cones) if cc.cone.ambient_dim == space.rank]
    if record.found is None:
        facts = [_member_check(space, cc, members) for cc in cones]
        pairs = itertools.combinations(kept, 2)
    else:
        facts = [record.found[cc] for cc in cones]
        positions = {}
        for i in kept:
            positions.setdefault(cones[i], []).append(i)
        pairs = sorted(
            {(min(i, j), max(i, j)) for a, b in record.overlaps for i in positions[a] for j in positions[b]}
            | {pair for at in positions.values() for pair in itertools.combinations(at, 2)}
        )

    report = ValidationReport()
    for problem in space.invariant_problems():
        report.add(None, "SPACE", problem)
    for i, (problems, _) in enumerate(facts):
        report.violations += (Violation(i, *problem) for problem in problems)
    for i, (_, missing) in enumerate(facts):
        report.violations += (Violation(i, "CF1", message) for message in missing)
    overlaps = set()
    for i, j in pairs:
        witness = relint_common_point(cones[i].cone, cones[j].cone, space.valuation_cone)
        if witness is not None:
            if cones[i] != cones[j]:
                overlaps.add(frozenset((cones[i], cones[j])))
            report.add(
                i,
                "CF2",
                "relative interiors of members %d and %d share the point (%s) inside the valuation cone"
                % (i, j, ", ".join(map(str, witness))),
                witness=witness,
            )
    if record.found is None:  # only a repeated member meeting itself breaks a valid set
        record.found, record.overlaps = dict(zip(cones, facts)), tuple(overlaps)
        record.valid = not overlaps and all(v.axiom == "CF2" for v in report.violations)
    return tuple(report.violations), record


def _member_check(space, cc, members):
    """``(problems, CF1 messages)`` of the member ``cc`` of a fan with the set ``members``."""
    problems, faces = _facts(space, cc)
    missing = tuple(
        "colored face %r with colors %s is missing from the fan" % (list(face.cone.generators), sorted(face.colors))
        for face in (() if problems else faces)
        if face not in members and relint_meets(face.cone, space.valuation_cone)
    )
    return problems, missing


def decolor(fan):
    """Strip colors and intersect every cone with the valuation cone.

    The result is closed under faces and toroidal: it collects every face
    of every clipped colored member, the clipped cone included, and every
    uncolored member's cone as it is, once each (by one hash lookup).  In a
    valid fan an uncolored member lies in the valuation cone (CC1), so it
    is its own clipped cone, and its faces are uncolored members (CF1).  It
    is re-validated and the report returned alongside the fan.  The fan is
    kept on the record of the member set: members of a valid fan are
    pointed, and so are their clipped cones and the faces of those; equal
    faces then have equal generators, and the sorted fan does not depend on
    the member order.
    """
    base = validate_colored_fan(fan)
    if not base.ok:
        raise InvalidColoredConeError(base)
    record = fan._checked[1]
    if record.decolored is None:
        space = record.space
        collected = dict.fromkeys(
            face
            for cc in record.members
            for face in (cc.cone.intersect(space.valuation_cone).faces() if cc.colors else (cc.cone,))
        )
        faces = sorted(collected, key=Cone.sort_key)
        record.decolored = ColoredFan(space, tuple(ColoredCone(c, frozenset()) for c in faces))
    return record.decolored, validate_colored_fan(record.decolored)


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
    fans, and is required when ``cc`` itself has colors.  The result is
    memoised by :func:`_star`.
    """
    base = validate_colored_fan(fan)
    if not base.ok:
        raise InvalidColoredConeError(base)
    record = fan._checked[1]
    if cc not in record.members:
        raise ValueError("the given colored cone is not a member of the fan")
    if cc.colors and restriction_colors is None:
        raise ValueError(
            "a colored cone needs explicit surviving colors for its star"
        )
    survivors = frozenset(restriction_colors or ())
    for j in survivors:
        fan.space.palette_vector(j)  # raises KeyError when unknown
    return _star(record, cc, survivors)


@lru_cache(maxsize=MEMO_SIZE)
def _star(record, cc, survivors):
    """The :class:`StarResult` of the member ``cc`` of the valid fan with
    ``record``, keeping the palette indices ``survivors``.

    Members of a valid fan are pointed, and so is the image of each member
    having ``cc`` as a face; equal images then have equal generators, and
    the sorted result does not depend on the member order.
    """
    space = record.space
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

    images = {}
    for member in record.members:
        if cc in _facts(space, member)[1]:
            image_cone = Cone([mat_vec(projection, g) for g in member.cone.generators], m)
            image_colors = frozenset(index_map[j] for j in member.colors & survivors)
            images.setdefault(ColoredCone(image_cone, image_colors))
    quotient_fan = ColoredFan(quotient_space, sorted(images, key=ColoredCone.sort_key))
    return StarResult(projection, kernel, quotient_space, quotient_fan)
