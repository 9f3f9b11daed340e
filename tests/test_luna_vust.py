import dataclasses
import itertools
import random

import pytest

from sphertrop import lattice, luna_vust
from sphertrop.catalog import builtin_space, fixture_doc
from sphertrop.documents import fan_from_doc
from sphertrop.lattice import Cone, signed_basis, vec_scale
from sphertrop.luna_vust import (
    ColoredCone,
    ColoredFan,
    InvalidColoredConeError,
    SphericalSpace,
    colored_faces,
    decolor,
    star,
    validate_colored_cone,
    validate_colored_fan,
)

from fuzz import MUTATION_KINDS, mutations
from helpers import (
    cc1_by_construction,
    clear_memos,
    orthant_fan,
    random_cone,
    reference_colored_faces,
    reference_decolor,
    reference_star,
    reference_validate_colored_cone,
    reference_validate_colored_fan,
)

GL2 = builtin_space("gln", 2)
E = 0  # palette index of the single gl2 color, vector (-1, 1)


def fig1_fan():
    return fan_from_doc(fixture_doc("gl2_fig1_fan"))


def cc(gens, colors=()):
    return ColoredCone(Cone(gens, 2), frozenset(colors))


# --- colored cone validation ---------------------------------------------------


def test_validate_colored_cone_examples():
    assert validate_colored_cone(GL2, cc([(1, 0)])).ok
    report = validate_colored_cone(GL2, cc([(-1, 1)], {E}))
    assert report.axioms() == {"CC2"}
    report = validate_colored_cone(GL2, cc([], {E}))
    assert "CC1" in report.axioms()


def test_validate_colored_cone_colored_two_dim():
    assert validate_colored_cone(GL2, cc([(-1, 1), (1, 0)], {E})).ok


def test_validate_strict_convexity():
    line = cc([(1, 1), (-1, -1)])
    assert "SC" in validate_colored_cone(GL2, line).axioms()


def test_cone_with_a_line_reports_sc_without_cc1():
    plane = ColoredCone(Cone(signed_basis(2), 2))
    assert not cc1_by_construction(GL2, plane)
    assert validate_colored_cone(GL2, plane).axioms() == {"SC"}


def test_cc1_rule_matches_construction_on_strictly_convex_cones():
    rng = random.Random(2301)
    outcomes = {True: 0, False: 0}
    while sum(outcomes.values()) < 2000:
        dim = rng.randint(1, 3)
        sigma = random_cone(rng, dim)
        if not sigma.is_pointed():
            continue
        palette = []
        for k in range(rng.randint(0, 3)):
            if rng.random() < 0.4:  # a multiple of a generator
                v = vec_scale(rng.randint(1, 3), rng.choice(sigma.generators))
            else:
                v = tuple(rng.randint(-2, 2) for _ in range(dim))
            palette.append(("D%d" % k, v))
        space = SphericalSpace("random", dim, random_cone(rng, dim), tuple(palette))
        member = ColoredCone(sigma, frozenset(j for j in range(len(palette)) if rng.random() < 0.6))
        holds = cc1_by_construction(space, member)
        assert ("CC1" not in validate_colored_cone(space, member).axioms()) == holds, member
        outcomes[holds] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_validate_unknown_palette_index():
    with pytest.raises(KeyError):
        validate_colored_cone(GL2, cc([(1, 0)], {5}))


def test_zero_palette_vector_reports_cc3():
    broken = builtin_space("gln", 2)
    object.__setattr__(broken, "palette", (("E2", (0, 0)),))
    report = validate_colored_cone(broken, cc([(1, 0)], {E}))
    assert "CC3" in report.axioms()


def test_cone_of_another_dimension_reports_space():
    report = validate_colored_cone(GL2, ColoredCone(Cone([(1, 0, 0)])), member=3)
    assert [(v.member, v.axiom, v.message) for v in report.violations] == [
        (3, "SPACE", "cone dimension 3 != rank 2")
    ]


def test_space_invariant_problems():
    space = SphericalSpace(
        name="broken",
        rank=2,
        valuation_cone=Cone(signed_basis(3), 3),
        palette=(("A", (1,)), ("B", (0, 0))),
        character_basis_labels=("x",),
    )
    assert space.invariant_problems() == [
        "valuation cone lives in the wrong dimension",
        "color A has the wrong dimension",
        "color B has the zero vector",
        "character basis has the wrong size",
    ]
    assert builtin_space("gln", 3).invariant_problems() == []


def test_repeated_color_label_is_a_space_violation():
    # colors are named by label, so the second "E" could never be named
    space = dataclasses.replace(GL2, palette=(("E", (-1, 1)), ("F", (1, 0)), ("E", (0, 1))))
    assert space.invariant_problems() == ["color label E repeats"]
    report = validate_colored_fan(ColoredFan(space, (cc([]),)))
    assert [(v.member, v.axiom, v.message) for v in report.violations] == [
        (None, "SPACE", "color label E repeats")
    ]


# --- colored faces --------------------------------------------------------------


def test_colored_faces_examples():
    faces = colored_faces(GL2, cc([(1, 0)]))
    assert {(f.cone.generators, f.colors) for f in faces} == {
        ((), frozenset()),
        (((1, 0),), frozenset()),
    }

    faces = colored_faces(GL2, cc([(-1, 1), (1, 0)], {E}))
    table = {f.cone.generators: f.colors for f in faces}
    assert table[((-1, 1),)] == {E}
    assert table[((1, 0),)] == frozenset()
    assert table[()] == frozenset()
    assert table[((-1, 1), (1, 0))] == {E}

    faces = colored_faces(GL2, cc([]))
    assert len(faces) == 1 and faces[0].cone.is_zero


def test_colored_faces_requires_validity():
    with pytest.raises(InvalidColoredConeError):
        colored_faces(GL2, cc([(-1, 1)], {E}))


def test_colored_faces_of_catalog_members_are_valid():
    # closure property, checked exhaustively on the catalog fan
    fan = fig1_fan()
    for member in fan.cones:
        for face in colored_faces(fan.space, member):
            assert validate_colored_cone(fan.space, face).ok


def _face_table(faces):
    return [(f.cone.generators, f.colors) for f in faces]


def test_colored_faces_match_the_face_by_face_reference():
    rng = random.Random(27)
    cases = []
    for space in (GL2, builtin_space("gln", 3)):
        for _ in range(60):
            colors = frozenset(j for j in range(len(space.palette)) if rng.random() < 0.5)
            gens = list(random_cone(rng, space.rank).generators)
            if rng.random() < 0.5:  # colors on rays of the cone
                gens += [space.palette_vector(j) for j in colors]
            cases.append((space, ColoredCone(Cone(gens, space.rank), colors)))
    # members of mutated fans, each read under the fixture's palette first:
    # one mutation zeroes a palette vector and keeps its index
    fan = fig1_fan()
    for _, mutated, _ in mutations(fan, random.Random(28), 30):
        cases += [(space, member) for member in mutated.cones for space in (fan.space, mutated.space)]
    colored = 0
    for space, member in cases:
        expected = _face_table(reference_colored_faces(space, member))
        assert _face_table(luna_vust._facts(space, member)[1]) == expected
        assert _face_table(luna_vust._facts(space, member)[1]) == expected
        colored += any(colors for _, colors in expected)
    assert colored > 20


def test_colored_faces_returns_a_fresh_list():
    member = cc([(-1, 1), (1, 0)], {E})
    first = colored_faces(GL2, member)
    expected = list(first)
    first.pop()
    first.append(cc([(5, 1)]))
    assert colored_faces(GL2, member) == expected


# --- fan validation --------------------------------------------------------------


def test_fig1_fan_is_valid():
    assert validate_colored_fan(fig1_fan()).ok


def test_missing_face_breaks_cf1():
    fan = fig1_fan()
    cones = tuple(m for m in fan.cones if m.cone.generators != ((1, 0),))
    report = validate_colored_fan(ColoredFan(fan.space, cones))
    assert "CF1" in report.axioms()


def test_duplicate_valuation_halfplane_breaks_cf2():
    V = GL2.valuation_cone
    member = ColoredCone(V, frozenset())
    report = validate_colored_fan(ColoredFan(GL2, (member, member)))
    assert "CF2" in report.axioms()
    violation = [v for v in report.violations if v.axiom == "CF2"][0]
    witness = violation.witness
    assert witness is not None and V.contains(witness)
    assert "Fraction(" not in violation.message
    assert "(%s)" % ", ".join(map(str, witness)) in violation.message


def test_colored_fan_with_supported_faces_is_valid():
    members = (
        cc([]),
        cc([(1, 0)]),
        cc([(-1, 1), (1, 0)], {E}),
    )
    assert validate_colored_fan(ColoredFan(GL2, members)).ok


# --- decoloring -----------------------------------------------------------------


def test_decolor_example():
    members = (cc([]), cc([(1, 0)]), cc([(-1, 1), (1, 0)], {E}))
    out, report = decolor(ColoredFan(GL2, members))
    assert report.ok and all(not m.colors for m in out.cones)
    expected = Cone([(1, 1), (1, 0)], 2)
    assert any(m.cone == expected for m in out.cones)
    assert any(m.cone == Cone([(1, 1)], 2) for m in out.cones)  # added face


def test_decolor_fixes_toroidal_fans():
    fan = fig1_fan()
    out, report = decolor(fan)
    assert report.ok
    assert len(out.cones) == len(fan.cones)
    for member in fan.cones:
        assert member in out.cones
    again, _ = decolor(out)
    assert len(again.cones) == len(out.cones)
    for member in out.cones:
        assert member in again.cones


def test_decolor_zero_cone():
    out, report = decolor(ColoredFan(GL2, (cc([]),)))
    assert report.ok and len(out.cones) == 1 and out.cones[0].cone.is_zero


# --- honest fan property ------------------------------------------------------------


def test_colorless_fan_pairwise_intersections_are_faces():
    fan = fig1_fan()
    for a in fan.cones:
        for b in fan.cones:
            meet = a.cone.intersect(b.cone)
            assert any(meet == f for f in a.cone.faces())
            assert any(meet == f for f in b.cone.faces())


# --- star -----------------------------------------------------------------------------


def member_with_gens(fan, gens):
    for m in fan.cones:
        if m.cone.generators == gens:
            return m
    raise AssertionError("no member %r" % (gens,))


def test_star_at_boundary_ray():
    fan = fig1_fan()
    result = star(fan, member_with_gens(fan, ((-1, -1),)))
    assert result.projection == ((1, -1),)
    assert result.kernel_basis == ((1, 1),)
    assert result.space.rank == 1
    gens = sorted(m.cone.generators for m in result.fan.cones)
    assert gens == [(), ((1,),)]


def test_star_at_zero_cone_is_identity():
    fan = fig1_fan()
    zero = member_with_gens(fan, ())
    result = star(fan, zero)
    assert result.projection == ((1, 0), (0, 1))
    assert len(result.fan.cones) == len(fan.cones)
    for m in fan.cones:
        assert m in result.fan.cones


def test_star_at_upper_ray():
    fan = fig1_fan()
    result = star(fan, member_with_gens(fan, ((1, 1),)))
    assert result.projection == ((1, -1),)
    gens = sorted(m.cone.generators for m in result.fan.cones)
    assert gens == [(), ((1,),)]


def test_star_dimension_property():
    fan = fig1_fan()
    for member in fan.cones:
        result = star(fan, member)
        assert result.space.rank == 2 - member.cone.dim()


def test_star_errors():
    fan = fig1_fan()
    with pytest.raises(ValueError):
        star(fan, cc([(5, 1)]))
    colored_member = cc([(-1, 1), (1, 0)], {E})
    colored_fan = ColoredFan(GL2, (cc([]), cc([(1, 0)]), colored_member))
    with pytest.raises(ValueError):
        star(colored_fan, colored_member)
    result = star(colored_fan, colored_member, restriction_colors=())
    assert result.space.rank == 0


def test_star_with_surviving_colors():
    fan = ColoredFan(GL2, (cc([(-1, 1), (1, 0)], {E}), cc([(1, 0)]), cc([])))
    result = star(fan, cc([(1, 0)]), restriction_colors={E})
    assert result.projection == ((0, 1),)
    assert result.kernel_basis == ((1, 0),)
    assert result.space.palette == (("E2", (1,)),)
    members = sorted((m.cone.generators, m.colors) for m in result.fan.cones)
    assert members == [((), frozenset()), (((1,),), frozenset({0}))]
    assert validate_colored_fan(result.fan).ok


def test_star_skips_a_member_whose_face_has_other_colors(monkeypatch):
    # The quadrant colored by C = (1, 0) has the colored face ((1, 0), {C}),
    # not the member ((1, 0), {}).  A valid fan cannot hold both (CF1 asks
    # for the colored face, which then shares the ray's relative interior),
    # so validation is skipped to test the member selection alone.
    plane = SphericalSpace("plane", 2, Cone(signed_basis(2), 2), (("C", (1, 0)),))
    ray = cc([(1, 0)])
    fan = ColoredFan(plane, (cc([]), ray, cc([(0, 1)]), cc([(1, 0), (0, 1)], {0})))
    assert validate_colored_fan(fan).axioms() == {"CF1"}
    monkeypatch.setattr(luna_vust, "validate_colored_fan", lambda fan: luna_vust.ValidationReport())
    result = star(fan, ray)
    assert [(m.cone.generators, m.colors) for m in result.fan.cones] == [((), frozenset())]


def test_fan_membership_is_colored_cone_equality():
    fan = fig1_fan()
    i = fan.cones.index(cc([(-1, -1)]))
    assert fan.cones[i].cone.generators == ((-1, -1),)
    assert fan.cones.index(cc([(-2, -2), (-1, -1)])) == i
    assert cc([(-1, -1)], {E}) not in fan.cones
    assert cc([(5, 1)]) not in fan.cones
    assert hash(cc([(-2, -2), (-1, -1)])) == hash(fan.cones[i]) and hash(fan) == hash(fig1_fan())


def _counting_member_lookups(monkeypatch):
    """The colored cones whose member facts the fan check looks up, from now
    on (lookups made outside the check, as by a cold star, are not counted)."""
    seen, checking = [], []
    facts, check = luna_vust._facts, luna_vust._check

    def counting_facts(space, colored_cone):
        if checking:
            seen.append(colored_cone)
        return facts(space, colored_cone)

    def counting_check(fan):
        checking.append(fan)
        try:
            return check(fan)
        finally:
            checking.pop()

    monkeypatch.setattr(luna_vust, "_facts", counting_facts)
    monkeypatch.setattr(luna_vust, "_check", counting_check)
    return seen


def test_members_are_validated_once(monkeypatch):
    clear_memos()
    fan = fig1_fan()
    seen = _counting_member_lookups(monkeypatch)
    assert validate_colored_fan(fan).ok
    assert seen == list(fan.cones)  # one lookup per member, in member order
    seen.clear()
    # the fan object keeps its result: star's validation looks up no member
    # again, and decolor's looks up no member of its output, whose member set
    # (that of the toroidal input) is known valid
    star(fan, member_with_gens(fan, ((-1, -1),)))
    out, report = decolor(fan)
    assert report.ok and set(out.cones) == set(fan.cones) and out is not fan
    assert seen == []
    # an equal fresh fan in another member order hits the valid record and
    # looks up no member
    fresh = ColoredFan(fan.space, fan.cones[::-1])
    report = validate_colored_fan(fresh)
    assert report.ok and seen == []
    # a caller altering its report does not alter the next one
    report.violations.append("bogus")
    assert validate_colored_fan(fresh).violations == []
    assert validate_colored_fan(ColoredFan(fan.space, fan.cones[2:] + fan.cones[:2])).violations == []
    assert seen == []
    # a fan with one extra member is another member set: checked in full,
    # one lookup per member
    extra = ColoredFan(fan.space, fan.cones + (cc([(2, 1)]),))
    assert validate_colored_fan(extra).axioms() == {"CF2"}
    assert seen == list(extra.cones)
    broken = ColoredFan(fan.space, fan.cones + fan.cones[:1])
    first = validate_colored_fan(broken)
    expected = list(first.violations)
    first.violations.clear()
    assert validate_colored_fan(broken).violations == expected != []


def test_orthant_fan_pairs_need_no_elimination(monkeypatch):
    """The 81 faces of the rank-4 orthant fan, validated cold: each of the
    3,240 member pairs has a separating member normal, so none runs an LP."""
    clear_memos()
    calls = {"pairs": 0, "feasible": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(luna_vust, "relint_common_point", counted("pairs", lattice.relint_common_point))
    monkeypatch.setattr(lattice, "feasible_point", counted("feasible", lattice.feasible_point))
    assert validate_colored_fan(orthant_fan(4)).ok
    assert calls == {"pairs": 3240, "feasible": 0}


def test_decolor_of_the_rank4_orthant_fan_validates_each_member_once_cold(monkeypatch):
    """Cold, validating and decoloring the rank-4 orthant fan looks up the
    facts of each of its 81 members once: the decolored fan has the input's
    member set, which is then known valid."""
    clear_memos()
    fan = orthant_fan(4)
    seen = _counting_member_lookups(monkeypatch)
    assert validate_colored_fan(fan).ok
    out, report = decolor(fan)
    assert report.ok and seen == list(fan.cones)
    assert _fan_table(out) == _fan_table(reference_decolor(fan))


def test_validating_the_rank4_orthant_fan_decides_support_only_for_cc2(monkeypatch):
    """Cold, the rank-4 orthant fan holds every face of every member, so CF1
    decides no support: ``relint_meets`` runs once per member, for CC2."""
    clear_memos()
    calls = []
    meets = luna_vust.relint_meets
    monkeypatch.setattr(luna_vust, "relint_meets", lambda a, b: calls.append(a) or meets(a, b))
    fan = orthant_fan(4)
    assert validate_colored_fan(fan).ok
    assert len(calls) == len(fan.cones) == 81


def test_decolor_clips_only_the_colored_members(monkeypatch):
    """Decolor intersects a colored member with the valuation cone and keeps
    an uncolored member's cone as it is: cold, the rank-4 orthant fan is
    decolored with no intersection, and a colored gln2 fan with one per
    colored member; both equal the reference, which clips every member."""
    rng = random.Random(33)
    fans = [orthant_fan(4)] + [_colored_gln2_fan(rng) for _ in range(3)]
    fans.append(ColoredFan(GL2, (cc([]), cc([(1, 0)]), cc([(-1, 1), (1, 0)], {E}))))
    intersect = Cone.intersect
    for fan in fans:
        expected = _fan_table(reference_decolor(fan))
        clear_memos()
        seen = []
        monkeypatch.setattr(Cone, "intersect", lambda self, other: seen.append(self) or intersect(self, other))
        out, report = decolor(fan)
        monkeypatch.undo()
        assert report.ok and _fan_table(out) == expected
        assert sorted(c.generators for c in seen) == sorted(m.cone.generators for m in fan.cones if m.colors)
    assert not any(m.colors for m in fans[0].cones)


def test_a_repeated_fan_document_decides_no_cone_fact_again(monkeypatch):
    """A second, freshly parsed copy of one fan/1 document is parsed,
    validated, starred and decolored from the memos alone: its space's
    valuation cone is looked up before its normals are normalised, each
    cone before its generators are, each member's facts are read from their
    memo, and the copy's member set has a record marked valid, which holds
    its decolored fan and keys its star; so no memo body runs, no vector is
    normalised (``_directions``) and no rank is computed."""
    watched = (lattice._generators, lattice._cut_out, lattice._pointed_rank, luna_vust._member_facts)
    fan_level = (luna_vust._record, luna_vust._star)

    def run(fan):
        assert validate_colored_fan(fan).ok
        star(fan, member_with_gens(fan, ((-1, -1),)))
        decolor(fan)

    run(fig1_fan())
    before = [memo.cache_info() for memo in watched + fan_level]
    calls = []
    for name in ("_directions", "matrix_rank"):
        fn = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    run(fig1_fan())
    after = [memo.cache_info() for memo in watched + fan_level]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(a.hits > b.hits for a, b in zip(after[len(watched) :], before[len(watched) :]))
    assert calls == []


def test_star_and_decolor_read_the_record_from_the_fan():
    """Once a fan object is validated, star and decolor read its member
    set's record from the fan and look no member set up; cold, decolor
    looks up the set of the fan it builds once, to validate it."""
    clear_memos()

    def lookups():
        info = luna_vust._record.cache_info()
        return info.hits + info.misses

    for expected in (1, 0):  # cold, then a fresh equal fan
        fan = fig1_fan()
        assert validate_colored_fan(fan).ok
        before = lookups()
        for member in fan.cones:
            star(fan, member, set() if member.colors else None)
        decolor(fan)
        decolor(fan)
        assert lookups() == before + expected


# --- fan results against the reference, in every member order -----------------


def _space_table(space):
    return space, space.valuation_cone.generators


def _fan_table(fan):
    return _space_table(fan.space), [(m.cone.generators, m.colors) for m in fan.cones]


def _star_table(result):
    return result.projection, result.kernel_basis, _space_table(result.space), _fan_table(result.fan)


def _shear(rng, n):
    """The columns of a random signed permutation matrix, after one
    elementary column operation with +-1 (none at rank 1)."""
    columns = [vec_scale(rng.choice((-1, 1)), e) for e in rng.sample(signed_basis(n)[::2], n)]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        columns[i] = tuple(a + rng.choice((-1, 1)) * b for a, b in zip(columns[i], columns[j]))
    return columns


def _colored_gln2_fan(rng):
    """Members {0}, s, r, cone(s, r) and (cone(r, E2), {E2}), with r inside
    the valuation cone below the diagonal and s inside it clockwise of r."""

    def ray(accept):
        while True:
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(v) and Cone([v]).generators == (v,) and accept(v):
                return v

    r = ray(lambda v: v[0] > abs(v[1]))
    s = ray(lambda v: v[0] >= v[1] and v[0] * r[1] - v[1] * r[0] > 0)
    return ColoredFan(GL2, (cc([]), cc([s]), cc([r]), cc([s, r]), cc([r, (-1, 1)], {E})))


def _valid_fans():
    rng = random.Random(53)
    fans = [fig1_fan(), ColoredFan(GL2, (cc([]), cc([(1, 0)]), cc([(-1, 1), (1, 0)], {E})))]
    fans += [orthant_fan(n, _shear(rng, n)) for n in (2, 2, 3, 3, 4)]
    fans += [_colored_gln2_fan(rng) for _ in range(4)]
    return fans


def _shuffled(rng, fan):
    cones = list(fan.cones)
    rng.shuffle(cones)
    return ColoredFan(fan.space, tuple(cones))


def test_fan_results_match_the_reference_in_every_member_order():
    """Validation, star and decolor of valid fans, in shuffled member orders,
    cold and warm, equal the member-order references; so does the report of
    every invalid fan, which marks no record valid, and a fan with a
    repeated member looks no record up."""
    rng = random.Random(54)
    invalid, repeated = [], []
    for fan in _valid_fans():
        clear_memos()
        assert reference_validate_colored_fan(fan).ok
        members = rng.sample(fan.cones, min(4, len(fan.cones)))
        stars = []
        for member in members:
            survivors = rng.choice([(), {E}]) if fan.space.palette else None
            stars.append((member, survivors, _star_table(reference_star(fan, member, survivors))))
        decolored = _fan_table(reference_decolor(fan))
        for order in range(3):
            clear_memos()
            for copy in (_shuffled(rng, fan), _shuffled(rng, fan)):  # cold, then warm in another order
                assert validate_colored_fan(copy).violations == [] and copy._checked[1].valid
                for member, survivors, expected in stars:
                    assert _star_table(star(copy, member, survivors)) == expected
                out, report = decolor(copy)
                assert _fan_table(out) == decolored and report.ok
        invalid += [mutated for _, mutated, _ in mutations(fan, rng, 5)]
        # a repeated member: the member set is valid, the fan is not
        repeated.append((fan, ColoredFan(fan.space, fan.cones + (rng.choice(fan.cones[1:]),))))
    invalid += [fan for _, fan in repeated]
    assert {fan.space.rank for fan in invalid} == {2, 3, 4}
    for fan in invalid:
        for order in range(3):
            shuffled = _shuffled(rng, fan)
            clear_memos()
            expected = reference_validate_colored_fan(shuffled).violations
            for warm in (False, True):
                copy = ColoredFan(shuffled.space, shuffled.cones)
                assert validate_colored_fan(copy).violations == expected != []
                assert copy._checked[1] is None or not copy._checked[1].valid
    # the repeated-member fans once their member set is marked valid
    for fan, broken in repeated:
        assert validate_colored_fan(fan).ok
        lookups = luna_vust._record.cache_info()
        shuffled = _shuffled(rng, broken)
        report = validate_colored_fan(shuffled)
        assert report.violations == reference_validate_colored_fan(shuffled).violations
        assert "CF2" in report.axioms() and shuffled._checked[1] is None
        assert luna_vust._record.cache_info() == lookups


def _counting_pairs(monkeypatch):
    """The (cone, cone) pairs the fan check hands ``relint_common_point``, from now on."""
    pairs = []
    common_point = luna_vust.relint_common_point

    def counting(a, b, region):
        pairs.append((a, b))
        return common_point(a, b, region)

    monkeypatch.setattr(luna_vust, "relint_common_point", counting)
    return pairs


def _overlapping_orthant_fan(n):
    """The rank-n orthant fan plus the ray through the sum of e_1..e_n: its
    relative interior lies in that of the positive orthant (CF2)."""
    fan = orthant_fan(n)
    return ColoredFan(fan.space, fan.cones + (ColoredCone(Cone([(1,) * n], n)),))


def test_a_repeated_invalid_member_set_retests_only_its_overlapping_pairs(monkeypatch):
    """An invalid fan checked cold fills its member set's record; a new fan of
    the same members in another order then reads each member's problems and
    CF1 messages from the record, looks up no member facts, and calls
    ``relint_common_point`` once per recorded overlapping pair, in its own
    member order, with the report of a full check in that order.  A fan with
    a repeated member has no record and is checked in full every time."""
    rng = random.Random(55)
    invalid = [_overlapping_orthant_fan(3)]
    for fan in _valid_fans():
        invalid += [mutated for _, mutated, _ in mutations(fan, rng, 5)]
    invalid = [fan for fan in invalid if len(set(fan.cones)) == len(fan.cones)]
    assert {v.axiom for fan in invalid for v in reference_validate_colored_fan(fan).violations} >= {
        "CF1", "CF2", "CC2", "CC3"
    }
    seen = _counting_member_lookups(monkeypatch)
    pairs = _counting_pairs(monkeypatch)
    for fan in invalid:
        clear_memos()
        cold = _shuffled(rng, fan)
        assert validate_colored_fan(cold).violations == reference_validate_colored_fan(cold).violations != []
        record = cold._checked[1]
        assert not record.valid and len(record.found) == len(fan.cones)
        warm = _shuffled(rng, fan)
        region = warm.space.valuation_cone
        overlapping = [
            (a.cone, b.cone)
            for a, b in itertools.combinations(warm.cones, 2)
            if lattice.relint_common_point(a.cone, b.cone, region) is not None
        ]
        expected = reference_validate_colored_fan(warm).violations
        seen.clear()
        pairs.clear()
        assert validate_colored_fan(warm).violations == expected
        assert warm._checked[1] is record and seen == []
        assert pairs == overlapping and len(record.overlaps) == len(overlapping)
    # the 28-member torus3 fan: 378 pairs cold, its one overlapping pair warm;
    # with a repeated member, all 406 pairs of 29 members on every new object
    clear_memos()
    fan = _overlapping_orthant_fan(3)
    broken = fan.cones + fan.cones[5:6]
    for members, counts in ((fan.cones, [378, 1, 1]), (broken, [406, 406, 406])):
        for count in counts:
            copy = _shuffled(rng, ColoredFan(fan.space, members))
            seen.clear()
            pairs.clear()
            assert validate_colored_fan(copy).violations == reference_validate_colored_fan(copy).violations
            assert len(pairs) == count and (count == 1) == (seen == [])
        assert (copy._checked[1] is None) == (members is broken)


def test_equal_spaces_listing_other_valuation_generators_share_no_result():
    """Two equal spaces whose valuation cones, the whole plane, list other
    generators: each star and decolored fan lists those of its own space."""
    plane_a = SphericalSpace("plane", 2, Cone(signed_basis(2), 2))
    plane_b = SphericalSpace("plane", 2, Cone([(1, 0), (0, 1), (-1, -1)], 2))
    assert plane_a == plane_b and plane_a.valuation_cone.generators != plane_b.valuation_cone.generators
    members = (cc([]), cc([(1, 0)]), cc([(0, 1)]), cc([(1, 0), (0, 1)]))
    clear_memos()
    for space in (plane_a, plane_b, plane_a):
        fan = ColoredFan(space, members)
        for member in members[:2]:
            assert _star_table(star(fan, member)) == _star_table(reference_star(fan, member))
        assert _fan_table(decolor(fan)[0]) == _fan_table(reference_decolor(fan))


# --- member facts against the reference ------------------------------------------


def _member_answers(space, member):
    """The problems and the face listing, read from the member-facts memo."""
    problems, faces = luna_vust._facts(space, member)
    return list(problems), _face_table(faces)


def _reference_answers(space, member):
    faces = reference_colored_faces(space, member)
    report = reference_validate_colored_cone(space, member)
    return [(v.axiom, v.message) for v in report.violations], _face_table(faces)


def _member_cases():
    rng = random.Random(31)
    cases = []
    for space in (GL2, builtin_space("gln", 3), builtin_space("torus", 3)):
        cases.append((space, ColoredCone(Cone([], space.rank))))
        for _ in range(40):
            colors = frozenset(j for j in range(len(space.palette)) if rng.random() < 0.5)
            gens = list(random_cone(rng, space.rank, max_gens=rng.choice([1, 2, space.rank + 2])).generators)
            if rng.random() < 0.5:  # colors on rays of the cone
                gens += [space.palette_vector(j) for j in colors]
            if rng.random() < 0.25:  # a line
                gens.append(vec_scale(-1, rng.choice(gens)))
            cases.append((space, ColoredCone(Cone(gens, space.rank), colors)))
    fan = fig1_fan()
    for _, mutated, _ in mutations(fan, random.Random(32), 30):
        cases += [(space, member) for member in mutated.cones for space in (fan.space, mutated.space)]
    return cases


def test_member_facts_match_the_reference_cold_and_warm():
    cases = _member_cases()
    kinds = set()
    for space, member in cases:
        clear_memos()
        assert _member_answers(space, member) == _reference_answers(space, member)
        kinds |= validate_colored_cone(space, member).axioms()
        kinds.add(("dim", member.cone.dim() - space.rank))
    for space, member in cases:
        _member_answers(space, member)  # fill the memos, so the pass below reads them
    for space, member in cases:
        assert _member_answers(space, member) == _reference_answers(space, member)
    assert {"CC1", "CC2", "CC3", "SC", ("dim", -1), ("dim", 0)} <= kinds
    assert luna_vust._member_facts.cache_info().hits >= len(cases)


def test_member_facts_keep_each_palette_label():
    """Equal color vectors under different labels share no memo entry: a CC3
    message names the label of its own palette."""
    member = cc([(1, 0)], {0, 1})
    for vector in ((0, 0), (-1, 1)):
        for labels in (("A", "B"), ("B", "A"), ("A", "C"), ("A", "B")):
            space = dataclasses.replace(GL2, palette=tuple((label, vector) for label in labels))
            report = validate_colored_cone(space, member)
            assert report.violations == reference_validate_colored_cone(space, member).violations
            cc3 = [v.message for v in report.violations if v.axiom == "CC3"]
            expected = ["color %s maps to the zero vector" % label for label in labels]
            assert cc3 == (expected if vector == (0, 0) else [])


def test_member_facts_raise_and_report_as_the_reference():
    for colors in ({1}, {-1}, {E, 5}):
        member = cc([(1, 0)], colors)
        for _ in range(2):  # no exception is memoised
            with pytest.raises(KeyError):
                validate_colored_cone(GL2, member)
            with pytest.raises(KeyError):
                colored_faces(GL2, member)
            with pytest.raises(KeyError):
                reference_validate_colored_cone(GL2, member)
    # a cone of the wrong dimension is reported before any color is read
    for colors in ((), {E}, {5}):
        member = ColoredCone(Cone([(1, 0, 0)], 3), frozenset(colors))
        report = validate_colored_cone(GL2, member, member=2)
        assert report.axioms() == {"SPACE"}
        assert report.violations == reference_validate_colored_cone(GL2, member, member=2).violations
    # a color vector of the wrong length: a pointed member raises, as the
    # reference does, and a member with a line is reported SC alone
    space = dataclasses.replace(GL2, palette=(("W", (1, 0, 0)),))
    for _ in range(2):
        with pytest.raises(ValueError):
            validate_colored_cone(space, cc([(1, 0)], {E}))
        with pytest.raises(ValueError):
            reference_validate_colored_cone(space, cc([(1, 0)], {E}))
        line = cc([(1, 1), (-1, -1)], {E})
        assert validate_colored_cone(space, line).violations == reference_validate_colored_cone(space, line).violations


# --- fuzzer ---------------------------------------------------------------------------


def test_fuzzer_mutations_rejected_with_named_axiom():
    fan = fig1_fan()
    rng = random.Random(99)
    muts = mutations(fan, rng, 50)
    assert len(muts) == 50
    assert {kind for kind, _, _ in muts} == set(MUTATION_KINDS)
    for kind, mutated, expected in muts:
        report = validate_colored_fan(mutated)
        assert not report.ok, kind
        assert expected & report.axioms(), (kind, expected, report.axioms())
