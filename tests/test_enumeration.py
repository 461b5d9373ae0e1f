import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbmlat import core, enumeration
from mbmlat.chambers import chamber_at, facet_walls, reduce_to_base, same_chamber
from mbmlat.core import make_lattice, pairing, project_off, sign_normalize, square
from mbmlat.enumeration import (
    Wall,
    WallSpec,
    _PosDefForm,
    definite_short_vectors,
    has_other_separating_wall,
    is_reflective,
    learn_chamber,
    separating_walls,
    vectors_of_square,
    wall_spec,
    walls_containing,
    walls_near,
)
from mbmlat.errors import (
    NonPositiveVectorError,
    SignatureError,
    ValidationError,
)
from oracles import (
    brute_force_separating,
    brute_force_walls_near,
    brute_force_walls_through,
    extreme_rays as oracle_rays,
    integral_reflection,
    near_box_bound,
    posdef_box_scan,
    random_positive_pair,
    rational_inverse,
    wall_box_bound,
)

SPEC2 = wall_spec([-2])


class TestDefiniteShortVectors:
    def test_rank_one(self):
        assert definite_short_vectors(make_lattice([[-2]]), -2) == [(1,)]

    def test_two_by_two(self):
        L = make_lattice(core.direct_sum([[-2]], [[-2]]))
        got = definite_short_vectors(L, -4)
        assert got == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_e8_roots(self):
        # 240 roots of E8, i.e. 120 classes up to sign (classical count)
        L = make_lattice(core.E8_MINUS_GRAM, "E8m1")
        roots = definite_short_vectors(L, -2)
        assert len(roots) == 120
        assert all(square(L, v) == -2 for v in roots)
        assert len(set(roots)) == 120

    def test_e8_shells(self):
        # theta_E8 = 1 + 240 q + 2160 q^2 + 6720 q^3 + 17520 q^4: half of
        # each shell of squares -2, -4, -6, -8 up to sign
        L = make_lattice(core.E8_MINUS_GRAM, "E8m1")
        got = definite_short_vectors(L, -8)
        assert Counter(square(L, v) for v in got) == {-2: 120, -4: 1080, -6: 3360, -8: 8760}
        assert all(next(c for c in v if c) > 0 for v in got)
        assert all(u < v for u, v in zip(got, got[1:]))

    def test_canonical_sign_and_order(self):
        L = make_lattice(core.direct_sum([[-2]], [[-2]]))
        got = definite_short_vectors(L, -6)
        assert got == sorted(got)
        for v in got:
            first = next(c for c in v if c != 0)
            assert first > 0

    def test_imprimitive_vectors_included(self):
        assert definite_short_vectors(make_lattice([[-2]]), -8) == [(1,), (2,)]
        L = make_lattice(core.direct_sum([[-2]], [[-2]]))
        got = definite_short_vectors(L, -8)
        assert got == [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0)]
        # the box oracle only fixes the sign of each +-pair
        L = make_lattice(core.direct_sum([[-2]], [[-4]]))
        box = {max(v, tuple(-c for c in v)) for d in range(-12, 0) for v in vectors_of_square(L, d, 4)}
        assert any(gcd(*v) > 1 for v in box)
        assert definite_short_vectors(L, -12) == sorted(box)

    def test_indefinite_rejected(self, U):
        with pytest.raises(SignatureError):
            definite_short_vectors(U, -2)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValidationError):
            definite_short_vectors(make_lattice([[-2]]), 2)


class TestVectorsOfSquare:
    def test_isotropics_of_u(self, U):
        got = vectors_of_square(U, 0, 1)
        assert set(got) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_positive_square(self, U):
        assert set(vectors_of_square(U, 2, 1)) == {(1, 1), (-1, -1)}

    def test_negative_square_contains(self, UA):
        got = set(vectors_of_square(UA, -2, 1))
        assert {(0, 0, 1), (0, 0, -1), (1, -1, 0), (-1, 1, 0)} <= got

    def test_matches_definite_enumeration(self):
        # cross-check the two enumeration pathways on a definite lattice
        L = make_lattice(core.direct_sum([[-2]], [[-4]]))
        box = set()
        for d in (-2, -4, -6):
            box |= {sign_normalize(v) for v in vectors_of_square(L, d, 4)}
        fp = set(definite_short_vectors(L, -6))
        assert box == fp


class TestSeparatingWalls:
    def test_worked_example(self, UA):
        # (1,0,1) also separates: q((1,0,1),(1,1,0)) = 1 > 0 > -2 = q((1,0,1),(3,2,2))
        got = separating_walls(UA, (1, 1, 0), (3, 2, 2), SPEC2)
        assert [w.vector for w in got] == [(0, 1, 1), (1, 0, 1)]
        for w in got:
            assert pairing(UA, w.vector, (1, 1, 0)) > 0 > pairing(UA, w.vector, (3, 2, 2))

    def test_same_point(self, UA):
        assert separating_walls(UA, (1, 1, 0), (1, 1, 0), SPEC2) == []

    def test_same_chamber_pair(self, UA):
        assert separating_walls(UA, (1, 1, 0), (2, 1, 0), SPEC2) == []

    def test_rational_target(self, UA):
        from fractions import Fraction

        v1 = (Fraction(3, 2), 1, 1)
        got = separating_walls(UA, (1, 1, 0), v1, SPEC2)
        # rescaling v1 to the primitive integral (3,2,2) must not change the set
        assert [w.vector for w in got] == [w.vector for w in separating_walls(UA, (1, 1, 0), (3, 2, 2), SPEC2)]
        assert all(isinstance(w, Wall) for w in got)
        for w in got:
            assert pairing(UA, w.vector, v1) < 0

    def test_non_positive_rejected(self, UA):
        with pytest.raises(NonPositiveVectorError):
            separating_walls(UA, (1, -1, 0), (1, 1, 0), SPEC2)
        with pytest.raises(NonPositiveVectorError):
            separating_walls(UA, (1, 1, 0), (-1, -1, 0), SPEC2)

    def test_oracle_equivalence_sample(self, UA, P22):
        rng = random.Random(13)
        for L in (UA, P22):
            for _ in range(25):
                v0, v1 = random_positive_pair(L, rng)
                box = max(10 * 5, wall_box_bound(L, v0, v1, SPEC2.squares))
                exp = brute_force_separating(L, v0, v1, SPEC2, box)
                got = {(w.square, w.vector) for w in separating_walls(L, v0, v1, SPEC2)}
                assert got == exp, (v0, v1)

    def test_multi_square_spec(self, UAA):
        spec = wall_spec([-2, -4])
        rng = random.Random(17)
        checked = 0
        while checked < 8:
            v0, v1 = random_positive_pair(UAA, rng, coord_bound=3)
            bound = wall_box_bound(UAA, v0, v1, spec.squares)
            if bound > 10:
                continue
            checked += 1
            exp = brute_force_separating(UAA, v0, v1, spec, bound)
            got = {(w.square, w.vector) for w in separating_walls(UAA, v0, v1, spec)}
            assert got == exp

    def test_symmetry(self, UA):
        rng = random.Random(19)
        for _ in range(15):
            v0, v1 = random_positive_pair(UA, rng)
            a = {w.vector for w in separating_walls(UA, v0, v1, SPEC2)}
            b = {w.vector for w in separating_walls(UA, v1, v0, SPEC2)}
            assert a == {tuple(-c for c in v) for v in b}

    def test_triangle_additivity(self, UA):
        rng = random.Random(23)
        done = 0
        while done < 10:
            v0, v1 = random_positive_pair(UA, rng)
            v2, _ = random_positive_pair(UA, rng)
            if pairing(UA, v0, v2) <= 0 or pairing(UA, v1, v2) <= 0:
                continue
            if any(walls_containing(UA, v, SPEC2) for v in (v0, v1, v2)):
                continue
            done += 1
            s02 = {w.unsigned() for w in separating_walls(UA, v0, v2, SPEC2)}
            s01 = {w.unsigned() for w in separating_walls(UA, v0, v1, SPEC2)}
            s12 = {w.unsigned() for w in separating_walls(UA, v1, v2, SPEC2)}
            assert s02 <= (s01 | s12)

    def test_wall_type_invariants(self, UAA):
        rng = random.Random(29)
        spec = wall_spec([-2, -4])
        for _ in range(10):
            v0, v1 = random_positive_pair(UAA, rng, coord_bound=3)
            for w in separating_walls(UAA, v0, v1, spec):
                assert gcd(*w.vector) == 1
                assert w.square == square(UAA, w.vector)
                assert w.square in spec.squares

    @pytest.mark.parametrize("v0, v1", [
        ((3, 4, 1, 1), (20, 3, 4, -5)),
        ((3, 4, 1, 1), (2, 15, -3, 4)),
        ((3, 4, 1, 1), (11, 11, 6, -6)),
        ((4, 5, 1, 2), (13, 2, 0, -4)),
    ])
    def test_search_visits_only_the_far_side(self, UAA, v0, v1, monkeypatch, fincke_pohst):
        # every point the enumeration yields is a separating wall: none is
        # on the near side q(s, v1) >= 0, so none is embedded and dropped
        yielded = []
        enumerate_points = _PosDefForm.enumerate

        def counted(form, *args):
            for x in enumerate_points(form, *args):
                yielded.append(x)
                yield x

        monkeypatch.setattr(_PosDefForm, "enumerate", counted)
        got = separating_walls(UAA, v0, v1, SPEC2)
        assert len(got) >= 5
        assert len(yielded) == len(got)
        box = wall_box_bound(UAA, v0, v1, SPEC2.squares)
        assert {(w.square, w.vector) for w in got} == brute_force_separating(UAA, v0, v1, SPEC2, box)

    def test_reflective_filter(self):
        # on <-4>+U the class (1,0,0) reflects integrally, (1,1,0)-type may not
        L = make_lattice(core.direct_sum([[-4]], core.U_GRAM), "A1m4+U")
        spec_all = wall_spec([-2, -4])
        spec_refl = wall_spec([-2, -4], require_reflective=True)
        rng = random.Random(31)
        for _ in range(10):
            v0, v1 = random_positive_pair(L, rng, coord_bound=4)
            got = separating_walls(L, v0, v1, spec_refl)
            all_walls = {w.vector for w in separating_walls(L, v0, v1, spec_all)}
            for w in got:
                assert w.vector in all_walls
                d = w.square
                assert all((2 * x) % d == 0 for x in core.gram_apply(L, w.vector))


# per lattice fixture: a wall-free base, the spec, the coordinate bound of
# the random pairs and the oracle's box, which every kept pair's walls fit
# in, or None where the box oracle is too slow and Fincke-Pohst is the
# reference.  On I12 the facets have squares -2, -1 and -1, so its Cartan
# matrix is not symmetric.  The chamber of (5, 7, 1, 1, 1) has 7 facets and
# the longest descents.
DESCENT_CASES = {
    "UA": ((5, 3, 2), SPEC2, 5, 50),
    "UAA": ((3, 4, 1, 1), SPEC2, 3, 10),
    "UAAA": ((5, 7, 1, 1, 1), SPEC2, 3, None),
    "I12": ((5, 1, 2), wall_spec([-1, -2]), 5, 20),
}


def _descent_pairs(L, spec, rng, coord_bound, box, count=48):
    """Positive pairs in one component, (kind, a, b, a', b') with integral
    a', b' on the rays of a, b, cycling through plain pairs, a on a random
    wall, rational endpoints and proportional pairs; every other block of
    four is negated, so both components occur."""
    pairs = []
    while len(pairs) < count:
        a, b = random_positive_pair(L, rng, coord_bound)
        kind = ("plain", "on a wall", "rational", "proportional")[len(pairs) % 4]
        if kind == "on a wall":
            s = tuple(rng.randint(-2, 2) for _ in range(L.rank))
            if square(L, s) not in spec.squares:
                continue
            # a positive multiple of a's projection onto s^perp, in a's component
            a = tuple(-c for c in project_off(L, a, s))
        elif kind == "proportional":
            b = tuple(3 * c for c in a)
        if box is not None and wall_box_bound(L, a, b, spec.squares) > box:
            continue
        if len(pairs) % 8 >= 4:
            a, b = tuple(-c for c in a), tuple(-c for c in b)
        if kind == "rational":
            pairs.append((kind, tuple(Fraction(c, 3) for c in a), tuple(Fraction(c, 2) for c in b), a, b))
        else:
            pairs.append((kind, a, b, a, b))
    return pairs


class TestDescent:
    @pytest.mark.parametrize("name", sorted(DESCENT_CASES))
    def test_descent_matches_fincke_pohst_and_the_oracle(self, name, request, fincke_pohst):
        L = request.getfixturevalue(name)
        base, spec, coord_bound, box = DESCENT_CASES[name]
        pairs = _descent_pairs(L, spec, random.Random(71), coord_bound, box)

        def answers():
            out = []
            for _, a, b, _, _ in pairs:
                walls = separating_walls(L, a, b, spec)
                others = [has_other_separating_wall(L, a, b, spec, [w.vector for w in ex])
                          for ex in ((), walls[:1], walls)]
                out.append((walls, same_chamber(L, a, b, spec), others))
            return out

        searched = answers()
        reduce_to_base(L, base, base, spec)
        assert enumeration._chambers[L, spec] is not None
        assert answers() == searched
        seen = dict.fromkeys(("other component", "on a wall", "rational", "proportional", "separated"), 0)
        for (kind, _, _, a, b), (walls, _, _) in zip(pairs, searched):
            if box is not None:
                assert {(w.square, w.vector) for w in walls} == brute_force_separating(L, a, b, spec, box)
            seen[kind] = seen.get(kind, 0) + 1
            seen["other component"] += pairing(L, a, base) < 0
            seen["separated"] += len(walls) > 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("name, facets", [("UA", 3), ("UAA", 5), ("UAAA", 7)], ids=["UA", "UAA", "UAAA"])
    def test_both_backends_are_antisymmetric_and_reflection_equivariant(self, name, facets, request, fincke_pohst):
        # sep(a, b) = -sep(b, a) and sep(g a, g b) = g sep(a, b) for the integral
        # reflection g in a wall, by Fincke-Pohst and then by descent from the
        # base's chamber, certified with that many facets
        L, base = request.getfixturevalue(name), DESCENT_CASES[name][0]
        rng = random.Random(89)
        pairs = [random_positive_pair(L, rng, 3) for _ in range(10)]
        mirrors = []
        while len(mirrors) < 3:
            s = tuple(rng.randint(-2, 2) for _ in range(L.rank))
            if square(L, s) == -2:
                mirrors.append(integral_reflection(L.gram, s))

        def check():
            crossed = 0
            for a, b in pairs:
                sep = separating_walls(L, a, b, SPEC2)
                crossed += len(sep)
                back = separating_walls(L, b, a, SPEC2)
                assert sorted(Wall(square=w.square, vector=tuple(-c for c in w.vector)) for w in back) == sep
                for g in mirrors:
                    assert separating_walls(L, g(a), g(b), SPEC2) == sorted(
                        Wall(square=w.square, vector=g(w.vector)) for w in sep)
            assert crossed > len(pairs)

        check()
        reduce_to_base(L, base, base, SPEC2)
        assert len(enumeration._chambers[L, SPEC2].facets) == facets
        check()

    def test_a_point_on_a_wall_is_not_separated_by_it(self, UA, fincke_pohst):
        # a lies on the positive root (-1, 1, 0) of b's inversion set: the
        # root is in N(b) - N(a), yet it separates nothing
        a, b, base = (1, 1, 0), (3, 4, -1), DESCENT_CASES["UA"][0]
        root = (-1, 1, 0)
        assert (square(UA, root), pairing(UA, root, a), pairing(UA, root, b), pairing(UA, root, base)) == (-2, 0, -1, 2)
        assert separating_walls(UA, a, b, SPEC2) == separating_walls(UA, b, a, SPEC2) == []
        reduce_to_base(UA, base, base, SPEC2)
        assert Wall(square=-2, vector=root) in enumeration._inversion_set(enumeration._chambers[UA, SPEC2], b)
        assert separating_walls(UA, a, b, SPEC2) == separating_walls(UA, b, a, SPEC2) == []

    def test_inversion_sets_are_keyed_by_the_chamber(self, UA, fincke_pohst):
        # each certification is a new chamber object, whose first lookups miss;
        # sep(-a, -b) = -sep(a, b) reads the entries of a and b again
        base = DESCENT_CASES["UA"][0]
        rng = random.Random(97)
        pairs = [random_positive_pair(UA, rng, 4) for _ in range(6)]
        searched = [separating_walls(UA, a, b, SPEC2) for a, b in pairs]
        assert sum(map(len, searched)) > len(pairs)
        info = enumeration._inversion_set.cache_info
        for _ in range(2):
            enumeration._chambers.clear()
            reduce_to_base(UA, base, base, SPEC2)
            a, b = pairs[0]
            misses = info().misses
            separating_walls(UA, a, b, SPEC2)
            assert info().misses == misses + 2
            for (a, b), walls in zip(pairs, searched):
                assert separating_walls(UA, a, b, SPEC2) == walls
                before = info()
                negated = separating_walls(UA, tuple(-c for c in a), tuple(-c for c in b), SPEC2)
                assert negated == sorted(Wall(square=w.square, vector=tuple(-c for c in w.vector)) for w in walls)
                assert (info().hits, info().misses) == (before.hits + 2, before.misses)

    def test_the_chamber_record_drops_its_oldest_entry(self, UA, fincke_pohst):
        # an empty facet list certifies nothing, so each (L, spec) records None
        specs = [wall_spec([-k]) for k in range(1, enumeration._CHAMBERS_MAX + 2)]
        try:
            for spec in specs:
                learn_chamber(UA, spec, (5, 3, 2), ())
            assert len(enumeration._chambers) == enumeration._CHAMBERS_MAX == 64
            assert (UA, specs[0]) not in enumeration._chambers
            assert all(enumeration._chambers[UA, spec] is None for spec in specs[1:])
        finally:
            enumeration._chambers.clear()


def _oracle_checked(L, walls):
    """The kernel's rays of the cone of the walls, checked against the oracle's."""
    rays = enumeration.extreme_rays([core.gram_apply(L, s) for s in walls], L.rank)
    expected = oracle_rays(L.gram, walls)
    assert (rays is None) == (expected is None)
    if rays is not None:
        assert len(set(rays)) == len(rays) and sorted(rays) == expected
    return rays


class TestExtremeRays:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                                        min_size=1, max_size=9)))
    # the first and third covectors are opposite, so K lies in a hyperplane,
    # where two rays can share n - 2 zeros without being adjacent
    @example([(-1, 2, 2, 2), (-2, 0, 2, -1), (1, -2, -2, -2), (-2, 0, 1, 0), (-2, 1, 0, 2), (0, 1, -1, -1),
              (2, 2, -2, 2), (-1, -2, -1, 2), (1, 2, -1, 1)])
    def test_random_cones_match_the_oracle(self, covectors):
        n = len(covectors[0])
        _oracle_checked(make_lattice([[int(i == j) for j in range(n)] for i in range(n)]), covectors)

    def test_candidate_cones_match_the_oracle(self):
        # four rank-3 cones, then two rank-4 ones of 19 and 21 candidates (the
        # oracle takes about a second on 22 candidates and seconds on 39)
        L, spec = make_lattice(core.direct_sum(core.U_GRAM, [[-4]])), wall_spec([-2, -4])
        rng, cones = random.Random(3), []
        while len(cones) < 4:
            v = random_positive_pair(L, rng, 12)[0]
            if not walls_containing(L, v, spec):
                cones.append((L, v, 16))
        UAA = make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-2]]))
        U24 = make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-4]]))
        cones += [(UAA, (-12, -11, 3, 2), 12), (U24, (-7, -12, -2, -2), 16)]
        for L, v, bound in cones:
            assert _oracle_checked(L, [u.vector for u in walls_near(L, v, spec, bound)]) is not None

    @pytest.mark.parametrize("gram, base, count", [
        (core.direct_sum(core.U_GRAM, [[-2]], [[-2]]), (3, 4, 1, 1), 5),
        (core.direct_sum(core.U_GRAM, [[-2]], [[-2]], [[-2]]), (5, 7, 1, 1, 1), 9),
    ], ids=["U+A1m2+A1m2", "U+3<-2>"])
    def test_each_ray_of_a_base_chamber_once(self, gram, base, count):
        # one ray per vertex: 4 + 1 ideal, and 8 + 1 ideal
        L = make_lattice(gram)
        faces = facet_walls(L, chamber_at(L, base, spec=SPEC2)).faces
        rays = enumeration.extreme_rays([core.gram_apply(L, f.supporting_wall.vector) for f in faces], L.rank)
        assert len(set(rays)) == len(rays) == count

    def test_a_cone_that_is_not_pointed_has_none(self):
        assert enumeration.extreme_rays([(1, 0, 0), (0, 1, 0), (1, -1, 0)], 3) is None
        assert enumeration.extreme_rays([], 2) is None

    def test_a_cone_past_the_budget_has_none(self, monkeypatch):
        L = make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-2]], [[-2]]))
        faces = facet_walls(L, chamber_at(L, (5, 7, 1, 1, 1), spec=SPEC2)).faces
        covectors = [core.gram_apply(L, f.supporting_wall.vector) for f in faces]
        monkeypatch.setattr(enumeration, "_RAY_BUDGET", 8)
        assert enumeration.extreme_rays(covectors, L.rank) is None


class TestWallsContaining:
    def test_point_on_two_walls(self, UA):
        got = walls_containing(UA, (1, 1, 0), SPEC2)
        assert [(w.square, w.vector) for w in got] == [(-2, (0, 0, 1)), (-2, (1, -1, 0))]

    def test_wall_free_point(self, UA):
        assert walls_containing(UA, (5, 3, 2), SPEC2) == []

    def test_rank4_point(self, UAA):
        got = {w.vector for w in walls_containing(UAA, (1, 1, 0, 0), SPEC2)}
        assert got == {(0, 0, 0, 1), (0, 0, 1, 0), (1, -1, 0, 0)}

    def test_matches_brute_force(self, UAA):
        rng = random.Random(37)
        for _ in range(10):
            v0, _ = random_positive_pair(UAA, rng, coord_bound=3)
            got = {(w.square, w.vector) for w in walls_containing(UAA, v0, SPEC2)}
            exp = brute_force_walls_through(UAA, v0, SPEC2, 12)
            # brute force is box-limited; the library result is complete
            assert exp <= got
            for d, s in got:
                assert pairing(UAA, s, v0) == 0

    def test_negative_point_rejected(self, UA):
        with pytest.raises(NonPositiveVectorError):
            walls_containing(UA, (1, -1, 0), SPEC2)

    def test_boundary_point_rejected(self, U):
        with pytest.raises(NonPositiveVectorError):
            walls_containing(U, (1, 0), SPEC2)


class TestWallsNear:
    def test_candidates_oriented(self, UA):
        for w in walls_near(UA, (5, 3, 2), SPEC2, 6):
            assert 1 <= pairing(UA, w.vector, (5, 3, 2)) <= 6
            assert w.square == -2

    def test_complete_against_brute_force(self, UA):
        got = {w.vector for w in walls_near(UA, (5, 3, 2), SPEC2, 4)}
        exp = set()
        for s in vectors_of_square(UA, -2, 30):
            if gcd(*s) == 1 and 1 <= pairing(UA, s, (5, 3, 2)) <= 4:
                exp.add(s)
        assert got == exp


class TestWallSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            wall_spec([])

    def test_rejects_non_negative(self):
        with pytest.raises(ValidationError):
            wall_spec([-2, 0])

    @pytest.mark.parametrize("squares", [(), (-2, 0), -2, None, [-2.0], ["-2"]])
    def test_direct_construction_is_checked(self, squares):
        with pytest.raises(ValidationError):
            WallSpec(squares=squares)

    def test_normalizes(self):
        spec = wall_spec([-4, -2, -4])
        assert spec.squares == (-4, -2)

    def test_direct_construction_normalizes(self):
        # the squares are a set: order, repeats and the iterable's type do not
        # matter, so equal specs are one cache key
        assert WallSpec((-4, -2, -4)).squares == (-4, -2)
        assert WallSpec((-4, -2)) == WallSpec((-2, -4)) == WallSpec(iter([-2, -4, -2])) == wall_spec([-2, -4])
        assert hash(WallSpec((-4, -2))) == hash(WallSpec([-2, -4, -4]))
        assert WallSpec([-2]) == WallSpec((-2, -2)) == SPEC2

    def test_reflectivity_predicate(self, UA):
        assert is_reflective(UA, (0, 0, 1))
        L = make_lattice([[-4, 1], [1, 0]])
        assert not is_reflective(L, (1, 0))
        # a spec is reflective iff each of its walls reflects on every lattice
        specs = [WallSpec([-2]), WallSpec([-1, -2]), WallSpec([-4], require_reflective=True),
                 WallSpec([-4]), WallSpec([-2, -4])]
        assert [spec.reflective for spec in specs] == [True, True, True, False, False]
        with pytest.raises(AttributeError):
            specs[0].reflective = False


# ---------------------------------------------------------------------------
# property tests against the box scans

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def posdef_grams(draw):
    """A^T A + diag(1..2): positive definite, every eigenvalue >= 1."""
    n = draw(st.integers(0, 4))
    a = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.integers(1, 2)) for _ in range(n)]
    return tuple(
        tuple(sum(a[k][i] * a[k][j] for k in range(n)) + (diag[i] if i == j else 0) for j in range(n))
        for i in range(n)
    )


@PROPERTY
@given(st.data())
def test_posdef_enumeration_matches_box_scan(data):
    G = data.draw(posdef_grams())
    n = len(G)
    center = tuple(data.draw(st.fractions(-2, 2, max_denominator=4)) for _ in range(n))
    lo = data.draw(st.fractions(-2, 8, max_denominator=3))
    hi = lo + data.draw(st.fractions(0, 6, max_denominator=3))
    form = _PosDefForm(*core._symmetric_bareiss(G))
    # center = C/D over one denominator; D^2 Q(x + C/D) is an integer
    D = lcm(*(c.denominator for c in center))
    C = tuple(int(c * D) for c in center)
    got = list(form.enumerate(C, D, ceil(D * D * lo), floor(D * D * hi)))
    assert len(got) == len(set(got))
    expected = posdef_box_scan(G, center, lo, hi)
    assert sorted(got) == sorted(expected)
    if expected:
        # an attained exact target, as the wall searches ask for
        x = data.draw(st.sampled_from(expected))
        y = [x[i] + center[i] for i in range(n)]
        target = sum(y[i] * G[i][j] * y[j] for i in range(n) for j in range(n))
        exact = list(form.enumerate(C, D, int(D * D * target), int(D * D * target)))
        assert x in exact and len(exact) == len(set(exact))
        assert sorted(exact) == sorted(posdef_box_scan(G, center, target, target))


@PROPERTY
@given(posdef_grams(), st.integers(-2, 8), st.integers(0, 6))
def test_half_ball_and_its_negatives_are_the_ball(G, lo, width):
    # one point of each +- pair, and 0 when the ball holds it
    form = _PosDefForm(*core._symmetric_bareiss(G))
    zero = (0,) * len(G)
    full = list(form.enumerate(zero, 1, lo, lo + width))
    half = list(form.enumerate(zero, 1, lo, lo + width, half=True))
    negatives = [tuple(-c for c in x) for x in half]
    both = set(half + negatives)
    assert len(both) == len(half) + len(negatives) - (zero in half)
    assert both == set(full)
    # the half ball keeps the full ball's order
    kept = set(half)
    assert half == [x for x in full if x in kept]
    assert all(next(c for c in reversed(x) if c) > 0 for x in half if x != zero)


@PROPERTY
@given(st.data())
def test_posdef_enumeration_with_a_cut_matches_box_scan(data):
    G = data.draw(posdef_grams())
    n = len(G)
    center = tuple(data.draw(st.fractions(-2, 2, max_denominator=4)) for _ in range(n))
    lo = data.draw(st.fractions(-2, 8, max_denominator=3))
    hi = lo + data.draw(st.fractions(0, 6, max_denominator=3))
    D = lcm(*(c.denominator for c in center))
    C = tuple(int(c * D) for c in center)
    box = posdef_box_scan(G, center, lo, hi)
    if box and data.draw(st.booleans()):
        # an attained exact target, as the wall searches ask for
        x = data.draw(st.sampled_from(box))
        y = [x[i] + center[i] for i in range(n)]
        lo = hi = sum(y[i] * G[i][j] * y[j] for i in range(n) for j in range(n))
        box = posdef_box_scan(G, center, lo, hi)
    form = _PosDefForm(*core._symmetric_bareiss(G))
    for h in ((0,) * n, data.draw(st.tuples(*[st.integers(-3, 3)] * n))):
        sides = {x: sum(h[i] * (D * x[i] + C[i]) for i in range(n)) for x in box}
        values = sorted(set(sides.values())) or [0]
        # every attained h.z, whose points lie on the cut and are excluded,
        # and one past either end, where the cut keeps every point or none
        for thr in (values[0] - 1, *values, values[-1] + 1):
            cut = (form.linear(h), thr)
            got = list(form.enumerate(C, D, ceil(D * D * lo), floor(D * D * hi), cut))
            assert len(got) == len(set(got))
            assert sorted(got) == sorted(x for x in box if sides[x] < thr), (h, thr)


@st.composite
def skewed_hyperbolic(draw):
    """U^T diag(p, -a[, -b]) U for a unimodular U, with two positive classes
    of one component drawn in the diagonal basis and mapped to the skewed one."""
    diag = [draw(st.integers(1, 4))] + [-draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 2)))]
    n = len(diag)
    u = [list(row) for row in core.identity_matrix(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        for row in u:
            row[i] += k * row[j]
    G = tuple(tuple(sum(u[t][i] * diag[t] * u[t][j] for t in range(n)) for j in range(n)) for i in range(n))
    u_inv = rational_inverse(u)

    def positive():
        tail = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
        head = isqrt(sum(-d * x * x for d, x in zip(diag[1:], tail)) // diag[0]) + 1 + draw(st.integers(0, 1))
        return core.as_int_vector(core.mat_vec(u_inv, [head] + tail))

    return make_lattice(G), positive(), positive()


@PROPERTY
@given(skewed_hyperbolic(), st.lists(st.sampled_from([-1, -2, -4]), min_size=1, unique=True), st.booleans())
def test_separating_walls_match_brute_force_on_skewed_bases(case, squares, reflective):
    L, v0, v1 = case
    spec = wall_spec(squares, require_reflective=reflective)
    box = wall_box_bound(L, v0, v1, spec.squares)
    got = {(w.square, w.vector) for w in separating_walls(L, v0, v1, spec)}
    assert got == brute_force_separating(L, v0, v1, spec, box)


@PROPERTY
@given(skewed_hyperbolic(), st.lists(st.sampled_from([-1, -2, -4]), min_size=1, unique=True), st.booleans(),
       st.integers(1, 3))
def test_walls_near_and_containing_match_brute_force_on_skewed_bases(case, squares, reflective, max_pairing):
    L, v, _ = case
    v = core.primitive_integral(v)
    spec = wall_spec(squares, require_reflective=reflective)
    box = near_box_bound(L, v, spec.squares, max_pairing)
    got = {(w.square, w.vector) for w in walls_near(L, v, spec, max_pairing)}
    assert got == brute_force_walls_near(L, v, spec, max_pairing, box)
    through = {(w.square, w.vector) for w in walls_containing(L, v, spec)}
    assert through == brute_force_walls_through(L, v, spec, box)
