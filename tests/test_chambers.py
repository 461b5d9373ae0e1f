import random
from fractions import Fraction
from itertools import permutations

import pytest

from mbmlat import chambers, core, enumeration
from mbmlat.chambers import (
    DEFAULT_SEARCH_BOUND,
    Chamber,
    chamber_at,
    encode_flag,
    explore_tessellation,
    facet_walls,
    reduce_to_base,
    same_chamber,
)
from mbmlat.core import make_lattice, pairing, square
from mbmlat.enumeration import (
    Wall,
    is_reflective,
    learn_chamber,
    separating_walls,
    wall_spec,
    walls_containing,
    walls_near,
)
from mbmlat.errors import (
    FlagChainError,
    ReductionInvariantError,
    ValidationError,
    WallIncidenceError,
)
from mbmlat.orbits import reflection
from oracles import form, random_positive_pair, rational_projection, repair_decisions

SPEC2 = wall_spec([-2])

# wall-free bases, verified by test_bases_are_wall_free below
BASE = {"U": (2, 1), "U+A1m2": (5, 3, 2), "U+A1m2+A1m2": (3, 4, 1, 1), "A1p2+A1m2": (2, 1)}


@pytest.fixture
def lattices(U, UA, UAA, P22):
    return {"U": U, "U+A1m2": UA, "U+A1m2+A1m2": UAA, "A1p2+A1m2": P22}


def _spy_walls_containing(monkeypatch):
    """The points walls_containing is asked about from now on, at both of
    its binding sites; the cached answers are forgotten first."""
    calls = []
    real = enumeration.walls_containing
    for module in (enumeration, chambers):
        monkeypatch.setattr(module, "walls_containing", lambda L, v, spec: calls.append(tuple(v)) or real(L, v, spec))
    chambers._walls_through.cache_clear()
    chambers._mirror.cache_clear()
    return calls


def test_bases_are_wall_free(lattices):
    for name, L in lattices.items():
        assert walls_containing(L, BASE[name], SPEC2) == [], name


class TestSameChamber:
    def test_identical(self, UA):
        assert same_chamber(UA, (1, 1, 0), (1, 1, 0), SPEC2)

    def test_same(self, UA):
        assert same_chamber(UA, (1, 1, 0), (2, 1, 0), SPEC2)

    def test_different(self, UA):
        assert not same_chamber(UA, (1, 1, 0), (3, 2, 2), SPEC2)


class TestReduceToBase:
    def test_already_in_chamber(self, UA):
        res = reduce_to_base(UA, (2, 1, 0), (1, 1, 0), SPEC2)
        assert res.word == ()
        assert res.image == (2, 1, 0)

    def test_single_reflection_involution(self, UA):
        base = BASE["U+A1m2"]
        v = core.reflect_vector(UA, base, (0, 1, 1))
        res = reduce_to_base(UA, v, base, SPEC2)
        assert [w.unsigned().vector for w in res.word] == [(0, 1, 1)]
        assert res.image == base

    def test_worked_example_two_steps(self, UA):
        # the separating set of ((1,1,0),(3,2,2)) is {(0,1,1),(1,0,1)},
        # so the greedy reduction takes two strictly decreasing steps
        res = reduce_to_base(UA, (3, 2, 2), (1, 1, 0), SPEC2)
        assert [w.vector for w in res.word] == [(0, 1, 1), (1, 0, 1)]
        assert res.image == (2, 1, 0)
        assert same_chamber(UA, res.image, (1, 1, 0), SPEC2)

    def test_word_recovers_chamber(self, UA):
        base = BASE["U+A1m2"]
        rng = random.Random(41)
        for _ in range(15):
            v, _ = random_positive_pair(UA, rng)
            if walls_containing(UA, v, SPEC2):
                continue
            res = reduce_to_base(UA, v, base, SPEC2)
            # applying the word in reverse to the image recovers v
            back = res.image
            for w in reversed(res.word):
                back = core.reflect_vector(UA, back, w.vector)
            assert back == v

    def test_strict_decrease_sequence(self, UAA):
        base = BASE["U+A1m2+A1m2"]
        rng = random.Random(43)
        for _ in range(15):
            v, _ = random_positive_pair(UAA, rng)
            if walls_containing(UAA, v, SPEC2):
                continue
            counts = [len(separating_walls(UAA, base, v, SPEC2))]
            res = reduce_to_base(UAA, v, base, SPEC2)
            cur = v
            for w in res.word:
                cur = core.reflect_vector(UAA, cur, w.vector)
                counts.append(len(separating_walls(UAA, base, cur, SPEC2)))
            assert counts == sorted(counts, reverse=True)
            assert len(set(counts)) == len(counts)
            assert counts[-1] == 0

    def test_derived_separating_sets_equal_fresh_searches(self, monkeypatch):
        # from a wall-free base, each step's next separating set is derived,
        # not searched for, and must equal a fresh search; from a base on a
        # wall every step searches.  Either way the word and image must
        # equal those of the greedy reduction that searches before every step
        seen = dict.fromkeys(("on-wall base", "wall-free base", "rational v", "derived set",
                              "searched step", "rational image"), 0)
        derived = []
        real = chambers._reflected_sep

        def spy(cur, *args):
            derived.append((cur, real(cur, *args)))
            return derived[-1][1]

        monkeypatch.setattr(chambers, "_reflected_sep", spy)
        rng = random.Random(59)
        for name, (summands, wall_free) in REDUCTION_LATTICES.items():
            L = make_lattice(core.direct_sum(core.U_GRAM, *summands))
            for spec in REDUCTION_SPECS:
                for base, v in _reduction_inputs(L, wall_free, spec, rng):
                    derived.clear()
                    try:
                        res = reduce_to_base(L, v, base, spec)
                        got = (res.word, res.image)
                    except ReductionInvariantError:
                        got = ReductionInvariantError
                    assert got == _greedy_by_search(L, v, base, spec), (name, spec, base, v)
                    for cur, out in derived:
                        assert out == separating_walls(L, base, cur, spec), (name, spec, base, v, cur)
                    on_wall = bool(walls_containing(L, base, spec))
                    assert not (on_wall and derived), (name, spec, base, v)
                    seen["on-wall base"] += on_wall
                    seen["wall-free base"] += not on_wall
                    seen["rational v"] += any(isinstance(c, Fraction) for c in v)
                    seen["derived set"] += len(derived)
                    if got is not ReductionInvariantError:
                        seen["searched step"] += len(got[0]) > len(derived)
                        seen["rational image"] += any(c.denominator != 1 for c in got[1])
        assert min(seen.values()) > 0, seen

    def test_one_search_per_reduction_and_mirror(self, UAA, monkeypatch):
        # a reduction searches once, plus once per reflecting wall not seen
        # before from this base
        base = BASE["U+A1m2+A1m2"]
        chambers._mirror.cache_clear()
        calls = []
        real = chambers.separating_walls
        monkeypatch.setattr(chambers, "separating_walls", lambda *args: calls.append(args) or real(*args))
        rng = random.Random(61)
        words = []
        while len(words) < 12:
            v, _ = random_positive_pair(UAA, rng)
            if pairing(UAA, v, base) > 0:
                words.append(reduce_to_base(UAA, v, base, SPEC2).word)
        mirrors = {s for word in words for s in word}
        assert len(calls) == len(words) + len(mirrors) < len(words) + sum(map(len, words))

    def test_a_base_is_searched_for_walls_once(self, UAA, fincke_pohst, monkeypatch):
        # the first reduction certifies the base chamber from its facets; the
        # base is searched for walls once for that and for every mirror
        base = BASE["U+A1m2+A1m2"]
        calls = _spy_walls_containing(monkeypatch)
        rng = random.Random(61)
        words = []
        while len(words) < 12:
            v, _ = random_positive_pair(UAA, rng)
            if pairing(UAA, v, base) > 0:
                words.append(reduce_to_base(UAA, v, base, SPEC2).word)
        assert enumeration._chambers[UAA, SPEC2] is not None
        assert len({s for word in words for s in word}) > 1
        assert calls == [base]


# lattices U + X for the reduction property test, by their summands X,
# with a base point on no wall of square -2 or -4
REDUCTION_LATTICES = {
    "U+A1m2": ([[[-2]]], (3, 4, -1)),
    "U+A1m2+A1m2": ([[[-2]], [[-2]]], (5, 8, -2, -1)),
    "U+m2+m4": ([[[-2]], [[-4]]], (5, 6, -2, -2)),
    "U+A2m1": ([[[-2, 1], [1, -2]]], (5, 6, -2, -2)),
}
# with {-4}, most lattices above have no reflective wall, so each step
# searches again and images of integral v can be rational
REDUCTION_SPECS = (wall_spec([-2]), wall_spec([-2, -4]), wall_spec([-2, -4], True), wall_spec([-4]))


def _greedy_by_search(L, v, base, spec):
    """(word, image) of the greedy reduction that searches for the separating
    set before every step, or ReductionInvariantError if the count does not
    drop."""
    cur, word = tuple(v), []
    sep = separating_walls(L, base, cur, spec)
    while sep:
        word.append(sep[0])
        cur = core.reflect_vector(L, cur, sep[0].vector)
        nxt = separating_walls(L, base, cur, spec)
        if len(nxt) >= len(sep):
            return ReductionInvariantError
        sep = nxt
    return tuple(word), cur


def _reduction_inputs(L, base, spec, rng, count=10):
    """Pairs (b, v) of positive classes in one component: b is the wall-free
    base or, for every other pair, its projection onto a spec wall; every
    third v is rational."""
    pairs = []
    while len(pairs) < count:
        b = base
        if len(pairs) % 2:
            s = tuple(rng.randint(-2, 2) for _ in range(L.rank))
            if square(L, s) not in spec.squares:
                continue
            # the projection of base onto s^perp, scaled by -q(s, s) > 0
            b = core.primitive_integral(tuple(-square(L, s) * x + pairing(L, base, s) * y for x, y in zip(base, s)))
        v = random_positive_pair(L, rng)[0]
        if len(pairs) % 3 == 2:
            v = tuple(Fraction(c, 3) + Fraction(1, 2) for c in v)
        if square(L, v) > 0 and pairing(L, b, v) != 0:
            pairs.append((b, v if pairing(L, b, v) > 0 else tuple(-c for c in v)))
    return pairs


def _reduces_as_by_search(L, base, spec, rng, count=10):
    """reduce_to_base from ``base`` answers count random positive classes
    of its component as the reduction that searches before every step, with
    ReductionInvariantError where that one finds the count not dropping."""
    done = 0
    while done < count:
        v = random_positive_pair(L, rng)[0]
        if pairing(L, v, base) < 0:
            v = tuple(-c for c in v)
        if pairing(L, v, base) > 0:
            try:
                res = reduce_to_base(L, v, base, spec)
                got = (res.word, res.image)
            except ReductionInvariantError:
                got = ReductionInvariantError
            assert got == _greedy_by_search(L, v, base, spec), v
            done += 1


class TestChamberCertificate:
    """reduce_to_base certifies the chamber of its first wall-free base for a
    reflective spec, once per (L, spec).  Where no certificate is made, none
    is recorded and the reduction answers as before."""

    def test_certified_once(self, UAA, fincke_pohst, monkeypatch):
        calls = []
        real = chambers.facet_walls
        monkeypatch.setattr(chambers, "facet_walls", lambda *args: calls.append(args) or real(*args))
        _reduces_as_by_search(UAA, BASE["U+A1m2+A1m2"], SPEC2, random.Random(67))
        _reduces_as_by_search(UAA, (5, 8, -2, -1), SPEC2, random.Random(67))
        assert len(calls) == 1
        assert [t.vector for t in enumeration._chambers[UAA, SPEC2].facets] == [
            (0, 0, -1, 0), (0, 0, 0, -1), (0, 1, 0, 1), (0, 1, 1, 0), (1, -1, 0, 0)]

    def test_non_reflective_spec_is_not_tried(self, UAA, fincke_pohst, monkeypatch):
        # the facets-mixed spec: walls of square -4 need not reflect integrally
        spec = wall_spec([-2, -4])
        monkeypatch.setattr(chambers, "facet_walls", None)
        _reduces_as_by_search(UAA, (5, 8, -2, -1), spec, random.Random(71))
        assert enumeration._chambers[UAA, spec] is None

    def test_base_on_a_wall_is_not_used(self, UAA, fincke_pohst):
        base = (1, 1, 0, 0)
        assert walls_containing(UAA, base, SPEC2)
        _reduces_as_by_search(UAA, base, SPEC2, random.Random(73))
        assert (UAA, SPEC2) not in enumeration._chambers
        # a later wall-free base makes the one attempt
        reduce_to_base(UAA, BASE["U+A1m2+A1m2"], BASE["U+A1m2+A1m2"], SPEC2)
        assert enumeration._chambers[UAA, SPEC2] is not None

    def test_a_dropped_facet_fails_the_cone_test(self, UA, UAA, fincke_pohst):
        for L, name in ((UA, "U+A1m2"), (UAA, "U+A1m2+A1m2")):
            base = BASE[name]
            facets = [f.supporting_wall for f in facet_walls(L, chamber_at(L, base, spec=SPEC2)).faces]
            for i in range(len(facets)):
                learn_chamber(L, SPEC2, base, facets[:i] + facets[i + 1:])
                assert enumeration._chambers[L, SPEC2] is None, (name, facets[i])
            learn_chamber(L, SPEC2, base, facets)
            assert enumeration._chambers[L, SPEC2] is not None

    def test_a_single_wall_is_not_pointed(self, P22, fincke_pohst):
        _reduces_as_by_search(P22, BASE["A1p2+A1m2"], SPEC2, random.Random(79))
        assert enumeration._chambers[P22, SPEC2] is None

    def test_a_descent_step_must_lower_the_height(self, UA, fincke_pohst):
        base = BASE["U+A1m2"]
        reduce_to_base(UA, base, base, SPEC2)
        ch = enumeration._chambers[UA, SPEC2]
        # the same mirror with the outward orientation: base itself violates it
        t, g = ch.facets[0], ch.grams[0]
        bad = type(ch)((Wall(vector=tuple(-c for c in t.vector), square=t.square),) + ch.facets[1:],
                       (tuple(-c for c in g),) + ch.grams[1:], ch.gbase)
        height, pairings = bad.pairings(base, 1)
        with pytest.raises(ReductionInvariantError):
            list(bad.inversions(pairings, height, pairings))


class TestReflectionProperties:
    def test_reflection_is_isometry_and_fixes_wall(self, UA):
        r = reflection(UA, (0, 1, 1))
        rng = random.Random(47)
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            assert pairing(UA, r.apply(v), r.apply(w)) == pairing(UA, v, w)
        # fixes a basis of the orthogonal complement pointwise
        for b in core.hyperplane_basis(UA, (0, 1, 1))[2]:
            assert r.apply(b) == b
        assert r.apply((0, 1, 1)) == (0, -1, -1)


class TestFacetWalls:
    def test_base_chamber_facets(self, UA):
        ch = chamber_at(UA, BASE["U+A1m2"], spec=SPEC2)
        res = facet_walls(UA, ch, search_bound=24)
        assert res.complete
        got = [f.supporting_wall.vector for f in res.faces]
        assert got == [(-1, 0, -1), (0, 1, 1), (2, 0, 1)]
        for f in res.faces:
            m = f.witness_on_wall
            assert pairing(UA, f.supporting_wall.vector, m) == 0
            assert square(UA, m) > 0
            for g in res.faces:
                if g is not f:
                    assert pairing(UA, g.supporting_wall.vector, m) > 0

    def test_a_deep_witness_lies_beyond_its_facets_bound(self, UAA):
        # the premise of the pin below
        deep, near = (91, 120, 30, 30), BASE["U+A1m2+A1m2"]
        assert same_chamber(UAA, deep, near, SPEC2)
        faces = facet_walls(UAA, chamber_at(UAA, near, spec=SPEC2)).faces
        assert sorted(pairing(UAA, f.supporting_wall.vector, deep) for f in faces) == [29, 31, 31, 60, 60]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP items 3-4: candidates are complete only up to search_bound, so the "
                              "chamber of a deep witness is reported complete with no facets")
    def test_a_deep_witness_has_the_facets_of_its_chamber(self, UAA):
        deep, near = (91, 120, 30, 30), BASE["U+A1m2+A1m2"]
        got, want = (facet_walls(UAA, chamber_at(UAA, w, spec=SPEC2)) for w in (deep, near))
        assert [f.supporting_wall for f in got.faces] == [f.supporting_wall for f in want.faces]

    def test_no_minus_two_classes_means_no_facets(self):
        # 2a^2 - 8b^2 = -2 has no integer solutions (a^2 = 4b^2 - 1 fails
        # mod 4), so the chamber is the whole positive cone
        L = make_lattice(core.direct_sum([[2]], [[-8]]))
        ch = chamber_at(L, (1, 0), spec=SPEC2)
        res = facet_walls(L, ch, search_bound=16)
        assert res.complete
        assert res.faces == ()

    def test_rank4_orthogonal_pair_facets(self, UAA):
        ch = chamber_at(UAA, BASE["U+A1m2+A1m2"], spec=SPEC2)
        res = facet_walls(UAA, ch, search_bound=20)
        walls = {f.supporting_wall.unsigned().vector for f in res.faces}
        assert (0, 0, 1, 0) in walls
        assert (0, 0, 0, 1) in walls

    def test_facet_criterion_matches_adjacency(self, UA):
        # crossing a facet lands in a chamber separated by that wall alone
        ch = chamber_at(UA, BASE["U+A1m2"], spec=SPEC2)
        for f in facet_walls(UA, ch, search_bound=24).faces:
            mirror = core.reflect_vector(UA, ch.witness, f.supporting_wall.vector)
            sep = separating_walls(UA, ch.witness, mirror, SPEC2)
            assert [w.unsigned() for w in sep] == [f.supporting_wall.unsigned()]

    def test_wall_incidence_rejected(self, UA):
        with pytest.raises(WallIncidenceError):
            chamber_at(UA, (1, 1, 0), spec=SPEC2)

    def test_witness_on_a_wall_rejected(self, UA):
        # (1, 1, 0) lies on the walls (0, 0, 1) and (1, -1, 0): a chamber built
        # without chamber_at's checks gets no facets from it
        with pytest.raises(WallIncidenceError):
            facet_walls(UA, Chamber(spec=SPEC2, witness=(1, 1, 0), crossing_set=()))

    def test_nonreflective_walls_in_mixed_spec(self, UAA):
        # the -4 walls of U+A1m2+A1m2 are not reflective, so their facet
        # decisions take the projection/certificate/repair path
        ch = chamber_at(UAA, (5, 8, -2, -1), spec=wall_spec([-2, -4]))
        res = facet_walls(UAA, ch)
        assert [(f.supporting_wall.vector, f.witness_on_wall) for f in res.faces] == [
            ((-1, 1, 1, 0), (19, 33, -7, -4)),
            ((0, -1, 1, 1), (20, 31, -7, -3)),
            ((1, -1, 0, -1), (21, 31, -8, -5)),
            ((0, 1, -1, 0), (10, 17, -5, -2)),
        ]
        assert [s.vector for s in res.undecided] == [
            (-1, 2, 0, 0), (0, 1, -1, 1), (1, -1, 0, 1), (1, -1, 1, 0), (1, 0, -1, -1), (1, 0, -1, 1),
        ]
        candidates = walls_near(UAA, ch.witness, ch.spec, DEFAULT_SEARCH_BOUND)
        for f in res.faces:
            assert pairing(UAA, f.supporting_wall.vector, f.witness_on_wall) == 0
            assert all(pairing(UAA, u.vector, f.witness_on_wall) > 0
                       for u in candidates if u != f.supporting_wall)

    def test_a_walk_that_never_repeats_ends_at_the_budget(self, UAA):
        # the repair walk for (1, -1, 0, 1) never comes back to a witness, so
        # that wall is undecided only because the walk runs out of budget
        res = facet_walls(UAA, chamber_at(UAA, (7, 9, 2, -3), spec=wall_spec([-2, -4])), search_bound=16)
        assert [s.vector for s in res.undecided] == [
            (-1, 1, -1, 0), (-1, 1, 0, 1), (-1, 2, 0, 0), (0, -1, -1, 1),
            (0, 1, -1, -1), (1, -1, -1, 0), (1, -1, 0, 1), (1, 0, -1, -1),
        ]
        assert len(res.faces) == 4

    @pytest.mark.parametrize("gram", [
        core.direct_sum(core.U_GRAM, [[-2]], [[-2]]),
        core.direct_sum(core.U_GRAM, [[-4]]),
        core.direct_sum(core.U_GRAM, [[-2]], [[-4]]),
    ], ids=["U+A1m2+A1m2", "U+<-4>", "U+<-2>+<-4>"])
    def test_repair_stop_keeps_every_decision(self, gram):
        # facet_walls stops a repair walk at its first repeated witness; the
        # oracle walks the whole budget, so their decisions must agree
        L, spec = make_lattice(gram), wall_spec([-2, -4])
        rng = random.Random(f"repair/{gram}")
        decided = []
        while len(decided) < 12:
            v = random_positive_pair(L, rng, 12)[0]
            if walls_containing(L, v, spec):
                continue
            ch = chamber_at(L, v, spec=spec)
            res = facet_walls(L, ch, search_bound=16)
            candidates = [u.vector for u in walls_near(L, ch.witness, spec, 16)]
            faces, undecided = repair_decisions(L.gram, ch.witness, candidates, chambers._REPAIR_BUDGET)
            assert [(f.supporting_wall.vector, f.witness_on_wall) for f in res.faces
                    if not is_reflective(L, f.supporting_wall.vector)] == faces, v
            assert [u.vector for u in res.undecided] == undecided, v
            decided.append((len(faces), len(undecided)))
        faces_total, undecided_total = map(sum, zip(*decided))
        assert faces_total > 0 and undecided_total > 0


class TestChamber:
    def test_crossing_set_matches_separating(self, UA):
        base = BASE["U+A1m2"]
        witness = (9, 3, 4)
        ch = chamber_at(UA, witness, base, SPEC2)
        exp = separating_walls(UA, base, witness, SPEC2)
        assert list(ch.crossing_set) == sorted(exp, key=lambda w: w.sort_key)

    def test_key_equal_iff_same_chamber(self, UA):
        base = BASE["U+A1m2"]
        rng = random.Random(53)
        points = []
        while len(points) < 12:
            v, _ = random_positive_pair(UA, rng)
            if pairing(UA, v, base) < 0:
                v = tuple(-c for c in v)
            if pairing(UA, v, base) <= 0:
                continue
            if not walls_containing(UA, v, SPEC2):
                points.append(v)
        for v in points:
            for w in points:
                kv = chamber_at(UA, v, base, SPEC2).key
                kw = chamber_at(UA, w, base, SPEC2).key
                assert (kv == kw) == same_chamber(UA, v, w, SPEC2)

    def test_each_point_is_checked_for_walls_once(self, UA, monkeypatch):
        # a witness that is its own base is checked once; the base chamber's
        # facet_walls is the only check that explore_tessellation makes
        calls = []
        real = chambers._ensure_wall_free
        monkeypatch.setattr(chambers, "_ensure_wall_free", lambda *args: calls.append(args[1]) or real(*args))
        base = BASE["U+A1m2"]
        explore_tessellation(UA, base, SPEC2, 0)
        assert calls == [base]
        calls.clear()
        chamber_at(UA, (9, 3, 4), spec=SPEC2)
        assert calls == [(9, 3, 4)]
        calls.clear()
        chamber_at(UA, (9, 3, 4), base, SPEC2)
        assert calls == [(9, 3, 4), base]

    def test_chamber_at_then_facet_walls_searches_each_point_once(self, UA, monkeypatch):
        base, w = BASE["U+A1m2"], (9, 3, 4)
        calls = _spy_walls_containing(monkeypatch)
        facet_walls(UA, chamber_at(UA, w, base, SPEC2))
        assert calls == [w, base]


class TestEncodeFlag:
    def test_single_entry(self, UA):
        f = encode_flag(UA, [(0, 0, 1)], SPEC2)
        assert f.depth == 1
        e = f.entries[0]
        assert e.vector == (0, 0, 1)
        assert e.square == -2
        assert e.unscaled_square == -2

    def test_orthogonal_pair_attains_minus_eight(self, UAA):
        f = encode_flag(UAA, [(0, 0, 1, 0), (0, 0, 0, 1)], SPEC2)
        assert f.depth == 2
        second = f.entries[1]
        assert second.unscaled == (0, 0, 0, -2)
        assert second.unscaled_square == -8
        assert second.vector == (0, 0, 0, 1)
        assert second.square == -2
        assert second.orientation == -1

    def test_isotropic_projection_rejected(self, UA):
        with pytest.raises(FlagChainError):
            encode_flag(UA, [(0, 0, 1), (0, 1, 1)], SPEC2)

    def test_entries_mutually_orthogonal(self, UAA):
        f = encode_flag(UAA, [(0, 0, 1, 0), (1, -1, 0, 0), (0, 0, 0, 1)], SPEC2)
        vs = [e.vector for e in f.entries]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert pairing(UAA, vs[i], vs[j]) == 0

    def test_unscaled_is_scaled_iterated_projection(self, UAA):
        # entry k's unscaled vector is the product of the earlier entries'
        # squares times the rational projection off the earlier entries
        chain = [(1, -1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)]
        f = encode_flag(UAA, chain, SPEC2)
        scale = 1
        for k, x in enumerate(chain):
            for e in f.entries[:k]:
                x = rational_projection(UAA.gram, x, e.vector)
            entry = f.entries[k]
            assert all(type(c) is int for c in entry.unscaled)
            assert entry.unscaled == tuple(scale * c for c in x)
            assert entry.unscaled_square == form(UAA.gram, entry.unscaled, entry.unscaled) < 0
            scale *= entry.square
        assert [e.unscaled for e in f.entries] == [(1, -1, 0, 0), (-1, -1, -2, 0), (8, 8, 4, 12)]

    @pytest.mark.parametrize("gram, base, squares", [
        (core.direct_sum(core.U_GRAM, [[-2]], [[-2]]), (3, 4, 1, 1), [-2]),
        (core.direct_sum(core.U_GRAM, [[-2]], [[-4]]), (3, 7, 1, 1), [-2, -4]),
    ], ids=["U+A1m2+A1m2", "U+<-2>+<-4>"])
    def test_pair_is_a_flag_iff_its_gram_matrix_is_definite(self, gram, base, squares):
        # the second entry of (s_i, s_j) is p = q_ii s_j - q_ij s_i, with
        # q(p, p) = q_ii (q_ii q_jj - q_ij^2), so the pair is rejected iff
        # q_ij^2 >= q_ii q_jj: the rule the census applies without encoding
        L, spec = make_lattice(gram), wall_spec(squares)
        facets = [f.supporting_wall.vector for f in facet_walls(L, chamber_at(L, base, spec=spec)).faces]
        rejected = 0
        for s, t in permutations(facets, 2):
            if pairing(L, s, t) ** 2 >= square(L, s) * square(L, t):
                rejected += 1
                with pytest.raises(FlagChainError):
                    encode_flag(L, [s, t], spec)
            else:
                assert encode_flag(L, [s, t], spec).depth == 2
        assert 0 < rejected < len(facets) * (len(facets) - 1)

    def test_non_spec_square_rejected(self, UA):
        with pytest.raises(ValidationError):
            encode_flag(UA, [(1, -2, 0)], SPEC2)  # square -4


class TestExploreTessellation:
    def test_depth_zero(self, UA):
        g = explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 0)
        assert len(g.nodes) == 1
        assert g.edges == ()
        assert g.nodes[0].key == ()

    def test_depth_one_edge_count_equals_facets(self, UA):
        g = explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 1)
        base_node = g.nodes[0]
        assert len(g.edges) == len(base_node.facets) == 3
        assert len(g.nodes) == 4

    def test_edges_cross_exactly_one_wall(self, UAA):
        g = explore_tessellation(UAA, BASE["U+A1m2+A1m2"], SPEC2, 2, search_bound=20)
        by_key = {n.key: n for n in g.nodes}
        for e in g.edges:
            na, nb = by_key[e.a], by_key[e.b]
            sep = separating_walls(UAA, na.witness, nb.witness, SPEC2)
            assert [w.unsigned() for w in sep] == [e.wall]
            # keys of adjacent chambers differ by exactly that wall
            diff = set(na.key) ^ set(nb.key)
            assert len(diff) == 1
            ((d, vec),) = diff
            assert d == e.wall.square
            assert core.sign_normalize(vec) == e.wall.vector

    def test_crossing_must_change_the_key_by_one_wall(self, UA, monkeypatch):
        # a separating search that drops a wall leaves every crossed
        # chamber with the base's key: the run-time adjacency check fires
        real = chambers.separating_walls
        monkeypatch.setattr(chambers, "separating_walls", lambda *args: real(*args)[1:])
        with pytest.raises(ReductionInvariantError, match="not by that one wall"):
            explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 1)

    @pytest.mark.parametrize("name, squares, base, fallback", [
        ("U+A1m2", [-2], BASE["U+A1m2"], False),
        ("U+A1m2+A1m2", [-2], BASE["U+A1m2+A1m2"], False),
        # the -4 walls are not reflective and some stay undecided in every
        # chamber, so no facets are transported: each node searches its own
        ("U+A1m2+A1m2", [-2, -4], (5, 8, -2, -1), True),
    ])
    def test_transported_facets_are_sound(self, lattices, name, squares, base, fallback):
        L, spec = lattices[name], wall_spec(squares)
        g = explore_tessellation(L, base, spec, 2)
        assert len(g.nodes) > 1
        assert all(n.undecided for n in g.nodes) == fallback
        for node in g.nodes:
            direct = facet_walls(L, chamber_at(L, node.witness, spec=spec))
            faces = {f.supporting_wall for f in direct.faces}
            assert faces <= set(node.facets) <= faces | set(direct.undecided)
            if not direct.undecided:
                assert node.facets == tuple(f.supporting_wall for f in direct.faces)
            assert node.undecided == (direct.undecided if fallback else ())

    def test_nonreflective_facets_are_not_transported(self):
        # every facet of the base chamber is a wall of square -4 whose
        # reflection is not integral, so each depth-1 chamber, reached
        # across one, searches for its own facets
        L, spec = make_lattice(core.direct_sum(core.U_GRAM, [[-4]])), wall_spec([-2, -4])
        base, *children = explore_tessellation(L, (5, 3, 1), spec, 1).nodes
        assert base.undecided == () and len(base.facets) == len(children) == 3
        assert not any(is_reflective(L, s.vector) for s in base.facets)
        for node in children:
            direct = facet_walls(L, chamber_at(L, node.witness, spec=spec))
            assert node.facets == tuple(f.supporting_wall for f in direct.faces)
            assert node.undecided == direct.undecided

    @pytest.mark.xfail(strict=True, raises=ReductionInvariantError,
                       reason="the crossing of the non-reflective facet (2, -1, 0, 0) out of the "
                              "chamber of (18, 14, 1, 3) changes its key by two walls")
    def test_crossing_a_nonreflective_facet(self):
        L, spec = make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-4]])), wall_spec([-2, -4])
        g = explore_tessellation(L, (19, 14, 1, 4), spec, 1)
        assert len(g.nodes) == 6 and any(n.undecided for n in g.nodes)
        explore_tessellation(L, (19, 14, 1, 4), spec, 2)

    def test_base_on_wall_rejected(self, UA):
        with pytest.raises(WallIncidenceError):
            explore_tessellation(UA, (1, 1, 0), SPEC2, 1)

    def test_deterministic(self, UA):
        g1 = explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 2)
        g2 = explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 2)
        assert g1.to_dot() == g2.to_dot()
        assert g1.to_json_dict() == g2.to_json_dict()

    def test_dot_shape(self, UA):
        g = explore_tessellation(UA, BASE["U+A1m2"], SPEC2, 1)
        dot = g.to_dot()
        assert dot.startswith("graph tessellation {")
        assert dot.rstrip().endswith("}")
        assert dot.count("--") == len(g.edges)
