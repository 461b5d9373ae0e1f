import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import mul

import pytest

from mbmlat import chambers, core, orbits
from mbmlat.chambers import chamber_at, encode_flag, explore_tessellation, facet_walls
from mbmlat.core import make_lattice, pairing, square
from mbmlat.enumeration import (
    Wall,
    WallSpec,
    definite_short_vectors,
    is_reflective,
    separating_walls,
    vectors_of_square,
    wall_spec,
    walls_near,
)
from mbmlat.errors import (
    BaseRepsError,
    FlagChainError,
    KernelRankError,
    NonIntegralReflectionError,
    RankMismatchError,
    ReductionInvariantError,
    ValidationError,
)
from mbmlat.orbits import (
    Isometry,
    _generator_matrices,
    _path_inverses,
    canonical_orbit_rep,
    check_square_bound_reflective,
    degenerate_split,
    face_orbit_census,
    facet_reflection_generators,
    isometry,
    kneser_degenerate_reps,
    orbit_key_mod_sign,
    reflection,
)
from oracles import (
    closure_classes,
    complement_part,
    degenerate_generator_set,
    form,
    isometries_in_box,
    kernel_functional,
    odd_coxeter_classes,
)

SPEC2 = wall_spec([-2])


@pytest.fixture(scope="module")
def Z0A():
    return make_lattice(core.direct_sum([[0]], [[-2]]), "Z0+A1m2")


@pytest.fixture(scope="module")
def Z0U():
    return make_lattice(core.direct_sum([[0]], core.U_GRAM), "Z0+U")


class TestIsometry:
    def test_validation_rejects_non_isometry(self, U):
        with pytest.raises(ValidationError):
            isometry(U, [[1, 1], [0, 1]])

    def test_closure_under_product_and_inverse(self, UA):
        r1 = reflection(UA, (0, 0, 1))
        r2 = reflection(UA, (1, -1, 0))
        prod = r1.compose(r2)  # r2 checked against UA, the product wrapped unchecked
        inv = prod.inverse()
        assert prod.compose(inv).matrix == core.identity_matrix(3)

    @pytest.mark.parametrize("case", ["foreign-reflection", "singular-rep", "singular-census", "compose-rank"])
    def test_generators_checked_against_the_lattice(self, U, UA, case):
        # an Isometry record is not checked on construction: the orbit functions
        # and compose check each one against their own lattice
        U2 = make_lattice(core.direct_sum([[2]], [[-2]], [[-2]]), "U2")
        singular = Isometry(UA, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
        with pytest.raises(ValidationError):
            if case == "foreign-reflection":  # unchecked, it maps (3,1,0) of square 6 to a (-2)-class
                canonical_orbit_rep(UA, (3, 1, 0), [reflection(U2, (0, 1, 1))])
            elif case == "singular-rep":
                canonical_orbit_rep(UA, (3, 1, 0), [singular])
            elif case == "singular-census":
                face_orbit_census(UA, (5, 3, 2), SPEC2, [singular], 0)
            else:
                isometry(U, [[0, 1], [1, 0]]).compose(reflection(UA, (0, 0, 1)))

    def test_inverse_of_a_singular_record_is_refused(self, U):
        with pytest.raises(ValidationError, match="determinant"):
            Isometry(U, ((1, 0), (0, 0))).inverse()

    def test_form_preserving_matrix_of_determinant_two_is_refused(self):
        # diag(2, 1) preserves <0> + <-2>, but is not invertible over Z
        with pytest.raises(ValidationError, match="determinant"):
            isometry(make_lattice([[0, 0], [0, -2]]), [[2, 0], [0, 1]])

    def test_apply_rejects_wrong_length(self, UA):
        with pytest.raises(RankMismatchError):
            reflection(UA, (0, 0, 1)).apply((1, 2))

    def test_square_invariance(self, UA):
        r = reflection(UA, (0, 1, 1))
        rng = random.Random(61)
        for _ in range(20):
            v = tuple(rng.randint(-6, 6) for _ in range(3))
            assert square(UA, r.apply(v)) == square(UA, v)


class TestReflection:
    def test_negates_class_fixes_complement(self, UA):
        r = reflection(UA, (0, 0, 1))
        assert r.apply((0, 0, 1)) == (0, 0, -1)
        assert r.apply((1, 0, 0)) == (1, 0, 0)
        assert r.apply((0, 1, 0)) == (0, 1, 0)

    def test_swap_in_u(self, U):
        r = reflection(U, (1, -1))
        assert r.apply((1, 0)) == (0, 1)
        assert r.apply((0, 1)) == (1, 0)

    def test_square_minus_four_summand_integral(self):
        L = make_lattice(core.direct_sum([[-4]], core.U_GRAM))
        r = reflection(L, (1, 0, 0))
        assert r.apply((1, 0, 0)) == (-1, 0, 0)

    def test_isotropic_class_rejected(self, U):
        with pytest.raises(ValidationError, match="isotropic"):
            reflection(U, (1, 0))

    def test_non_integral_names_basis_vector(self):
        # q(s,s) = -4 but q(e_1, s) = 1: 2*1 not divisible by 4
        L = make_lattice([[-4, 1], [1, 0]])
        with pytest.raises(NonIntegralReflectionError) as err:
            reflection(L, (1, 0))
        assert err.value.basis_index == 1

    def test_involution(self, UAA):
        r = reflection(UAA, (0, 0, 1, 0))
        assert r.compose(r).matrix == core.identity_matrix(4)

    @pytest.mark.parametrize("name, blocks", [("U+A1m2", [[[-2]]]), ("U+A2m1", [[[-2, 1], [1, -2]]]),
                                              ("U+m2+m4", [[[-2]], [[-4]]])])
    def test_reflection_row_is_the_reflection(self, name, blocks):
        # every class of these squares in the box: reflection_row is None exactly
        # where reflection raises, and otherwise r_s = I - s k^T on every point;
        # reflectivity and the reflection depend on the ray of s alone
        L = make_lattice(core.direct_sum(core.U_GRAM, *blocks), name)
        n, rng, kinds = L.rank, random.Random(name), set()
        for d in (-1, -2, -4, -6):
            for s in vectors_of_square(L, d, 2):
                k = core.reflection_row(s, core.gram_apply(L, s))
                kinds.add(k is None)
                assert is_reflective(L, tuple(2 * c for c in s)) == is_reflective(L, s) == (k is not None)
                if k is None:
                    with pytest.raises(NonIntegralReflectionError):
                        reflection(L, s)
                    continue
                assert reflection(L, s).matrix == tuple(tuple((i == j) - s[i] * k[j] for j in range(n))
                                                        for i in range(n))
                assert reflection(L, tuple(2 * c for c in s)) == reflection(L, s)
                for _ in range(3):
                    x = tuple(rng.randint(-9, 9) for _ in range(n))
                    for p in (x, tuple(Fraction(c, rng.randint(1, 4)) for c in x)):
                        c = sum(map(mul, k, p))
                        assert core.reflect_vector(L, p, s) == tuple(a - c * b for a, b in zip(p, s)), (s, p)
        assert kinds == {True, False}


# each call passes a float where the API takes an int or a Fraction; none may
# truncate it and answer for a nearby input, or fail with a bare TypeError
FLOAT_INPUTS = {
    "chamber_at witness": lambda L: chamber_at(L, (5.2, 3, 2), spec=SPEC2),
    "separating_walls point": lambda L: separating_walls(L, (5.5, 3, 2), (3, 9, 1), SPEC2),
    "encode_flag chain": lambda L: encode_flag(L, [(0, 0, 1.5)], SPEC2),
    "reflection class": lambda L: reflection(L, (0, 0, 1.5)),
    "canonical_orbit_rep class": lambda L: canonical_orbit_rep(L, (1.5, 0, 0), [reflection(L, (0, 0, 1))]),
    "wall_spec square": lambda L: wall_spec([-2.5]),
    "vectors_of_square target": lambda L: vectors_of_square(L, -2.5, 1),
    "vectors_of_square box": lambda L: vectors_of_square(L, -2, 1.5),
    "walls_near max_pairing": lambda L: walls_near(L, (5, 3, 2), SPEC2, 2.5),
    "facet_walls search_bound": lambda L: facet_walls(L, chamber_at(L, (5, 3, 2), spec=SPEC2), 2.5),
    "explore_tessellation depth": lambda L: explore_tessellation(L, (5, 3, 2), SPEC2, 1.5),
    "direct_sum block": lambda L: core.direct_sum(core.U_GRAM, [[-2.9]]),
    "is_positive point": lambda L: core.is_positive(L, (1.5, 1, 0), (1, 1, 0)),
    "is_reflective class": lambda L: is_reflective(L, (0, 0, 1.0)),
    "reflect_vector point": lambda L: core.reflect_vector(L, (1.5, 1, 0), (0, 1, 1)),
    "canonical_orbit_rep word_budget": lambda L: canonical_orbit_rep(L, (1, 0, 0), [reflection(L, (0, 0, 1))],
                                                                     word_budget=1.5),
    # depth 0 with the base facets' reflections keys every state by the Coxeter diagram: no descent runs
    "face_orbit_census word_budget": lambda L: face_orbit_census(L, (5, 3, 2), SPEC2, None, 0, word_budget=1.5),
}


@pytest.mark.parametrize("case", list(FLOAT_INPUTS))
def test_float_inputs_are_rejected(UA, case):
    with pytest.raises(ValidationError):
        FLOAT_INPUTS[case](UA)


# each call passes a bool where the API takes an int: a bool is not an int
# here, as int_matrix refuses one in a matrix
BOOL_INPUTS = {
    "facet_walls search_bound": lambda L: facet_walls(L, chamber_at(L, (5, 3, 2), spec=SPEC2), True),
    "explore_tessellation depth": lambda L: explore_tessellation(L, (5, 3, 2), SPEC2, False),
    "vectors_of_square target": lambda L: vectors_of_square(L, False, 1),
    "vectors_of_square box": lambda L: vectors_of_square(L, -2, True),
    "walls_near max_pairing": lambda L: walls_near(L, (5, 3, 2), SPEC2, True),
    "definite_short_vectors min_square": lambda L: definite_short_vectors(make_lattice([[-2]]), True),
    "canonical_orbit_rep word_budget": lambda L: canonical_orbit_rep(L, (1, 0, 0), [reflection(L, (0, 0, 1))],
                                                                     word_budget=True),
    "face_orbit_census word_budget": lambda L: face_orbit_census(L, (5, 3, 2), SPEC2, None, 0, word_budget=True),
    "face_orbit_census max_codim": lambda L: face_orbit_census(L, (5, 3, 2), SPEC2, None, 0, max_codim=True),
    "kneser_degenerate_reps r": lambda L: kneser_degenerate_reps(make_lattice([[0, 0], [0, -2]]), True, []),
    "WallSpec square": lambda L: WallSpec([True]),
    "WallSpec require_reflective": lambda L: WallSpec([-2], 1),
}


@pytest.mark.parametrize("case", list(BOOL_INPUTS))
def test_bool_inputs_are_rejected(UA, case):
    with pytest.raises(ValidationError, match=r"got .*(True|False|1)$"):
        BOOL_INPUTS[case](UA)


@pytest.mark.parametrize("max_codim", [0, 3])
def test_census_max_codim_is_one_or_two(UA, max_codim):
    with pytest.raises(ValidationError):
        face_orbit_census(UA, (5, 3, 2), SPEC2, None, 1, max_codim=max_codim)


class TestSquareBoundReflective:
    def test_k3_minus_two_is_reflective(self, K3):
        s = (0,) * 21 + (1,)
        assert square(K3, s) == -2
        assert check_square_bound_reflective(K3, s)

    def test_k3n_generator(self):
        for n in (2, 3, 4):
            L = make_lattice(
                core.direct_sum(
                    core.U_GRAM, core.U_GRAM, core.U_GRAM,
                    core.E8_MINUS_GRAM, core.E8_MINUS_GRAM, [[-2 * (n - 1)]],
                ),
                f"K3n{n}",
            )
            s = (0,) * 22 + (1,)
            assert square(L, s) == -2 * (n - 1)
            assert abs(square(L, s)) <= 2 * L.discriminant
            assert check_square_bound_reflective(L, s)

    def test_randomized_no_counterexample(self, UA):
        # no integral reflection in a primitive class with |square| > 2*disc
        rng = random.Random(67)
        for _ in range(2000):
            s = tuple(rng.randint(-6, 6) for _ in range(3))
            if square(UA, s) == 0:
                continue
            refl = check_square_bound_reflective(UA, s)  # raises on violation
            prim = core.primitive_integral(s)
            if refl and square(UA, prim) < 0:
                assert abs(square(UA, prim)) <= 2 * UA.discriminant


class TestDegenerateSplit:
    def test_split_z0_a1(self, Z0A):
        sp = degenerate_split(Z0A)
        assert sp.kernel_gen == (1, 0)
        assert sp.induced.gram == ((-2,),)
        assert all(pairing(Z0A, sp.kernel_gen, b) == 0 for b in sp.complement_basis)
        coords, k = sp.decompose((5, -3))
        assert k == 5 and coords == (-3,)

    def test_split_z0_u(self, Z0U):
        sp = degenerate_split(Z0U)
        assert sp.kernel_gen == (1, 0, 0)
        assert sp.induced.signature == (1, 1)
        # change of basis is unimodular: round trip through coordinates
        rng = random.Random(71)
        for _ in range(20):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            coords, k = sp.decompose(v)
            back = tuple(
                sum(coords[j] * sp.complement_basis[j][i] for j in range(2)) + k * sp.kernel_gen[i]
                for i in range(3)
            )
            assert back == v

    def test_wrong_length_rejected(self, Z0A):
        sp = degenerate_split(Z0A)
        for v in [(3,), (3, 1, 5)]:
            with pytest.raises(RankMismatchError):
                sp.decompose(v)
            with pytest.raises(RankMismatchError):
                sp.complement_content(v)

    def test_non_degenerate_rejected(self, U):
        with pytest.raises(KernelRankError):
            degenerate_split(U)

    def test_two_dim_kernel_rejected(self):
        L = make_lattice([[0, 0, 0], [0, 0, 0], [0, 0, -2]])
        with pytest.raises(KernelRankError):
            degenerate_split(L)


class TestKneserReps:
    def test_primitive_family(self, Z0A):
        assert kneser_degenerate_reps(Z0A, -2, [(0, 1)]) == [(0, 1)]

    def test_empty_base(self, Z0A):
        assert kneser_degenerate_reps(Z0A, 2, []) == []

    def test_content_two_family(self, Z0A):
        # a0 = (0,2) has complement content 2: two kernel classes
        assert kneser_degenerate_reps(Z0A, -8, [(0, 2)]) == [(0, 2), (1, 2)]

    def test_content_three_family_formula(self, Z0U):
        # emission contract: 0 <= k < d (completeness; k ~ d-k redundancy
        # via the kernel sign flip is documented)
        got = kneser_degenerate_reps(Z0U, 0, [(0, 3, 0)])
        assert got == [(0, 3, 0), (1, 3, 0), (2, 3, 0)]

    def test_wrong_length_rejected(self, Z0A):
        with pytest.raises(BaseRepsError, match="wrong length"):
            kneser_degenerate_reps(Z0A, -2, [(0, 1, 0)])

    def test_wrong_square_rejected(self, Z0A):
        with pytest.raises(BaseRepsError):
            kneser_degenerate_reps(Z0A, -2, [(0, 2)])

    def test_zero_and_kernel_rejected(self, Z0A):
        with pytest.raises(BaseRepsError):
            kneser_degenerate_reps(Z0A, -2, [(0, 0)])
        with pytest.raises(BaseRepsError):
            kneser_degenerate_reps(Z0A, 0, [(3, 0)])

    def test_closure_partition_small(self, Z0A):
        # desk-scale exactness: emitted reps partition the box-6 vectors
        # of square -2 whose complement part is in the supplied family
        l, phi = kernel_functional(Z0A.gram)
        reps = kneser_degenerate_reps(Z0A, -2, [(0, 1)])
        balls = closure_classes(reps, degenerate_generator_set(Z0A.gram, l, phi), word_len=8, state_box=24)
        targets = [v for v in vectors_of_square(Z0A, -2, 6) if any(complement_part(v, l, phi))]
        for v in targets:
            hits = sum(v in ball for ball in balls)
            assert hits == 1, v


class TestDegenerateOracle:
    """The closure oracle's generators, built from the Gram matrix alone."""

    def test_kernel_functional(self, Z0A, Z0U):
        for L in (Z0A, Z0U, make_lattice([[2, 1, 3], [1, -2, -1], [3, -1, 2]])):
            l, phi = kernel_functional(L.gram)
            assert gcd(*l) == 1 and sum(map(mul, phi, l)) == 1
            assert core.gram_apply(L, l) == (0,) * L.rank

    def test_every_generator_is_an_isometry(self, Z0A, Z0U):
        for L in (Z0A, Z0U):
            l, phi = kernel_functional(L.gram)
            gens = degenerate_generator_set(L.gram, l, phi)
            # isometry() raises unless M^T G M = G and det = +-1
            assert set(gens) == {isometry(L, m).inverse().matrix for m in gens}

    def test_sign_flip_negates_the_kernel_and_fixes_ker_phi(self, Z0U):
        l, phi = kernel_functional(Z0U.gram)
        flip = isometry(Z0U, [[int(r == k) - 2 * l[r] * phi[k] for k in range(3)] for r in range(3)])
        assert flip.matrix in degenerate_generator_set(Z0U.gram, l, phi)
        assert flip.apply(l) == tuple(-c for c in l)
        rng = random.Random(71)
        for _ in range(20):
            part = complement_part(tuple(rng.randint(-9, 9) for _ in range(3)), l, phi)
            assert sum(map(mul, phi, part)) == 0 and flip.apply(part) == part

    def test_o_u_has_four_elements(self, U):
        assert len(isometries_in_box(U.gram, 1)) == 4


class TestCanonicalOrbitRep:
    def test_fixed_vector(self, UA):
        r = reflection(UA, (0, 0, 1))
        res = canonical_orbit_rep(UA, (1, 0, 0), [r])
        assert res.vector == (1, 0, 0)
        assert res.complete

    def test_two_generator_example(self, UA):
        g1 = reflection(UA, (0, 0, 1))
        g2 = reflection(UA, (1, -1, 0))
        res = canonical_orbit_rep(UA, (0, 0, 1), [g1, g2])
        assert res.vector == (0, 0, -1)
        assert res.complete

    def test_equal_reps_prove_same_orbit(self, UA):
        g1 = reflection(UA, (0, 0, 1))
        g2 = reflection(UA, (0, 1, 1))
        v = (3, 2, 2)
        w = g1.apply(g2.apply(v))
        assert canonical_orbit_rep(UA, v, [g1, g2]).vector == canonical_orbit_rep(UA, w, [g1, g2]).vector

    def test_raw_generator_matrices_validated(self, UA):
        with pytest.raises(ValidationError):
            canonical_orbit_rep(UA, (1, 0, 0), [((1.7, 0, 0), (0, 1, 0), (0, 0, 1))])
        with pytest.raises(ValidationError, match="does not preserve the Gram form"):
            canonical_orbit_rep(UA, (1, 0, 0), [((2, 0, 0), (0, 1, 0), (0, 0, 1))])

    def test_canonical_form_count_stabilizes(self, UA):
        # (-2)-classes in box 5 under reflections in the same set:
        # distinct canonical forms stabilize as the word budget grows
        classes = [v for v in vectors_of_square(UA, -2, 5) if gcd(*v) == 1]
        gens = [reflection(UA, s) for s in classes if core.sign_normalize(s) == s][:12]
        counts = []
        for budget in (4, 6, 8):
            reps = {canonical_orbit_rep(UA, v, gens, word_budget=budget).vector for v in classes[:40]}
            counts.append(len(reps))
        assert counts[0] >= counts[1] == counts[2]


class TestOrbitKeys:
    def test_keys_invariant_under_sign_and_generators(self, UA):
        gens = facet_reflection_generators(UA, (5, 3, 2), SPEC2)
        mats = _generator_matrices(UA, gens)
        for g in (gens[0], gens[2].compose(gens[1])):
            for v in [(0, 1, 1), (2, 1, 3), (3, 1, 1)]:
                key = orbit_key_mod_sign(UA, (v,), mats)
                assert orbit_key_mod_sign(UA, (tuple(-c for c in v),), mats) == key
                assert orbit_key_mod_sign(UA, (g.apply(v),), mats) == key
            a, b = (0, 1, 1), (2, 0, 1)
            key = orbit_key_mod_sign(UA, (a, b), mats, 8)
            assert orbit_key_mod_sign(UA, (g.apply(a), g.apply(b)), mats, 8) == key


class TestCensus:
    def test_depth_zero_base_facets_only(self, UA):
        gens = facet_reflection_generators(UA, (5, 3, 2), SPEC2)
        table = face_orbit_census(UA, (5, 3, 2), SPEC2, gens, depth=0)
        row = [r for r in table.rows if r.codim == 1][0]
        assert row.faces == 3  # the base chamber's facet count

    def test_saturation_on_rank3(self, UA):
        gens = facet_reflection_generators(UA, (5, 3, 2), SPEC2)
        table = face_orbit_census(UA, (5, 3, 2), SPEC2, gens, depth=3)
        sat1 = table.saturation(1)
        assert sat1[2] == 0 and sat1[3] == 0
        sat2 = table.saturation(2)
        assert sat2[2] == 0 and sat2[3] == 0

    def test_nonreflective_base_facets_are_not_generators(self, UAA):
        # three of the four base facets have no integral reflection: the
        # default census keys every state by descent under the fourth's
        spec, base = wall_spec([-2, -4]), (5, 8, -2, -1)
        gens = facet_reflection_generators(UAA, base, spec)
        assert [g.matrix for g in gens] == [reflection(UAA, (0, 1, -1, 0)).matrix]
        assert face_orbit_census(UAA, base, spec, None, 1) == face_orbit_census(UAA, base, spec, gens, 1)

    def test_a_directly_built_spec_explores_and_counts_every_face(self, UAA):
        # the squares -4, -2, -4 name the set {-2, -4}: one walk, one census
        messy, base = WallSpec((-4, -2, -4)), (5, 8, -2, -1)
        graph = explore_tessellation(UAA, base, messy, 1)
        assert (len(graph.nodes), len(graph.edges)) == (5, 4)
        assert graph == explore_tessellation(UAA, base, wall_spec([-2, -4]), 1)
        table = face_orbit_census(UAA, base, messy, None, 1)
        assert table.rows[0] == (0, 1, 4, 4, 4)
        assert table == face_orbit_census(UAA, base, wall_spec([-2, -4]), None, 1)

    def test_text_rendering_aligned(self, UA):
        gens = facet_reflection_generators(UA, (5, 3, 2), SPEC2)
        table = face_orbit_census(UA, (5, 3, 2), SPEC2, gens, depth=1)
        text = table.to_text()
        lines = text.strip().split("\n")
        assert lines[0].split() == ["depth", "codim", "faces", "new_orbits", "total_orbits"]
        assert len({len(line) for line in lines}) == 1


# the census-r4 input: U+A1m2+A1m2, base (3,4,1,1), search bound 20, depth 2
R4_BASE = (3, 4, 1, 1)


@pytest.fixture(scope="module")
def r4(UAA):
    """The census-r4 census with the start state of every descent recorded,
    its exploration, its generator matrices and the key each descent
    found."""
    gens = facet_reflection_generators(UAA, R4_BASE, SPEC2, 20)
    with _recorded_descents() as (starts, reps):
        table = face_orbit_census(UAA, R4_BASE, SPEC2, gens, 2, search_bound=20)
    graph = explore_tessellation(UAA, R4_BASE, SPEC2, 2, 20)
    return table, starts, graph, _generator_matrices(UAA, gens), reps


@contextmanager
def _recorded_descents():
    """Record the start state of every ``_descend`` call in order, and the
    representative it reached."""
    starts, reps = [], {}
    real = orbits._descend

    def descend(state, *rest):
        starts.append(state)
        out = real(state, *rest)
        reps[state] = out[0]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_descend", descend)
        yield starts, reps


class TestCensusByBaseReduction:
    def test_one_descent_per_base_state(self, r4):
        table, starts, graph, *_ = r4
        # 5 base facets and 16 encodable base flags, each descended once;
        # every other chamber's states reuse the keys of their base images
        assert len(starts) == len(set(starts)) == 21
        base = graph.nodes[0]
        assert {s for s in starts if len(s) == 1} == {(orbits._sign_min(f.vector),) for f in base.facets}
        assert table.saturation(1) == (3, 0, 0)
        assert table.saturation(2) == (8, 0, 0)

    def test_default_generators_reuse_the_base_facets(self, UAA, r4, monkeypatch):
        # without generators the census reflects in the base facets its own
        # exploration found, and every other node takes its facets by
        # transport across a reflective wall: one facet search in all
        calls = []
        real = chambers.facet_walls
        monkeypatch.setattr(chambers, "facet_walls", lambda *args: calls.append(args) or real(*args))
        table = face_orbit_census(UAA, R4_BASE, SPEC2, None, 2, search_bound=20)
        assert table == r4[0]
        assert len(r4[2].nodes) == 20
        assert len(calls) == 1

    def test_generators_checked_once_where_they_enter(self, UA, UAA, r4, monkeypatch):
        # the default census uses the base facets' reflections, isometries by
        # construction, unchecked; canonical_orbit_rep checks each of its two
        # reflections once and inverts each once
        calls = []
        for name in ("isometry", "_bareiss"):
            real = getattr(orbits, name)
            monkeypatch.setattr(orbits, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        assert face_orbit_census(UAA, R4_BASE, SPEC2, None, 2, search_bound=20) == r4[0]
        assert calls == []
        canonical_orbit_rep(UA, (3, 1, 0), [reflection(UA, (0, 0, 1)), reflection(UA, (1, -1, 0))])
        assert calls.count("isometry") == 2 and calls.count("_bareiss") == 4

    def _path_isometries(self, UAA, r4):
        _, _, graph, mats, _ = r4
        ginvs = _path_inverses(UAA, [node.path for node in graph.nodes], mats)
        for node in graph.nodes:
            ginv = ginvs[node.path]
            assert ginv is not None, node.path
            assert len(node.path) == node.depth
            yield node, isometry(UAA, ginv).inverse().matrix

    def test_path_isometry_preserves_the_gram_matrix(self, UAA, r4):
        for _, g in self._path_isometries(UAA, r4):
            cols = core.mat_transpose(g)
            assert [[form(UAA.gram, a, b) for b in cols] for a in cols] == [list(r) for r in UAA.gram]

    def test_path_isometry_maps_the_base_witness_into_the_chamber(self, UAA, r4):
        for node, g in self._path_isometries(UAA, r4):
            image = core.mat_vec(g, R4_BASE)
            assert tuple(map(tuple, separating_walls(UAA, R4_BASE, image, SPEC2))) == node.key

    def test_path_isometry_maps_base_facets_onto_the_chamber_facets(self, UAA, r4):
        base = r4[2].nodes[0]
        for node, g in self._path_isometries(UAA, r4):
            images = {core.sign_normalize(core.mat_vec(g, f.vector)) for f in base.facets}
            assert images == {core.sign_normalize(f.vector) for f in node.facets}

    def test_path_outside_the_group_has_no_inverse(self, UAA, r4):
        mats = r4[3]
        # q(e_1, s) = -1 is not divisible by q(s, s)/2 = -2: no integral reflection
        odd = (Wall(vector=(1, -1, 0, 1), square=-4),)
        assert _path_inverses(UAA, [odd], mats)[odd] is None
        # the reflection in e_3 alone reaches across that base facet only;
        # nodes 1-5 are the chambers across the five base facets, and no
        # path through a chamber outside the group comes back into it
        only_e3 = _generator_matrices(UAA, [reflection(UAA, (0, 0, 1, 0))])
        ginvs = _path_inverses(UAA, [node.path for node in r4[2].nodes], only_e3)
        for node in r4[2].nodes[1:]:
            across_e3 = core.sign_normalize(node.path[0].vector) == (0, 0, 1, 0)
            if node.depth == 1:
                assert (ginvs[node.path] is not None) == across_e3
            elif not across_e3:
                assert ginvs[node.path] is None

    def test_one_reflection_per_path_step(self, UAA, r4, monkeypatch):
        # each chamber's g^{-1} is its BFS parent's times one reflection
        gens = facet_reflection_generators(UAA, R4_BASE, SPEC2, 20)
        calls = []
        real = orbits.reflection_matrix
        monkeypatch.setattr(orbits, "reflection_matrix", lambda *args: calls.append(args) or real(*args))
        table = face_orbit_census(UAA, R4_BASE, SPEC2, gens, 2, search_bound=20)
        assert table == r4[0]
        assert len(calls) == len(r4[2].nodes) - 1 == 19

    def test_facet_orbits_are_odd_coxeter_classes(self, UA, UAA, r4):
        ua_base = (5, 3, 2)
        ua_table = face_orbit_census(UA, ua_base, SPEC2, facet_reflection_generators(UA, ua_base, SPEC2), 2)
        for L, base, bound, table, want in ((UA, ua_base, 24, ua_table, 2), (UAA, R4_BASE, 20, r4[0], 3)):
            roots = [f.supporting_wall.vector
                     for f in facet_walls(L, chamber_at(L, base, spec=SPEC2), bound).faces]
            assert odd_coxeter_classes(L.gram, roots) == want
            assert next(r.total_orbits for r in table.rows if r.codim == 1 and r.depth == 2) == want


# depth-0 census inputs U + X: lattice summand X, base point, wall spec.
# Their base chambers' diagrams have edges of m = 3 (an A2 pair; an A3
# path), m = 4 and m = 6.
DIAGRAM_CASES = {
    "U+A1m2": ([[-2]], (5, 3, 2), SPEC2),
    "U+A2m1": ([[-2, 1], [1, -2]], (4, 5, 1, 1), SPEC2),
    "U+A1m2+m4": ([[-2, 0], [0, -4]], (19, 14, 1, 4), SPEC2),
    "U+A3m1": ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], (27, 38, 5, 3, 3), SPEC2),
    "U+A1m2+m4,reflective-2-4": ([[-2, 0], [0, -4]], (19, 14, 1, 4), wall_spec([-2, -4], True)),
    "U+m6,reflective-2-4-6": ([[-6]], (5, 3, 1), wall_spec([-2, -4, -6], True)),
}


def _classes(labels: dict) -> set:
    """The partition that a state -> label map induces, as a set of frozensets."""
    classes = {}
    for state, label in labels.items():
        classes.setdefault(label, set()).add(state)
    return {frozenset(c) for c in classes.values()}


class TestCoxeterDiagramKeys:
    """With no generators, the census labels the base states from the base
    chamber's Coxeter diagram.  The oracle is the census with the same
    group given as explicit generators, which keys them by descent."""

    @staticmethod
    def _diagram_census(L, base, spec, depth, bound):
        """The default census and the partition of its base states by the
        diagram labels it used."""
        calls = []
        real = orbits._coxeter_classes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "_coxeter_classes", lambda *args: calls.append((args[1], real(*args))) or calls[-1][1])
            table = face_orbit_census(L, base, spec, None, depth, search_bound=bound)
        ((facets, labels),) = calls
        states = {(i,): (orbits._sign_min(f.vector),) for i, f in enumerate(facets)}
        for i, j in permutations(range(len(facets)), 2):
            try:
                flag = encode_flag(L, [facets[i], facets[j]], spec)
            except FlagChainError:
                continue
            states[(i, j)] = tuple(orbits._sign_min(e.vector) for e in flag.entries)
        # the diagram labels exactly the facets and the flags encode_flag accepts
        assert set(labels) == set(states)
        return table, _classes({states[index]: label for index, label in labels.items()})

    @pytest.mark.parametrize("summand, base, spec", DIAGRAM_CASES.values(), ids=DIAGRAM_CASES.keys())
    def test_diagram_classes_are_descent_classes(self, summand, base, spec):
        L = make_lattice(core.direct_sum(core.U_GRAM, summand))
        gens = facet_reflection_generators(L, base, spec)
        with _recorded_descents() as (_, reps):
            want = face_orbit_census(L, base, spec, gens, 0)
        table, classes = self._diagram_census(L, base, spec, 0, 24)
        assert table == want
        assert classes == _classes(reps)

    def test_diagram_classes_are_descent_classes_on_r4(self, UAA, r4):
        table, classes = self._diagram_census(UAA, R4_BASE, SPEC2, 2, 20)
        assert table == r4[0]
        # the explicit census descended the base states and nothing else
        assert classes == _classes(r4[4])

    def test_obtuse_pair_raises(self, UA):
        # q((0,0,1), (0,1,1)) = -2 < 0: no Coxeter chamber has both as facets
        with pytest.raises(ReductionInvariantError, match="obtuse"):
            orbits._coxeter_classes(UA, [Wall(vector=(0, 0, 1), square=-2), Wall(vector=(0, 1, 1), square=-2)])
