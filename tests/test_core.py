import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbmlat import core, enumeration
from mbmlat.core import (
    direct_sum,
    homology_image,
    is_positive,
    make_lattice,
    pairing,
    reflect_vector,
    sign_normalize,
    square,
)
from mbmlat.errors import (
    DegenerateLatticeError,
    IsotropicVectorError,
    NonPositiveVectorError,
    RankMismatchError,
    SignatureError,
    ValidationError,
)
from oracles import check_lll, form, rational_det_inverse, rational_projection, signature_by_diagonalization


class TestMakeLattice:
    def test_hyperbolic_plane(self, U):
        assert U.signature == (1, 1)
        assert U.discriminant == 1

    def test_rank_one_negative(self):
        L = make_lattice([[-2]])
        assert L.signature == (0, 1)
        assert L.discriminant == 2

    def test_k3_lattice(self, K3):
        # U^3 + E8(-1)^2: block determinants (-1)^3 * 1^2
        assert K3.rank == 22
        assert K3.signature == (3, 19)
        assert K3.discriminant == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="not square"):
            make_lattice([[0, 1], [1]])

    def test_rejects_asymmetric_naming_entry(self):
        with pytest.raises(ValidationError, match=r"\(0,1\)"):
            make_lattice([[0, 2], [1, 0]])

    def test_rejects_non_integer_entry(self):
        with pytest.raises(ValidationError, match=r"\(0,0\)"):
            make_lattice([[0.5]])

    @pytest.mark.parametrize("blocks", [([[1, 2]],), ([[1], [2]],), (core.U_GRAM, [[-2, 0]])],
                             ids=["one-row", "one-column", "second-block"])
    def test_direct_sum_rejects_a_block_that_is_not_square(self, blocks):
        with pytest.raises(ValidationError, match="direct_sum block is not square"):
            direct_sum(*blocks)

    def test_lattice_from_dict_needs_a_gram(self):
        with pytest.raises(ValidationError, match="'gram' key"):
            core.lattice_from_dict({"name": "x"})

    def test_degenerate_accepted(self):
        L = make_lattice([[0, 0], [0, -2]])
        assert L.discriminant == 0
        assert L.kernel_dimension == 1

    def test_signature_additivity_random_blocks(self):
        rng = random.Random(2)
        blocks = [[[2]], [[-2]], core.U_GRAM, [[-4]], core.E8_MINUS_GRAM]
        for _ in range(10):
            picks = rng.sample(blocks, k=rng.randint(2, 4))
            total = make_lattice(direct_sum(*picks))
            p = sum(make_lattice(b).signature[0] for b in picks)
            m = sum(make_lattice(b).signature[1] for b in picks)
            assert total.signature == (p, m)


class TestPairing:
    def test_gram_entry(self, U):
        assert pairing(U, (1, 0), (0, 1)) == 1

    def test_diagonal_example(self, UA):
        assert pairing(UA, (1, 1, 0), (1, 1, 0)) == 2

    def test_mixed_example(self, UA):
        assert pairing(UA, (0, 1, 1), (3, 2, 2)) == -1

    def test_symmetry_random(self, UA, K3):
        rng = random.Random(5)
        for L in (UA, K3):
            for _ in range(25):
                v = tuple(rng.randint(-9, 9) for _ in range(L.rank))
                w = tuple(rng.randint(-9, 9) for _ in range(L.rank))
                assert pairing(L, v, w) == pairing(L, w, v)

    def test_rational_inputs(self, UA):
        v = (Fraction(1, 2), Fraction(1, 3), 0)
        assert pairing(UA, v, v) == Fraction(1, 3)

    def test_rank_mismatch(self, U):
        with pytest.raises(RankMismatchError):
            pairing(U, (1, 0, 0), (0, 1))


class TestHomologyImage:
    def test_unimodular_image_integral(self, U):
        # Gram-inverse dual convention: on a unimodular lattice the image
        # of any integral class is integral (here (1,0) -> (0,1))
        assert homology_image(U, (1, 0)) == (0, 1)

    def test_rank_one(self):
        L = make_lattice([[-2]])
        assert homology_image(L, (1,)) == (Fraction(-1, 2),)

    def test_disc_integrality_contract(self, K3):
        # delta * image is integral for every integral class
        L = make_lattice(direct_sum([list(r) for r in K3.gram], [[-2]]), "K3n2")
        rng = random.Random(9)
        for _ in range(100):
            v = tuple(rng.randint(-5, 5) for _ in range(L.rank))
            img = homology_image(L, v)
            assert all((L.discriminant * x).denominator == 1 for x in img)

    def test_disc_squared_square_integral(self):
        # the extended form on the dual side has delta^2 q(s,s) integral
        L = make_lattice(direct_sum(core.U_GRAM, [[-4]]))
        rng = random.Random(10)
        for _ in range(50):
            v = tuple(rng.randint(-6, 6) for _ in range(L.rank))
            img = homology_image(L, v)
            val = pairing(L, img, img)
            assert (L.discriminant**2 * val).denominator == 1

    def test_degenerate_rejected(self):
        L = make_lattice([[0]])
        with pytest.raises(DegenerateLatticeError):
            homology_image(L, (1,))


class TestOrthogonalProject:
    """``project_off(L, y, x) = q(x,x) y - q(y,x) x``."""

    def test_bound_attaining_instance(self, UAA):
        out = core.project_off(UAA, (0, 0, 0, 1), (0, 0, 1, 0))
        assert out == (0, 0, 0, -2)
        assert square(UAA, out) == -8

    def test_self_projection(self, UA):
        assert core.project_off(UA, (0, 0, 1), (0, 0, 1)) == (0, 0, 0)

    def test_positive_projected_square(self, UA):
        # y = 2x + (3, 1, 0), scaled by q(x, x) = -2
        out = core.project_off(UA, (3, 1, 2), (0, 0, 1))
        assert out == (-6, -2, 0)
        assert pairing(UA, out, out) == 4 * 6

    def test_reconstruction_and_orthogonality(self, UAA):
        rng = random.Random(3)
        for _ in range(40):
            x = tuple(rng.randint(-4, 4) for _ in range(4))
            y = tuple(rng.randint(-4, 4) for _ in range(4))
            qxx = square(UAA, x)
            if qxx == 0:
                continue
            out = core.project_off(UAA, y, x)
            assert pairing(UAA, x, out) == 0
            qyx = pairing(UAA, y, x)
            assert tuple(qyx * x[i] + out[i] for i in range(4)) == tuple(qxx * c for c in y)

    def test_isotropic_rejected(self, U):
        with pytest.raises(IsotropicVectorError):
            core.project_off(U, (0, 1), (1, 0))


@st.composite
def projection_cases(draw):
    """A symmetric integer Gram matrix of rank 2-4 and two integral vectors."""
    n = draw(st.integers(2, 4))
    upper = {(i, j): draw(st.integers(-4, 4)) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    v = tuple(draw(st.integers(-5, 5)) for _ in range(n))
    x = tuple(draw(st.integers(-5, 5)) for _ in range(n))
    return gram, v, x


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(projection_cases())
def test_project_off_is_the_integral_multiple_of_the_projection(case):
    gram, v, x = case
    qxx = form(gram, x, x)
    assume(qxx != 0)
    out = core.project_off(make_lattice(gram), v, x)
    assert all(type(c) is int for c in out)
    assert form(gram, out, x) == 0
    assert out == tuple(qxx * c for c in rational_projection(gram, v, x))


ENTRIES = st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3])


@st.composite
def bareiss_cases(draw):
    """A square integer matrix of rank 0-6, often with a zero leading
    pivot (a row swap) or a repeated row (singular), and 0-2 right-hand
    sides."""
    n = draw(st.integers(0, 6))
    a = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        a[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a[i] = [draw(st.sampled_from([-1, 1, 2])) * x for x in a[j]]
    b = [tuple(draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(draw(st.integers(0, 2)))]
    return a, b


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(bareiss_cases())
def test_bareiss_matches_fraction_gauss_jordan(case):
    a, b = case
    n = len(a)
    det, x = core._bareiss(a, b)
    want_det, inv = rational_det_inverse(a)
    assert det == want_det
    if det == 0:
        assert x == ()
        return
    assert len(x) == len(b)
    for xj, bj in zip(x, b):
        assert all(type(c) is int for c in xj)
        assert list(xj) == [det * sum(inv[i][t] * bj[t] for t in range(n)) for i in range(n)]


@st.composite
def congruence_cases(draw):
    """A symmetric integer matrix: a direct sum of up to three U, zero and
    random symmetric blocks, sometimes mixed by a unimodular congruence."""
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["U", "zero", "random"]))
        if kind == "U":
            blocks.append([[0, 1], [1, 0]])
        elif kind == "zero":
            k = draw(st.integers(1, 2))
            blocks.append([[0] * k for _ in range(k)])
        else:
            k = draw(st.integers(1, 3))
            upper = {(i, j): draw(ENTRIES) for i in range(k) for j in range(i, k)}
            blocks.append([[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)])
    g = direct_sum(*blocks)
    n = len(g)
    if n >= 2 and draw(st.booleans()):
        # g -> u^T g u for u = I + c e_i e_j^T, then a permutation
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        u = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        g = [[form(g, [u[t][r] for t in range(n)], [u[t][s] for t in range(n)]) for s in range(n)]
             for r in range(n)]
        perm = draw(st.permutations(range(n)))
        g = [[g[perm[r]][perm[s]] for s in range(n)] for r in range(n)]
    return g


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(congruence_cases())
def test_symmetric_bareiss_signature_and_determinant(g):
    n = len(g)
    rows, minors = core._symmetric_bareiss(g)
    assert len(minors) == n + 1 and minors[0] == 1
    assert [r[0] for r in rows] == list(minors[1:])
    assert minors[-1] == rational_det_inverse(g)[0]
    L = make_lattice(g)
    assert L.signature == signature_by_diagonalization(g)
    assert L.discriminant == abs(minors[-1])
    assert sum(1 for d in minors[1:] if d != 0) == sum(L.signature)


@st.composite
def lll_grams(draw):
    """A positive definite Gram matrix of rank 0-6: A^T A + diag(1..3),
    diagonal, or that form skewed by b_i += c b_j congruences."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["diagonal", "posdef", "skewed"]))
    a = [[0 if kind == "diagonal" else draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.integers(1, 3)) for _ in range(n)]
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (diag[i] if i == j else 0) for j in range(n)]
         for i in range(n)]
    for _ in range(draw(st.integers(1, 6)) if kind == "skewed" and n >= 2 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return tuple(map(tuple, g))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(lll_grams())
def test_lll_reduces_by_a_unimodular_congruence(g):
    h, a, triangle = core._lll(g)
    check_lll(g, h, a)
    assert all(type(x) is int for row in (*h, *a) for x in row)
    # the Gram-Schmidt data it ends with are the elimination of A
    assert triangle == core._symmetric_bareiss(a)
    # a reduced form is left as it is
    assert core._lll(a) == (core.identity_matrix(len(g)), a, triangle)


@st.composite
def induced_gram_cases(draw):
    """A symmetric Gram matrix, drawn of rank 1-4 or U + E8(-1) of rank 10,
    and 0-4 drawn vectors to restrict its form to."""
    if draw(st.booleans()):
        g = direct_sum(core.U_GRAM, core.E8_MINUS_GRAM)
    else:
        n = draw(st.integers(1, 4))
        upper = {(i, j): draw(st.integers(-4, 4)) for i in range(n) for j in range(i, n)}
        g = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    basis = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(g)), max_size=4))
    return g, basis


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(induced_gram_cases())
def test_induced_gram_is_the_congruent_product(case):
    g, basis = case
    L = make_lattice(g)
    got = core.induced_gram(L, basis)
    # B G B^T by the plain double sum
    assert got == tuple(tuple(form(g, a, b) for b in basis) for a in basis)
    assert all(type(x) is int for row in got for x in row)
    with pytest.raises(RankMismatchError):
        core.induced_gram(L, [*basis, (1,) * (L.rank + 1)])


def restrict(L, x):
    """The integral basis of x^perp and the lattice of its induced form."""
    basis = core.hyperplane_basis(L, x)[2]
    return basis, make_lattice(core.induced_gram(L, basis))


class TestRestrictToHyperplane:
    def test_isotropic_orthogonal_in_u(self, U):
        _, sub = restrict(U, (1, 0))
        assert sub.rank == 1
        assert sub.gram == ((0,),)

    def test_wall_orthogonal_is_u(self, UA):
        _, sub = restrict(UA, (0, 0, 1))
        assert sub.signature == (1, 1)
        assert sub.discriminant == 1

    def test_negative_class_orthogonal_is_hyperbolic(self, UA):
        # q((0,1,1)) = -2, so the orthogonal has signature (1,1)
        _, sub = restrict(UA, (0, 1, 1))
        assert sub.signature == (1, 1)

    def test_isotropic_class_gives_degenerate_restriction(self, UA):
        # feeds the degenerate-kernel algorithm
        _, sub = restrict(UA, (1, 0, 0))
        assert sub.signature == (0, 1)
        assert sub.kernel_dimension == 1

    def test_embedding_pairs_to_zero_and_pulls_back_gram(self, UAA):
        rng = random.Random(4)
        for _ in range(20):
            x = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(c == 0 for c in x):
                continue
            basis, sub = restrict(UAA, x)
            for b in basis:
                assert pairing(UAA, b, x) == 0
            k = len(basis)
            for i in range(k):
                for j in range(k):
                    assert sub.gram[i][j] == pairing(UAA, basis[i], basis[j])

    def test_kernel_vector_restricts_to_all_of_l(self):
        # gram . x = 0: the hyperplane is the whole lattice
        L = make_lattice(direct_sum([[0]], [[-2]]), "Z0+A1m2")
        basis, sub = restrict(L, (1, 0))
        assert basis == ((1, 0), (0, 1))
        assert sub.gram == L.gram

    def test_embed_roundtrip(self, UA):
        # the wall search's embedding k x0 + sum y_j b_j pairs to k g with x
        g, x0, basis = core.hyperplane_basis(UA, (0, 0, 1))
        cols = tuple(zip(*basis))
        for k in (0, 1, -2):
            v = enumeration._embed(cols, x0, k, (2, -3))
            assert v == tuple(k * a + 2 * b - 3 * c for a, b, c in zip(x0, *basis))
            assert pairing(UA, v, (0, 0, 1)) == k * g


class TestIsPositive:
    def test_reference_itself(self, UA):
        assert is_positive(UA, (1, 1, 0), (1, 1, 0))

    def test_antipode(self, UA):
        assert not is_positive(UA, (-1, -1, 0), (1, 1, 0))

    def test_negative_vector(self, UA):
        assert not is_positive(UA, (1, -1, 0), (1, 1, 0))

    def test_convexity(self, UA):
        rng = random.Random(6)
        ref = (1, 1, 0)
        found = 0
        while found < 30:
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            try:
                if is_positive(UA, v, ref) and is_positive(UA, w, ref):
                    found += 1
                    assert is_positive(UA, tuple(a + b for a, b in zip(v, w)), ref)
            except NonPositiveVectorError:
                continue

    def test_wrong_signature(self, K3):
        with pytest.raises(SignatureError):
            is_positive(K3, (1,) * 22, (1,) * 22)

    def test_bad_reference(self, UA):
        with pytest.raises(NonPositiveVectorError):
            is_positive(UA, (1, 1, 0), (1, -1, 0))


class TestVectorHelpers:
    def test_sign_normalize(self):
        assert sign_normalize((0, -2, -4)) == (0, 1, 2)
        assert sign_normalize((0, 0, 0)) == (0, 0, 0)

    def test_reflect_vector(self, UA):
        assert reflect_vector(UA, (3, 2, 2), (0, 1, 1)) == (3, 1, 1)

    def test_reflect_vector_rejects_an_isotropic_vector(self, U):
        with pytest.raises(IsotropicVectorError):
            reflect_vector(U, (1, 1), (1, 0))

    def test_int_arg_takes_ints_in_bounds_only(self):
        assert core.int_arg(2, "k", least=1, most=2) == 2
        assert core.int_arg(-7, "k") == -7
        for x in (True, False, 2.0, Fraction(2), "2", None, 0, 3):
            with pytest.raises(ValidationError, match="k must be an integer >= 1 and <= 2"):
                core.int_arg(x, "k", least=1, most=2)

    def test_reflect_vector_is_exact_and_typed_by_integrality(self):
        # random pairs on <-4> + U reflect to integral and to proper rational
        # images; the image is a tuple of ints when it is integral, else a
        # tuple of Fractions, whatever the input's types
        L = make_lattice(direct_sum([[-4]], core.U_GRAM))
        rng = random.Random(79)
        for _ in range(300):
            v = tuple(rng.randint(-6, 6) for _ in range(3))
            s = tuple(rng.randint(-3, 3) for _ in range(3))
            qss = form(L.gram, s, s)
            if qss == 0:
                continue
            for x in (v, tuple(map(Fraction, v)), tuple(Fraction(c, 2) for c in v)):
                c = Fraction(2 * form(L.gram, x, s), qss)
                want = tuple(x[i] - c * s[i] for i in range(3))
                got = reflect_vector(L, x, s)
                assert got == want
                kind = int if all(w.denominator == 1 for w in want) else Fraction
                assert all(type(g) is kind for g in got), (x, s, got)

    def test_primitive_integral_is_typed_alike_on_every_input(self):
        # integer input takes a shortcut; every path returns the primitive
        # ray in ints
        rng = random.Random(83)
        for _ in range(300):
            v = tuple(rng.randint(-6, 6) * rng.choice((1, 1, 2, 6)) for _ in range(3))
            for x in (v, tuple(map(Fraction, v)), tuple(Fraction(c, rng.randint(1, 4)) for c in v),
                      v[:1] + tuple(map(Fraction, v[1:]))):
                den = math.lcm(*(Fraction(c).denominator for c in x))
                scaled = tuple(int(c * den) for c in x)
                g = math.gcd(*scaled)
                got = core.primitive_integral(x)
                assert got == (tuple(c // g for c in scaled) if g else scaled), (x, got)
                assert all(type(c) is int for c in got), (x, got)

    def test_vector_json_roundtrip(self):
        v = (1, Fraction(-3, 2), 0)
        data = core.vector_to_json(v)
        assert data == [1, "-3/2", 0]
