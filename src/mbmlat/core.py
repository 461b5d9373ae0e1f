"""Exact linear algebra over a fixed integral quadratic lattice.

A lattice is a free Z-module with a symmetric integer Gram matrix.  All
arithmetic is exact: integers stay integers, everything else is a
``fractions.Fraction``.  No floating point is used anywhere -- chamber
membership and wall incidence are sign decisions and rounding would
corrupt them.  The elimination kernels are fraction-free: integers only.

Conventions:

* vectors are tuples of ``int`` (lattice vectors) or ``Fraction``
  (rational witness points); a matrix is a tuple of row tuples,
  acting on column vectors;
* the signature ``(p, m)`` counts the positive/negative pivots of the
  fraction-free congruence elimination (Jacobi's rule on its leading
  minors); ``rank - p - m`` is the kernel dimension;
* the discriminant is ``abs(det(gram))``, 0 for degenerate lattices;
* "primitive" means the gcd of the coordinates is 1, and
  :func:`primitive_integral` is the one map of a ray to its primitive
  vector; sign-normalized means additionally that the first nonzero
  coordinate is positive.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.  The package's records
are ``NamedTuple``s: they unpack, index and hash as tuples of their
fields and equal a plain tuple of the same fields, so sorts pass a key.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateLatticeError,
    IsotropicVectorError,
    NonPositiveVectorError,
    RankMismatchError,
    SignatureError,
    ValidationError,
)

Vector = tuple  # tuple[int, ...] or tuple[Fraction, ...]
Matrix = tuple  # tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# vector helpers


def sign_normalize(v: Sequence) -> Vector:
    """:func:`primitive_integral` with the first nonzero coordinate made
    positive: the canonical form for classes defined up to a scalar."""
    w = primitive_integral(v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    return w


def vec_add(v: Sequence, w: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(v, w))


def vec_scale(c, v: Sequence) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def as_int_vector(v: Sequence) -> Vector:
    """An integral vector of ints and Fractions as a tuple of ints; a
    ValidationError for any other coordinate or a proper fraction."""
    if not all(isinstance(a, (int, Fraction)) and a.denominator == 1 for a in v):
        raise ValidationError(f"vector {tuple(v)} is not a vector of ints and integral Fractions")
    return tuple(map(int, v))


def primitive_integral(v: Sequence) -> Vector:
    """The primitive integer vector on the ray of v, a positive rescaling;
    zero stays zero.  This is what "primitive" means throughout.  A
    ValidationError for a coordinate that is not an int or a Fraction."""
    if all(type(a) is int for a in v):
        g = gcd(*v)
        return tuple(v) if g <= 1 else tuple([a // g for a in v])
    if not all(isinstance(a, (int, Fraction)) for a in v):
        raise ValidationError(f"vector {tuple(v)} has a coordinate that is not an int or a Fraction")
    den = lcm(*[a.denominator for a in v])
    return primitive_integral([a.numerator * (den // a.denominator) for a in v])


def vector_to_json(v: Sequence) -> list:
    """Interchange form: ints stay ints, proper fractions become "p/q"."""
    out = []
    for a in v:
        if isinstance(a, Fraction) and a.denominator != 1:
            out.append(f"{a.numerator}/{a.denominator}")
        else:
            out.append(int(a))
    return out


# ---------------------------------------------------------------------------
# exact matrix kernels


def _bareiss(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]] = ()) -> tuple[int, tuple[Vector, ...]]:
    """Row-pivoted fraction-free (Bareiss) Gauss-Jordan elimination of [a | b].

    Returns ``(det(a), x)`` with the integer vectors ``x[j] = det(a) *
    a^{-1} . b[j]``, or ``(0, ())`` for a singular ``a``.  Every live entry
    is a minor of [a | b], so each division by the previous pivot is exact
    (Bareiss, Math. Comp. 22, 1968); each row swap flips the sign.
    """
    n = len(a)
    m = [[int(x) for x in a[i]] + [int(v[i]) for v in b] for i in range(n)]
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return 0, ()
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        rk = m[k]
        pivot = rk[k]
        for ri in m:
            if ri is not rk:
                f = ri[k]
                for j in range(k + 1, len(rk)):
                    ri[j] = (pivot * ri[j] - f * rk[j]) // prev
        prev = pivot
    # the right block is det(P a) * a^{-1} b for the row permutation P
    return sign * prev, tuple(tuple(sign * m[i][n + j] for i in range(n)) for j in range(len(b)))


def _symmetric_bareiss(gram: Sequence[Sequence[int]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Fraction-free elimination of a Gram matrix by unimodular congruences.

    Returns ``(rows, minors)``: ``rows[i]`` is row i of the upper triangle
    R from the diagonal on, and ``minors = (1, Delta_1, ..., Delta_n)``
    are the leading minors of the congruent matrix eliminated, with
    R_ii = Delta_{i+1}.  A zero pivot e_k swaps in the first later index
    with a non-zero diagonal entry, else adds the first later e_j with
    q(e_k, e_j) != 0 (pivot 2 q(e_k, e_j)), else is a kernel direction
    and moves past the end with minor 0; a positive definite matrix is
    never repaired.  By Jacobi's rule the signature is the sign count of
    consecutive minor products, and |Delta_n| is the discriminant.
    """
    n = len(gram)
    m = [[int(x) for x in row] for row in gram]

    def swap(k, p):
        m[k], m[p] = m[p], m[k]
        for row in m:
            row[k], row[p] = row[p], row[k]

    minors = [1]
    k, end = 0, n
    while k < end:
        if m[k][k] == 0:
            p = next((j for j in range(k + 1, end) if m[j][j] != 0), None)
            j = next((j for j in range(k + 1, end) if m[k][j] != 0), None)
            if p is not None:
                swap(k, p)
            elif j is not None:
                # e_k += e_j as a row and a column operation
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
            else:
                end -= 1
                swap(k, end)
                continue
        rk = m[k]
        pivot = rk[k]
        for ri in m[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - f * rk[j]) // minors[-1]
        minors.append(pivot)
        k += 1
    minors += [0] * (n - end)
    return tuple(tuple(m[i][i:]) for i in range(n)), tuple(minors)


def mat_vec(matrix: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in matrix)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)) for i in range(n)
    )


def mat_transpose(a: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _column_reduce(row: Sequence[int]) -> tuple[int, list[list[int]]]:
    """Unimodular column reduction of a single integer row.

    Returns ``(g, cols)`` where ``cols`` is a list of n column vectors
    forming a unimodular matrix with ``row . cols = (g, 0, ..., 0)`` and
    ``g = gcd(row) >= 0``.  Hermite-normal-form style elimination; the
    columns beyond the first are an integral basis of the kernel of the
    row.
    """
    n = len(row)
    r = [int(x) for x in row]
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    while True:
        nz = [j for j in range(n) if r[j] != 0]
        if len(nz) <= 1:
            break
        piv = min(nz, key=lambda j: (abs(r[j]), j))
        for j in nz:
            if j == piv:
                continue
            qf = r[j] // r[piv]
            r[j] -= qf * r[piv]
            cols[j] = [cols[j][i] - qf * cols[piv][i] for i in range(n)]
    nz = [j for j in range(n) if r[j] != 0]
    if nz:
        j = nz[0]
        if j != 0:
            r[0], r[j] = r[j], r[0]
            cols[0], cols[j] = cols[j], cols[0]
        if r[0] < 0:
            r[0] = -r[0]
            cols[0] = [-x for x in cols[0]]
    return (r[0] if r[0] else 0), cols


def _lll(gram: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, tuple]:
    """Integral LLL reduction of a positive definite Gram matrix G.

    Cohen, A Course in Computational Algebraic Number Theory (GTM 138),
    Alg. 2.6.7 with delta = 3/4.  The Gram-Schmidt data are the integers
    d_i (the Gram determinant of the first i vectors) and lambda_kj =
    d_{j+1} mu_kj; step 2 takes them from :func:`_symmetric_bareiss` (d_i =
    Delta_i, lambda_kj = R_jk), and every size reduction and swap keeps
    them current by exact divisions.  Returns ``(H, A, (rows, minors))``:
    the rows of the unimodular H are the reduced basis in the input
    coordinates, A = H G H^T has |mu_kj| <= 1/2 and the Lovasz condition
    d_{k+1} d_{k-1} >= (3/4) d_k^2 - lambda_{k,k-1}^2 for every k >= 1,
    and ``(rows, minors)`` is ``_symmetric_bareiss(A)``.
    """
    n = len(gram)
    a = [[int(x) for x in row] for row in gram]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, minors = _symmetric_bareiss(a)
    d = list(minors)
    lam = [[rows[j][k - j] for j in range(k)] for k in range(n)]

    def reduce(k, l):
        # b_k -= q b_l for the integer q nearest mu_kl
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        h[k] = [x - q * y for x, y in zip(h[k], h[l])]
        a[k] = [x - q * y for x, y in zip(a[k], a[l])]
        for row in a:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for row in a:
            row[k], row[k - 1] = row[k - 1], row[k]
        lk, lk1 = lam[k], lam[k - 1]
        lk[:k - 1], lk1[:k - 1] = lk1[:k - 1], lk[:k - 1]
        m = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for li in lam[k + 1:]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (b * t + m * li[k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    rows = tuple((d[j + 1], *(lam[k][j] for k in range(j + 1, n))) for j in range(n))
    return tuple(map(tuple, h)), tuple(map(tuple, a)), (rows, tuple(d))


def integer_kernel(rows: Sequence[Sequence[int]], n: int) -> list[Vector]:
    """Integral basis of the joint kernel of the given integer rows."""
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    for row in rows:
        reduced = [sum(row[i] * b[i] for i in range(n)) for b in basis]
        g, cols = _column_reduce(reduced)
        new_basis = []
        for col in cols:
            new_basis.append(tuple(sum(col[j] * basis[j][i] for j in range(len(basis))) for i in range(n)))
        basis = new_basis[1:] if g != 0 else new_basis
        if not basis:
            break
    return basis


# ---------------------------------------------------------------------------
# the lattice type


class Lattice(NamedTuple):
    """An integral quadratic lattice: Gram matrix plus exact metadata.

    ``signature`` and ``discriminant`` are recomputed by :func:`make_lattice`;
    constructing instances through it is the supported path.
    """

    name: str
    gram: Matrix
    rank: int
    signature: tuple[int, int]
    discriminant: int

    @property
    def is_degenerate(self) -> bool:
        return self.discriminant == 0

    @property
    def kernel_dimension(self) -> int:
        return self.rank - self.signature[0] - self.signature[1]


def int_matrix(rows, what: str) -> Matrix:
    """``rows`` as a tuple of int tuples; a ValidationError unless it is a
    list or tuple of lists or tuples of ints (bools are not ints here)."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValidationError(f"{what} must be a list of rows, got {rows!r}")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValidationError(f"{what} entry ({i},{j}) = {x!r} is not an integer")
    return tuple(tuple(row) for row in rows)


def make_lattice(gram: Sequence[Sequence[int]], name: str = "") -> Lattice:
    """Validate a symmetric integer matrix and compute exact metadata.

    Degenerate Gram matrices are accepted (the degenerate Kneser
    algorithm needs them); operations that require non-degeneracy raise
    their own errors.
    """
    gram = int_matrix(gram, "gram matrix")
    n = len(gram)
    for i, row in enumerate(gram):
        if len(row) != n:
            raise ValidationError(f"gram matrix is not square: row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                raise ValidationError(
                    f"gram matrix is not symmetric at entry ({i},{j}): {gram[i][j]} != {gram[j][i]}"
                )
    _, minors = _symmetric_bareiss(gram)
    signs = [a * b for a, b in zip(minors, minors[1:])]
    p, m = sum(1 for x in signs if x > 0), sum(1 for x in signs if x < 0)
    return Lattice(name=name, gram=gram, rank=n, signature=(p, m), discriminant=abs(minors[-1]))


def lattice_from_dict(data: dict) -> Lattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise ValidationError("lattice JSON must be an object with a 'gram' key")
    return make_lattice(data["gram"], name=str(data.get("name", "")))


def direct_sum(*grams: Sequence[Sequence[int]]) -> list[list[int]]:
    """Block-diagonal sum of Gram matrices."""
    grams = [int_matrix(g, "direct_sum block") for g in grams]
    total = sum(len(g) for g in grams)
    out = [[0] * total for _ in range(total)]
    off = 0
    for g in grams:
        k = len(g)
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = g[i][j]
        off += k
    return out


U_GRAM = ((0, 1), (1, 0))

# E8 Cartan matrix (chain 1..7 with node 8 attached to node 5), negated below.
_E8_CARTAN = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

E8_MINUS_GRAM = tuple(tuple(-x for x in row) for row in _E8_CARTAN)


def _require_rank(L: Lattice, v: Sequence) -> None:
    if len(v) != L.rank:
        raise RankMismatchError(f"vector of length {len(v)} does not match lattice rank {L.rank}")


# ---------------------------------------------------------------------------
# the form and its derived maps


def gram_apply(L: Lattice, v: Sequence) -> Vector:
    """The covector gram . v (functional coordinates of v)."""
    _require_rank(L, v)
    return mat_vec(L.gram, v)


def pairing(L: Lattice, v: Sequence, w: Sequence):
    """q(v, w) = v^T . gram . w, exact; an int when both inputs are integral."""
    _require_rank(L, v)
    return sum(map(mul, v, gram_apply(L, w)))


def square(L: Lattice, v: Sequence):
    return pairing(L, v, v)


def homology_image(L: Lattice, v: Sequence) -> Vector:
    """Rational cohomology coordinates of a dual (homology) class.

    ``v`` is an integral class read in the dual basis (functional
    coordinates); the image is ``gram^{-1} . v``.  The contract guaranteed
    by the construction is that ``discriminant * homology_image(v)`` is
    integral, since ``disc * gram^{-1}`` is the (sign-adjusted) adjugate.
    """
    _require_rank(L, v)
    if L.is_degenerate:
        raise DegenerateLatticeError("homology image requires a non-degenerate lattice")
    det, (x,) = _bareiss(L.gram, (as_int_vector(v),))
    return tuple(Fraction(xi, det) for xi in x)


def project_off(L: Lattice, v: Sequence, x: Sequence) -> Vector:
    """q(x,x)*v - q(v,x)*x: q(x,x) times the projection of v onto x^perp.

    The result lies in x^perp and is a tuple of ints for integral v and
    x, so no decision on it needs a Fraction; its direction is the
    projection's when q(x,x) > 0 and the opposite one when q(x,x) < 0.
    Requires q(x,x) != 0 (IsotropicVectorError otherwise).
    """
    _require_rank(L, v)
    gx = gram_apply(L, x)
    qxx, qvx = sum(map(mul, x, gx)), sum(map(mul, v, gx))
    if qxx == 0:
        raise IsotropicVectorError(f"cannot project along isotropic vector {tuple(x)}")
    return tuple(qxx * v[i] - qvx * x[i] for i in range(L.rank))


def hyperplane_basis(L: Lattice, x: Sequence) -> tuple[int, Vector, tuple[Vector, ...]]:
    """Integral basis of the saturated hyperplane {v : q(v, x) = 0}.

    Returns ``(g, x0, basis)`` with ``g = gcd(gram . x) >= 0`` and
    ``q(x0, x) = g``, by exact column elimination over Z on the row
    gram.x.  If x lies in the kernel of the form (g = 0) the basis is
    all of L.
    """
    g, cols = _column_reduce(gram_apply(L, x))
    cols = [tuple(c) for c in cols]
    return g, cols[0], tuple(cols[1:] if g else cols)


def induced_gram(L: Lattice, basis: Sequence[Vector]) -> Matrix:
    """Gram matrix of the form restricted to the span of ``basis``."""
    images = [gram_apply(L, b) for b in basis]
    return tuple(tuple(sum(map(mul, a, gb)) for gb in images) for a in basis)


def is_positive(L: Lattice, v: Sequence, reference: Sequence) -> bool:
    """Membership in the positive-cone component of the reference point.

    Requires signature (1, m): the positive set then has exactly two
    convex components, distinguished by the sign of q(v, reference).
    """
    if L.signature[0] != 1:
        raise SignatureError(f"positive cone needs signature (1, m), lattice has {L.signature}")
    v, ref = primitive_integral(v), primitive_integral(reference)
    if pairing(L, ref, ref) <= 0:
        raise NonPositiveVectorError(f"reference point {tuple(reference)} is not positive")
    return pairing(L, v, v) > 0 and pairing(L, v, ref) > 0


def reflect_vector(L: Lattice, v: Sequence, s: Sequence) -> Vector:
    """r_s(v) = v - 2 (q(v,s)/q(s,s)) s, exact; integral when it happens to be."""
    _require_rank(L, v)
    if not all(isinstance(a, (int, Fraction)) for a in (*v, *s)):
        raise ValidationError(f"cannot reflect {tuple(v)} in {tuple(s)}: a coordinate is not an int or a Fraction")
    gs = gram_apply(L, s)
    qss = sum(map(mul, s, gs))
    if qss == 0:
        raise IsotropicVectorError(f"cannot reflect in isotropic vector {tuple(s)}")
    c = Fraction(2 * sum(map(mul, v, gs)), qss)
    out = tuple(v[i] - c * s[i] for i in range(L.rank))
    return as_int_vector(out) if all(x.denominator == 1 for x in out) else out


def reflection_row(s: Sequence[int], gs: Sequence[int]) -> Vector | None:
    """The integer row k = 2 G s / q(s, s) of r_s(x) = x - (k . x) s, from the
    primitive integral s (2s may fail where s passes) and its covector ``gs`` = G s;
    None when s is isotropic or r_s is not integral on L (Humphreys,
    *Reflection Groups and Coxeter Groups*, 5.6)."""
    qss = sum(map(mul, s, gs))
    if qss == 0 or any(2 * x % qss for x in gs):
        return None
    return tuple([2 * x // qss for x in gs])


def reflect_by_row(x: Sequence, s: Sequence[int], k: Sequence[int]) -> Vector:
    """r_s(x) = x - (k . x) s, from s's integer reflection row k."""
    c = sum(map(mul, x, k))
    return tuple([a - c * b for a, b in zip(x, s)])


def reflection_matrix(L: Lattice, s: Sequence[int]) -> Matrix | None:
    """The matrix I - s k^T of r_s, from the reflection row k of the
    primitive integral s; None when r_s is not integral on L."""
    k = reflection_row(s, gram_apply(L, s))
    return None if k is None else tuple(tuple((i == j) - a * b for j, b in enumerate(k)) for i, a in enumerate(s))

