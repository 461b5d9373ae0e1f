"""Finite enumeration kernels for wall-and-chamber geometry.

Four engines live here:

* :func:`definite_short_vectors` -- all short vectors of a negative
  definite lattice, by exact Fincke-Pohst bound propagation in one flat
  loop over the levels; a centred search without a cut walks half the
  ball, one point of each +- pair;
* :func:`vectors_of_square` -- the deliberately simple box-scan oracle;
* :func:`separating_walls` -- the complete search for walls of
  prescribed square crossed between two positive classes;
* root descent in a certified base chamber, which answers the same
  question without a search once (L, spec) has one.

Completeness of the separating search rests on the decomposition
``s = (t/N) v0 + s_perp`` with ``t = q(s, v0)``, ``N = q(v0, v0)``:
the orthogonal part lives in the negative definite lattice ``v0^perp``
with ``q(s_perp, s_perp) = d - t^2/N`` forced exactly, and the strict
condition ``q(s, v1) < 0`` together with Cauchy-Schwarz in ``v0^perp``
bounds ``t^2 < |d| (mu^2 - N q1) / q1`` where ``mu = q(v0, v1)`` and
``q1 = q(v1, v1)``.  Every admissible ``t`` is a multiple of the
divisibility ``g0 = gcd(gram . v0)``; for each one the candidates are
enumerated exactly in ``v0^perp`` around an integer center over one
denominator and reconstructed in the ambient lattice, discarding
imprimitive reconstructions.  The half-space ``q(s, v1) < 0`` is a
linear cut of that enumeration, which prunes by it on every level, so
only the far-side cap of each t-ellipsoid is visited; at t = 0 (walls
through v0) the search is centred and uncut, so it walks half the
ellipsoid and yields one wall of each +- pair.  The basis of
``v0^perp`` is LLL-reduced once per base point (:func:`core._lll`), which
shrinks the Fincke-Pohst tree.  The set of walls does not depend on the
basis, only the order in which they are found: the public searches sort
or set-normalize their output, and ``has_other_separating_wall`` only
asks whether one exists.

When every wall of the spec reflects integrally (squares -1 and -2, or
``require_reflective``), the chambers are the translates of one Coxeter
chamber C under the group W the reflections generate.  A list of facets
t_i of C (oriented inward) is certified complete when every t_i is
reflective, q(t_i, t_j) >= 0 for i != j, the cone K = {x : q(t_i, x) >= 0}
is pointed and its extreme rays lie in the closed positive component of
C.  Proof: a missing facet u would have q(u, t_i) >= 0 for all i, so u
would lie in K, inside the closed positive cone, against q(u, u) < 0.
``chambers.reduce_to_base`` learns C (:func:`learn_chamber`) once per
(L, spec), from the facets of its first wall-free base.  Then
``separating_walls(a, b)`` descends b into the closure of C; the roots
beta_j = r_{i_1} ... r_{i_{j-1}} t_{i_j} met on the way are exactly the
positive roots with q(beta, b) < 0 (Humphreys, *Reflection Groups and
Coxeter Groups*, 5.6), and those with q(beta, a) > 0 separate; so do the
negatives of the roots of a's descent with q(beta, b) > 0.  A descent
runs on the pairings c = (q(x, t_i)), taken once: r_j maps them to
c - m q(t_j, .), m = 2 c_j / q(t_j, t_j).  A root is built once, as
sum_l n_l t_l; a back-reflection in r_j takes n_j to n_j - sum_l n_l A_lj,
A_lj = 2 q(t_l, t_j) / q(t_j, t_j).  m and A_lj are integers, as t_j
reflects integrally.  Without a certified chamber, Fincke-Pohst answers;
it is also the tests' reference.

All functions are pure apart from that record of certified chambers;
per-basepoint data is memoized on immutable keys.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, gcd, isqrt, lcm, prod
from operator import mul
from threading import Lock
from typing import NamedTuple

from .core import (
    Lattice,
    Vector,
    gram_apply,
    hyperplane_basis,
    induced_gram,
    integer_kernel,
    primitive_integral,
    reflection_row,
    sign_normalize,
    square,
    _bareiss,
    _lll,
    _symmetric_bareiss,
)
from .errors import (
    DegenerateLatticeError,
    NonPositiveVectorError,
    ReductionInvariantError,
    SignatureError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# wall specifications and walls


class _WallSpecFields(NamedTuple):
    squares: tuple[int, ...]
    require_reflective: bool = False


class WallSpec(_WallSpecFields):
    """The finite set of allowed wall squares (all negative).

    ``require_reflective`` keeps only classes whose reflection is
    integral on the lattice, i.e. 2 q(e, s) divisible by q(s, s) for
    every basis vector e.  The fields live on a private base, since a
    ``NamedTuple`` body cannot define the ``__new__`` that checks them.
    """

    __slots__ = ()

    def __new__(cls, squares: tuple[int, ...], require_reflective: bool = False):
        if not squares:
            raise ValidationError("WallSpec needs a non-empty set of squares")
        if any((not isinstance(d, int)) or d >= 0 for d in squares):
            raise ValidationError(f"WallSpec squares must be negative integers, got {squares}")
        return super().__new__(cls, squares, require_reflective)


def wall_spec(squares, require_reflective: bool = False) -> WallSpec:
    """Normalize any iterable of negative integers into a WallSpec."""
    return WallSpec(squares=tuple(sorted(set(squares))), require_reflective=require_reflective)


class Wall(NamedTuple):
    """A primitive negative class; its orthogonal hyperplane is the wall.

    The stored sign depends on context: sign-normalized when the wall
    stands alone, oriented (q(vector, base) > 0) when produced by the
    separating search.
    """

    vector: Vector
    square: int

    @property
    def sort_key(self):
        return (self.square, self.vector)

    def unsigned(self) -> "Wall":
        return Wall(vector=sign_normalize(self.vector), square=self.square)


def is_reflective(L: Lattice, s) -> bool:
    """True iff x -> x - 2 (q(x,s)/q(s,s)) s, which depends on the ray of s alone, is integral on L."""
    s = primitive_integral(s)
    return reflection_row(s, gram_apply(L, s)) is not None


# ---------------------------------------------------------------------------
# exact Fincke-Pohst enumeration


class _PosDefForm:
    """Fraction-free Cholesky data of a positive definite integer form.

    It is built from the integer upper triangle R of
    :func:`core._symmetric_bareiss` and eliminates nothing itself.  R's
    diagonal holds the leading principal minors R_ii = Delta_{i+1}
    (Delta_0 = 1), all positive (Sylvester), and

        Q(x) = sum_i (sum_{j>=i} R_ij x_j)^2 / (Delta_i Delta_{i+1}).

    With ``scale`` = lcm_i(Delta_i Delta_{i+1}) and integer weights
    W_i = scale / (Delta_i Delta_{i+1}), scale * Q(x) is the weighted sum
    of integer squares sum_i W_i (sum_{j>=i} R_ij x_j)^2.
    """

    def __init__(self, rows, minors):
        self.rows = rows
        self.n = n = len(rows)
        self.heads = tuple(row[0] for row in rows)
        self.tails = tuple(row[1:] for row in rows)
        self.dens = dens = tuple(minors[i] * minors[i + 1] for i in range(n))
        self.scale = lcm(*dens)
        self.weights = tuple(self.scale // den for den in dens)

    def linear(self, h):
        """The linear form z -> h.z in the kernel's coordinates, integrally.

        With a_i = sum_{j>=i} R_ij z_j, h.z = lam.a for lam = R^{-T} h.
        Returns ``(Lam, mu, sums)``: Lam = prod_i R_ii, the integer vector
        mu = Lam lam (one forward substitution, every division exact since
        Lam R^{-T} is the adjugate) and the prefix sums
        sums[L] = sum_{i<=L} mu_i^2 Delta_i Delta_{i+1}.
        """
        rows = self.rows
        big = prod(row[0] for row in rows)
        mu: list[int] = []
        for j, row in enumerate(rows):
            mu.append((big * h[j] - sum(rows[i][j - i] * mu[i] for i in range(j))) // row[0])
        return big, tuple(mu), tuple(accumulate(m * m * den for m, den in zip(mu, self.dens)))

    def enumerate(self, C, D, lo, hi, cut=None, half=False):
        """Yield every integer x with lo <= D^2 Q(x + C/D) <= hi, each exactly once.

        ``C`` is an integer vector, ``D > 0`` one common denominator and
        ``lo``, ``hi`` are integers.  Since D^2 Q(x + C/D) = Q(D x + C),
        every level works on the integers z_j = D x_j + C_j against the
        bounds scale * hi and scale * lo.

        ``cut = (self.linear(h), thr)`` keeps only the x with h.z < thr, an
        integer threshold, and prunes by it on every level: with the
        coordinates above L fixed, Lam h.z = P + sum_{i<=L} mu_i a_i, and
        over the ball sum_{i<=L} W_i a_i^2 <= rem that sum is at least
        -sqrt(rem sums[L] / scale) (Cauchy-Schwarz), so a subtree with
        P >= Lam thr and scale (P - Lam thr)^2 >= rem sums[L] holds no
        point of the cut.  On level 0 the cut is an interval of a_0.

        ``half``, for a centred search (C = 0) without a cut, whose points
        come in +- pairs, yields one point of each pair (and 0 if the ball
        holds it): the one whose last nonzero coordinate is positive.
        While every coordinate above a level is 0, the level's coordinate
        must be >= 0.

        One flat loop walks the levels from n - 1 down to 0.  The points
        come in the order of a depth-first search with t ascending on every
        level, and on level 0 the a >= 0 side first; ``half`` yields a
        subsequence of that order.
        """
        n, heads, tails, weights, scale = self.n, self.heads, self.tails, self.weights, self.scale
        (big, mu, sums), thr = cut or ((1, (0,) * n, (0,) * n), 1)
        if n == 0:
            if lo <= 0 <= hi and 0 < thr:
                yield ()
            return
        top, bottom = scale * hi, scale * lo
        if top < 0 or bottom > top:
            return
        limit = big * thr
        steps = [D * head for head in heads]
        x, z = [0] * n, [0] * n
        # per level: the next and last t, b, and on entry the weighted sum
        # used above it, the cut's partial sum Lam h.z above it (P) and
        # whether every coordinate above it is 0 in a half search
        nxt, last, bs = [0] * n, [0] * n, [0] * n
        used, part, zero = [0] * n, [0] * n, [half] * n
        level = n - 1
        while True:
            rem = top - used[level]
            excess = part[level] - limit
            if excess < 0 or scale * excess * excess < rem * sums[level]:
                # a = sum_{j>=level} R_lj z_j = step * t + b, |a| <= r
                step = steps[level]
                b = heads[level] * C[level] + sum(map(mul, tails[level], z[level + 1:]))
                r = isqrt(rem // weights[level])
                if level:
                    nxt[level] = 0 if zero[level] else -((r + b) // step)
                    last[level], bs[level] = (r - b) // step, b
                else:
                    need = bottom - used[0]
                    s = isqrt((need - 1) // weights[0]) + 1 if need > 0 else 0
                    # the cut P + m a < limit bounds a on one side: a in [a_lo, a_hi]
                    m, p = mu[0], part[0]
                    a_lo, a_hi = -r, r
                    if m > 0:
                        a_hi = min(r, (limit - p - 1) // m)
                    elif m < 0:
                        a_lo = max(-r, -((limit - p - 1) // -m))
                    # a >= max(s, a_lo), then a <= -max(s, 1): |a| >= s, zero once
                    for t in range(-((b - max(s, a_lo)) // step), (a_hi - b) // step + 1):
                        x[0] = t
                        yield tuple(x)
                    if not zero[0]:
                        for t in range(-((b - a_lo) // step), (min(-max(s, 1), a_hi) - b) // step + 1):
                            x[0] = t
                            yield tuple(x)
                    level = 1
            else:
                level += 1
            # back up to the lowest level with a t left, then take it
            while level < n and nxt[level] > last[level]:
                level += 1
            if level == n:
                return
            t = nxt[level]
            nxt[level] = t + 1
            x[level] = t
            z[level] = D * t + C[level]
            a = steps[level] * t + bs[level]
            used[level - 1] = used[level] + weights[level] * a * a
            part[level - 1] = part[level] + mu[level] * a
            zero[level - 1] = zero[level] and not t
            level -= 1


@lru_cache(maxsize=256)
def _posdef_of_negdef(gram: tuple) -> _PosDefForm:
    return _PosDefForm(*_symmetric_bareiss(tuple(tuple(-x for x in row) for row in gram)))


# ---------------------------------------------------------------------------
# short vectors and the box oracle


def definite_short_vectors(L: Lattice, min_square: int) -> list[Vector]:
    """All v with min_square <= q(v, v) < 0, one per +-pair, lex order.

    The lattice must be negative definite.  Imprimitive vectors are
    included; the representative of each pair has its first nonzero
    coordinate positive.  The enumeration walks half the ball, whose
    points have their last nonzero coordinate positive; each is flipped
    to the representative and the list sorted.
    """
    if L.signature != (0, L.rank) or L.rank == 0:
        raise SignatureError(f"lattice is not negative-definite: signature {L.signature}")
    if not isinstance(min_square, int) or min_square >= 0:
        raise ValidationError(f"min_square must be a negative integer, got {min_square}")
    # the half ball's points have their last nonzero coordinate positive;
    # v > 0 lexicographically iff its first one is
    zero = (0,) * L.rank
    return sorted(v if v > zero else tuple([-c for c in v])
                  for v in _posdef_of_negdef(L.gram).enumerate(zero, 1, 1, -min_square, half=True))


@lru_cache(maxsize=32)
def _box_scan(gram: tuple, target: int, box: int) -> tuple[Vector, ...]:
    n = len(gram)
    out = []
    coords = [0] * n
    # incremental evaluation: val = q(prefix), lin[j] = q(prefix, e_j)
    def rec(k: int, val: int, lin: tuple):
        if k == n:
            if val == target:
                out.append(tuple(coords))
            return
        gkk = gram[k][k]
        for t in range(-box, box + 1):
            coords[k] = t
            rec(k + 1, val + 2 * t * lin[k] + t * t * gkk,
                tuple(lin[j] + t * gram[j][k] for j in range(n)) if k + 1 < n else lin)

    rec(0, 0, tuple(0 for _ in range(n)))
    return tuple(sorted(out))


def vectors_of_square(L: Lattice, target: int, box: int) -> list[Vector]:
    """Brute-force reference oracle: all v with q(v,v) == target, |v_i| <= box.

    Both signs and (for target 0) the zero vector are included.  Results
    are cached per (lattice, target, box) since the scan does not depend
    on any base point.
    """
    if not isinstance(target, int) or not isinstance(box, int) or box < 1:
        raise ValidationError(f"target must be an integer and box an integer >= 1, got {target!r} and {box!r}")
    return list(_box_scan(L.gram, target, box))


# ---------------------------------------------------------------------------
# separating walls


@lru_cache(maxsize=1024)
def _base_data(L: Lattice, v0: Vector) -> tuple:
    """(N, g0, x0, basis, form, c1, D) for wall searches around v0: N = q(v0, v0),
    g0 = gcd(G v0), x0 an integral solution of q(x, v0) = g0, an integral
    basis B of v0^perp, LLL-reduced (the walls do not depend on it), the
    positive definite form -Gw on v0^perp (Gw = B^T G B), and the center
    numerator per unit t/g0, c1 = D Gw^{-1} (B^T G x0), over D = |det Gw|."""
    g0, x0, basis = hyperplane_basis(L, v0)
    # negative definiteness of v0^perp is equivalent to v0 being positive
    h, form_gram, triangle = _lll(tuple(tuple(-x for x in r) for r in induced_gram(L, basis)))
    basis = tuple(tuple(sum(map(mul, row, col)) for col in zip(*basis)) for row in h)
    gx0 = gram_apply(L, x0)
    # Gw = -form_gram, so |det Gw| Gw^{-1} h1 = det(form_gram) form_gram^{-1} (-h1)
    det, (c1,) = _bareiss(form_gram, (tuple(-sum(map(mul, b, gx0)) for b in basis),))
    return square(L, v0), g0, x0, basis, _PosDefForm(*triangle), c1, det


def _embed(cols, x0, k, y) -> Vector:
    """k x0 + B y, from the columns of the basis B."""
    return tuple([k * c + sum(map(mul, y, col)) for c, col in zip(x0, cols)])


def _positive(L: Lattice, v) -> tuple[Vector, int, Vector]:
    """The primitive integral ray of v, its square and its covector G ray,
    after checking that L is non-degenerate of signature (1, m) and that v
    is positive."""
    if L.signature[0] != 1:
        raise SignatureError(f"wall search needs signature (1, m), lattice has {L.signature}")
    if L.is_degenerate:
        raise DegenerateLatticeError("wall search needs a non-degenerate lattice; the discriminant is 0")
    vi = primitive_integral(v)
    gv = gram_apply(L, vi)
    qv = sum(map(mul, vi, gv))
    if qv <= 0:
        raise NonPositiveVectorError(f"{tuple(v)} is not positive")
    return vi, qv, gv


def _iter_walls_for_t(L: Lattice, v: Vector, spec: WallSpec, ranges, gv1=None):
    """Shared kernel: yield walls s with q(s,s) = d and t_lo <= q(s, v) <= t_hi
    for each ``(d, t_lo, t_hi)`` in ``ranges``, and, given ``gv1`` = G v1,
    only those with q(s, v1) < 0.  At t = 0 without ``gv1`` only one wall
    of each +- pair is yielded, in no fixed sign.

    Every pairing t = q(s, v) is a multiple k g0.  The orthogonal part
    of s has D^2 Q(y + k c1/D) = D^2 (t^2/N - d), an integer for every
    such t: N divides D^2 t^2, as D = |det v^perp| = |N disc| / g0^2 and
    g0 divides N and disc (adj(G) G v = disc v, v primitive).  With
    s = k x0 + B y and z = D y + k c1, q(s, v1) = k q(x0, v1) + h.y for
    h_j = q(b_j, v1), so q(s, v1) < 0 is the enumeration's cut
    h.z < k (h.c1 - D q(x0, v1)), whose form data does not depend on d or t.
    """
    N, g0, x0, basis, form, c1, D = _base_data(L, v)
    cols = tuple(zip(*basis))
    linear = per_k = None
    if gv1 is not None:
        h = tuple(sum(map(mul, b, gv1)) for b in basis)
        linear = form.linear(h)
        per_k = sum(map(mul, h, c1)) - D * sum(map(mul, x0, gv1))
    for d, t_lo, t_hi in ranges:
        for k in range(-(-t_lo // g0), t_hi // g0 + 1):
            t = k * g0
            target = D * D * (t * t - d * N) // N
            center = tuple(k * ci for ci in c1)
            cut = None if linear is None else (linear, k * per_k)
            # at t = 0 without a cut the points come in +- pairs: take one of each
            half = not k and cut is None
            for y in form.enumerate(center, D, target, target, cut, half):
                s = _embed(cols, x0, k, y)
                if gcd(*s) == 1 and (not spec.require_reflective or is_reflective(L, s)):
                    yield Wall(vector=s, square=d)


def separating_walls(L: Lattice, v0, v1, spec: WallSpec) -> list[Wall]:
    """Exactly the walls s with q(s,s) in spec, q(s, v0) > 0 > q(s, v1).

    Output is sign-normalized so q(s, v0) > 0 and sorted by
    (square, coordinates).  The search is complete: the bound
    t^2 < |d| (mu^2 - N q1)/q1 derived from Cauchy-Schwarz in the
    negative definite v0^perp caps the admissible pairings.  Root descent
    in a certified chamber, when (L, spec) has one, finds the same set.

    The output is the exact strict-inequality set whether or not v0
    touches some wall; chamber-level callers validate wall-freeness
    separately (walls through v0 or v1 are never returned).
    """
    return sorted(iter_separating_walls(L, v0, v1, spec), key=lambda w: w.sort_key)


def iter_separating_walls(L: Lattice, v0, v1, spec: WallSpec):
    """Generator behind :func:`separating_walls`; order not guaranteed.
    Root descent answers when (L, spec) has a certified chamber; otherwise
    only the far-side cap q(s, v1) < 0 of each t-ellipsoid is enumerated."""
    v0p, N, _ = _positive(L, v0)
    V1, q1, gv1 = _positive(L, v1)
    mu = sum(map(mul, v0p, gv1))
    if mu <= 0:
        raise NonPositiveVectorError("v0 and v1 do not lie in the same positive component")
    gap = mu * mu - N * q1  # zero iff v0, v1 are proportional
    if gap <= 0:
        return
    chamber = _chambers.get((L, spec))
    if chamber is not None:
        # -1 maps the walls onto themselves and swaps the two components, so
        # with a, b = sign (v0, v1) in the base's component, a wall s with
        # q(s, a) > 0 > q(s, b) is a positive root or the negative of one
        sign = 1 if sum(map(mul, v0p, chamber.gbase)) > 0 else -1
        (ha, ca), (hb, cb) = chamber.pairings(v0p, sign), chamber.pairings(V1, sign)
        for t, cx, hx, cy in ((sign, cb, hb, ca), (-sign, ca, ha, cb)):
            for beta, d in chamber.inversions(cx, hx, cy):
                yield Wall(vector=beta if t > 0 else tuple([-c for c in beta]), square=d)
        return
    # the largest t with t^2 q1 < |d| gap, per square
    ranges = [(d, 1, isqrt((-d * gap - 1) // q1)) for d in sorted(spec.squares)]
    yield from _iter_walls_for_t(L, v0p, spec, ranges, gv1)


# ---------------------------------------------------------------------------
# separating walls by root descent in a certified chamber


class _Chamber:
    """A certified chamber of a reflective spec: its facets t_i, oriented
    so q(t_i, base) > 0, G t_i, G base, the Gram rows q(t_i, t_j), the
    heights q(t_i, base) and the Cartan matrix A_lj = 2 q(t_l, t_j) /
    q(t_j, t_j) by columns (``cartan[j][l]`` = A_lj).  r_j maps x to
    x - m t_j, m = 2 q(x, t_j) / q(t_j, t_j), so it maps x's pairings c and
    height to c - m q(t_j, .) and height - m q(t_j, base).  m and A_lj are
    integers: t_j reflects integrally, so q(t_j, t_j) divides 2 q(x, t_j)
    for every integral x.  A plain class with ``__slots__``, not a record,
    since it derives its fields in ``__init__``."""

    __slots__ = ("facets", "grams", "gbase", "gram", "heights", "cartan", "coords")

    def __init__(self, facets: tuple[Wall, ...], grams: tuple[Vector, ...], gbase: Vector):
        self.facets, self.grams, self.gbase = facets, grams, gbase
        self.gram = tuple(tuple(sum(map(mul, t.vector, g)) for g in grams) for t in facets)
        self.heights = tuple(sum(map(mul, t.vector, gbase)) for t in facets)
        self.cartan = tuple(tuple(2 * q // row[j] for q in row) for j, row in enumerate(self.gram))
        self.coords = tuple(zip(*(t.vector for t in facets)))

    def pairings(self, x, sign: int) -> tuple[int, list[int]]:
        """The height q(sign x, base) and the pairings (q(sign x, t_i)) of
        the integral x."""
        return sign * sum(map(mul, x, self.gbase)), [sign * sum(map(mul, x, g)) for g in self.grams]

    def inversions(self, cx: list[int], height: int, cy: list[int]):
        """(beta, square) for the positive roots with q(beta, x) < 0 < q(beta, y),
        from the pairings cx, cy and the height q(x, base) of integral x, y
        in the base's component.  x descends into the closed chamber, each
        time by the first t_j with q(t_j, x) < 0; a step must lower the
        height and keep it positive, which bounds the steps, or
        ReductionInvariantError.  The roots are the beta_k = r_{j_1} ...
        r_{j_{k-1}} t_{j_k} of the descent with q(beta_k, y) =
        q(t_{j_k}, r_{j_{k-1}} ... r_{j_1} y) > 0."""
        gram, heights, cartan, facets = self.gram, self.heights, self.cartan, self.facets
        word = []
        while True:
            for j, c in enumerate(cx):
                if c < 0:
                    break
            else:
                return
            row = gram[j]
            m = 2 * c // row[j]
            lower = height - m * heights[j]
            if not 0 < lower < height:
                raise ReductionInvariantError(
                    f"reflection in the facet {facets[j].vector} took q(x, base) from {height} to {lower}"
                )
            height = lower
            cx = [a - m * b for a, b in zip(cx, row)]
            if cy[j] > 0:
                n = [0] * len(facets)
                n[j] = 1
                for i in reversed(word):
                    n[i] -= sum(map(mul, n, cartan[i]))
                yield tuple([sum(map(mul, n, col)) for col in self.coords]), facets[j].square
            m = 2 * cy[j] // row[j]
            cy = [a - m * b for a, b in zip(cy, row)]
            word.append(j)


# (L, spec) -> its certified _Chamber, or None after a failed attempt;
# bounded, oldest first out.  Tests that pin Fincke-Pohst clear it.
_chambers: dict = {}
_chambers_lock = Lock()
_CHAMBERS_MAX = 64
# the certificate checks one candidate ray per rank - 1 facets
_RAY_BUDGET = 4096


def learn_chamber(L: Lattice, spec: WallSpec, base: Vector, facets) -> None:
    """Record for (L, spec) the chamber of the wall-free integral ``base``
    if ``facets``, the facets a bounded search found, pass the certificate
    of the module docstring, and None otherwise.  An extreme ray of K is
    one on which rank - 1 independent facets vanish."""
    chamber = None
    if comb(len(facets), L.rank - 1) <= _RAY_BUDGET:
        c = _Chamber(tuple(facets), tuple(gram_apply(L, t.vector) for t in facets), gram_apply(L, base))
        if (all(reflection_row(t.vector, g) is not None for t, g in zip(c.facets, c.grams))
                and all(h > 0 for h in c.heights)
                and all(row[j] >= 0 for i, row in enumerate(c.gram) for j in range(i))
                and not integer_kernel(c.grams, L.rank)
                and all(_ray_is_positive(L, c.gbase, c.grams, rows) for rows in combinations(c.grams, L.rank - 1))):
            chamber = c
    with _chambers_lock:
        if (L, spec) not in _chambers and len(_chambers) >= _CHAMBERS_MAX:
            del _chambers[next(iter(_chambers))]
        _chambers[L, spec] = chamber


def _ray_is_positive(L: Lattice, gbase, grams, rows) -> bool:
    """False iff the facets ``rows`` (covectors G t_i) cut out an extreme ray
    of K outside the closed positive component of the base."""
    kernel = integer_kernel(rows, L.rank)
    if len(kernel) != 1:
        return True
    x = kernel[0]
    sides = [sum(map(mul, x, g)) for g in grams]
    if min(sides) < 0 < max(sides):
        return True
    # K is pointed, so x lies in K if max(sides) > 0, and -x otherwise
    return square(L, x) >= 0 and (sum(map(mul, x, gbase)) > 0) == (max(sides) > 0)


def walls_near(L: Lattice, v, spec: WallSpec, max_pairing: int) -> list[Wall]:
    """Walls s with q(s,s) in spec and 1 <= q(s, v~) <= max_pairing, where
    v~ is the primitive integral rescaling of v.  Candidate universe for
    facet detection; completeness is relative to the pairing bound."""
    if not isinstance(max_pairing, int):
        raise ValidationError(f"max_pairing must be an integer, got {max_pairing!r}")
    vi = _positive(L, v)[0]
    ranges = [(d, 1, max_pairing) for d in spec.squares]
    return sorted(_iter_walls_for_t(L, vi, spec, ranges), key=lambda w: w.sort_key)


def has_other_separating_wall(L: Lattice, v0, v1, spec: WallSpec, excluded) -> bool:
    """True iff some wall outside ``excluded`` separates v0 from v1.

    Early-exits on the first hit; used by the exact facet criterion.
    """
    ex = frozenset(sign_normalize(x) for x in excluded)
    return any(sign_normalize(w.vector) not in ex for w in iter_separating_walls(L, v0, v1, spec))


def walls_containing(L: Lattice, v, spec: WallSpec) -> list[Wall]:
    """All walls through the positive class v (q(s, v) = 0), sign-normalized
    and sorted; complete, since v^perp is negative definite.  The search
    at t = 0 walks half the ball, so each wall is found once."""
    vi = _positive(L, v)[0]
    found = sorted((w.square, sign_normalize(w.vector))
                   for w in _iter_walls_for_t(L, vi, spec, [(d, 0, 0) for d in spec.squares]))
    return [Wall(vector=vec, square=d) for d, vec in found]
