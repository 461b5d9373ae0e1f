"""Independent brute-force oracles shared by unit and acceptance tests.

These deliberately avoid the library's bound-propagation pathway: walls
are found by filtering the plain box scan, and the box size is justified
by an ellipsoid bound on the positive definite form
M(s) = 2 q(s, v0)^2 / q(v0, v0) - q(s, s), which dominates every wall
separating v0 from v1.
"""

from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul

from mbmlat import core
from mbmlat.core import gram_apply
from mbmlat.enumeration import is_reflective, vectors_of_square


def floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a non-negative rational."""
    return isqrt(x.numerator // x.denominator)


def ellipsoid_box(L, v0, R) -> int:
    """Coordinate bound for every s with M(s) <= R: |s_i|^2 <= R (M^-1)_ii."""
    N = core.square(L, v0)
    n = L.rank
    gv0 = gram_apply(L, v0)
    M = [[Fraction(2 * gv0[i] * gv0[j], N) - L.gram[i][j] for j in range(n)] for i in range(n)]
    Minv = rational_inverse(M)
    return max(floor_sqrt(R * Minv[i][i]) for i in range(n)) + 1


def wall_box_bound(L, v0, v1, squares) -> int:
    """Rigorous coordinate bound for any wall with q(s,v0) > 0 > q(s,v1)."""
    N = core.square(L, v0)
    q1 = core.square(L, v1)
    mu = core.pairing(L, v0, v1)
    gap = mu * mu - N * q1
    if gap <= 0:
        return 1
    # t^2 < |d| * gap / q1, so M(s) = 2 t^2 / N + |d| is bounded by R
    return ellipsoid_box(L, v0, max(Fraction(2 * abs(d) * gap, q1 * N) + abs(d) for d in squares))


def near_box_bound(L, v, squares, max_pairing) -> int:
    """Rigorous coordinate bound for any wall with 0 <= t = q(s, v) <= T =
    max_pairing: M(s) = 2 t^2 / N + |d| <= 2 T^2 / N + |d|."""
    N = core.square(L, v)
    return ellipsoid_box(L, v, max(Fraction(2 * max_pairing ** 2, N) + abs(d) for d in squares))


def posdef_box_scan(G, center, lo, hi) -> list:
    """All integer x with lo <= Q(x + center) <= hi, Q positive definite.

    |y_i|^2 <= Q(y) (G^-1)_ii bounds every coordinate of y = x + center,
    so the box |x_i + c_i| <= floor_sqrt(hi (G^-1)_ii) holds every answer.
    """
    n = len(G)
    if hi < 0:
        return []
    Ginv = rational_inverse(G)
    c = [Fraction(ci) for ci in center]
    D = lcm(*(ci.denominator for ci in c))
    C = [int(ci * D) for ci in c]
    radius = [floor_sqrt(Fraction(hi) * Ginv[i][i]) for i in range(n)]
    axes = [range(floor(-c[i]) - radius[i], ceil(-c[i]) + radius[i] + 1) for i in range(n)]
    out = []
    for x in product(*axes):
        z = [D * x[i] + C[i] for i in range(n)]
        if D * D * lo <= sum(z[i] * G[i][j] * z[j] for i in range(n) for j in range(n)) <= D * D * hi:
            out.append(x)
    return out


def brute_force_separating(L, v0, v1, spec, box) -> set:
    """All primitive spec walls in the box with q(s,v0) > 0 > q(s,v1)."""
    out = set()
    for d in spec.squares:
        for s in vectors_of_square(L, d, box):
            if gcd(*s) != 1:
                continue
            if spec.require_reflective and not is_reflective(L, s):
                continue
            if core.pairing(L, s, v0) > 0 > core.pairing(L, s, v1):
                out.add((d, s))
    return out


def brute_force_walls_near(L, v, spec, max_pairing, box) -> set:
    """All primitive spec walls in the box with 1 <= q(s, v) <= max_pairing."""
    out = set()
    for d in spec.squares:
        for s in vectors_of_square(L, d, box):
            if gcd(*s) != 1 or not 1 <= core.pairing(L, s, v) <= max_pairing:
                continue
            if spec.require_reflective and not is_reflective(L, s):
                continue
            out.add((d, s))
    return out


def brute_force_walls_through(L, v, spec, box) -> set:
    """All primitive spec walls in the box through v, sign-normalized."""
    out = set()
    for d in spec.squares:
        for s in vectors_of_square(L, d, box):
            if gcd(*s) != 1 or core.pairing(L, s, v) != 0:
                continue
            if spec.require_reflective and not is_reflective(L, s):
                continue
            out.add((d, core.sign_normalize(s)))
    return out


def _ext_gcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def kernel_functional(gram) -> tuple:
    """(l, phi) for a Gram matrix with a rank-1 kernel: l is the primitive
    integral kernel generator, read off plain Fraction Gauss-Jordan, and
    phi an integral functional with phi(l) = 1, by extended gcd."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    pivots = []
    for col in range(n):
        row = len(pivots)
        p = next((i for i in range(row, n) if m[i][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(n):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, f"kernel has dimension {len(free)}"
    x = [Fraction(int(c == free[0])) for c in range(n)]
    for row, col in enumerate(pivots):
        x[col] = -m[row][free[0]]
    den = lcm(*(c.denominator for c in x))
    scaled = [int(c * den) for c in x]
    l = tuple(c // gcd(*scaled) for c in scaled)
    g, phi = 0, [0] * n
    for i, a in enumerate(l):
        g, s, t = _ext_gcd(g, a)
        phi = [s * c for c in phi]
        phi[i] = t
    return l, tuple(phi)


def complement_part(v, l, phi) -> tuple:
    """v - phi(v) l, the part of v in ker phi."""
    k = sum(map(mul, phi, v))
    return tuple(a - k * b for a, b in zip(v, l))


def isometries_in_box(gram, bound) -> list:
    """Every matrix with entries in [-bound, bound], determinant +-1 and
    M^T G M = G, by a column search pruned by Gram pairings."""
    n = len(gram)
    box = list(product(range(-bound, bound + 1), repeat=n))
    out = []

    def rec(cols):
        j = len(cols)
        if j == n:
            m = tuple(tuple(c[r] for c in cols) for r in range(n))
            if abs(rational_det_inverse(m)[0]) == 1:
                out.append(m)
            return
        for v in box:
            if form(gram, v, v) == gram[j][j] and all(form(gram, cols[i], v) == gram[i][j] for i in range(j)):
                rec(cols + [v])

    rec([])
    return out


def _kernel_shear(l, psi, c) -> tuple:
    """The matrix of x -> x + c psi(x) l."""
    n = len(l)
    return tuple(tuple(int(r == k) + c * l[r] * psi[k] for k in range(n)) for r in range(n))


def degenerate_generator_set(gram, l, phi, box=1, max_shift=8) -> list:
    """Generators for the degenerate-kernel closure oracle, as matrices
    closed under inverses (the shears and the flip fix the form because l
    spans its kernel):

    - kernel shears x -> x + m psi_i(x) l for 0 < |m| <= max_shift, where
      psi_i(x) = x_i - l_i phi(x) span the functionals vanishing on l (a
      shear by any multiple is a single generator, not a word);
    - the kernel sign flip x -> x - 2 phi(x) l;
    - every isometry with entries in [-box, box].
    """
    n = len(gram)
    psis = [tuple(int(i == k) - l[i] * phi[k] for k in range(n)) for i in range(n)]
    gens = [_kernel_shear(l, psi, m) for psi in psis if any(psi)
            for m in range(-max_shift, max_shift + 1) if m]
    gens.append(_kernel_shear(l, phi, -2))
    gens += isometries_in_box(gram, box)
    mats = {}
    for g in gens:
        mats[g] = None
        mats[tuple(tuple(int(x) for x in row) for row in rational_inverse(g))] = None
    return list(mats)


def closure_classes(reps, gens, word_len, state_box) -> list:
    """BFS ball (words up to word_len, coordinates confined to state_box)
    around each representative."""
    n = len(gens[0])
    # every generator's rows, stacked and transposed: the images of x are
    # the consecutive n-blocks of sum_k x_k columns[k]
    columns = list(zip(*(row for m in gens for row in m)))
    balls = []
    for rep in reps:
        seen = {tuple(rep)}
        frontier = [tuple(rep)]
        for _ in range(word_len):
            nxt = []
            for x in frontier:
                images = [0] * len(columns[0])
                for c, col in zip(x, columns):
                    if c:
                        images = [a + c * b for a, b in zip(images, col)]
                for y in zip(*[iter(images)] * n):
                    if y in seen or max(map(abs, y)) > state_box:
                        continue
                    seen.add(y)
                    nxt.append(y)
            frontier = nxt
            if not frontier:
                break
        balls.append(seen)
    return balls


def complement_orbit_reps(L, l, phi, gens, r, box, word_len=10) -> list:
    """Brute-force orbit representatives of square r in the complement
    ker phi: the non-zero complement parts of all box vectors, partitioned
    by closure under the generators."""
    parts = {complement_part(v, l, phi) for v in vectors_of_square(L, r, box)}
    parts.discard((0,) * L.rank)
    reps = []
    assigned = set()
    for part in sorted(parts):
        if part in assigned:
            continue
        assigned |= closure_classes([part], gens, word_len, 4 * box)[0] & parts
        reps.append(part)
    return reps


def random_positive_pair(L, rng, coord_bound=5):
    """A seeded random pair of positive classes in one component."""
    while True:
        v0 = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(L.rank))
        v1 = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(L.rank))
        if core.square(L, v0) <= 0 or core.square(L, v1) <= 0:
            continue
        if core.pairing(L, v0, v1) < 0:
            v1 = tuple(-c for c in v1)
        if core.pairing(L, v0, v1) <= 0:
            continue
        return v0, v1


def form(gram, a, b):
    """a^T . gram . b by the plain double sum."""
    return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def _primitive(v) -> tuple:
    g = gcd(*v)
    return tuple(a // g for a in v)


def repair_walk(gram, w, candidates, s):
    """The reflection-repair walk of the candidate s, without end: (y, violated)
    for each witness y on s^perp, from w's projection y = q(w, s) s - q(s, s) w.

    ``violated`` lists (q(u, y), q(u, u), u) for the other candidates u with
    q(u, y) <= 0, in the order the repair picks them; the next y is the
    primitive integral multiple of y reflected across the projection off s
    of the first one.  Plain integer arithmetic on ``form``.
    """
    y = tuple(form(gram, w, s) * a - form(gram, s, s) * b for a, b in zip(s, w))
    while True:
        vio = sorted((form(gram, u, y), form(gram, u, u), u)
                     for u in candidates if u != s and form(gram, u, y) <= 0)
        yield y, vio
        if not vio:
            return
        p = off_wall(gram, vio[0][2], s)
        y = _primitive(tuple(2 * form(gram, y, p) * b - form(gram, p, p) * a for a, b in zip(y, p)))


def off_wall(gram, u, s):
    """q(s, s) u - q(u, s) s, a multiple of u's projection onto s^perp."""
    return tuple(form(gram, s, s) * a - form(gram, u, s) * b for a, b in zip(u, s))


def repair_decisions(gram, w, candidates, budget):
    """Facet decisions for the candidate walls whose reflection is not
    integral: projection witness, separation certificate, then ``budget``
    witnesses of :func:`repair_walk` with no check for a repeated one.

    ``candidates`` are the wall vectors with 1 <= q(s, w) for the
    wall-free positive w; returns ``(faces, undecided)``, faces as (wall,
    primitive witness) pairs.
    """
    faces, undecided = [], []
    for s in candidates:
        d = form(gram, s, s)
        if all(2 * sum(g * b for g, b in zip(row, s)) % d == 0 for row in gram):
            continue
        walk = islice(repair_walk(gram, w, candidates, s), budget)
        first = next(walk)
        if any(form(gram, off_wall(gram, u, s), off_wall(gram, u, s)) >= 0 for _, _, u in first[1]):
            continue
        for y, vio in chain([first], walk):
            if not vio:
                faces.append((s, _primitive(y)))
                break
        else:
            undecided.append(s)
    return faces, undecided


def extreme_rays(gram, faces):
    """The extreme rays of K = {x : q(f, x) >= 0 for the faces f}, as sorted
    primitive integral vectors in K, or None when K is not pointed.

    By Fraction determinants of the rows (q(f, e_j))_j: K is pointed iff
    some rank of them are independent, and rank - 1 rows vanish on the
    vector of signed maximal minors x_j = (-1)^j det(rows without column j),
    a line if x != 0.  A ray is such a line on which no face is negative.
    """
    n = len(gram)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [[form(gram, f, e) for e in units] for f in faces]
    if all(rational_det_inverse(sub)[0] == 0 for sub in combinations(rows, n)):
        return None
    rays = set()
    for sub in combinations(rows, n - 1):
        x = [(-1) ** j * rational_det_inverse([r[:j] + r[j + 1:] for r in sub])[0] for j in range(n)]
        if not any(x):
            continue
        x = _primitive(tuple(c.numerator for c in x))
        sides = [form(gram, f, x) for f in faces]
        if min(sides) < 0 < max(sides):
            continue
        rays.add(x if max(sides) > 0 else tuple(-c for c in x))
    return sorted(rays)


def odd_coxeter_classes(gram, roots) -> int:
    """Components of the graph on simple roots of square -2 with an edge
    wherever |q(s_i, s_j)| = 1, i.e. the Coxeter label m_ij is 3.

    Two simple reflections are conjugate in the reflection group if and
    only if a path of odd-m edges joins them (Bourbaki, Lie Groups ch. IV
    §1 ex. 3), so this counts the orbits of the facets of the base chamber.
    """
    seen: set = set()
    classes = 0
    for i in range(len(roots)):
        if i in seen:
            continue
        classes += 1
        seen.add(i)
        stack = [i]
        while stack:
            a = stack.pop()
            for b in range(len(roots)):
                if b not in seen and abs(form(gram, roots[a], roots[b])) == 1:
                    seen.add(b)
                    stack.append(b)
    return classes


def rational_projection(gram, v, x):
    """v minus its x-component, in plain Fraction arithmetic (q(x,x) != 0)."""
    c = Fraction(form(gram, v, x), form(gram, x, x))
    return tuple(Fraction(a) - c * b for a, b in zip(v, x))


def integral_reflection(gram, s):
    """The reflection x -> x - 2 q(x, s) / q(s, s) s as a map of integer
    vectors, from the Fraction images of the unit vectors, or None when one
    of them is not integral."""
    n = len(gram)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    # r(e) = 2 p(e) - e for the projection p onto s^perp
    cols = [[2 * c - u for c, u in zip(rational_projection(gram, e, s), e)] for e in units]
    if any(c.denominator != 1 for col in cols for c in col):
        return None
    return lambda x: tuple(sum(a * col[i].numerator for a, col in zip(x, cols)) for i in range(n))


def rational_det_inverse(a):
    """(det(a), a^-1) by plain Fraction Gauss-Jordan; the inverse is None
    when a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det, [row[n:] for row in m]


def check_lll(G, H, A) -> None:
    """Assert that (H, A) is an LLL reduction of the positive definite G
    with delta = 3/4, by plain Fraction Gram-Schmidt on A: H is unimodular,
    A = H G H^T, |mu_ij| <= 1/2 and B_k >= (3/4 - mu_{k,k-1}^2) B_{k-1}."""
    n = len(G)
    assert len(H) == len(A) == n
    assert abs(rational_det_inverse(H)[0]) == 1
    assert [list(r) for r in A] == [[form(G, H[i], H[j]) for j in range(n)] for i in range(n)]
    B: list = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (A[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))) / B[j]
            assert abs(mu[i][j]) <= Fraction(1, 2), (i, j, mu[i][j])
        B.append(A[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i)))
        assert B[i] > 0
    for k in range(1, n):
        assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1], k


def rational_inverse(a):
    """Exact inverse of a square non-singular rational matrix."""
    return rational_det_inverse(a)[1]


def signature_by_diagonalization(gram) -> tuple:
    """Signature (p, m) by symmetric Gaussian elimination over Fraction.

    Congruence transformations preserve the signature; a zero pivot is
    repaired by a diagonal swap, else by adding e_off (square 2 a_k,off),
    and a zero row is a kernel direction.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    p = m = 0
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if pivot is not None:
                a[k], a[pivot] = a[pivot], a[k]
                for row in a:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        if d > 0:
            p += 1
        else:
            m += 1
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / d
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
    return p, m
