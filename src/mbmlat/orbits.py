"""Isometry-group machinery: reflections, orbit canonicalization, the
degenerate-kernel orbit-representative algorithm, and face-orbit censuses.

The group acting is a generator set: user-supplied, or the reflections
in the base chamber's facets; nothing here claims to construct the full
isometry group of an indefinite lattice.  Orbit canonical forms by
descent are explicit under-approximations: equal outputs prove two
vectors lie in one orbit (a word connects them), unequal outputs are
inconclusive unless the search is flagged complete.  Under the base
chamber's own reflection group the census keys are exact: that chamber
is a Coxeter polyhedron, and the orbits of its faces follow from its
Coxeter diagram.  :func:`isometry` is the checked constructor: orbit
functions check each generator they are given once, against their lattice.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd
from typing import NamedTuple

from .chambers import DEFAULT_SEARCH_BOUND, explore_tessellation
from .core import (
    Lattice,
    Matrix,
    Vector,
    as_int_vector,
    gram_apply,
    identity_matrix,
    induced_gram,
    int_matrix,
    integer_kernel,
    make_lattice,
    mat_mul,
    mat_transpose,
    mat_vec,
    primitive_integral,
    reflection_matrix,
    sign_normalize,
    square,
    vec_add,
    vec_is_zero,
    vec_scale,
    _bareiss,
    _column_reduce,
    _symmetric_bareiss,
    _require_rank,
)
from .enumeration import Wall, WallSpec, is_reflective
from .errors import (
    BaseRepsError,
    KernelRankError,
    NonIntegralReflectionError,
    ReductionInvariantError,
    SquareBoundViolationError,
    ValidationError,
)

DEFAULT_WORD_BUDGET = 8


# ---------------------------------------------------------------------------
# isometries


class Isometry(NamedTuple):
    """Integer matrix preserving the Gram form, det +-1; :func:`isometry` is the checked constructor."""

    lattice: Lattice
    matrix: Matrix

    def apply(self, v) -> Vector:
        _require_rank(self.lattice, v)
        return mat_vec(self.matrix, v)

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(self.lattice, mat_mul(self.matrix, isometry(self.lattice, other.matrix).matrix))

    def inverse(self) -> "Isometry":
        # det = +-1, so the inverse is det * (det * M^{-1}), integral and form-preserving
        det, cols = _bareiss(self.matrix, identity_matrix(self.lattice.rank))
        return Isometry(self.lattice, mat_transpose([vec_scale(det, c) for c in cols]))


def isometry(L: Lattice, matrix) -> Isometry:
    """Validate M^T G M = G and det = +-1, then wrap."""
    m = int_matrix(matrix, "isometry matrix")
    if len(m) != L.rank or any(len(r) != L.rank for r in m):
        raise ValidationError(f"isometry matrix must be {L.rank}x{L.rank}")
    mt = mat_transpose(m)
    if mat_mul(mat_mul(mt, L.gram), m) != L.gram:
        raise ValidationError("matrix does not preserve the Gram form")
    if _bareiss(m)[0] not in (1, -1):
        raise ValidationError("isometry matrix must have determinant +-1")
    return Isometry(lattice=L, matrix=m)


def reflection(L: Lattice, s) -> Isometry:
    """The reflection x -> x - 2 (q(x,s)/q(s,s)) s, if integral on L.

    Raises NonIntegralReflectionError carrying the first basis vector on
    which integrality fails.  s counts by its primitive ray: r_{2s} = r_s.
    """
    sv = primitive_integral(as_int_vector(s.vector if isinstance(s, Wall) else s))
    m = reflection_matrix(L, sv)
    if m is None:
        gs, d = gram_apply(L, sv), square(L, sv)
        if d == 0:
            raise ValidationError(f"cannot reflect in isotropic vector {sv}")
        i = next(i for i, x in enumerate(gs) if 2 * x % d)
        raise NonIntegralReflectionError(
            f"reflection in {sv} (square {d}) is not integral on basis vector e_{i}: "
            f"2 q(e_{i}, s) = {2 * gs[i]} is not divisible by {d}", basis_index=i)
    return Isometry(L, m)


def check_square_bound_reflective(L: Lattice, s) -> bool:
    """Reflectivity predicate with the 2*discriminant bound asserted.

    Returns whether the reflection in s is integral; when it is (and the
    lattice is non-degenerate) verifies |q(s,s)| <= 2*discriminant for
    the primitive part of s -- a theorem for primitive classes, whose
    failure would indicate a computation bug.  The reflection itself only
    depends on the ray, so s is primitivized up front.
    """
    sv = primitive_integral(as_int_vector(s.vector if isinstance(s, Wall) else s))
    refl = is_reflective(L, sv)
    if refl and not L.is_degenerate:
        d = square(L, sv)
        if abs(d) > 2 * L.discriminant:
            raise SquareBoundViolationError(
                f"integral reflection in {sv} has |square| {abs(d)} > 2*disc = {2 * L.discriminant}"
            )
    return refl


# ---------------------------------------------------------------------------
# degenerate splitting and the Kneser reduction


class DegenerateSplit(NamedTuple):
    """Lattice = complement (+) kernel, as abelian groups.

    ``kernel_gen`` spans ker(q); ``complement_basis`` holds B0 columns in
    lattice coordinates; the change of basis [B0 | l] is unimodular and
    ``coord_matrix`` is its inverse, so ``coord_matrix . v`` lists the
    complement coordinates followed by the kernel coordinate.
    """

    lattice: Lattice
    kernel_gen: Vector
    complement_basis: tuple[Vector, ...]
    induced: Lattice
    coord_matrix: Matrix

    def decompose(self, v) -> tuple[Vector, int]:
        _require_rank(self.lattice, v)
        coords = mat_vec(self.coord_matrix, as_int_vector(v))
        return coords[:-1], coords[-1]

    def complement_content(self, v) -> int:
        """Content of the image of v in lattice/kernel (the ideal generator)."""
        coords, _ = self.decompose(v)
        return gcd(*coords)


def degenerate_split(L: Lattice) -> DegenerateSplit:
    """Split off the 1-dimensional kernel of the form."""
    kern = integer_kernel(L.gram, L.rank)
    if len(kern) != 1:
        raise KernelRankError(f"kernel has dimension {len(kern)}, need exactly 1")
    l = sign_normalize(kern[0])
    # l . U = (1, 0, ..., 0) for a unimodular U (l is primitive): the rows of
    # U^{-1} are l, then a complement basis B0, and v has coordinates u_j . v
    _, cols = _column_reduce(l)
    det, rows = _bareiss(cols, identity_matrix(L.rank))
    basis = tuple(vec_scale(det, r) for r in rows[1:])
    induced = make_lattice(induced_gram(L, basis), name=f"{L.name}/ker" if L.name else "")
    coord = tuple(map(tuple, cols[1:] + cols[:1]))
    return DegenerateSplit(
        lattice=L, kernel_gen=l, complement_basis=basis, induced=induced, coord_matrix=coord
    )


def kneser_degenerate_reps(L: Lattice, r: int, base_reps) -> list[Vector]:
    """Orbit representatives of square r from complement representatives.

    For each supplied class a0 the ideal Hom(complement, kernel) . a0 is
    d Z with d the content of a0's complement coordinates; the emitted
    system is {a0 + k*l : 0 <= k < d}, matching the degenerate-kernel
    reduction.  (The system is complete; k and d-k give one orbit via the
    kernel sign flip, so it need not be minimal for d >= 3.)
    """
    split = degenerate_split(L)
    l = split.kernel_gen
    out: list[Vector] = []
    seen = set()
    for raw in base_reps:
        a0 = as_int_vector(raw)
        if len(a0) != L.rank:
            raise BaseRepsError(f"representative {a0} has wrong length")
        if vec_is_zero(a0):
            raise BaseRepsError("the zero vector cannot anchor a representative family")
        if square(L, a0) != r:
            raise BaseRepsError(f"representative {a0} has square {square(L, a0)}, expected {r}")
        d = split.complement_content(a0)
        if d == 0:
            raise BaseRepsError(f"representative {a0} lies in the kernel; its orbit family is degenerate")
        for k in range(d):
            vec = vec_add(a0, vec_scale(k, l))
            if vec not in seen:
                seen.add(vec)
                out.append(vec)
    return out


# ---------------------------------------------------------------------------
# orbit canonicalization


class OrbitRepResult(NamedTuple):
    """Minimal orbit element found within the budget, under the
    (sup-norm, lexicographic) canonical order.

    ``complete`` is True only when the whole orbit was enumerated inside
    the coordinate box with no pruning: then the representative is the
    true canonical form.  Equal representatives always certify one
    orbit; distinct ones are inconclusive unless complete.
    """

    vector: Vector
    complete: bool
    visited: int


def _generator_matrices(L: Lattice, generators) -> list[Matrix]:
    """Flatten generators to matrices, closed under inverses; each one, raw
    matrix or Isometry, is checked once as an isometry of L."""
    mats: list[Matrix] = []
    seen = set()
    for g in generators:
        g = isometry(L, g.matrix if isinstance(g, Isometry) else g)
        for m in (g.matrix, g.inverse().matrix):
            if m not in seen:
                seen.add(m)
                mats.append(m)
    return mats


_RESTARTS = 8


def _sup(state) -> int:
    flat = sum(state, ())
    return max(max(flat), -min(flat))


def _descend(state, mats, word_budget: int, image):
    """Descend to the minimal element of the orbit of ``state``.

    A state is a tuple of vectors; ``image(m, state)`` is its image under
    the generator matrix m.  The order is (sup-norm, lexicographic) over
    the flattened state: orbits of hyperbolic reflection groups are
    infinite and have no lexicographic minimum, but only finitely many
    elements of bounded sup-norm, so this order has a genuine minimum on
    every orbit.  Each round is a BFS over generator words of length at
    most ``word_budget``, confined to the coordinate box
    4 * max(1, sup-norm of the representative) + 8; the next round
    restarts from the smallest element found, until a round finds nothing
    smaller or the restart cap of 8 rounds, shared by every orbit key, is
    spent.

    Returns ``(rep, complete, visited)`` for the last round: ``complete``
    when its BFS exhausted the orbit without leaving the box, ``visited``
    the number of states it saw.
    """
    if not isinstance(word_budget, int) or word_budget < 1:
        raise ValidationError(f"word_budget must be an integer >= 1, got {word_budget!r}")
    rep = state
    for _ in range(_RESTARTS):
        best_sup = _sup(rep)
        box = 4 * max(1, best_sup) + 8
        best = rep
        seen = {rep}
        frontier = [rep]
        pruned = False
        for _ in range(word_budget):
            nxt = []
            for x in frontier:
                for m in mats:
                    y = image(m, x)
                    sup = _sup(y)
                    if sup > box:
                        pruned = True
                        continue
                    if y in seen:
                        continue
                    seen.add(y)
                    nxt.append(y)
                    if sup < best_sup or (sup == best_sup and y < best):
                        best, best_sup = y, sup
            frontier = nxt
            if not frontier:
                break
        if best == rep:
            break
        rep = best
    return rep, not frontier and not pruned, len(seen)


def _plain_image(m, state):
    return tuple(mat_vec(m, v) for v in state)


def _sign_min(v: Vector) -> Vector:
    return min(v, tuple(-c for c in v))


def _sign_image(m, state):
    return tuple(_sign_min(mat_vec(m, v)) for v in state)


def canonical_orbit_rep(L: Lattice, v, generators, word_budget: int = DEFAULT_WORD_BUDGET) -> OrbitRepResult:
    """BFS the orbit of v under generator words, return the minimal element
    found under the (sup-norm, lexicographic) canonical order.

    The search is confined to a coordinate box auto-sized to the current
    representative and restarts from any smaller element it finds,
    descending until stable; see :func:`_descend`.
    """
    _require_rank(L, v)
    (rep,), complete, visited = _descend((as_int_vector(v),), _generator_matrices(L, generators),
                                         word_budget, _plain_image)
    return OrbitRepResult(vector=rep, complete=complete, visited=visited)


def orbit_key_mod_sign(L: Lattice, vectors, mats, word_budget: int = DEFAULT_WORD_BUDGET) -> tuple[Vector, ...]:
    """Canonical key of the orbit of a tuple of classes under the diagonal
    action, each class taken up to sign: the (sup-norm, lex) minimum of a
    sign-quotiented BFS."""
    for v in vectors:
        _require_rank(L, v)
    return _descend(tuple(_sign_min(as_int_vector(v)) for v in vectors), mats, word_budget, _sign_image)[0]


# ---------------------------------------------------------------------------
# census


class CensusRow(NamedTuple):
    depth: int
    codim: int
    faces: int
    new_orbits: int
    total_orbits: int


class CensusTable(NamedTuple):
    """Face-orbit census across a tessellation exploration.

    ``saturation`` maps codimension to the per-depth new-orbit counts;
    finiteness at desk scale shows up as those flattening to zero.
    """

    lattice_name: str
    base: Vector
    depth: int
    rows: tuple[CensusRow, ...]

    def saturation(self, codim: int) -> tuple[int, ...]:
        return tuple(r.new_orbits for r in self.rows if r.codim == codim)

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice_name,
            "base": list(self.base),
            "depth": self.depth,
            "rows": [
                {
                    "depth": r.depth,
                    "codim": r.codim,
                    "faces": r.faces,
                    "new_orbits": r.new_orbits,
                    "total_orbits": r.total_orbits,
                }
                for r in self.rows
            ],
            "saturation": {
                str(c): list(self.saturation(c)) for c in sorted({r.codim for r in self.rows})
            },
        }

    def to_text(self) -> str:
        header = ("depth", "codim", "faces", "new_orbits", "total_orbits")
        table = [header] + [
            tuple(str(x) for x in (r.depth, r.codim, r.faces, r.new_orbits, r.total_orbits))
            for r in self.rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in table]
        return "\n".join(lines) + "\n"


def face_orbit_census(
    L: Lattice,
    base,
    spec: WallSpec,
    generators,
    depth: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    max_codim: int = 2,
) -> CensusTable:
    """Tabulate face orbits per codimension and BFS depth.

    Facets (codim 1) are keyed by the orbit of their wall vector;
    codim-2 face chains are keyed by the orbit of the flag pair under
    the diagonal generator action, orientation forgotten.  New-orbit
    counts per depth give the saturation profile.

    The base chamber's states are keyed first.  ``generators=None`` takes
    the reflections in the reflective facets of the base node.  If every
    base facet is reflective, the base chamber is a fundamental domain of
    their group, and its states take the exact labels that
    :func:`_coxeter_classes` reads off its Coxeter diagram.  Otherwise,
    and with explicit generators, they are keyed by descent, which is
    exact only where keys agree.  A chamber gC reached by crossing facets
    whose base-frame reflections are all generators (see
    :func:`_path_inverses`) has g in the group, so each of its states
    shares the key of its g^{-1} image, a state of the base chamber: when
    every base-facet reflection is a generator, the rows of depth >= 1
    have no new orbits by construction.  A state falls back to its own
    descent when its chamber's g is not known to be in the group (custom
    generators without the base-facet reflections, or a crossing whose
    reflection is not integral) or when its image is not a keyed base
    state (a base facet cut off at ``search_bound``, or one left
    undecided).
    """
    if not isinstance(word_budget, int) or word_budget < 1:
        raise ValidationError(f"word_budget must be an integer >= 1, got {word_budget!r}")
    if not isinstance(max_codim, int) or max_codim not in (1, 2):
        raise ValidationError(f"max_codim must be 1 or 2, got {max_codim!r}")
    mats = None if generators is None else _generator_matrices(L, generators)
    graph = explore_tessellation(L, base, spec, depth, search_bound)
    diagram = None
    if mats is None:
        # the base facets' reflections are involutions: closed under inverses
        facets = graph.nodes[0].facets
        mats = [m for s in facets if (m := reflection_matrix(L, s.vector)) is not None]
        diagram = _coxeter_classes(L, facets) if len(mats) == len(facets) else None
    codims = (1, 2)[:max_codim]
    seen: dict = {c: set() for c in codims}
    keys: dict = {}
    rows: list[CensusRow] = []
    ginvs = _path_inverses(L, [n.path for n in graph.nodes], mats)
    for d in range(depth + 1):
        faces = dict.fromkeys(codims, 0)
        new = dict.fromkeys(codims, 0)
        for n in graph.nodes:
            if n.depth != d:
                continue
            ginv = ginvs[n.path]
            # each state with the indices of the facets it is built from
            states = [(1, (_sign_min(s.vector),), (i,)) for i, s in enumerate(n.facets)]
            if max_codim >= 2:
                # (i, j) is a flag iff q_ij^2 < q_ii q_jj, the pairs encode_flag accepts; its
                # entries are ±f_i and ±project_off(f_j, ±f_i) = ±(q_ii f_j - q_ij f_i)
                f = [s.vector for s in n.facets]
                g = induced_gram(L, f)
                for i, j in permutations(range(len(g)), 2):
                    if g[i][j] ** 2 < g[i][i] * g[j][j]:
                        p = primitive_integral(tuple(g[i][i] * b - g[i][j] * a for a, b in zip(f[i], f[j])))
                        states.append((2, (_sign_min(f[i]), _sign_min(p)), (i, j)))
            for codim, state, index in states:
                faces[codim] += 1
                if state not in keys:
                    image = None if ginv is None else _sign_image(ginv, state)
                    if d == 0 and diagram is not None:
                        keys[state] = diagram[index]
                    elif image in keys:
                        keys[state] = keys[image]
                    else:
                        keys[state] = orbit_key_mod_sign(L, state, mats, word_budget)
                if keys[state] not in seen[codim]:
                    seen[codim].add(keys[state])
                    new[codim] += 1
        rows += [CensusRow(depth=d, codim=c, faces=faces[c], new_orbits=new[c], total_orbits=len(seen[c]))
                 for c in codims]
    return CensusTable(lattice_name=L.name, base=graph.base, depth=depth, rows=tuple(rows))


def _coxeter_classes(L: Lattice, facets) -> dict:
    """Exact orbit labels of a chamber's facets and flags under the group W
    generated by the reflections in its facets s_1, ..., s_k.

    Labels are keyed (i,) for the facet s_i and (i, j) for the flag
    (H_i, H_i cap H_j); two states share a label iff one W-orbit holds
    both.  The chamber cut out by the s_i is a Coxeter polyhedron and a
    fundamental domain for W, so the orbits follow from its Coxeter
    matrix.  n_ij = 4 q_ij^2 / (q_ii q_jj) = 4 cos^2(pi / m_ij) is the
    product of the integral reflection coefficients 2 q_ij / q_ii and
    2 q_ij / q_jj: n = 0, 1, 2, 3 give m = 2, 3, 4, 6 and n >= 4 gives
    m = infinity.  An obtuse pair, q_ij < 0, raises ReductionInvariantError.

    * Two facets are conjugate iff a path of m = 3 edges joins them
      (Humphreys, Reflection Groups and Coxeter Groups, 1990).
    * (i, j) is a flag iff m_ij is finite, which is when ``encode_flag``
      accepts the pair.  Flag orbits are the components of the graph of
      the moves (i, j) -> sigma_I(i, j), from w_0(I) for I = {i, j}, and
      (i, j) -> sigma_K sigma_I(i, j), from w_0(K) w_0(I) for each
      spherical K = I + {k}, whose Gram matrix is negative definite.
      These generate every conjugation of W_I onto a standard parabolic
      subgroup (Deodhar, Comm. Algebra 10, 1982; Brink and Howlett,
      Invent. Math. 136, 1999).
    """
    g = induced_gram(L, [s.vector for s in facets])
    k = len(g)
    obtuse = [(i, j) for i in range(k) for j in range(i) if g[i][j] < 0]
    if obtuse:
        i, j = obtuse[0]
        raise ReductionInvariantError(
            f"facets {facets[j].vector} and {facets[i].vector} meet at an obtuse angle "
            f"(q = {g[i][j]} < 0): the chamber is not a Coxeter chamber of their reflections"
        )
    n = [[4 * g[i][j] ** 2 // (g[i][i] * g[j][j]) for j in range(k)] for i in range(k)]
    spherical = [K for K in combinations(range(k), 3)
                 if all(d > 0 for d in _symmetric_bareiss([[-g[a][b] for b in K] for a in K])[1])]
    flags = [(i, j) for i, j in permutations(range(k), 2) if n[i][j] < 4]
    moves = []
    for i, j in flags:
        sigma = _opposition((i, j), n)
        a, b = sigma[i], sigma[j]
        moves.append(((i, j), (a, b)))
        for K in spherical:
            if i in K and j in K:
                tau = _opposition(K, n)
                moves.append(((i, j), (tau[a], tau[b])))
    odd = [(i, j) for i, j in combinations(range(k), 2) if n[i][j] == 1]
    labels = {(i,): c for i, c in _components(range(k), odd).items()}
    labels.update(_components(flags, moves))
    return labels


def _opposition(X, n) -> dict:
    """sigma_X = -w_0 on the simple roots of a spherical X of rank 2 or 3.

    It reverses each component of type A: it swaps an A2 pair and the two
    ends of an A3, and fixes an A1.  An X with an m = 4 or 6 edge is B2,
    G2 or B3, possibly plus A1, on which -w_0 is the identity.
    """
    links = {i: [j for j in X if j != i and n[i][j]] for i in X}
    sigma = {i: i for i in X}
    if all(n[i][j] == 1 for i in X for j in links[i]):
        for i in X:
            if len(links[i]) == 1:
                (j,) = links[i]
                sigma[i] = next((x for x in links[j] if x != i), j)
    return sigma


def _components(nodes, edges) -> dict:
    """Each node mapped to the least node of its connected component."""
    root = {x: x for x in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in nodes}


def _path_inverses(L: Lattice, paths, mats) -> dict:
    """g^{-1} for each BFS path, keyed by the path: g = r_{s_k} ... r_{s_1}
    is the product of the reflections in the facets s_1, ..., s_k crossed,
    and the value is None unless g is a word in the generator matrices
    ``mats``.

    Step i crosses a facet of g_{i-1}C, so s_i = g_{i-1} t_i for the
    base-frame wall t_i = g_{i-1}^{-1} s_i; then r_{s_i} = g_{i-1} r_{t_i}
    g_{i-1}^{-1} and g = r_{t_1} ... r_{t_k}, which lies in the group when
    every r_{t_i} is a generator.  A crossing whose reflection is not
    integral is taken as not in the group.  The paths come in BFS order,
    so a path's parent (all but its last step) is done before it and each
    path costs one reflection matrix.
    """
    ginvs: dict = {(): identity_matrix(L.rank)}
    for path in filter(None, paths):
        parent = ginvs[path[:-1]]
        r = None if parent is None else reflection_matrix(L, mat_vec(parent, path[-1].vector))
        ginvs[path] = mat_mul(r, parent) if r in mats else None
    return ginvs


def facet_reflection_generators(L: Lattice, base, spec: WallSpec,
                                search_bound: int = DEFAULT_SEARCH_BOUND) -> tuple[Isometry, ...]:
    """Reflections in the reflective facet walls of the base chamber.

    For a reflective wall system these generate the full chamber-transitive
    reflection group, making them the natural census generator set.
    """
    facets = explore_tessellation(L, base, spec, 0, search_bound).nodes[0].facets
    return tuple(Isometry(L, m) for s in facets if (m := reflection_matrix(L, s.vector)) is not None)
