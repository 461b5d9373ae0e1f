"""Chamber geometry in the positive cone of a signature-(1, m) lattice.

A chamber is a connected component of the positive cone minus the union
of the walls of a :class:`~mbmlat.enumeration.WallSpec`.  Chambers are
identified by the set of walls crossed from a fixed base witness -- the
true chamber set is infinite, so every identity claim is scoped to the
finite explored wall universe.

Reduction to a wall-free base b searches for one separating set only.
A reflection r in a reflective wall is an isometry of the lattice that
maps the wall set onto itself, so every wall separating b from r c lies
in r(sep(b, c)) or in sep(b, r b), which depends on (b, r) alone.  This
is the inversion-set identity N(xy) = N(x) (symmetric difference)
x N(y) x^-1 of Humphreys, *Reflection Groups and Coxeter Groups*, 5.6.
The next set is read off that superset exactly; a step across a
non-reflective wall, or from a base on a wall, searches again.

Once (L, spec) holds a certified base chamber, every search for
separating walls is answered by root descent instead of Fincke-Pohst
(see :mod:`enumeration`); :func:`reduce_to_base` learns it.  The walls
through a point are searched for once per (L, point, spec), for
:func:`chamber_at`, :func:`facet_walls` and :func:`reduce_to_base` alike.

Facet decisions are exact for reflective walls: s supports a facet of
the chamber of w if and only if no other wall separates w from its
mirror image r_s(w); the midpoint of that segment is the orthogonal
projection of w onto the wall and serves as the facet witness.  For
non-reflective walls a projection/certificate/repair procedure is used
and walls it cannot decide are reported explicitly, never dropped.

Everything is pure and exact; witnesses are integral.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .core import (
    Lattice,
    Vector,
    as_int_vector,
    gram_apply,
    primitive_integral,
    project_off,
    reflect_by_row,
    reflect_vector,
    reflection_row,
    sign_normalize,
    square,
)
from .enumeration import (
    Wall,
    WallSpec,
    has_other_separating_wall,
    iter_separating_walls,
    learn_chamber,
    separating_walls,
    walls_containing,
    walls_near,
    _chambers,
)
from .errors import (
    FlagChainError,
    ReductionInvariantError,
    ValidationError,
    WallIncidenceError,
)

DEFAULT_SEARCH_BOUND = 24
_REPAIR_BUDGET = 64


# ---------------------------------------------------------------------------
# chambers and membership


class Chamber(NamedTuple):
    """An explored chamber: interior witness plus crossing data.

    ``crossing_set`` is exactly ``separating_walls(base, witness)`` for the
    base it was built from, and doubles as the chamber key relative to it.
    """

    spec: WallSpec
    witness: Vector
    crossing_set: tuple[Wall, ...]

    @property
    def key(self) -> tuple:
        return tuple(w.sort_key for w in self.crossing_set)


def chamber_at(L: Lattice, witness, base=None, spec: WallSpec = None) -> Chamber:
    """Build the chamber containing ``witness`` relative to ``base``.

    Both points must be positive and wall-free; violations raise
    WallIncidenceError so callers can perturb.
    """
    if spec is None:
        raise ValidationError("chamber_at needs a WallSpec")
    if base is None:
        base = witness
    wi = primitive_integral(witness)
    bi = primitive_integral(base)
    for p in dict.fromkeys((wi, bi)):
        _ensure_wall_free(L, p, spec)
    crossing = tuple(separating_walls(L, bi, wi, spec))
    return Chamber(spec=spec, witness=wi, crossing_set=crossing)


@lru_cache(maxsize=256)
def _walls_through(L: Lattice, v: Vector, spec: WallSpec) -> tuple[Wall, ...]:
    """``walls_containing(L, v, spec)``, searched once per (L, v, spec)."""
    return tuple(walls_containing(L, v, spec))


def _ensure_wall_free(L: Lattice, v, spec: WallSpec) -> None:
    """Raise WallIncidenceError when some spec wall passes through v, and what
    ``walls_containing`` raises when v is not positive or L not of signature (1, m)."""
    if hits := _walls_through(L, tuple(v), spec):
        raise WallIncidenceError(f"base point {tuple(v)} lies on wall {hits[0].vector} "
                                 f"(square {hits[0].square}); perturb and retry")


def same_chamber(L: Lattice, v, w, spec: WallSpec) -> bool:
    """True iff no spec wall strictly separates v from w; stops at the
    first separating wall found."""
    return next(iter_separating_walls(L, v, w, spec), None) is None


class ReductionResult(NamedTuple):
    """Reflection word moving a point into the base chamber.

    Applying the word's reflections in reverse order to the base chamber
    recovers the input's chamber; ``image`` is the canonical chamber
    representative of the input.
    """

    word: tuple[Wall, ...]
    image: Vector


def reduce_to_base(L: Lattice, v, base, spec: WallSpec) -> ReductionResult:
    """Greedy wall-crossing reduction of v into the chamber of base.

    Each step reflects across the minimal (square, lex) separating wall
    and must strictly decrease the separating count -- a failure to do so
    would falsify the algorithm and raises ReductionInvariantError.

    From a base b on no wall, only the first separating set is searched
    for.  A step across a reflective wall s maps c to r c, r = r_s, an
    integral isometry that maps the wall set onto itself.  Split the walls
    u of sep(b, r c) by the sign of q(u, r b) = q(r u, b), which is not
    zero: if it is positive, r u is in sep(b, c); if it is negative, u is
    in sep(b, r b).  So, exactly,

        sep(b, r c) = {r w : w in sep(b, c), q(w, r b) > 0}
                      | {u in sep(b, r b) : q(u, r c) < 0}.

    sep(b, r b) depends on (L, b, s, spec) only and is cached
    (:func:`_mirror`); the union, sorted by ``sort_key``, is what
    ``separating_walls`` returns.

    A step across a wall that ``_mirror`` holds is r_s(c) = c - (k . c) s
    with the wall's cached integer reflection row k = 2 G s / q(s, s): no
    division and no G c, for integral and rational c alike.  A step across
    a non-reflective wall, or from a base on a wall, takes
    ``reflect_vector`` and searches again.

    The walls through the base are searched for once.  The first call for
    (L, spec) records None if some wall may not reflect integrally, and
    otherwise, from a wall-free base, certifies its chamber from the facets
    :func:`facet_walls` finds below ``DEFAULT_SEARCH_BOUND``; if that fails,
    Fincke-Pohst keeps answering.  The word and image do not depend on
    which backend answers the searches.
    """
    base_p = primitive_integral(base)
    free = not _walls_through(L, base_p, spec)
    if (L, spec) not in _chambers:
        if not (spec.require_reflective or set(spec.squares) <= {-1, -2}):
            learn_chamber(L, spec, base_p, ())
        elif free:
            res = facet_walls(L, Chamber(spec=spec, witness=base_p, crossing_set=()), DEFAULT_SEARCH_BOUND)
            learn_chamber(L, spec, base_p, [f.supporting_wall for f in res.faces])
    cur = tuple(v)
    word: list[Wall] = []
    sep = separating_walls(L, base_p, cur, spec)
    while sep:
        s = sep[0]
        mirror = _mirror(L, base_p, s, spec) if free else None
        if mirror is None:
            cur = reflect_vector(L, cur, s.vector)
            nxt = separating_walls(L, base_p, cur, spec)
        else:
            cur = reflect_by_row(cur, s.vector, mirror[0])
            nxt = _reflected_sep(cur, sep, *mirror)
        word.append(s)
        if len(nxt) >= len(sep):
            raise ReductionInvariantError(
                f"reflection in {s.vector} did not decrease the separating count "
                f"({len(sep)} -> {len(nxt)}); the wall system is not reflection-stable here"
            )
        sep = nxt
    return ReductionResult(word=tuple(word), image=cur)


@lru_cache(maxsize=256)
def _mirror(L: Lattice, base: Vector, s: Wall, spec: WallSpec):
    """For a base on no wall: None when s is not reflective; else
    (k, G r_s(base), ((u, G u) for u in sep(base, r_s base))), with s's
    integer reflection row k = 2 G s / q(s, s)."""
    k = reflection_row(s.vector, gram_apply(L, s.vector))
    if k is None:
        return None
    rb = reflect_by_row(base, s.vector, k)
    walls = separating_walls(L, base, rb, spec)
    return k, gram_apply(L, rb), tuple([(u, gram_apply(L, u.vector)) for u in walls])


def _reflected_sep(cur, sep, k, grb, mirror) -> list[Wall]:
    """separating_walls(L, b, cur, spec) for cur = r_s(c), s = sep[0] and
    sep = separating_walls(L, b, c, spec), from :func:`_mirror`'s data;
    it pairs cur with the cached G u of the walls u of sep(b, r_s b)."""
    s = sep[0]
    out = [Wall(vector=reflect_by_row(w.vector, s.vector, k), square=w.square)
           for w in sep if sum(map(mul, w.vector, grb)) > 0]
    out += [u for u, gu in mirror if sum(map(mul, gu, cur)) < 0]
    return sorted(out, key=lambda w: w.sort_key)


# ---------------------------------------------------------------------------
# facets


class Face(NamedTuple):
    """A facet of a chamber: supporting wall plus an on-wall witness.

    The supporting wall is oriented toward the chamber interior
    (q(wall, chamber witness) > 0); the witness pairs to zero with the
    wall, strictly positively with every other wall that is strict at
    the chamber witness within the search universe.
    """

    supporting_wall: Wall
    witness_on_wall: Vector


class FacetResult(NamedTuple):
    """Facets found within the candidate universe q(s, witness) <= search_bound.

    ``undecided`` lists candidate walls the bounded procedure could not
    classify (possible only for non-reflective walls): their repair search
    came back to an earlier witness or ran through ``_REPAIR_BUDGET``
    witnesses, all violated.  Completeness of
    the candidate list itself is relative to ``search_bound``.
    """

    faces: tuple[Face, ...]
    undecided: tuple[Wall, ...]
    search_bound: int

    @property
    def complete(self) -> bool:
        return not self.undecided


def facet_walls(L: Lattice, chamber: Chamber, search_bound: int = DEFAULT_SEARCH_BOUND) -> FacetResult:
    """Facets of a chamber among walls with q(s, witness) <= search_bound, by ``sort_key``.

    Reflective walls are decided exactly via the mirror criterion;
    non-reflective ones fall back to projection witness, separation
    certificate, then a reflection-repair search that stops at a repeated
    witness or after ``_REPAIR_BUDGET`` witnesses.  Every decision is
    integer arithmetic on the Gram matrix of the candidates and the
    witness.  A chamber witness on a wall raises WallIncidenceError.
    """
    if not isinstance(search_bound, int) or search_bound < 1:
        raise ValidationError(f"search_bound must be an integer >= 1, got {search_bound!r}")
    spec = chamber.spec
    w = chamber.witness
    _ensure_wall_free(L, w, spec)
    candidates = walls_near(L, w, spec, search_bound)
    n = len(candidates)
    vectors = [u.vector for u in candidates] + [w]
    covectors = [gram_apply(L, v) for v in vectors]
    M = [[sum(map(mul, a, g)) for g in covectors] for a in vectors]
    faces: list[Face] = []
    undecided: list[Wall] = []
    for i, s in enumerate(candidates):
        # every candidate pairs positively with w, so -s is never one.
        # q(s,s) < 0: y = q(w,s) s - q(s,s) w is a positive multiple of w's
        # projection onto the wall, and P[u] = q(u, y) for the candidates u
        qss, qws = M[i][i], M[n][i]
        y = tuple(qws * a - qss * b for a, b in zip(s.vector, w))
        P = [qws * M[u][i] - qss * M[u][n] for u in range(n)]
        vio = [u for u in range(n) if u != i and P[u] <= 0]
        k = reflection_row(s.vector, covectors[i])
        if k is not None:
            # s reflects integrally.  A facet's midpoint witness y is strictly feasible
            # for every other wall, and then s is a facet iff nothing else separates w from r_s(w)
            if not vio and not has_other_separating_wall(L, w, reflect_by_row(w, s.vector, k), spec, {s.vector}):
                faces.append(Face(supporting_wall=s, witness_on_wall=primitive_integral(y)))
            continue
        # y is positive in s^perp, of signature (1, m - 1), and a violated u has
        # p = project_off(u, s) = q(s,s) u - q(u,s) s != 0 with q(p, y) = q(s,s) q(u, y) >= 0
        # and q(p, p) = q(s,s) (q(s,s) q(u,u) - q(u,s)^2).  If q(p, p) >= 0, then
        # q(p, .) > 0 > q(u, .) on the wall's whole positive component: no facet.
        if any(qss * (qss * M[u][u] - M[u][i] ** 2) >= 0 for u in vio):
            continue
        # repair: reflect y across the p of the most violated u.  Such a reflection
        # keeps y's positive component, on which q(u, .) has one sign if q(p, p) >= 0,
        # so that u was violated at the first y already: every p here is negative.
        # With s and the candidates fixed, each step depends on y alone, so once a
        # witness repeats, the walk cycles through witnesses found violated: undecided.
        seen = {y}
        while vio and len(seen) < _REPAIR_BUDGET:
            u = min(vio, key=lambda v: (P[v], candidates[v].sort_key))
            # -q(p,p) > 0 times r_p(y), in integers, with q(y, p) = q(s,s) q(u, y) as y is in s^perp
            qus, qpp, qyp2 = M[u][i], qss * (qss * M[u][u] - M[u][i] ** 2), 2 * qss * P[u]
            p = [qss * a - qus * b for a, b in zip(candidates[u].vector, s.vector)]
            z = tuple(qyp2 * b - qpp * a for a, b in zip(y, p))
            c = gcd(*z)  # divides q(v, z) for every integral v
            y = tuple(a // c for a in z)
            P = [(qyp2 * (qss * M[v][u] - qus * M[v][i]) - qpp * P[v]) // c for v in range(n)]
            vio = [v for v in range(n) if v != i and P[v] <= 0]
            if y in seen:
                break
            seen.add(y)
        if vio:
            undecided.append(s)
        else:
            faces.append(Face(supporting_wall=s, witness_on_wall=primitive_integral(y)))
    return FacetResult(faces=tuple(faces), undecided=tuple(undecided), search_bound=search_bound)


# ---------------------------------------------------------------------------
# flags


class FlagEntry(NamedTuple):
    """One step of a face chain after iterated orthogonal projection.

    ``vector`` is the sign-normalized primitive projection; ``unscaled``
    is the integral vector before content reduction (``project_off``
    folded over the previous entries: the product of their squares times
    the rational projection), whose square carries the C^3 / C^9 growth
    bounds.  ``orientation`` is the sign relating ``vector`` to the
    actual projection direction.
    """

    vector: Vector
    square: int
    orientation: int
    unscaled: Vector
    unscaled_square: int


class Flag(NamedTuple):
    """Oriented flag encoding of a nested face chain."""

    entries: tuple[FlagEntry, ...]

    @property
    def depth(self) -> int:
        return len(self.entries)


def encode_flag(L: Lattice, face_chain: Sequence, spec: WallSpec) -> Flag:
    """Encode a nested face chain as successive integral projections.

    Entry k+1 is the projection of the (k+1)-st wall into the orthogonal
    complement of the previous ones, scaled integral by the product of
    the previous primitive squares, then primitivized.  A projection of
    non-negative square rejects the chain: such hyperplanes cannot cut a
    common chamber inside the positive cone.
    """
    if not face_chain:
        raise ValidationError("face chain must be non-empty")
    chain: list[Vector] = []
    for x in face_chain:
        v = x.vector if isinstance(x, Wall) else tuple(x)
        vi = primitive_integral(as_int_vector(v))
        d = square(L, vi)
        if d not in spec.squares:
            raise ValidationError(f"chain vector {vi} has square {d}, not in spec {spec.squares}")
        chain.append(vi)
    entries: list[FlagEntry] = []
    for x in chain:
        unscaled = x
        for e in entries:
            unscaled = project_off(L, unscaled, e.vector)
        unscaled_square = square(L, unscaled)
        if unscaled_square >= 0:
            raise FlagChainError(
                f"projection of {x} has square {unscaled_square} >= 0: "
                "chain does not bound a common chamber within Pos"
            )
        stored = sign_normalize(unscaled)
        first = next(c for c in unscaled if c != 0)
        orientation = 1 if first > 0 else -1
        entries.append(
            FlagEntry(
                vector=stored,
                square=square(L, stored),
                orientation=orientation,
                unscaled=unscaled,
                unscaled_square=unscaled_square,
            )
        )
    return Flag(entries=tuple(entries))


# ---------------------------------------------------------------------------
# tessellation exploration


class ChamberNode(NamedTuple):
    """An explored chamber.  ``path`` lists the facets s_1, ..., s_k crossed
    on its BFS path from the base, so its witness is a positive multiple
    of g(base) for g = r_{s_k} ... r_{s_1}."""

    key: tuple
    witness: Vector
    depth: int
    facets: tuple[Wall, ...]       # oriented toward the chamber interior
    undecided: tuple[Wall, ...]
    path: tuple[Wall, ...] = ()

    @property
    def node_id(self) -> str:
        digest = hashlib.sha1(repr(self.key).encode()).hexdigest()
        return digest[:10]


class TessellationEdge(NamedTuple):
    a: tuple
    b: tuple
    wall: Wall                     # sign-normalized label


class TessellationGraph(NamedTuple):
    lattice_name: str
    base: Vector
    depth: int
    search_bound: int
    nodes: tuple[ChamberNode, ...]
    edges: tuple[TessellationEdge, ...]

    @property
    def complete(self) -> bool:
        return all(not n.undecided for n in self.nodes)

    def to_json_dict(self) -> dict:
        ids = {n.key: n.node_id for n in self.nodes}
        return {
            "lattice": self.lattice_name,
            "base": list(self.base),
            "depth": self.depth,
            "search_bound": self.search_bound,
            "complete": self.complete,
            "nodes": [
                {
                    "id": n.node_id,
                    "depth": n.depth,
                    "witness": list(n.witness),
                    "crossing_walls": [list(k[1]) for k in n.key],
                    "facets": [list(w.vector) for w in n.facets],
                }
                for n in self.nodes
            ],
            "edges": [
                {"a": ids[e.a], "b": ids[e.b], "wall": list(e.wall.vector)}
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph tessellation {"]
        for n in self.nodes:
            witness = ",".join(str(c) for c in n.witness)
            lines.append(f'  "{n.node_id}" [label="{n.node_id} w=({witness})"];')
        ids = {n.key: n.node_id for n in self.nodes}
        for e in self.edges:
            wall = ",".join(str(c) for c in e.wall.vector)
            lines.append(f'  "{ids[e.a]}" -- "{ids[e.b]}" [label="({wall})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def explore_tessellation(L: Lattice, base, spec: WallSpec, depth: int,
                         search_bound: int = DEFAULT_SEARCH_BOUND) -> TessellationGraph:
    """BFS over chambers by crossing facets up to the given depth.

    Crossing reflects the witness across the facet wall (exact; for a
    reflective wall system the image witness is wall-free whenever the
    source is).  Chamber identity is the sorted crossing set relative to
    the base witness.  Every crossing must change that set by exactly
    the crossed wall, or ReductionInvariantError is raised.  Node and
    edge orderings are deterministic; each node records the path of its
    first discovery.

    Only the base chamber's facets are searched for with
    :func:`facet_walls`, and those of a chamber first reached across a
    non-reflective wall or from a chamber with undecided walls.  A chamber
    first reached across a reflective facet s of a chamber C with no
    undecided walls takes r_s(facets of C), with none undecided: the
    repair search's choices follow ``sort_key`` order, which r_s does not
    keep, so undecided walls are never transported.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ValidationError(f"depth must be an integer >= 0, got {depth!r}")
    base_p = primitive_integral(base)

    # chambers are processed layer by layer in key order, which is the
    # (depth, key) node order; each is built from the walls found on entry,
    # and its facets are those transported to it, or else searched for
    seen = {()}
    frontier = [(Chamber(spec=spec, witness=base_p, crossing_set=()), (), None)]
    nodes: list[ChamberNode] = []
    edges: set[tuple] = set()
    for layer in range(depth + 1):
        nxt: list[tuple[Chamber, tuple[Wall, ...], tuple[Wall, ...] | None]] = []
        for ch, path, facets in sorted(frontier, key=lambda cp: cp[0].key):
            undecided = ()
            if facets is None:
                res = facet_walls(L, ch, search_bound)
                facets, undecided = tuple(f.supporting_wall for f in res.faces), res.undecided
            nodes.append(ChamberNode(key=ch.key, witness=ch.witness, depth=layer,
                                     facets=facets, undecided=undecided, path=path))
            if layer == depth:
                continue
            for s in facets:
                row = reflection_row(s.vector, gram_apply(L, s.vector))
                w2 = primitive_integral(reflect_vector(L, ch.witness, s.vector) if row is None
                                        else reflect_by_row(ch.witness, s.vector, row))
                ch2 = Chamber(spec=spec, witness=w2, crossing_set=tuple(separating_walls(L, base_p, w2, spec)))
                crossed = {sign_normalize(k[1]) for k in set(ch.key) ^ set(ch2.key)}
                if crossed != {sign_normalize(s.vector)}:
                    raise ReductionInvariantError(
                        f"crossing {s.vector} from {ch.witness} to {w2} changed the crossing set "
                        f"by {sorted(crossed)}, not by that one wall"
                    )
                edges.add(tuple(sorted((ch.key, ch2.key))) + (s.unsigned(),))
                if ch2.key not in seen:
                    seen.add(ch2.key)
                    nxt.append((ch2, path + (s,), None if undecided or row is None else _transported(facets, s, row)))
        frontier = nxt
        if not frontier:
            break
    edge_tuple = tuple(
        TessellationEdge(a=a, b=b, wall=wall)
        for a, b, wall in sorted(edges, key=lambda e: (e[0], e[1], e[2].sort_key))
    )
    return TessellationGraph(
        lattice_name=L.name,
        base=base_p,
        depth=depth,
        search_bound=search_bound,
        nodes=tuple(nodes),
        edges=edge_tuple,
    )


def _transported(facets, s: Wall, k) -> tuple[Wall, ...]:
    """The facets of r_s(C), as the images of the facets of C, from s's reflection row k.

    An integral reflection is an isometry of L: it keeps each wall's
    square and primitivity, the candidate set q(u, witness) <=
    search_bound and every exact facet decision, so it maps the facets of
    C onto those of r_s(C), still oriented toward the interior.
    """
    return tuple(sorted((Wall(vector=reflect_by_row(f.vector, s.vector, k), square=f.square) for f in facets),
                        key=lambda f: f.sort_key))
