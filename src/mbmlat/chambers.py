"""Chamber geometry in the positive cone of a signature-(1, m) lattice.

A chamber is a connected component of the positive cone minus the union
of the walls of a :class:`~mbmlat.enumeration.WallSpec`.  Chambers are
identified by the set of walls crossed from a fixed base witness -- the
true chamber set is infinite, so every identity claim is scoped to the
finite explored wall universe.

Both drivers, :func:`reduce_to_base` and :func:`explore_tessellation`,
cross a wall s from c to r c, r = r_s, by one step, :func:`_cross`.  For a
reflective s, r is an isometry of the lattice that maps the wall set onto
itself, so every wall separating a base b from r c lies in r(sep(b, c)) or
in sep(b, r b), which is searched for once per (b, s) (:func:`_mirror`).
This is the inversion-set identity N(xy) = N(x) (symmetric difference)
x N(y) x^-1 of Humphreys, *Reflection Groups and Coxeter Groups*, 5.6.
The next set is read off that superset exactly; a step across a
non-reflective wall, or from a base on a wall, searches again.

Once (L, spec) holds a certified base chamber, root descent answers every
search for separating walls instead of Fincke-Pohst; :func:`reduce_to_base`
learns it for a :attr:`WallSpec.reflective` spec (see :mod:`enumeration`).
The walls through a point are searched for once per (L, point, spec), for
:func:`chamber_at`, :func:`facet_walls` and :func:`reduce_to_base` alike.

Facet decisions are exact for reflective walls: s supports a facet of
the chamber of w if and only if s alone separates w from its mirror
image r_s(w), the set :func:`_mirror` holds for (w, s); the midpoint of
that segment is the orthogonal projection of w onto the wall and is
the facet witness.  For non-reflective walls a projection witness and a
kill test come first, then the extreme rays of the faces' cone, then
those of the cone of all candidates; walls they cannot decide are
reported, never dropped.

Everything is pure and exact; witnesses are integral.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .core import (
    Lattice,
    Vector,
    as_int_vector,
    gram_apply,
    int_arg,
    integer_kernel,
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
    extreme_rays,
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


# ---------------------------------------------------------------------------
# chambers and membership


class Chamber(NamedTuple):
    """An explored chamber: interior witness plus crossing data.

    ``crossing_set`` is exactly ``separating_walls(base, witness)`` for the
    base it was built from.  ``key``, the chamber key relative to that base,
    holds it as plain (square, vector) tuples: ``ChamberNode.node_id``
    hashes its ``repr``.
    """

    spec: WallSpec
    witness: Vector
    crossing_set: tuple[Wall, ...]

    @property
    def key(self) -> tuple:
        return tuple(map(tuple, self.crossing_set))


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
        raise WallIncidenceError(f"point {tuple(v)} lies on wall {hits[0].vector} "
                                 f"(square {hits[0].square}); perturb and retry")


def same_chamber(L: Lattice, v, w, spec: WallSpec) -> bool:
    """True iff no spec wall strictly separates v from w; Fincke-Pohst stops
    at the first separating wall found, root descent takes both inversion sets."""
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

    Each step is :func:`_cross`: from a base b on no wall, only the first
    separating set is searched for, and each next one is derived from the
    cached sep(b, r_s b) of the wall s stepped across.  A step across a
    non-reflective wall, or from a base on a wall, searches again.

    The walls through the base are searched for once.  The first call for
    (L, spec) from a wall-free base of a :attr:`WallSpec.reflective` spec
    hands :func:`learn_chamber` the facets :func:`facet_walls` finds below
    ``DEFAULT_SEARCH_BOUND``; if they fail, Fincke-Pohst keeps answering.
    The word and image do not depend on which backend answers the searches.
    """
    base_p = primitive_integral(base)
    if not _walls_through(L, base_p, spec) and (L, spec) not in _chambers and spec.reflective:
        res = facet_walls(L, Chamber(spec=spec, witness=base_p, crossing_set=()), DEFAULT_SEARCH_BOUND)
        learn_chamber(L, spec, base_p, [f.supporting_wall for f in res.faces])
    cur = tuple(v)
    word: list[Wall] = []
    sep = separating_walls(L, base_p, cur, spec)
    while sep:
        s = sep[0]
        _, cur, nxt = _cross(L, base_p, cur, sep, s, spec)
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
    """None when s does not reflect integrally or ``base`` lies on a wall;
    else (k, G r_s(base), ((u, G u) for u in sep(base, r_s base))), with s's
    integer reflection row k = 2 G s / q(s, s).  s supports a facet of the
    base's chamber iff it alone lies in that set: the mirror criterion.
    Callers orient s toward the base, so that each wall has one entry."""
    if _walls_through(L, base, spec) or (k := reflection_row(s.vector, gram_apply(L, s.vector))) is None:
        return None
    rb = reflect_by_row(base, s.vector, k)
    walls = separating_walls(L, base, rb, spec)
    return k, gram_apply(L, rb), tuple([(u, gram_apply(L, u.vector)) for u in walls])


def _cross(L: Lattice, base: Vector, c, sep, s: Wall, spec: WallSpec):
    """(k, r_s c, sep(b, r_s c)) from sep = sep(b, c), b = base, for any wall s.

    With :func:`_mirror`'s data, k is s's reflection row, and r = r_s maps c
    to c - (k . c) s: no division and no G c, for integral and rational c.
    r is an integral isometry that maps the wall set onto itself.  Split the
    walls u of sep(b, r c) by the sign of q(u, r b) = q(r u, b), not zero:
    if positive, r u is in sep(b, c); if negative, u is in sep(b, r b).  So

        sep(b, r c) = {r w : w in sep(b, c), q(w, r b) > 0}
                      | {u in sep(b, r b) : q(u, r c) < 0},

    sorted as ``separating_walls`` returns it.  Without a mirror, k is None,
    r_s c comes from ``reflect_vector`` and the set is searched for.
    """
    mirror = _mirror(L, base, s, spec)
    if mirror is None:
        c = reflect_vector(L, c, s.vector)
        return None, c, separating_walls(L, base, c, spec)
    k, grb, walls = mirror
    c = reflect_by_row(c, s.vector, k)
    out = [Wall(vector=reflect_by_row(w.vector, s.vector, k), square=w.square)
           for w in sep if sum(map(mul, w.vector, grb)) > 0]
    out += [u for u, gu in walls if sum(map(mul, gu, c)) < 0]
    return k, c, sorted(out)


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
    classify (possible only for non-reflective walls): the kill test and
    the faces' ray certificate missed them, and the cone of all candidates
    is not pointed, has over ``enumeration._RAY_BUDGET`` rays or leaves the
    closed positive cone.  Completeness of the candidate list itself is
    relative to ``search_bound``.
    """

    faces: tuple[Face, ...]
    undecided: tuple[Wall, ...]
    search_bound: int

    @property
    def complete(self) -> bool:
        return not self.undecided


def facet_walls(L: Lattice, chamber: Chamber, search_bound: int = DEFAULT_SEARCH_BOUND) -> FacetResult:
    """Facets of a chamber among walls with q(s, witness) <= search_bound, sorted.

    Reflective walls are decided exactly by :func:`_mirror`'s criterion.  A
    non-reflective wall is a facet if its projection witness violates no
    other candidate, and none if a violated candidate projects to a class
    of square >= 0.  For the rest, F = {x : q(f, x) >= 0 for the faces f
    found so far} holds the chamber; if F is pointed and q(u, r) >= 0 on its
    extreme rays r, u^perp meets F in codimension >= 2: u is no facet.  The
    cone K of all candidates decides the rest if its extreme rays lie in the
    closed positive cone: u is a facet iff the rays on u^perp have rank
    n - 1, with their primitive sum as its witness; else u is undecided.
    All of it is integer arithmetic.  A chamber witness on a wall raises
    WallIncidenceError.
    """
    int_arg(search_bound, "search_bound", least=1)
    spec = chamber.spec
    w = tuple(chamber.witness)
    _ensure_wall_free(L, w, spec)
    candidates = walls_near(L, w, spec, search_bound)
    n = len(candidates)
    covectors = [gram_apply(L, u.vector) for u in candidates]
    gw = gram_apply(L, w)
    qw = [sum(map(mul, u.vector, gw)) for u in candidates]
    # a candidate u violates the projection witness of s only if q(u, s) < 0
    # and q(u, w) is small, so a reflective s scans the nearest walls first
    nearest = sorted(range(n), key=qw.__getitem__)
    faces: dict[int, Face] = {}
    aside = []
    for i, s in enumerate(candidates):
        # every candidate pairs positively with w, so -s is never one.
        # q(s,s) < 0: y = q(w,s) s - q(s,s) w is a positive multiple of w's
        # projection onto the wall, and q(u, y) = q(w,s) q(u,s) - q(s,s) q(u,w)
        qss, qws, gs = s.square, qw[i], covectors[i]
        y = tuple(qws * a - qss * b for a, b in zip(s.vector, w))
        if reflection_row(s.vector, gs) is not None:
            # s reflects integrally.  A facet's midpoint witness y is strictly feasible
            # for every other wall, and then s is a facet iff it alone separates w from r_s(w)
            if (all(u == i or qws * sum(map(mul, candidates[u].vector, gs)) > qss * qw[u] for u in nearest)
                    and len(_mirror(L, w, s, spec)[2]) == 1):
                faces[i] = Face(supporting_wall=s, witness_on_wall=primitive_integral(y))
            continue
        qs = [sum(map(mul, u.vector, gs)) for u in candidates]
        vio = [u for u in range(n) if u != i and qws * qs[u] <= qss * qw[u]]
        # y is positive in s^perp, of signature (1, m - 1), and a violated u has
        # p = project_off(u, s) = q(s,s) u - q(u,s) s != 0 with q(p, y) = q(s,s) q(u, y) >= 0
        # and q(p, p) = q(s,s) (q(s,s) q(u,u) - q(u,s)^2).  If q(p, p) >= 0, then
        # q(p, .) > 0 > q(u, .) on the wall's whole positive component: no facet.
        if not vio:
            faces[i] = Face(supporting_wall=s, witness_on_wall=primitive_integral(y))
        elif all(qss * (qss * candidates[u].square - qs[u] ** 2) < 0 for u in vio):
            aside.append(i)
    rays = extreme_rays([covectors[j] for j in faces], L.rank) if aside else None
    left = [i for i in aside if rays is None or any(sum(map(mul, r, covectors[i])) < 0 for r in rays)]
    # K = {x : q(u, x) >= 0 for every candidate u} holds the chamber.  In the closed
    # positive cone it is the chamber, and u is a facet iff the rays on u^perp have
    # rank n - 1; their sum lies on u alone, inside the positive cone
    rays = extreme_rays([covectors[j] for j in nearest], L.rank) if left else None
    if rays is not None and all(square(L, r) >= 0 and sum(map(mul, r, gw)) > 0 for r in rays):
        for i in left:
            on = [r for r in rays if not sum(map(mul, r, covectors[i]))]
            if len(integer_kernel(on, L.rank)) == 1:
                faces[i] = Face(supporting_wall=candidates[i], witness_on_wall=primitive_integral(tuple(map(sum, zip(*on)))))
        left = []
    return FacetResult(tuple(faces[i] for i in sorted(faces)), tuple(candidates[i] for i in left), search_bound)


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

    Crossing reflects the witness across the facet wall by :func:`_cross`
    (exact; for a reflective wall system the image witness is wall-free
    whenever the source is).  Chamber identity is the sorted crossing set
    relative to the base witness, read off the cached mirror of (base, s)
    when s is reflective.  Every crossing must change that set by exactly
    the crossed wall, or ReductionInvariantError is raised: a check of each
    facet decision.  Node and edge orderings are deterministic; each node
    records the path of its first discovery.

    Only the base chamber's facets are searched for with
    :func:`facet_walls`, and those of a chamber first reached across a
    non-reflective wall or from a chamber with undecided walls.  A chamber
    first reached across a reflective facet s of a chamber C with no
    undecided walls takes r_s(facets of C), with none undecided.  Undecided
    walls are never transported: the ray budget of ``extreme_rays`` can
    hang on the order of the candidates, which r_s does not keep.
    """
    int_arg(depth, "depth", least=0)
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
                # the mirror of the wall oriented toward the base, as crossing sets orient it
                back = Wall(vector=tuple(-x for x in s.vector), square=s.square)
                t = back if back in ch.crossing_set else s
                row, w2, sep2 = _cross(L, base_p, ch.witness, ch.crossing_set, t, spec)
                ch2 = Chamber(spec=spec, witness=primitive_integral(w2), crossing_set=tuple(sep2))
                crossed = {sign_normalize(k[1]) for k in set(ch.key) ^ set(ch2.key)}
                if crossed != {sign_normalize(s.vector)}:
                    raise ReductionInvariantError(
                        f"crossing {s.vector} from {ch.witness} to {ch2.witness} changed the crossing set "
                        f"by {sorted(crossed)}, not by that one wall"
                    )
                edges.add(tuple(sorted((ch.key, ch2.key))) + (s.unsigned(),))
                if ch2.key not in seen:
                    seen.add(ch2.key)
                    nxt.append((ch2, path + (s,), None if undecided or row is None else _transported(facets, t, row)))
        frontier = nxt
        if not frontier:
            break
    edge_tuple = tuple(
        TessellationEdge(a=a, b=b, wall=wall)
        for a, b, wall in sorted(edges)
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
    return tuple(sorted(Wall(vector=reflect_by_row(f.vector, s.vector, k), square=f.square) for f in facets))
