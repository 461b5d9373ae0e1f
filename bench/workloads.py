"""Workload definitions: seeded input generators, jobs and output checks.

Each workload has three parts that run in different processes:

* ``generate(seed)`` runs in the benchmark process and returns plain JSON
  inputs.  Generators filter or sort candidates only on properties of
  the inputs (positivity, component, wall-freeness, witness square, the
  Cauchy-Schwarz t-bound, hyperbolic distance), never on measured time.
* ``run(lattices, inputs, clock)`` runs in a fresh interpreter per
  repetition and returns ``(results, spans)``: JSON results and the
  ``(start, end)`` of every operation on ``clock``.  On the query stream
  an operation is one query; on the batch workloads it is the whole job.
* ``check(inputs, results, recorded)`` runs back in the benchmark process
  and returns ``(problems, failures, attempts)``: a list of problems (empty
  when the output is correct) and the workload's failed and attempted
  operations.  ``recorded`` is what ``record(inputs, results)`` stored for
  the seed in ``expected/records.json``, or None for a seed without one.

The checks recompute every sign and square with the small exact
arithmetic below rather than with ``mbmlat.core``, so a fault in the
package's form kernels cannot hide itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

import mbmlat
from mbmlat import cli, core, enumeration
from mbmlat.errors import MbmlatError

EXPECTED = Path(__file__).resolve().parent / "expected"

U_A = "U+A1m2"
U_AA = "U+A1m2+A1m2"
E8 = "E8m1"
U_E8 = "U+E8m1"


# ---------------------------------------------------------------------------
# exact arithmetic used by generators and checks


def q(gram, x, y):
    return sum(xi * sum(map(operator.mul, row, y)) for xi, row in zip(x, gram))


def primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def reflect(gram, v, s):
    c = Fraction(2 * q(gram, v, s), q(gram, s, s))
    return tuple(v[i] - c * s[i] for i in range(len(v)))


def t_max(gram, v0, v1, d):
    """Largest t with t^2 < |d| (mu^2 - N q1) / q1: the separating search's
    Cauchy-Schwarz bound on q(s, v0) for walls of square d."""
    v0, v1 = primitive(v0), primitive(v1)
    n, mu, q1 = q(gram, v0, v0), q(gram, v0, v1), q(gram, v1, v1)
    bound = Fraction(-d * (mu * mu - n * q1), q1)
    t = isqrt(max(bound.numerator // bound.denominator, 0))
    return t if t * t < bound else max(t - 1, 0)


def encode(v):
    """JSON form of a vector: ints stay ints, proper fractions become "p/q"."""
    return [int(c) if Fraction(c).denominator == 1 else str(Fraction(c)) for c in v]


def wall_json(w):
    return [w.square, list(w.vector)]


def digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def digest_record(inputs, results) -> str:
    return digest(results)


def check_digest(results, recorded):
    if recorded is None or digest(results) == recorded:
        return []
    return [f"results digest {digest(results)[:16]} differs from the recorded {recorded[:16]}"]


def check_wall_list(gram, squares, walls, sign_ok):
    """Problems with a list of [square, vector] walls: square, primitivity,
    strict (square, vector) order and the caller's sign condition."""
    problems = []
    keys = [(d, tuple(s)) for d, s in walls]
    if keys != sorted(set(keys)):
        problems.append("walls not strictly sorted")
    for d, s in keys:
        if d not in squares or q(gram, s, s) != d:
            problems.append(f"wall {s} has square {q(gram, s, s)}, reported {d}")
        elif primitive(s) != s:
            problems.append(f"wall {s} is not primitive")
        elif not sign_ok(s):
            problems.append(f"wall {s} fails its sign condition")
    return problems


def gram_of(name):
    return {
        U_A: core.direct_sum(core.U_GRAM, [[-2]]),
        U_AA: core.direct_sum(core.U_GRAM, [[-2]], [[-2]]),
        E8: [list(r) for r in core.E8_MINUS_GRAM],
        U_E8: core.direct_sum(core.U_GRAM, core.E8_MINUS_GRAM),
    }[name]


def make_lattices(names, entries):
    """The set-up step a user pays: catalog lattices by name, else built
    from the core Gram blocks (U+E8m1 is not in the catalog)."""
    by_name = {e.name: e.lattice for e in entries}
    return {n: mbmlat.make_lattice(by_name[n].gram if n in by_name else gram_of(n), n) for n in names}


def random_vector(rng, box, rank):
    return tuple(rng.randrange(2 * box + 1) - box for _ in range(rank))


# ---------------------------------------------------------------------------
# census-r4: the paper's end product through the CLI


CENSUS_ARGV = ["census", "--lattice", U_AA, "--base", "3,4,1,1", "--squares", "-2",
               "--depth", "2", "--search-bound", "20"]


def census_generate(seed):
    return {"argv": CENSUS_ARGV}


def census_run(lattices, inputs, clock):
    out = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out):
        code = cli.run(inputs["argv"])
    return {"exit": code, "stdout": out.getvalue()}, [(start, clock())]


def census_check(inputs, results, recorded):
    expected = (EXPECTED / "census_r4.json").read_text(encoding="utf-8")
    problems = []
    if results["exit"] != 0:
        problems.append(f"census exited with {results['exit']}")
    if results["stdout"] != expected:
        problems.append("census stdout differs from the recorded bytes")
    return problems, int(results["exit"] != 0), 1


# ---------------------------------------------------------------------------
# facets-mixed: facet decisions with the non-reflective path


FACET_SPEC = (-4, -2)
FACET_BASE = (5, 8, -2, -1)
FACET_BOUND = 16
FACET_BOX = 12
# The square of each witness, one per chamber.  Chambers at square 100
# hold 44 candidate walls and take about 2.4 s at seed; chambers at 102
# hold 42 and take about 2.0 s.  A fixed mix of squares keeps the work per
# job the same for every seed.
FACET_SQUARES = (100, 100, 102)


def facets_generate(seed):
    rng = random.Random(f"facets-mixed/{seed}")
    gram = gram_of(U_AA)
    L = mbmlat.make_lattice(gram, U_AA)
    spec = mbmlat.wall_spec(FACET_SPEC)
    found = []
    while len(found) < len(FACET_SQUARES):
        w = random_vector(rng, FACET_BOX, 4)
        if (q(gram, w, w) != FACET_SQUARES[len(found)] or q(gram, w, FACET_BASE) <= 0
                or primitive(w) != w or w in found):
            continue
        if mbmlat.walls_containing(L, w, spec):
            continue
        found.append(w)
    return {"witnesses": [list(w) for w in found]}


def facets_run(lattices, inputs, clock):
    L = lattices[U_AA]
    spec = mbmlat.wall_spec(FACET_SPEC)
    results = []
    start = clock()
    for w in inputs["witnesses"]:
        res = mbmlat.facet_walls(L, mbmlat.chamber_at(L, tuple(w), base=FACET_BASE, spec=spec), FACET_BOUND)
        results.append({
            "faces": [wall_json(f.supporting_wall) + [encode(f.witness_on_wall)] for f in res.faces],
            "undecided": [wall_json(u) for u in res.undecided],
        })
    return results, [(start, clock())]


FACET_STATUSES = ("facets", "nonfacets", "undecided")


def facet_candidates(L, w):
    """The candidate walls of the chamber of w: vector -> square."""
    return {tuple(s.vector): s.square for s in mbmlat.walls_near(L, w, mbmlat.wall_spec(FACET_SPEC), FACET_BOUND)}


def facet_statuses(cands, res):
    """Each candidate's status in one facet_walls result."""
    faces = {tuple(s) for _, s, _ in res["faces"]}
    undecided = {tuple(s) for _, s in res["undecided"]}
    return {s: "facets" if s in faces else "undecided" if s in undecided else "nonfacets" for s in cands}


def facets_record(inputs, results):
    """Per witness, the candidate walls grouped by status."""
    L = mbmlat.make_lattice(gram_of(U_AA), U_AA)
    out = []
    for w, res in zip(inputs["witnesses"], results):
        statuses = facet_statuses(facet_candidates(L, tuple(w)), res)
        out.append({k: sorted(list(s) for s, st in statuses.items() if st == k) for k in FACET_STATUSES})
    return out


def facets_check(inputs, results, recorded):
    """Invariants rather than a digest, so that deciding the undecided walls
    later does not fail the check:

    * faces and undecided walls are disjoint and lie in walls_near;
    * each face witness pairs to 0 with its wall and to > 0 with every other
      candidate;
    * every reflective candidate that is not a face has a non-facet
      certificate: its projection witness violates another candidate, or
      another wall separates the witness from its mirror image;
    * with a record for the seed, the candidates are the recorded ones and
      every recorded facet and non-facet keeps its status: only recorded
      undecided walls may change.

    A failure is an undecided wall and an attempt is a candidate wall.
    """
    gram = gram_of(U_AA)
    L = mbmlat.make_lattice(gram, U_AA)
    spec = mbmlat.wall_spec(FACET_SPEC)
    problems, failures, attempts = [], 0, 0
    if len(results) != len(inputs["witnesses"]):
        return [f"{len(results)} facet results for {len(inputs['witnesses'])} witnesses"], 0, 1
    for n, (w, res) in enumerate(zip(inputs["witnesses"], results)):
        w = tuple(w)
        cands = facet_candidates(L, w)
        faces = {tuple(s): (d, [Fraction(c) for c in x]) for d, s, x in res["faces"]}
        undecided = {tuple(s): d for d, s in res["undecided"]}
        failures += len(undecided)
        attempts += len(cands)
        if not faces:
            problems.append(f"chamber of {w}: no faces")
        if faces.keys() & undecided.keys():
            problems.append(f"chamber of {w}: faces and undecided walls overlap")
        for s, d in list(undecided.items()) + [(s, d) for s, (d, _) in faces.items()]:
            if cands.get(s) != d:
                problems.append(f"chamber of {w}: wall {s} is not a candidate")
        for s, (d, x) in faces.items():
            if q(gram, x, s) != 0 or any(q(gram, x, u) <= 0 for u in cands if u != s):
                problems.append(f"chamber of {w}: witness {x} does not certify facet {s}")
        for s in cands:
            if s in faces or s in undecided or not mbmlat.is_reflective(L, s):
                continue
            m = [w[i] - Fraction(q(gram, w, s), q(gram, s, s)) * s[i] for i in range(4)]
            if any(q(gram, m, u) <= 0 for u in cands if u != s):
                continue
            mirror = reflect(gram, w, s)
            if not enumeration.has_other_separating_wall(L, w, mirror, spec, {s}):
                problems.append(f"chamber of {w}: reflective facet {s} is missing")
        if recorded is not None:
            was = {tuple(s): k for k, walls in recorded[n].items() for s in walls}
            if was.keys() != cands.keys():
                problems.append(f"chamber of {w}: candidate walls differ from the record")
            for s, status in facet_statuses(cands, res).items():
                if was.get(s) in ("facets", "nonfacets") and status != was[s]:
                    problems.append(f"chamber of {w}: wall {s} was recorded in {was[s]}, now in {status}")
    return problems, failures, attempts


# ---------------------------------------------------------------------------
# queries-r34: a closed-loop stream of interactive point queries


QUERY_LATTICES = ((U_A, (5, 3, 2)), (U_AA, (3, 4, 1, 1)))
QUERY_SPEC = (-2,)
QUERY_BOX = 5
QUERY_OPS = 4800
# Separating pairs are a systematic sample: QUERY_POOL times as many pairs
# as needed are drawn, sorted by a predictor of the search cost, and the
# middle pair of every QUERY_POOL consecutive ones is kept.  The predictor
# is c * N^0.14 / g^0.6, where c = mu^2 / (q(a) q(b)) is the squared cosh of
# the pair's hyperbolic distance, N = q(a) and g the content of G a, all
# for the primitive a, b; the exponents are a least-squares fit of the log
# search time on 6000 rank-4 pairs.  The kept pairs follow the box-5
# population's quantiles of the predictor, so the few costly pairs that
# decide p99 and most of the total time vary far less between seeds than
# in a plain random sample, where they are a few draws from a heavy tail.
QUERY_POOL = 32


def query_cost(form, gram, a, b):
    """The search-cost predictor that orders the pool of separating pairs."""
    a, b = primitive(a), primitive(b)
    g = 0
    for row in gram:
        g = gcd(g, abs(sum(map(operator.mul, row, a))))
    n = form(a, a)
    return form(a, b) ** 2 / (n * form(b, b)) * n ** 0.14 / g ** 0.6


def queries_generate(seed):
    rng = random.Random(f"queries-r34/{seed}")
    spec = mbmlat.wall_spec(QUERY_SPEC)
    per_lattice = QUERY_OPS // (2 * len(QUERY_LATTICES))

    streams = []
    for name, base in QUERY_LATTICES:
        gram, rank = gram_of(name), len(base)
        L = mbmlat.make_lattice(gram, name)
        entries = [(i, j, g) for i, row in enumerate(gram) for j, g in enumerate(row) if g]

        def form(x, y):
            return sum(g * x[i] * y[j] for i, j, g in entries)

        coords = range(-QUERY_BOX, QUERY_BOX + 1)
        box = [v for v in itertools.product(coords, repeat=rank) if form(v, v) > 0]

        def positive(ref):
            """A box vector of positive square in the component of ref; the
            box is symmetric, so v or -v is as likely as any other."""
            while True:
                v = rng.choice(box)
                side = form(v, ref)
                if side:
                    return v if side > 0 else tuple(-c for c in v)

        pool = []
        while len(pool) < QUERY_POOL * per_lattice:
            a = positive(base)
            b = positive(a)
            if a != b:
                pool.append((query_cost(form, gram, a, b), a, b))
        pool.sort()
        pairs = [(a, b) for _, a, b in pool[QUERY_POOL // 2::QUERY_POOL]]
        rng.shuffle(pairs)
        # A class orthogonal to a root with coordinates in {-1, 0, 1} lies
        # on a wall; this cheap pre-test spares most walls_containing calls.
        short_roots = [s for s in itertools.product((-1, 0, 1), repeat=rank) if q(gram, s, s) == -2]
        classes = []
        while len(classes) < per_lattice:
            v = positive(base)
            if (primitive(v) == v and all(q(gram, s, v) for s in short_roots)
                    and not mbmlat.walls_containing(L, v, spec)):
                classes.append(v)
        streams.append([[["separate", name, list(a), list(b)], ["reduce", name, list(v), list(base)]]
                        for (a, b), v in zip(pairs, classes)])
    return {"ops": [op for step in zip(*streams) for ops in step for op in ops]}


def queries_run(lattices, inputs, clock):
    spec = mbmlat.wall_spec(QUERY_SPEC)
    results, spans = [], []
    for kind, name, x, y in inputs["ops"]:
        L = lattices[name]
        start = clock()
        try:
            if kind == "separate":
                out = [wall_json(w) for w in mbmlat.separating_walls(L, tuple(x), tuple(y), spec)]
            else:
                res = mbmlat.reduce_to_base(L, tuple(x), tuple(y), spec)
                out = {"word": [wall_json(w) for w in res.word], "image": encode(res.image)}
        except MbmlatError as exc:
            out = {"error": type(exc).__name__}
        spans.append((start, clock()))
        results.append(out)
    return results, spans


def queries_check(inputs, results, recorded):
    """Independent sign and square checks on every result, and the digest
    of all results against the record.  A failure is a query that raised."""
    problems = check_digest(results, recorded)
    if len(results) != len(inputs["ops"]):
        return problems + [f"{len(results)} results for {len(inputs['ops'])} queries"], 0, 1
    for (kind, name, x, y), out in zip(inputs["ops"], results):
        gram = gram_of(name)
        if isinstance(out, dict) and "error" in out:
            problems.append(f"{kind} {x} {y} raised {out['error']}")
        elif kind == "separate":
            problems += check_wall_list(gram, QUERY_SPEC, out,
                                        lambda s: q(gram, s, x) > 0 > q(gram, s, y))
        else:
            cur = tuple(x)
            for d, s in out["word"]:
                if d not in QUERY_SPEC or q(gram, s, s) != d or not q(gram, s, y) > 0 > q(gram, s, cur):
                    problems.append(f"reduce {x}: step wall {s} does not separate base from {cur}")
                    break
                cur = reflect(gram, cur, s)
            if encode(cur) != out["image"]:
                problems.append(f"reduce {x}: word does not map the class to its image")
    failures = sum(1 for out in results if isinstance(out, dict) and "error" in out)
    return problems[:20], failures, len(results)


# ---------------------------------------------------------------------------
# walls-e10: deep searches on the rank-10 lattice U + E8(-1)


E10_NEAR = 12
E10_PAIRS = 10
E10_NEAR_BOUND = 4
# Pairs are sized by an input property: the search bound t_max must lie in
# this band (unbounded pairs ran from 0.2 s to over 3 minutes).
E10_TMAX = range(9, 12)
E8_SHORT_COUNT = 4560  # vectors of square -2, -4, -6 in E8(-1), one per +- pair


def e10_class(rng, lo, hi, box):
    return (rng.randint(lo, hi), rng.randint(lo, hi)) + random_vector(rng, box, 8)


def e10_generate(seed):
    rng = random.Random(f"walls-e10/{seed}")
    gram = gram_of(U_E8)
    near = []
    while len(near) < E10_NEAR:
        v = e10_class(rng, 20, 30, 3)
        if q(gram, v, v) > 0:
            near.append(list(v))
    pairs = []
    while len(pairs) < E10_PAIRS:
        a, b = e10_class(rng, 20, 30, 3), e10_class(rng, 1, 6, 1)
        if (q(gram, a, a) > 0 and q(gram, b, b) > 0 and q(gram, a, b) > 0
                and t_max(gram, a, b, -2) in E10_TMAX):
            pairs.append([list(a), list(b)])
    return {"near": near, "pairs": pairs}


def e10_run(lattices, inputs, clock):
    L, E = lattices[U_E8], lattices[E8]
    spec = mbmlat.wall_spec((-2,))
    start = clock()
    results = {
        "short": [list(v) for v in mbmlat.definite_short_vectors(E, -6)],
        "near": [[wall_json(w) for w in mbmlat.walls_near(L, tuple(v), spec, E10_NEAR_BOUND)]
                 for v in inputs["near"]],
        "separate": [[wall_json(w) for w in mbmlat.separating_walls(L, tuple(a), tuple(b), spec)]
                     for a, b in inputs["pairs"]],
    }
    return results, [(start, clock())]


def e10_check(inputs, results, recorded):
    """Independent sign and square checks on every result, and the digest
    of all results against the record.  Nothing here can fail softly: an
    error ends the repetition."""
    gram, e8 = gram_of(U_E8), gram_of(E8)
    short = [tuple(v) for v in results["short"]]
    problems = check_digest(results, recorded)
    attempts = 1 + len(inputs["near"]) + len(inputs["pairs"])
    if len(results["near"]) != len(inputs["near"]) or len(results["separate"]) != len(inputs["pairs"]):
        return problems + ["results missing for some classes or pairs"], 0, attempts
    if len(short) != E8_SHORT_COUNT or short != sorted(set(short)):
        problems.append(f"{len(short)} short vectors, expected {E8_SHORT_COUNT} distinct sorted")
    if any(not -6 <= q(e8, v, v) < 0 or next(c for c in v if c) < 0 for v in short):
        problems.append("a short vector has the wrong square or sign")
    for v, walls in zip(inputs["near"], results["near"]):
        vp = primitive(v)
        problems += check_wall_list(gram, (-2,), walls,
                                    lambda s: 1 <= q(gram, s, vp) <= E10_NEAR_BOUND)
    for (a, b), walls in zip(inputs["pairs"], results["separate"]):
        problems += check_wall_list(gram, (-2,), walls, lambda s: q(gram, s, a) > 0 > q(gram, s, b))
    return problems[:20], 0, attempts


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lattices: tuple
    generate: Callable
    run: Callable
    check: Callable
    record: Callable | None  # what expected/records.json keeps per seed
    min_reps: int  # job repetitions a timed run makes at least


WORKLOADS = {w.name: w for w in (
    Workload("census-r4",
             "the paper's end product, a census via cli.run; the only workload running orbits and cli; "
             "fixed input, --seed unused; check: stdout bytes equal the recorded output",
             (U_AA,), census_generate, census_run, census_check, None, 2),
    Workload("facets-mixed",
             "facet_walls, spec {-2,-4}: non-reflective decisions, the only undecided walls; wall-free witnesses "
             "of squares 100,100,102 from Random('facets-mixed/SEED'); check: invariants, recorded decisions kept",
             (U_AA,), facets_generate, facets_run, facets_check, facets_record, 1),
    Workload("queries-r34",
             "closed loop, 1 client: 4800 separating_walls/reduce_to_base queries, box 5, ranks 3-4, from "
             "Random('queries-r34/SEED'); no facets or orbits; check: digest of all results",
             (U_A, U_AA), queries_generate, queries_run, queries_check, digest_record, 1),
    Workload("walls-e10",
             "rank-10 U+E8m1: short vectors, walls_near, t-bounded separating pairs from "
             "Random('walls-e10/SEED'); Fincke-Pohst depth and basis skew; check: digest of all results",
             (E8, U_E8), e10_generate, e10_run, e10_check, digest_record, 1),
)}


def recorded() -> dict:
    """expected/records.json: workload name -> seed -> record."""
    path = EXPECTED / "records.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
