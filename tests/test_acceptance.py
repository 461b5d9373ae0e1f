"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line in the pytest terminal summary (see
conftest).  All tolerances are exact (integer / set equality); the two
timed criteria assert their stated wall-clock budgets.
"""

import itertools
import random
import time
from math import gcd

import pytest

from conftest import record_acceptance
from mbmlat import core
from mbmlat.catalog import load_catalog
from mbmlat.chambers import encode_flag, explore_tessellation, reduce_to_base, same_chamber
from mbmlat.core import gram_apply, make_lattice, pairing, primitive_integral, square
from mbmlat.enumeration import (
    is_reflective,
    separating_walls,
    vectors_of_square,
    wall_spec,
    walls_containing,
)
from mbmlat.errors import FlagChainError
from mbmlat.orbits import (
    face_orbit_census,
    facet_reflection_generators,
    kneser_degenerate_reps,
)
from oracles import (
    brute_force_separating,
    closure_classes,
    complement_orbit_reps,
    complement_part,
    degenerate_generator_set,
    kernel_functional,
    random_positive_pair,
    wall_box_bound,
)

SPEC2 = wall_spec([-2])

TEST_LATTICES = {
    "U": core.U_GRAM,
    "U+A1m2": core.direct_sum(core.U_GRAM, [[-2]]),
    "U+A1m2+A1m2": core.direct_sum(core.U_GRAM, [[-2]], [[-2]]),
    "A1p2+A1m2": core.direct_sum([[2]], [[-2]]),
}

BASES = {"U": (2, 1), "U+A1m2": (5, 3, 2), "U+A1m2+A1m2": (3, 4, 1, 1), "A1p2+A1m2": (2, 1)}


def _lattice(name):
    return make_lattice(TEST_LATTICES[name], name)


def _round_up(x, step):
    return ((x + step - 1) // step) * step


def test_criterion_1_oracle_equivalence():
    """separating_walls equals the brute-force vectors_of_square filter on
    four lattices, 100 seeded pairs each, exact set equality, under 60 s."""
    t0 = time.time()
    rng = random.Random(101)
    total_pairs = 0
    nonempty = 0
    for name in ("U", "U+A1m2", "U+A1m2+A1m2", "A1p2+A1m2"):
        L = _lattice(name)
        pairs = []
        while len(pairs) < 100:
            v0, v1 = random_positive_pair(L, rng, coord_bound=5)
            bound = wall_box_bound(L, v0, v1, SPEC2.squares)
            if L.rank >= 4 and bound > 12:
                continue  # keep the rank-4 oracle box affordable
            pairs.append((v0, v1, bound))
        for v0, v1, bound in pairs:
            # oracle box: the 10 * max-coordinate floor joined with the
            # rigorous ellipsoid bound (rank <= 3); on rank 4 the rigorous
            # bound alone, conditioned small, keeps the scan affordable
            if L.rank >= 4:
                box = _round_up(max(bound, 4), 4)
            else:
                floor_box = 10 * max(abs(c) for c in v0 + v1)
                box = _round_up(max(floor_box, bound), 10)
            exp = brute_force_separating(L, v0, v1, SPEC2, box)
            got = {(w.square, w.vector) for w in separating_walls(L, v0, v1, SPEC2)}
            assert got == exp, (name, v0, v1)
            total_pairs += 1
            nonempty += bool(got)
    elapsed = time.time() - t0
    assert total_pairs == 400
    assert nonempty > 100  # the comparison is not vacuous
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    record_acceptance(
        "test_criterion_1_oracle_equivalence",
        f"400 pairs, {nonempty} nonempty, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def rank4_depth4_graph():
    L = _lattice("U+A1m2+A1m2")
    return L, explore_tessellation(L, BASES["U+A1m2+A1m2"], SPEC2, 4, search_bound=20)


def test_criterion_2_k3_flag_bound(rank4_depth4_graph):
    """Every accepted codim-2 flag over depth <= 4 has unscaled square in
    [-8, 0), and -8 is attained (orthogonal pair instance).  Exact."""
    L, graph = rank4_depth4_graph
    values = set()
    accepted = 0
    for node in graph.nodes:
        for s1, s2 in itertools.permutations(node.facets, 2):
            try:
                flag = encode_flag(L, [s1, s2], SPEC2)
            except FlagChainError:
                continue
            accepted += 1
            val = flag.entries[1].unscaled_square
            assert -8 <= val < 0, (node.witness, s1.vector, s2.vector, val)
            values.add(val)
    assert -8 in values
    # the attainment instance named by the bound: orthogonal walls
    inst = encode_flag(L, [(0, 0, 1, 0), (0, 0, 0, 1)], SPEC2)
    assert inst.entries[1].unscaled_square == -8
    record_acceptance(
        "test_criterion_2_k3_flag_bound",
        f"{accepted} flags over {len(graph.nodes)} chambers, squares {sorted(values)}",
    )


def test_criterion_3_general_flag_bound(rank4_depth4_graph):
    """With |squares| <= C, depth-2 unscaled projections satisfy
    |q(y1,y1)| <= C^3 on all explored configurations.  Exact."""
    checked = 0
    configs = []
    # config A: the depth-4 {-2} exploration (C = 2)
    L4, graph = rank4_depth4_graph
    configs.append((L4, graph, SPEC2, 2))
    # config B: spec {-2, -4} on the rank-4 lattice (C = 4)
    spec24 = wall_spec([-2, -4])
    base24 = (5, 8, -2, -1)
    assert walls_containing(L4, base24, spec24) == []
    configs.append((L4, explore_tessellation(L4, base24, spec24, 2, search_bound=16), spec24, 4))
    # config C: the rank-3 lattice with {-2} (C = 2)
    L3 = _lattice("U+A1m2")
    configs.append((L3, explore_tessellation(L3, BASES["U+A1m2"], SPEC2, 3), SPEC2, 2))
    for L, graph, spec, c_bound in configs:
        assert max(abs(d) for d in spec.squares) == c_bound
        for node in graph.nodes:
            for s1, s2 in itertools.permutations(node.facets, 2):
                try:
                    flag = encode_flag(L, [s1, s2], spec)
                except FlagChainError:
                    continue
                checked += 1
                assert abs(flag.entries[1].unscaled_square) <= c_bound**3
    assert checked > 100
    record_acceptance("test_criterion_3_general_flag_bound", f"{checked} depth-2 flags on 3 configs")


def test_criterion_4_reduction():
    """200 seeded random positive vectors per lattice: reduce_to_base
    terminates, the separating count strictly decreases each step, and
    the image shares the base chamber.  Exact; under 60 s."""
    t0 = time.time()
    rng = random.Random(104)
    total = 0
    max_word = 0
    for name in ("U", "U+A1m2", "U+A1m2+A1m2", "A1p2+A1m2"):
        L = _lattice(name)
        base = BASES[name]
        done = 0
        while done < 200:
            v, _ = random_positive_pair(L, rng, coord_bound=6)
            if pairing(L, v, base) <= 0:
                v = tuple(-c for c in v)
            if pairing(L, v, base) <= 0 or square(L, v) <= 0:
                continue
            if walls_containing(L, v, SPEC2):
                continue
            res = reduce_to_base(L, v, base, SPEC2)
            counts = [len(separating_walls(L, base, v, SPEC2))]
            cur = v
            for w in res.word:
                cur = core.reflect_vector(L, cur, w.vector)
                counts.append(len(separating_walls(L, base, cur, SPEC2)))
            assert all(a > b for a, b in zip(counts, counts[1:])), (name, v, counts)
            assert counts[-1] == 0
            assert cur == res.image
            assert same_chamber(L, res.image, base, SPEC2)
            max_word = max(max_word, len(res.word))
            done += 1
            total += 1
    elapsed = time.time() - t0
    assert total == 800
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    record_acceptance("test_criterion_4_reduction", f"800 reductions, max word {max_word}, {elapsed:.1f}s")


def test_criterion_5_kneser_degenerate():
    """Emitted representatives are pairwise non-equivalent and complete
    over box 8 under generator words of length <= 8 (closure oracle, built
    from the Gram matrix alone).  The squares -8 and 8 give families of
    complement content 2, whose kernel shifts k = 0, 1 lie in two orbits;
    content 3 and more is not checked, since k and d - k share an orbit."""
    checked_lattices = 0
    details = []
    for gram, name, squares in (
        (core.direct_sum([[0]], [[-2]]), "Z0+A1m2", (-2, 0, 2, -8)),
        (core.direct_sum([[0]], core.U_GRAM), "Z0+U", (-2, 0, 2, 8)),
    ):
        L = make_lattice(gram, name)
        l, phi = kernel_functional(L.gram)
        gens = degenerate_generator_set(L.gram, l, phi)
        for r in squares:
            base_parts = complement_orbit_reps(L, l, phi, gens, r, box=8)
            if r == 0:
                # zero-square families: primitive isotropic anchors (the
                # pure-kernel classes are excluded -- the finiteness
                # theorem requires r != 0 precisely because of them)
                base_parts = [p for p in base_parts if gcd(*p) == 1]
            reps = kneser_degenerate_reps(L, r, base_parts)
            checked_lattices += 1
            if not base_parts:
                # S_r meets the complement in nothing: empty output
                assert reps == []
                details.append(f"{name} r={r}: empty")
                continue
            balls = closure_classes(reps, gens, word_len=8, state_box=32)
            # pairwise non-equivalent: no representative reaches another
            for i, rep in enumerate(reps):
                for j, ball in enumerate(balls):
                    assert (rep in ball) == (i == j), (name, r, rep)
            # jointly complete: every in-scope box-8 vector reaches exactly one
            family_parts = set()
            for p in base_parts:
                family_parts |= closure_classes([p], gens, 10, 64)[0]
            covered = 0
            for v in vectors_of_square(L, r, 8):
                part = complement_part(v, l, phi)
                if not any(part) or part not in family_parts:
                    continue
                hits = sum(v in ball for ball in balls)
                assert hits == 1, (name, r, v)
                covered += 1
            details.append(f"{name} r={r}: {len(reps)} reps cover {covered}")
    assert checked_lattices == 8
    record_acceptance("test_criterion_5_kneser_degenerate", "; ".join(details[:3]) + "; ...")


def test_criterion_6_reflective_square_bound():
    """1e5 seeded sparse candidates per non-degenerate catalog lattice:
    no integral reflection in a primitive class has |square| > 2*disc;
    on K3 every integral reflection in a negative class has square -2."""
    rng = random.Random(106)
    entries = [e for e in load_catalog() if not e.lattice.is_degenerate]
    k3_found = 0
    total_reflective = 0
    for entry in entries:
        L = entry.lattice
        bound = 2 * L.discriminant
        n = L.rank
        gram = L.gram
        for _ in range(100_000):
            s = [0] * n
            for _ in range(rng.randint(1, min(4, n))):
                s[rng.randrange(n)] = rng.randint(-3, 3)
            sv = primitive_integral(tuple(s))
            if all(c == 0 for c in sv):
                continue
            # q(s,s) and the divisibility scan, lazily with early exit
            d = 0
            support = [i for i, c in enumerate(sv) if c != 0]
            for i in support:
                row = gram[i]
                d += sv[i] * sum(row[j] * sv[j] for j in support)
            if d == 0:
                continue
            integral = True
            for i in range(n):
                num = 2 * sum(gram[i][j] * sv[j] for j in support)
                if num % d != 0:
                    integral = False
                    break
            if not integral:
                continue
            total_reflective += 1
            assert abs(d) <= bound, (entry.name, sv, d)
            if entry.name == "K3" and d < 0:
                assert d == -2, (sv, d)
                k3_found += 1
    assert total_reflective > 0
    assert k3_found > 0
    record_acceptance(
        "test_criterion_6_reflective_square_bound",
        f"{len(entries)} lattices, {total_reflective} integral reflections, {k3_found} on K3",
    )


def test_criterion_7_census_saturation():
    """face_orbit_census on U+<-2> (spec {-2}, reflection generators)
    reports 0 new facet orbits at depths >= 3."""
    L = _lattice("U+A1m2")
    base = BASES["U+A1m2"]
    gens = facet_reflection_generators(L, base, SPEC2)
    table = face_orbit_census(L, base, SPEC2, gens, depth=4, word_budget=8)
    sat = table.saturation(1)
    assert len(sat) == 5
    assert sat[3] == 0 and sat[4] == 0, sat
    record_acceptance("test_criterion_7_census_saturation", f"facet saturation {sat}")


def test_criterion_8_catalog_validation():
    """K3 signature (3,19) and disc 1; K3n disc 2(n-1) for n in {2,3,4};
    recorded metadata equals recomputation exactly (loader enforced)."""
    entries = {e.name: e for e in load_catalog()}
    k3 = entries["K3"].lattice
    assert k3.signature == (3, 19) and k3.discriminant == 1
    for n in (2, 3, 4):
        Ln = entries[f"K3n{n}"].lattice
        assert Ln.rank == 23
        assert Ln.discriminant == 2 * (n - 1)
    # recomputation check against the raw file, independent of the loader
    import json

    from mbmlat.catalog import default_catalog_path

    with open(default_catalog_path()) as fh:
        raw = json.load(fh)
    for item in raw:
        L = make_lattice(item["gram"])
        assert list(L.signature) == item["signature"]
        assert L.discriminant == item["discriminant"]
    record_acceptance("test_criterion_8_catalog_validation", f"{len(raw)} entries validated")


def test_criterion_9_cli_determinism():
    """The golden-file suite is byte-identical across two runs and across
    thread counts 1 and 4."""
    from test_cli import GOLDEN_COMMANDS, GOLDEN_DIR, invoke

    for fname, argv in GOLDEN_COMMANDS:
        golden = (GOLDEN_DIR / fname).read_text()
        for prefix in ([], ["--threads", "1"], ["--threads", "4"]):
            code, out, err = invoke(prefix + argv)
            assert code == 0, err
            assert out == golden, fname
        code2, out2, _ = invoke(argv)
        assert out2 == golden
    record_acceptance(
        "test_criterion_9_cli_determinism", f"{len(GOLDEN_COMMANDS)} commands x 4 runs byte-identical"
    )
