#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the package's test suite).

Usage (from the repository root):

    python3 bench/selftest.py

Checks that the tracer counts calls made through every binding site, that
mismatched work counts fail a traced run, that each output check rejects a
deliberately wrong result, that the speed probe samples while work runs
and scales spans by it, that BENCHMARK.json describes what run.py
reports, and that the benchmark refuses to run without the sources.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import speed
import tracing
import workloads

ROOT = run.ROOT


def child(workload, mode, inputs):
    return run.Runner(workloads.WORKLOADS[workload], inputs, time.monotonic() + 120)(mode)


class TracingTest(unittest.TestCase):
    def test_calls_through_other_modules_are_counted(self):
        inputs = workloads.queries_generate(3)
        inputs["ops"] = inputs["ops"][:8]
        rep = child("queries-r34", "trace", inputs)
        layers = rep["layers"]
        separate = sum(1 for op in inputs["ops"] if op[0] == "separate")
        words = [len(r["word"]) for r in rep["results"] if isinstance(r, dict)]
        # reduce_to_base calls separating_walls through the name bound in
        # chambers, once per step and once more to confirm it is done
        self.assertEqual(layers["enumeration.separating_walls.calls"], separate + sum(w + 1 for w in words))
        self.assertEqual(layers["chambers.reduce_to_base.calls"], len(words))
        self.assertEqual(layers["chambers.reduce_to_base.word_len_total"], sum(words))
        self.assertGreater(layers["core.gram_apply.calls"], layers["core.pairing.calls"])

    def test_all_binding_sites_are_patched(self):
        import mbmlat.chambers
        import mbmlat.enumeration
        tracer = tracing.Tracer(time.perf_counter)
        original = mbmlat.enumeration.separating_walls
        try:
            tracer.install()
            self.assertIn("mbmlat.chambers.separating_walls", tracer.sites)
            self.assertIn("mbmlat.enumeration.separating_walls", tracer.sites)
            self.assertIs(mbmlat.chambers.separating_walls, mbmlat.enumeration.separating_walls)
        finally:
            for site in tracer.sites:
                module, attr = site.rsplit(".", 1)
                setattr(sys.modules[module], attr, getattr(sys.modules[module], attr).__wrapped__)
        self.assertIs(mbmlat.enumeration.separating_walls, original)

    def test_count_mismatch_is_reported(self):
        a = {"enumeration.walls_near.calls": 3, "enumeration.walls_near.self_s": 0.1}
        b = dict(a, **{"enumeration.walls_near.self_s": 0.2})
        self.assertEqual(tracing.count_mismatches(a, b), [])
        b["enumeration.walls_near.calls"] = 4
        self.assertEqual(tracing.count_mismatches(a, b), ["enumeration.walls_near.calls"])


def problems(check, inputs, results, recorded=None):
    return check(inputs, results, recorded)[0]


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.entries = workloads.mbmlat.load_catalog()

    def lattices(self, name):
        return workloads.make_lattices(workloads.WORKLOADS[name].lattices, self.entries)

    def test_flipped_wall_sign_is_rejected(self):
        inputs = workloads.queries_generate(5)
        inputs["ops"] = inputs["ops"][:16]
        results, _ = workloads.queries_run(self.lattices("queries-r34"), inputs, time.perf_counter)
        self.assertEqual(problems(workloads.queries_check, inputs, results), [])
        i = next(i for i, r in enumerate(results) if isinstance(r, list) and r)
        bad = copy.deepcopy(results)
        bad[i][0][1] = [-c for c in bad[i][0][1]]
        self.assertNotEqual(problems(workloads.queries_check, inputs, bad), [])

        check = run.Checker(workloads.WORKLOADS["queries-r34"], inputs, 5)
        check.recorded = workloads.digest(results)
        check({"results": results})
        self.assertEqual(check.problems, [])
        check({"results": bad})
        self.assertTrue(any("recorded" in p for p in check.problems))

    def test_flipped_rank10_wall_sign_is_rejected(self):
        inputs = workloads.e10_generate(5)
        inputs = {"near": inputs["near"][:1], "pairs": inputs["pairs"][:1]}
        results, _ = workloads.e10_run(self.lattices("walls-e10"), inputs, time.perf_counter)
        self.assertEqual(problems(workloads.e10_check, inputs, results), [])
        for part in ("near", "separate"):
            bad = copy.deepcopy(results)
            bad[part][0][0][1] = [-c for c in bad[part][0][0][1]]
            self.assertNotEqual(problems(workloads.e10_check, inputs, bad), [])

    def test_dropped_facet_is_rejected(self):
        inputs = {"witnesses": workloads.facets_generate(2)["witnesses"][:1]}
        lattices = self.lattices("facets-mixed")
        results, _ = workloads.facets_run(lattices, inputs, time.perf_counter)
        record = workloads.facets_record(inputs, results)
        self.assertEqual(problems(workloads.facets_check, inputs, results, record), [])
        L = lattices[workloads.U_AA]
        reflective = [workloads.mbmlat.is_reflective(L, tuple(f[1])) for f in results[0]["faces"]]
        self.assertTrue(any(reflective) and not all(reflective))
        for i, refl in enumerate(reflective):
            bad = copy.deepcopy(results)
            del bad[0]["faces"][i]
            if refl:
                # the mirror criterion finds a dropped reflective facet
                self.assertNotEqual(problems(workloads.facets_check, inputs, bad), [])
            # the record finds any dropped facet, non-reflective ones too
            self.assertNotEqual(problems(workloads.facets_check, inputs, bad, record), [])

    def test_undecided_walls_may_be_decided(self):
        inputs = {"witnesses": workloads.facets_generate(2)["witnesses"][:1]}
        results, _ = workloads.facets_run(self.lattices("facets-mixed"), inputs, time.perf_counter)
        record = workloads.facets_record(inputs, results)
        self.assertTrue(record[0]["undecided"])
        decided = copy.deepcopy(results)
        decided[0]["undecided"] = []  # decided as non-facets
        self.assertEqual(problems(workloads.facets_check, inputs, decided, record), [])
        wrong = copy.deepcopy(results)
        wrong[0]["undecided"].append(wrong[0]["faces"].pop()[:2])  # a facet turned undecided
        self.assertNotEqual(problems(workloads.facets_check, inputs, wrong, record), [])

    def test_changed_census_row_is_rejected(self):
        expected = (workloads.EXPECTED / "census_r4.json").read_text(encoding="utf-8")
        good = {"exit": 0, "stdout": expected}
        self.assertEqual(problems(workloads.census_check, {}, good), [])
        doc = json.loads(expected)
        doc["rows"][2]["faces"] += 1
        bad = {"exit": 0, "stdout": json.dumps(doc, indent=2, sort_keys=True) + "\n"}
        self.assertNotEqual(problems(workloads.census_check, {}, bad), [])


class SpeedTest(unittest.TestCase):
    def test_probe_samples_while_work_runs(self):
        probe = speed.SpeedProbe()
        probe.start()
        t0 = probe.clock()
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
        t1 = probe.clock()
        probe.stop()
        inside = [a for a in probe.at if t0 <= a <= t1]
        self.assertGreater(len(inside), 0.3 / speed.INTERVAL_S / 2)
        self.assertAlmostEqual(probe.spent, sum(probe.took))
        self.assertGreater(probe.normalise(t0, t1), 0)

    def test_factor_follows_the_probe(self):
        probe = speed.SpeedProbe()
        probe.at = [i * speed.INTERVAL_S for i in range(100)]
        probe.took = [speed.REFERENCE_S] * 50 + [2 * speed.REFERENCE_S] * 50
        self.assertAlmostEqual(probe.normalise(0.0, 0.4), 0.4)  # a host at reference speed
        self.assertAlmostEqual(probe.normalise(0.6, 0.9), 0.15)  # a host at half speed
        # a span shorter than NEAREST probes takes the probes around it
        self.assertAlmostEqual(probe.normalise(0.8, 0.801), 0.0005)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracing.PER_LAYER)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "census-r4",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
