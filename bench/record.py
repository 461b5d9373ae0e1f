#!/usr/bin/env python3
"""Record what bench/run.py compares each seed's results against.

Usage (from the repository root):

    python3 bench/record.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs every workload that keeps a record, or only the named ones, once per
seed in this process, checks its invariants, and merges the records
(result digests, or facet decisions for facets-mixed) into
bench/expected/records.json.  Record only from a commit whose outputs are
trusted: the records then pin those outputs, and seeds without a record
are checked by invariants only.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mbmlat  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    first, last, names = int(argv[0]), int(argv[1]), argv[2:]
    record = workloads.recorded()
    entries = mbmlat.load_catalog()
    for wl in workloads.WORKLOADS.values():
        if wl.record is None or (names and wl.name not in names):
            continue
        lattices = workloads.make_lattices(wl.lattices, entries)
        for seed in range(first, last + 1):
            inputs = wl.generate(seed)
            results, _ = wl.run(lattices, inputs, time.perf_counter)
            problems, _, _ = wl.check(inputs, results, None)
            if problems:
                print(f"{wl.name} seed {seed}: {problems[0]}", file=sys.stderr)
                return 1
            record.setdefault(wl.name, {})[str(seed)] = wl.record(inputs, results)
            print(f"{wl.name} seed {seed} recorded", flush=True)
    # one line per seed
    blocks = []
    for name in sorted(record):
        seeds = sorted(record[name], key=int)
        lines = ",\n".join(f'  "{seed}": {json.dumps(record[name][seed], separators=(",", ":"))}' for seed in seeds)
        blocks.append(f' "{name}": {{\n{lines}\n }}')
    path = workloads.EXPECTED / "records.json"
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
