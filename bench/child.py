"""One repetition of a workload, in a fresh interpreter so caches start cold.

Usage: python3 bench/child.py WORKLOAD {setup,job,trace} < inputs.json

Prints one JSON object on stdout.  ``setup_s`` covers what every CLI
command pays: ``import mbmlat`` (with its CLI), ``load_catalog()`` and
``make_lattice`` for the workload's lattices.  ``setup`` stops there,
``job`` also runs the workload's job, and ``trace`` runs it with the
per-layer wrappers installed before the catalog is loaded.

Times are in reference seconds (``bench/speed.py``); ``*_raw_s`` are the
same spans in plain seconds of the probe-free clock.
"""

import json
import resource
import sys

import speed


def peak_rss_mib() -> float:
    """Peak resident set of this process image.  ``ru_maxrss`` is not it on
    Linux: the kernel keeps the larger of it and the parent's resident set
    at fork across execve, so it reads the benchmark process's size
    whenever that is larger.  VmHWM counts this image only."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    name, mode = sys.argv[1], sys.argv[2]
    inputs = json.loads(sys.stdin.read())
    probe = speed.SpeedProbe()
    clock = probe.clock
    probe.start()
    setup_t0 = clock()
    import mbmlat
    import mbmlat.cli  # noqa: F401  (every CLI command imports it)
    import_t1 = clock()

    import tracing
    import workloads
    workload = workloads.WORKLOADS[name]
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer(clock)
        tracer.install()

    lattice_t0 = clock()
    lattices = workloads.make_lattices(workload.lattices, mbmlat.load_catalog())
    setup_t1 = clock()
    spans = []
    if mode != "setup":
        results, spans = workload.run(lattices, inputs, clock)
        job_t0, job_t1 = spans[0][0], spans[-1][1]
    probe.stop()

    setup_raw = (import_t1 - setup_t0) + (setup_t1 - lattice_t0)
    out = {"setup_s": setup_raw * probe.factor(setup_t0, setup_t1), "setup_raw_s": setup_raw}
    if mode != "setup":
        out["wall_s"] = probe.normalise(job_t0, job_t1)
        out["wall_raw_s"] = job_t1 - job_t0
        out["op_ms"] = [probe.normalise(t0, t1) * 1000.0 for t0, t1 in spans]
        out["results"] = results
    if tracer is not None:
        out["layers"] = tracer.metrics(probe.factor(job_t0, job_t1))
    out["rss_mib"] = peak_rss_mib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
