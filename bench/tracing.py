"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each traced ``mbmlat`` function by a wrapper
at every binding site: the defining module and every other ``mbmlat``
module that bound the same object by ``from .x import f``.  Each wrapper
records a span on a stack, so a function's self time is its span minus
the spans of the traced calls it made.  Generators such as
``iter_separating_walls`` are not wrapped: their span would end before
their work does.

Layers are named after the modules they measure.  Spans are read from
the clock the tracer is given; the child passes the probe-free clock of
``bench/speed.py``, and ``metrics(factor)`` turns self times into
reference seconds.
"""

from __future__ import annotations

import functools
import sys

from mbmlat.errors import FlagChainError

TRACED = {
    "core": ("gram_apply", "pairing", "reflect_vector"),
    "enumeration": ("separating_walls", "walls_containing", "walls_near",
                    "has_other_separating_wall", "definite_short_vectors", "is_reflective"),
    "chambers": ("facet_walls", "reduce_to_base", "chamber_at", "encode_flag", "explore_tessellation"),
    "orbits": ("face_orbit_census", "orbit_key_mod_sign", "facet_reflection_generators"),
    "catalog": ("load_catalog",),
    "cli": ("run",),
}

# lru caches read after the run: metric prefix -> (module, function)
CACHES = {
    "enumeration.base_data": ("enumeration", "_base_data"),
    "enumeration.posdef": ("enumeration", "_posdef_of_negdef"),
}

C, S, R = "count", "s", "ratio"
# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = [
    ("core.gram_apply.calls", C, "lower"),
    ("core.gram_apply.self_s", S, "lower"),
    ("core.pairing.calls", C, "lower"),
    ("core.pairing.self_s", S, "lower"),
    ("core.reflect_vector.calls", C, "lower"),
    ("enumeration.separating_walls.calls", C, "lower"),
    ("enumeration.separating_walls.self_s", S, "lower"),
    ("enumeration.separating_walls.walls_out", C, "lower"),
    ("enumeration.walls_containing.calls", C, "lower"),
    ("enumeration.walls_containing.self_s", S, "lower"),
    ("enumeration.walls_near.calls", C, "lower"),
    ("enumeration.walls_near.self_s", S, "lower"),
    ("enumeration.walls_near.walls_out", C, "lower"),
    ("enumeration.has_other_separating_wall.calls", C, "lower"),
    ("enumeration.has_other_separating_wall.self_s", S, "lower"),
    ("enumeration.has_other_separating_wall.true_share", R, "higher"),
    ("enumeration.definite_short_vectors.self_s", S, "lower"),
    ("enumeration.definite_short_vectors.vectors_out", C, "lower"),
    ("enumeration.is_reflective.calls", C, "lower"),
    ("enumeration.base_data.hits", C, "higher"),
    ("enumeration.base_data.misses", C, "lower"),
    ("enumeration.base_data.hit_ratio", R, "higher"),
    ("enumeration.posdef.hits", C, "higher"),
    ("enumeration.posdef.misses", C, "lower"),
    ("chambers.facet_walls.calls", C, "lower"),
    ("chambers.facet_walls.self_s", S, "lower"),
    ("chambers.facet_walls.candidates", C, "lower"),
    ("chambers.facet_walls.faces_out", C, "higher"),
    ("chambers.facet_walls.undecided_out", C, "lower"),
    ("chambers.facet_walls.facet_yield", R, "higher"),
    ("chambers.reduce_to_base.calls", C, "lower"),
    ("chambers.reduce_to_base.self_s", S, "lower"),
    ("chambers.reduce_to_base.word_len_total", C, "lower"),
    ("chambers.chamber_at.calls", C, "lower"),
    ("chambers.chamber_at.self_s", S, "lower"),
    ("chambers.encode_flag.calls", C, "lower"),
    ("chambers.encode_flag.self_s", S, "lower"),
    ("chambers.encode_flag.rejected", C, "lower"),
    ("chambers.explore_tessellation.self_s", S, "lower"),
    ("chambers.explore_tessellation.nodes", C, "higher"),
    ("chambers.explore_tessellation.edges", C, "higher"),
    ("orbits.face_orbit_census.self_s", S, "lower"),
    ("orbits.orbit_key_mod_sign.calls", C, "lower"),
    ("orbits.orbit_key_mod_sign.self_s", S, "lower"),
    ("orbits.facet_reflection_generators.self_s", S, "lower"),
    ("catalog.load_catalog.self_s", S, "lower"),
    ("cli.run.self_s", S, "lower"),
    ("bench.trace_overhead", R, "lower"),
]


def _count_result(field, measure=len):
    def hook(tracer, stats, result):
        stats[field] = stats.get(field, 0) + measure(result)
    return hook


def _walls_near_hook(tracer, stats, result):
    stats["walls_out"] = stats.get("walls_out", 0) + len(result)
    if tracer.stack and tracer.stack[-1][0] == "chambers.facet_walls":
        facets = tracer.stats["chambers.facet_walls"]
        facets["candidates"] = facets.get("candidates", 0) + len(result)


def _facet_hook(tracer, stats, result):
    stats["faces_out"] = stats.get("faces_out", 0) + len(result.faces)
    stats["undecided_out"] = stats.get("undecided_out", 0) + len(result.undecided)


def _explore_hook(tracer, stats, result):
    stats["nodes"] = stats.get("nodes", 0) + len(result.nodes)
    stats["edges"] = stats.get("edges", 0) + len(result.edges)


RESULT_HOOKS = {
    "enumeration.separating_walls": _count_result("walls_out"),
    "enumeration.walls_near": _walls_near_hook,
    "enumeration.has_other_separating_wall": _count_result("trues", int),
    "enumeration.definite_short_vectors": _count_result("vectors_out"),
    "chambers.facet_walls": _facet_hook,
    "chambers.reduce_to_base": _count_result("word_len_total", lambda r: len(r.word)),
    "chambers.explore_tessellation": _explore_hook,
}


class Tracer:
    """Span stack and per-function statistics for one process."""

    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self.stack: list[list] = []  # [name, time spent in traced children]
        self.sites: list[str] = []   # "module.attribute" bindings replaced

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        hook = RESULT_HOOKS.get(name)
        stack = self.stack
        clock = self.clock
        rejecting = name == "chambers.encode_flag"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if rejecting and isinstance(exc, FlagChainError):
                    stats["rejected"] = stats.get("rejected", 0) + 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, stats, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at every binding site in ``mbmlat``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mbmlat" or n.startswith("mbmlat."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"mbmlat.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.sites.append(f"{mod.__name__}.{attr}")

    def metrics(self, factor: float) -> dict:
        """Raw per-layer numbers: counts, self times (clock seconds times
        ``factor``) and cache statistics."""
        out = {}
        for name, stats in self.stats.items():
            for field, value in stats.items():
                out[f"{name}.{field}"] = value * factor if field == "self_s" else value
        for prefix, (layer, fname) in CACHES.items():
            # reads 0 if the package no longer has that cache
            cached = getattr(sys.modules[f"mbmlat.{layer}"], fname, None)
            info = cached.cache_info() if hasattr(cached, "cache_info") else None
            out[f"{prefix}.hits"] = info.hits if info else 0
            out[f"{prefix}.misses"] = info.misses if info else 0
        return out


def derive(raw: dict) -> dict:
    """Ratios from raw numbers; every PER_LAYER name except the overhead."""
    def share(num, den):
        return raw.get(num, 0) / raw[den] if raw.get(den) else 0.0

    out = dict(raw)
    out["enumeration.has_other_separating_wall.true_share"] = share(
        "enumeration.has_other_separating_wall.trues", "enumeration.has_other_separating_wall.calls")
    out["chambers.facet_walls.facet_yield"] = share(
        "chambers.facet_walls.faces_out", "chambers.facet_walls.candidates")
    lookups = raw.get("enumeration.base_data.hits", 0) + raw.get("enumeration.base_data.misses", 0)
    out["enumeration.base_data.hit_ratio"] = raw.get("enumeration.base_data.hits", 0) / lookups if lookups else 0.0
    return {name: out.get(name, 0) for name, _, _ in PER_LAYER if name != "bench.trace_overhead"}


def is_count(name: str) -> bool:
    """Work counts must repeat exactly between traced runs; times need not."""
    return not name.endswith("self_s")


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Names of the work counts that differ between two traced runs."""
    return [n for n in sorted(a.keys() | b.keys()) if is_count(n) and a.get(n) != b.get(n)]
