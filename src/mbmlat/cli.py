"""Command-line front end.

Every subcommand prints a deterministic document: JSON (sorted keys,
two-space indent), plain text, or DOT for the tessellation graph.
:func:`run` is the single dispatcher: it resolves ``--lattice`` and
builds the wall spec from ``--squares``/``--reflective`` once, in that
order, then calls the subcommand, which only computes and returns its
document for each format it offers; ``run`` writes the one selected.
Domain errors exit 1 with a structured JSON object on stderr; usage
errors exit 2.  ``--threads`` is accepted for interface compatibility
and validated, but execution is sequential, which makes the byte-level
determinism across thread counts trivial.

Vectors on the command line are comma-separated integers (rationals as
p/q); lists of vectors are separated by semicolons.  A value that starts
with ``-`` and is not a single integer must be attached with ``=``
(``--squares=-2,-4``, ``--v=-3,-2,-2``): argparse reads it as a flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import load_catalog, read_json_file, resolve_lattice
from .chambers import (
    DEFAULT_SEARCH_BOUND,
    chamber_at,
    encode_flag,
    explore_tessellation,
    facet_walls,
    reduce_to_base,
)
from .core import vector_to_json
from .enumeration import (
    definite_short_vectors,
    separating_walls,
    vectors_of_square,
    wall_spec,
)
from .errors import MbmlatError, ValidationError
from .orbits import (
    DEFAULT_WORD_BUDGET,
    canonical_orbit_rep,
    face_orbit_census,
    kneser_degenerate_reps,
    reflection,
)


def _parse_vector(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValidationError(f"empty vector {text!r}")
    out = []
    for p in parts:
        try:
            out.append(Fraction(p) if "/" in p else int(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad vector entry {p!r}") from exc
    return tuple(out)


def _parse_vectors(text: str):
    return [_parse_vector(part) for part in text.split(";") if part.strip()]


def _parse_squares(text: str):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad squares list {text!r}") from exc


def _vec_text(v) -> str:
    return ",".join(str(x) for x in vector_to_json(v))


def _doc(payload, lines) -> dict:
    """The JSON payload, and the text document made of ``lines``."""
    return {"json": payload, "text": "\n".join(lines) + "\n"}


def _vector_list(vectors) -> dict:
    return {"json": [vector_to_json(v) for v in vectors], "text": "".join(_vec_text(v) + "\n" for v in vectors)}


# ---------------------------------------------------------------------------
# subcommands: each takes (args, lattice, spec) and maps format -> document


def _cmd_info(args, L, spec) -> dict:
    payload = {
        "name": L.name,
        "rank": L.rank,
        "signature": list(L.signature),
        "discriminant": L.discriminant,
    }
    return _doc(payload, [f"name: {L.name}", f"rank: {L.rank}",
                          f"signature: ({L.signature[0]},{L.signature[1]})", f"discriminant: {L.discriminant}"])


def _cmd_enumerate(args, L, spec) -> dict:
    if args.min_square is not None and args.square is not None:
        raise ValidationError("choose one of --min-square (definite mode) or --square/--box (oracle mode)")
    if args.min_square is not None:
        return _vector_list(definite_short_vectors(L, args.min_square))
    if args.square is not None:
        return _vector_list(vectors_of_square(L, args.square, args.box))
    raise ValidationError("enumerate needs --min-square or --square")


def _cmd_separate(args, L, spec) -> dict:
    walls = separating_walls(L, _parse_vector(args.v0), _parse_vector(args.v1), spec)
    return _vector_list([w.vector for w in walls])


def _cmd_reduce(args, L, spec) -> dict:
    res = reduce_to_base(L, _parse_vector(args.v), _parse_vector(args.base), spec)
    lines = ["word:"] + [f"  {_vec_text(w.vector)}" for w in res.word]
    lines.append(f"image: {_vec_text(res.image)}")
    payload = {
        "word": [vector_to_json(w.vector) for w in res.word],
        "image": vector_to_json(res.image),
        "canonical_point": vector_to_json(res.image),
    }
    return _doc(payload, lines)


def _cmd_facets(args, L, spec) -> dict:
    ch = chamber_at(L, _parse_vector(args.witness), spec=spec)
    res = facet_walls(L, ch, args.search_bound)
    lines = [f"facets (search_bound {res.search_bound}):"]
    lines += [f"  wall {_vec_text(f.supporting_wall.vector)}  witness {_vec_text(f.witness_on_wall)}"
              for f in res.faces]
    if res.undecided:
        lines.append("undecided: " + "; ".join(_vec_text(w.vector) for w in res.undecided))
    payload = {
        "search_bound": res.search_bound,
        "complete": res.complete,
        "faces": [
            {
                "wall": vector_to_json(f.supporting_wall.vector),
                "square": f.supporting_wall.square,
                "witness_on_wall": vector_to_json(f.witness_on_wall),
            }
            for f in res.faces
        ],
        "undecided": [vector_to_json(w.vector) for w in res.undecided],
    }
    return _doc(payload, lines)


def _cmd_flag(args, L, spec) -> dict:
    flag = encode_flag(L, _parse_vectors(args.chain), spec)
    lines = [
        f"{i}: vector {_vec_text(e.vector)} square {e.square} orient {e.orientation:+d} "
        f"unscaled_square {e.unscaled_square}"
        for i, e in enumerate(flag.entries, 1)
    ]
    payload = {
        "depth": flag.depth,
        "entries": [
            {
                "vector": vector_to_json(e.vector),
                "square": e.square,
                "orientation": e.orientation,
                "unscaled": vector_to_json(e.unscaled),
                "unscaled_square": e.unscaled_square,
            }
            for e in flag.entries
        ],
    }
    return _doc(payload, lines)


def _cmd_explore(args, L, spec) -> dict:
    graph = explore_tessellation(L, _parse_vector(args.base), spec, args.depth, args.search_bound)
    return {
        "json": graph.to_json_dict(),
        "text": f"nodes: {len(graph.nodes)}\nedges: {len(graph.edges)}\n",
        "dot": graph.to_dot(),
    }


def _load_generators(L, args):
    gens = []
    if args.generators:
        gens = read_json_file(args.generators, "generator")
        if not isinstance(gens, list):
            raise ValidationError("generator file must hold a JSON list of matrices")
    if args.reflections:
        gens += [reflection(L, v) for v in _parse_vectors(args.reflections)]
    return gens


def _cmd_orbits(args, L, spec) -> dict:
    gens = _load_generators(L, args)
    if not gens:
        raise ValidationError("orbits needs --generators FILE and/or --reflections vectors")
    res = canonical_orbit_rep(L, _parse_vector(args.v), gens, args.word_budget)
    payload = {
        "representative": vector_to_json(res.vector),
        "complete": res.complete,
        "visited": res.visited,
    }
    return _doc(payload, [f"representative: {_vec_text(res.vector)}", f"complete: {res.complete}"])


def _cmd_kneser(args, L, spec) -> dict:
    return _vector_list(kneser_degenerate_reps(L, args.r, _parse_vectors(args.base_reps)))


def _cmd_census(args, L, spec) -> dict:
    base = _parse_vector(args.base)
    # no generators given: the base chamber's facet reflections
    table = face_orbit_census(
        L, base, spec, _load_generators(L, args) or None, args.depth,
        word_budget=args.word_budget, search_bound=args.search_bound, max_codim=args.max_codim,
    )
    return {"json": table.to_json_dict(), "text": table.to_text()}


def _cmd_validate_catalog(args, L, spec) -> dict:
    entries = load_catalog(args.path)
    lines = [
        f"OK {e.name}: rank {e.lattice.rank}, signature "
        f"({e.lattice.signature[0]},{e.lattice.signature[1]}), discriminant {e.lattice.discriminant}"
        for e in entries
    ]
    payload = [
        {
            "name": e.name,
            "rank": e.lattice.rank,
            "signature": list(e.lattice.signature),
            "discriminant": e.lattice.discriminant,
            "fujiki_constant": e.fujiki_constant,
            "mbm_square_bound": e.wall_square_bound,
        }
        for e in entries
    ]
    return _doc(payload, lines)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mbmlat",
        description="Exact wall-and-chamber geometry over integral quadratic lattices.",
    )
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; output bytes are identical for any value")
    sub = p.add_subparsers(dest="command", required=True)

    # argument groups shared by several subcommands
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--lattice", required=True)
    walls = argparse.ArgumentParser(add_help=False, parents=[lattice])
    walls.add_argument("--squares", required=True)
    walls.add_argument("--reflective", action="store_true")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--search-bound", type=int, default=DEFAULT_SEARCH_BOUND, dest="search_bound")
    gens = argparse.ArgumentParser(add_help=False)
    gens.add_argument("--generators", help="JSON file with a list of matrices")
    gens.add_argument("--reflections", help="semicolon-separated reflection classes")
    gens.add_argument("--word-budget", type=int, default=DEFAULT_WORD_BUDGET, dest="word_budget")

    def add(name, fn, help_text, *groups, formats=("json", "text")):
        sp = sub.add_parser(name, help=help_text, parents=groups)
        sp.set_defaults(func=fn)
        sp.add_argument("--format", choices=formats, default="json")
        return sp

    add("info", _cmd_info, "lattice metadata (signature, discriminant)", lattice)

    sp = add("enumerate", _cmd_enumerate, "short vectors (definite) or box oracle", lattice)
    sp.add_argument("--min-square", type=int, dest="min_square")
    sp.add_argument("--square", type=int)
    sp.add_argument("--box", type=int, default=2)

    sp = add("separate", _cmd_separate, "walls crossed between two positive classes", walls)
    sp.add_argument("--v0", required=True)
    sp.add_argument("--v1", required=True)

    sp = add("reduce", _cmd_reduce, "reflection-word reduction into the base chamber", walls)
    sp.add_argument("--v", required=True)
    sp.add_argument("--base", required=True)

    sp = add("facets", _cmd_facets, "facet walls of a chamber", walls, bound)
    sp.add_argument("--witness", required=True)

    sp = add("flag", _cmd_flag, "oriented-flag encoding of a wall chain", walls)
    sp.add_argument("--chain", required=True, help="semicolon-separated wall vectors")

    sp = add("explore", _cmd_explore, "BFS chamber tessellation graph", walls, bound,
             formats=("json", "text", "dot"))
    sp.add_argument("--base", required=True)
    sp.add_argument("--depth", type=int, required=True)

    sp = add("orbits", _cmd_orbits, "canonical orbit representative under generators", lattice, gens)
    sp.add_argument("--v", required=True)

    sp = add("kneser", _cmd_kneser, "degenerate-kernel orbit representatives", lattice)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--base-reps", required=True, dest="base_reps",
                    help="semicolon-separated complement representatives")

    sp = add("census", _cmd_census, "face-orbit census with saturation profile", walls, bound, gens)
    sp.add_argument("--base", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--max-codim", type=int, default=2, choices=(1, 2), dest="max_codim")

    sp = add("validate-catalog", _cmd_validate_catalog, "validate all catalog entries")
    sp.add_argument("--path", help="catalog file (default: packaged, or MBM_CATALOG_PATH)")

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error("--threads must be >= 1")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        L = resolve_lattice(args.lattice) if "lattice" in args else None
        spec = (wall_spec(_parse_squares(args.squares), require_reflective=args.reflective)
                if "squares" in args else None)
        doc = args.func(args, L, spec)[args.format]
    except MbmlatError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n" if args.format == "json" else doc)
    return 0


if __name__ == "__main__":
    sys.exit(run())
