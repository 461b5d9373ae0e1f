import argparse
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mbmlat.cli import build_parser, run

GOLDEN_DIR = Path(__file__).parent / "golden"

# the golden suite: every subcommand, every output format in use
GOLDEN_COMMANDS = [
    ("info_k3.json", ["info", "--lattice", "K3"]),
    ("info_ua.txt", ["info", "--lattice", "U+A1m2", "--format", "text"]),
    ("enumerate_e8_roots.json", ["enumerate", "--lattice", "E8m1", "--min-square", "-2"]),
    ("enumerate_box.json", ["enumerate", "--lattice", "U+A1m2", "--square", "-2", "--box", "1"]),
    ("separate.json", ["separate", "--lattice", "U+A1m2", "--v0", "1,1,0", "--v1", "3,2,2", "--squares", "-2"]),
    ("reduce.json", ["reduce", "--lattice", "U+A1m2", "--v", "3,2,2", "--base", "1,1,0", "--squares", "-2"]),
    ("facets.json", ["facets", "--lattice", "U+A1m2", "--witness", "5,3,2", "--squares", "-2",
                     "--search-bound", "24"]),
    ("flag.json", ["flag", "--lattice", "U+A1m2+A1m2", "--chain", "0,0,1,0;0,0,0,1", "--squares", "-2"]),
    ("explore_d2.json", ["explore", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                         "--depth", "2"]),
    ("explore_d1.dot", ["explore", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                        "--depth", "1", "--format", "dot"]),
    ("orbits.json", ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--reflections", "0,0,1;1,-1,0"]),
    ("kneser.json", ["kneser", "--lattice", "Z0+A1m2", "--r", "-8", "--base-reps", "0,2"]),
    ("census_d3.txt", ["census", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                       "--depth", "3", "--format", "text"]),
    ("census_d2.json", ["census", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                        "--depth", "2"]),
    # one of the three base-facet reflections only: chambers past the other two
    # facets are keyed by descent, and their rows keep new orbits
    ("census_custom.txt", ["census", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                           "--depth", "2", "--reflections", "0,0,1", "--format", "text"]),
    ("validate_catalog.txt", ["validate-catalog", "--format", "text"]),
    ("enumerate_box.txt", ["enumerate", "--lattice", "U+A1m2", "--square", "-2", "--box", "1", "--format", "text"]),
    ("separate.txt", ["separate", "--lattice", "U+A1m2", "--v0", "1,1,0", "--v1", "3,2,2", "--squares", "-2",
                      "--format", "text"]),
    ("reduce.txt", ["reduce", "--lattice", "U+A1m2", "--v", "3,2,2", "--base", "1,1,0", "--squares", "-2",
                    "--format", "text"]),
    # acceptance config B: pins the undecided line and the attached --squares=-2,-4 form
    ("facets_mixed.txt", ["facets", "--lattice", "U+A1m2+A1m2", "--witness", "5,8,-2,-1", "--squares=-2,-4",
                          "--format", "text"]),
    ("flag.txt", ["flag", "--lattice", "U+A1m2+A1m2", "--chain", "0,0,1,0;0,0,0,1", "--squares", "-2",
                  "--format", "text"]),
    ("explore_d2.txt", ["explore", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2", "--depth", "2",
                        "--format", "text"]),
    ("orbits.txt", ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--reflections", "0,0,1;1,-1,0",
                    "--format", "text"]),
    ("kneser.txt", ["kneser", "--lattice", "Z0+A1m2", "--r", "-8", "--base-reps", "0,2", "--format", "text"]),
    ("validate_catalog.json", ["validate-catalog"]),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fname,argv", GOLDEN_COMMANDS, ids=[f for f, _ in GOLDEN_COMMANDS])
def test_golden(fname, argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    path = GOLDEN_DIR / fname
    if os.environ.get("GOLDEN_REGEN"):
        path.write_text(out)
    assert path.exists(), f"golden file {fname} missing; run with GOLDEN_REGEN=1"
    assert out == path.read_text()


def _format_of(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def test_every_subcommand_format_has_a_golden():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    pairs = {(name, fmt)
             for name, sp in subparsers.choices.items()
             for a in sp._actions if a.dest == "format"
             for fmt in a.choices}
    pinned = {(argv[0], _format_of(argv)) for _, argv in GOLDEN_COMMANDS}
    assert {name for name, _ in pairs} == set(subparsers.choices)
    assert pairs - pinned == set()


def test_repeat_runs_byte_identical():
    for _, argv in GOLDEN_COMMANDS:
        c1, o1, _ = invoke(argv)
        c2, o2, _ = invoke(argv)
        assert c1 == c2 == 0
        assert o1 == o2


def test_thread_flag_does_not_change_bytes():
    for _, argv in GOLDEN_COMMANDS[:6]:
        _, o1, _ = invoke(["--threads", "1"] + argv)
        _, o4, _ = invoke(["--threads", "4"] + argv)
        assert o1 == o4


def test_json_outputs_reparse():
    for fname, argv in GOLDEN_COMMANDS:
        if not fname.endswith(".json"):
            continue
        _, out, _ = invoke(argv)
        json.loads(out)


def test_domain_error_exit_code_and_stderr():
    code, out, err = invoke(["info", "--lattice", "NO_SUCH_ENTRY"])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "CatalogError"
    assert "NO_SUCH_ENTRY" in payload["message"]


MALFORMED_INPUTS = {
    "lattice_is_directory": ["info", "--lattice", "{tmp}"],
    "lattice_bad_json": ["info", "--lattice", "{tmp}/bad.json"],
    "gram_not_a_list": ["info", "--lattice", "{tmp}/gram5.json"],
    "row_not_a_list": ["info", "--lattice", "{tmp}/row5.json"],
    "generators_missing": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--generators", "{tmp}/none.json"],
    "generators_bad_json": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--generators", "{tmp}/bad.json"],
    "generators_row_not_a_list": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--generators", "{tmp}/rowa.json"],
    "generators_matrix_not_a_list": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--generators", "{tmp}/five.json"],
    "generators_float_entry": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--generators", "{tmp}/float.json"],
    "vector_zero_denominator": ["separate", "--lattice", "U+A1m2", "--v0", "2,3,1", "--v1", "1/0,1,1", "--squares", "-2"],
    "vector_bad_fraction": ["separate", "--lattice", "U+A1m2", "--v0", "2,3,1", "--v1", "1/x,1,1", "--squares", "-2"],
    "orbits_vector_too_short": ["orbits", "--lattice", "U+A1m2", "--v", "0,0", "--reflections", "0,0,1"],
    "orbits_vector_too_long": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1,5", "--reflections", "0,0,1;1,-1,0"],
    "facets_negative_search_bound": ["facets", "--lattice", "U+A1m2", "--witness", "5,3,2", "--squares", "-2",
                                     "--search-bound", "-3"],
    "census_zero_search_bound": ["census", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                                 "--depth", "1", "--search-bound", "0"],
    "census_negative_word_budget": ["census", "--lattice", "U+A1m2", "--base", "5,3,2", "--squares", "-2",
                                    "--depth", "1", "--word-budget", "-1", "--format", "text"],
    "orbits_zero_word_budget": ["orbits", "--lattice", "U+A1m2", "--v", "0,0,1", "--reflections", "0,0,1;1,-1,0",
                                "--word-budget", "0"],
    "catalog_name_not_a_string": ["validate-catalog", "--path", "{tmp}/cat_name.json"],
    "catalog_k3n_name_without_n": ["validate-catalog", "--path", "{tmp}/cat_k3n.json"],
    "catalog_signature_not_a_list": ["validate-catalog", "--path", "{tmp}/cat_sig.json"],
    "catalog_bool_fujiki_constant": ["validate-catalog", "--path", "{tmp}/cat_fujiki.json"],
    "catalog_bool_square_bound": ["validate-catalog", "--path", "{tmp}/cat_bound.json"],
    "catalog_bool_discriminant": ["validate-catalog", "--path", "{tmp}/cat_disc.json"],
    "catalog_bool_float_signature": ["validate-catalog", "--path", "{tmp}/cat_sigtypes.json"],
}

# each catalog file holds one valid entry of U with one field replaced
CATALOG_FIELDS = {"name": {"name": 5}, "k3n": {"name": "K3nx"}, "sig": {"signature": 5},
                  "fujiki": {"fujiki_constant": True}, "bound": {"mbm_square_bound": False},
                  "disc": {"discriminant": True}, "sigtypes": {"signature": [True, 1.0]}}


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_file_is_domain_error(tmp_path, argv):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "gram5.json").write_text(json.dumps({"gram": 5}))
    (tmp_path / "row5.json").write_text(json.dumps({"gram": [5]}))
    (tmp_path / "rowa.json").write_text(json.dumps([["a"]]))
    (tmp_path / "five.json").write_text(json.dumps([5]))
    (tmp_path / "float.json").write_text(json.dumps([[[1.7, 0, 0], [0, 1, 0], [0, 0, 1]]]))
    entry = {"name": "X", "gram": [[0, 1], [1, 0]], "signature": [1, 1], "discriminant": 1}
    for name, field in CATALOG_FIELDS.items():
        (tmp_path / f"cat_{name}.json").write_text(json.dumps([{**entry, **field}]))
    code, out, err = invoke([a.format(tmp=tmp_path) for a in argv])
    assert code == 1
    assert out == ""
    assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("argv, error", [
    (["explore", "--base", "1,1,0", "--depth", "1"], "WallIncidenceError"),
    (["explore", "--base", "1,0,0", "--depth", "1"], "NonPositiveVectorError"),
    (["facets", "--witness", "1,0,0"], "NonPositiveVectorError"),
    (["census", "--base", "1,0,0", "--depth", "1"], "NonPositiveVectorError"),
], ids=["explore-on-wall", "explore-isotropic", "facets-isotropic", "census-isotropic"])
def test_wall_incidence_error_is_domain_error(argv, error):
    code, _, err = invoke(argv + ["--lattice", "U+A1m2", "--squares", "-2"])
    assert code == 1
    assert json.loads(err)["error"] == error


K3_POSITIVE = ",".join(["1", "1"] + ["0"] * 20)


@pytest.mark.parametrize("argv", [
    ["facets", "--witness", K3_POSITIVE],
    ["explore", "--base", K3_POSITIVE, "--depth", "1"],
    ["census", "--base", K3_POSITIVE, "--depth", "1"],
    ["separate", "--v0", K3_POSITIVE, "--v1", K3_POSITIVE],
], ids=["facets", "explore", "census", "separate"])
def test_wall_search_names_the_signature(argv):
    # K3 has signature (3, 19): every wall search rejects the lattice, not its form
    code, _, err = invoke(argv + ["--lattice", "K3", "--squares", "-2"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "SignatureError"
    assert "(1, m)" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["separate", "--v0", "0,1,1", "--v1", "0,2,1"],
    ["reduce", "--v", "0,2,1", "--base", "0,1,1"],
    ["facets", "--witness", "0,1,1"],
    ["explore", "--base", "0,1,1", "--depth", "1"],
    ["census", "--base", "0,1,1", "--depth", "1"],
], ids=["separate", "reduce", "facets", "explore", "census"])
def test_wall_search_rejects_a_degenerate_lattice(argv):
    # Z0+U has signature (1, 1) and a kernel: v^perp is not definite
    code, _, err = invoke(argv + ["--lattice", "Z0+U", "--squares", "-2"])
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateLatticeError"


def test_default_census_with_a_nonreflective_base_facet():
    # three of the four base facets have square -4 and no integral
    # reflection: the default generators are the one reflective facet's
    code, out, _ = invoke(["census", "--lattice", "U+A1m2+A1m2", "--base", "5,8,-2,-1", "--squares=-2,-4",
                           "--depth", "1", "--format", "text"])
    assert code == 0
    assert out.splitlines()[1:3] == ["    0      1      4           4             4",
                                     "    0      2     12          12            12"]


def test_census_max_codim_one_keeps_the_codim_one_rows():
    argv = ["census", "--lattice", "U+A1m2+A1m2", "--base", "3,4,1,1", "--squares", "-2",
            "--depth", "2", "--search-bound", "20"]
    code, full, _ = invoke(argv)
    code_1, facets_only, _ = invoke(argv + ["--max-codim", "1"])
    assert code == code_1 == 0
    rows = json.loads(facets_only)["rows"]
    assert rows == [r for r in json.loads(full)["rows"] if r["codim"] == 1]
    assert [(r["faces"], r["new_orbits"]) for r in rows] == [(5, 3), (25, 0), (70, 0)]


def test_reflection_class_is_read_as_its_ray():
    # r_(2,-2,0) = r_(1,-1,0), the integral swap of e_0 and e_1
    argv = ["orbits", "--lattice", "U+A1m2", "--v", "3,1,0", "--reflections"]
    code, out, err = invoke(argv + ["2,-2,0"])
    assert (code, err) == (0, "")
    assert out == invoke(argv + ["1,-1,0"])[1]


def test_usage_error_exit_code():
    code, _, _ = invoke(["no-such-command"])
    assert code == 2
    code, _, _ = invoke(["separate", "--lattice", "U"])  # missing required args
    assert code == 2
    code, _, _ = invoke(["--threads", "0", "info", "--lattice", "U"])
    assert code == 2


def test_enumerate_mode_conflict_is_domain_error():
    code, _, err = invoke(["enumerate", "--lattice", "U", "--min-square", "-2", "--square", "-2"])
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


def test_lattice_from_file(tmp_path):
    p = tmp_path / "lat.json"
    p.write_text(json.dumps({"name": "mine", "gram": [[0, 1], [1, 0]]}))
    code, out, _ = invoke(["info", "--lattice", str(p)])
    assert code == 0
    assert json.loads(out)["signature"] == [1, 1]


def test_catalog_env_override(tmp_path, monkeypatch):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps([{
        "name": "ONLY", "gram": [[2]], "signature": [1, 0], "discriminant": 2,
        "fujiki_constant": "unknown", "mbm_square_bound": -2, "notes": "",
    }]))
    monkeypatch.setenv("MBM_CATALOG_PATH", str(p))
    code, out, _ = invoke(["validate-catalog"])
    assert code == 0
    assert [e["name"] for e in json.loads(out)] == ["ONLY"]


def _catalog_entry(name, discriminant=2):
    return {"name": name, "gram": [[2]], "signature": [1, 0], "discriminant": discriminant,
            "fujiki_constant": "unknown", "mbm_square_bound": -2, "notes": ""}


def test_lookup_validates_only_the_named_entry(tmp_path, monkeypatch):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps([_catalog_entry("GOOD"), _catalog_entry("BAD", discriminant=7)]))
    monkeypatch.setenv("MBM_CATALOG_PATH", str(p))
    code, out, _ = invoke(["info", "--lattice", "GOOD"])
    assert code == 0
    assert json.loads(out)["discriminant"] == 2
    for argv in (["info", "--lattice", "BAD"], ["validate-catalog"]):
        code, _, err = invoke(argv)
        error = json.loads(err)
        assert code == 1 and error["error"] == "CatalogError" and "BAD" in error["message"]


def test_lookup_rejects_a_duplicated_name(tmp_path, monkeypatch):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps([_catalog_entry("GOOD"), _catalog_entry("GOOD")]))
    monkeypatch.setenv("MBM_CATALOG_PATH", str(p))
    code, _, err = invoke(["info", "--lattice", "GOOD"])
    assert code == 1
    assert json.loads(err)["error"] == "CatalogError"


def test_catalog_item_that_is_not_an_object(tmp_path, monkeypatch):
    p = tmp_path / "cat.json"
    p.write_text("[5]")
    monkeypatch.setenv("MBM_CATALOG_PATH", str(p))
    code, out, err = invoke(["validate-catalog"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "CatalogError", "message": "catalog entry 5 is not a JSON object"}


def test_generator_file_input(tmp_path):
    gens = [[[1, 0, 0], [0, 1, 0], [0, 0, -1]]]
    p = tmp_path / "gens.json"
    p.write_text(json.dumps(gens))
    code, out, _ = invoke(["orbits", "--lattice", "U+A1m2", "--v", "0,0,1",
                           "--generators", str(p)])
    assert code == 0
    assert json.loads(out)["representative"] == [0, 0, -1]


def test_rational_witness_accepted():
    code, out, _ = invoke(["separate", "--lattice", "U+A1m2", "--v0", "1,1,0",
                           "--v1", "3/2,1,1", "--squares", "-2"])
    assert code == 0
    assert json.loads(out) == [[0, 1, 1], [1, 0, 1]]
    code, out, _ = invoke(["separate", "--lattice", "U+A1m2", "--v0", "1/2,1/2,0",
                           "--v1", "3/2,1,1", "--squares", "-2"])
    assert code == 0
    assert json.loads(out) == [[0, 1, 1], [1, 0, 1]]
