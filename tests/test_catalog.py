import json

import pytest

from mbmlat import core
from mbmlat.catalog import (
    CatalogEntry,
    default_catalog_path,
    get_entry,
    load_catalog,
    resolve_lattice,
)
from mbmlat.enumeration import wall_spec, walls_containing
from mbmlat.errors import CatalogError
from mbmlat.orbits import check_square_bound_reflective


@pytest.fixture(scope="module")
def entries():
    return load_catalog()


class TestShippedCatalog:
    def test_k3_entry(self, entries):
        k3 = next(e for e in entries if e.name == "K3")
        assert k3.lattice.signature == (3, 19)
        assert k3.lattice.discriminant == 1
        assert k3.fujiki_constant == 1

    def test_k3n_discriminants(self, entries):
        for n in (2, 3, 4):
            e = next(x for x in entries if x.name == f"K3n{n}")
            assert e.lattice.rank == 23
            assert e.lattice.discriminant == 2 * (n - 1)
            assert e.lattice.signature == (3, 20)

    def test_k3n2_curve_bound_marker(self, entries):
        e = next(x for x in entries if x.name == "K3n2")
        assert e.wall_square_bound == "conjectural:-5/2"

    def test_toy_entry_recomputation(self, entries):
        e = next(x for x in entries if x.name == "U+A1m2")
        assert e.lattice.signature == (1, 2)

    def test_degenerate_entries_load(self, entries):
        z = next(x for x in entries if x.name == "Z0+A1m2")
        assert z.lattice.discriminant == 0

    def test_every_entry_metadata_matches_recomputation(self, entries):
        # the loader already recomputes; spot-check through the raw file too
        with open(default_catalog_path()) as fh:
            raw = json.load(fh)
        for item in raw:
            L = core.make_lattice(item["gram"])
            assert list(L.signature) == item["signature"], item["name"]
            assert L.discriminant == item["discriminant"], item["name"]

    def test_k3_reflective_walls_are_minus_two(self, entries):
        # delta = 1 forces |square| <= 2 for integral reflections: on the
        # even K3 lattice that means exactly -2 for negative classes
        k3 = next(e for e in entries if e.name == "K3").lattice
        import random

        rng = random.Random(73)
        found = 0
        while found < 50:
            s = [0] * 22
            for _ in range(3):
                s[rng.randrange(22)] = rng.randint(-2, 2)
            s = core.primitive_integral(tuple(s))
            d = core.square(k3, s)
            if d >= 0:
                continue
            if check_square_bound_reflective(k3, s):
                assert d == -2
                found += 1


class TestValidation:
    def _base_entry(self):
        return {
            "name": "X",
            "gram": [[0, 1], [1, 0]],
            "signature": [1, 1],
            "discriminant": 1,
            "fujiki_constant": "unknown",
            "mbm_square_bound": -2,
            "notes": "",
        }

    def _write(self, tmp_path, items):
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(items))
        return str(p)

    def test_wrong_signature_rejected(self, tmp_path):
        item = self._base_entry()
        item["signature"] = [2, 0]
        with pytest.raises(CatalogError, match="X.*signature"):
            load_catalog(self._write(tmp_path, [item]))

    def test_wrong_discriminant_rejected(self, tmp_path):
        item = self._base_entry()
        item["discriminant"] = 7
        with pytest.raises(CatalogError, match="X.*discriminant"):
            load_catalog(self._write(tmp_path, [item]))

    def test_asymmetric_gram_rejected(self, tmp_path):
        item = self._base_entry()
        item["gram"] = [[0, 2], [1, 0]]
        with pytest.raises(CatalogError, match="X"):
            load_catalog(self._write(tmp_path, [item]))

    def test_k3_named_entry_must_be_k3(self, tmp_path):
        item = self._base_entry()
        item["name"] = "K3"
        with pytest.raises(CatalogError, match="K3"):
            load_catalog(self._write(tmp_path, [item]))

    def test_k3n_entry_of_the_wrong_rank_rejected(self, tmp_path):
        item = self._base_entry()
        item["name"] = "K3n2"
        with pytest.raises(CatalogError, match="'K3n2': expected rank 23, got 2"):
            load_catalog(self._write(tmp_path, [item]))

    def test_k3n_entry_of_the_wrong_discriminant_rejected(self, tmp_path):
        # the shipped K3n2 lattice, of discriminant 2, named K3n3
        with open(default_catalog_path(), encoding="utf-8") as fh:
            item = next(e for e in json.load(fh) if e["name"] == "K3n2")
        with pytest.raises(CatalogError, match="'K3n3': expected discriminant 4, got 2"):
            load_catalog(self._write(tmp_path, [{**item, "name": "K3n3"}]))

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_catalog(str(tmp_path / "missing.json"))

    def test_file_that_is_not_a_list_rejected(self, tmp_path):
        with pytest.raises(CatalogError, match="must be a JSON list"):
            load_catalog(self._write(tmp_path, {"name": "X"}))

    def test_duplicate_names_rejected(self, tmp_path):
        item = self._base_entry()
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(self._write(tmp_path, [item, dict(item)]))

    def test_entry_that_is_not_an_object_rejected(self, tmp_path):
        with pytest.raises(CatalogError, match="entry 5 is not a JSON object"):
            load_catalog(self._write(tmp_path, [5]))

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(CatalogError, match="JSON"):
            load_catalog(str(p))

    def test_env_override(self, tmp_path, monkeypatch):
        path = self._write(tmp_path, [self._base_entry()])
        monkeypatch.setenv("MBM_CATALOG_PATH", path)
        entries = load_catalog()
        assert [e.name for e in entries] == ["X"]

    def test_get_entry_missing(self):
        with pytest.raises(CatalogError, match="NOPE"):
            get_entry("NOPE")

    def test_resolve_lattice_from_file(self, tmp_path):
        p = tmp_path / "lat.json"
        p.write_text(json.dumps({"name": "mine", "gram": [[2]]}))
        L = resolve_lattice(str(p))
        assert L.name == "mine"
        assert L.signature == (1, 0)
