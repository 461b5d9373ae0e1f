"""Shipped lattice data for the named deformation types and toy models.

An entry is validated when it is loaded: the recorded signature and
discriminant must equal exact recomputation, and the named entries carry
extra invariants (K3 has signature (3,19) and discriminant 1; the
K3n<n> entries have rank 23 and discriminant 2(n-1)).  A lookup by name
loads only its own entry, so a malformed other entry does not stop it.
The Fujiki constant and the wall-square bound are metadata only -- no
operation derives them.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .core import Lattice, lattice_from_dict, make_lattice
from .errors import CatalogError, ValidationError

ENV_CATALOG_PATH = "MBM_CATALOG_PATH"


class CatalogEntry(NamedTuple):
    name: str
    lattice: Lattice
    fujiki_constant: int | str      # positive integer or "unknown"
    wall_square_bound: int | str    # integer or "conjectural:<value>"


def _validate_entry(raw) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry {raw!r} is not a JSON object")
    name = raw.get("name")
    if not name:
        raise CatalogError("catalog entry without a name")
    try:
        lattice = make_lattice(raw["gram"], name=name)
    except (ValidationError, KeyError) as exc:
        raise CatalogError(f"entry {name!r}: invalid gram matrix ({exc})") from exc
    recorded_sig = tuple(raw.get("signature", ()))
    if recorded_sig != lattice.signature:
        raise CatalogError(
            f"entry {name!r}: recorded signature {recorded_sig} != recomputed {lattice.signature}"
        )
    recorded_disc = raw.get("discriminant")
    if recorded_disc != lattice.discriminant:
        raise CatalogError(
            f"entry {name!r}: recorded discriminant {recorded_disc} != recomputed {lattice.discriminant}"
        )
    fujiki = raw.get("fujiki_constant", "unknown")
    if not (fujiki == "unknown" or (isinstance(fujiki, int) and fujiki > 0)):
        raise CatalogError(f"entry {name!r}: fujiki_constant must be a positive integer or 'unknown'")
    bound = raw.get("mbm_square_bound", "conjectural:unknown")
    if not (isinstance(bound, int) or (isinstance(bound, str) and bound.startswith("conjectural:"))):
        raise CatalogError(f"entry {name!r}: mbm_square_bound must be an int or 'conjectural:<value>'")
    if name == "K3":
        if lattice.signature != (3, 19) or lattice.discriminant != 1:
            raise CatalogError(
                f"entry 'K3': expected signature (3,19) and discriminant 1, "
                f"got {lattice.signature}, {lattice.discriminant}"
            )
    if name.startswith("K3n"):
        n = int(name[3:])
        if lattice.rank != 23:
            raise CatalogError(f"entry {name!r}: expected rank 23, got {lattice.rank}")
        if lattice.discriminant != 2 * (n - 1):
            raise CatalogError(
                f"entry {name!r}: expected discriminant {2 * (n - 1)}, got {lattice.discriminant}"
            )
    return CatalogEntry(
        name=name,
        lattice=lattice,
        fujiki_constant=fujiki,
        wall_square_bound=bound,
    )


def default_catalog_path() -> str:
    override = os.environ.get(ENV_CATALOG_PATH)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data", "catalog.json")


def _read_catalog(path: str | None) -> list:
    """The catalog file's raw entry list, unvalidated."""
    target = path or default_catalog_path()
    try:
        with open(target, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {target!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {target!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogError(f"catalog {target!r} must be a JSON list of entries")
    return raw


def load_catalog(path: str | None = None) -> list[CatalogEntry]:
    """Load and validate all entries; any violation names entry and invariant."""
    entries = [_validate_entry(item) for item in _read_catalog(path)]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise CatalogError("catalog contains duplicate entry names")
    return entries


def get_entry(name: str, path: str | None = None) -> CatalogEntry:
    """The entry named ``name``, validated; no other entry is."""
    matches = [item for item in _read_catalog(path) if isinstance(item, dict) and item.get("name") == name]
    if len(matches) != 1:
        raise CatalogError(f"need exactly one catalog entry named {name!r}, found {len(matches)}")
    return _validate_entry(matches[0])


def read_json_file(path: str, what: str):
    """Parse a user-supplied JSON file; unreadable or malformed files raise
    ValidationError naming ``what`` the file was meant to hold."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc


def resolve_lattice(source: str) -> Lattice:
    """Map a CLI lattice source to a Lattice: catalog name or JSON file."""
    if os.path.exists(source):
        return lattice_from_dict(read_json_file(source, "lattice"))
    return get_entry(name=source).lattice
