"""Exact wall-and-chamber geometry over integral quadratic lattices.

The package models the second-cohomology lattice of a hyperkaehler
manifold with its intersection form and implements the constructive
machinery around it: walls of prescribed negative square, chamber
decompositions of the positive cone, reflection-word reduction,
oriented-flag encodings of faces with bounded-square projections,
degenerate-kernel orbit representatives, and desk-scale face-orbit
censuses.

The names imported here, with the methods of the classes among them,
are the public API.  Everything else in the package needs a caller in
the package or the benchmark; ``tests/test_layering.py`` checks this.
"""

from .catalog import CatalogEntry, get_entry, load_catalog, resolve_lattice
from .chambers import (
    Chamber,
    Face,
    FacetResult,
    Flag,
    FlagEntry,
    ReductionResult,
    TessellationGraph,
    chamber_at,
    encode_flag,
    explore_tessellation,
    facet_walls,
    reduce_to_base,
    same_chamber,
)
from .core import (
    Lattice,
    direct_sum,
    homology_image,
    is_positive,
    lattice_from_dict,
    make_lattice,
    pairing,
    reflect_vector,
    square,
)
from .enumeration import (
    Wall,
    WallSpec,
    definite_short_vectors,
    is_reflective,
    separating_walls,
    vectors_of_square,
    wall_spec,
    walls_containing,
    walls_near,
)
from .orbits import (
    CensusTable,
    DegenerateSplit,
    Isometry,
    OrbitRepResult,
    canonical_orbit_rep,
    check_square_bound_reflective,
    degenerate_split,
    face_orbit_census,
    facet_reflection_generators,
    isometry,
    kneser_degenerate_reps,
    reflection,
)

__version__ = "0.1.0"
