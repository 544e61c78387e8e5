"""Exact dominator colorings of directed graphs.

A dominator coloring is a proper coloring of the underlying graph in
which every vertex that has out-neighbors dominates some color class
entirely contained in its out-neighborhood.  This package verifies
such colorings, computes the exact minimum number of classes for
digraphs on up to 64 vertices, sweeps every orientation of a small
base graph for the extremes, and builds the classic families (paths,
cycles, stars, tournaments, one-way bipartite, hub-augmented cycles)
together with certified optimal colorings where closed forms exist.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package.  A name, or a
# submodule, is imported on first use, so a process loads only what it
# reaches: `domchrom solve` never loads families or invariants.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "coloring": (
        "Coloring",
        "DominationMode",
        "Verdict",
        "Violation",
        "canonicalize",
        "verify",
    ),
    "families": (
        "FAMILY_KINDS",
        "ConstructiveWitness",
        "FamilySpec",
        "cycle_min_formula",
        "cycle_optimal",
        "directed_cycle",
        "directed_path",
        "family_witness",
        "fig3_digraph",
        "fig4_digraph",
        "one_way_complete_bipartite",
        "path_min_formula",
        "path_optimal",
        "star_optimal",
        "star_oriented",
        "tilde_cycle",
        "tilde_cycle_optimal",
        "tournament",
    ),
    "graphs": (
        "BaseGraph",
        "Digraph",
        "code_of",
        "cycle_base",
        "is_connected",
        "orient",
        "out_degree_sequence",
        "path_base",
        "star_base",
        "underlying",
    ),
    "invariants": (
        "GapReport",
        "OrientationGapReport",
        "dominator_discrepancy",
        "dominator_gap",
        "is_subdigraph",
        "orientation_gap",
        "table_gap_cycle",
        "table_gap_path",
    ),
    "solver": (
        "GuardExceeded",
        "SolveOutcome",
        "chromatic_number",
        "dominator_chromatic_number",
        "dominator_chromatic_number_oracle",
        "find_dominator_coloring",
        "sweep",
    ),
    "sweeping": (
        "SweepReport",
        "max_over_orientations",
        "min_over_orientations",
    ),
    "automaton": (),
    "bench": (),
    "cli": (),
    "formats": (),
    "kernel": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
