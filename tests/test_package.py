"""The package surface and what a process loads to reach it.

Package names load on first use and the CLI loads only what its command
runs, so these tests pin the 62 public names and their owners, and the
modules that `import domchrom.cli` and the common commands leave out.
"""

import importlib
import json
import subprocess
import sys

import pytest

import domchrom
from domchrom.formats import emit_coloring, emit_digraph
from domchrom.graphs import Digraph

# submodule -> the public names the package takes from it
PUBLIC = {
    "coloring": [
        "Coloring",
        "DominationMode",
        "Verdict",
        "Violation",
        "canonicalize",
        "dominated_classes",
        "is_proper",
        "verify",
    ],
    "families": [
        "ConstructiveWitness",
        "FAMILY_KINDS",
        "FamilySpec",
        "base_graph",
        "cycle_min_formula",
        "cycle_optimal",
        "directed_cycle",
        "directed_path",
        "family_digraph",
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
    ],
    "graphs": [
        "BaseGraph",
        "Digraph",
        "OrientationCode",
        "code_of",
        "cycle_base",
        "cycle_symmetry_classes",
        "is_connected",
        "make_digraph",
        "orient",
        "out_degree_sequence",
        "out_neighbors",
        "path_base",
        "reverse",
        "underlying",
    ],
    "invariants": [
        "Embedding",
        "GapReport",
        "OrientationGapReport",
        "dominator_discrepancy",
        "dominator_gap",
        "identity_embedding",
        "is_subdigraph",
        "orientation_gap",
        "table_gap_cycle",
        "table_gap_path",
    ],
    "solver": [
        "GuardExceeded",
        "SolveOutcome",
        "SweepReport",
        "chromatic_number",
        "dominator_chromatic_number",
        "dominator_chromatic_number_oracle",
        "find_dominator_coloring",
        "max_over_orientations",
        "min_over_orientations",
        "sweep",
    ],
}

# what the common commands never need
DEFERRED = ("concurrent.futures", "multiprocessing", "domchrom.families", "domchrom.invariants")


def _in_fresh_process(code: str):
    """Run code in a new interpreter; the JSON value it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_is_frozen():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 62
    assert domchrom.__all__ == names


def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"domchrom.{module}")
        for name in names:
            scope = {}
            exec(f"from domchrom import {name}", scope)
            assert scope[name] is getattr(owner, name), name
            assert getattr(domchrom, name) is getattr(owner, name), name


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(domchrom.__all__) <= set(dir(domchrom))
    assert "__version__" in dir(domchrom)
    with pytest.raises(AttributeError, match="no_such_name"):
        domchrom.no_such_name
    assert not hasattr(domchrom, "no_such_name")
    with pytest.raises(ImportError):
        exec("from domchrom import no_such_name", {})


def test_names_and_submodules_load_on_first_use():
    loaded = _in_fresh_process(
        "import json, sys\n"
        "import domchrom\n"
        "def mine(): return sorted(m for m in sys.modules if m.startswith('domchrom.'))\n"
        "steps = [mine()]\n"
        "domchrom.Coloring\n"
        "steps.append(mine())\n"
        "domchrom.invariants.dominator_gap\n"
        "steps.append(mine())\n"
        "print(json.dumps(steps))\n"
    )
    assert loaded[0] == []
    assert loaded[1] == ["domchrom.coloring", "domchrom.graphs"]
    # a submodule is an attribute without an explicit import
    assert "domchrom.invariants" in loaded[2]
    assert "domchrom.families" not in loaded[2]


def test_cli_import_and_common_commands_skip_the_pool_families_and_invariants(tmp_path):
    d = Digraph(3, [(0, 1), (1, 2)])
    dpath = tmp_path / "d.txt"
    dpath.write_text(emit_digraph(d))
    cpath = tmp_path / "c.txt"
    cpath.write_text(emit_coloring(domchrom.dominator_chromatic_number(d).witness))
    calls = [
        ["solve", str(dpath), "--json"],
        ["verify", str(dpath), str(cpath), "--json"],
        ["sweep", "star", "--n", "16", "--workers", "2", "--json"],
    ]
    report = _in_fresh_process(
        "import contextlib, io, json, sys\n"
        "import domchrom.cli\n"
        f"deferred = {DEFERRED!r}\n"
        "def loaded(): return [m for m in deferred if m in sys.modules]\n"
        "report = [[None, loaded()]]\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = domchrom.cli.run(argv)\n"
        "    report.append([code, loaded()])\n"
        "print(json.dumps(report))\n"
    )
    assert report == [[None, []], [0, []], [0, []], [0, []]]
