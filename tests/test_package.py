"""The package surface and what a process loads to reach it.

Package names load on first use and the CLI loads only what its command
runs, so these tests pin the 52 public names and their owners, and the
modules that `import domchrom.cli` and the common commands leave out.
"""

import dataclasses
import importlib
import json
import pickle
import subprocess
import sys

import pytest

import domchrom
from domchrom import (
    BaseGraph,
    Coloring,
    ConstructiveWitness,
    DominationMode,
    FamilySpec,
    GapReport,
    OrientationGapReport,
    SolveOutcome,
    SweepReport,
    Verdict,
    Violation,
    cycle_base,
    directed_path,
    dominator_chromatic_number,
    dominator_gap,
    family_witness,
    orientation_gap,
    path_base,
    sweep,
)
from domchrom import cli
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
        "verify",
    ],
    "families": [
        "ConstructiveWitness",
        "FAMILY_KINDS",
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
    ],
    "graphs": [
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
    ],
    "invariants": [
        "GapReport",
        "OrientationGapReport",
        "dominator_discrepancy",
        "dominator_gap",
        "is_subdigraph",
        "orientation_gap",
        "table_gap_cycle",
        "table_gap_path",
    ],
    "solver": [
        "GuardExceeded",
        "SolveOutcome",
        "chromatic_number",
        "dominator_chromatic_number",
        "dominator_chromatic_number_oracle",
        "find_dominator_coloring",
        "sweep",
    ],
    "sweeping": [
        "SweepReport",
        "max_over_orientations",
        "min_over_orientations",
    ],
}

# what solve and verify never need: the five other commands and the
# sweep engine are among them
DEFERRED = (
    "concurrent.futures",
    "multiprocessing",
    "domchrom._commands",
    "domchrom.families",
    "domchrom.invariants",
    "domchrom.sweeping",
    "dataclasses",
    "inspect",
)


def _in_fresh_process(code: str):
    """Run code in a new interpreter; the JSON value it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_is_frozen():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 52
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


@pytest.mark.parametrize(
    "name",
    [
        "Embedding",
        "OrientationCode",
        "base_graph",
        "cycle_symmetry_classes",
        "dominated_classes",
        "family_digraph",
        "identity_embedding",
        "is_proper",
        "make_digraph",
        "out_neighbors",
        "reverse",
    ],
)
def test_removed_names_are_not_package_names(name):
    assert name not in domchrom.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(domchrom, name)


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
        # a 4-cycle solves each code, the per-code sweep path, and reads
        # its closed-form minimum from families
        ["sweep", "cycle", "--n", "4", "--workers", "2", "--json"],
    ]
    report = _in_fresh_process(
        "import contextlib, io, json, sys\n"
        "import domchrom.cli\n"
        f"deferred = {DEFERRED!r}\n"
        "def loaded(): return [m for m in deferred if m in sys.modules]\n"
        "def mine(): return sorted(m for m in sys.modules if m.startswith('domchrom'))\n"
        "report = [[None, loaded(), mine()]]\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = domchrom.cli.run(argv)\n"
        "    report.append([code, loaded(), mine()])\n"
        "print(json.dumps(report))\n"
    )
    commands_and_engine = ["domchrom._commands", "domchrom.sweeping"]
    assert [step[:2] for step in report] == [
        [None, []],
        [0, []],
        [0, []],
        [0, commands_and_engine],
        [0, ["domchrom._commands", "domchrom.families", "domchrom.sweeping"]],
    ]
    # solve and verify load no domchrom module past those the import loads
    imported = report[0][2]
    assert "domchrom.solver" in imported
    assert report[1][2] == report[2][2] == imported


def test_only_a_sweep_loads_the_automaton_and_nothing_loads_its_builder(tmp_path):
    d = Digraph(3, [(0, 1), (1, 2)])
    dpath = tmp_path / "d.txt"
    dpath.write_text(emit_digraph(d))
    cpath = tmp_path / "c.txt"
    cpath.write_text(emit_coloring(domchrom.dominator_chromatic_number(d).witness))
    calls = [
        ["solve", str(dpath), "--json"],
        ["verify", str(dpath), str(cpath), "--json"],
        ["sweep", "cycle", "--n", "8", "--json"],
    ]
    engine = ["domchrom._automaton_tables", "domchrom.automaton"]
    report = _in_fresh_process(
        "import contextlib, io, json, sys\n"
        "import domchrom.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if 'automaton' in m)\n"
        "report = [[None, loaded()]]\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = domchrom.cli.run(argv)\n"
        "    report.append([code, loaded()])\n"
        "print(json.dumps(report))\n"
    )
    assert report == [[None, []], [0, []], [0, []], [0, engine]]


@pytest.mark.parametrize("argv", [["formulas", "path", "--n", "4"], ["-h"]])
def test_module_entry_loads_one_cli(argv, capsys, monkeypatch):
    # argparse wraps help to COLUMNS, here and in the fresh process
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    # run_module with alter_sys runs domchrom.cli as python -m does
    ran = _in_fresh_process(
        "import contextlib, io, json, runpy, sys\n"
        f"sys.argv = ['domchrom', *{argv!r}]\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    try:\n"
        "        runpy.run_module('domchrom.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "module = sys.modules['domchrom.cli']\n"
        "bound = sys.modules['domchrom._commands'].cli is module\n"
        "print(json.dumps([code, out.getvalue(), module.__name__, bound]))\n"
    )
    # _commands imported the module that ran, not a second copy of it
    assert ran == [0, expected, "__main__", True]


# per value type: a builder of one value, called twice for two equal
# values, and a value that differs in a field
RECORDS = {
    BaseGraph: (lambda: path_base(3), cycle_base(3)),
    Digraph: (lambda: Digraph(3, [(0, 1), (1, 2)]), Digraph(3, [(1, 0), (1, 2)])),
    Coloring: (lambda: Coloring([0, 1, 0], 2), Coloring([0, 1, 1], 2)),
    Violation: (lambda: Violation("properness", arc=(0, 1)), Violation("domination", vertex=0)),
    Verdict: (lambda: Verdict(False, (Violation("domination", vertex=2),)), Verdict(True, ())),
    SolveOutcome: (
        lambda: dominator_chromatic_number(directed_path(3)),
        dominator_chromatic_number(directed_path(3), DominationMode.STRICT),
    ),
    SweepReport: (lambda: sweep(path_base(3)), sweep(cycle_base(3))),
    FamilySpec: (lambda: FamilySpec("path", (4,)), FamilySpec("path", (5,))),
    ConstructiveWitness: (
        lambda: family_witness(FamilySpec("cycle", (7,))),
        family_witness(FamilySpec("cycle", (8,))),
    ),
    GapReport: (lambda: dominator_gap(directed_path(3)), GapReport(3, 2, 0)),
    OrientationGapReport: (lambda: orientation_gap(path_base(4)), orientation_gap(cycle_base(4))),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_value_types_are_frozen_records(kind):
    build, other = RECORDS[kind]
    a, b = build(), build()
    assert type(a) is kind and a is not b
    assert a == b and not a != b
    assert a != other
    names = [f.name for f in dataclasses.fields(kind)]
    assert a != tuple(getattr(a, name) for name in names)
    assert all(a != value for value in (RECORDS[k][1] for k in RECORDS if k is not kind))
    # equality holds only within one class, a subclass included
    twin = object.__new__(type("Twin", (kind,), {}))
    twin.__dict__.update(a.__dict__)
    assert twin != a and a != twin
    if any(isinstance(getattr(a, name), dict) for name in names):
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(other, names[0]))
    with pytest.raises(AttributeError):
        delattr(a, names[-1])
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == f"{kind.__name__}(" + ", ".join(
        f"{name}={getattr(a, name)!r}" for name in names
    ) + ")"
    assert dataclasses.replace(a) == a
    assert dataclasses.asdict(a).keys() == set(names)


def test_sweep_reports_ignore_kernel_solves():
    rep = sweep(path_base(4))
    assert dataclasses.replace(rep, kernel_solves=7) == rep
    # with its one unhashable field blanked, a report hashes
    blank = dataclasses.replace(rep, distribution=None)
    assert hash(dataclasses.replace(blank, kernel_solves=7)) == hash(blank)
    assert dataclasses.replace(rep, min_value=1) != rep


def test_generic_records_bind_by_position_by_name_and_mixed():
    outcome = dominator_chromatic_number(directed_path(3))
    values = [getattr(outcome, name) for name in SolveOutcome._fields]
    by_name = dict(zip(SolveOutcome._fields, values))
    mixed = SolveOutcome(*values[:2], mode=values[3], nodes_explored=values[2])
    assert SolveOutcome(*values) == SolveOutcome(**by_name) == mixed == outcome
    gap = GapReport(gap=1, chromatic_value=2, dominator_value=3)
    assert gap == GapReport(3, 2, 1) == GapReport(3, gap=1, chromatic_value=2)
    assert repr(gap) == "GapReport(dominator_value=3, chromatic_value=2, gap=1)"
    assert list(vars(gap)) == list(GapReport._fields)


def test_generic_records_take_their_class_body_defaults():
    assert Violation("domination", vertex=2) == Violation("domination", None, 2)
    bare = Violation("properness")
    assert (bare.arc, bare.vertex) == (None, None)
    rep = sweep(path_base(3))
    fields = {name: getattr(rep, name) for name in SweepReport._fields}
    del fields["kernel_solves"]
    assert SweepReport(**fields).kernel_solves == 0
    assert SweepReport(*fields.values()).kernel_solves == 0
    assert SweepReport(*fields.values()) == rep


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GapReport(3, 2), "GapReport() missing field 'gap'"),
        (lambda: Violation(arc=(0, 1)), "Violation() missing field 'kind'"),
        (lambda: GapReport(3, 2, 1, 0), "GapReport() takes 3 fields, got 4 positionally"),
        (lambda: Verdict(True, (), extra=1), "Verdict() got an unexpected field 'extra'"),
        (lambda: Verdict(True, ok=False), "Verdict() got multiple values for field 'ok'"),
    ],
    ids=["missing", "missing-first", "extra-positional", "unknown-name", "repeated"],
)
def test_generic_records_reject_bad_arguments(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_a_sweep_report_needs_its_code_lists():
    rep = sweep(path_base(3))
    # the report walks its lists on first read, so none sit in its dict
    assert "argmin_codes" not in vars(rep) and "argmax_codes" not in vars(rep)
    fields = {name: getattr(rep, name) for name in SweepReport._fields}
    for name in ("argmin_codes", "argmax_codes"):
        partial = dict(fields)
        del partial[name]
        with pytest.raises(TypeError) as info:
            SweepReport(**partial)
        assert str(info.value) == f"SweepReport() missing field {name!r}"


def test_a_record_subclass_adds_fields_and_keeps_the_base_defaults():
    class Tagged(Violation):
        tag: str = "t"
        note: str

    assert Tagged._fields == ("kind", "arc", "vertex", "tag", "note")
    tagged = Tagged("domination", note="n", vertex=4)
    assert vars(tagged) == {"kind": "domination", "arc": None, "vertex": 4, "tag": "t", "note": "n"}
    assert tagged == Tagged("domination", None, 4, "t", "n") != Tagged("domination", note="m")
    with pytest.raises(TypeError, match="missing field 'note'"):
        Tagged("domination")
    # the base keeps its own fields and defaults
    assert Violation("domination") == Violation("domination", None, None)
    with pytest.raises(TypeError, match="unexpected field 'tag'"):
        Violation("domination", tag="t")
