"""Exercises the CLI through run(), checking outputs and exit codes.

Exit code contract: 0 success, 1 semantic failure, 2 usage or parse
error, 3 guard exceeded.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domchrom import (
    Coloring,
    automaton,
    cli,
    directed_path,
    families,
    kernel,
    dominator_chromatic_number,
    orient,
    path_base,
    solver,
    star_oriented,
)
from domchrom.graphs import BaseGraph, cycle_base, star_base
from domchrom.cli import run
from domchrom.formats import emit_base, emit_coloring, emit_digraph, parse_coloring, parse_digraph


@pytest.fixture
def dpath3(tmp_path):
    p = tmp_path / "dpath3.txt"
    p.write_text(emit_digraph(directed_path(3)))
    return str(p)


def test_solve_text(dpath3, capsys):
    assert run(["solve", dpath3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value: 3\n")
    assert "witness: " in out


def test_solve_json_envelope(dpath3, capsys):
    assert run(["solve", dpath3, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "solve"
    assert payload["inputs"]["digraph"] == dpath3
    out = payload["outputs"]
    assert out["value"] == 3
    assert sorted(out["witness"]) == [0, 1, 2]
    assert out["mode"] == "sink-exempt"
    assert out["nodes_explored"] > 0
    assert isinstance(out["elapsed_ms"], int)


def test_solve_infeasible_is_not_an_error(tmp_path, capsys):
    p = tmp_path / "sinks.txt"
    p.write_text(emit_digraph(star_oriented(2, 0)))
    assert run(["solve", str(p), "--mode", "strict"]) == 0
    assert capsys.readouterr().out == "value: infeasible\n"
    assert run(["solve", str(p), "--mode", "strict", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["value"] is None
    assert payload["outputs"]["witness"] is None


def test_verify_ok(dpath3, tmp_path, capsys):
    c = tmp_path / "good.txt"
    c.write_text(emit_coloring(Coloring([0, 1, 2], 3)))
    assert run(["verify", dpath3, str(c)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_failure_lists_violations(dpath3, tmp_path, capsys):
    c = tmp_path / "bad.txt"
    c.write_text(emit_coloring(Coloring([0, 0, 1], 2)))
    assert run(["verify", dpath3, str(c)]) == 1
    out = capsys.readouterr().out
    assert "improper arc 0 1" in out
    assert "dominates no class" in out


def test_verify_json_reports_violation_kinds(dpath3, tmp_path, capsys):
    c = tmp_path / "bad.txt"
    c.write_text(emit_coloring(Coloring([0, 0, 1], 2)))
    assert run(["verify", dpath3, str(c), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["ok"] is False
    kinds = {v["kind"] for v in payload["outputs"]["violations"]}
    assert kinds == {"properness", "domination"}


def test_verify_size_mismatch_is_usage_error(dpath3, tmp_path, capsys):
    c = tmp_path / "short.txt"
    c.write_text(emit_coloring(Coloring([0, 1], 2)))
    assert run(["verify", dpath3, str(c)]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_code_and_message(tmp_path, capsys):
    p = tmp_path / "digon.txt"
    p.write_text("digraph 3\n0 1\n1 0\n")
    assert run(["solve", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "digon" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["sweep", "path"]) == 2  # no size given
    assert run(["sweep", "path", "--n", "4", "--n-min", "3", "--n-max", "5"]) == 2
    assert run(["sweep", "path", "--n-min", "5", "--n-max", "3"]) == 2
    assert run(["sweep", "star", "--n", "4", "--workers", "0"]) == 2
    assert run(["sweep", "star", "--n", "0"]) == 2
    argv = ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "2", "--n-max", "4"]
    assert run(argv) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_subcommand_and_top_level_usage(dpath3, capsys):
    # a named subcommand parses its own arguments; the rest go to the top
    assert run(["solve", dpath3, "--bogus"]) == 2
    err = capsys.readouterr().err
    assert "usage: domchrom solve" in err
    assert "unrecognized arguments: --bogus" in err
    assert run(["-h"]) == 0
    assert "usage: domchrom" in capsys.readouterr().out
    assert run(["solve", "-h"]) == 0
    assert "usage: domchrom solve" in capsys.readouterr().out


# per command: argument lists that parse, then ones that do not
_PARSES = {
    "solve": [["d.txt"], ["d.txt", "--mode", "strict", "--json"]],
    "verify": [["d.txt", "c.txt", "--json"]],
    "sweep": [["star", "--n", "4", "--workers", "2", "--csv"]],
    "family": [["path", "5"], ["fig4", "--emit-digraph"]],
    "formulas": [["cycle", "--n-min", "3", "--n-max", "6"]],
    "invariants": [[], ["--base", "b.txt", "--star"]],
    "mine-discrepancy": [["--family", "tilde-cycle", "--n", "5", "--csv"]],
}
_FAILS = [
    [],
    ["--bogus"],
    ["a", "b", "c", "d"],
    ["x", "--mode", "nope"],
    ["x", "--n", "four"],
    ["--family", "ring"],
    ["--json", "--json", "--help"],
]


def _parse(parser, argv, capsys):
    try:
        parsed = vars(parser.parse_args(argv))
        code = None
    except SystemExit as exc:
        parsed, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, parsed


def test_lazy_command_parsers_match_the_full_parser(capsys):
    (commands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(commands) == list(cli._COMMANDS) == list(_PARSES)
    for name, full in commands.items():
        lazy = cli._command_parser(name)
        for argv in [["-h"], ["--help"], *_PARSES[name], *_FAILS]:
            expected = _parse(full, argv, capsys)
            assert _parse(lazy, argv, capsys) == expected, (name, argv)
            # run maps a help exit to 0 and any other exit to 2
            if expected[0] is not None:
                assert run([name, *argv]) == (0 if expected[0] == 0 else 2), (name, argv)
                assert capsys.readouterr() == expected[1:3], (name, argv)
        assert lazy.format_help() == full.format_help()
        assert lazy.format_usage() == full.format_usage()


_HELP = (["-h", "--help"], "help", 0, argparse.SUPPRESS, None, False)
_MODE = (["--mode"], "mode", None, "sink-exempt", ["sink-exempt", "strict"], False)
_RANGE = [
    (["--n"], "n", None, None, None, False),
    (["--n-min"], "n_min", None, None, None, False),
    (["--n-max"], "n_max", None, None, None, False),
]
_JSON = (["--json"], "json", 0, False, None, False)
_CSV = (["--csv"], "csv", 0, False, None, False)
# per command: (option_strings, dest, nargs, default, choices, required)
# of each action of its parser, in order
_DECLARED = {
    "solve": [_HELP, ([], "digraph", None, None, None, True), _MODE, _JSON],
    "verify": [
        _HELP,
        ([], "digraph", None, None, None, True),
        ([], "coloring", None, None, None, True),
        _MODE,
        _JSON,
    ],
    "sweep": [
        _HELP,
        ([], "base", None, None, ["path", "cycle", "star"], True),
        *_RANGE,
        _MODE,
        (["--workers"], "workers", None, 1, None, False),
        _JSON,
        _CSV,
    ],
    "family": [
        _HELP,
        ([], "kind", None, None, list(families.FAMILY_KINDS), True),
        ([], "params", "*", None, None, True),
        (["--emit-digraph"], "emit_digraph", 0, False, None, False),
        (["--emit-witness"], "emit_witness", 0, False, None, False),
        (["--directed"], "directed", 0, False, None, False),
        _JSON,
    ],
    "formulas": [_HELP, ([], "base", None, None, ["path", "cycle"], True), *_RANGE, _JSON, _CSV],
    "invariants": [
        _HELP,
        ([], "digraph", "?", None, None, False),
        (["--base"], "base", None, None, None, False),
        (["--star"], "star", 0, False, None, False),
        _MODE,
        _JSON,
    ],
    "mine-discrepancy": [
        _HELP,
        (["--family"], "family", None, None, ["tilde-cycle"], True),
        *_RANGE,
        _MODE,
        _JSON,
        _CSV,
    ],
}


def test_each_command_declares_its_arguments():
    # the full and the lazy parsers are built by the same declarations,
    # so comparing them sees no change made there; this pins what they add
    assert list(_DECLARED) == list(cli._COMMANDS)
    for name, expected in _DECLARED.items():
        got = [
            (a.option_strings, a.dest, a.nargs, a.default, a.choices, a.required)
            for a in cli._command_parser(name)._actions
        ]
        assert got == expected, name


def test_json_envelope_is_one_line_and_names_the_backend(dpath3, tmp_path, capsys):
    c = tmp_path / "good.txt"
    c.write_text(emit_coloring(Coloring([0, 1, 2], 3)))
    b = tmp_path / "base.txt"
    b.write_text(emit_base(path_base(4)))
    for argv in (
        ["solve", dpath3, "--json"],
        ["verify", dpath3, str(c), "--json"],
        ["sweep", "path", "--n", "4", "--json"],
        ["family", "cycle", "5", "--json"],
        ["formulas", "cycle", "--n-min", "3", "--n-max", "5", "--json"],
        ["invariants", dpath3, "--json"],
        ["invariants", "--base", str(b), "--star", "--json"],
        ["mine-discrepancy", "--family", "tilde-cycle", "--n", "5", "--json"],
    ):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1, argv
        payload = json.loads(out)
        assert payload["command"] == argv[0]
        assert payload["backend"] == kernel.backend_name


def test_run_reuses_one_parser_without_leaking_state(dpath3, monkeypatch, capsys):
    calls = [
        ["solve", dpath3, "--json"],
        ["formulas", "path", "--n", "4"],
        ["solve", dpath3],
        ["solve", dpath3, "--mode", "lenient"],
        ["formulas", "path", "--n", "5", "--json"],
        ["solve", dpath3, "--mode", "strict"],
    ]

    def outcome(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        if "--json" in argv:
            out = json.loads(out)
            out["outputs"].pop("elapsed_ms", None)
        return code, out, err

    built = []
    for name, (help_line, handler, add_arguments, table) in list(cli._COMMANDS.items()):

        def counted(p, name=name, add_arguments=add_arguments):
            built.append(name)
            add_arguments(p)

        monkeypatch.setitem(cli._COMMANDS, name, (help_line, handler, counted, table))
    cli._command_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    # each command's parser is built once, on its first call
    assert built == ["solve", "formulas"]
    fresh = []
    for argv in calls:
        cli._command_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._command_parser.cache_clear()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0]
    assert shared[2][1].startswith("value: 3\n")
    # importing the CLI builds no parser; the first run does
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import domchrom.cli as c; print(c._command_parser.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0\n", proc.stderr


def test_sweep_text_line(capsys):
    assert run(["sweep", "path", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n=6 min=3 max=6 formula=3 match=true orientations=32 infeasible=0\n"
    )


def test_sweep_star_base(capsys):
    assert run(["sweep", "star", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "n=3 min=2 max=3 formula=2 match=true orientations=8 infeasible=0\n"


def test_sweep_csv(capsys):
    assert run(["sweep", "cycle", "--n-min", "4", "--n-max", "6", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n,min,max,formula,matches_formula,orientations,infeasible\n"
        "4,2,4,2,true,16,0\n"
        "5,3,5,3,true,32,0\n"
        "6,3,6,3,true,64,0\n"
    )


def test_sweep_json_rows(capsys):
    assert run(["sweep", "path", "--n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "sweep"
    (row,) = payload["outputs"]["rows"]
    assert row["n"] == 4
    assert row["min_value"] == 3
    assert row["max_value"] == 4
    assert row["matches_formula"] is True
    assert all(len(code) == 3 for code in row["argmin_codes"])
    assert all(set(code) <= {"0", "1"} for code in row["argmin_codes"])
    assert all(isinstance(k, str) for k in row["distribution"])
    assert sum(row["distribution"].values()) == 8
    assert row["kernel_solves"] == 0
    # a path sweeps through its automaton and solves no orientation
    assert run(["sweep", "path", "--n", "9", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert row["kernel_solves"] == 0


# each kind's range starts at sizes that solve every code (the 1-vertex
# path, the 3- and 4-cycle) and runs well into the automaton's
RANGE_SWEEPS = {"path": (1, 100), "cycle": (3, 100), "star": (1, 100)}


@pytest.mark.parametrize("mode", ["sink-exempt", "strict"])
@pytest.mark.parametrize("kind", RANGE_SWEEPS)
def test_a_range_sweep_prints_the_rows_of_single_size_sweeps(kind, mode, capsys):
    lo, hi = RANGE_SWEEPS[kind]

    def out(sizes, *flags):
        assert run(["sweep", kind, "--mode", mode, *sizes, *flags]) == 0
        return capsys.readouterr().out

    whole = ["--n-min", str(lo), "--n-max", str(hi)]
    singles = [["--n", str(n)] for n in range(lo, hi + 1)]
    payload = json.loads(out(whole, "--json"))
    assert payload["inputs"]["n"] == list(range(lo, hi + 1))
    assert payload["outputs"]["rows"] == [
        json.loads(out(single, "--json"))["outputs"]["rows"][0] for single in singles
    ]
    header, *lines = [out(single, "--csv").split("\n", 1) for single in singles]
    assert out(whole, "--csv") == "\n".join(header) + "".join(line for _, line in lines)
    assert out(whole) == "".join(out(single) for single in singles)


def test_csv_and_text_sweeps_walk_for_no_codes(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("walked for codes")

    monkeypatch.setattr(automaton, "_first_codes", refuse)
    monkeypatch.setattr(solver, "_scan", refuse)
    for kind, (lo, _) in RANGE_SWEEPS.items():
        for flags in (["--csv"], [], ["--json", "--csv"]):
            argv = ["sweep", kind, "--n-min", str(lo), "--n-max", "30", *flags]
            assert run(argv) == 0
            assert run(["sweep", kind, "--n", "12", *flags]) == 0
    capsys.readouterr()
    # JSON prints the codes, so it walks for them
    with pytest.raises(AssertionError, match="walked"):
        run(["sweep", "path", "--n", "12", "--json"])


def test_sweep_strict_mode(capsys):
    assert run(["sweep", "path", "--n", "4", "--mode", "strict"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n=4 min=None max=None formula=3 match=false orientations=8 infeasible=8\n"
    )


def test_sweep_guard_exit_code(tmp_path, capsys):
    limit = solver.AUTOMATON_MAX_VERTICES
    assert run(["sweep", "path", "--n", str(limit + 1)]) == 3
    assert f"guard of {limit}" in capsys.readouterr().err
    # a base that solves every code keeps the edge guard
    p = tmp_path / "b.txt"
    p.write_text(emit_base(BaseGraph(26, reversed(path_base(26).edges))))
    assert run(["invariants", "--base", str(p), "--star"]) == 3
    err = capsys.readouterr().err
    assert "guard" in err
    assert "DOMCHROM_MAX_SWEEP_EDGES" in err


def test_sweep_star_past_the_edge_guard_solves_no_orientation(monkeypatch, capsys):
    # 2^25 codes, counted by the star's automaton: the edge guard is
    # for bases whose codes are solved one by one
    leaves = 25
    solves = []
    real = solver._lower_bound
    monkeypatch.setattr(
        solver, "_lower_bound", lambda *a, **kw: solves.append(a[0]) or real(*a, **kw)
    )
    assert run(["sweep", "star", "--n", str(leaves), "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert solves == []
    base = star_base(leaves)
    dist = Counter()
    for j in range(leaves + 1):
        d = orient(base, (1 << j) - 1)
        dist[str(dominator_chromatic_number(d).value)] += comb(leaves, j)
    assert row["orientations"] == 1 << leaves
    assert row["distribution"] == dict(sorted(dist.items()))
    assert row["kernel_solves"] == 0


def test_family_text(capsys):
    assert run(["family", "path", "7"]) == 0
    out = capsys.readouterr().out
    assert "family: path [7]" in out
    assert "claimed value: 4" in out


def test_family_emitted_files_verify(tmp_path, capsys):
    assert run(["family", "cycle", "9", "--emit-digraph"]) == 0
    digraph_text = capsys.readouterr().out
    assert run(["family", "cycle", "9", "--emit-witness"]) == 0
    witness_text = capsys.readouterr().out
    d = parse_digraph(digraph_text)
    c = parse_coloring(witness_text)
    assert d.n == 9
    assert c.k == 5
    dp = tmp_path / "d.txt"
    cp = tmp_path / "c.txt"
    dp.write_text(digraph_text)
    cp.write_text(witness_text)
    assert run(["verify", str(dp), str(cp)]) == 0
    capsys.readouterr()


def test_family_emit_both_streams_in_order(capsys):
    assert run(["family", "path", "4", "--emit-digraph", "--emit-witness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph 4\n")
    assert "coloring 4 3\n" in out


def test_family_directed_variant(capsys):
    assert run(["family", "path", "5", "--directed", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["claimed_value"] == 5
    assert payload["outputs"]["witness"] == [0, 1, 2, 3, 4]
    assert run(["family", "star", "3", "0", "--directed"]) == 2
    capsys.readouterr()


def test_family_bad_parameters(capsys):
    assert run(["family", "star", "2", "3"]) == 2
    assert run(["family", "wheel", "5"]) == 2
    assert run(["family", "path"]) == 2
    capsys.readouterr()


def test_formulas_text_and_csv(capsys):
    assert run(["formulas", "path", "--n-min", "1", "--n-max", "4"]) == 0
    assert capsys.readouterr().out == (
        "n=1 value=1\nn=2 value=2\nn=3 value=2\nn=4 value=3\n"
    )
    assert run(["formulas", "cycle", "--n-min", "3", "--n-max", "6", "--csv"]) == 0
    assert capsys.readouterr().out == "n,value\n3,3\n4,2\n5,3\n6,3\n"
    assert run(["formulas", "cycle", "--n", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, n_min, n_max",
    [(["--n", "5"], 5, 5), (["--n-min", "3", "--n-max", "6"], 3, 6)],
)
def test_formulas_json_echoes_the_range(argv, n_min, n_max, capsys):
    assert run(["formulas", "path", *argv, "--json"]) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert (inputs["n_min"], inputs["n_max"]) == (n_min, n_max)


def test_invariants_digraph(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text(emit_digraph(directed_path(4)))
    assert run(["invariants", str(p)]) == 0
    assert capsys.readouterr().out == (
        "dominator value: 4\nchromatic value: 2\ngap: 2\n"
    )


def test_invariants_star_aggregate(tmp_path, capsys):
    p = tmp_path / "base.txt"
    p.write_text(emit_base(path_base(5)))
    assert run(["invariants", "--base", str(p), "--star"]) == 0
    out = capsys.readouterr().out
    assert "min over orientations: 3" in out
    assert "max over orientations: 5" in out
    assert "spread: 2" in out
    assert "table value: 2" in out


def test_invariants_semantic_failure(tmp_path, capsys):
    p = tmp_path / "sinks.txt"
    p.write_text(emit_digraph(star_oriented(2, 0)))
    assert run(["invariants", str(p), "--mode", "strict"]) == 1
    assert "error:" in capsys.readouterr().err
    # the hub of a tilde cycle is a sink, so strict mode leaves it uncolorable
    argv = ["mine-discrepancy", "--family", "tilde-cycle", "--n", "4", "--mode", "strict"]
    assert run(argv) == 1
    assert "discrepancy undefined" in capsys.readouterr().err


# an input that solve or sweep refuses with exit 2 is a usage error in
# invariants too, not an undefined invariant (exit 1)


def test_invariants_past_the_kernel_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "d65.txt"
    p.write_text(emit_digraph(directed_path(65)))
    assert run(["solve", str(p)]) == 2
    assert run(["invariants", str(p)]) == 2
    assert "at most 64 vertices" in capsys.readouterr().err


def test_invariants_star_past_the_kernel_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "b65.txt"
    p.write_text(emit_base(path_base(65)))
    # the automaton sweeps the path and its 2-coloring gives chi, so no
    # step needs the kernel
    assert run(["invariants", "--base", str(p), "--star", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["chromatic_value"] == 2
    # the odd cycle's chi needs the kernel; a base that solves every
    # code meets the limit in the sweep
    for base in (cycle_base(65), BaseGraph(65, reversed(path_base(65).edges))):
        p.write_text(emit_base(base))
        assert run(["invariants", "--base", str(p), "--star"]) == 2
        assert "at most 64 vertices" in capsys.readouterr().err


def test_invariants_star_with_a_bad_edge_guard_exits_2(tmp_path, monkeypatch, capsys):
    p = tmp_path / "b3.txt"
    # listed last first, the path is not recognised, so its sweep solves
    # every code and reads the edge guard; so does the 4-cycle's
    p.write_text(emit_base(BaseGraph(3, reversed(path_base(3).edges))))
    monkeypatch.setenv(solver.SWEEP_EDGES_ENV, "abc")
    assert run(["sweep", "cycle", "--n", "4"]) == 2
    assert run(["invariants", "--base", str(p), "--star"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_invariants_argument_combinations(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text(emit_digraph(directed_path(3)))
    b = tmp_path / "b.txt"
    b.write_text(emit_base(path_base(3)))
    assert run(["invariants"]) == 2
    assert run(["invariants", "--star"]) == 2
    assert run(["invariants", str(p), "--base", str(b), "--star"]) == 2
    capsys.readouterr()
    # without --star the base is refused, not ignored
    assert run(["invariants", str(p), "--base", str(b)]) == 2
    captured = capsys.readouterr()
    assert "not both" in captured.err
    assert captured.out == ""


def test_mine_discrepancy_rows(capsys):
    code = run(["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "6", "--n-max", "8"])
    assert code == 0
    assert capsys.readouterr().out == (
        "n=6 host=3 sub=6 discrepancy=3\n"
        "n=7 host=4 sub=7 discrepancy=3\n"
        "n=8 host=3 sub=8 discrepancy=5\n"
    )


def test_mine_discrepancy_csv(capsys):
    code = run(
        ["mine-discrepancy", "--family", "tilde-cycle", "--n", "6", "--csv"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "n,host_value,sub_value,discrepancy\n6,3,6,3\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "cycle", "--n-min", "4", "--n-max", "6"],
        ["formulas", "path", "--n-min", "1", "--n-max", "5"],
        ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "5", "--n-max", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_wins_over_json(argv, capsys):
    assert run([*argv, "--csv"]) == 0
    csv_only = capsys.readouterr()
    assert csv_only.out.startswith("n,")
    for flags in (["--json", "--csv"], ["--csv", "--json"]):
        assert run([*argv, *flags]) == 0
        assert capsys.readouterr() == csv_only


@pytest.mark.parametrize(
    "argv, n_min, n_max",
    [(["--n", "5"], 5, 5), (["--n-min", "4", "--n-max", "6"], 4, 6)],
)
def test_mine_discrepancy_json_echoes_the_range(argv, n_min, n_max, capsys):
    argv = ["mine-discrepancy", "--family", "tilde-cycle", *argv, "--json"]
    assert run(argv) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert (inputs["n_min"], inputs["n_max"]) == (n_min, n_max)


def test_mine_discrepancy_solves_each_digraph_once(monkeypatch, capsys):
    sizes = []
    real = solver._solve_masks
    monkeypatch.setattr(solver, "_solve_masks", lambda *a: sizes.append(a[0]) or real(*a))
    for n in (4, 5, 6):
        sizes.clear()
        assert run(["mine-discrepancy", "--family", "tilde-cycle", "--n", str(n)]) == 0
        # the tilde cycle (n + 1 vertices), then the directed cycle
        assert sizes == [n + 1, n]
    capsys.readouterr()


def test_mine_discrepancy_reaches_odd_cycles_up_to_the_kernel_limit(capsys):
    argv = ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "3", "--n-max", "63"]
    assert run([*argv, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert [r["n"] for r in rows] == list(range(3, 64))
    for r in rows:
        assert r["host_value"] in (3, 4), r
        assert r["sub_value"] == r["n"], r


def _refuse_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built")

    for kind, (_, past_n) in list(cli._SWEEP_KINDS.items()):
        monkeypatch.setitem(cli._SWEEP_KINDS, kind, (refuse, past_n))
    monkeypatch.setattr(cli, "_min_formula", refuse)
    for name in ("tilde_cycle", "directed_cycle", "directed_path", "family_witness"):
        monkeypatch.setattr(families, name, refuse)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # the tilde cycle on n has n + 1 vertices: n = 64 is one too many
        (["mine-discrepancy", "--family", "tilde-cycle", "--n", "64"], 2, "at most 64 vertices"),
        (
            ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "63", "--n-max", "64"],
            2,
            "at most 64 vertices",
        ),
        (["sweep", "path", "--n", "1000000"], 3, "guard"),
        (["sweep", "cycle", "--n-min", "3", "--n-max", "1001"], 3, "guard"),
        (["mine-discrepancy", "--family", "tilde-cycle", "--n", "1000000"], 2, "at most 64"),
        (
            ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "3", "--n-max", "64"],
            2,
            "at most 64 vertices",
        ),
        # a star on n leaves has n + 1 vertices
        (["sweep", "star", "--n-min", "1", "--n-max", "1000"], 3, "guard"),
        (["family", "complete", "3000", "--json"], 3, "guard"),
        (["family", "star", "1000", "0"], 3, "1001 vertices"),
        (["family", "complete-bipartite", "600", "401"], 3, "guard"),
        (["family", "cycle", "1001", "--directed"], 3, "guard"),
        (["formulas", "path", "--n-min", "1", "--n-max", "1000000"], 3, "guard"),
        (["formulas", "cycle", "--n-min", "3", "--n-max", "100003"], 3, "100001 sizes"),
    ],
)
def test_sizes_are_checked_before_any_graph_is_built(argv, code, message, monkeypatch, capsys):
    _refuse_builds(monkeypatch)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_family_and_formulas_guards_admit_their_limits(monkeypatch, capsys):
    # a member of exactly FAMILY_MAX_VERTICES vertices, and a table of
    # exactly FORMULAS_MAX_SIZES sizes, pass; one more is refused
    monkeypatch.setattr(cli, "FAMILY_MAX_VERTICES", 10)
    monkeypatch.setattr(cli, "FORMULAS_MAX_SIZES", 5)
    assert run(["family", "star", "9", "0"]) == 0
    assert "vertices: 10," in capsys.readouterr().out
    assert run(["family", "star", "10", "0"]) == 3
    assert run(["formulas", "path", "--n-min", "1", "--n-max", "5", "--csv"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    assert run(["formulas", "path", "--n-min", "1", "--n-max", "6"]) == 3
    assert "6 sizes exceeds the guard of 5" in capsys.readouterr().err


def test_formulas_refuses_a_range_longer_than_maxsize(capsys):
    # len() of this range raises OverflowError; the guard must not take it
    n_max = 10**20 - 1
    assert n_max > sys.maxsize
    assert run(["formulas", "path", "--n-min", "1", "--n-max", str(n_max)]) == 3
    captured = capsys.readouterr()
    assert f"formulas over {n_max} sizes exceeds the guard of" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_sweep_kinds_give_the_size_of_the_base_they_build():
    for kind, (build, past_n) in cli._SWEEP_KINDS.items():
        for n in range(1, 31):
            try:
                base = build(n)
            except ValueError:
                assert kind == "cycle" and n < 3, (kind, n)
                continue
            assert n + past_n == base.n, (kind, n)
            # the automaton sweeps every base but a few tiny ones
            assert solver._automaton_family(base) or base.n <= 4, (kind, n)


def test_a_size_range_stays_lazy():
    # the guards read the ends of the range, so a range ending at
    # 10**12 costs nothing before it is refused
    args = argparse.Namespace(n=None, n_min=3, n_max=5)
    assert cli._range_from(args) == range(3, 6)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "domchrom.cli", "sweep", "path", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n=4 min=3")


# ---------------------------------------------------------------- plain argv


def _parsed(parser, argv):
    """vars(parser.parse_args(argv)), or None when parse_args exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _parser_tokens(parser):
    """Every option string and choice of parser's arguments."""
    words = []
    for action in parser._actions:
        words += action.option_strings
        words += [str(c) for c in action.choices or ()]
    return words


# file names, numbers and words that some argument refuses, and the
# forms only argparse's general parse reads
_OTHER_TOKENS = [
    "d.txt", "c.txt", "0", "2", "16", "-3", "-1", "four", "1.5", "nope", "",
    "-h", "--", "--mode=strict", "--js", "-", "- x",
]


def _value(action):
    """A value that action accepts."""
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 999).map(str)
    return st.from_regex(r"[a-z0-9_./][a-z0-9_./-]{0,6}", fullmatch=True)


@st.composite
def _well_formed(draw, parser):
    """A plain argv of parser: each positional once and in order, each
    option at most once (a required one always) before its value, and
    the pieces in any order."""
    positionals, pieces = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        value = draw(_value(action)) if action.nargs is None else None
        if not action.option_strings:
            positionals.append(value)
        elif action.required or draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            pieces.append([flag] if value is None else [flag, value])
    pieces += [None] * len(positionals)
    order = iter(positionals)
    return [
        token
        for piece in draw(st.permutations(pieces))
        for token in (piece if piece is not None else [next(order)])
    ]


@st.composite
def _edited(draw, argv, token):
    """argv with up to three tokens inserted, deleted or replaced."""
    argv = list(argv)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(token))
        elif edit == "delete":
            del argv[i]
        else:
            argv[i] = draw(token)
    return argv


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@given(data=st.data())
def test_plain_args_give_what_parse_args_gives_or_none(name, data):
    parser = cli._command_parser(name)
    token = st.one_of(
        st.sampled_from(_parser_tokens(parser) + _OTHER_TOKENS), st.text(max_size=4)
    )
    argv = st.lists(token, max_size=9)
    if name not in ("family", "invariants"):
        # and near misses of plain argv
        argv = st.one_of(argv, _well_formed(parser).flatmap(lambda a: _edited(a, token)))
    argv = data.draw(argv)
    plain = cli._plain_args(parser, argv)
    expected = _parsed(parser, argv)
    if plain is not None:
        assert vars(plain) == expected


@pytest.mark.parametrize("name", ["solve", "verify", "sweep", "formulas", "mine-discrepancy"])
@given(data=st.data())
def test_well_formed_argv_take_the_plain_path(name, data):
    parser = cli._command_parser(name)
    argv = data.draw(_well_formed(parser))
    plain = cli._plain_args(parser, argv)
    assert plain is not None, argv
    assert vars(plain) == _parsed(parser, argv)


@pytest.mark.parametrize(
    "argv",
    [
        # the argv of perfbench's solve-batch and sweep workloads
        ["solve", "/w/g7.txt", "--mode", "strict", "--json"],
        ["verify", "/w/g7.txt", "/w/c7.txt", "--mode", "sink-exempt", "--json"],
        ["sweep", "star", "--n", "16", "--workers", "2", "--json"],
        ["sweep", "star", "--n", "16", "--json"],
        ["sweep", "cycle", "--n", "12", "--json"],
    ],
)
def test_benchmark_argv_take_the_plain_path(argv):
    parser = cli._command_parser(argv[0])
    plain = cli._plain_args(parser, argv[1:])
    assert plain is not None
    assert vars(plain) == _parsed(parser, argv[1:])


def test_parsers_with_actions_plain_args_cannot_match_are_left_to_parse_args():
    # positionals with nargs "*" and "?"
    for name in ("family", "invariants"):
        parser = cli._command_parser(name)
        assert parser._plain_defaults is None
        assert cli._plain_args(parser, ["path", "5"]) is None


def test_anything_but_a_plain_argv_goes_to_parse_args(capsys):
    parser = cli._command_parser("verify")
    for argv in (
        ["d.txt", "c.txt", "--mode=strict"],
        ["d.txt", "c.txt", "--js"],
        ["d.txt", "c.txt", "--json", "--json"],
        ["d.txt", "c.txt", "-h"],
        ["--", "d.txt", "c.txt"],
        ["d.txt", "-c.txt"],
        ["d.txt", "c.txt", "--mode", "nope"],
        ["d.txt", "c.txt", "--mode"],
        ["d.txt"],
    ):
        assert cli._plain_args(parser, argv) is None, argv
    # parse_args reads -3 as a value; the plan leaves it to parse_args
    sweep_parser = cli._command_parser("sweep")
    assert cli._plain_args(sweep_parser, ["star", "--n", "-3"]) is None
    assert sweep_parser.parse_args(["star", "--n", "-3"]).n == -3
    # the fallback keeps argparse's own reading, lines and exit codes:
    # --js abbreviates --json, so the run gets as far as the files
    assert run(["verify", "d.txt", "c.txt", "--js"]) == 2
    assert "No such file or directory: 'd.txt'" in capsys.readouterr().err
    assert run(["verify", "d.txt", "c.txt", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(["sweep", "star", "--n", "-3", "--json"]) == 2
    assert run(["mine-discrepancy", "--n", "5"]) == 2
    assert "required: --family" in capsys.readouterr().err


# ---------------------------------------------------------------- input files


def _text_mode(path):
    """The text-mode read the CLI once made, or the error it raised."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)


def _bytes_read(path):
    try:
        return cli._read(path)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)


_FILE_BODIES = {
    "lf": b"digraph 3\n0 1\n1 2\n",
    "crlf": b"digraph 3\r\n0 1\r\n1 2\r\n",
    "cr": b"digraph 3\r0 1\r1 2\r",
    "mixed": b"digraph 3\r\r\n0 1\n\r1 2",
    "bom": b"\xef\xbb\xbfdigraph 3\r\n0 1\n1 2\n",
    "invalid": b"digraph 3\n0 1\xff\n",
    "invalid-late": b"# " + b"x" * 9000 + b"\r\n\xc3",
    "empty": b"",
    # past any read buffer: 180 KB of CRLF lines, each with a 2-byte character
    "large": b"digraph 3\r\n" + b"# \xc3\xa9\r\n" * 30000 + b"0 1\r\n",
}


@pytest.mark.parametrize("body", list(_FILE_BODIES))
def test_read_matches_a_text_mode_read(body, tmp_path):
    path = tmp_path / f"{body}.txt"
    path.write_bytes(_FILE_BODIES[body])
    assert _bytes_read(str(path)) == _text_mode(str(path))


def test_read_of_a_missing_file_or_a_directory_matches_text_mode(tmp_path):
    for path in (tmp_path / "absent.txt", tmp_path):
        assert _bytes_read(str(path)) == _text_mode(str(path))


def test_a_huge_header_is_refused_by_size_before_any_work(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("digraph 10000000\n0 9999999\n")
    for argv in (["solve", str(path)], ["invariants", str(path), "--json"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: kernels support at most 64 vertices\n")


def test_line_endings_and_bad_files_give_the_same_runs(tmp_path, capsys):
    coloring = tmp_path / "c.txt"
    coloring.write_bytes(b"coloring 3 3\r\n0 0\r\n1 1\r\n2 2\r\n")
    runs = {}
    for body in ("lf", "crlf", "cr", "bom", "invalid"):
        path = tmp_path / f"{body}.txt"
        path.write_bytes(_FILE_BODIES[body])
        for argv in (["solve", str(path)], ["verify", str(path), str(coloring), "--json"]):
            code = run(argv)
            out, err = capsys.readouterr()
            if out.startswith("{"):
                payload = json.loads(out)
                payload["outputs"].pop("elapsed_ms")
                payload["inputs"].pop("digraph")
                out = payload
            runs[body, argv[0]] = code, out, err
    for command in ("solve", "verify"):
        assert runs["crlf", command] == runs["lf", command] == runs["cr", command]
        assert runs["lf", command][0] == 0
        code, out, err = runs["invalid", command]
        assert (code, out) == (2, "")
        assert err == f"error: {_text_mode(str(tmp_path / 'invalid.txt'))[1]}\n"
        # a BOM is no whitespace to the parser, as before
        assert runs["bom", command][0] == 2
    assert run(["verify", str(tmp_path / "absent.txt"), str(coloring)]) == 2
    assert capsys.readouterr().err == f"error: {_text_mode(str(tmp_path / 'absent.txt'))[1]}\n"
