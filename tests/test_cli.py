"""Exercises the CLI through run(), checking outputs and exit codes.

Exit code contract: 0 success, 1 semantic failure, 2 usage or parse
error, 3 guard exceeded.
"""

import argparse
import json
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

from domchrom import (
    Coloring,
    OrientationCode,
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
from domchrom.graphs import codes_enumerated, star_base
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


def test_json_envelope_is_one_line_and_names_the_backend(dpath3, tmp_path, capsys):
    c = tmp_path / "good.txt"
    c.write_text(emit_coloring(Coloring([0, 1, 2], 3)))
    for argv in (
        ["solve", dpath3, "--json"],
        ["verify", dpath3, str(c), "--json"],
        ["sweep", "path", "--n", "4", "--json"],
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
    for name, (help_line, add_arguments) in list(cli._COMMANDS.items()):

        def counted(p, name=name, add_arguments=add_arguments):
            built.append(name)
            add_arguments(p)

        monkeypatch.setitem(cli._COMMANDS, name, (help_line, counted))
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
    assert run(["sweep", "path", "--n", "9", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert row["kernel_solves"] == 7


def test_sweep_strict_mode(capsys):
    assert run(["sweep", "path", "--n", "4", "--mode", "strict"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n=4 min=None max=None formula=3 match=false orientations=8 infeasible=8\n"
    )


def test_sweep_guard_exit_code(capsys):
    assert run(["sweep", "path", "--n", "30"]) == 3
    err = capsys.readouterr().err
    assert "guard" in err
    assert "DOMCHROM_MAX_SWEEP_EDGES" in err


def test_sweep_star_past_the_edge_guard_solves_each_orbit_once(monkeypatch, capsys):
    # 2^25 codes, but only the 26 popcount orbits are solved: the edge
    # guard is for bases whose codes are enumerated
    leaves = 25
    solves = []
    real = solver._lower_bound
    monkeypatch.setattr(
        solver, "_lower_bound", lambda *a, **kw: solves.append(a[0]) or real(*a, **kw)
    )
    assert run(["sweep", "star", "--n", str(leaves), "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert solves == [leaves + 1] * (leaves + 1)
    base = star_base(leaves)
    dist = Counter()
    for j in range(leaves + 1):
        code = OrientationCode.from_value(base, (1 << j) - 1)
        dist[str(dominator_chromatic_number(orient(code)).value)] += comb(leaves, j)
    assert row["orientations"] == 1 << leaves
    assert row["distribution"] == dict(sorted(dist.items()))
    assert run(["sweep", "path", "--n", "30"]) == 3


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
    assert run(["sweep", "path", "--n", "65"]) == 2
    assert run(["invariants", "--base", str(p), "--star"]) == 2
    assert "at most 64 vertices" in capsys.readouterr().err


def test_invariants_star_with_a_bad_edge_guard_exits_2(tmp_path, monkeypatch, capsys):
    p = tmp_path / "b3.txt"
    p.write_text(emit_base(path_base(3)))
    monkeypatch.setenv(solver.SWEEP_EDGES_ENV, "abc")
    assert run(["sweep", "path", "--n", "3"]) == 2
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

    for kind, entry in list(cli._SWEEP_KINDS.items()):
        monkeypatch.setitem(cli._SWEEP_KINDS, kind, entry._replace(build=refuse))
    for name in ("tilde_cycle", "directed_cycle"):
        monkeypatch.setattr(families, name, refuse)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["sweep", "path", "--n", "1000000"], 2, "at most 64 vertices"),
        (["sweep", "star", "--n-min", "1", "--n-max", "64"], 2, "at most 64 vertices"),
        (["sweep", "path", "--n", "30"], 3, "guard"),
        (["sweep", "cycle", "--n-min", "3", "--n-max", "25"], 3, "guard"),
        (["mine-discrepancy", "--family", "tilde-cycle", "--n", "1000000"], 2, "at most 64"),
        (
            ["mine-discrepancy", "--family", "tilde-cycle", "--n-min", "3", "--n-max", "64"],
            2,
            "at most 64 vertices",
        ),
    ],
)
def test_sizes_are_checked_before_any_graph_is_built(argv, code, message, monkeypatch, capsys):
    _refuse_builds(monkeypatch)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_sweep_kinds_give_the_size_of_the_base_they_build():
    for kind, entry in cli._SWEEP_KINDS.items():
        for n in range(1, 31):
            try:
                base = entry.build(n)
            except ValueError:
                assert kind == "cycle" and n < 3, (kind, n)
                continue
            assert entry.vertices(n) == base.n, (kind, n)
            assert entry.edges(n) == len(base.edges), (kind, n)
            assert entry.enumerated(n) == codes_enumerated(base), (kind, n)


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
