"""Backend benchmark: python -m domchrom.bench [--repeat N]

Times the pure-Python and compiled kernels on identical workloads, each
run once untimed and then best of --repeat timed runs, and prints a
table with the speedup of each workload that calls a kernel, after the
host's CPU count and Python version.  Workloads cover single solves (an
odd tilde cycle among them, whose bound needs chi = 4 from the proper
search), orientation sweeps, and in-process `domchrom solve --json` and
`verify --json` requests on fig4 and its witness; both backends must
return identical values, node counts and verdicts, which the harness
asserts before reporting.  A ladder row solves a fixed, seeded set of
random digraphs with 8 to 16 vertices in both modes, and prints the
budgets its ladders tried, the refuted ones among them, and the kernel
nodes next to its times: the one row that refutes budgets on random
input, as perfbench's solve-batch does.  The sweeps that compare the
backends take bases with their edges listed last first, which no automaton
recognises, so each code is solved: two of them without a kernel call
(a star, whose packing bounds are all attained, and a strict path,
whose orientations all have a sink).  The automaton rows, a star, a
path and a cycle, call no kernel at all, nor does verify.
Those six rows run the same Python on both backends, so they print no
speedup.  A cold-start line first gives the median wall of --repeat
fresh `import domchrom.cli` interpreters and of as many bare ones, the
fixed cost every CLI call pays before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import cli, kernel
from .coloring import Coloring, DominationMode
from .families import fig4_digraph, tilde_cycle, tournament
from .formats import emit_coloring, emit_digraph
from .graphs import BaseGraph, Digraph, cycle_base, path_base, star_base
from .solver import dominator_chromatic_number, sweep


def _cli(*argv: str) -> dict:
    """One in-process `domchrom <argv> --json` request; its outputs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([*argv, "--json"])
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())["outputs"]


def _cold_start(repeat: int) -> str:
    """One line: the median wall of fresh interpreters that import
    domchrom.cli and of bare ones, spawned alternately after one untimed
    import, and whether PYTHONDONTWRITEBYTECODE makes each compile."""
    package_root = str(Path(__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def spawn(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    spawn("import domchrom.cli")
    bare, cli_import = [], []
    for _ in range(repeat):
        bare.append(spawn("pass"))
        cli_import.append(spawn("import domchrom.cli"))
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    return (
        f"cold start: import domchrom.cli {statistics.median(cli_import) * 1000:.1f} ms, "
        f"bare interpreter {statistics.median(bare) * 1000:.1f} ms "
        f"(median of {repeat} spawns each; PYTHONDONTWRITEBYTECODE {bytecode})"
    )


def _sweep(base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT):
    """sweep(base, mode) with its code lists read, so that the walks a
    report runs on first read are timed too."""
    report = sweep(base, mode)
    report.argmin_codes, report.argmax_codes
    return report


def _reversed(base: BaseGraph) -> BaseGraph:
    """base with its edges listed last first: swept code by code."""
    return BaseGraph(base.n, reversed(base.edges))


LADDER_ROW = "solve random n=8..16 x40 both modes"


def _random_digraphs() -> list[Digraph]:
    """40 digraphs with 8 to 16 vertices, each pair an arc with
    probability 0.25, 0.4 or 0.55, oriented by a coin; the same ones on
    every run."""
    rng = random.Random(20191)
    digraphs = []
    for _ in range(40):
        n = rng.randint(8, 16)
        density = rng.choice((0.25, 0.4, 0.55))
        arcs = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        digraphs.append(Digraph(n, arcs))
    return digraphs


def _solve_all(digraphs: list[Digraph]) -> list:
    return [dominator_chromatic_number(d, mode) for d in digraphs for mode in DominationMode]


def _ladder_note(thunk) -> str:
    """The budgets, refuted budgets and kernel nodes of one run of a
    ladder row, counted around the active kernel."""
    real = kernel.solve_fixed_k_dominator
    budgets = 0

    def counted(*args):
        nonlocal budgets
        budgets += 1
        return real(*args)

    kernel.solve_fixed_k_dominator = counted
    try:
        outcomes = thunk()
    finally:
        kernel.solve_fixed_k_dominator = real
    refuted = budgets - sum(outcome.feasible for outcome in outcomes)
    nodes = sum(outcome.nodes_explored for outcome in outcomes)
    return f"budgets {budgets} (refuted {refuted}), nodes {nodes}"


def _workloads(fig4_path: str, fig4_coloring: str):
    """(label, thunk, whether the thunk calls a kernel) per workload."""
    yield "solve tournament n=9", lambda: dominator_chromatic_number(tournament(9, 5)), True
    yield "solve tilde-cycle n=12", lambda: dominator_chromatic_number(tilde_cycle(12)), True
    # an odd wheel underneath: chi(G - U) = 4 takes the proper search
    yield "solve tilde-cycle n=25", lambda: dominator_chromatic_number(tilde_cycle(25)), True
    yield "solve fig4", lambda: dominator_chromatic_number(fig4_digraph()), True
    random_digraphs = _random_digraphs()
    yield LADDER_ROW, lambda: _solve_all(random_digraphs), True
    yield "sweep path n=10 reversed", lambda: _sweep(_reversed(path_base(10))), True
    yield "sweep cycle n=10 reversed", lambda: _sweep(_reversed(cycle_base(10))), True
    yield (
        "sweep cycle n=10 strict reversed",
        lambda: _sweep(_reversed(cycle_base(10)), DominationMode.STRICT),
        True,
    )
    # settled without the kernel: by the packing certificate, and by sinks
    yield "sweep star n=10 reversed", lambda: _sweep(_reversed(star_base(10))), False
    yield (
        "sweep path n=14 strict reversed",
        lambda: _sweep(_reversed(path_base(14)), DominationMode.STRICT),
        False,
    )
    # automaton sweeps
    yield "sweep star n=16", lambda: _sweep(star_base(16)), False
    yield "sweep path n=1000", lambda: _sweep(path_base(1000)), False
    yield "sweep cycle n=200", lambda: _sweep(cycle_base(200)), False
    yield "cli solve --json fig4", lambda: _cli("solve", fig4_path), True
    yield "cli verify --json fig4", lambda: _cli("verify", fig4_path, fig4_coloring), False


def _run_backend(name: str, workloads, repeat: int):
    kernel.use_backend(name)
    results = {}
    timings = {}
    for label, thunk, _ in workloads:
        # untimed: the first call pays one-time imports, such as the
        # automaton's tables, that the first backend timed would carry
        thunk()
        best = float("inf")
        value = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            value = thunk()
            best = min(best, time.perf_counter() - t0)
        results[label] = _fingerprint(value)
        timings[label] = best
    return results, timings


def _fingerprint(value):
    if isinstance(value, list):
        return [_fingerprint(item) for item in value]
    if hasattr(value, "distribution"):
        return (
            value.distribution,
            value.min_value,
            value.max_value,
            value.argmin_codes,
            value.argmax_codes,
        )
    if isinstance(value, dict):
        return value["ok"] if "ok" in value else (value["value"], value["nodes_explored"])
    return (value.value, value.nodes_explored)


def main() -> None:
    parser = argparse.ArgumentParser(description="compare kernel backends")
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    available = kernel.available_backends()
    print(f"nproc: {os.cpu_count()}  python: {platform.python_version()}")
    print(f"backends available: {', '.join(available)}")
    if "c" not in available:
        print("compiled kernel not built; benchmarking python only")
    print(_cold_start(args.repeat))

    with tempfile.TemporaryDirectory() as tmp:
        fig4_path = str(Path(tmp) / "fig4.txt")
        Path(fig4_path).write_text(emit_digraph(fig4_digraph()))
        fig4_coloring = str(Path(tmp) / "fig4.col")
        Path(fig4_coloring).write_text(emit_coloring(Coloring([0, 1, 0, 2, 3, 4], 5)))
        workloads = list(_workloads(fig4_path, fig4_coloring))
        per_backend = {}
        for name in available:
            per_backend[name] = _run_backend(name, workloads, args.repeat)
        kernel.use_backend(None)
        ladder_note = _ladder_note(
            next(thunk for label, thunk, _ in workloads if label == LADDER_ROW)
        )

    baseline_results, baseline_times = per_backend["python"]
    for name, (results, _) in per_backend.items():
        if results != baseline_results:
            raise AssertionError(f"backend {name} disagrees with python: {results}")

    width = max(len(label) for label, _, _ in workloads)
    header = f"{'workload':<{width}}  " + "  ".join(f"{n:>10}" for n in available)
    if "c" in available:
        header += f"  {'speedup':>8}"
    print(header)
    for label, _, calls_kernel in workloads:
        row = f"{label:<{width}}  "
        row += "  ".join(f"{per_backend[n][1][label] * 1000:>8.3f}ms" for n in available)
        if label == LADDER_ROW:
            row += f"  {ladder_note}"
        if "c" in available and calls_kernel:
            ratio = baseline_times[label] / per_backend["c"][1][label]
            row += f"  {ratio:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
