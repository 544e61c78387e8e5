"""Backend benchmark: python -m domchrom.bench [--repeat N]

Times the pure-Python and compiled kernels on identical workloads and
prints a table with the speedup, after the host's CPU count and Python
version.  Workloads cover single solves (an odd tilde cycle among
them, whose bound needs chi = 4 from the proper search), orientation
sweeps, and one in-process `domchrom solve --json` request; both
backends must return identical values and node counts, which the
harness asserts before reporting.  The sweeps that compare the
backends take bases with their edges listed last first, which no
automaton recognises, so each code is solved: two of them without a
kernel call (a star, whose packing bounds are all attained, and a
strict path, whose orientations all have a sink).  The automaton rows,
a star, a path and a cycle, call no kernel at all.  A cold-start line
first gives the median wall of --repeat fresh `import domchrom.cli`
interpreters and of as many bare ones, the fixed cost every CLI call
pays before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import cli, kernel
from .coloring import DominationMode
from .families import fig4_digraph, tilde_cycle, tournament
from .formats import emit_digraph
from .graphs import BaseGraph, cycle_base, path_base, star_base
from .solver import dominator_chromatic_number, sweep


def _cli_solve(path: str) -> dict:
    """One in-process `domchrom solve <path> --json` request; its outputs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["solve", path, "--json"])
    if code != 0:
        raise AssertionError(f"solve {path} exited {code}")
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


def _workloads(fig4_path: str):
    yield "solve tournament n=9", lambda: dominator_chromatic_number(tournament(9, 5))
    yield "solve tilde-cycle n=12", lambda: dominator_chromatic_number(tilde_cycle(12))
    # an odd wheel underneath: chi(G - U) = 4 takes the proper search
    yield "solve tilde-cycle n=25", lambda: dominator_chromatic_number(tilde_cycle(25))
    yield "solve fig4", lambda: dominator_chromatic_number(fig4_digraph())
    yield "sweep path n=10 reversed", lambda: _sweep(_reversed(path_base(10)))
    yield "sweep cycle n=10 reversed", lambda: _sweep(_reversed(cycle_base(10)))
    yield (
        "sweep cycle n=10 strict reversed",
        lambda: _sweep(_reversed(cycle_base(10)), DominationMode.STRICT),
    )
    # settled without the kernel: by the packing certificate, and by sinks
    yield "sweep star n=10 reversed", lambda: _sweep(_reversed(star_base(10)))
    yield (
        "sweep path n=14 strict reversed",
        lambda: _sweep(_reversed(path_base(14)), DominationMode.STRICT),
    )
    # automaton sweeps
    yield "sweep star n=16", lambda: _sweep(star_base(16))
    yield "sweep path n=1000", lambda: _sweep(path_base(1000))
    yield "sweep cycle n=200", lambda: _sweep(cycle_base(200))
    yield "cli solve --json fig4", lambda: _cli_solve(fig4_path)


def _run_backend(name: str, workloads, repeat: int):
    kernel.use_backend(name)
    results = {}
    timings = {}
    for label, thunk in workloads:
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
    if hasattr(value, "distribution"):
        return (
            value.distribution,
            value.min_value,
            value.max_value,
            value.argmin_codes,
            value.argmax_codes,
        )
    if isinstance(value, dict):
        return (value["value"], value["nodes_explored"])
    return (value.value, value.nodes_explored)


def main() -> None:
    parser = argparse.ArgumentParser(description="compare kernel backends")
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args()

    available = kernel.available_backends()
    print(f"nproc: {os.cpu_count()}  python: {platform.python_version()}")
    print(f"backends available: {', '.join(available)}")
    if "c" not in available:
        print("compiled kernel not built; benchmarking python only")
    print(_cold_start(args.repeat))

    with tempfile.TemporaryDirectory() as tmp:
        fig4_path = str(Path(tmp) / "fig4.txt")
        Path(fig4_path).write_text(emit_digraph(fig4_digraph()))
        workloads = list(_workloads(fig4_path))
        per_backend = {}
        for name in available:
            per_backend[name] = _run_backend(name, workloads, args.repeat)
        kernel.use_backend(None)

    baseline_results, baseline_times = per_backend["python"]
    for name, (results, _) in per_backend.items():
        if results != baseline_results:
            raise AssertionError(f"backend {name} disagrees with python: {results}")

    width = max(len(label) for label, _ in workloads)
    header = f"{'workload':<{width}}  " + "  ".join(f"{n:>10}" for n in available)
    if "c" in available:
        header += f"  {'speedup':>8}"
    print(header)
    for label, _ in workloads:
        row = f"{label:<{width}}  "
        row += "  ".join(f"{per_backend[n][1][label] * 1000:>8.3f}ms" for n in available)
        if "c" in available:
            ratio = baseline_times[label] / per_backend["c"][1][label]
            row += f"  {ratio:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
