"""Spans around the calls into each domchrom layer, recorded from outside.

The tracer replaces module attributes with wrappers that record one span
(name, parent, start, end, note) per call, in memory.  A layer's self
time is its spans' durations minus the time their child spans cover;
spans nest because every call runs on one thread.

Bindings, and why each is wrapped where it is:

- ``cli`` imports the solver entry points, ``verify`` and the format
  functions by name, so those names are wrapped in ``domchrom.cli``.
- ``solver`` calls ``chromatic_number`` through its module global.
- ``solver`` reads ``kernel.solve_fixed_k_*`` at call time, but
  ``_sweep_chunk`` reads it once per chunk, so wrappers must be in place
  before a sweep starts.
- forked pool workers keep their own copy of the spans, which is lost;
  pooled sweeps are therefore timed untraced.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

NAME, PARENT, START, END, NOTE = range(5)


def _kernel_note(args, result):
    """(found, nodes, ends_ladder): a ladder ends at a found coloring or
    at a refuted budget k = n."""
    assignment, nodes = result
    n, k = args[0], args[4]
    return (assignment is not None, nodes, assignment is not None or k >= n)


def _sweep_note(args, report):
    return report.orientations


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the CLI reaches."""
        from domchrom import cli, kernel, solver

        self.wrap(cli, "run", "cli.run")
        self.wrap(kernel, "solve_fixed_k_dominator", "kernel.dom", _kernel_note)
        self.wrap(kernel, "solve_fixed_k_proper", "kernel.proper")
        self.wrap(solver, "chromatic_number", "solver.lower")
        self.wrap(cli, "dominator_chromatic_number", "solver.solve")
        self.wrap(cli, "sweep", "solver.sweep", _sweep_note)
        self.wrap(cli, "verify", "coloring.verify")
        for attr in dir(cli):
            if attr.startswith("parse_"):
                self.wrap(cli, attr, "formats.parse")
            elif attr.startswith("emit_"):
                self.wrap(cli, attr, "formats.emit")

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart\tend\tnote\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec)) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    found = {"calls": 0, "nodes": 0, "s": 0.0}
    refuted = {"calls": 0, "nodes": 0, "s": 0.0}
    orientations = 0
    ladders = 0
    for rec, mine in zip(spans, own):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        count[name] += 1
        total[name] += dur
        self_s[name] += mine
        layer_self[name.split(".")[0]] += mine
        if name == "kernel.dom":
            ok, nodes, ends_ladder = rec[NOTE]
            ladders += ends_ladder
            side = found if ok else refuted
            side["calls"] += 1
            side["nodes"] += nodes
            side["s"] += dur
        elif name == "solver.sweep":
            orientations += rec[NOTE]
        elif name == "solver.solve":
            orientations += 1

    dom_calls = count["kernel.dom"]
    dom_nodes = found["nodes"] + refuted["nodes"]
    solver_span = total["solver.solve"] + total["solver.sweep"]
    return {
        "kernel.dom_calls": dom_calls,
        "kernel.dom_nodes": dom_nodes,
        "kernel.dom_s": total["kernel.dom"],
        "kernel.ns_per_node": total["kernel.dom"] / dom_nodes * 1e9 if dom_nodes else 0.0,
        "kernel.found_calls": found["calls"],
        "kernel.found_nodes": found["nodes"],
        "kernel.found_s": found["s"],
        "kernel.refuted_calls": refuted["calls"],
        "kernel.refuted_nodes": refuted["nodes"],
        "kernel.refuted_s": refuted["s"],
        "kernel.useful_node_ratio": found["nodes"] / dom_nodes if dom_nodes else 0.0,
        "kernel.proper_calls": count["kernel.proper"],
        "kernel.proper_s": total["kernel.proper"],
        "solver.lower_calls": count["solver.lower"],
        "solver.lower_s": total["solver.lower"],
        "solver.budgets_tried": dom_calls,
        "solver.budgets_refuted": refuted["calls"],
        "solver.useful_budget_ratio": found["calls"] / dom_calls if dom_calls else 0.0,
        "solver.orientation_solves": ladders,
        "solver.self_s": self_s["solver.solve"] + self_s["solver.sweep"],
        "solver.us_per_orientation": solver_span / orientations * 1e6 if orientations else 0.0,
        "cli.calls": count["cli.run"],
        "cli.self_s": layer_self["cli"],
        "formats.calls": count["formats.parse"] + count["formats.emit"],
        "formats.parse_s": total["formats.parse"],
        "formats.emit_s": total["formats.emit"],
        "coloring.verify_calls": count["coloring.verify"],
        "coloring.verify_s": total["coloring.verify"],
        "bench.self_s": layer_self["bench"],
        "trace.layer_self_sum_s": sum(layer_self.values()),
        "trace.spans": len(spans),
    }


COUNT_KEYS = (
    "kernel.dom_calls",
    "kernel.dom_nodes",
    "kernel.found_calls",
    "kernel.refuted_calls",
    "kernel.proper_calls",
    "solver.lower_calls",
    "solver.budgets_tried",
    "solver.budgets_refuted",
    "solver.orientation_solves",
    "cli.calls",
    "formats.calls",
    "coloring.verify_calls",
    "trace.spans",
)
