"""Command-line interface.

Subcommands: solve, verify, sweep, family, formulas, invariants,
mine-discrepancy.  Exit codes: 0 success, 1 semantic failure (a
verification that finds violations, or an invariant undefined on the
instance), 2 usage or parse error, 3 size guard exceeded.

JSON output is a stable one-line envelope {backend, command, inputs,
outputs}, backend naming the kernel that ran; keys inside outputs are
documented in the README.  CSV rows keep a fixed column order.
Orientation codes print as bitstrings, first edge of the base as the
most significant bit.

Only the modules a command runs are loaded: solve and verify never
import families or invariants, and each command's parser is built on
its first use in the process.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import kernel, solver
from .coloring import Coloring, DominationMode, verify
from .formats import (
    FormatError,
    RunResult,
    emit_coloring,
    emit_csv,
    emit_digraph,
    emit_json,
    parse_base,
    parse_coloring,
    parse_digraph,
)
from .graphs import BaseGraph, cycle_base, path_base, star_base
from .solver import GuardExceeded, UndefinedInvariant, dominator_chromatic_number, sweep

if TYPE_CHECKING:
    from .families import ConstructiveWitness, FamilySpec

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _mode(args: argparse.Namespace) -> DominationMode:
    return DominationMode(args.mode)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _write_json(command: str, inputs: dict[str, Any], outputs: dict[str, Any]) -> None:
    result = RunResult(command, inputs, outputs, kernel.backend_name)
    sys.stdout.write(emit_json(result))


def _print_result(
    args: argparse.Namespace,
    command: str,
    inputs: dict[str, Any],
    outputs: dict[str, Any],
    text: str,
) -> None:
    if args.json:
        _write_json(command, inputs, outputs)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- solve


def _cmd_solve(args: argparse.Namespace) -> int:
    mode = _mode(args)
    d = parse_digraph(_read(args.digraph))
    t0 = time.perf_counter()
    out = dominator_chromatic_number(d, mode)
    outputs: dict[str, Any] = {
        "value": out.value,
        "witness": list(out.witness.assignment) if out.witness else None,
        "mode": mode.value,
        "nodes_explored": out.nodes_explored,
        "elapsed_ms": _ms(t0),
    }
    if args.json:
        _write_json("solve", {"digraph": args.digraph, "mode": mode.value}, outputs)
    elif out.value is None:
        sys.stdout.write("value: infeasible\n")
    else:
        witness = " ".join(str(c) for c in out.witness.assignment)
        sys.stdout.write(f"value: {out.value}\nwitness: {witness}\n")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = _mode(args)
    d = parse_digraph(_read(args.digraph))
    c = parse_coloring(_read(args.coloring))
    if c.n != d.n:
        raise FormatError(f"coloring covers {c.n} vertices, digraph has {d.n}")
    t0 = time.perf_counter()
    verdict = verify(d, c, mode)
    rows = []
    lines = []
    for v in verdict.violations:
        if v.kind == "properness":
            rows.append({"kind": v.kind, "arc": list(v.arc)})
            lines.append(f"improper arc {v.arc[0]} {v.arc[1]}")
        else:
            rows.append({"kind": v.kind, "vertex": v.vertex})
            lines.append(f"vertex {v.vertex} dominates no class")
    outputs = {
        "ok": verdict.ok,
        "violations": rows,
        "mode": mode.value,
        "elapsed_ms": _ms(t0),
    }
    inputs = {"digraph": args.digraph, "coloring": args.coloring, "mode": mode.value}
    text = "ok\n" if verdict.ok else "".join(f"{ln}\n" for ln in lines)
    _print_result(args, "verify", inputs, outputs, text)
    return EXIT_OK if verdict.ok else EXIT_FAILURE


# ---------------------------------------------------------------- sweep


class _SweepKind(NamedTuple):
    """A sweep base kind: the function that makes its base from n; the
    vertex count, edge count and whether its codes are enumerated
    (graphs.codes_enumerated) of that base, as functions of n, so sizes
    are checked before any graph is built; and the closed-form minimum
    over orientations."""

    build: Callable[[int], BaseGraph]
    vertices: Callable[[int], int]
    edges: Callable[[int], int]
    enumerated: Callable[[int], bool]
    min_formula: Callable[[int], int]


def _path_min(n: int) -> int:
    from .families import path_min_formula

    return path_min_formula(n)


def _cycle_min(n: int) -> int:
    from .families import cycle_min_formula

    return cycle_min_formula(n)


# sweep base kind -> _SweepKind; a star on n leaves has n + 1 vertices,
# and on one leaf it is a path, whose codes are enumerated
_SWEEP_KINDS = {
    "path": _SweepKind(path_base, lambda n: n, lambda n: n - 1, lambda n: True, _path_min),
    "cycle": _SweepKind(cycle_base, lambda n: n, lambda n: n, lambda n: True, _cycle_min),
    "star": _SweepKind(star_base, lambda n: n + 1, lambda n: n, lambda n: n < 2, lambda n: 2),
}

# sweep CSV columns: (header, key of the JSON row)
_SWEEP_CSV = (
    ("n", "n"),
    ("min", "min_value"),
    ("max", "max_value"),
    ("formula", "formula"),
    ("matches_formula", "matches_formula"),
    ("orientations", "orientations"),
    ("infeasible", "infeasible_count"),
)


def _range_from(args: argparse.Namespace) -> range:
    """The sizes asked for, as a range: a size guard then sees its ends
    without a list of every size being built first."""
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise FormatError("give either --n or --n-min/--n-max, not both")
        return range(args.n, args.n + 1)
    if args.n_min is None or args.n_max is None:
        raise FormatError("need --n or both --n-min and --n-max")
    if args.n_min > args.n_max:
        raise FormatError("--n-min must not exceed --n-max")
    return range(args.n_min, args.n_max + 1)


def _cmd_sweep(args: argparse.Namespace) -> int:
    mode = _mode(args)
    ns = _range_from(args)
    kind = _SWEEP_KINDS[args.base]
    # both counts grow with n, so the largest base checks the range
    top = ns[-1]
    solver.check_sweep_size(kind.vertices(top), kind.edges(top), kind.enumerated(top))
    t0 = time.perf_counter()
    rows = []
    for n in ns:
        rep = sweep(kind.build(n), mode, workers=args.workers)
        formula = kind.min_formula(n)
        rows.append(
            {
                "n": n,
                "orientations": rep.orientations,
                "distribution": {str(k): v for k, v in rep.distribution.items()},
                "infeasible_count": rep.infeasible_count,
                "min_value": rep.min_value,
                "max_value": rep.max_value,
                "argmin_codes": [c.bitstring for c in rep.argmin_codes],
                "argmax_codes": [c.bitstring for c in rep.argmax_codes],
                "argmin_overflow": rep.argmin_overflow,
                "argmax_overflow": rep.argmax_overflow,
                "formula": formula,
                "matches_formula": rep.min_value == formula,
                "kernel_solves": rep.kernel_solves,
            }
        )
    inputs = {"base": args.base, "n": list(ns), "mode": mode.value, "workers": args.workers}
    outputs = {"rows": rows, "mode": mode.value, "elapsed_ms": _ms(t0)}
    if args.csv:
        header = [head for head, _ in _SWEEP_CSV]
        csv_rows = [[r[key] for _, key in _SWEEP_CSV] for r in rows]
        sys.stdout.write(emit_csv(header, csv_rows))
        return EXIT_OK
    text = "".join(
        f"n={r['n']} min={r['min_value']} max={r['max_value']} "
        f"formula={r['formula']} match={str(r['matches_formula']).lower()} "
        f"orientations={r['orientations']} infeasible={r['infeasible_count']}\n"
        for r in rows
    )
    _print_result(args, "sweep", inputs, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- family


def _family_witness(args: argparse.Namespace) -> tuple[FamilySpec, ConstructiveWitness]:
    from .families import (
        ConstructiveWitness,
        FamilySpec,
        directed_cycle,
        directed_path,
        family_witness,
    )

    spec = FamilySpec(args.kind, tuple(args.params))
    if args.directed:
        if args.kind not in ("path", "cycle"):
            raise FormatError("--directed applies only to path and cycle")
        n = spec.params[0]
        d = directed_path(n) if args.kind == "path" else directed_cycle(n)
        return spec, ConstructiveWitness(d, Coloring(list(range(n)), n), n)
    return spec, family_witness(spec)


def _cmd_family(args: argparse.Namespace) -> int:
    spec, w = _family_witness(args)
    if args.emit_digraph or args.emit_witness:
        if args.emit_digraph:
            sys.stdout.write(emit_digraph(w.digraph))
        if args.emit_witness:
            sys.stdout.write(emit_coloring(w.coloring))
        return EXIT_OK
    outputs = {
        "kind": spec.kind,
        "params": list(spec.params),
        "n": w.digraph.n,
        "arcs": [list(a) for a in w.digraph.arcs],
        "witness": list(w.coloring.assignment),
        "claimed_value": w.claimed_value,
    }
    inputs = {"kind": spec.kind, "params": list(spec.params), "directed": args.directed}
    text = (
        f"family: {spec.kind} {list(spec.params)}\n"
        f"vertices: {w.digraph.n}, arcs: {len(w.digraph.arcs)}\n"
        f"claimed value: {w.claimed_value}\n"
        f"witness: {' '.join(str(c) for c in w.coloring.assignment)}\n"
    )
    _print_result(args, "family", inputs, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- formulas


def _cmd_formulas(args: argparse.Namespace) -> int:
    ns = _range_from(args)
    fn = _SWEEP_KINDS[args.base].min_formula
    rows = [{"n": n, "value": fn(n)} for n in ns]
    if args.csv:
        sys.stdout.write(emit_csv(["n", "value"], [[r["n"], r["value"]] for r in rows]))
        return EXIT_OK
    inputs = {"base": args.base, "n_min": ns[0], "n_max": ns[-1]}
    outputs = {"rows": rows}
    text = "".join(f"n={r['n']} value={r['value']}\n" for r in rows)
    _print_result(args, "formulas", inputs, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- invariants


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .invariants import dominator_gap, orientation_gap

    mode = _mode(args)
    if args.star:
        if args.base is None:
            raise FormatError("--star needs --base <base-file>")
        if args.digraph is not None:
            raise FormatError("give either a digraph file or --base, not both")
        base = parse_base(_read(args.base))
        t0 = time.perf_counter()
        rep = orientation_gap(base, mode)
        outputs = {
            "chromatic_value": rep.chromatic_value,
            "min_value": rep.min_dominator_value,
            "max_value": rep.max_dominator_value,
            "max_gap": rep.max_gap,
            "spread": rep.spread,
            "table_value": rep.table_value,
            "mode": mode.value,
            "elapsed_ms": _ms(t0),
        }
        inputs = {"base": args.base, "star": True, "mode": mode.value}
        text = (
            f"chromatic value: {rep.chromatic_value}\n"
            f"min over orientations: {rep.min_dominator_value}\n"
            f"max over orientations: {rep.max_dominator_value}\n"
            f"max gap: {rep.max_gap}\n"
            f"spread: {rep.spread}\n"
            f"table value: {rep.table_value}\n"
        )
        _print_result(args, "invariants", inputs, outputs, text)
        return EXIT_OK
    if args.digraph is None:
        raise FormatError("need a digraph file, or --base with --star")
    d = parse_digraph(_read(args.digraph))
    t0 = time.perf_counter()
    rep = dominator_gap(d, mode)
    outputs = {
        "dominator_value": rep.dominator_value,
        "chromatic_value": rep.chromatic_value,
        "gap": rep.gap,
        "mode": mode.value,
        "elapsed_ms": _ms(t0),
    }
    inputs = {"digraph": args.digraph, "mode": mode.value}
    text = (
        f"dominator value: {rep.dominator_value}\n"
        f"chromatic value: {rep.chromatic_value}\n"
        f"gap: {rep.gap}\n"
    )
    _print_result(args, "invariants", inputs, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- mine-discrepancy


def _cmd_mine(args: argparse.Namespace) -> int:
    from .families import directed_cycle, tilde_cycle

    mode = _mode(args)
    ns = _range_from(args)
    if ns[0] < 3:
        raise FormatError("tilde-cycle needs n >= 3")
    # the tilde cycle of the largest n has the most vertices, n + 1
    solver.check_solvable_size(ns[-1] + 1)
    t0 = time.perf_counter()
    rows = []
    for n in ns:
        # dominator_discrepancy, with each digraph solved once: the
        # directed cycle is the first n arcs of the tilde cycle, so the
        # identity embedding needs no check
        host_value = dominator_chromatic_number(tilde_cycle(n), mode).value
        sub_value = dominator_chromatic_number(directed_cycle(n), mode).value
        if host_value is None or sub_value is None:
            raise UndefinedInvariant(
                "discrepancy undefined: infeasible instance in this mode"
            )
        rows.append(
            {
                "n": n,
                "host_value": host_value,
                "sub_value": sub_value,
                "discrepancy": sub_value - host_value,
            }
        )
    if args.csv:
        sys.stdout.write(
            emit_csv(
                ["n", "host_value", "sub_value", "discrepancy"],
                [[r["n"], r["host_value"], r["sub_value"], r["discrepancy"]] for r in rows],
            )
        )
        return EXIT_OK
    inputs = {
        "family": args.family,
        "n_min": ns[0],
        "n_max": ns[-1],
        "mode": mode.value,
    }
    outputs = {"rows": rows, "mode": mode.value, "elapsed_ms": _ms(t0)}
    text = "".join(
        f"n={r['n']} host={r['host_value']} sub={r['sub_value']} "
        f"discrepancy={r['discrepancy']}\n"
        for r in rows
    )
    _print_result(args, "mine-discrepancy", inputs, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=[m.value for m in DominationMode],
        default=DominationMode.SINK_EXEMPT.value,
        help="domination requirement (default: sink-exempt)",
    )


def _add_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="single size")
    p.add_argument("--n-min", type=int, default=None, help="range start")
    p.add_argument("--n-max", type=int, default=None, help="range end, inclusive")


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph", help="digraph file")
    _add_mode(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_solve)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph")
    p.add_argument("coloring")
    _add_mode(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", choices=list(_SWEEP_KINDS))
    _add_range(p)
    _add_mode(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_sweep)


def _family_args(p: argparse.ArgumentParser) -> None:
    from .families import FAMILY_KINDS

    p.add_argument("kind", choices=list(FAMILY_KINDS))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--emit-digraph", action="store_true")
    p.add_argument("--emit-witness", action="store_true")
    p.add_argument(
        "--directed",
        action="store_true",
        help="use the consistently oriented path/cycle instead of the optimal orientation",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_family)


def _formulas_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", choices=["path", "cycle"])
    _add_range(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_formulas)


def _invariants_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph", nargs="?", default=None, help="digraph file")
    p.add_argument("--base", default=None, help="base graph file")
    p.add_argument(
        "--star",
        action="store_true",
        help="aggregate over all orientations of --base",
    )
    _add_mode(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_invariants)


def _mine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["tilde-cycle"], required=True)
    _add_range(p)
    _add_mode(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_mine)


# command -> (its help line, the function that adds its arguments)
_COMMANDS = {
    "solve": ("dominator chromatic number of a digraph file", _solve_args),
    "verify": ("check a coloring file against a digraph file", _verify_args),
    "sweep": ("solve every orientation of a base graph", _sweep_args),
    "family": ("emit a family member and its witness", _family_args),
    "formulas": ("closed-form minimum table", _formulas_args),
    "invariants": ("gap report for a digraph or a base graph", _invariants_args),
    "mine-discrepancy": ("sub-digraph vs host dominator values by family", _mine_args),
}

def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominator colorings of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on its first use in this
    process from the same arguments as build_parser's; parse_args leaves
    it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(prog=f"domchrom {name}")
    _COMMANDS[name][1](parser)
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a named subcommand parses its own arguments in one pass; the full
    # parser handles help, a missing command and an unknown one
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except UndefinedInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
