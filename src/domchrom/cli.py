"""Command-line interface.

Subcommands: solve, verify, sweep, family, formulas, invariants,
mine-discrepancy.  Exit codes: 0 success, 1 semantic failure (a
verification that finds violations, or an invariant undefined on the
instance), 2 usage or parse error, 3 size guard exceeded.

Each command writes its result once, through _print_result: a CSV
table when the command has one (sweep, formulas, mine-discrepancy) and
--csv is given, else the JSON envelope under --json, else text; only
family --emit-* writes raw files instead.  The JSON envelope is one
stable line {backend, command, inputs, outputs}, backend naming the
kernel that ran; keys inside outputs are documented in the README.  CSV
rows keep a fixed column order.  Orientation codes print as bitstrings,
first edge of the base as the most significant bit.

Each command is declared once, as its row of _COMMANDS: its help line,
its handler, the function that adds its own arguments, and whether it
prints a CSV table.  _add_arguments builds both the full parser's
subcommand and the command's own parser from that row: the own
arguments, then --json, then --csv for a table, then the handler.

Only the modules a command runs are loaded: solve and verify never
import families or invariants, and each command's parser is built on
its first use in the process.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Callable, Iterable

from . import kernel, solver
from .coloring import Coloring, DominationMode, verify
from .formats import (
    emit_coloring,
    emit_csv,
    emit_digraph,
    emit_json,
    parse_base,
    parse_coloring,
    parse_digraph,
)
from .graphs import cycle_base, path_base, star_base
from .solver import (
    GuardExceeded,
    UndefinedInvariant,
    dominator_chromatic_number,
    sweep,
    sweeps,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# the most vertices of a family member that family builds, as many as an
# automaton sweep takes
FAMILY_MAX_VERTICES = 1000
# the most sizes that one formulas call tabulates
FORMULAS_MAX_SIZES = 100_000


def _read(path: str) -> str:
    """The file as text mode reads it, UTF-8 with universal newlines,
    from one unbuffered bytes read: only text holding a CR pays for the
    newline translation."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.readall().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _print_result(
    args: argparse.Namespace,
    command: str,
    inputs: dict[str, Any],
    outputs: dict[str, Any] | Callable[[], dict[str, Any]],
    text: str | Callable[[], str],
    table: tuple[list[str], Iterable[list[Any]]] | None = None,
) -> None:
    """Write the result: table (header, rows) as CSV under --csv, else
    the envelope of outputs under --json, else text.  outputs and text
    may each be the function that builds it, and the table's rows a
    generator, so work that only one format prints is done only for it."""
    if table is not None and args.csv:
        result = emit_csv(*table)
    elif args.json:
        if callable(outputs):
            outputs = outputs()
        result = emit_json(command, inputs, outputs, kernel.backend_name)
    else:
        result = text() if callable(text) else text
    sys.stdout.write(result)


# ---------------------------------------------------------------- solve


def _cmd_solve(args: argparse.Namespace) -> int:
    mode = DominationMode(args.mode)
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

    def text() -> str:
        if out.value is None:
            return "value: infeasible\n"
        return f"value: {out.value}\nwitness: {' '.join(map(str, outputs['witness']))}\n"

    _print_result(args, "solve", {"digraph": args.digraph, "mode": mode.value}, outputs, text)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = DominationMode(args.mode)
    d = parse_digraph(_read(args.digraph))
    c = parse_coloring(_read(args.coloring))
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


# sweep base kind -> (the function that builds its base on n, the
# vertices of that base past n, so sizes are checked before any graph
# is built); a star on n leaves has n + 1 vertices
_SWEEP_KINDS = {"path": (path_base, 0), "cycle": (cycle_base, 0), "star": (star_base, 1)}


def _min_formula(kind: str) -> Callable[[int], int]:
    """The closed-form minimum over the orientations of kind's base on
    n; families loads only for a path or a cycle."""
    if kind == "star":
        return lambda n: 2
    from .families import cycle_min_formula, path_min_formula

    return path_min_formula if kind == "path" else cycle_min_formula


# sweep CSV column header -> key of the JSON row, in column order
_SWEEP_CSV = {
    "n": "n",
    "min": "min_value",
    "max": "max_value",
    "formula": "formula",
    "matches_formula": "matches_formula",
    "orientations": "orientations",
    "infeasible": "infeasible_count",
}


def _range_from(args: argparse.Namespace) -> range:
    """The sizes asked for, as a range: a size guard then sees its ends
    without a list of every size being built first."""
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ValueError("give either --n or --n-min/--n-max, not both")
        return range(args.n, args.n + 1)
    if args.n_min is None or args.n_max is None:
        raise ValueError("need --n or both --n-min and --n-max")
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    return range(args.n_min, args.n_max + 1)


def _cmd_sweep(args: argparse.Namespace) -> int:
    mode = DominationMode(args.mode)
    ns = _range_from(args)
    build, past_n = _SWEEP_KINDS[args.base]
    # every kind sweeps through its automaton, bar the 1-vertex path and
    # the 3- and 4-cycle, which solve each code well inside every guard;
    # the vertex count grows with n, so the largest base checks the range
    solver.check_automaton_size(ns[-1] + past_n)
    t0 = time.perf_counter()
    bases = [build(n) for n in ns]
    # every sweep runs in this process: --workers is checked, not used
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    if len(bases) == 1:
        # through sweep, the one-base case, which perfbench's tracer wraps
        reports = [sweep(bases[0], mode)]
    else:
        # the sizes one automaton covers share one counting pass
        reports = sweeps(bases, mode)
    rows = []
    min_formula = _min_formula(args.base)
    for n, rep in zip(ns, reports):
        formula = min_formula(n)
        rows.append(
            {
                "n": n,
                "orientations": rep.orientations,
                "distribution": {str(k): v for k, v in rep.distribution.items()},
                "infeasible_count": rep.infeasible_count,
                "min_value": rep.min_value,
                "max_value": rep.max_value,
                "argmin_overflow": rep.argmin_overflow,
                "argmax_overflow": rep.argmax_overflow,
                "formula": formula,
                "matches_formula": rep.min_value == formula,
                "kernel_solves": rep.kernel_solves,
            }
        )

    def outputs() -> dict[str, Any]:
        # only JSON prints codes, so only JSON walks for them; an m-digit
        # bitstring: a guard bit at m pads the binary digits
        for row, rep in zip(rows, reports):
            guard = 1 << len(rep.base.edges)
            row["argmin_codes"] = [bin(c | guard)[3:] for c in rep.argmin_codes]
            row["argmax_codes"] = [bin(c | guard)[3:] for c in rep.argmax_codes]
        return {"rows": rows, "mode": mode.value, "elapsed_ms": _ms(t0)}

    inputs = {"base": args.base, "n": list(ns), "mode": mode.value, "workers": args.workers}
    table = (list(_SWEEP_CSV), ([r[key] for key in _SWEEP_CSV.values()] for r in rows))
    text = "".join(
        f"n={r['n']} min={r['min_value']} max={r['max_value']} "
        f"formula={r['formula']} match={str(r['matches_formula']).lower()} "
        f"orientations={r['orientations']} infeasible={r['infeasible_count']}\n"
        for r in rows
    )
    _print_result(args, "sweep", inputs, outputs, text, table)
    return EXIT_OK


# ---------------------------------------------------------------- family


def _cmd_family(args: argparse.Namespace) -> int:
    from .families import (
        ConstructiveWitness,
        FamilySpec,
        directed_cycle,
        directed_path,
        family_witness,
        member_vertices,
    )

    spec = FamilySpec(args.kind, tuple(args.params))
    n = member_vertices(spec)
    if n > FAMILY_MAX_VERTICES:
        raise GuardExceeded(
            f"family member with {n} vertices exceeds the guard of {FAMILY_MAX_VERTICES}"
        )
    if args.directed:
        if args.kind not in ("path", "cycle"):
            raise ValueError("--directed applies only to path and cycle")
        d = directed_path(n) if args.kind == "path" else directed_cycle(n)
        w = ConstructiveWitness(d, Coloring(list(range(n)), n), n)
    else:
        w = family_witness(spec)
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
    if len(ns) > FORMULAS_MAX_SIZES:
        raise GuardExceeded(
            f"formulas over {len(ns)} sizes exceeds the guard of {FORMULAS_MAX_SIZES}"
        )
    fn = _min_formula(args.base)
    rows = [{"n": n, "value": fn(n)} for n in ns]
    inputs = {"base": args.base, "n_min": ns[0], "n_max": ns[-1]}
    text = "".join(f"n={r['n']} value={r['value']}\n" for r in rows)
    table = (["n", "value"], ([r["n"], r["value"]] for r in rows))
    _print_result(args, "formulas", inputs, {"rows": rows}, text, table)
    return EXIT_OK


# ---------------------------------------------------------------- invariants


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .invariants import dominator_gap, orientation_gap

    mode = DominationMode(args.mode)
    if args.digraph is not None and args.base is not None:
        raise ValueError("give either a digraph file or --base, not both")
    if args.star:
        if args.base is None:
            raise ValueError("--star needs --base <base-file>")
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
        raise ValueError("need a digraph file, or --base with --star")
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

    mode = DominationMode(args.mode)
    ns = _range_from(args)
    if ns[0] < 3:
        raise ValueError("tilde-cycle needs n >= 3")
    # the tilde cycle of the largest n has the most vertices, n + 1
    solver.check_solvable_size(ns[-1] + 1)
    t0 = time.perf_counter()
    rows = []
    for n in ns:
        # dominator_discrepancy, with each digraph solved once: the
        # directed cycle is the first n arcs of the tilde cycle, so the
        # vertex map range(n) needs no check
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
    header = ["n", "host_value", "sub_value", "discrepancy"]
    table = (header, ([r[key] for key in header] for r in rows))
    _print_result(args, "mine-discrepancy", inputs, outputs, text, table)
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


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph")
    p.add_argument("coloring")
    _add_mode(p)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", choices=list(_SWEEP_KINDS))
    _add_range(p)
    _add_mode(p)
    p.add_argument("--workers", type=int, default=1)


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


def _formulas_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", choices=["path", "cycle"])
    _add_range(p)


def _invariants_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph", nargs="?", default=None, help="digraph file")
    p.add_argument("--base", default=None, help="base graph file")
    p.add_argument(
        "--star",
        action="store_true",
        help="aggregate over all orientations of --base",
    )
    _add_mode(p)


def _mine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["tilde-cycle"], required=True)
    _add_range(p)
    _add_mode(p)


# command -> (its help line, its handler, the function that adds its
# own arguments, whether it prints a CSV table)
_COMMANDS = {
    "solve": ("dominator chromatic number of a digraph file", _cmd_solve, _solve_args, False),
    "verify": ("check a coloring file against a digraph file", _cmd_verify, _verify_args, False),
    "sweep": ("solve every orientation of a base graph", _cmd_sweep, _sweep_args, True),
    "family": ("emit a family member and its witness", _cmd_family, _family_args, False),
    "formulas": ("closed-form minimum table", _cmd_formulas, _formulas_args, True),
    "invariants": (
        "gap report for a digraph or a base graph",
        _cmd_invariants,
        _invariants_args,
        False,
    ),
    "mine-discrepancy": (
        "sub-digraph vs host dominator values by family",
        _cmd_mine,
        _mine_args,
        True,
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Add command name's own arguments, then --json, then --csv when it
    prints a table, and set its handler."""
    _, handler, add_own_arguments, table = _COMMANDS[name]
    add_own_arguments(parser)
    parser.add_argument("--json", action="store_true")
    if table:
        parser.add_argument("--csv", action="store_true")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominator colorings of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on its first use in this
    process by the same _add_arguments as build_parser's, with the
    defaults _plain_args starts from; parse_args leaves it unchanged, so
    calls share it."""
    parser = argparse.ArgumentParser(prog=f"domchrom {name}")
    _add_arguments(parser, name)
    parser._plain_defaults = _plain_defaults(parser)
    return parser


def _plain_defaults(parser: argparse.ArgumentParser) -> dict[str, Any] | None:
    """The values parse_args starts its namespace from, set_defaults'
    included, when every action of parser takes at most one value, as
    _plain_args reads them.  Otherwise None: family's params and
    invariants' optional digraph are left to parse_args."""
    defaults = dict(parser._defaults)
    for action in parser._actions:
        if action.nargs not in (None, 0):
            return None
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
    return defaults


def _value(action: argparse.Action, token: str) -> Any:
    """token as parse_args stores it for action, or None when parse_args
    refuses it; int is the one type any command declares."""
    if action.type is not None:
        try:
            token = action.type(token)
        except ValueError:
            return None
    return token if action.choices is None or token in action.choices else None


def _plain_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace parser.parse_args(argv) gives, when argv is plain:
    exact option strings of parser, each at most once and followed by
    its value, and as many positionals as parser has, no value or
    positional starting with "-", and every value one that parse_args
    accepts.  Otherwise None, and parse_args does the rest, with its
    help, usage and error lines."""
    defaults = getattr(parser, "_plain_defaults", None)
    if defaults is None:
        return None
    options = parser._option_string_actions
    given: dict[str, Any] = {}
    words = []
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        action = options.get(token)
        if action is None or action.dest in given or isinstance(action, argparse._HelpAction):
            return None
        if action.nargs == 0:  # a store_true flag
            value = action.const
        else:
            token = next(tokens, "-")
            value = None if token[:1] == "-" else _value(action, token)
            if value is None:
                return None
        given[action.dest] = value
    positionals = parser._get_positional_actions()
    if len(words) != len(positionals):
        return None
    for action, token in zip(positionals, words):
        value = _value(action, token)
        if value is None:
            return None
        given[action.dest] = value
    if any(action.required and action.dest not in given for action in parser._actions):
        return None
    return argparse.Namespace(**{**defaults, **given})


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a named subcommand parses its own arguments in one pass; the full
    # parser handles help, a missing command and an unknown one
    try:
        if argv and argv[0] in _COMMANDS:
            parser = _command_parser(argv[0])
            args = _plain_args(parser, argv[1:])
            if args is None:
                args = parser.parse_args(argv[1:])
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
