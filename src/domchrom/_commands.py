"""The sweep, family, formulas, invariants and mine-discrepancy commands.

cli declares all seven commands and runs solve and verify itself.  It
imports this module the first time one of these five runs, or when
build_parser builds the full parser, so a solve or verify process never
compiles it.  HANDLERS gives cli each command's handler and the function
that adds its own arguments; cli adds --json and --csv.

The handlers call each library function from the module that defines
it.  Only a one-size sweep goes through cli, calling cli.sweep, the
binding perfbench's tracer wraps.  A range of sizes imports
sweeping.sweeps where it calls it, so family, formulas,
mine-discrepancy and invariants without --star never load sweeping.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable

from . import cli
from .cli import EXIT_OK, _add_mode, _ms, _print_result, _read
from .coloring import Coloring, DominationMode
from .formats import emit_coloring, emit_digraph, parse_base, parse_digraph
from .graphs import cycle_base, path_base, star_base
from .solver import (
    GuardExceeded,
    UndefinedInvariant,
    check_automaton_size,
    check_solvable_size,
    dominator_chromatic_number,
)

# the most vertices of a family member that family builds, as many as an
# automaton sweep takes
FAMILY_MAX_VERTICES = 1000
# the most sizes that one formulas call tabulates
FORMULAS_MAX_SIZES = 100_000


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
    check_automaton_size(ns[-1] + past_n)
    # every sweep runs in this process: --workers is checked, not used
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    t0 = time.perf_counter()
    bases = [build(n) for n in ns]
    if len(bases) == 1:
        # through cli.sweep, the one-base case, which perfbench's tracer wraps
        reports = [cli.sweep(bases[0], mode)]
    else:
        from .sweeping import sweeps

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
    # len() of a range longer than sys.maxsize raises OverflowError
    sizes = ns.stop - ns.start
    if sizes > FORMULAS_MAX_SIZES:
        raise GuardExceeded(
            f"formulas over {sizes} sizes exceeds the guard of {FORMULAS_MAX_SIZES}"
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
    check_solvable_size(ns[-1] + 1)
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


# ---------------------------------------------------------------- arguments


def _add_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="single size")
    p.add_argument("--n-min", type=int, default=None, help="range start")
    p.add_argument("--n-max", type=int, default=None, help="range end, inclusive")


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


# command -> (its handler, the function that adds its own arguments)
HANDLERS = {
    "sweep": (_cmd_sweep, _sweep_args),
    "family": (_cmd_family, _family_args),
    "formulas": (_cmd_formulas, _formulas_args),
    "invariants": (_cmd_invariants, _invariants_args),
    "mine-discrepancy": (_cmd_mine, _mine_args),
}
