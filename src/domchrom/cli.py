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

Each command is declared once: its help line and whether it prints a
CSV table are its row of _COMMANDS, and its handler and the function
that adds its own arguments sit in _HANDLERS here for solve and verify,
and in _commands.HANDLERS for the other five.  _add_arguments builds
both the full parser's subcommand and the command's own parser from
those: the own arguments, then --json, then --csv for a table, then the
handler.  Every handler calls the library functions it uses from the
modules that define them; only a one-size sweep goes through this
module's sweep.

Only the modules a command runs are loaded, and each command's parser
is built on its first use in the process.  solve and verify run from
this module and load nothing past its imports: _commands loads with
the first parser of another command, sweeping, the sweep engine, with
the first sweep, and families and invariants only with the commands
that use them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Callable, Iterable

from . import kernel
from .coloring import DominationMode, verify
from .formats import emit_csv, emit_json, parse_coloring, parse_digraph
from .solver import GuardExceeded, UndefinedInvariant, dominator_chromatic_number, sweep

# sweep serves only _commands' one-size sweep: perfbench's tracer wraps
# this binding.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


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


# ---------------------------------------------------------------- parser


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=[m.value for m in DominationMode],
        default=DominationMode.SINK_EXEMPT.value,
        help="domination requirement (default: sink-exempt)",
    )


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph", help="digraph file")
    _add_mode(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("digraph")
    p.add_argument("coloring")
    _add_mode(p)


# command -> (its help line, whether it prints a CSV table), for every
# command in the order help lists them
_COMMANDS = {
    "solve": ("dominator chromatic number of a digraph file", False),
    "verify": ("check a coloring file against a digraph file", False),
    "sweep": ("solve every orientation of a base graph", True),
    "family": ("emit a family member and its witness", False),
    "formulas": ("closed-form minimum table", True),
    "invariants": ("gap report for a digraph or a base graph", False),
    "mine-discrepancy": ("sub-digraph vs host dominator values by family", True),
}

# command -> (its handler, the function that adds its own arguments), for
# the commands this module runs; _commands.HANDLERS declares the others
_HANDLERS = {
    "solve": (_cmd_solve, _solve_args),
    "verify": (_cmd_verify, _verify_args),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Add command name's own arguments, then --json, then --csv when it
    prints a table, and set its handler.  A command that _commands
    declares imports it here, on the first parser built for one."""
    if name in _HANDLERS:
        handler, add_own_arguments = _HANDLERS[name]
    else:
        from ._commands import HANDLERS

        handler, add_own_arguments = HANDLERS[name]
    add_own_arguments(parser)
    parser.add_argument("--json", action="store_true")
    if _COMMANDS[name][1]:
        parser.add_argument("--csv", action="store_true")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominator colorings of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
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
    # under python -m this module runs as __main__: _commands' import of
    # domchrom.cli must find it, not compile and run this file again
    sys.modules["domchrom.cli"] = sys.modules[__name__]
    main()
