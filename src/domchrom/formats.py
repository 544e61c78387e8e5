"""Text formats for digraphs, base graphs, and colorings, plus the
machine-readable result envelope used by the command line.

All three text formats are line-based with LF endings and single
spaces: a header line naming the object and its sizes, then one line
per arc, edge, or vertex.  parse and emit are exact inverses on valid
files.  Parse errors carry the offending line number.
"""

from __future__ import annotations

import io
import json
from typing import Any, Sequence

from .coloring import Coloring, _label_error
from .graphs import BaseGraph, Digraph


class FormatError(ValueError):
    """A text payload violates its format; line is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _lines(text: str) -> list[str]:
    if not text:
        raise FormatError("empty input")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _ints(raw: str, count: int, lineno: int) -> list[int]:
    parts = raw.split()
    if len(parts) != count:
        raise FormatError(f"expected {count} fields, got {len(parts)}", lineno)
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise FormatError(f"non-integer token {p!r}", lineno)
    return out


def _header(lines: list[str], tag: str, count: int) -> list[int]:
    parts = lines[0].split()
    if not parts or parts[0] != tag:
        raise FormatError(f"header must start with {tag!r}", 1)
    if len(parts) != count + 1:
        raise FormatError(f"header needs {count} integer(s) after {tag!r}", 1)
    out = []
    for p in parts[1:]:
        try:
            out.append(int(p))
        except ValueError:
            raise FormatError(f"non-integer token {p!r}", 1)
    return out


def _check_endpoint(x: int, n: int, lineno: int) -> None:
    if not (0 <= x < n):
        raise FormatError(f"vertex {x} out of range 0..{n - 1}", lineno)


def parse_digraph(text: str) -> Digraph:
    lines = _lines(text)
    (n,) = _header(lines, "digraph", 1)
    if n < 1:
        raise FormatError("vertex count must be positive", 1)
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        # one pass per line; a line that fails any check is re-read by
        # _arc_error, which names the first check it fails
        try:
            a, b = raw.split()
            arc = (int(a), int(b))
        except ValueError:
            raise _arc_error(raw, n, seen, lineno) from None
        u, v = arc
        if not (0 <= u < n and 0 <= v < n) or u == v or arc in seen or (v, u) in seen:
            raise _arc_error(raw, n, seen, lineno)
        seen.add(arc)
        arcs.append(arc)
    return Digraph._from_checked(n, tuple(arcs))


def _arc_error(raw: str, n: int, seen: set[tuple[int, int]], lineno: int) -> FormatError:
    """The error for an arc line that parse_digraph rejects."""
    try:
        u, v = _ints(raw, 2, lineno)
        _check_endpoint(u, n, lineno)
        _check_endpoint(v, n, lineno)
    except FormatError as exc:
        return exc
    if u == v:
        return FormatError(f"loop at vertex {u}", lineno)
    if (u, v) in seen:
        return FormatError(f"duplicate arc {u} {v}", lineno)
    return FormatError(f"digon: arc {v} {u} already present", lineno)


def parse_base(text: str) -> BaseGraph:
    lines = _lines(text)
    (n,) = _header(lines, "graph", 1)
    if n < 1:
        raise FormatError("vertex count must be positive", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        u, v = _ints(raw, 2, lineno)
        _check_endpoint(u, n, lineno)
        _check_endpoint(v, n, lineno)
        if u >= v:
            raise FormatError("edge must list the smaller endpoint first", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge {u} {v}", lineno)
        seen.add((u, v))
        edges.append((u, v))
    return BaseGraph._from_checked(n, tuple(edges))


def parse_coloring(text: str) -> Coloring:
    lines = _lines(text)
    n, k = _header(lines, "coloring", 2)
    if n < 1:
        raise FormatError("vertex count must be positive", 1)
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, got {len(lines) - 1}", 1)
    assignment: list[int | None] = [None] * n
    for lineno, raw in enumerate(lines[1:], start=2):
        # one pass per line; a line that fails any check is re-read by
        # _vertex_error, which names the first check it fails
        try:
            a, b = raw.split()
            v, c = int(a), int(b)
        except ValueError:
            raise _vertex_error(raw, n, assignment, lineno) from None
        if not 0 <= v < n or assignment[v] is not None or c < 0:
            raise _vertex_error(raw, n, assignment, lineno)
        assignment[v] = c
    error = _label_error(assignment, k)  # type: ignore[arg-type]
    if error is not None:
        raise FormatError(error)
    return Coloring._from_checked(tuple(assignment), k)  # type: ignore[arg-type]


def _vertex_error(
    raw: str, n: int, assignment: list[int | None], lineno: int
) -> FormatError:
    """The error for a vertex line that parse_coloring rejects."""
    try:
        v, c = _ints(raw, 2, lineno)
        _check_endpoint(v, n, lineno)
    except FormatError as exc:
        return exc
    if assignment[v] is not None:
        return FormatError(f"vertex {v} assigned twice", lineno)
    return FormatError(f"negative class {c}", lineno)


def emit_digraph(d: Digraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in d.arcs)
    return f"digraph {d.n}\n{body}"


def emit_base(g: BaseGraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in g.edges)
    return f"graph {g.n}\n{body}"


def emit_coloring(c: Coloring) -> str:
    body = "".join(f"{v} {cls}\n" for v, cls in enumerate(c.assignment))
    return f"coloring {c.n} {c.k}\n{body}"


def emit_json(
    command: str, inputs: dict[str, Any], outputs: dict[str, Any], backend: str
) -> str:
    """The envelope of one command invocation as one line of JSON with
    sorted keys: the command name, an echo of its parameters, the
    structured payload it produced, and the kernel backend that ran."""
    payload = {"backend": backend, "command": command, "inputs": inputs, "outputs": outputs}
    return json.dumps(payload, sort_keys=True) + "\n"


def emit_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    import csv  # only the CSV outputs load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(
            [
                "" if x is None else ("true" if x is True else "false" if x is False else x)
                for x in row
            ]
        )
    return buf.getvalue()
