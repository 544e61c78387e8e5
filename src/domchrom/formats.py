"""Text formats for digraphs, base graphs, and colorings, plus the
machine-readable result envelope used by the command line.

All three text formats are line-based with LF endings: a header line
naming the object and its sizes, then one line per arc, edge, or
vertex.  emit_* separate fields with single spaces; the parsers split
a line with str.split(), so any run of whitespace (tabs, NBSP and
vertical tabs among it) separates fields, and whitespace at either end
of a line is ignored.  Every number is ASCII digits after an optional
"-", so "01" reads as 1 and "-0" as 0; any other token, "+1", "1_0" or
a non-ASCII digit among them, is a non-integer token.  parse(emit(x)) is
x for every valid object, but emit(parse(text)) gives back text byte
for byte only for a text that emit_* writes.  A parser checks each line
once, in order, and the first check that fails names the error and its
line number; _pairs reads the body lines of all three.  No list is
sized by a header's count alone.
"""

from __future__ import annotations

import io
import json
from typing import Any, Iterable, Iterator, Sequence

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


def _header(lines: list[str], tag: str, count: int) -> list[int]:
    """The count integers after tag on line 1, the first a positive vertex count."""
    parts = lines[0].split()
    if not parts or parts[0] != tag:
        raise FormatError(f"header must start with {tag!r}", 1)
    if len(parts) != count + 1:
        raise FormatError(f"header needs {count} integer(s) after {tag!r}", 1)
    out = [_int(p, 1) for p in parts[1:]]
    if out[0] < 1:
        raise FormatError("vertex count must be positive", 1)
    return out


def _int(token: str, lineno: int) -> int:
    """token as a number of the formats; int() alone also reads a "+", a
    "_" between digits and non-ASCII digits."""
    if token.isascii() and "_" not in token and "+" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise FormatError(f"non-integer token {token!r}", lineno)


# label -> int for the canonical spellings of 0..63, the kernel's vertex
# limit: _pairs reads a token found here without int()
_LABELS = {str(i): i for i in range(64)}


def _pairs(text: str, lines: list[str]) -> Iterator[tuple[int, int, int]]:
    """(lineno, u, v) for each body line of text, the two integers it
    holds; a line's first bad field names the error.  A line whose two
    tokens are both in _LABELS needs no int().  On any other, int() reads
    a token as _int does when text is ASCII and holds no "_" or "+", so
    only another text has each token checked by _int."""
    plain = text.isascii() and "_" not in text and "+" not in text
    label = _LABELS.get
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"expected 2 fields, got {len(parts)}", lineno)
        a, b = parts
        u = label(a)
        v = label(b)
        if u is None or v is None:
            try:
                u, v = int(a), int(b)
            except ValueError:
                plain = False  # _int names the bad token
            if not plain:
                u, v = _int(a, lineno), _int(b, lineno)
        yield lineno, u, v


def _out_of_range(x: int, n: int, lineno: int) -> FormatError:
    return FormatError(f"vertex {x} out of range 0..{n - 1}", lineno)


def parse_digraph(text: str) -> Digraph:
    lines = _lines(text)
    (n,) = _header(lines, "digraph", 1)
    arcs: list[tuple[int, int]] = []
    # arc (u, v) as u * n + v, one int per vertex pair in range
    seen: set[int] = set()
    for lineno, u, v in _pairs(text, lines):
        if not 0 <= u < n:
            raise _out_of_range(u, n, lineno)
        if not 0 <= v < n:
            raise _out_of_range(v, n, lineno)
        if u == v:
            raise FormatError(f"loop at vertex {u}", lineno)
        key = u * n + v
        if key in seen:
            raise FormatError(f"duplicate arc {u} {v}", lineno)
        if v * n + u in seen:
            raise FormatError(f"digon: arc {v} {u} already present", lineno)
        seen.add(key)
        arcs.append((u, v))
    return Digraph._from_checked(n, tuple(arcs))


def parse_base(text: str) -> BaseGraph:
    lines = _lines(text)
    (n,) = _header(lines, "graph", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, u, v in _pairs(text, lines):
        if not 0 <= u < n:
            raise _out_of_range(u, n, lineno)
        if not 0 <= v < n:
            raise _out_of_range(v, n, lineno)
        if u >= v:
            raise FormatError("edge must list the smaller endpoint first", lineno)
        edge = (u, v)
        if edge in seen:
            raise FormatError(f"duplicate edge {u} {v}", lineno)
        seen.add(edge)
        edges.append(edge)
    return BaseGraph._from_checked(n, tuple(edges))


def parse_coloring(text: str) -> Coloring:
    lines = _lines(text)
    n, k = _header(lines, "coloring", 2)
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, got {len(lines) - 1}", 1)
    assignment: list[int | None] = [None] * n
    for lineno, v, c in _pairs(text, lines):
        if not 0 <= v < n:
            raise _out_of_range(v, n, lineno)
        if assignment[v] is not None:
            raise FormatError(f"vertex {v} assigned twice", lineno)
        if c < 0:
            raise FormatError(f"negative class {c}", lineno)
        assignment[v] = c
    error = _label_error(assignment, k)  # type: ignore[arg-type]
    if error is not None:
        raise FormatError(error)
    return Coloring._from_checked(tuple(assignment), k)  # type: ignore[arg-type]


def emit_digraph(d: Digraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in d.arcs)
    return f"digraph {d.n}\n{body}"


def emit_base(g: BaseGraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in g.edges)
    return f"graph {g.n}\n{body}"


def emit_coloring(c: Coloring) -> str:
    body = "".join(f"{v} {cls}\n" for v, cls in enumerate(c.assignment))
    return f"coloring {c.n} {c.k}\n{body}"


# json.dumps builds a new encoder on every call that passes sort_keys
_JSON = json.JSONEncoder(sort_keys=True)


def emit_json(
    command: str, inputs: dict[str, Any], outputs: dict[str, Any], backend: str
) -> str:
    """The envelope of one command invocation as one line of JSON with
    sorted keys: the command name, an echo of its parameters, the
    structured payload it produced, and the kernel backend that ran."""
    payload = {"backend": backend, "command": command, "inputs": inputs, "outputs": outputs}
    return _JSON.encode(payload) + "\n"


def emit_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
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
