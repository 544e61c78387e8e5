import contextlib
import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domchrom import BaseGraph, Coloring, Digraph, canonicalize, cycle_base, tournament
from domchrom import formats
from domchrom.formats import (
    FormatError,
    emit_base,
    emit_coloring,
    emit_csv,
    emit_digraph,
    emit_json,
    parse_base,
    parse_coloring,
    parse_digraph,
)


def test_digraph_roundtrip():
    d = Digraph(4, [(0, 1), (2, 1), (3, 0)])
    text = emit_digraph(d)
    assert text == "digraph 4\n0 1\n2 1\n3 0\n"
    assert parse_digraph(text) == d


def test_arcless_digraph_roundtrip():
    d = Digraph(3, [])
    assert emit_digraph(d) == "digraph 3\n"
    assert parse_digraph("digraph 3\n") == d


def test_base_roundtrip():
    g = BaseGraph(4, [(0, 1), (1, 2), (0, 3)])
    assert parse_base(emit_base(g)) == g


def test_coloring_roundtrip():
    c = Coloring([0, 1, 0, 2], 3)
    text = emit_coloring(c)
    assert text == "coloring 4 3\n0 0\n1 1\n2 0\n3 2\n"
    assert parse_coloring(text) == c


def test_coloring_parses_in_any_vertex_order():
    text = "coloring 3 2\n2 1\n0 0\n1 1\n"
    assert parse_coloring(text) == Coloring([0, 1, 1], 2)


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("", None, "empty"),
        ("graph 3\n0 1\n", 1, "header"),
        ("digraph\n", 1, "header"),
        ("digraph x\n", 1, "non-integer"),
        ("digraph 0\n", 1, "positive"),
        ("digraph 3\n0\n", 2, "expected 2 fields"),
        ("digraph 3\n0 1 2\n", 2, "expected 2 fields"),
        ("digraph 3\n0 a\n", 2, "non-integer"),
        ("digraph 3\n0 3\n", 2, "out of range"),
        ("digraph 3\n1 1\n", 2, "loop"),
        ("digraph 3\n0 1\n0 1\n", 3, "duplicate arc"),
        ("digraph 3\n0 1\n1 0\n", 3, "digon"),
        # a fragment that starts with the line prefix is the whole message
        ("digraph 3\n3 0\n", 2, "line 2: vertex 3 out of range 0..2"),
        ("digraph 3\n0 1\n1 5\n", 3, "line 3: vertex 5 out of range 0..2"),
        ("digraph 3\n0 -1\n", 2, "line 2: vertex -1 out of range 0..2"),
        ("digraph 3\nx 1\n", 2, "line 2: non-integer token 'x'"),
        ("digraph 3\n0 1\n1 2.5\n", 3, "line 3: non-integer token '2.5'"),
        ("digraph 3\n0 1\n\n1 2\n", 3, "line 3: expected 2 fields, got 0"),
        ("digraph 3\n0 1\n2 2\n", 3, "line 3: loop at vertex 2"),
        ("digraph 3\n0 1\n1 2\n2 1\n", 4, "line 4: digon: arc 1 2 already present"),
        ("digraph 3\n0 1\n1 2\n1 2\n", 4, "line 4: duplicate arc 1 2"),
        # header checks, in order: tag, token count, integers, vertex count
        ("\n0 1\n", 1, "line 1: header must start with 'digraph'"),
        ("graph 3\n", 1, "line 1: header must start with 'digraph'"),
        ("digraph 3 4\n", 1, "line 1: header needs 1 integer(s) after 'digraph'"),
        ("digraph\n0 1\n", 1, "line 1: header needs 1 integer(s) after 'digraph'"),
        ("digraph 3.0\n", 1, "line 1: non-integer token '3.0'"),
        ("digraph -1\n", 1, "line 1: vertex count must be positive"),
        ("digraph 0\n0 1\n", 1, "line 1: vertex count must be positive"),
    ],
)
def test_parse_digraph_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(FormatError) as info:
        parse_digraph(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)
    if lineno is not None:
        assert str(info.value).startswith(f"line {lineno}:")
    if fragment.startswith("line "):
        assert str(info.value) == fragment


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("graph 3\n1 0\n", 2, "smaller endpoint first"),
        ("graph 3\n1 1\n", 2, "smaller endpoint first"),
        ("graph 3\n0 1\n0 1\n", 3, "duplicate edge"),
        ("graph 0\n", 1, "vertex count must be positive"),
        ("digraph 3\n", 1, "header"),
        # a fragment that starts with the line prefix is the whole message;
        # header checks, in order: tag, token count, integers, vertex count
        (" \n", 1, "line 1: header must start with 'graph'"),
        ("graph\n", 1, "line 1: header needs 1 integer(s) after 'graph'"),
        ("graph 1 2\n", 1, "line 1: header needs 1 integer(s) after 'graph'"),
        ("graph x\n", 1, "line 1: non-integer token 'x'"),
        ("graph -2\n", 1, "line 1: vertex count must be positive"),
        # edge line checks, in order: field count, integers, each
        # endpoint's range, endpoint order, repeats
        ("graph 3\n0\n", 2, "line 2: expected 2 fields, got 1"),
        ("graph 3\n0 1 2\n", 2, "line 2: expected 2 fields, got 3"),
        ("graph 3\n0 1\n\n", 3, "line 3: expected 2 fields, got 0"),
        ("graph 3\n0 b\n", 2, "line 2: non-integer token 'b'"),
        ("graph 3\na b\n", 2, "line 2: non-integer token 'a'"),
        ("graph 3\n0 1.0\n", 2, "line 2: non-integer token '1.0'"),
        ("graph 3\n3 1\n", 2, "line 2: vertex 3 out of range 0..2"),
        ("graph 3\n-1 1\n", 2, "line 2: vertex -1 out of range 0..2"),
        ("graph 3\n0 7\n", 2, "line 2: vertex 7 out of range 0..2"),
        ("graph 3\n5 -1\n", 2, "line 2: vertex 5 out of range 0..2"),
        ("graph 3\n2 1\n", 2, "line 2: edge must list the smaller endpoint first"),
        ("graph 3\n0 1\n1 2\n0 1\n", 4, "line 4: duplicate edge 0 1"),
    ],
)
def test_parse_base_errors(text, lineno, fragment):
    with pytest.raises(FormatError) as info:
        parse_base(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)
    assert str(info.value).startswith(f"line {lineno}:")
    if fragment.startswith("line "):
        assert str(info.value) == fragment


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("coloring 2 2\n0 0\n", "expected 2 vertex lines"),
        ("coloring 2 2\n0 0\n1 1\n0 1\n", "expected 2 vertex lines"),
        ("coloring 2 2\n0 0\n0 1\n", "assigned twice"),
        ("coloring 2 2\n0 0\n1 -1\n", "negative class"),
        ("coloring 2 2\n0 0\n1 0\n", "classes are nonempty"),
        ("coloring 2 1\n0 0\n1 1\n", "out of range"),
        ("coloring 0 0\n", "vertex count must be positive"),
    ],
)
def test_parse_coloring_errors(text, fragment):
    with pytest.raises(FormatError) as info:
        parse_coloring(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        # checks on one vertex line, in line order
        ("coloring 3 2\n0 0\n5 1\n1 1\n", 3, "line 3: vertex 5 out of range 0..2"),
        ("coloring 3 2\n-1 0\n0 0\n1 1\n", 2, "line 2: vertex -1 out of range 0..2"),
        ("coloring 3 2\n0 0\n0 1\n1 1\n", 3, "line 3: vertex 0 assigned twice"),
        ("coloring 3 2\n0 0\n1 -2\n2 1\n", 3, "line 3: negative class -2"),
        ("coloring 3 2\n0 0\n1 x\n2 1\n", 3, "line 3: non-integer token 'x'"),
        ("coloring 3 2\n0 0\n1\n2 1\n", 3, "line 3: expected 2 fields, got 1"),
        # a line error wins over a label error on an earlier line
        ("coloring 3 2\n0 5\n0 1\n2 1\n", 3, "line 3: vertex 0 assigned twice"),
        # checks on the whole assignment, in vertex order, with no line
        ("coloring 3 2\n0 0\n1 1\n2 2\n", None, "class 2 at vertex 2 out of range for k=2"),
        ("coloring 3 2\n2 5\n0 0\n1 7\n", None, "class 7 at vertex 1 out of range for k=2"),
        (
            "coloring 3 2\n0 1\n1 0\n2 1\n",
            None,
            "non-canonical labels: class 1 first appears before class 0",
        ),
        ("coloring 3 3\n0 0\n1 1\n2 0\n", None, "only 2 of 3 classes are nonempty"),
        ("coloring 2 0\n0 0\n1 0\n", None, "class count must be positive"),
        # header checks, in order: tag, token count, integers, vertex count
        ("digraph 1\n0 0\n", 1, "line 1: header must start with 'coloring'"),
        ("coloring 3\n", 1, "line 1: header needs 2 integer(s) after 'coloring'"),
        ("coloring 3 2 1\n", 1, "line 1: header needs 2 integer(s) after 'coloring'"),
        ("coloring 3 k\n", 1, "line 1: non-integer token 'k'"),
        ("coloring x y\n", 1, "line 1: non-integer token 'x'"),
        ("coloring 0 x\n", 1, "line 1: non-integer token 'x'"),
        ("coloring 0 1\n0 0\n", 1, "line 1: vertex count must be positive"),
    ],
)
def test_parse_coloring_error_messages_are_exact(text, lineno, message):
    with pytest.raises(FormatError) as info:
        parse_coloring(text)
    assert info.value.line == lineno
    assert str(info.value) == message


@given(st.integers(min_value=1, max_value=8), st.data())
def test_random_digraph_roundtrip(n, data):
    pair_states = data.draw(
        st.lists(
            st.sampled_from(["none", "fwd", "rev"]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    arcs = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            state = pair_states[idx]
            idx += 1
            if state == "fwd":
                arcs.append((u, v))
            elif state == "rev":
                arcs.append((v, u))
    d = Digraph(n, arcs)
    assert parse_digraph(emit_digraph(d)) == d


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10))
def test_random_coloring_roundtrip(raw):
    c = canonicalize(raw)
    assert parse_coloring(emit_coloring(c)) == c


# ---------------------------------------------------------------- reference parsers

# The body-line checks as they were before one generator read all three
# formats: a _pair call with two _int calls per line, and tuple keys for
# a digraph's seen arcs; a token is a number when it is ASCII digits
# after an optional "-".  The parsers must match them record for record
# and message for message.


def _ref_int(token, lineno):
    if re.fullmatch(r"-?[0-9]+", token):
        with contextlib.suppress(ValueError):  # past int()'s digit limit
            return int(token)
    raise FormatError(f"non-integer token {token!r}", lineno)


def _ref_pair(raw, lineno):
    parts = raw.split()
    if len(parts) != 2:
        raise FormatError(f"expected 2 fields, got {len(parts)}", lineno)
    a, b = parts
    return _ref_int(a, lineno), _ref_int(b, lineno)


def _ref_digraph(text):
    lines = formats._lines(text)
    (n,) = formats._header(lines, "digraph", 1)
    arcs = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        u, v = _ref_pair(raw, lineno)
        if not 0 <= u < n:
            raise formats._out_of_range(u, n, lineno)
        if not 0 <= v < n:
            raise formats._out_of_range(v, n, lineno)
        if u == v:
            raise FormatError(f"loop at vertex {u}", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate arc {u} {v}", lineno)
        if (v, u) in seen:
            raise FormatError(f"digon: arc {v} {u} already present", lineno)
        seen.add((u, v))
        arcs.append((u, v))
    return Digraph(n, arcs)


def _ref_base(text):
    lines = formats._lines(text)
    (n,) = formats._header(lines, "graph", 1)
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        u, v = _ref_pair(raw, lineno)
        if not 0 <= u < n:
            raise formats._out_of_range(u, n, lineno)
        if not 0 <= v < n:
            raise formats._out_of_range(v, n, lineno)
        if u >= v:
            raise FormatError("edge must list the smaller endpoint first", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge {u} {v}", lineno)
        seen.add((u, v))
        edges.append((u, v))
    return BaseGraph(n, edges)


def _ref_coloring(text):
    lines = formats._lines(text)
    n, k = formats._header(lines, "coloring", 2)
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, got {len(lines) - 1}", 1)
    assignment = [None] * n
    for lineno, raw in enumerate(lines[1:], start=2):
        v, c = _ref_pair(raw, lineno)
        if not 0 <= v < n:
            raise formats._out_of_range(v, n, lineno)
        if assignment[v] is not None:
            raise FormatError(f"vertex {v} assigned twice", lineno)
        if c < 0:
            raise FormatError(f"negative class {c}", lineno)
        assignment[v] = c
    error = formats._label_error(assignment, k)
    if error is not None:
        raise FormatError(error)
    return Coloring(assignment, k)


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


# int() takes signs, underscores between digits and non-ASCII digits,
# which the formats refuse; the rest are no integers, or out of range
# for any n here
_ODD_TOKENS = st.sampled_from(
    ["+1", "-0", "1_0", "0_1", "\u0663", "\uff12", "-1", "6", "x", "1.0", "0x1", "_1", "1__0"]
)
_GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\u00a0"])
_PADS = st.one_of(st.just(""), _GAPS)


@st.composite
def _line(draw, n):
    # mostly two vertices of 0..n-1, so that the later checks are reached
    fields = 2 if draw(st.integers(0, 15)) else draw(st.sampled_from([0, 1, 3]))
    line = draw(_PADS)
    for i in range(fields):
        if draw(st.integers(0, 7)):
            token = str(draw(st.integers(0, n - 1)))
        else:
            token = draw(_ODD_TOKENS)
        line += (draw(_GAPS) if i else "") + token
    return line + draw(_PADS)


@st.composite
def _texts(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    header = draw(
        st.sampled_from([f"digraph {n}", f"graph {n}", f"coloring {n} {n - 1}", f"coloring {n} 2"])
    )
    count = draw(st.one_of(st.just(n), st.integers(min_value=0, max_value=7)))
    body = draw(st.lists(_line(n), min_size=count, max_size=count))
    return "".join(f"{line}\n" for line in [header, *body])


@settings(max_examples=500)
@given(_texts())
@example("digraph 3\n0 1\n0 1\n")
@example("digraph 3\n0 1\n1 0\n")
@example("digraph 3\n2\t2\n")
@example("digraph 11\n1_0 +1\n-0 \u0663\n")
@example("graph 3\n0  1 2\n")
@example("graph 3\n1 0\n")
@example("coloring 2 2\n0 0\n0 1\n")
@example("coloring 2 2\n+1 1\n-0 0\n")
@example("coloring 2 2\nx 1\n")
def test_parsers_match_the_reference_line_checker(text):
    for parse, reference in (
        (parse_digraph, _ref_digraph),
        (parse_base, _ref_base),
        (parse_coloring, _ref_coloring),
    ):
        assert _outcome(parse, text) == _outcome(reference, text), (parse.__name__, text)


# int() reads each of these respellings of a number as that number
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_RESPELLINGS = [
    lambda t: "+" + t,
    lambda t: f"{t[0]}_{t[1:]}" if len(t) > 1 else t,
    lambda t: t.translate(_ARABIC_INDIC),
]


@st.composite
def _respelled(draw):
    """A valid digraph, base or coloring text with some of its numbers
    respelt as int() also reads them."""
    text = draw(
        st.sampled_from(
            [
                emit_digraph(tournament(5)),
                emit_base(cycle_base(12)),
                emit_coloring(Coloring([0, 1, 0, 2], 3)),
            ]
        )
    )
    lines = []
    for line in text.splitlines():
        words = line.split()
        for i, word in enumerate(words):
            if word.isdigit() and draw(st.integers(0, 3)) == 0:
                words[i] = draw(st.sampled_from(_RESPELLINGS))(word)
        lines.append(" ".join(words) + "\n")
    return "".join(lines)


@settings(max_examples=500)
@given(st.one_of(_texts(), _respelled()))
def test_every_token_of_an_accepted_text_is_ascii_digits_after_an_optional_minus(text):
    for parse in (parse_digraph, parse_base, parse_coloring):
        try:
            parse(text)
        except FormatError:
            continue
        # past the header's tag, every token is a number
        for token in text.split()[1:]:
            assert re.fullmatch(r"-?[0-9]+", token), (parse.__name__, text)


def test_no_parser_allocates_by_the_header_vertex_count():
    # a coloring's vertex lines must number n before anything is sized by n
    texts = (
        (parse_digraph, _ref_digraph, "digraph 10000000\n0 9999999\n"),
        (parse_base, _ref_base, "graph 10000000\n0 9999999\n"),
        (parse_coloring, _ref_coloring, "coloring 10000000 1\n0 0\n"),
    )
    for parse, reference, text in texts:
        tracemalloc.start()
        try:
            outcome = _outcome(parse, text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (text, peak)
        assert outcome == _outcome(reference, text)
    assert parse_digraph(texts[0][2]) == Digraph(10_000_000, [(0, 9_999_999)])


def test_emit_json_writes_one_sorted_line_with_the_backend():
    inputs = {"digraph": "d.txt", "mode": "sink-exempt"}
    outputs = {"witness": [0, 1, 2], "value": 3}
    text = emit_json("solve", inputs, outputs, "python")
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    payload = json.loads(text)
    assert list(payload) == ["backend", "command", "inputs", "outputs"]
    assert payload == {
        "backend": "python",
        "command": "solve",
        "inputs": inputs,
        "outputs": outputs,
    }


def test_emit_csv_scalar_conventions():
    text = emit_csv(["a", "b", "c"], [[1, True, None], [2, False, "x"]])
    assert text == "a,b,c\n1,true,\n2,false,x\n"


def test_emitters_produce_parseable_large_objects():
    d = tournament(6)
    assert parse_digraph(emit_digraph(d)) == d
    g = cycle_base(9)
    assert parse_base(emit_base(g)) == g
