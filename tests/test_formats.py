import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domchrom import BaseGraph, Coloring, Digraph, canonicalize, cycle_base, tournament
from domchrom.formats import (
    FormatError,
    RunResult,
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
        ("digraph 3\n", 1, "header"),
    ],
)
def test_parse_base_errors(text, lineno, fragment):
    with pytest.raises(FormatError) as info:
        parse_base(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("coloring 2 2\n0 0\n", "expected 2 vertex lines"),
        ("coloring 2 2\n0 0\n1 1\n0 1\n", "expected 2 vertex lines"),
        ("coloring 2 2\n0 0\n0 1\n", "assigned twice"),
        ("coloring 2 2\n0 0\n1 -1\n", "negative class"),
        ("coloring 2 2\n0 0\n1 0\n", "classes are nonempty"),
        ("coloring 2 1\n0 0\n1 1\n", "out of range"),
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


def test_run_result_json_roundtrip():
    result = RunResult(
        "solve", {"digraph": "d.txt"}, {"value": 3, "witness": [0, 1, 2]}
    )
    text = emit_json(result)
    assert text.endswith("\n")
    assert RunResult.from_json(text) == result
    payload = json.loads(text)
    assert set(payload) == {"command", "inputs", "outputs"}
    # one line, keys sorted; a recorded backend is written and read back
    recorded = RunResult("solve", result.inputs, result.outputs, "python")
    text = emit_json(recorded)
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert json.loads(text)["backend"] == "python"
    assert RunResult.from_json(text) == recorded


def test_run_result_rejects_missing_keys():
    with pytest.raises(FormatError):
        RunResult.from_json('{"command": "solve", "inputs": {}}')


@pytest.mark.parametrize(
    "text", ["5", "null", '"command inputs outputs"', "[]", "", "{not json", "{} extra"]
)
def test_run_result_rejects_text_that_is_not_a_json_object(text):
    with pytest.raises(FormatError):
        RunResult.from_json(text)


@pytest.mark.parametrize(
    "payload",
    [
        {"command": 5, "inputs": [1], "outputs": "x", "backend": 7},
        {"command": 5, "inputs": {}, "outputs": {}},
        {"command": None, "inputs": {}, "outputs": {}},
        {"command": "solve", "inputs": [1], "outputs": {}},
        {"command": "solve", "inputs": None, "outputs": {}},
        {"command": "solve", "inputs": {}, "outputs": "x"},
        {"command": "solve", "inputs": {}, "outputs": [{}]},
        {"command": "solve", "inputs": {}, "outputs": {}, "backend": 7},
        {"command": "solve", "inputs": {}, "outputs": {}, "backend": ["c"]},
    ],
)
def test_run_result_rejects_fields_of_the_wrong_type(payload):
    with pytest.raises(FormatError):
        RunResult.from_json(json.dumps(payload))


@pytest.mark.parametrize("backend", [None, "c"])
def test_run_result_backend_may_be_absent_null_or_a_string(backend):
    payload = {"command": "solve", "inputs": {}, "outputs": {}}
    assert RunResult.from_json(json.dumps(payload)).backend is None
    payload["backend"] = backend
    assert RunResult.from_json(json.dumps(payload)) == RunResult("solve", {}, {}, backend)


def test_emit_csv_scalar_conventions():
    text = emit_csv(["a", "b", "c"], [[1, True, None], [2, False, "x"]])
    assert text == "a,b,c\n1,true,\n2,false,x\n"


def test_emitters_produce_parseable_large_objects():
    d = tournament(6)
    assert parse_digraph(emit_digraph(d)) == d
    g = cycle_base(9)
    assert parse_base(emit_base(g)) == g
