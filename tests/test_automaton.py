"""The sweep automata: the shipped tables, and the engine that reads them.

Sweep reports of paths, cycles and stars are checked against per-code
solves in test_solver (assert_sweep_matches_reference); these tests pin
the tables themselves and check single codes past those sizes.
"""

import random

import pytest

from domchrom import DominationMode, dominator_chromatic_number, orient
from domchrom import _automaton_build, automaton
from domchrom._automaton_tables import TABLES
from domchrom.graphs import cycle_base, path_base, star_base

BUILDERS = {"path": path_base, "cycle": cycle_base, "star": star_base}


def test_shipped_tables_equal_a_rebuild():
    # regenerate with: python -m domchrom._automaton_build
    assert _automaton_build.TABLES_PATH.read_text(encoding="utf-8") == _automaton_build.render()


def test_tables_have_the_known_state_counts():
    # every strict orientation of a path or star has a sink, so their
    # tables are the dead state alone; the 4 strict cycle states are the
    # start, the two consistent directions and the dead state
    counts = {key: len(rows) for key, rows in TABLES.items()}
    assert counts == {
        ("path", "sink-exempt"): 13,
        ("path", "strict"): 1,
        ("cycle", "sink-exempt"): 108,
        ("cycle", "strict"): 4,
        ("star", "sink-exempt"): 4,
        ("star", "strict"): 1,
    }
    for rows in TABLES.values():
        for row in rows:
            assert len(row) == 6
            assert min(row) >= 0 and max(row[1:4:2]) < len(rows)


def table_value(rows, m, code):
    """The value of a code of m bits read straight off a table, None
    when infeasible."""
    bits = [code >> i & 1 for i in reversed(range(m))]
    state, value = 0, 0
    for bit in bits[:-1]:
        value += rows[state][2 * bit]
        state = rows[state][2 * bit + 1]
    end = rows[state][4 + bits[-1]]
    return value + end if end else None


@pytest.mark.parametrize("family, n", [("path", 24), ("cycle", 24), ("star", 20)])
def test_single_codes_past_the_exhaustive_gate_match_the_solver(family, n):
    base = BUILDERS[family](n)
    m = len(base.edges)
    rng = random.Random(n)
    for mode in DominationMode:
        rows = TABLES[family, mode.value]
        for _ in range(15):
            code = rng.getrandbits(m)
            want = dominator_chromatic_number(orient(base, code), mode).value
            assert table_value(rows, m, code) == want, (mode, format(code, f"0{m}b"))


@pytest.mark.parametrize("family, n", [("path", 15), ("cycle", 13), ("star", 12)])
def test_counts_and_first_codes_match_a_walk_over_every_code(family, n):
    base = BUILDERS[family](n)
    m = len(base.edges)
    for mode in DominationMode:
        rows = TABLES[family, mode.value]
        values = [table_value(rows, m, c) for c in range(1 << m)]
        [(dist, infeasible)], first_codes = automaton.sweep_values(family, mode, [m])
        assert infeasible == values.count(None)
        assert dist == {v: values.count(v) for v in set(values) - {None}}
        for value in dist:
            codes = [c for c, v in enumerate(values) if v == value]
            for limit in (1, 5, 40):
                assert first_codes(m, value, limit) == codes[:limit], (mode, value, limit)


@pytest.mark.parametrize(
    "family, ms", [("path", range(1, 41)), ("cycle", range(5, 41)), ("star", range(2, 41))]
)
def test_one_pass_over_many_edge_counts_equals_a_pass_per_count(family, ms):
    for mode in DominationMode:
        values, first_codes = automaton.sweep_values(family, mode, list(ms))
        for m, (dist, infeasible) in zip(ms, values):
            [alone], first_alone = automaton.sweep_values(family, mode, [m])
            assert (dist, infeasible) == alone, (mode, m)
            assert sum(dist.values()) + infeasible == 1 << m
            for value in dist:
                assert first_codes(m, value, 64) == first_alone(m, value, 64), (mode, m)


def test_a_pass_that_walks_for_no_codes_builds_no_reach_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reach table was built")

    monkeypatch.setattr(automaton, "_reach", refuse)
    values, first_codes = automaton.sweep_values("cycle", DominationMode.SINK_EXEMPT, [5, 9])
    assert [sum(dist.values()) + infeasible for dist, infeasible in values] == [32, 512]
    with pytest.raises(AssertionError, match="reach table"):
        first_codes(9, min(values[1][0]), 1)
