"""The sweep automata: the shipped tables, and the engine that reads them.

Sweep reports of paths, cycles and stars are checked against per-code
solves in test_solver (assert_sweep_matches_reference); these tests pin
the tables themselves and check single codes past those sizes.
"""

import random

import pytest

from domchrom import DominationMode, OrientationCode, dominator_chromatic_number, orient
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


def table_value(rows, bits):
    """A code's value read straight off a table, None when infeasible."""
    state, value = 0, 0
    for bit in bits[:-1]:
        value += rows[state][2 * bit]
        state = rows[state][2 * bit + 1]
    end = rows[state][4 + bits[-1]]
    return value + end if end else None


@pytest.mark.parametrize("family, n", [("path", 24), ("cycle", 24), ("star", 20)])
def test_single_codes_past_the_exhaustive_gate_match_the_solver(family, n):
    base = BUILDERS[family](n)
    rng = random.Random(n)
    for mode in DominationMode:
        rows = TABLES[family, mode.value]
        for _ in range(15):
            code = OrientationCode.from_value(base, rng.getrandbits(len(base.edges)))
            want = dominator_chromatic_number(orient(code), mode).value
            assert table_value(rows, code.bits) == want, (mode, code.bitstring)


@pytest.mark.parametrize("family, n", [("path", 15), ("cycle", 13), ("star", 12)])
def test_counts_and_first_codes_match_a_walk_over_every_code(family, n):
    base = BUILDERS[family](n)
    m = len(base.edges)
    for mode in DominationMode:
        rows = TABLES[family, mode.value]
        values = [
            table_value(rows, OrientationCode.from_value(base, c).bits) for c in range(1 << m)
        ]
        dist, infeasible, first_codes = automaton.sweep_values(family, mode, m)
        assert infeasible == values.count(None)
        assert dist == {v: values.count(v) for v in set(values) - {None}}
        for value in dist:
            codes = [c for c, v in enumerate(values) if v == value]
            for limit in (1, 5, 40):
                assert first_codes(value, limit) == codes[:limit], (mode, value, limit)
