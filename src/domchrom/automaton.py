"""Sweeps of paths, cycles and stars by automaton: no orientation is solved.

An automaton reads an orientation code one edge at a time, first edge
first.  A state holds what the prefix read so far implies for the
value; each transition carries a value shift, and reading the last edge
gives an end value, 0 for an infeasible orientation.  The tables, one
per family and mode, are minimised and shipped in _automaton_tables;
_automaton_build derives them and documents the row layout.

Counting carries, for each state, the number of prefixes per value
reached so far, packed into one integer: the count of value o sits at
bit o * width, and width = m + 2 bits hold any count up to 2^m.  A
shift then moves a whole count vector at once, so each edge costs one
shift and one add per transition.

The extremal code lists come from the values each state can still gain
with r edges left, one bitmask per state and r.  A depth-first walk,
bit 0 before bit 1, enters only the branches that can still reach the
value wanted, so it yields the codes in ascending order and stops after
the first limit of them.
"""

from __future__ import annotations

from typing import Callable

from ._automaton_tables import TABLES
from .coloring import DominationMode


def sweep_values(
    family: str, mode: DominationMode, m: int
) -> tuple[dict[int, int], int, Callable[[int, int], list[int]]]:
    """Over the 2^m orientation codes of the family's base with m >= 1
    edges: the count per feasible value, the infeasible count, and a
    function giving the first `limit` codes with a value, ascending."""
    rows = TABLES[family, mode.value]
    width = m + 2
    counts = {0: 1}
    for _ in range(m - 1):
        after: dict[int, int] = {}
        for state, packed in counts.items():
            shift0, next0, shift1, next1 = rows[state][:4]
            after[next0] = after.get(next0, 0) + (packed << shift0 * width)
            after[next1] = after.get(next1, 0) + (packed << shift1 * width)
        counts = after
    feasible = infeasible = 0
    for state, packed in counts.items():
        for end in rows[state][4:]:
            if end:
                feasible += packed << end * width
            else:
                infeasible += packed
    distribution = _unpack(feasible, width)
    reach = _reach(rows, m)

    def first_codes(value: int, limit: int) -> list[int]:
        return _first_codes(rows, reach, value, limit)

    return distribution, sum(_unpack(infeasible, width).values()), first_codes


def _unpack(packed: int, width: int) -> dict[int, int]:
    """The nonzero counts of a packed vector, by value."""
    mask = (1 << width) - 1
    counts = {}
    value = 0
    while packed:
        if packed & mask:
            counts[value] = packed & mask
        packed >>= width
        value += 1
    return counts


def _reach(rows, m: int) -> list[list[int]]:
    """reach[r][s]: bit w set when s, with r edges left, can end
    feasible having gained w; for r = 1..m."""
    last = [(row[4] > 0) << row[4] | (row[5] > 0) << row[5] for row in rows]
    reach = [[], last]
    for _ in range(m - 1):
        reach.append(
            [(last[row[1]] << row[0]) | (last[row[3]] << row[2]) for row in rows]
        )
        last = reach[-1]
    return reach


def _first_codes(rows, reach: list[list[int]], value: int, limit: int) -> list[int]:
    """The first limit codes, ascending, whose value is value."""
    codes: list[int] = []
    # (state, edges left, value still to gain, code so far)
    stack = [(0, len(reach) - 1, value, 0)]
    while stack:
        state, left, need, code = stack.pop()
        row = rows[state]
        if left == 1:
            for bit in (0, 1):
                if row[4 + bit] == need:
                    codes.append(code << 1 | bit)
                    if len(codes) == limit:
                        return codes
            continue
        for bit in (1, 0):  # bit 0 is popped, and so listed, first
            shift, target = row[2 * bit], row[2 * bit + 1]
            if need >= shift and reach[left - 1][target] >> (need - shift) & 1:
                stack.append((target, left - 1, need - shift, code << 1 | bit))
    return codes
