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
shift and one add per transition.  The codes of every edge count up to
m share their prefixes, so one pass, packed at the largest count's
width, reads the end values of each count asked for on its way.

The extremal code lists come from the values each state can still gain
with r edges left, one bitmask per state and r.  A depth-first walk,
bit 0 before bit 1, enters only the branches that can still reach the
value wanted, so it yields the codes in ascending order and stops after
the first limit of them.  The table is built on the first walk, once
for every edge count.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ._automaton_tables import TABLES
from .coloring import DominationMode


def sweep_values(
    family: str, mode: DominationMode, ms: Sequence[int]
) -> tuple[list[tuple[dict[int, int], int]], Callable[[int, int, int], list[int]]]:
    """For each edge count m in ms, ascending and at least 1, over the
    2^m orientation codes of the family's base with m edges: the count
    per feasible value and the infeasible count.  Also a function
    first_codes(m, value, limit) giving the first limit of those codes
    with a value, ascending."""
    rows = TABLES[family, mode.value]
    width = ms[-1] + 2
    steps = [(s0 * width, n0, s1 * width, n1) for s0, n0, s1, n1, _, _ in rows]
    ends = [[end * width for end in row[4:] if end] for row in rows]
    counts = [0] * len(rows)
    counts[0] = 1
    read = 1  # the edges of each prefix counted, the last one not yet read
    values = []
    for m in ms:
        for _ in range(m - read):
            after = [0] * len(rows)
            for (shift0, next0, shift1, next1), packed in zip(steps, counts):
                if packed:
                    after[next0] += packed << shift0
                    after[next1] += packed << shift1
            counts = after
        read = m
        feasible = 0
        for shifts, packed in zip(ends, counts):
            for shift in shifts:
                feasible += packed << shift
        distribution = _unpack(feasible, width)
        values.append((distribution, (1 << m) - sum(distribution.values())))
    reach: list[list[int]] = []

    def first_codes(m: int, value: int, limit: int) -> list[int]:
        if not reach:
            reach.extend(_reach(rows, ms[-1]))
        return _first_codes(rows, reach, m, value, limit)

    return values, first_codes


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


def _first_codes(
    rows, reach: list[list[int]], m: int, value: int, limit: int
) -> list[int]:
    """The first limit codes of m edges, ascending, whose value is value."""
    codes: list[int] = []
    # the bit-1 branches passed on the way down, deepest on top:
    # (state, edges left, value still to gain, code so far)
    stack = [(0, m, value, 0)]
    while stack:
        state, left, need, code = stack.pop()
        # down to the last edge, bit 0 first; reach promises one of the
        # two bits at each step
        while left > 1:
            shift0, next0, shift1, next1, _, _ = rows[state]
            left -= 1
            can = reach[left]
            code <<= 1
            if can[next0] << shift0 >> need & 1:
                if can[next1] << shift1 >> need & 1:
                    stack.append((next1, left, need - shift1, code | 1))
                state, need = next0, need - shift0
            else:
                state, need, code = next1, need - shift1, code | 1
        for bit in (0, 1):
            if rows[state][4 + bit] == need:
                codes.append(code << 1 | bit)
                if len(codes) == limit:
                    return codes
    return codes
