"""Builds the sweep automata and writes them to _automaton_tables.py:

    python -m domchrom._automaton_build

A sweep reads the shipped tables and never imports this module; only
the regeneration above and the test that rebuilds every table do.

The value of a digraph is the least |F| + chi(G - UF) over the families
F of disjoint independent sets in which every required vertex has a set
of F inside its out-neighbourhood: the classes that some vertex
dominates form such an F, and the other classes color what F leaves.
On a path, or on a cycle with at least 5 vertices, a set inside an
out-neighbourhood is a singleton, or a pair {x - 1, x + 1} that x
dominates when both its arcs leave it.  So one orientation's value
comes from a left-to-right DP that labels each vertex

- R: in the rest, which takes chi(G - UF) <= 2 classes;
- S: a singleton of F;
- A or B: in a pair of F, with A at v exactly when B is at v + 2.

A key holds the labels of x - 1 and x, whether x is dominated from the
left, whether x has an arc to x - 1, and whether the rest is nonempty
and has an edge; its cost counts each S and each A.  Placing x + 1
enforces the A/B rule against x - 1, then rejects a required x that is
still undominated.  A key is dropped when another key with the same
labels and flags costs at least 2 less, or costs no more with a rest no
larger, since chi of the rest differs by at most 2.

A cycle key also carries a start tuple: the label of vertex 0, whether
vertex 1 is B, whether 0 -> 1 with vertex 1 S, and the direction of
0 -> 1.  Placing vertex 1 defers the A/B rule and the domination of
vertex 0 to the closing edge, which cycle_base stores as (0, n - 1), so
its bit 0 means 0 -> n - 1.  At n = 3 a pair is an edge, and at n = 4
it has two centres, so cycles sweep through the automaton from n = 5.

A state is the map from key to cost, shifted so that its minimum is 0,
and each transition carries the shift.  States from which no orientation
is feasible merge into one dead state, and partition refinement then
minimises the rest.  A table row is (shift0, next0, shift1, next1, end0,
end1) for reading bit 0 or 1 next: end_b is what the orientation's value
gains when that bit is its last edge, 0 when it is infeasible.  Row 0 is
the state before the first edge; the value of a code is the sum of the
shifts of its first m - 1 bits plus the end of its last.

The star's four states are derived by hand: no leaf yet, every leaf so
far pointing out (bit 0 orients hub -> leaf), every one pointing in, and
both kinds seen.  One kind alone takes 2 classes, both kinds 3.  In
strict mode some leaf or the hub is a sink, so every orientation is
infeasible.
"""

from __future__ import annotations

from pathlib import Path

from .coloring import DominationMode

R, S, A, B = "RSAB"

# (family, mode value) -> rows, as written to _automaton_tables.py
_STAR_TABLES = {
    "sink-exempt": (
        (0, 1, 0, 2, 2, 2),  # no leaf yet
        (0, 1, 0, 3, 2, 3),  # every leaf points out
        (0, 3, 0, 2, 3, 2),  # every leaf points in
        (0, 3, 0, 3, 3, 3),  # both kinds
    ),
    "strict": ((0, 0, 0, 0, 0, 0),),
}


def _chi(rest: bool, edge: bool) -> int:
    return 2 if edge else 1 if rest else 0


def _place(key: tuple, bit: int, label: str, strict: bool, cycle: bool) -> tuple | None:
    """The key after placing x + 1 with label, reading bit on the edge
    (x, x + 1), or None when the placement breaks a rule."""
    prev, cur, dom, arc, rest, edge, start = key
    right = bit == 0  # x -> x + 1
    if not prev and cycle:
        # vertex 1: its A/B rule and vertex 0's domination wait for the
        # closing edge
        start = (cur, label == B, right and label == S, right)
    else:
        if (prev == A) != (label == B):
            return None
        if (strict or arc or right) and not (
            dom
            or (right and label == S)
            or (arc and right and prev == A and label == B)
        ):
            return None
    return (
        cur,
        label,
        bit == 1 and cur == S,
        bit == 1,
        rest or label == R,
        edge or (label == R and cur == R),
        start,
    )


def _close_path(key: tuple, strict: bool) -> int | None:
    """What the last vertex adds to the cost: chi of the rest, or None
    when a pair is left open or the last vertex is undominated."""
    prev, cur, dom, arc, rest, edge, _ = key
    if A in (prev, cur) or ((strict or arc) and not dom):
        return None
    return _chi(rest, edge)


def _close_cycle(key: tuple, bit: int, strict: bool) -> int | None:
    """What the closing edge (0, n - 1) read as bit adds to the cost,
    or None when it breaks a rule across the wrap."""
    prev, cur, dom, arc, rest, edge, start = key
    if start is None:
        return None
    first, second_b, first_dominated, first_out = start
    if (prev == A) != (first == B) or (cur == A) != second_b:
        return None
    back = bit == 1  # n - 1 -> 0
    if (strict or arc or back) and not (
        dom or (back and first == S) or (arc and back and prev == A and first == B)
    ):
        return None
    if (strict or first_out or not back) and not (
        first_dominated
        or (not back and cur == S)
        or (first_out and not back and cur == A and second_b)
    ):
        return None
    return _chi(rest, edge or (cur == R and first == R))


def _prune(keys: dict[tuple, int]) -> dict[tuple, int]:
    """keys without those another key beats: one with the same labels,
    flags and start that costs at least 2 less, or costs no more and
    has no rest flag this key lacks."""
    rivals: dict[tuple, list[tuple[int, bool, bool]]] = {}
    for (prev, cur, dom, arc, rest, edge, start), cost in keys.items():
        rivals.setdefault((prev, cur, dom, arc, start), []).append((cost, rest, edge))
    kept = {}
    for key, cost in keys.items():
        prev, cur, dom, arc, rest, edge, start = key
        if not any(
            (r, e) != (rest, edge)
            and (c <= cost - 2 or (c <= cost and r <= rest and e <= edge))
            for c, r, e in rivals[prev, cur, dom, arc, start]
        ):
            kept[key] = cost
    return kept


def _normalise(keys: dict[tuple, int]) -> tuple[frozenset, int]:
    low = min(keys.values(), default=0)
    return frozenset((key, cost - low) for key, cost in keys.items()), low


def _explore(cycle: bool, strict: bool) -> list[list[int]]:
    """Rows of the states reachable from the start, unminimised."""
    first = {
        ("", label, False, False, label == R, False, None): int(label in "SA")
        for label in ("RSAB" if cycle else "RSA")
    }
    states = [_normalise(_prune(first))[0]]
    index = {states[0]: 0}
    rows = []
    for state in states:  # grows as new states are found
        row = []
        for bit in (0, 1):
            keys: dict[tuple, int] = {}
            for key, cost in state:
                for label in "RSAB":
                    placed = _place(key, bit, label, strict, cycle)
                    if placed is not None:
                        total = cost + (label in "SA")
                        if total < keys.get(placed, total + 1):
                            keys[placed] = total
            target, shift = _normalise(_prune(keys))
            if target not in index:
                index[target] = len(states)
                states.append(target)
            row += [shift, index[target]]
        rows.append(row)
    for state, row in zip(states, rows):
        for bit in (0, 1):
            if cycle:
                row.append(_least(state, lambda key: _close_cycle(key, bit, strict)))
            else:
                shift, target = row[2 * bit : 2 * bit + 2]
                end = _least(states[target], lambda key: _close_path(key, strict))
                row.append(shift + end if end else 0)
    return rows


def _least(state: frozenset, close) -> int:
    """The least cost plus what close adds over the keys of state that
    close accepts, or 0, read as infeasible, when it accepts none."""
    ends = [cost + gain for key, cost in state if (gain := close(key)) is not None]
    if 0 in ends:
        raise ValueError("a feasible end of 0 would read as infeasible")
    return min(ends, default=0)


def _minimise(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The minimal automaton of rows: the states that reach no feasible
    end merge into one dead state, partition refinement merges states
    with the same future, and the blocks reachable from the start are
    numbered in breadth-first order."""
    live = [row[4] > 0 or row[5] > 0 for row in rows]
    grew = True
    while grew:
        grew = False
        for s, row in enumerate(rows):
            if not live[s] and (live[row[1]] or live[row[3]]):
                live[s] = grew = True
    dead = len(rows)
    live.append(False)
    rows = [list(row) for row in rows] + [[0, dead, 0, dead, 0, 0]]
    for s, row in enumerate(rows):
        if not live[s]:
            row[:] = [0, dead, 0, dead, 0, 0]
        for i in (1, 3):
            if not live[row[i]]:
                row[i - 1 : i + 1] = [0, dead]
    signature = [tuple(row[4:]) for row in rows]
    while True:
        ids: dict[tuple, int] = {}
        blocks = [ids.setdefault(sig, len(ids)) for sig in signature]
        signature = [
            (blocks[s], row[0], blocks[row[1]], row[2], blocks[row[3]])
            for s, row in enumerate(rows)
        ]
        if len(set(signature)) == len(ids):
            break
    number = {blocks[0]: 0}
    members = [0]  # one state of each numbered block
    table = []
    for s in members:  # grows as blocks are numbered
        row = rows[s]
        out = []
        for i in (0, 2):
            block = blocks[row[i + 1]]
            if block not in number:
                number[block] = len(members)
                members.append(row[i + 1])
            out += [row[i], number[block]]
        table.append(tuple(out + row[4:]))
    return tuple(table)


def build_table(family: str, mode: DominationMode) -> tuple[tuple[int, ...], ...]:
    """The minimal table of a family, "path", "cycle" or "star", in a mode."""
    if family == "star":
        return _STAR_TABLES[mode.value]
    return _minimise(_explore(family == "cycle", mode is DominationMode.STRICT))


def render() -> str:
    """The text of _automaton_tables.py: every table, built afresh."""
    lines = [
        '"""The sweep automata of domchrom.automaton, one table per family and',
        "mode; the row layout is in _automaton_build.  Generated by",
        "`python -m domchrom._automaton_build`: do not edit.",
        '"""',
        "",
        "TABLES = {",
    ]
    for family in ("path", "cycle", "star"):
        for mode in DominationMode:
            lines.append(f"    ({family!r}, {mode.value!r}): (")
            lines += [f"        {row!r}," for row in build_table(family, mode)]
            lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


TABLES_PATH = Path(__file__).with_name("_automaton_tables.py")


if __name__ == "__main__":
    TABLES_PATH.write_text(render(), encoding="utf-8")
