"""Named graph families, closed-form values, and constructive witnesses.

The minimum dominator chromatic value over all orientations of a path
or cycle follows a period-four pattern in the vertex count, with a
handful of small exceptions (path on 6 vertices; cycles on 4, 5, and 6
vertices).  The witness builders below return an orientation together
with a coloring that meets the closed form; the test suite checks them
against the verifier and, for small n, against exhaustive sweeps.

Past the hand-listed small cases (paths on 2, 3 and 6 vertices, cycles
on at most 6), three rules build the path and even-cycle witnesses:

1. Odd path: every odd vertex (0-based) points at both neighbors.  All
   sources share one class; the sinks at positions 0 mod 4 share
   another; the sinks at positions 2 mod 4 get singleton classes that
   their two neighboring sources dominate.  For n = 4k+1 that spends
   k+2 classes; for n = 4k+3 the last sink, at 2 mod 4, is the one more
   singleton that the residue costs.
2. Even path: the (n-1)-pattern plus vertex n-1 pointing at n-2 and
   joining the source class, after n-2 is made a singleton.  When
   n = 0 mod 4, n-2 already is one and the new vertex costs nothing;
   when n = 2 mod 4, n-2 takes a fresh class.
3. Even cycle: the path pattern plus the closing arc n-1 -> 0.  Vertex
   n-1 is a source in the source class and vertex 0 a sink in class 0,
   so the arc keeps the coloring proper and keeps every domination.

Odd cycles cannot alternate all the way round: both residues share the
sources at even positions 2..n-3 and one out-degree-one vertex.  For
n = 4k+1, vertex 1 points at the singleton sink 0 and vertices 1..n-1
take the (n-1)-path's colors one class up; for n = 4k+3, vertex 0
points at both neighbors and vertex n-1 at the singleton sink n-2.
"""

from __future__ import annotations

from operator import index
from typing import Callable

from .coloring import Coloring
from .graphs import BaseGraph, Digraph, _Record, orient


class FamilySpec(_Record):
    """A family name plus its integer parameters."""

    kind: str
    params: tuple[int, ...]

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        params = tuple(map(index, params))
        floors = _KINDS[kind][0]
        if len(params) != len(floors):
            raise ValueError(
                f"family {kind!r} takes {len(floors)} parameter(s), got {len(params)}"
            )
        for p, lo in zip(params, floors):
            if p < lo:
                raise ValueError(f"family {kind!r} needs parameters >= {lo}")
        if kind == "star" and params[1] > params[0]:
            raise ValueError("star in-arc count cannot exceed the leaf count")
        self.__dict__.update(kind=kind, params=params)


class ConstructiveWitness(_Record):
    """An orientation, a coloring of it, and the value both achieve."""

    digraph: Digraph
    coloring: Coloring
    claimed_value: int


def directed_path(n: int) -> Digraph:
    """Consistently oriented path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def directed_cycle(n: int) -> Digraph:
    """Consistently oriented cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_min_formula(n: int) -> int:
    """Closed form for the minimum dominator chromatic value over all
    orientations of the path on n vertices."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if n == 1:
        return 1
    if n in (2, 3):
        return 2
    if n == 6:
        return 3
    k = n // 4
    return k + 2 if n % 4 in (0, 1) else k + 3


def cycle_min_formula(n: int) -> int:
    """Closed form for the minimum dominator chromatic value over all
    orientations of the cycle on n vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    if n == 4:
        return 2
    if n in (5, 6):
        return 3
    return (n + 3) // 4 + 2


def _sources(first: int, stop: int) -> list[tuple[int, int]]:
    # vertices first, first+2, ... below stop point at both neighbors
    arcs = []
    for i in range(first, stop, 2):
        arcs.append((i, i - 1))
        arcs.append((i, i + 1))
    return arcs


def _alternating_colors(n: int) -> list[int]:
    # sources (odd) share class 1; sinks at 0 mod 4 share class 0;
    # sinks at 2 mod 4 get ascending singleton classes from 2 on
    colors = []
    for i in range(n):
        if i % 2 == 1:
            colors.append(1)
        elif i % 4 == 0:
            colors.append(0)
        else:
            colors.append(2 + i // 4)
    return colors


def _path_pattern(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    # arcs and colors of the path witness for n = 1, 4, 5 and n >= 7
    if n % 2:
        return _sources(1, n), _alternating_colors(n)
    arcs, colors = _path_pattern(n - 1)
    arcs.append((n - 1, n - 2))
    colors[n - 2] = 2 + (n - 2) // 4
    colors.append(1)
    return arcs, colors


def path_optimal(n: int) -> ConstructiveWitness:
    """Orientation of the n-path meeting path_min_formula, with coloring.
    Apart from n = 2, 3 and 6, odd paths alternate and even paths extend them."""
    value = path_min_formula(n)
    if n == 2:
        return ConstructiveWitness(directed_path(2), Coloring([0, 1], 2), value)
    if n == 3:
        d = Digraph(3, [(1, 0), (1, 2)])
        return ConstructiveWitness(d, Coloring([0, 1, 0], 2), value)
    if n == 6:
        d = Digraph(6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)])
        return ConstructiveWitness(d, Coloring([0, 1, 0, 2, 0, 2], 3), value)
    arcs, colors = _path_pattern(n)
    return ConstructiveWitness(Digraph(n, arcs), Coloring(colors, value), value)


def cycle_optimal(n: int) -> ConstructiveWitness:
    """Orientation of the n-cycle meeting cycle_min_formula, with coloring.
    Past n <= 6, even cycles close the path pattern; odd ones get their own."""
    value = cycle_min_formula(n)
    if n == 3:
        return ConstructiveWitness(directed_cycle(3), Coloring([0, 1, 2], 3), value)
    if n == 4:
        d = Digraph(4, [(1, 0), (1, 2), (3, 2), (3, 0)])
        return ConstructiveWitness(d, Coloring([0, 1, 0, 1], 2), value)
    if n == 5:
        d = Digraph(5, [(1, 0), (1, 2), (3, 2), (3, 4), (4, 0)])
        return ConstructiveWitness(d, Coloring([0, 1, 2, 1, 2], 3), value)
    if n == 6:
        d = Digraph(6, [(1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 0)])
        return ConstructiveWitness(d, Coloring([0, 1, 0, 1, 2, 1], 3), value)
    if n % 2 == 0:
        arcs, colors = _path_pattern(n)
        arcs.append((n - 1, 0))
        return ConstructiveWitness(Digraph(n, arcs), Coloring(colors, value), value)
    # arcs listed so the underlying edge order is the cycle base's
    run = _sources(2, n - 1)
    if n % 4 == 1:
        arcs = [(1, 0)] + run + [(n - 1, n - 2), (n - 1, 0)]
        colors = [0] + [c + 1 for c in _alternating_colors(n - 1)]
        return ConstructiveWitness(Digraph(n, arcs), Coloring(colors, value), value)
    # n % 4 == 3: sinks at 1 mod 4 take singletons, sinks at 3 mod 4
    # share a class with the out-degree-one vertex n-1
    arcs = [(0, 1)] + run + [(n - 1, n - 2), (0, n - 1)]
    colors = []
    for i in range(n - 1):
        if i % 2 == 0:
            colors.append(0)
        elif i == 1:
            colors.append(1)
        elif i % 4 == 3:
            colors.append(2)
        else:
            colors.append(3 + (i - 5) // 4)
    colors.append(2)
    return ConstructiveWitness(Digraph(n, arcs), Coloring(colors, value), value)


def star_oriented(leaves: int, in_arcs: int) -> Digraph:
    """Star with hub 0: the first in_arcs leaves point at the hub, the
    rest receive arcs from it."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    if not (0 <= in_arcs <= leaves):
        raise ValueError("in_arcs must lie between 0 and leaves")
    arcs = [(i, 0) for i in range(1, in_arcs + 1)]
    arcs += [(0, i) for i in range(in_arcs + 1, leaves + 1)]
    return Digraph(leaves + 1, arcs)


def one_way_complete_bipartite(m: int, n: int) -> Digraph:
    """Every arc runs from the m left vertices to the n right vertices."""
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    return Digraph(m + n, [(x, m + y) for x in range(m) for y in range(n)])


def tournament(n: int, chooser: int = 0) -> Digraph:
    """Orientation of the complete graph.

    The chooser indexes the 2^C(n,2) orientations through the
    orientation-code convention on the complete base (0 is the
    transitive tournament).
    """
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    base = BaseGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    return orient(base, chooser)


def tilde_cycle(n: int) -> Digraph:
    """Directed n-cycle plus a hub sink (vertex n) fed by every cycle
    vertex.  Dominator-cheap: each cycle vertex dominates the hub's
    singleton class, so the value stays near the cycle's chromatic
    number while the plain directed cycle needs n classes."""
    if n < 3:
        raise ValueError("tilde cycle needs a cycle on at least three vertices")
    arcs = [(i, (i + 1) % n) for i in range(n)]
    arcs += [(i, n) for i in range(n)]
    return Digraph(n + 1, arcs)


def star_optimal(leaves: int, in_arcs: int) -> ConstructiveWitness:
    """star_oriented plus a minimum coloring: two classes when the arcs
    agree in direction, three otherwise (hub, in-leaves, out-leaves)."""
    d = star_oriented(leaves, in_arcs)
    if in_arcs in (0, leaves):
        colors = [0] + [1] * leaves
        return ConstructiveWitness(d, Coloring(colors, 2), 2)
    colors = [0] + [1] * in_arcs + [2] * (leaves - in_arcs)
    return ConstructiveWitness(d, Coloring(colors, 3), 3)


def tilde_cycle_optimal(n: int) -> ConstructiveWitness:
    """tilde_cycle plus a minimum coloring: a proper cycle coloring (two
    or three classes by parity) with the hub sink in a singleton class
    that every cycle vertex dominates."""
    d = tilde_cycle(n)
    if n % 2 == 0:
        colors = [i % 2 for i in range(n)] + [2]
        return ConstructiveWitness(d, Coloring(colors, 3), 3)
    colors = [i % 2 for i in range(n - 1)] + [2, 3]
    return ConstructiveWitness(d, Coloring(colors, 4), 4)


def fig3_digraph() -> Digraph:
    """Fixed 6-vertex example: an oriented path with one chord back to
    the start, giving a pentagon with a pendant vertex underneath."""
    return Digraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 0)])


def fig4_digraph() -> Digraph:
    """Fixed 6-vertex example: a directed hexagon with two chords."""
    return Digraph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 2), (1, 3)],
    )


# kind -> (its parameter floors, one per parameter; the vertex count of
# its member as a function of the parameters; its witness builder).
# Star params are (leaf count, in-arc count); bipartite are (m, n).
_KINDS: dict[
    str,
    tuple[tuple[int, ...], Callable[..., int], Callable[..., ConstructiveWitness]],
] = {
    "path": ((1,), lambda n: n, path_optimal),
    "cycle": ((3,), lambda n: n, cycle_optimal),
    "star": ((1, 0), lambda leaves, in_arcs: leaves + 1, star_optimal),
    "complete": (
        (1,),
        lambda n: n,
        lambda n: ConstructiveWitness(tournament(n, 0), Coloring(list(range(n)), n), n),
    ),
    "complete-bipartite": (
        (1, 1),
        lambda m, n: m + n,
        lambda m, n: ConstructiveWitness(
            one_way_complete_bipartite(m, n), Coloring([0] * m + [1] * n, 2), 2
        ),
    ),
    "tilde-cycle": ((3,), lambda n: n + 1, tilde_cycle_optimal),
    "fig3": (
        (),
        lambda: 6,
        lambda: ConstructiveWitness(fig3_digraph(), Coloring([0, 1, 2, 3, 4, 0], 5), 5),
    ),
    "fig4": (
        (),
        lambda: 6,
        lambda: ConstructiveWitness(fig4_digraph(), Coloring([0, 1, 0, 2, 3, 4], 5), 5),
    ),
}

FAMILY_KINDS = tuple(_KINDS)


def family_witness(spec: FamilySpec) -> ConstructiveWitness:
    """The canonical oriented member of a family with a minimum
    dominator coloring of it, hand-built.

    Paths and cycles give the minimum-value orientation; complete gives
    the transitive tournament; the remaining kinds have one member.
    Each builder lists its arcs in the base's edge order (path_base,
    cycle_base, star_base, the complete graph's pairs u < v), so
    orientation codes read the same bits off the digraph and off its
    underlying graph.  Tournaments take the all-singleton coloring (each
    vertex dominates the singleton class of any out-neighbor, so it
    verifies and matches the known value n).  The two fixed examples
    carry their unique five-class colorings.
    """
    return _KINDS[spec.kind][2](*spec.params)


def member_vertices(spec: FamilySpec) -> int:
    """The vertex count of family_witness(spec).digraph, known before it
    is built."""
    return _KINDS[spec.kind][1](*spec.params)
