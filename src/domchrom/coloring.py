"""Vertex colorings and the dominator-coloring verifier.

A coloring is proper when no arc joins two vertices of the same class.
A vertex dominates a color class when the class is nonempty and lies
entirely inside the vertex's out-neighborhood.  A dominator coloring is
a proper coloring in which every vertex that carries the domination
requirement dominates at least one class.

Two requirement modes exist.  SINK_EXEMPT, the operative default,
requires domination only of vertices with at least one out-neighbor: a
sink has an empty out-neighborhood, which contains no nonempty class,
so a universal requirement would make every digraph with a sink
infeasible.  STRICT keeps the universal requirement and is retained for
comparison; under it, any digraph with a sink is infeasible.
"""

from __future__ import annotations

import enum
from operator import index
from typing import Sequence

from .graphs import Digraph, _Record


class DominationMode(enum.Enum):
    SINK_EXEMPT = "sink-exempt"
    STRICT = "strict"


class Coloring(_Record):
    """Surjective assignment of n vertices to k classes, in canonical
    form: the first occurrence of class j precedes the first occurrence
    of class j+1."""

    assignment: tuple[int, ...]
    k: int

    def __init__(self, assignment: Sequence[int], k: int):
        assignment = tuple(map(index, assignment))
        k = index(k)
        error = _label_error(assignment, k)
        if error is not None:
            raise ValueError(error)
        self.__dict__.update(assignment=assignment, k=k)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def class_members(self) -> tuple[frozenset[int], ...]:
        members: list[set[int]] = [set() for _ in range(self.k)]
        for v, c in enumerate(self.assignment):
            members[c].add(v)
        return tuple(frozenset(m) for m in members)


def _label_error(assignment: Sequence[int], k: int) -> str | None:
    """Why the labels are not a surjective, canonical assignment onto k
    classes, or None when they are."""
    if k < 0 or (len(assignment) > 0 and k < 1):
        return "class count must be positive"
    # canonical so far, the classes met are exactly 0..next_new-1
    next_new = 0
    for i, c in enumerate(assignment):
        if c >= next_new or c < 0:
            if not (0 <= c < k):
                return f"class {c} at vertex {i} out of range for k={k}"
            if c != next_new:
                return f"non-canonical labels: class {c} first appears before class {next_new}"
            next_new += 1
    if next_new != k:
        return f"only {next_new} of {k} classes are nonempty"
    return None


class Violation(_Record):
    """One verification failure: an improper arc or an undominating vertex."""

    kind: str  # "properness" | "domination"
    arc: tuple[int, int] | None = None
    vertex: int | None = None


class Verdict(_Record):
    ok: bool
    violations: tuple[Violation, ...]


def canonicalize(raw: Sequence[int]) -> Coloring:
    """Relabel classes by first occurrence, preserving the partition."""
    mapping: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return Coloring(out, len(mapping))


def verify(
    d: Digraph, c: Coloring, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> Verdict:
    """Exhaustive check; collects every violation for diagnostics."""
    if c.n != d.n:
        raise ValueError(f"coloring covers {c.n} vertices, digraph has {d.n}")
    a = c.assignment
    violations: list[Violation] = []
    outs = [0] * d.n
    for u, v in d.arcs:
        if a[u] == a[v]:
            violations.append(Violation("properness", arc=(u, v)))
        outs[u] |= 1 << v
    classes = [0] * c.k
    for v, cls in enumerate(a):
        classes[cls] |= 1 << v
    sink_exempt = mode is DominationMode.SINK_EXEMPT
    for v, out in enumerate(outs):
        if sink_exempt and not out:
            continue
        # v dominates a class when the class has no member outside out
        for members in classes:
            if not members & ~out:
                break
        else:
            violations.append(Violation("domination", vertex=v))
    return Verdict(ok=not violations, violations=tuple(violations))
