"""Gap invariants and sub-digraph discrepancy.

The dominator gap of a digraph is its dominator chromatic number minus
the chromatic number of its underlying graph; it is never negative,
since a dominator coloring is in particular proper.  Over all
orientations of a base, two distinct aggregates exist and are exposed
side by side, never substituted for one another:

* max_gap: the largest gap any orientation attains.  Every orientation
  of a base shares one underlying graph, so this equals the largest
  dominator value minus the base's chromatic number.
* spread: largest minus smallest dominator value over orientations.

For path and cycle bases on n >= 4 vertices the spread follows a
closed-form table (period four in n); the table ignores the small-n
exceptional values of the minimum, so it misses at path n = 6 and
cycles n = 4, 5, 6, where only a sweep gives the true spread.  Reports
carry the table value alongside the computed aggregates so the
disagreement stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coloring import DominationMode
from .graphs import BaseGraph, Digraph, is_connected, underlying
from .solver import (
    SweepReport,
    UndefinedInvariant,
    chromatic_number,
    dominator_chromatic_number,
    sweep,
)


@dataclass(frozen=True)
class GapReport:
    dominator_value: int
    chromatic_value: int
    gap: int


@dataclass(frozen=True)
class OrientationGapReport:
    base: BaseGraph
    mode: DominationMode
    chromatic_value: int
    min_dominator_value: int
    max_dominator_value: int
    max_gap: int
    spread: int
    table_value: int | None


@dataclass(frozen=True)
class Embedding:
    """Maps vertex i of a sub-digraph to vertex_map[i] of a host."""

    vertex_map: tuple[int, ...]

    def __init__(self, vertex_map: Sequence[int]):
        object.__setattr__(self, "vertex_map", tuple(int(v) for v in vertex_map))


def identity_embedding(n: int) -> Embedding:
    return Embedding(range(n))


def dominator_gap(
    d: Digraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> GapReport:
    outcome = dominator_chromatic_number(d, mode)
    if outcome.value is None:
        raise UndefinedInvariant(
            "gap undefined: no dominator coloring exists in this mode"
        )
    chrom = chromatic_number(underlying(d))
    return GapReport(outcome.value, chrom, outcome.value - chrom)


def _degrees(base: BaseGraph) -> list[int]:
    degs = [0] * base.n
    for u, v in base.edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def _is_path_base(base: BaseGraph) -> bool:
    if base.n == 1:
        return len(base.edges) == 0
    return (
        len(base.edges) == base.n - 1
        and max(_degrees(base)) <= 2
        and is_connected(base)
    )


def _is_cycle_base(base: BaseGraph) -> bool:
    if base.n < 3:
        return False
    degs = _degrees(base)
    return (
        len(base.edges) == base.n
        and all(deg == 2 for deg in degs)
        and is_connected(base)
    )


def table_gap_path(n: int) -> int:
    """Closed-form spread table for path bases, defined for n >= 4.

    Blind to the n = 6 exceptional minimum, where the true spread is
    larger than the table value.
    """
    if n < 4:
        raise ValueError("table defined for n >= 4")
    k = n // 4
    return (3 * k - 2, 3 * k - 1, 3 * k - 1, 3 * k)[n % 4]


def table_gap_cycle(n: int) -> int:
    """Closed-form spread table for cycle bases, defined for n >= 4.

    Blind to the n = 4, 5, 6 exceptional minima, where the true spread
    is larger than the table value.
    """
    if n < 4:
        raise ValueError("table defined for n >= 4")
    k = n // 4
    return (3 * k - 2, 3 * k - 2, 3 * k - 1, 3 * k)[n % 4]


def _table_value(base: BaseGraph) -> int | None:
    if base.n >= 4 and _is_path_base(base):
        return table_gap_path(base.n)
    if base.n >= 4 and _is_cycle_base(base):
        return table_gap_cycle(base.n)
    return None


def orientation_gap(
    base: BaseGraph,
    mode: DominationMode = DominationMode.SINK_EXEMPT,
    *,
    max_edges: int | None = None,
) -> OrientationGapReport:
    """Aggregate gap report over every orientation of base."""
    report: SweepReport = sweep(base, mode, max_edges=max_edges)
    if report.min_value is None or report.max_value is None:
        raise UndefinedInvariant(
            "no orientation is feasible under the strict requirement"
        )
    chrom = chromatic_number(base)
    return OrientationGapReport(
        base=base,
        mode=mode,
        chromatic_value=chrom,
        min_dominator_value=report.min_value,
        max_dominator_value=report.max_value,
        max_gap=report.max_value - chrom,
        spread=report.max_value - report.min_value,
        table_value=_table_value(base),
    )


def is_subdigraph(d: Digraph, h: Digraph, e: Embedding) -> bool:
    """True iff e injectively maps h into d preserving every arc."""
    if len(e.vertex_map) != h.n:
        raise ValueError(
            f"embedding maps {len(e.vertex_map)} vertices, sub-digraph has {h.n}"
        )
    vm = e.vertex_map
    if any(not (0 <= x < d.n) for x in vm):
        raise ValueError("embedding target out of range")
    if len(set(vm)) != len(vm):
        return False
    arcset = set(d.arcs)
    return all((vm[u], vm[v]) in arcset for u, v in h.arcs)


def dominator_discrepancy(
    d: Digraph,
    h: Digraph,
    e: Embedding,
    mode: DominationMode = DominationMode.SINK_EXEMPT,
) -> int:
    """Dominator value of the sub-digraph h minus that of its host d.

    Positive values witness sub-digraphs strictly harder than the host
    containing them; the tilde-cycle family as host drives this
    arbitrarily high with the directed cycle embedded identically.
    """
    if not is_subdigraph(d, h, e):
        raise ValueError("invalid embedding: h does not embed into d")
    out_h = dominator_chromatic_number(h, mode)
    out_d = dominator_chromatic_number(d, mode)
    if out_d.value is None or out_h.value is None:
        raise UndefinedInvariant(
            "discrepancy undefined: infeasible instance in this mode"
        )
    return out_h.value - out_d.value
