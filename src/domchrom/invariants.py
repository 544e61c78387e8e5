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

from operator import index
from typing import TYPE_CHECKING, Sequence

from .coloring import DominationMode
from .graphs import BaseGraph, Digraph, _Record, is_connected, underlying
from .solver import (
    UndefinedInvariant,
    chromatic_number,
    dominator_chromatic_number,
    sweep,
)

if TYPE_CHECKING:
    from .sweeping import SweepReport


class GapReport(_Record):
    dominator_value: int
    chromatic_value: int
    gap: int


class OrientationGapReport(_Record):
    base: BaseGraph
    mode: DominationMode
    chromatic_value: int
    min_dominator_value: int
    max_dominator_value: int
    max_gap: int
    spread: int
    table_value: int | None


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
    """The table spread of a path or cycle base on n >= 4 vertices, in
    any labelling, else None.  A connected base whose degrees are at
    most 2 is a path when it has n - 1 edges and a cycle when it has n."""
    n, m = base.n, len(base.edges)
    if n < 4 or m not in (n - 1, n):
        return None
    degs = [0] * n
    for u, v in base.edges:
        degs[u] += 1
        degs[v] += 1
    if max(degs) > 2 or not is_connected(base):
        return None
    return table_gap_path(n) if m == n - 1 else table_gap_cycle(n)


def orientation_gap(
    base: BaseGraph,
    mode: DominationMode = DominationMode.SINK_EXEMPT,
) -> OrientationGapReport:
    """Aggregate gap report over every orientation of base."""
    report: SweepReport = sweep(base, mode)
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


def is_subdigraph(d: Digraph, h: Digraph, vertex_map: Sequence[int]) -> bool:
    """True iff vertex_map, which sends vertex i of h to vertex_map[i]
    of d, maps h into d injectively and preserving every arc."""
    vm = tuple(map(index, vertex_map))
    if len(vm) != h.n:
        raise ValueError(f"embedding maps {len(vm)} vertices, sub-digraph has {h.n}")
    if any(not (0 <= x < d.n) for x in vm):
        raise ValueError("embedding target out of range")
    if len(set(vm)) != len(vm):
        return False
    arcset = set(d.arcs)
    return all((vm[u], vm[v]) in arcset for u, v in h.arcs)


def dominator_discrepancy(
    d: Digraph,
    h: Digraph,
    vertex_map: Sequence[int],
    mode: DominationMode = DominationMode.SINK_EXEMPT,
) -> int:
    """Dominator value of the sub-digraph h minus that of its host d.

    Positive values witness sub-digraphs strictly harder than the host
    containing them; the tilde-cycle family as host drives this
    arbitrarily high with the directed cycle embedded identically, as
    vertex_map range(n).
    """
    if not is_subdigraph(d, h, vertex_map):
        raise ValueError("invalid embedding: h does not embed into d")
    out_h = dominator_chromatic_number(h, mode)
    out_d = dominator_chromatic_number(d, mode)
    if out_d.value is None or out_h.value is None:
        raise UndefinedInvariant(
            "discrepancy undefined: infeasible instance in this mode"
        )
    return out_h.value - out_d.value
