"""Orientation sweeps.

A sweep covers every orientation code of a base graph, aggregating the
value distribution and the extremal code sets.  A path, a cycle with at
least 5 vertices and a star, each as its builder in graphs lists its
edges, sweep through a minimised automaton (the automaton module): no
orientation is solved, and the kernel is not called.  The bases of one
family that sweeps() is given share one counting pass, and a report
walks for its extremal codes only when they are read.  Any other base
solves every code, in this process, on the solver's path: a strict-mode
sink or the packing bound's certificate settles a code with no kernel
call, and only the other codes climb the budget ladder.

solver.sweep, of one base, imports this module on its first call, so a
process that only solves never compiles it; sweeps() takes several.  The
sweep command calls sweeps() for a range of sizes, cli.sweep for one.
The solve path's helpers are read from the solver module at each call,
so one binding of each serves both a solve and a sweep.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property, partial
from typing import Callable, Sequence

from . import solver
from .coloring import Coloring, DominationMode
from .graphs import BaseGraph, _family, _Record, orient

# the most codes an extremal list of a sweep report holds
ARG_LIMIT = 64


class SweepReport(_Record):
    """Aggregate of dominator chromatic values over every orientation.

    distribution maps value to orientation count; together with
    infeasible_count it accounts for all 2^|edges| codes.  The extremal
    code lists hold orientation codes, the integers that orient takes
    (orient(report.base, c) is the orientation of c), ascending and
    capped at ARG_LIMIT codes each, with overflow flags telling whether
    codes were dropped.  A report from a sweep walks each list on its
    first read, so a caller that reads only the distribution never pays
    for them.  kernel_solves counts the codes whose value took the
    kernel ladder, 0 on an automaton sweep; it is not part of the
    answer, so report equality ignores it.
    """

    base: BaseGraph
    mode: DominationMode
    orientations: int
    distribution: dict[int, int]
    infeasible_count: int
    min_value: int | None
    max_value: int | None
    argmin_codes: tuple[int, ...]
    argmax_codes: tuple[int, ...]
    argmin_overflow: bool
    argmax_overflow: bool
    kernel_solves: int = 0

    _uncompared = ("kernel_solves",)

    # A report that _report builds has no code lists until one is read:
    # these walk for it then.  A list given to __init__ sits in the
    # instance dict, which a cached_property never overrides.
    @cached_property
    def argmin_codes(self) -> tuple[int, ...]:
        return self._codes_with(self.min_value)

    @cached_property
    def argmax_codes(self) -> tuple[int, ...]:
        return self._codes_with(self.max_value)

    def __getstate__(self):
        # the walk is a closure: a pickle carries the codes it gives
        return {name: getattr(self, name) for name in self._fields}


def _solve_codes(base: BaseGraph, mode: DominationMode) -> tuple[array, int]:
    """Values of every orientation of base, indexed by code, 0 marking
    an infeasible one; and how many took the kernel ladder.

    A strict-mode sink leaves an orientation infeasible, and a bound
    its certificate attains is its value: neither runs the kernel.
    """
    n = base.n
    edges = base.edges
    m = len(edges)
    adj = solver._adjacency_masks(n, edges)
    strict = mode is DominationMode.STRICT
    values = array("B")
    climbed = 0
    for code in range(1 << m):
        outs = [0] * n
        for i in range(m):
            u, v = edges[i]
            if (code >> (m - 1 - i)) & 1:
                outs[v] |= 1 << u
            else:
                outs[u] |= 1 << v
        if strict and 0 in outs:
            values.append(0)
            continue
        required = solver._required_vertices(n, outs, mode)
        value, classes = solver._lower_bound(n, adj, outs, required)
        if classes is None:
            # the bound is only where the ladder starts
            value = solver._solve_masks(n, adj, outs, required, value)[1] or 0
            climbed += 1
        values.append(value)
    return values, climbed


def _report(
    base: BaseGraph,
    mode: DominationMode,
    dist: dict[int, int],
    infeasible: int,
    first_codes: Callable[[int, int], list[int]],
    kernel_solves: int,
) -> SweepReport:
    """The report of a sweep from its count per feasible value, its
    infeasible count, and first_codes(value, limit), which gives the
    first limit codes with a value, ascending; the report calls it only
    when its code lists are read."""
    min_v = min(dist) if dist else None
    max_v = max(dist) if dist else None
    # read now: the codes may be walked long after this call
    limit = ARG_LIMIT

    def codes_with(target: int | None) -> tuple[int, ...]:
        return () if target is None else tuple(first_codes(target, limit))

    report = object.__new__(SweepReport)
    report.__dict__.update(
        base=base,
        mode=mode,
        orientations=1 << len(base.edges),
        distribution=dict(sorted(dist.items())),
        infeasible_count=infeasible,
        min_value=min_v,
        max_value=max_v,
        argmin_overflow=min_v is not None and dist[min_v] > limit,
        argmax_overflow=max_v is not None and dist[max_v] > limit,
        kernel_solves=kernel_solves,
        _codes_with=codes_with,
    )
    return report


def _scan(values: array, target: int, limit: int) -> list[int]:
    """The first limit codes whose value in values, indexed by code, is
    target."""
    codes: list[int] = []
    at = -1
    while len(codes) < limit:
        try:
            at = values.index(target, at + 1)
        except ValueError:
            break
        codes.append(at)
    return codes


def _automaton_family(base: BaseGraph) -> str | None:
    """The family whose automaton sweeps base, or None: a path, a star,
    or a cycle with at least 5 vertices (on fewer, a pair of classes the
    automaton counts is an edge or has two centres)."""
    family = _family(base)
    return None if family == "cycle" and base.n < 5 else family


def sweeps(
    bases: Sequence[BaseGraph], mode: DominationMode = DominationMode.SINK_EXEMPT
) -> list[SweepReport]:
    """The report of solver.sweep(base, mode) for each base, in order.
    The bases that one automaton sweeps share one counting pass over all
    their edge counts; every base is checked before any is swept."""
    families = [_automaton_family(base) for base in bases]
    for base, family in zip(bases, families):
        if family is not None:
            solver.check_automaton_size(base.n)
        else:
            solver.check_sweep_size(base.n, len(base.edges))
    reports: list[SweepReport | None] = [None] * len(bases)
    by_family: dict[str, list[int]] = {}
    for i, family in enumerate(families):
        if family is None:
            reports[i] = _sweep_codes(bases[i], mode)
        else:
            by_family.setdefault(family, []).append(i)
    if by_family:
        # the engine and its tables load only here
        from .automaton import sweep_values
    for family, members in by_family.items():
        ms = sorted({len(bases[i].edges) for i in members})
        values, first_codes = sweep_values(family, mode, ms)
        by_m = dict(zip(ms, values))
        for i in members:
            m = len(bases[i].edges)
            dist, infeasible = by_m[m]
            reports[i] = _report(
                bases[i], mode, dist, infeasible, partial(first_codes, m), 0
            )
    return reports


def _sweep_codes(base: BaseGraph, mode: DominationMode) -> SweepReport:
    """The report of a sweep that solves every code of base."""
    values, kernel_solves = _solve_codes(base, mode)
    dist = Counter(values)
    infeasible = dist.pop(0, 0)
    return _report(base, mode, dist, infeasible, partial(_scan, values), kernel_solves)


def _extreme_over_orientations(
    base: BaseGraph, mode: DominationMode, take_max: bool
) -> tuple[int, int, Coloring]:
    # the witness solve needs the kernel: refuse its size before sweeping
    solver.check_solvable_size(base.n)
    report = solver.sweep(base, mode)
    value = report.max_value if take_max else report.min_value
    if value is None:
        raise ValueError("no orientation is feasible under the strict requirement")
    code = (report.argmax_codes if take_max else report.argmin_codes)[0]
    outcome = solver.dominator_chromatic_number(orient(base, code), mode)
    assert outcome.witness is not None
    return value, code, outcome.witness


def min_over_orientations(
    base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> tuple[int, int, Coloring]:
    """Smallest dominator chromatic value over all orientations, with
    the first achieving code (ascending) and its witness."""
    return _extreme_over_orientations(base, mode, take_max=False)


def max_over_orientations(
    base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> tuple[int, int, Coloring]:
    """Largest dominator chromatic value over all orientations."""
    return _extreme_over_orientations(base, mode, take_max=True)
