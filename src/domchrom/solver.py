"""Exact solvers and orientation sweeps.

The dominator chromatic number of a digraph is found by trying class
budgets k in ascending order and stopping at n (giving every vertex its
own class always verifies under the sink-exempt requirement).  The
ladder starts at the packing bound P + chi(G - U): P required vertices
with independent, pairwise disjoint out-sets, whose union is U, each
dominate a distinct class inside U, and the other classes properly
color G - U.  Out-degree 1 is taken first, so the bound is never below
|S| + chi(G - S), S the sole out-neighbors of such vertices, nor below
chi(G); and as P <= |U| it is at most n, so every ladder ends in a
kernel call.  A required vertex with an empty out-set (a strict-mode
sink) dominates no class, so no budget succeeds: its bound is n, and
the ladder's one kernel call, at k = n, refutes it on one node.  Each
budget runs the backtracking search selected in the kernel module; its
class-packing rule walks the required vertices in the bound's order,
which _required_vertices alone defines.

chi(G - U) starts from one BFS 2-coloring, which settles 0, 1 and 2.
An odd G - U goes to the same search with no vertex required, climbing
budgets from a greedy clique on G - U relabelled highest degree first;
that order keeps odd wheels, such as the tilde cycle's underlying
graph, linear where index order is exponential.

The same 2-coloring gives a certificate, which a sweep uses, as it
needs values only, not witnesses.  The taken out-sets are independent
and pairwise disjoint; with the 2-coloring's sides (when chi(G - U) <=
2) they form a proper coloring with exactly P + chi(G - U) classes, in
which each taken vertex dominates its own class.  When every required
vertex the packing skipped also contains one of its classes, it is a
dominator coloring, and the bound is the value: no kernel call.  A
strict-mode sink makes the orientation infeasible, also with no kernel
call.  Only the other orientations climb the ladder, from the bound
already computed.

A sweep covers every orientation code of a base graph, aggregating the
value distribution and the extremal code sets.  A path, a cycle with at
least 5 vertices and a star, each as its builder in graphs lists its
edges, sweep through a minimised automaton (the automaton module): no
orientation is solved, and the kernel is not called.  The bases of one
family that sweeps() is given share one counting pass, and a report
walks for its extremal codes only when they are read.  Any other base
solves every code.  With workers > 1 and at least POOL_MIN_CODES codes
they are split into contiguous chunks whose values come back in order,
so the report never depends on scheduling.

Results are deterministic: fixed vertex order, ascending class trials,
ties between codes broken by ascending numeric value.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from functools import cached_property, partial
from typing import Callable, Sequence

from . import kernel
from .coloring import Coloring, DominationMode
from .graphs import BaseGraph, Digraph, OrientationCode, _family, _Record, orient

DEFAULT_MAX_SWEEP_EDGES = 24
SWEEP_EDGES_ENV = "DOMCHROM_MAX_SWEEP_EDGES"
# the most vertices of a base that an automaton sweeps
AUTOMATON_MAX_VERTICES = 1000
# the fewest codes a sweep with workers > 1 hands to a process pool: on
# 2 cores, below 14 edges the pool's start cost outweighed its gain
POOL_MIN_CODES = 16_384
ORACLE_MAX_VERTICES = 10
KERNEL_MAX_VERTICES = 64
# the most codes an extremal list of a sweep report holds
ARG_LIMIT = 64


class GuardExceeded(ValueError):
    """An exhaustive computation was refused because it is too large."""


class UndefinedInvariant(ValueError):
    """The invariant has no value on the instance: some digraph it needs
    has no dominator coloring in the requested mode."""


def check_solvable_size(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > KERNEL_MAX_VERTICES:
        raise ValueError(f"kernels support at most {KERNEL_MAX_VERTICES} vertices")


def _adjacency_masks(n: int, pairs) -> list[int]:
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _out_masks(d: Digraph) -> list[int]:
    outs = [0] * d.n
    for u, v in d.arcs:
        outs[u] |= 1 << v
    return outs


def _required_vertices(n: int, outs: list[int], mode: DominationMode) -> list[int]:
    """The vertices that must dominate a class, in the order that the
    packing bound and the kernels' packing rule walk: by out-degree, then
    vertex (a stable sort of ascending vertices)."""
    strict = mode is DominationMode.STRICT
    required = (v for v in range(n) if strict or outs[v])
    return sorted(required, key=lambda v: outs[v].bit_count())


def _kernel_inputs(d: Digraph, mode: DominationMode) -> tuple[list[int], ...]:
    """adj, outs and required of d, once its size is checked."""
    check_solvable_size(d.n)
    adj = _adjacency_masks(d.n, d.arcs)
    outs = _out_masks(d)
    return adj, outs, _required_vertices(d.n, outs, mode)


def chromatic_number(base: BaseGraph) -> int:
    """Exact chromatic number of an undirected graph, n >= 1.  A
    bipartite graph of any size is settled by its BFS 2-coloring; only
    one with an odd cycle needs the kernel, and its size limit."""
    if base.n < 1:
        raise ValueError("need at least one vertex")
    adj = _adjacency_masks(base.n, base.edges)
    keep = (1 << base.n) - 1
    sides = _two_coloring(adj, keep)
    if sides is not None:
        return len(sides)
    check_solvable_size(base.n)
    return _odd_chromatic(adj, keep)


def _odd_chromatic(adj: list[int], keep: int) -> int:
    """Chromatic number of the subgraph that the vertex mask keep
    induces, given that _two_coloring found an odd cycle in it.

    The subgraph is relabelled onto 0..r-1, highest degree in it first
    (a stable sort, so ties go by vertex index), and the proper search
    climbs from max(3, a greedy clique).  Left in, the vertices outside
    keep would be branched over on every refuted budget.  The order does
    not change chi but decides the cost: on an odd wheel in index order,
    hub last, each refuted budget tries every coloring of the rim, while
    the hub first leaves each rim vertex one class at a time.
    """
    members = [u for u in range(len(adj)) if keep >> u & 1]
    members.sort(key=lambda u: -(adj[u] & keep).bit_count())
    index = {u: j for j, u in enumerate(members)}
    sub = []
    for u in members:
        rest = adj[u] & keep
        mask = 0
        while rest:
            low = rest & -rest
            mask |= 1 << index[low.bit_length() - 1]
            rest ^= low
        sub.append(mask)
    r = len(members)
    for k in range(max(3, _greedy_clique_size(sub)), r + 1):
        if kernel.solve_fixed_k_proper(r, sub, k) is not None:
            return k
    raise AssertionError("unreachable: n classes always color n vertices")


def _two_coloring(adj: list[int], keep: int) -> list[int] | None:
    """The nonempty sides of a BFS 2-coloring of the subgraph induced by
    keep, each layer colored by the parity of its depth; None when the
    subgraph has an odd cycle."""
    sides = [0, 0]
    unseen = keep
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        parity = 0
        sides[0] |= frontier
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            # an edge inside a layer, or back to the same parity, closes
            # an odd cycle
            if reach & sides[parity]:
                return None
            frontier = reach & unseen
            unseen ^= frontier
            parity ^= 1
            sides[parity] |= frontier
    return [side for side in sides if side]


def _greedy_clique_size(adj: list[int]) -> int:
    """Size of a clique grown by taking, at each step, the candidate with
    the most candidate neighbors (the lowest such vertex on a tie); a
    lower bound on the chromatic number, and at least 2 once any edge
    exists."""
    size = 0
    candidates = (1 << len(adj)) - 1
    while candidates:
        best, most = 0, -1
        for u in range(len(adj)):
            if candidates >> u & 1:
                count = (adj[u] & candidates).bit_count()
                if count > most:
                    best, most = u, count
        candidates &= adj[best]
        size += 1
    return size


class SolveOutcome(_Record):
    """Result of one dominator-chromatic computation.

    value is None exactly when no class budget up to n admits a
    dominator coloring, which can happen only in STRICT mode.
    """

    value: int | None
    witness: Coloring | None
    nodes_explored: int
    mode: DominationMode

    def __init__(
        self,
        value: int | None,
        witness: Coloring | None,
        nodes_explored: int,
        mode: DominationMode,
    ):
        self.__dict__.update(
            value=value, witness=witness, nodes_explored=nodes_explored, mode=mode
        )

    @property
    def feasible(self) -> bool:
        return self.value is not None


def find_dominator_coloring(
    d: Digraph, k: int, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> Coloring | None:
    """A dominator coloring of d using at most k classes, or None."""
    if k < 1:
        raise ValueError("class budget must be positive")
    adj, outs, required = _kernel_inputs(d, mode)
    assignment, _ = kernel.solve_fixed_k_dominator(
        d.n, adj, outs, required, min(k, d.n)
    )
    if assignment is None:
        return None
    # the kernel's labels are canonical, so they need no second check
    return Coloring._from_checked(tuple(assignment), max(assignment) + 1)


def dominator_chromatic_number(
    d: Digraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> SolveOutcome:
    """Exact dominator chromatic number with a witness coloring."""
    adj, outs, required = _kernel_inputs(d, mode)
    start, _ = _lower_bound(d.n, adj, outs, required)
    assignment, value, nodes = _solve_masks(d.n, adj, outs, required, start)
    if assignment is None:
        return SolveOutcome(None, None, nodes, mode)
    # canonical labels, and every budget below value is refuted or below
    # the bound, so the kernel's coloring uses exactly value classes
    witness = Coloring._from_checked(tuple(assignment), value)
    return SolveOutcome(value, witness, nodes, mode)


def _lower_bound(
    n: int, adj: list[int], outs: list[int], required: list[int]
) -> tuple[int, list[int] | None]:
    """The packing bound P + chi(G - U), and the classes of a dominator
    coloring that attains it, when the packing's own classes form one
    (else None).

    Walk required, by (out-degree, vertex), and take v when outs[v] is
    independent and misses U, the union of the out-sets taken so far; P
    counts the vertices taken.  A required vertex with an empty out-set
    (a strict-mode sink), which comes first, dominates no class, so no
    budget can succeed: the bound is then n, never attained.

    One BFS 2-coloring of G - U settles chi(G - U) <= 2 by its sides, and
    hands an odd G - U to _odd_chromatic.  The taken out-sets with those
    sides form a proper coloring with exactly P + chi(G - U) classes;
    each taken vertex dominates its own.  It is the certificate when
    every vertex the walk skipped contains one of its classes.
    """
    if required and not outs[required[0]]:
        return n, None
    taken = 0
    classes = []
    skipped = []
    for v in required:
        om = outs[v]
        if not om & taken:
            # an edge inside om has an end above its lowest vertex
            rest = om & (om - 1)
            while rest:
                low = rest & -rest
                if adj[low.bit_length() - 1] & om:
                    break
                rest ^= low
            else:
                taken |= om
                classes.append(om)
                continue
        skipped.append(om)
    keep = ((1 << n) - 1) & ~taken
    sides = _two_coloring(adj, keep)
    if sides is None:
        return len(classes) + _odd_chromatic(adj, keep), None
    classes += sides
    for om in skipped:
        for members in classes:
            if not members & ~om:
                break
        else:
            return len(classes), None
    return len(classes), classes


def _solve_masks(
    n: int, adj: list[int], outs: list[int], required: list[int], start: int
) -> tuple[list[int] | None, int | None, int]:
    """Climb the class budgets from start up to n until the kernel finds
    a dominator coloring: (assignment, value, nodes), with assignment
    and value None when no budget admits one."""
    nodes = 0
    for k in range(start, n + 1):
        assignment, spent = kernel.solve_fixed_k_dominator(n, adj, outs, required, k)
        nodes += spent
        if assignment is not None:
            return assignment, k, nodes
    return None, None, nodes


def _partitions_exact(n: int, k: int):
    """All canonical assignments of n vertices into exactly k classes."""
    a = [0] * n

    def rec(i: int, opened: int):
        if i == n:
            if opened == k:
                yield tuple(a)
            return
        if opened + (n - i) < k:
            return
        hi = min(opened, k - 1)
        for c in range(hi + 1):
            a[i] = c
            yield from rec(i + 1, opened + (1 if c == opened else 0))

    yield from rec(0, 0)


def dominator_chromatic_number_oracle(
    d: Digraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> int | None:
    """Reference value by exhaustive partition enumeration.

    Deliberately shares nothing with the kernel search path: it walks
    every canonical partition for ascending class counts and accepts
    through its own yes/no check of the definition.  Guarded to n <= 10.
    """
    if d.n < 1:
        raise ValueError("need at least one vertex")
    if d.n > ORACLE_MAX_VERTICES:
        raise GuardExceeded(
            f"oracle is exhaustive and limited to n <= {ORACLE_MAX_VERTICES}"
        )
    outs = [0] * d.n
    for u, v in d.arcs:
        outs[u] |= 1 << v
    strict = mode is DominationMode.STRICT
    not_outs = [~om for om in outs if om or strict]
    for k in range(1, d.n + 1):
        for assignment in _partitions_exact(d.n, k):
            if _oracle_accepts(d.arcs, not_outs, assignment, k):
                return k
    return None


def _oracle_accepts(arcs, not_outs: list[int], assignment, k: int) -> bool:
    """Whether a partition is a dominator coloring, stopping at the first
    violation: no arc inside a class, and for each required vertex
    (given by the complement of its out-mask) some class that misses
    the complement."""
    for u, v in arcs:
        if assignment[u] == assignment[v]:
            return False
    classes = [0] * k
    for v, c in enumerate(assignment):
        classes[c] |= 1 << v
    for not_out in not_outs:
        for members in classes:
            if not members & not_out:
                break
        else:
            return False
    return True


class SweepReport(_Record):
    """Aggregate of dominator chromatic values over every orientation.

    distribution maps value to orientation count; together with
    infeasible_count it accounts for all 2^|edges| codes.  The extremal
    code lists hold integer codes, the numeric values of OrientationCode
    (OrientationCode.from_value(report.base, c) is the orientation of
    c), ascending and capped at ARG_LIMIT codes each, with overflow
    flags telling whether codes were dropped.  A report from a sweep
    walks each list on its first read, so a caller that reads only the
    distribution never pays for them.  kernel_solves counts the codes
    whose value took the kernel ladder, 0 on an automaton sweep; it is
    not part of the answer, so report equality ignores it.
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
    kernel_solves: int

    _uncompared = ("kernel_solves",)

    def __init__(
        self,
        base: BaseGraph,
        mode: DominationMode,
        orientations: int,
        distribution: dict[int, int],
        infeasible_count: int,
        min_value: int | None,
        max_value: int | None,
        argmin_codes: tuple[int, ...],
        argmax_codes: tuple[int, ...],
        argmin_overflow: bool,
        argmax_overflow: bool,
        kernel_solves: int = 0,
    ):
        self.__dict__.update(
            base=base,
            mode=mode,
            orientations=orientations,
            distribution=distribution,
            infeasible_count=infeasible_count,
            min_value=min_value,
            max_value=max_value,
            argmin_codes=argmin_codes,
            argmax_codes=argmax_codes,
            argmin_overflow=argmin_overflow,
            argmax_overflow=argmax_overflow,
            kernel_solves=kernel_solves,
        )

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


def _solve_codes(base: BaseGraph, mode: DominationMode, codes) -> tuple[array, int]:
    """Values of the orientations with the given codes, in order, 0
    marking an infeasible one; and how many took the kernel ladder.

    A strict-mode sink leaves an orientation infeasible, and a bound
    its certificate attains is its value: neither runs the kernel.
    """
    n = base.n
    edges = base.edges
    m = len(edges)
    adj = _adjacency_masks(n, edges)
    strict = mode is DominationMode.STRICT
    values = array("B")
    climbed = 0
    for code in codes:
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
        required = _required_vertices(n, outs, mode)
        value, classes = _lower_bound(n, adj, outs, required)
        if classes is None:
            # the bound is only where the ladder starts
            value = _solve_masks(n, adj, outs, required, value)[1] or 0
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


def check_automaton_size(n: int) -> None:
    """Refuse an automaton sweep over a base of n vertices, which need
    not be built yet: GuardExceeded past AUTOMATON_MAX_VERTICES."""
    if n > AUTOMATON_MAX_VERTICES:
        raise GuardExceeded(
            f"sweep over {n} vertices exceeds the guard of {AUTOMATON_MAX_VERTICES}"
        )


def check_sweep_size(n: int, m: int) -> None:
    """Refuse a sweep that solves every code of a base of n vertices and
    m edges, which need not be built yet: ValueError past the kernel
    limit, GuardExceeded past the edge guard."""
    check_solvable_size(n)
    raw = os.environ.get(SWEEP_EDGES_ENV, str(DEFAULT_MAX_SWEEP_EDGES))
    try:
        guard = int(raw)
    except ValueError:
        raise ValueError(f"{SWEEP_EDGES_ENV} must be an integer, got {raw!r}")
    if m > guard:
        raise GuardExceeded(
            f"sweep over {m} edges exceeds the guard of {guard} "
            f"(raise via {SWEEP_EDGES_ENV})"
        )


def sweep(
    base: BaseGraph,
    mode: DominationMode = DominationMode.SINK_EXEMPT,
    *,
    workers: int = 1,
) -> SweepReport:
    """Aggregate the values of every orientation of base.

    A path, a cycle with at least 5 vertices or a star, with its edges
    in the order of its builder, sweeps through its automaton and solves
    no orientation; workers is then unused.  Any other base solves every
    code.
    """
    return sweeps([base], mode, workers=workers)[0]


def sweeps(
    bases: Sequence[BaseGraph],
    mode: DominationMode = DominationMode.SINK_EXEMPT,
    *,
    workers: int = 1,
) -> list[SweepReport]:
    """The report of sweep(base, mode, workers=workers) for each base, in
    order.  The bases that one automaton sweeps share one counting pass
    over all their edge counts; every base is checked before any is
    swept."""
    families = [_automaton_family(base) for base in bases]
    for base, family in zip(bases, families):
        if family is not None:
            check_automaton_size(base.n)
        else:
            check_sweep_size(base.n, len(base.edges))
    if workers < 1:
        raise ValueError("workers must be at least 1")
    reports: list[SweepReport | None] = [None] * len(bases)
    by_family: dict[str, list[int]] = {}
    for i, family in enumerate(families):
        if family is None:
            reports[i] = _sweep_codes(bases[i], mode, workers)
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


def _sweep_codes(base: BaseGraph, mode: DominationMode, workers: int) -> SweepReport:
    """The report of a sweep that solves every code of base; with
    workers > 1 and at least POOL_MIN_CODES codes, in a process pool."""
    m = len(base.edges)
    codes = range(1 << m)
    if workers > 1 and len(codes) >= POOL_MIN_CODES:
        # the pool stack (multiprocessing, socket, logging) loads only here
        from concurrent.futures import ProcessPoolExecutor

        step = max(1, len(codes) // (workers * 8))
        chunks = [codes[i : i + step] for i in range(0, len(codes), step)]
        # never more processes than requested, CPUs, or chunks to run
        size = min(workers, os.cpu_count() or 1, len(chunks))
        values = array("B")
        kernel_solves = 0
        # A worker started by spawn or forkserver imports the kernel
        # afresh; each one is set to the parent's backend once.
        with ProcessPoolExecutor(
            max_workers=size,
            initializer=kernel.use_backend,
            initargs=(kernel.backend_name,),
        ) as pool:
            futures = [
                pool.submit(_solve_codes, base, mode, chunk) for chunk in chunks
            ]
            for future in futures:
                chunk_values, chunk_solves = future.result()
                values.extend(chunk_values)
                kernel_solves += chunk_solves
    else:
        values, kernel_solves = _solve_codes(base, mode, codes)
    dist = Counter(values)
    infeasible = dist.pop(0, 0)
    return _report(base, mode, dist, infeasible, partial(_scan, values), kernel_solves)


def _extreme_over_orientations(
    base: BaseGraph, mode: DominationMode, take_max: bool
) -> tuple[int, OrientationCode, Coloring]:
    # the witness solve needs the kernel: refuse its size before sweeping
    check_solvable_size(base.n)
    report = sweep(base, mode)
    value = report.max_value if take_max else report.min_value
    if value is None:
        raise ValueError("no orientation is feasible under the strict requirement")
    code = OrientationCode.from_value(
        base, (report.argmax_codes if take_max else report.argmin_codes)[0]
    )
    outcome = dominator_chromatic_number(orient(code), mode)
    assert outcome.witness is not None
    return value, code, outcome.witness


def min_over_orientations(
    base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> tuple[int, OrientationCode, Coloring]:
    """Smallest dominator chromatic value over all orientations, with
    the first achieving code (ascending) and its witness."""
    return _extreme_over_orientations(base, mode, take_max=False)


def max_over_orientations(
    base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> tuple[int, OrientationCode, Coloring]:
    """Largest dominator chromatic value over all orientations."""
    return _extreme_over_orientations(base, mode, take_max=True)
