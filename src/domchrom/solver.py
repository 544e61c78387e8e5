"""Exact solvers and orientation sweeps.

The dominator chromatic number of a digraph is found by trying class
budgets k in ascending order and stopping at n (giving every vertex its
own class always verifies under the sink-exempt requirement).  The
ladder starts at the packing bound.  Each required vertex holds a whole
class inside its out-set, so P required vertices with pairwise disjoint
out-sets, whose union is U, hold P distinct classes inside U, and the
other classes properly color G - U: P + chi(G - U) is a lower bound, for
which disjointness is enough.  A first pass takes out-sets that are also
independent, as the certificate below needs.  Out-degree 1 is taken
first, so the bound is never below |S| + chi(G - S), S the sole
out-neighbors of such vertices, nor below chi(G); and as P <= |U| it is
at most n, as is the second bound below, so every ladder ends in a
kernel call.  When the first pass gives no certificate, a second pass
adds the skipped out-sets that miss the growing union U'', and the
ladder starts at the larger of the two bounds, the second taking a cheap
lower bound on chi(G - U'').  A required vertex with an empty out-set (a
strict-mode sink) dominates no class, so no budget succeeds: its bound
is n, and the ladder's one kernel call, at k = n, refutes it on one
node.  Each budget runs the backtracking search selected in the kernel
module; its class-packing rule walks the required vertices in the
bound's order, which _required_vertices alone defines.

chi(G - U) starts from one BFS 2-coloring, which settles 0, 1 and 2.
An odd G - U is colored greedily, highest degree first; when that meets
max(3, a greedy clique), it is chi.  Only otherwise does the same search
with no vertex required climb the budgets between the two, on G - U
relabelled highest degree first; that order keeps odd wheels, such as
the tilde cycle's underlying graph, linear where index order is
exponential.

The same 2-coloring gives a certificate, which a sweep uses, as it
needs values only, not witnesses.  The first pass's out-sets are
independent and pairwise disjoint; with the 2-coloring's sides (when
chi(G - U) <= 2) they form a proper coloring with exactly P + chi(G - U)
classes, in which each taken vertex dominates its own class.  When every
required vertex the packing skipped also contains one of its classes, it
is a dominator coloring, and the bound is the value: no kernel call.  A
strict-mode sink makes the orientation infeasible, also with no kernel
call.  Only the other orientations climb the ladder, from the bound
already computed.

sweep is the entry point of an orientation sweep of one base; the
sweeping module, which holds SweepReport, the sweep itself, sweeps of
several bases and the extremes over orientations, loads on its first
call, so a process that only solves or verifies never compiles it.  The
size guards of a sweep stay here, so a caller can refuse one first.

Results are deterministic: fixed vertex order, ascending class trials,
ties between codes broken by ascending numeric value.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from . import kernel
from .coloring import Coloring, DominationMode
from .graphs import BaseGraph, Digraph, _Record

if TYPE_CHECKING:
    from .sweeping import SweepReport

DEFAULT_MAX_SWEEP_EDGES = 24
SWEEP_EDGES_ENV = "DOMCHROM_MAX_SWEEP_EDGES"
# the most vertices of a base that an automaton sweeps
AUTOMATON_MAX_VERTICES = 1000
ORACLE_MAX_VERTICES = 10
KERNEL_MAX_VERTICES = 64


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


def _required_vertices(n: int, outs: list[int], mode: DominationMode) -> list[int]:
    """The vertices that must dominate a class, in the order that the
    packing bound and the kernels' packing rule walk: by out-degree, then
    vertex (a stable sort of ascending vertices)."""
    strict = mode is DominationMode.STRICT
    required = (v for v in range(n) if strict or outs[v])
    return sorted(required, key=lambda v: outs[v].bit_count())


def _kernel_inputs(d: Digraph, mode: DominationMode) -> tuple[list[int], ...]:
    """adj, outs and required of d, once its size is checked."""
    n = d.n
    check_solvable_size(n)
    adj = [0] * n
    outs = [0] * n
    for u, v in d.arcs:
        bit = 1 << v
        outs[u] |= bit
        adj[u] |= bit
        adj[v] |= 1 << u
    return adj, outs, _required_vertices(n, outs, mode)


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

    A greedy coloring, highest degree in the subgraph first (a stable
    sort, so ties go by vertex index), is an upper bound, and 3, or past
    it a greedy clique, a lower one; when they meet, that is chi, and no
    search runs.  Else the subgraph is relabelled onto 0..r-1 in the same
    order, and the proper search climbs the budgets between the two; the
    greedy count is chi when every one is refuted.  Left in, the vertices
    outside keep would be branched over on every refuted budget.  The
    order does not change chi but decides the cost: on an odd wheel in
    index order, hub last, each refuted budget tries every coloring of
    the rim, while the hub first leaves each rim vertex one class at a
    time.
    """
    members = [u for u in range(len(adj)) if keep >> u & 1]
    members.sort(key=lambda u: -(adj[u] & keep).bit_count())
    classes: list[int] = []
    for u in members:
        near = adj[u] & keep
        for c, colored in enumerate(classes):
            if not colored & near:
                classes[c] |= 1 << u
                break
        else:
            classes.append(1 << u)
    greedy = len(classes)
    least = 3 if greedy == 3 else max(3, _greedy_clique_size(adj, keep))
    if least == greedy:
        return greedy
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
    for k in range(least, greedy):
        if kernel.solve_fixed_k_proper(len(sub), sub, k) is not None:
            return k
    return greedy


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


def _greedy_clique_size(adj: list[int], keep: int | None = None) -> int:
    """Size of a clique grown inside keep (every vertex by default) by
    taking, at each step, the candidate with the most candidate neighbors
    (the lowest such vertex on a tie); a lower bound on the chromatic
    number of the subgraph keep induces, and at least 2 once it has an
    edge."""
    size = 0
    candidates = (1 << len(adj)) - 1 if keep is None else keep
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
        return SolveOutcome._from_checked(None, None, nodes, mode)
    # canonical labels, and every budget below value is refuted or below
    # the bound, so the kernel's coloring uses exactly value classes
    witness = Coloring._from_checked(tuple(assignment), value)
    return SolveOutcome._from_checked(value, witness, nodes, mode)


def _lower_bound(
    n: int, adj: list[int], outs: list[int], required: list[int]
) -> tuple[int, list[int] | None]:
    """The packing bound, and the classes of a dominator coloring that
    attains it, when the packing's own classes form one (else None).

    In every dominator coloring each required vertex holds a whole class
    inside its out-set, so the classes of vertices with pairwise disjoint
    out-sets are distinct and lie inside the union U of those out-sets,
    and the other classes properly color G - U: P such vertices give the
    bound P + chi(G - U).  Disjointness is all the bound needs.

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

    Without a certificate, a second pass takes, in the same order, each
    skipped out-set that misses the growing union U'' (an out-set the
    walk skipped only for an edge inside it), and the bound is the larger
    of P + chi(G - U) and P'' + a lower bound on chi(G - U''): the count
    of its 2-coloring's sides, or else max(3, a greedy clique).
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
    packed = len(classes)
    keep = ((1 << n) - 1) & ~taken
    sides = _two_coloring(adj, keep)
    if sides is None:
        bound = packed + _odd_chromatic(adj, keep)
    else:
        classes += sides
        bound = len(classes)
        for om in skipped:
            for members in classes:
                if not members & ~om:
                    break
            else:
                # om contains no class: no certificate
                break
        else:
            return bound, classes
    union = taken
    for om in skipped:
        if not om & union:
            union |= om
            packed += 1
    if union != taken:
        keep = ((1 << n) - 1) & ~union
        sides = _two_coloring(adj, keep)
        chi = max(3, _greedy_clique_size(adj, keep)) if sides is None else len(sides)
        bound = max(bound, packed + chi)
    return bound, None


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
    base: BaseGraph, mode: DominationMode = DominationMode.SINK_EXEMPT
) -> SweepReport:
    """Aggregate the values of every orientation of base.

    A path, a cycle with at least 5 vertices or a star, with its edges
    in the order of its builder, sweeps through its automaton and solves
    no orientation.  Any other base solves every code.
    """
    from . import sweeping

    return sweeping.sweeps([base], mode)[0]
