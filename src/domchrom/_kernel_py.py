"""Pure-Python search kernel.

One backtracking search over canonical colorings: vertex i is assigned
a class from 0..min(opened, k-1), so each partition into at most k
classes is visited exactly once, in first-occurrence label order.
Vertex order and class trial order are fixed, which makes every witness
deterministic.  With no vertex required every domination and packing
check below passes, so the same search finds proper colorings: the
kernel module gets chi that way, with no second search to keep in step.

The search prunes on the domination requirement.
A vertex v can still end up dominating a class only if either some
already-opened class lies fully inside its out-neighborhood, or a class
index is still free to open (opened < k) and v has an uncolored
out-neighbor to put there.  Classes only grow as the search deepens, so
once neither holds the branch is dead.

That predicate is evaluated here on bitmasks over the required vertices
rather than by a loop over requirements and classes:

- into[u]: the required v with u in out(v);
- due_at[i]: the required v whose highest out-neighbor is <= i (from
  i = 0 for an empty out-set); every required v is due for a join once
  all k classes are open;
- inside[j]: the required v whose out-neighborhood contains class j,
  req & into[u] when u opens j, narrowed by & into[u] for each later
  member, and restored from a per-depth copy on backtrack;
- cover: the union of inside[j] over the opened classes, kept exact per
  depth.

A placement passes that check iff due is a subset of cover.  Opening a
class, and adding a vertex that leaves inside[c] unchanged, cost O(1);
only a shrinking inside[c] recomputes the O(k) union, and only when the
old cover did not already refute the placement.

A join never grows the cover: adding i to an opened class can only
narrow inside[c].  So when a vertex due for a join at depth i lies
outside the cover, every join fails the check, and vertex i is forced
to open a new class (or, with all k classes open, the search backs up).
The kernel then skips the join trials altogether.

A placement that passes must then pass the class-packing rule.  The
required vertices outside the new cover, left = req & ~cover, dominate
no opened class, and never will: classes only grow.  Each of them needs
a class opened later and made only of its uncolored out-neighbors,
R(v) = outs[v] & -(2 << i).  Vertices whose R(v) are pairwise disjoint
need distinct new classes, and at most spare = k - used' remain (used'
counting the classes after the placement).  So when left has more than
spare members, the kernel walks left in the order of required, takes
each v whose R(v) misses the union of those taken so far, and refutes
the placement once more than spare are taken.  Any walk gives a valid
count; the solver passes required by (out-degree, vertex), as small
out-sets first tend to take more of them.

Opening the last class needs no larger due set: it leaves spare = 0,
so the packing rule refutes any required vertex left outside the cover.

Both rules cut only subtrees that hold no coloring, and the search
order is unchanged, so the first coloring found, and with it every
value and witness, is the one the search finds without them; only the
node count falls.  A node is one tentative placement that passes the
properness check and is tested against the rules; the joins skipped by
a forced open are never tested, so they count no node.

This module is the reference twin of the compiled kernel in
_kernel_c.c, which evaluates the same predicate on 64-bit masks; the
two must stay in lockstep, including node counts.
Masks are Python ints, so callers must keep n <= 64 for parity with the
compiled twin.
"""

from __future__ import annotations


def solve_fixed_k_dominator(
    n: int,
    adj: list[int],
    outs: list[int],
    required: list[int],
    k: int,
) -> tuple[list[int] | None, int]:
    """Dominator coloring with at most k classes, plus nodes explored.

    adj[i]: undirected adjacency mask of i.  outs[v]: out-neighborhood
    mask of v.  adj must be outs plus the in-neighbors of a digraph with
    no arc both ways, so adj[u] & ~outs[u] are the in-neighbors of u;
    the proper search passes outs = adj with nothing required, where
    into is empty either way.  required: the vertices that must dominate
    a class, each once, in the order the packing rule walks.  A node is
    counted for each tentative placement that passes the properness
    check.
    """
    if n == 0:
        return [], 0
    req = 0
    due_at = [0] * n
    for v in required:
        bit = 1 << v
        req |= bit
        om = outs[v]
        due_at[max(om.bit_length() - 1, 0)] |= bit
    # no arc runs both ways, so adj[u] & ~outs[u] are u's in-neighbors
    into = [a & ~o & req for a, o in zip(adj, outs)]
    for i in range(1, n):
        due_at[i] |= due_at[i - 1]
    # the packing walk, in the order given, as (bit, out-set)
    order = [(1 << v, outs[v]) for v in required]
    color = [-1] * n
    class_masks = [0] * k
    inside = [0] * k
    saved = [0] * n
    used_stack = [0] * (n + 1)
    cover_stack = [0] * (n + 1)
    trial = [0] * n
    nodes = 0
    i = 0
    while True:
        used = used_stack[i]
        limit = used if used < k else k - 1
        c = trial[i]
        am = adj[i]
        bit = 1 << i
        into_i = into[i]
        due_open = due_at[i]
        due_join = req if used == k else due_open
        cover = cover_stack[i]
        if c < used and due_join & ~cover:
            # forced open: no join can bring a due vertex into the cover
            c = used
        placed = False
        while c <= limit:
            cm = class_masks[c]
            if not (cm & am):
                nodes += 1
                old = inside[c]
                if c == used:
                    grown = req & into_i
                    new_cover = cover | grown
                    due = due_open
                    spare = k - used - 1
                else:
                    grown = old & into_i
                    new_cover = cover
                    due = due_join
                    spare = k - used
                    # the cover can only shrink: refute on the old one
                    # first, and recompute it only when it may change
                    if grown != old and not (due & ~cover):
                        inside[c] = grown
                        new_cover = 0
                        for j in range(used):
                            new_cover |= inside[j]
                left = req & ~new_cover
                if not (due & left) and (
                    left.bit_count() <= spare or _packs(left, order, -(2 << i), spare)
                ):
                    class_masks[c] = cm | bit
                    inside[c] = grown
                    saved[i] = old
                    color[i] = c
                    trial[i] = c + 1
                    used_stack[i + 1] = used + 1 if c == used else used
                    cover_stack[i + 1] = new_cover
                    placed = True
                    break
                inside[c] = old
            c += 1
        if placed:
            i += 1
            if i == n:
                return color, nodes
            trial[i] = 0
            continue
        i -= 1
        if i < 0:
            return None, nodes
        c = color[i]
        class_masks[c] &= ~(1 << i)
        inside[c] = saved[i]


def _packs(left: int, order: list[tuple[int, int]], above: int, spare: int) -> bool:
    """Whether the vertices of left, walked in order, a list of (bit,
    out-set) pairs, meet no more than spare pairwise disjoint sets
    out-set & above."""
    taken = 0
    for bit, om in order:
        if left & bit:
            reach = om & above
            if not reach & taken:
                if not spare:
                    return False
                spare -= 1
                taken |= reach
    return True
