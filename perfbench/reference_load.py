"""The host-speed reference: a frozen piece of CPU work timed between
the workload's calls.

On a shared host the CPU speed moves between levels up to 1.7 times
apart, each lasting from a fraction of a second to minutes, in wall and
in CPU time alike.  A run that sits in a slow level reads slow from end
to end, and no statistic over that run can tell.  So run.py times this
load in short slices between the workload's segments and scales each
segment's time by ``NOMINAL_S / (time of the load next to it)``: the
gated times read as if the host ran at the speed at which this load
takes NOMINAL_S.

The load must never change, or the scale moves with it.  It is a copy of
the pure-Python dominator kernel of the commit that introduced the
benchmark (``domchrom._kernel_py.solve_fixed_k_dominator``), run over a
fixed set of budget ladders on digraphs drawn here from a fixed seed.
It imports nothing from domchrom, so no change to the program moves it;
``check`` fails a run whose load does not explore exactly NODES nodes.
"""

from __future__ import annotations

import random
import time

SEED = 1902
DIGRAPHS = 128
N = 10
DENSITY = 0.4
NODES = 20237
# The load's time at the speed the gated times are scaled to: near its
# fastest level on a 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7).
NOMINAL_S = 0.021


def _dominator(n, adj, outs, required, k):
    """Frozen copy of the seed's pure-Python dominator kernel."""
    req = []
    for v in required:
        om = outs[v]
        req.append((om.bit_length() - 1, ~om))
    color = [-1] * n
    class_masks = [0] * k
    used_stack = [0] * (n + 1)
    trial = [0] * n
    nodes = 0
    i = 0
    while True:
        used = used_stack[i]
        limit = used if used < k else k - 1
        c = trial[i]
        am = adj[i]
        bit = 1 << i
        placed = False
        while c <= limit:
            cm = class_masks[c]
            if not (cm & am):
                nodes += 1
                class_masks[c] = cm | bit
                new_used = used + (1 if c == used else 0)
                feasible = True
                for maxout, not_out in req:
                    if maxout > i and new_used < k:
                        continue
                    for j in range(new_used):
                        if not (class_masks[j] & not_out):
                            break
                    else:
                        feasible = False
                        break
                if feasible:
                    color[i] = c
                    trial[i] = c + 1
                    used_stack[i + 1] = new_used
                    placed = True
                    break
                class_masks[c] = cm
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
        class_masks[color[i]] &= ~(1 << i)
        color[i] = -1


def _digraphs():
    """Fixed sink-exempt instances: (adj, outs, required) per digraph."""
    rng = random.Random(SEED)
    out = []
    for _ in range(DIGRAPHS):
        adj = [0] * N
        outs = [0] * N
        for u in range(N):
            for v in range(u + 1, N):
                if rng.random() < DENSITY:
                    a, b = (u, v) if rng.random() < 0.5 else (v, u)
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
                    outs[a] |= 1 << b
        out.append((adj, outs, [v for v in range(N) if outs[v]]))
    return out


class ReferenceLoad:
    def __init__(self):
        self._digraphs = _digraphs()

    def run(self) -> int:
        """Every digraph's budget ladder from k = 1 up to the first
        coloring found; returns the nodes explored."""
        total = 0
        for adj, outs, required in self._digraphs:
            for k in range(1, N + 1):
                found, nodes = _dominator(N, adj, outs, required, k)
                total += nodes
                if found is not None:
                    break
        return total

    def check(self) -> None:
        nodes = self.run()
        if nodes != NODES:
            raise SystemExit(f"error: the reference load explored {nodes} nodes, not {NODES}")

    def time(self, reps: int = 1) -> float:
        """Seconds per run of the load, over reps back-to-back runs."""
        t0 = time.perf_counter()
        for _ in range(reps):
            self.run()
        return (time.perf_counter() - t0) / reps
