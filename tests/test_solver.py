import concurrent.futures
import os
import random
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import digraphs, random_connected_digraph
from domchrom import kernel, solver
from domchrom import (
    BaseGraph,
    Coloring,
    Digraph,
    DominationMode,
    GuardExceeded,
    OrientationCode,
    SweepReport,
    chromatic_number,
    code_of,
    cycle_base,
    directed_cycle,
    directed_path,
    dominator_chromatic_number,
    dominator_chromatic_number_oracle,
    find_dominator_coloring,
    max_over_orientations,
    min_over_orientations,
    orient,
    path_base,
    star_oriented,
    sweep,
    tilde_cycle,
    tilde_cycle_optimal,
    underlying,
    verify,
)
from domchrom.coloring import canonicalize
from domchrom.graphs import _mirror, code_orbits, star_base

SINK_EXEMPT = DominationMode.SINK_EXEMPT
STRICT = DominationMode.STRICT


def complete_base(n):
    return BaseGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_chromatic_number_basics():
    assert chromatic_number(BaseGraph(1, [])) == 1
    assert chromatic_number(BaseGraph(4, [])) == 1
    assert chromatic_number(path_base(2)) == 2
    assert chromatic_number(path_base(7)) == 2
    assert chromatic_number(cycle_base(6)) == 2
    assert chromatic_number(cycle_base(7)) == 3
    assert chromatic_number(complete_base(5)) == 5


@given(st.data())
def test_chromatic_climb_from_a_clique_matches_the_climb_from_one(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = BaseGraph(n, [e for e, kept in zip(pairs, keep) if kept])
    adj = solver._adjacency_masks(n, base.edges)
    from_one = next(
        k for k in range(1, n + 1) if kernel.solve_fixed_k_proper(n, adj, k) is not None
    )
    clique = solver._greedy_clique_size(adj)
    assert (clique >= 2) == bool(base.edges)
    assert clique <= from_one
    assert chromatic_number(base) == from_one


def test_find_dominator_coloring_respects_budget():
    d = directed_path(4)  # value 4
    assert find_dominator_coloring(d, 3) is None
    c = find_dominator_coloring(d, 4)
    assert c is not None
    assert verify(d, c).ok
    with pytest.raises(ValueError):
        find_dominator_coloring(d, 0)


def test_directed_path_and_cycle_need_a_class_per_vertex():
    for n in (3, 5, 7):
        assert dominator_chromatic_number(directed_path(n)).value == n
        assert dominator_chromatic_number(directed_cycle(n)).value == n


def test_solve_outcome_fields():
    out = dominator_chromatic_number(directed_path(3))
    assert out.feasible
    assert out.value == 3
    assert out.mode is SINK_EXEMPT
    assert out.nodes_explored > 0
    assert verify(directed_path(3), out.witness).ok


def test_strict_mode_can_be_infeasible():
    d = star_oriented(2, 0)  # two sinks, no budget can help
    out = dominator_chromatic_number(d, STRICT)
    assert out.value is None
    assert out.witness is None
    assert not out.feasible
    assert dominator_chromatic_number_oracle(d, STRICT) is None


def _induced_masks(adj, keep):
    members = [u for u in range(len(adj)) if keep >> u & 1]
    edges = [
        (i, j)
        for i, u in enumerate(members)
        for j, w in enumerate(members)
        if i < j and adj[u] >> w & 1
    ]
    return len(members), solver._adjacency_masks(len(members), edges)


def _chi_by_climb(adj, keep):
    """chi of the subgraph induced by keep: the first class count with a
    proper partition, enumerated exhaustively on a relabelled copy, so it
    shares no code with the search."""
    r, sub = _induced_masks(adj, keep)
    edges = [(u, w) for u in range(r) for w in range(u + 1, r) if sub[u] >> w & 1]
    return next(
        (
            k
            for k in range(1, r + 1)
            if any(
                all(a[u] != a[w] for u, w in edges)
                for a in solver._partitions_exact(r, k)
            )
        ),
        0,
    )


def _singleton_bound(n, adj, outs, required):
    """|S| + chi(G - S), S the sole out-neighbors of the required
    vertices of out-degree 1: the packing bound must never fall below it."""
    forced = 0
    for v in required:
        om = outs[v]
        if om and not om & (om - 1):
            forced |= om
    return forced.bit_count() + _chi_by_climb(adj, ((1 << n) - 1) & ~forced)


def _ladder_from(start, n, adj, outs, required):
    nodes = 0
    for k in range(start, n + 1):
        assignment, spent = kernel.solve_fixed_k_dominator(n, adj, outs, required, k)
        nodes += spent
        if assignment is not None:
            return assignment, k, nodes
    return None, None, nodes


@given(digraphs(max_n=9))
# taking 0's out-set {1, 2} would drop the bound below |S| + chi(G - S),
# though an edge joins 1 and 2
@example(Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
# 0 and 3 share the out-set {1, 2}: taking both would exceed the value
@example(Digraph(4, [(0, 1), (0, 2), (3, 1), (3, 2)]))
def test_ladder_bound_lies_between_chromatic_number_and_value(d):
    # chi(G) <= |S| + chi(G - S) <= the packing bound <= the oracle's
    # value; started there, the ladder ends at the same budget and the
    # same coloring as from |S| + chi(G - S), on no more nodes
    adj = solver._adjacency_masks(d.n, d.arcs)
    outs = solver._out_masks(d)
    chi = chromatic_number(underlying(d))
    for mode in DominationMode:
        required = solver._required_vertices(d.n, outs, mode)
        reference = _singleton_bound(d.n, adj, outs, required)
        bound, _ = solver._lower_bound(d.n, adj, outs, required)
        assert chi <= reference <= bound
        value = dominator_chromatic_number_oracle(d, mode)
        assert bound <= (d.n if value is None else value)
        assignment, got, nodes = solver._solve_masks(d.n, adj, outs, required, bound)
        want = _ladder_from(reference, d.n, adj, outs, required)
        assert (assignment, got) == want[:2]
        assert nodes <= want[2]
        assert got == value
        assert dominator_chromatic_number(d, mode).value == value


def _spy_on(monkeypatch, name):
    """The keep mask of every call to the solver helper name from now on."""
    calls = []
    real = getattr(solver, name)

    def spy(adj, keep):
        calls.append(keep)
        return real(adj, keep)

    monkeypatch.setattr(solver, name, spy)
    return calls


def test_ladder_computes_one_chromatic_number(monkeypatch):
    sides = _spy_on(monkeypatch, "_two_coloring")
    odd = _spy_on(monkeypatch, "_odd_chromatic")
    # one 2-coloring per ladder, infeasible ones included, and also when
    # U takes every vertex: the directed cycle's answer is the bound
    # n + chi(empty); never for a strict-mode sink, whose bound is n at
    # once; the proper search only for an odd G - U, as the tilde
    # 5-cycle's wheel
    wheel = tilde_cycle(5)
    for d in (directed_cycle(5), directed_path(4), star_oriented(3, 1), wheel):
        for mode in DominationMode:
            sides.clear()
            odd.clear()
            dominator_chromatic_number(d, mode)
            sink = mode is STRICT and not all(solver._out_masks(d))
            assert len(sides) == (0 if sink else 1), (d, mode)
            assert odd == (sides if d is wheel else []), (d, mode)
    sides.clear()
    dominator_chromatic_number(directed_cycle(5))
    assert sides == [0]
    sides.clear()
    dominator_chromatic_number(wheel)
    assert sides == [(1 << wheel.n) - 1]


@given(digraphs(max_n=9))
# every out-set is a singleton: the packing takes them all
@example(directed_cycle(5))
# vertex 1's out-set {0, 2} holds the packing class {2} of vertex 0
@example(Digraph(3, [(0, 2), (1, 0), (1, 2)]))
def test_an_accepted_certificate_is_an_optimal_dominator_coloring(d):
    adj = solver._adjacency_masks(d.n, d.arcs)
    outs = solver._out_masks(d)
    for mode in DominationMode:
        required = solver._required_vertices(d.n, outs, mode)
        bound, classes = solver._lower_bound(d.n, adj, outs, required)
        if classes is None:
            continue
        assert len(classes) == bound
        assignment = [None] * d.n
        for label, members in enumerate(classes):
            for v in range(d.n):
                if members >> v & 1:
                    assert assignment[v] is None, classes
                    assignment[v] = label
        assert None not in assignment, classes
        assert verify(d, canonicalize(assignment), mode).ok, (mode, classes)
        assert bound == dominator_chromatic_number_oracle(d, mode)


def spy_kernel_calls(monkeypatch):
    """The class budget k of every dominator-kernel call from now on."""
    budgets = []
    real = kernel.solve_fixed_k_dominator

    def spy(n, adj, outs, required, k):
        budgets.append(k)
        return real(n, adj, outs, required, k)

    monkeypatch.setattr(kernel, "solve_fixed_k_dominator", spy)
    return budgets


def test_sweeps_settled_by_the_bound_call_no_kernel(monkeypatch):
    budgets = spy_kernel_calls(monkeypatch)
    # the certificate attains every star orbit's bound, and every
    # orientation of a path has a sink
    star = sweep(star_base(16))
    strict_path = sweep(path_base(12), STRICT)
    assert budgets == []
    assert star.kernel_solves == strict_path.kernel_solves == 0
    assert (star.min_value, star.max_value) == (2, 3)
    assert strict_path.infeasible_count == 1 << 11
    # a 9-vertex path has orbits only the ladder settles
    assert sweep(path_base(9)).kernel_solves == 7
    assert budgets


def test_a_strict_sink_costs_one_kernel_call_at_n(monkeypatch):
    budgets = spy_kernel_calls(monkeypatch)
    for d in (directed_path(6), star_oriented(4, 1), Digraph(1, [])):
        budgets.clear()
        outcome = dominator_chromatic_number(d, STRICT)
        assert outcome.value is None
        assert outcome.nodes_explored == 1
        assert budgets == [d.n]


def test_odd_chromatic_matches_an_exhaustive_count(monkeypatch):
    real = kernel.solve_fixed_k_proper
    searches = []

    def spy(n, adj, k):
        searches.append(adj)
        return real(n, adj, k)

    monkeypatch.setattr(kernel, "solve_fixed_k_proper", spy)
    # edgeless, bipartite and odd-cycle bases, one with a pendant vertex
    # that keep drops, an odd wheel with its hub last, then random graphs
    # and random vertex subsets
    pendant_pentagon = BaseGraph(
        6, [(0, 1)] + [(1 + u, 1 + v) for u, v in cycle_base(5).edges]
    )
    bases = [BaseGraph(4, []), path_base(6), cycle_base(6), cycle_base(7)]
    bases += [pendant_pentagon, complete_base(4), underlying(tilde_cycle(7))]
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bases.append(BaseGraph(n, [e for e in pairs if rng.random() < p]))
    seen = set()
    for base in bases:
        adj = solver._adjacency_masks(base.n, base.edges)
        full = (1 << base.n) - 1
        for keep in (full, full & ~1, 0, rng.randrange(1 << base.n)):
            expected = _chi_by_climb(adj, keep)
            sides = solver._two_coloring(adj, keep)
            # the 2-coloring settles 0, 1 and 2 by its nonempty sides
            assert (sides is None) == (expected > 2), (base, keep)
            if sides is not None:
                assert len(sides) == expected, (base, keep)
                continue
            searches.clear()
            assert solver._odd_chromatic(adj, keep) == expected, (base, keep)
            # the search runs on the subgraph relabelled onto 0..r-1,
            # highest degree first
            degrees = [mask.bit_count() for mask in searches[0]]
            assert len(degrees) == keep.bit_count(), (base, keep)
            assert degrees == sorted(degrees, reverse=True), (base, keep)
            seen.add(expected)
    assert {3, 4} <= seen


def test_odd_tilde_cycles_solve_up_to_the_kernel_limit():
    # the tilde cycle's underlying graph is a wheel; with the rim odd,
    # chi = 4, which the search reaches in linear time only with the hub
    # first: in index order each refuted budget tries every rim coloring
    for n in (25, 41, 63):
        d = tilde_cycle(n)
        assert chromatic_number(underlying(d)) == 4
        assert dominator_chromatic_number(d).value == tilde_cycle_optimal(n).claimed_value


def test_oracle_agrees_on_small_instances():
    rng = random.Random(3)
    for _ in range(25):
        d = random_connected_digraph(rng, rng.randint(1, 6))
        for mode in DominationMode:
            assert (
                dominator_chromatic_number(d, mode).value
                == dominator_chromatic_number_oracle(d, mode)
            )


def test_size_guards():
    with pytest.raises(ValueError):
        dominator_chromatic_number(Digraph(0, []))
    with pytest.raises(ValueError):
        dominator_chromatic_number(Digraph(65, []))
    with pytest.raises(GuardExceeded):
        dominator_chromatic_number_oracle(Digraph(11, []))


def test_sweep_path_four():
    rep = sweep(path_base(4))
    assert rep.orientations == 8
    assert rep.infeasible_count == 0
    assert sum(rep.distribution.values()) == 8
    assert rep.min_value == 3
    assert rep.max_value == 4
    values = [c.value for c in rep.argmin_codes]
    assert values == sorted(values)
    for code in rep.argmin_codes:
        assert dominator_chromatic_number(orient(code)).value == 3


def test_sweep_strict_paths_are_all_infeasible():
    # every orientation of a tree has a sink, and strict mode makes
    # sinks impossible to satisfy
    rep = sweep(path_base(5), STRICT)
    assert rep.infeasible_count == 16
    assert rep.distribution == {}
    assert rep.min_value is None
    assert rep.max_value is None
    assert rep.argmin_codes == ()


def test_sweep_strict_cycles_leave_only_the_directed_ones():
    rep = sweep(cycle_base(5), STRICT)
    assert rep.distribution == {5: 2}
    assert rep.infeasible_count == 30
    # the consistent cycle is code 1 and its reversal 2^n - 2 because
    # the closing edge is stored with ascending endpoints
    assert sorted(c.value for c in rep.argmin_codes) == [1, 30]


def test_sweep_argmin_cap_and_overflow():
    rep = sweep(cycle_base(6), arg_limit=1)
    assert len(rep.argmin_codes) == 1
    assert rep.argmin_overflow
    assert len(rep.argmax_codes) == 1
    assert rep.argmax_overflow
    full = sweep(cycle_base(6))
    assert rep.argmin_codes[0].value == full.argmin_codes[0].value
    assert not full.argmin_overflow
    with pytest.raises(ValueError):
        sweep(cycle_base(6), arg_limit=0)


# a 7-cycle with four chords: no recognised symmetry, so its 2^11 codes
# are 2048 representatives, exactly the pool threshold
CHORDED_CYCLE = BaseGraph(
    7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (0, 3), (1, 4), (2, 5)]
)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the requested size,
    runs the worker initializer once, as one worker would, and runs each
    chunk at once, in this process."""

    def __init__(self, requested, max_workers, initializer=None, initargs=()):
        requested.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_sweep_workers_merge_deterministically(monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = sweep(CHORDED_CYCLE, arg_limit=3)
    assert pools == []
    parallel = sweep(CHORDED_CYCLE, arg_limit=3, workers=2)
    assert pools == [min(2, os.cpu_count() or 1)]
    assert serial == parallel
    assert serial.kernel_solves == parallel.kernel_solves == 616
    assert serial.argmin_overflow and serial.argmax_overflow


@st.composite
def pooled_bases(draw):
    """A base on 6-8 vertices with 11 or 12 edges and no recognised
    symmetry: at least 2048 representatives, so workers=2 starts a pool."""
    n = draw(st.integers(6, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=11, max_size=12, unique=True))
    base = BaseGraph(n, edges)
    assume(code_orbits(base).sizes is None)
    return base


@settings(max_examples=4, deadline=None)
@given(pooled_bases())
def test_pooled_sweeps_equal_serial_ones(base):
    assert len(code_orbits(base).reps) >= 2048  # the pool threshold
    for mode in DominationMode:
        pooled = sweep(base, mode, workers=2)
        serial = sweep(base, mode, workers=1)
        assert pooled == serial, mode
        assert pooled.kernel_solves == serial.kernel_solves, mode


def test_sweep_rejects_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            sweep(path_base(4), workers=workers)


def test_sweep_pool_size_is_capped(monkeypatch):
    requested = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(InlinePool, requested))
    serial = sweep(CHORDED_CYCLE)
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 3)
    assert sweep(CHORDED_CYCLE, workers=10_000) == serial
    # the stand-in ran, so the requests below start no process
    assert requested == [3]
    # 10,000 workers make chunks of one code: 2048 chunks
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 1_000_000)
    assert sweep(CHORDED_CYCLE, workers=10_000) == serial
    monkeypatch.setattr(solver.os, "cpu_count", lambda: None)
    assert sweep(CHORDED_CYCLE, workers=2) == serial
    assert requested == [3, 2048, 1]


def test_sweep_workers_run_the_parent_backend(monkeypatch):
    serial = sweep(CHORDED_CYCLE)
    requested, chosen = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(InlinePool, requested))
    monkeypatch.setattr(kernel, "backend_name", "parent-choice")
    monkeypatch.setattr(kernel, "use_backend", chosen.append)
    assert sweep(CHORDED_CYCLE, workers=2) == serial
    # set once per worker, never per chunk, and not by a serial sweep
    assert chosen == ["parent-choice"]
    assert sweep(CHORDED_CYCLE) == serial
    assert chosen == ["parent-choice"]


def test_sweep_edge_guard(monkeypatch):
    with pytest.raises(GuardExceeded):
        sweep(path_base(30))
    monkeypatch.setenv("DOMCHROM_MAX_SWEEP_EDGES", "5")
    with pytest.raises(GuardExceeded):
        sweep(path_base(8))
    # explicit cap wins over the environment
    rep = sweep(path_base(8), max_edges=7)
    assert rep.orientations == 128
    monkeypatch.setenv("DOMCHROM_MAX_SWEEP_EDGES", "not-a-number")
    with pytest.raises(ValueError):
        sweep(path_base(4))


def test_extremes_match_sweep():
    base = path_base(5)
    rep = sweep(base)
    value, code, witness = min_over_orientations(base)
    assert value == rep.min_value
    assert code.value == rep.argmin_codes[0].value
    assert witness.k == value
    assert verify(orient(code), witness).ok
    value, code, witness = max_over_orientations(base)
    assert value == rep.max_value
    assert code.value == rep.argmax_codes[0].value
    assert verify(orient(code), witness).ok


def test_sweep_distribution_counts_every_orientation(cycle_sweeps):
    for n, rep in cycle_sweeps.by_n.items():
        assert rep.orientations == 1 << n
        assert sum(rep.distribution.values()) + rep.infeasible_count == 1 << n
        assert rep.infeasible_count == 0
        assert rep.min_value == min(rep.distribution)
        assert rep.max_value == max(rep.distribution)


def test_underlying_of_min_witness_is_the_base():
    base = cycle_base(7)
    _, code, _ = min_over_orientations(base)
    assert underlying(orient(code)) == base


def per_code_values(base, mode):
    """Every code's value, solved one digraph at a time."""
    return [
        dominator_chromatic_number(
            orient(OrientationCode.from_value(base, c)), mode
        ).value
        for c in range(1 << len(base.edges))
    ]


def reference_report(base, mode, values, arg_limit):
    dist = Counter(v for v in values if v is not None)
    lo = min(dist, default=None)
    hi = max(dist, default=None)

    def codes_with(target):
        hits = [c for c, v in enumerate(values) if v is not None and v == target]
        return tuple(OrientationCode.from_value(base, c) for c in hits[:arg_limit])

    return SweepReport(
        base=base,
        mode=mode,
        orientations=len(values),
        distribution=dict(sorted(dist.items())),
        infeasible_count=values.count(None),
        min_value=lo,
        max_value=hi,
        argmin_codes=codes_with(lo),
        argmax_codes=codes_with(hi),
        argmin_overflow=lo is not None and dist[lo] > arg_limit,
        argmax_overflow=hi is not None and dist[hi] > arg_limit,
    )


def assert_sweep_matches_reference(base):
    for mode in DominationMode:
        values = per_code_values(base, mode)
        for arg_limit in (1, 3, 64):
            want = reference_report(base, mode, values, arg_limit)
            got = sweep(base, mode, arg_limit=arg_limit)
            assert got == want, (base, mode, arg_limit)
            assert list(got.distribution) == list(want.distribution)


RECOGNISED_BASES = (
    [pytest.param(path_base(n), id=f"path{n}") for n in range(1, 13)]
    + [pytest.param(cycle_base(n), id=f"cycle{n}") for n in range(3, 13)]
    + [pytest.param(star_base(k), id=f"star{k}") for k in range(1, 11)]
)


@pytest.mark.parametrize("base", RECOGNISED_BASES)
def test_symmetric_sweep_matches_per_code_solves(base):
    assert_sweep_matches_reference(base)


def test_unrecognised_bases_sweep_every_code():
    triangle_with_tail = BaseGraph(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
    )
    reordered_cycle = BaseGraph(7, reversed(cycle_base(7).edges))
    for base in (triangle_with_tail, reordered_cycle):
        orbits = code_orbits(base)
        assert orbits.sizes is None
        assert orbits.reps == range(1 << len(base.edges))
        assert all(list(orbits.members(c)) == [c] for c in orbits.reps)
        assert_sweep_matches_reference(base)


@st.composite
def relabelled_bases(draw):
    """A path, cycle or star base with at most 9 edges, and a vertex
    relabelling of it that is no longer recognised."""
    base = draw(
        st.one_of(
            st.integers(3, 10).map(path_base),
            st.integers(3, 9).map(cycle_base),
            st.integers(2, 9).map(star_base),
        )
    )
    perm = draw(st.permutations(range(base.n)))
    relabelled = BaseGraph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    assume(code_orbits(relabelled).sizes is None)
    return base, relabelled


@settings(max_examples=50)
@given(relabelled_bases())
def test_relabelled_bases_sweep_like_the_recognised_ones(case):
    # the relabelled base is solved code by code through the trivial
    # group, the recognised one through its orbits
    base, relabelled = case
    for mode in DominationMode:
        want = sweep(base, mode)
        got = sweep(relabelled, mode)
        for field in (
            "orientations",
            "distribution",
            "infeasible_count",
            "min_value",
            "max_value",
        ):
            assert getattr(got, field) == getattr(want, field), (field, mode)


def relabel(d, perm):
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


@st.composite
def symmetric_codes(draw):
    """A path, cycle or star base on at most 9 vertices, its family, and
    one of its codes."""
    kind, base = draw(
        st.one_of(
            st.integers(2, 9).map(lambda n: ("path", path_base(n))),
            st.integers(3, 9).map(lambda n: ("cycle", cycle_base(n))),
            st.integers(2, 8).map(lambda k: ("star", star_base(k))),
        )
    )
    return kind, base, draw(st.integers(0, (1 << len(base.edges)) - 1))


def automorphism_generators(kind, base):
    """Vertex permutations generating the automorphism group of a path,
    cycle or star base: the reversal; one rotation and one reflection;
    a transposition and a cycle of the leaves."""
    n = base.n
    if kind == "path":
        return [[n - 1 - x for x in range(n)]]
    if kind == "cycle":
        return [[(x + 1) % n for x in range(n)], [(n - x) % n for x in range(n)]]
    return [[0, 2, 1, *range(3, n)], [0, *range(2, n), 1]]


def relabelled_code(base, code, perm):
    d = orient(OrientationCode.from_value(base, code))
    return code_of(base, relabel(d, perm)).value


def rep_of(orbits):
    """Each code of a base mapped to the representative of its orbit."""
    return {code: rep for rep in orbits.reps for code in orbits.members(rep)}


@given(symmetric_codes())
def test_vertex_automorphisms_keep_codes_in_their_orbit(case):
    kind, base, code = case
    orbits = code_orbits(base)
    orbit = list(orbits.members(rep_of(orbits)[code]))
    d = orient(OrientationCode.from_value(base, code))
    for perm in automorphism_generators(kind, base):
        image = relabelled_code(base, code, perm)
        assert image in orbit
        e = orient(OrientationCode.from_value(base, image))
        for mode in DominationMode:
            assert (
                dominator_chromatic_number(e, mode).value
                == dominator_chromatic_number(d, mode).value
            )


def relabelled_orbits(kind, base):
    """Every orbit of base's codes as the closure under relabelling by
    the automorphism generators, found by walking all codes: the
    reference for code_orbits, sharing no code with it."""
    perms = automorphism_generators(kind, base)
    seen = set()
    orbits = []
    for start in range(1 << len(base.edges)):
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            code = stack.pop()
            for perm in perms:
                image = relabelled_code(base, code, perm)
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("kind", ["path", "cycle", "star"])
def test_orbits_partition_the_code_space(kind):
    make = {"path": path_base, "cycle": cycle_base, "star": star_base}[kind]
    for n in range(3, 13):
        base = make(n)
        orbits = code_orbits(base)
        total = 1 << len(base.edges)
        members = [list(orbits.members(rep)) for rep in orbits.reps]
        assert sorted(c for orbit in members for c in orbit) == list(range(total))
        assert list(orbits.reps) == sorted(orbits.reps)
        for rep, size, orbit in zip(orbits.reps, orbits.sizes, members, strict=True):
            assert orbit[0] == rep
            assert orbit == sorted(orbit)
            assert len(orbit) == size
        assert members == relabelled_orbits(kind, base)
        if kind == "star":
            assert list(orbits.sizes) == [comb(n, j) for j in range(n + 1)]
            popcount_classes = [
                [c for c in range(total) if c.bit_count() == j] for j in range(n + 1)
            ]
            assert members == popcount_classes


def test_orbit_counts_follow_burnside():
    # path: the reversal fixes 2^(m/2) codes when m is even, none when
    # the middle edge would have to flip; cycle: rotation by k fixes
    # 2^gcd(k, n), and only the n/2 reflections through two vertices
    # (n even) fix any code, 2^(n/2) each
    for n in range(2, 19):
        m = n - 1
        fixed = 2 ** (m // 2) if m % 2 == 0 else 0
        assert len(code_orbits(path_base(n)).reps) == (2**m + fixed) // 2, n
    for n in range(3, 19):
        fixed = sum(2 ** gcd(k, n) for k in range(n))
        if n % 2 == 0:
            fixed += n // 2 * 2 ** (n // 2)
        assert len(code_orbits(cycle_base(n)).reps) == fixed // (2 * n), n


def test_mirror_reverses_and_flips_the_bits():
    rng = random.Random(7)
    for m in range(1, 41):
        for code in {0, (1 << m) - 1, 1, 1 << (m - 1), rng.getrandbits(m)}:
            digits = format(code, f"0{m}b")[::-1]
            assert _mirror(code, m) == int(digits, 2) ^ ((1 << m) - 1), (m, code)


@pytest.mark.parametrize("mode", list(DominationMode))
def test_star_sweep_at_the_edge_guard(mode):
    # 2^24 codes in 25 popcount orbits, against one solve per orbit and
    # the popcount classes enumerated directly
    m, limit = 24, 64
    base = star_base(m)
    assert len(base.edges) == solver.DEFAULT_MAX_SWEEP_EDGES
    report = sweep(base, mode, max_edges=m, arg_limit=limit)
    values = [
        dominator_chromatic_number(
            orient(OrientationCode.from_value(base, (1 << j) - 1)), mode
        ).value
        for j in range(m + 1)
    ]
    dist = Counter()
    for j, value in enumerate(values):
        dist[value] += comb(m, j)
    infeasible = dist.pop(None, 0)

    def first_codes(target):
        # the limit smallest codes with j set bits use only the lowest
        # width bits, the first width with at least limit such codes
        codes = []
        for j, value in enumerate(values):
            if value == target:
                width = next(
                    w for w in range(j, m + 1) if comb(w, j) >= limit or w == m
                )
                codes += [sum(1 << b for b in c) for c in combinations(range(width), j)]
        codes = sorted(codes)[:limit]
        return tuple(OrientationCode.from_value(base, c) for c in codes)

    lo = min(dist, default=None)
    hi = max(dist, default=None)
    assert report == SweepReport(
        base=base,
        mode=mode,
        orientations=1 << m,
        distribution=dict(sorted(dist.items())),
        infeasible_count=infeasible,
        min_value=lo,
        max_value=hi,
        argmin_codes=first_codes(lo) if dist else (),
        argmax_codes=first_codes(hi) if dist else (),
        argmin_overflow=lo is not None and dist[lo] > limit,
        argmax_overflow=hi is not None and dist[hi] > limit,
    )
