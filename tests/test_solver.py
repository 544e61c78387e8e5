import random
from collections import Counter
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    automorphism_generators,
    digraphs,
    random_connected_digraph,
    relabelled_code,
)
from domchrom import kernel, solver
from domchrom import (
    BaseGraph,
    Coloring,
    Digraph,
    DominationMode,
    GuardExceeded,
    SweepReport,
    chromatic_number,
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
from domchrom.graphs import _family, star_base

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
    # a bipartite graph needs no kernel, so no kernel limit
    assert chromatic_number(path_base(65)) == 2
    assert chromatic_number(cycle_base(1000)) == 2
    with pytest.raises(ValueError, match="at most 64 vertices"):
        chromatic_number(cycle_base(65))
    with pytest.raises(ValueError, match="at least one vertex"):
        chromatic_number(BaseGraph(0, []))


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


def _single_pass_bound(n, adj, outs, required):
    """P + chi(G - U) of the packing walk alone: U the union of the
    independent out-sets taken in required's order when they miss it.
    The second pass may only raise the bound above it."""
    if required and not outs[required[0]]:
        return n
    taken = packed = 0
    for v in required:
        om = outs[v]
        independent = not any(adj[u] & om for u in range(n) if om >> u & 1)
        if independent and not om & taken:
            taken |= om
            packed += 1
    return packed + _chi_by_climb(adj, ((1 << n) - 1) & ~taken)


# vertex 0's out-set {2, 3} holds the edge (2, 3) but misses U = {0, 5}:
# the second pass takes it, and the bound rises from 4 to the value 5
SECOND_PASS_DIGRAPH = Digraph(
    6, [(0, 2), (0, 3), (5, 0), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)]
)


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
@example(SECOND_PASS_DIGRAPH)
def test_ladder_bound_lies_between_chromatic_number_and_value(d):
    # chi(G) <= |S| + chi(G - S) <= the packing bound <= the oracle's
    # value; started there, the ladder ends at the same budget and the
    # same coloring as from |S| + chi(G - S), on no more nodes
    chi = chromatic_number(underlying(d))
    for mode in DominationMode:
        adj, outs, required = solver._kernel_inputs(d, mode)
        reference = _singleton_bound(d.n, adj, outs, required)
        bound, _ = solver._lower_bound(d.n, adj, outs, required)
        assert chi <= reference <= bound
        assert _single_pass_bound(d.n, adj, outs, required) <= bound
        value = dominator_chromatic_number_oracle(d, mode)
        assert bound <= (d.n if value is None else value)
        assignment, got, nodes = solver._solve_masks(d.n, adj, outs, required, bound)
        want = _ladder_from(reference, d.n, adj, outs, required)
        assert (assignment, got) == want[:2]
        assert nodes <= want[2]
        assert got == value
        assert dominator_chromatic_number(d, mode).value == value


def test_the_second_pass_raises_the_bound_to_the_value():
    d = SECOND_PASS_DIGRAPH
    adj, outs, required = solver._kernel_inputs(d, SINK_EXEMPT)
    assert _single_pass_bound(d.n, adj, outs, required) == 4
    assert solver._lower_bound(d.n, adj, outs, required) == (5, None)
    assert dominator_chromatic_number_oracle(d) == 5
    assert dominator_chromatic_number(d).value == 5


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
    # 5-cycle's wheel.  A second 2-coloring, of G - U'' for the larger
    # union U'' of the second pass, runs only on a ladder with no
    # certificate whose skipped out-sets miss U: of these, the wheel's
    wheel = tilde_cycle(5)
    for d in (directed_cycle(5), directed_path(4), star_oriented(3, 1), wheel):
        for mode in DominationMode:
            sides.clear()
            odd.clear()
            dominator_chromatic_number(d, mode)
            sink = mode is STRICT and not all(solver._kernel_inputs(d, mode)[1])
            second = d is wheel and not sink
            assert len(sides) == (0 if sink else 1 + second), (d, mode)
            assert odd == (sides[:1] if d is wheel else []), (d, mode)
    sides.clear()
    dominator_chromatic_number(directed_cycle(5))
    assert sides == [0]
    sides.clear()
    dominator_chromatic_number(wheel)
    # U is empty; the second pass's U'' is not
    full = (1 << wheel.n) - 1
    assert len(sides) == 2 and sides[0] == full and sides[1] != full


@given(digraphs(max_n=9))
# every out-set is a singleton: the packing takes them all
@example(directed_cycle(5))
# vertex 1's out-set {0, 2} holds the packing class {2} of vertex 0
@example(Digraph(3, [(0, 2), (1, 0), (1, 2)]))
def test_an_accepted_certificate_is_an_optimal_dominator_coloring(d):
    for mode in DominationMode:
        adj, outs, required = solver._kernel_inputs(d, mode)
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


# a 9-vertex path with its edges listed last first: not recognised, so
# its sweep solves every code
REVERSED_PATH_9 = BaseGraph(9, reversed(path_base(9).edges))


def test_sweeps_settled_by_the_bound_call_no_kernel(monkeypatch):
    budgets = spy_kernel_calls(monkeypatch)
    lower_bounds = []
    real = solver._lower_bound
    monkeypatch.setattr(
        solver, "_lower_bound", lambda *a: lower_bounds.append(a[0]) or real(*a)
    )
    # the automaton sweeps of a star, a path and a cycle solve nothing
    star = sweep(star_base(16))
    path = sweep(path_base(12))
    cycle = sweep(cycle_base(12), STRICT)
    assert budgets == lower_bounds == []
    assert star.kernel_solves == path.kernel_solves == cycle.kernel_solves == 0
    assert (star.min_value, star.max_value) == (2, 3)
    # per code: the certificate attains the bound of every star code,
    # and every strict orientation of a path has a sink
    star = sweep(BaseGraph(9, reversed(star_base(8).edges)))
    strict_path = sweep(REVERSED_PATH_9, STRICT)
    assert budgets == []
    assert star.kernel_solves == strict_path.kernel_solves == 0
    assert (star.min_value, star.max_value) == (2, 3)
    assert strict_path.infeasible_count == 1 << 8
    assert len(lower_bounds) == 1 << 8
    # some codes of the path only the ladder settles
    assert sweep(REVERSED_PATH_9).kernel_solves == 12
    assert budgets


@pytest.mark.parametrize("mode", list(DominationMode))
def test_sweeps_report_each_base_as_sweep_does(mode):
    # unsorted, sizes repeated within and across kinds; automaton bases
    # mixed with the 1-vertex path, the 3- and 4-cycle and a path with
    # its edges listed last first, which are solved code by code
    bases = [
        cycle_base(9),
        path_base(6),
        star_base(8),
        path_base(1),
        cycle_base(6),
        REVERSED_PATH_9,
        path_base(6),
        cycle_base(3),
        star_base(5),
        cycle_base(4),
        path_base(12),
        cycle_base(6),
    ]
    reports = solver.sweeps(bases, mode)
    singles = [sweep(base, mode) for base in bases]
    assert reports == singles
    # equality ignores kernel_solves
    assert [r.kernel_solves for r in reports] == [s.kernel_solves for s in singles]
    assert solver.sweeps([], mode) == []


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
        searches.append((adj, k))
        return real(n, adj, k)

    monkeypatch.setattr(kernel, "solve_fixed_k_proper", spy)
    # edgeless, bipartite and odd-cycle bases, one with a pendant vertex
    # that keep drops, an odd wheel with its hub last, then random graphs
    # and random vertex subsets
    pendant_pentagon = BaseGraph(
        6, [(0, 1)] + [(1 + u, 1 + v) for u, v in cycle_base(5).edges]
    )
    bases = [BaseGraph(4, []), path_base(6), cycle_base(6), cycle_base(7)]
    wheel = underlying(tilde_cycle(7))
    bases += [pendant_pentagon, complete_base(4), wheel]
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
            # the search runs only when a greedy coloring, highest degree
            # first, needs more classes than max(3, a greedy clique), on
            # the subgraph relabelled onto 0..r-1, highest degree first,
            # and never at a budget above chi
            greedy, clique = _greedy_by_degree(adj, keep)
            assert bool(searches) == (greedy > max(3, clique)), (base, keep)
            for sub, k in searches:
                degrees = [mask.bit_count() for mask in sub]
                assert len(degrees) == keep.bit_count(), (base, keep)
                assert degrees == sorted(degrees, reverse=True), (base, keep)
                assert 3 <= k <= expected, (base, keep)
            if base is wheel and keep == full:
                assert searches
            seen.add(expected)
    assert {3, 4} <= seen


def _greedy_by_degree(adj, keep):
    """The class count of a greedy coloring of the subgraph induced by
    keep, highest degree first (ties by vertex), and the size of the
    solver's greedy clique in it."""
    order = sorted(
        (u for u in range(len(adj)) if keep >> u & 1),
        key=lambda u: -(adj[u] & keep).bit_count(),
    )
    label = {}
    for u in order:
        taken = {label[w] for w in label if adj[u] >> w & 1}
        label[u] = min(c for c in range(len(order)) if c not in taken)
    return len(set(label.values())), solver._greedy_clique_size(adj, keep)


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
    assert list(rep.argmin_codes) == sorted(rep.argmin_codes)
    for code in rep.argmin_codes:
        digraph = orient(rep.base, code)
        assert dominator_chromatic_number(digraph).value == 3


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
    assert sorted(rep.argmin_codes) == [1, 30]


def test_sweep_argmin_cap_and_overflow(monkeypatch):
    full = sweep(cycle_base(6))
    assert not full.argmin_overflow
    monkeypatch.setattr(solver, "ARG_LIMIT", 1)
    rep = sweep(cycle_base(6))
    assert len(rep.argmin_codes) == 1
    assert rep.argmin_overflow
    assert len(rep.argmax_codes) == 1
    assert rep.argmax_overflow
    assert rep.argmin_codes[0] == full.argmin_codes[0]


# a 7-cycle with four chords: not recognised, so a sweep solves each of
# its 2^11 codes
CHORDED_CYCLE = BaseGraph(
    7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (0, 3), (1, 4), (2, 5)]
)


def test_per_code_sweep_counts_its_ladders_and_caps_its_lists(monkeypatch):
    monkeypatch.setattr(solver, "ARG_LIMIT", 3)
    report = sweep(CHORDED_CYCLE)
    assert report.kernel_solves == 616
    assert report.argmin_overflow and report.argmax_overflow
    assert len(report.argmin_codes) == len(report.argmax_codes) == 3


def reversed_path(n):
    """The n-vertex path with its edges listed last first: not recognised."""
    return BaseGraph(n, reversed(path_base(n).edges))


def test_sweep_edge_guard(monkeypatch):
    with pytest.raises(GuardExceeded):
        sweep(reversed_path(30))
    monkeypatch.setenv("DOMCHROM_MAX_SWEEP_EDGES", "5")
    with pytest.raises(GuardExceeded):
        sweep(reversed_path(8))
    monkeypatch.setenv("DOMCHROM_MAX_SWEEP_EDGES", "7")
    rep = sweep(reversed_path(8))
    assert rep.orientations == 128
    monkeypatch.setenv("DOMCHROM_MAX_SWEEP_EDGES", "not-a-number")
    with pytest.raises(ValueError):
        sweep(reversed_path(4))
    # an automaton sweep solves no code, so the edge guard and the kernel
    # limit do not apply to it
    assert sweep(path_base(100)).orientations == 1 << 99
    with pytest.raises(ValueError, match="at most 64 vertices"):
        sweep(reversed_path(65))


def test_automaton_sweep_vertex_guard():
    limit = solver.AUTOMATON_MAX_VERTICES
    for base in (path_base(limit + 1), cycle_base(limit + 1), star_base(limit)):
        with pytest.raises(GuardExceeded, match=f"guard of {limit}"):
            sweep(base)
    assert sweep(star_base(limit - 1)).orientations == 1 << (limit - 1)


def test_extremes_match_sweep():
    base = path_base(5)
    rep = sweep(base)
    value, code, witness = min_over_orientations(base)
    assert value == rep.min_value
    assert code == rep.argmin_codes[0]
    assert witness.k == value
    assert verify(orient(base, code), witness).ok
    value, code, witness = max_over_orientations(base)
    assert value == rep.max_value
    assert code == rep.argmax_codes[0]
    assert verify(orient(base, code), witness).ok
    # every orientation of a path has a sink, so none is strictly feasible
    with pytest.raises(ValueError, match="no orientation is feasible"):
        min_over_orientations(path_base(4), DominationMode.STRICT)


def test_extremes_refuse_the_kernel_limit_before_sweeping(monkeypatch):
    # the sweep of a 65-vertex path or cycle needs no kernel, but the
    # witness solve does, so no sweep starts
    calls = []
    monkeypatch.setattr(solver, "sweep", lambda *a, **kw: calls.append(a))
    for extreme in (min_over_orientations, max_over_orientations):
        for base in (path_base(65), cycle_base(1000)):
            with pytest.raises(ValueError, match="at most 64 vertices"):
                extreme(base)
    assert calls == []


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
    assert underlying(orient(base, code)) == base


def per_code_values(base, mode):
    """Every code's value, solved one digraph at a time."""
    return [
        dominator_chromatic_number(orient(base, c), mode).value
        for c in range(1 << len(base.edges))
    ]


def reference_report(base, mode, values, arg_limit):
    dist = Counter(v for v in values if v is not None)
    lo = min(dist, default=None)
    hi = max(dist, default=None)

    def codes_with(target):
        hits = [c for c, v in enumerate(values) if v is not None and v == target]
        return tuple(hits[:arg_limit])

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
            with patch.object(solver, "ARG_LIMIT", arg_limit):
                got = sweep(base, mode)
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
        assert _family(base) is None
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
    assume(_family(relabelled) is None)
    return base, relabelled


@settings(max_examples=50)
@given(relabelled_bases())
def test_relabelled_bases_sweep_like_the_recognised_ones(case):
    # the relabelled base is solved code by code, the recognised one
    # through its automaton
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


@given(symmetric_codes())
def test_vertex_automorphisms_keep_codes_in_their_orbit(case):
    # isomorphic orientations share a value: each code's image under an
    # automorphism, a relabelled orientation, solves to the same value
    kind, base, code = case
    d = orient(base, code)
    for perm in automorphism_generators(kind, base):
        image = relabelled_code(base, code, perm)
        e = orient(base, image)
        for mode in DominationMode:
            assert (
                dominator_chromatic_number(e, mode).value
                == dominator_chromatic_number(d, mode).value
            )


@pytest.mark.parametrize("mode", list(DominationMode))
def test_star_sweep_at_the_edge_guard(mode):
    # 2^24 codes through the automaton, against one solve per popcount
    # class (leaf permutations keep the value) and the classes enumerated
    # directly
    m, limit = 24, solver.ARG_LIMIT
    base = star_base(m)
    assert len(base.edges) == solver.DEFAULT_MAX_SWEEP_EDGES
    report = sweep(base, mode)
    values = [
        dominator_chromatic_number(orient(base, (1 << j) - 1), mode).value
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
        return tuple(sorted(codes)[:limit])

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
