"""Release checklist: ten numbered end-to-end checks.

Run with -v to get one pass/fail line per criterion.  Each check works
from first principles: exhaustive orientation sweeps, the independent
partition-enumeration oracle, and structural characterizations, so a
regression in any module shows up here even if its unit tests rot.

Criterion 3 is split: the value half holds, while the claimed
uniqueness of the consistent orientation as the maximizer is refuted
by exhaustive search, so that half is a strict xfail and the true
maximizer structure is pinned by a companion test.
"""

import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import CYCLE_NS, PATH_NS, digraphs, random_connected_digraph
from domchrom import (
    Coloring,
    Digraph,
    DominationMode,
    FamilySpec,
    OrientationCode,
    chromatic_number,
    code_of,
    cycle_base,
    cycle_min_formula,
    cycle_optimal,
    cycle_symmetry_classes,
    directed_cycle,
    directed_path,
    dominator_chromatic_number,
    dominator_chromatic_number_oracle,
    dominator_discrepancy,
    dominator_gap,
    family_witness,
    fig3_digraph,
    fig4_digraph,
    identity_embedding,
    is_connected,
    is_subdigraph,
    one_way_complete_bipartite,
    orient,
    out_degree_sequence,
    path_base,
    path_min_formula,
    path_optimal,
    sweep,
    table_gap_cycle,
    table_gap_path,
    tilde_cycle,
    tournament,
    underlying,
    verify,
)

import random


def test_criterion_01_path_minimum_table(path_sweeps):
    """Sweeping every path orientation reproduces the closed form."""
    assert [path_min_formula(n) for n in (1, 2, 3)] == [1, 2, 2]
    assert path_min_formula(6) == 3
    for n in PATH_NS:
        rep = path_sweeps.by_n[n]
        assert rep.orientations == 1 << (n - 1)
        assert rep.min_value == path_min_formula(n), f"path n={n}"
    assert path_sweeps.elapsed_s < 120


def test_criterion_02_cycle_minimum_table(cycle_sweeps):
    assert cycle_min_formula(4) == 2
    assert cycle_min_formula(5) == 3
    assert cycle_min_formula(6) == 3
    assert cycle_min_formula(8) == 4
    for n in CYCLE_NS:
        rep = cycle_sweeps.by_n[n]
        assert rep.orientations == 1 << n
        assert rep.min_value == cycle_min_formula(n), f"cycle n={n}"
    assert cycle_sweeps.elapsed_s < 300


def test_criterion_03a_consistent_orientations_attain_n():
    for n in range(3, 11):
        assert dominator_chromatic_number(directed_path(n)).value == n
        assert dominator_chromatic_number(directed_cycle(n)).value == n


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the two consistent orientations are not the whole argmax: "
        "reversing exactly one arc of the consistent cycle also forces n "
        "classes (every out-degree-one vertex pins its out-neighbor in a "
        "singleton, and the adjacent pair of sources needs two fresh "
        "classes), so uniqueness up to symmetry fails for every n; the "
        "full maximizer set is pinned by "
        "test_directed_cycle_argmax_structure"
    ),
)
def test_criterion_03b_consistent_cycle_is_the_unique_maximizer(cycle_sweeps):
    for n in range(3, 11):
        rep = cycle_sweeps.by_n[n]
        assert not rep.argmax_overflow
        argmax = set(rep.argmax_codes)
        # the consistent cycle and its reversal, as orientation codes
        consistent_orbit = {1, (1 << n) - 2}
        assert argmax == consistent_orbit, f"cycle n={n}"


def test_directed_cycle_argmax_structure(cycle_sweeps):
    """The maximizers are exactly two symmetry classes: the consistent
    cycle and the consistent cycle with one arc reversed."""
    for n in range(3, 11):
        rep = cycle_sweeps.by_n[n]
        assert rep.max_value == n
        assert not rep.argmax_overflow
        argmax = set(rep.argmax_codes)
        base = cycle_base(n)
        one_flip = Digraph(
            n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        )
        by_value = {}
        for cls in cycle_symmetry_classes(n):
            members = {c.value for c in cls}
            for v in members:
                by_value[v] = members
        expected = (
            by_value[code_of(base, directed_cycle(n)).value]
            | by_value[code_of(base, one_flip).value]
        )
        assert argmax == expected, f"cycle n={n}"
        assert len(argmax) == 2 + 2 * n


@pytest.mark.parametrize("n", [20, 30, 50, 100, 200])
def test_paper_tables_hold_far_past_exhaustive_solving(n):
    """The automaton sweeps every orientation of paths and cycles with no
    solve, so the closed forms are checked at sizes no per-orientation
    sweep reaches: the minimum, the spread table and the maximum n."""
    path = sweep(path_base(n))
    assert path.orientations == 1 << (n - 1)
    assert path.min_value == path_min_formula(n)
    assert path.max_value - path.min_value == table_gap_path(n)
    assert path.max_value == n
    cycle = sweep(cycle_base(n))
    assert cycle.orientations == 1 << n
    assert cycle.min_value == cycle_min_formula(n)
    assert cycle.max_value - cycle.min_value == table_gap_cycle(n)
    assert cycle.max_value == n
    assert path.infeasible_count == cycle.infeasible_count == 0


def test_strict_mode_leaves_only_the_consistent_cycles():
    """Every strict orientation of a path has a sink, and of a cycle
    only the two consistent ones are feasible, each needing n classes."""
    for n in range(16, 101):
        path = sweep(path_base(n), DominationMode.STRICT)
        assert path.distribution == {}, n
        assert path.infeasible_count == 1 << (n - 1), n
        cycle = sweep(cycle_base(n), DominationMode.STRICT)
        assert cycle.distribution == {n: 2}, n
        # the consistent cycle and its reversal
        assert list(cycle.argmax_codes) == [1, (1 << n) - 2], n


def _all_star_orientations(leaves):
    for in_set in itertools.product((False, True), repeat=leaves):
        arcs = [
            (i + 1, 0) if inward else (0, i + 1)
            for i, inward in enumerate(in_set)
        ]
        yield sum(in_set), Digraph(leaves + 1, arcs)


def _is_one_way_complete_bipartite(d):
    outs = out_degree_sequence(d)
    sinks = {v for v in range(d.n) if outs[v] == 0}
    sources = set(range(d.n)) - sinks
    if not sinks or not sources:
        return False
    wanted = {(x, y) for x in sources for y in sinks}
    return set(d.arcs) == wanted


def _connected_digon_free_digraphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        d = Digraph(n, arcs)
        if is_connected(underlying(d)):
            yield d


def test_criterion_04_two_class_characterization():
    t0 = time.perf_counter()
    # stars: two classes exactly when every arc agrees in direction
    for leaves in range(1, 7):
        for inward_count, d in _all_star_orientations(leaves):
            value = dominator_chromatic_number(d).value
            expected = 2 if inward_count in (0, leaves) else 3
            assert value == expected, (leaves, inward_count)
    # the two-class digraphs on up to five vertices are exactly the
    # one-way complete bipartite ones
    total = 0
    two_class = 0
    for n in range(1, 6):
        for d in _connected_digon_free_digraphs(n):
            total += 1
            value = dominator_chromatic_number(d).value
            if value == 2:
                two_class += 1
            assert (value == 2) == _is_one_way_complete_bipartite(d), d.arcs
    assert total == 55895
    assert two_class == 52
    assert time.perf_counter() - t0 < 300


def test_criterion_05_subgraphs_can_be_harder():
    # removing one arc from the cheapest four-cycle orientation leaves
    # a path orientation that needs one class more
    cheap_cycle = cycle_optimal(4).digraph
    hard_path = path_optimal(4).digraph
    assert is_subdigraph(cheap_cycle, hard_path, identity_embedding(4))
    assert dominator_chromatic_number(hard_path).value == 3
    assert dominator_chromatic_number(cheap_cycle).value == 2
    assert (
        dominator_discrepancy(cheap_cycle, hard_path, identity_embedding(4)) == 1
    )
    # the hub-sink family drives the deficit arbitrarily high
    deltas = [
        dominator_discrepancy(
            tilde_cycle(n), directed_cycle(n), identity_embedding(n)
        )
        for n in range(6, 11)
    ]
    assert deltas == [3, 3, 5, 5, 7]
    assert all(delta > 0 for delta in deltas)


def _induced_sub_path(d, i, j):
    # contiguous window i..j-1, relabeled to 0..j-i-1
    arcs = [
        (u - i, v - i) for u, v in d.arcs if i <= u < j and i <= v < j
    ]
    return Digraph(j - i, arcs)


def test_criterion_06_monotonicity_and_path_cycle_comparison(
    path_sweeps, cycle_sweeps
):
    memo = {}

    def value_of(d):
        key = (d.n, d.arcs)
        if key not in memo:
            memo[key] = dominator_chromatic_number(d).value
        return memo[key]

    for n in range(2, 10):
        base = path_base(n)
        for code_value in range(1 << (n - 1)):
            d = orient(OrientationCode.from_value(base, code_value))
            whole = value_of(d)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    assert value_of(_induced_sub_path(d, i, j)) <= whole
    # minimum over orientations: paths never beat cycles except at four
    # vertices, where the comparison strictly fails
    for m in range(3, 13):
        if m == 4:
            assert (
                path_sweeps.by_n[4].min_value > cycle_sweeps.by_n[4].min_value
            )
            continue
        assert (
            path_sweeps.by_n[m].min_value <= cycle_sweeps.by_n[m].min_value
        ), f"m={m}"


def test_criterion_07_gap_reconciliation(path_sweeps, cycle_sweeps, capsys):
    # spread equals the printed table away from the exceptional sizes
    for n in range(4, 13):
        rep = path_sweeps.by_n[n]
        spread = rep.max_value - rep.min_value
        if n != 6:
            assert spread == table_gap_path(n), f"path n={n}"
        rep = cycle_sweeps.by_n[n]
        spread = rep.max_value - rep.min_value
        if n not in (4, 5, 6):
            assert spread == table_gap_cycle(n), f"cycle n={n}"
    # tournaments and one-way complete bipartite digraphs have no gap
    for n in range(1, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            assert dominator_gap(tournament(n, code)).gap == 0
    for m in range(1, 8):
        for n in range(1, 8 - m + 1):
            assert dominator_gap(one_way_complete_bipartite(m, n)).gap == 0
    # definitional aggregate vs printed table: report only, no assertion
    mismatches = []
    for kind, sweeps, table in (
        ("path", path_sweeps, table_gap_path),
        ("cycle", cycle_sweeps, table_gap_cycle),
    ):
        base_of = path_base if kind == "path" else cycle_base
        for n in range(4, 13):
            rep = sweeps.by_n[n]
            definitional = rep.max_value - chromatic_number(base_of(n))
            printed = table(n)
            line = f"{kind} n={n}: definitional={definitional} printed={printed}"
            print(line)
            if definitional != printed:
                mismatches.append(line)
    assert mismatches, "expected the definitional aggregate to differ somewhere"


def test_criterion_08_oracle_equivalence():
    t0 = time.perf_counter()
    for base_of, ns in ((path_base, range(1, 9)), (cycle_base, range(3, 9))):
        for n in ns:
            base = base_of(n)
            m = len(base.edges)
            for code_value in range(1 << m):
                d = orient(OrientationCode.from_value(base, code_value))
                assert (
                    dominator_chromatic_number(d).value
                    == dominator_chromatic_number_oracle(d)
                )
    rng = random.Random(1234)
    for _ in range(200):
        d = random_connected_digraph(rng, rng.randint(1, 7))
        for mode in DominationMode:
            assert (
                dominator_chromatic_number(d, mode).value
                == dominator_chromatic_number_oracle(d, mode)
            )
    assert time.perf_counter() - t0 < 300


def _every_constructive_witness():
    for n in PATH_NS:
        yield path_optimal(n)
    for n in CYCLE_NS:
        yield cycle_optimal(n)
    for leaves in range(1, 6):
        for in_arcs in range(leaves + 1):
            yield family_witness(FamilySpec("star", (leaves, in_arcs)))
    for n in range(1, 6):
        yield family_witness(FamilySpec("complete", (n,)))
    for m, n in [(1, 1), (1, 4), (2, 3), (3, 3)]:
        yield family_witness(FamilySpec("complete-bipartite", (m, n)))
    for n in range(3, 11):
        yield family_witness(FamilySpec("tilde-cycle", (n,)))
    yield family_witness(FamilySpec("fig3", ()))
    yield family_witness(FamilySpec("fig4", ()))


def test_criterion_09_witness_soundness():
    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def solver_witnesses_are_sound(d):
        lower = chromatic_number(underlying(d))
        out = dominator_chromatic_number(d)
        assert out.feasible  # sink-exempt is always satisfiable
        assert verify(d, out.witness).ok
        assert lower <= out.value <= d.n
        strict = dominator_chromatic_number(d, DominationMode.STRICT)
        if strict.feasible:
            assert verify(d, strict.witness, DominationMode.STRICT).ok
            assert lower <= strict.value <= d.n

    solver_witnesses_are_sound()
    for w in _every_constructive_witness():
        assert verify(w.digraph, w.coloring).ok
        assert w.coloring.k == w.claimed_value
        lower = chromatic_number(underlying(w.digraph))
        assert lower <= w.claimed_value <= w.digraph.n


def test_criterion_10_fixed_examples():
    for d in (fig3_digraph(), fig4_digraph()):
        value = dominator_chromatic_number(d).value
        assert value == 5
        assert value < 6
        assert dominator_chromatic_number_oracle(d) == 5
    f3 = family_witness(FamilySpec("fig3", ()))
    f4 = family_witness(FamilySpec("fig4", ()))
    assert f3.coloring.assignment == (0, 1, 2, 3, 4, 0)
    assert f4.coloring.assignment == (0, 1, 0, 2, 3, 4)
    assert verify(f3.digraph, f3.coloring).ok
    assert verify(f4.digraph, f4.coloring).ok


def test_fixed_example_minimum_colorings_are_unique():
    """Exhaustive check that the two fixed examples admit exactly one
    five-class dominator coloring each, so the shared class in the
    first one is forced, not a stylistic choice."""

    def all_colorings(n, k):
        # canonical restricted-growth strings with exactly k classes
        def rec(prefix, used):
            if len(prefix) == n:
                if used == k:
                    yield tuple(prefix)
                return
            for c in range(min(used + 1, k)):
                yield from rec(prefix + [c], max(used, c + 1))

        yield from rec([], 0)

    for d, expected in (
        (fig3_digraph(), (0, 1, 2, 3, 4, 0)),
        (fig4_digraph(), (0, 1, 0, 2, 3, 4)),
    ):
        found = [
            a for a in all_colorings(6, 5) if verify(d, Coloring(a, 5)).ok
        ]
        assert found == [expected]
