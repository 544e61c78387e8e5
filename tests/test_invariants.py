import random
from itertools import combinations

import pytest

from domchrom import (
    BaseGraph,
    Digraph,
    DominationMode,
    chromatic_number,
    cycle_base,
    directed_cycle,
    directed_path,
    dominator_discrepancy,
    dominator_gap,
    is_subdigraph,
    orientation_gap,
    path_base,
    star_oriented,
    table_gap_cycle,
    table_gap_path,
    tilde_cycle,
    tournament,
)
from domchrom.graphs import is_connected
from domchrom.invariants import _table_value

# frozen spread tables, n = 4..12
TABLE_PATH = [1, 2, 2, 3, 4, 5, 5, 6, 7]
TABLE_CYCLE = [1, 1, 2, 3, 4, 4, 5, 6, 7]


def test_table_formulas_frozen():
    assert [table_gap_path(n) for n in range(4, 13)] == TABLE_PATH
    assert [table_gap_cycle(n) for n in range(4, 13)] == TABLE_CYCLE
    with pytest.raises(ValueError):
        table_gap_path(3)
    with pytest.raises(ValueError):
        table_gap_cycle(3)


def test_dominator_gap_examples():
    rep = dominator_gap(directed_path(4))
    assert (rep.dominator_value, rep.chromatic_value, rep.gap) == (4, 2, 2)
    rep = dominator_gap(tournament(4))
    assert (rep.dominator_value, rep.chromatic_value, rep.gap) == (4, 4, 0)
    # even tilde cycle underlies a wheel: hub adjacent to all, chromatic 3
    rep = dominator_gap(tilde_cycle(6))
    assert (rep.dominator_value, rep.chromatic_value, rep.gap) == (3, 3, 0)


def test_dominator_gap_undefined_when_infeasible():
    with pytest.raises(ValueError):
        dominator_gap(star_oriented(2, 0), DominationMode.STRICT)


def test_orientation_gap_path_five():
    rep = orientation_gap(path_base(5))
    assert rep.chromatic_value == 2
    assert rep.min_dominator_value == 3
    assert rep.max_dominator_value == 5
    assert rep.spread == 2
    assert rep.max_gap == 3
    assert rep.table_value == table_gap_path(5)
    assert rep.mode is DominationMode.SINK_EXEMPT


def test_orientation_gap_table_lookup_is_structural():
    # a relabeled path still gets the path table; anything else gets none
    zigzag = orientation_gap(BaseGraph(4, [(2, 0), (1, 2), (3, 1)]))
    assert zigzag.table_value == table_gap_path(4)
    star = orientation_gap(BaseGraph(4, [(0, 1), (0, 2), (0, 3)]))
    assert star.table_value is None
    small = orientation_gap(path_base(3))
    assert small.table_value is None


def _reference_degrees(base):
    degs = [0] * base.n
    for u, v in base.edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def _reference_is_path_base(base):
    if base.n == 1:
        return len(base.edges) == 0
    return (
        len(base.edges) == base.n - 1
        and max(_reference_degrees(base)) <= 2
        and is_connected(base)
    )


def _reference_is_cycle_base(base):
    if base.n < 3:
        return False
    degs = _reference_degrees(base)
    return (
        len(base.edges) == base.n
        and all(deg == 2 for deg in degs)
        and is_connected(base)
    )


def _reference_table_value(base):
    """The table lookup as three recognisers, a path and a cycle test
    over a shared degree count."""
    if base.n >= 4 and _reference_is_path_base(base):
        return table_gap_path(base.n)
    if base.n >= 4 and _reference_is_cycle_base(base):
        return table_gap_cycle(base.n)
    return None


def test_table_value_recognises_paths_and_cycles_in_any_labelling():
    bases = []
    # every labelled graph on up to 6 vertices
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            bases.append(BaseGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
    # paths and cycles on 4 to 12 vertices, relabelled and reordered
    rng = random.Random(15)
    for n in range(4, 13):
        for base in (path_base(n), cycle_base(n)):
            for _ in range(200):
                label = list(range(n))
                rng.shuffle(label)
                edges = [(label[u], label[v]) for u, v in base.edges]
                rng.shuffle(edges)
                bases.append(BaseGraph(n, edges))
    assert len(bases) == 37467
    hits = 0
    for base in bases:
        want = _reference_table_value(base)
        assert _table_value(base) == want, base
        hits += want is not None
    assert hits > 3600


def test_orientation_gap_strict_infeasible_raises():
    with pytest.raises(ValueError):
        orientation_gap(path_base(4), DominationMode.STRICT)


def test_orientation_gap_cycle_matches_sweep(cycle_sweeps):
    rep = orientation_gap(cycle_base(8))
    sw = cycle_sweeps.by_n[8]
    assert rep.min_dominator_value == sw.min_value
    assert rep.max_dominator_value == sw.max_value
    assert rep.spread == sw.max_value - sw.min_value
    assert rep.max_gap == sw.max_value - chromatic_number(cycle_base(8))
    assert rep.table_value == table_gap_cycle(8)


def test_embedding_coercion_and_identity():
    # a vertex map is any sequence of host vertices; range(n) is the
    # identity embedding
    host = directed_cycle(3)
    assert is_subdigraph(host, directed_path(3), range(3))
    assert is_subdigraph(host, directed_path(3), [1, 2, 0])
    assert is_subdigraph(host, directed_path(3), (2, 0, 1))
    assert not is_subdigraph(host, directed_path(3), [2, 1, 0])
    with pytest.raises(TypeError):
        is_subdigraph(host, directed_path(3), [0, 1.5, 2])


def test_is_subdigraph():
    host = tilde_cycle(4)
    sub = directed_cycle(4)
    assert is_subdigraph(host, sub, range(4))
    # rotation is also an embedding of the cycle into its tilde host
    assert is_subdigraph(host, sub, [1, 2, 3, 0])
    # reflection reverses arcs, so it is not arc-preserving
    assert not is_subdigraph(host, sub, [3, 2, 1, 0])
    # collapsing two vertices is not injective
    assert not is_subdigraph(host, sub, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        is_subdigraph(host, sub, [0, 1, 2])
    with pytest.raises(ValueError):
        is_subdigraph(host, sub, [0, 1, 2, 9])


def test_discrepancy_requires_an_embedding():
    with pytest.raises(ValueError):
        dominator_discrepancy(tilde_cycle(4), directed_cycle(4), [3, 2, 1, 0])


def test_discrepancy_sign_convention():
    # sub-digraph minus host: positive means the part is harder than
    # the whole
    host = tilde_cycle(6)
    sub = directed_cycle(6)
    assert dominator_discrepancy(host, sub, range(6)) == 6 - 3
    # a digraph inside itself has discrepancy zero
    assert dominator_discrepancy(sub, sub, range(6)) == 0


def test_discrepancy_against_a_sub_path():
    whole = directed_path(5)
    part = directed_path(3)
    assert is_subdigraph(whole, part, range(3))
    assert dominator_discrepancy(whole, part, range(3)) == 3 - 5


def test_discrepancy_undefined_when_infeasible():
    d = star_oriented(2, 0)
    with pytest.raises(ValueError):
        dominator_discrepancy(d, Digraph(3, [(0, 1)]), range(3), DominationMode.STRICT)
