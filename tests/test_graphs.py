import random

import pytest

from conftest import code_orbits
from domchrom import (
    BaseGraph,
    Coloring,
    Digraph,
    FamilySpec,
    code_of,
    cycle_base,
    directed_cycle,
    is_connected,
    orient,
    out_degree_sequence,
    path_base,
    underlying,
)
from domchrom.graphs import _family, star_base


def test_base_graph_normalizes_endpoint_order():
    g = BaseGraph(3, [(2, 0), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))


def test_base_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        BaseGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        BaseGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        BaseGraph(3, [(0, 1), (1, 0)])  # same edge, both orders
    with pytest.raises(ValueError):
        BaseGraph(-1, [])


def test_base_graph_equality_is_order_sensitive():
    # edge order defines the orientation-code bit layout, so two bases
    # with the same edge set but different order are distinct values
    a = BaseGraph(3, [(0, 1), (1, 2)])
    b = BaseGraph(3, [(1, 2), (0, 1)])
    assert a != b
    assert a == BaseGraph(3, [(0, 1), (1, 2)])


def test_digraph_rejects_loops_duplicates_digons():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Digraph(-1, [])


def test_digraph_trivial_sizes():
    assert Digraph(0, []).n == 0
    assert Digraph(1, []).arcs == ()
    assert Digraph(2, [(1, 0)]).arcs == ((1, 0),)


def test_orientation_code_value_roundtrip():
    # every code of a path, a cycle, a star and an edgeless base comes
    # back from the orientation it picks
    for base in (path_base(4), cycle_base(4), star_base(3), BaseGraph(3, [])):
        for code in range(1 << len(base.edges)):
            d = orient(base, code)
            assert underlying(d) == base
            assert code_of(base, d) == code


def test_orientation_code_bitstring_is_msb_first():
    # code 4 of a 3-edge path is the bitstring 100: only the first edge
    # flips; code 1 flips only the last
    base = path_base(4)
    assert orient(base, 4).arcs == ((1, 0), (1, 2), (2, 3))
    assert orient(base, 1).arcs == ((0, 1), (1, 2), (3, 2))


def test_orientation_code_validation():
    base = path_base(4)
    with pytest.raises(ValueError, match="code value 8 out of range for 3 edges"):
        orient(base, 8)
    with pytest.raises(ValueError, match="code value -1 out of range"):
        orient(base, -1)
    with pytest.raises(ValueError, match="edgeless base admits only code 0"):
        orient(BaseGraph(2, []), 1)
    with pytest.raises(TypeError):
        orient(base, 2.0)


def test_orient_and_code_of_are_inverse():
    # code_of reads the arcs in any order; orient lists them in the
    # base's edge order
    rng = random.Random(4)
    base = cycle_base(4)
    for code in range(16):
        arcs = list(orient(base, code).arcs)
        rng.shuffle(arcs)
        d = Digraph(4, arcs)
        assert code_of(base, d) == code
        assert sorted(orient(base, code_of(base, d)).arcs) == sorted(arcs)


def test_orient_bit_semantics():
    # bit 0 keeps the stored (u, v) direction, bit 1 flips it
    base = path_base(3)
    assert orient(base, 0b00).arcs == ((0, 1), (1, 2))
    assert orient(base, 0b10).arcs == ((1, 0), (1, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Digraph(3, [(0, 1.7)]),
        lambda: BaseGraph(3, [(0, 1.7)]),
        lambda: Coloring([0, 1.9, 0.2], 2),
        lambda: FamilySpec("path", (4.6,)),
        lambda: Digraph(2.0, []),
        lambda: BaseGraph(2.0, []),
        lambda: Coloring([0, 1], 2.0),
    ],
    ids=[
        "digraph-arc",
        "base-edge",
        "coloring-class",
        "family-param",
        "digraph-n",
        "base-n",
        "coloring-k",
    ],
)
def test_float_labels_raise_rather_than_truncate(build):
    with pytest.raises(TypeError):
        build()


def test_code_of_rejects_non_orientations():
    base = path_base(3)
    with pytest.raises(ValueError):
        code_of(base, Digraph(3, [(0, 1)]))  # arc count mismatch
    with pytest.raises(ValueError):
        code_of(base, Digraph(3, [(0, 1), (0, 2)]))  # (0, 2) not a base edge


def test_underlying_keeps_arc_order():
    d = Digraph(4, [(2, 1), (0, 1), (3, 2)])
    assert underlying(d).edges == ((1, 2), (0, 1), (2, 3))


def test_out_degree_sequence():
    d = Digraph(4, [(0, 1), (0, 2), (3, 0)])
    assert out_degree_sequence(d) == (2, 0, 0, 1)


def test_is_connected():
    assert is_connected(path_base(5))
    assert is_connected(BaseGraph(1, []))
    assert is_connected(BaseGraph(0, []))
    assert not is_connected(BaseGraph(2, []))
    assert not is_connected(BaseGraph(4, [(0, 1), (2, 3)]))


def test_path_and_cycle_base_shapes():
    assert path_base(1).edges == ()
    assert path_base(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_base(3).edges == ((0, 1), (1, 2), (0, 2))
    # closing edge comes last, endpoints normalized to ascending
    assert cycle_base(5).edges[-1] == (0, 4)
    with pytest.raises(ValueError):
        path_base(0)
    with pytest.raises(ValueError):
        cycle_base(2)


def test_cycle_symmetry_class_counts():
    # orbit counts under rotation plus reflection; reflections flip the
    # traversal direction, so these are smaller than necklace counts
    counts = [len(code_orbits("cycle", cycle_base(n))) for n in range(3, 9)]
    assert counts == [2, 4, 4, 9, 10, 22]


def test_cycle_symmetry_classes_partition_the_code_space():
    for n in (4, 6):
        classes = code_orbits("cycle", cycle_base(n))
        values = [c for cls in classes for c in cls]
        assert sorted(values) == list(range(1 << n))


def test_consistent_cycle_orbit_is_a_pair():
    # the closing edge is stored with ascending endpoints, so the
    # consistent cycle is code 1 (only the last bit set) and its
    # reversal is all ones except the last bit
    for n in (3, 5, 8):
        base = cycle_base(n)
        assert code_of(base, directed_cycle(n)) == 1
        classes = code_orbits("cycle", base)
        orbit = next(cls for cls in classes if 1 in cls)
        assert orbit == [1, (1 << n) - 2]
        # code 0 orients every edge ascending: a consistent path plus a
        # closing arc against the flow; rotations and reflections give
        # one member per position and direction of the odd arc
        assert len(classes[0]) == 2 * n


def _family_by_every_builder(base):
    """The rule _family replaced: compare the edges with the tuple each
    builder gives for the vertex count, path first, then cycle, then
    star."""
    n, edges = base.n, base.edges
    steps = tuple((i, i + 1) for i in range(n - 1))
    if n >= 2 and edges == steps:
        return "path"
    if n >= 3 and edges == steps + ((0, n - 1),):
        return "cycle"
    if n >= 3 and edges == tuple((0, i) for i in range(1, n)):
        return "star"
    return None


def test_family_builds_one_candidate_with_the_old_answers():
    rng = random.Random(21)
    built = [path_base(n) for n in range(1, 11)]
    built += [cycle_base(n) for n in range(3, 11)]
    built += [star_base(leaves) for leaves in range(1, 10)]
    for base in built:
        # the builders give exactly what the validating constructor gives
        assert BaseGraph(base.n, base.edges) == base
        shuffled = list(base.edges)
        rng.shuffle(shuffled)
        for edges in (base.edges, base.edges[::-1], shuffled):
            other = BaseGraph(base.n, edges)
            assert _family(other) == _family_by_every_builder(other), (base, edges)
    assert [_family(b) for b in (path_base(2), cycle_base(3), star_base(2))] == [
        "path",
        "cycle",
        "star",
    ]
    assert _family(path_base(1)) is None
    assert _family(BaseGraph(4, [(0, 1), (1, 2), (0, 3)])) is None
