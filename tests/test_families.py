import pytest

from domchrom import (
    FAMILY_KINDS,
    FamilySpec,
    chromatic_number,
    cycle_base,
    cycle_min_formula,
    cycle_optimal,
    directed_cycle,
    directed_path,
    dominator_chromatic_number,
    family_witness,
    fig3_digraph,
    fig4_digraph,
    one_way_complete_bipartite,
    out_degree_sequence,
    path_base,
    path_min_formula,
    path_optimal,
    star_optimal,
    star_oriented,
    tilde_cycle,
    tilde_cycle_optimal,
    tournament,
    underlying,
    verify,
)
from domchrom.families import member_vertices
from domchrom.graphs import star_base

# frozen from exhaustive sweeps of every orientation, n = 1..12
PATH_MIN = [1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]
# frozen likewise, n = 3..12
CYCLE_MIN = [3, 2, 3, 3, 4, 4, 5, 5, 5, 5]
# every residue and small case, and the top of the `family` size guard
WITNESS_SIZES = [*range(1, 201), *range(990, 1001)]


def test_path_min_formula_frozen_table():
    assert [path_min_formula(n) for n in range(1, 13)] == PATH_MIN
    with pytest.raises(ValueError):
        path_min_formula(0)


def test_cycle_min_formula_frozen_table():
    assert [cycle_min_formula(n) for n in range(3, 13)] == CYCLE_MIN
    with pytest.raises(ValueError):
        cycle_min_formula(2)


def test_path_witnesses_meet_the_formula():
    for n in WITNESS_SIZES:
        w = path_optimal(n)
        assert underlying(w.digraph) == path_base(n)
        assert w.claimed_value == path_min_formula(n)
        assert w.coloring.k == w.claimed_value
        assert verify(w.digraph, w.coloring).ok
        if n <= 12:
            assert dominator_chromatic_number(w.digraph).value == w.claimed_value


def test_cycle_witnesses_meet_the_formula():
    for n in WITNESS_SIZES[2:]:  # from 3 vertices
        w = cycle_optimal(n)
        assert underlying(w.digraph) == cycle_base(n)
        assert w.claimed_value == cycle_min_formula(n)
        assert w.coloring.k == w.claimed_value
        assert verify(w.digraph, w.coloring).ok
        if n <= 12:
            assert dominator_chromatic_number(w.digraph).value == w.claimed_value


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("wheel", (5,))
    with pytest.raises(ValueError):
        FamilySpec("path", ())
    with pytest.raises(ValueError):
        FamilySpec("path", (0,))
    with pytest.raises(ValueError):
        FamilySpec("cycle", (2,))
    with pytest.raises(ValueError):
        FamilySpec("star", (2, 3))  # more in-arcs than leaves
    with pytest.raises(ValueError):
        FamilySpec("fig3", (1,))
    assert FamilySpec("star", (3, 0)).params == (3, 0)


def test_directed_path_and_cycle_shapes():
    assert directed_path(4).arcs == ((0, 1), (1, 2), (2, 3))
    assert directed_cycle(3).arcs == ((0, 1), (1, 2), (2, 0))
    assert out_degree_sequence(directed_path(4)) == (1, 1, 1, 0)
    assert out_degree_sequence(directed_cycle(5)) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        directed_path(0)
    with pytest.raises(ValueError):
        directed_cycle(2)


def test_star_oriented_shape():
    d = star_oriented(4, 1)
    assert d.arcs == ((1, 0), (0, 2), (0, 3), (0, 4))
    with pytest.raises(ValueError):
        star_oriented(0, 0)
    with pytest.raises(ValueError):
        star_oriented(2, 3)


def test_star_optimal_two_iff_uniform():
    for leaves in range(1, 6):
        for in_arcs in range(leaves + 1):
            w = star_optimal(leaves, in_arcs)
            assert verify(w.digraph, w.coloring).ok
            expected = 2 if in_arcs in (0, leaves) else 3
            assert w.claimed_value == expected
            assert dominator_chromatic_number(w.digraph).value == expected


def test_one_way_complete_bipartite_value_two():
    for m, n in [(1, 1), (2, 3), (3, 3), (1, 5)]:
        d = one_way_complete_bipartite(m, n)
        assert len(d.arcs) == m * n
        assert dominator_chromatic_number(d).value == 2
    with pytest.raises(ValueError):
        one_way_complete_bipartite(0, 1)


def test_tournament_choosers():
    t = tournament(4)
    assert t.arcs == tuple(
        (u, v) for u in range(4) for v in range(u + 1, 4)
    )
    flipped = tournament(3, 0b111)
    assert flipped.arcs == ((1, 0), (2, 0), (2, 1))
    with pytest.raises(ValueError):
        tournament(0)


def test_tournaments_need_a_class_per_vertex():
    # underlying complete graph already forces n classes, and the
    # all-singleton coloring dominates out of every vertex
    for n in range(2, 6):
        for code in (0, 1, (1 << (n * (n - 1) // 2)) - 1):
            assert dominator_chromatic_number(tournament(n, code)).value == n


def test_tilde_cycle_shape_and_values():
    d = tilde_cycle(4)
    assert d.n == 5
    assert out_degree_sequence(d) == (2, 2, 2, 2, 0)
    # hub is a sink fed by every cycle vertex
    assert all((i, 4) in d.arcs for i in range(4))
    assert dominator_chromatic_number(tilde_cycle(6)).value == 3
    assert dominator_chromatic_number(tilde_cycle(7)).value == 4
    with pytest.raises(ValueError):
        tilde_cycle(2)


def test_tilde_cycle_optimal_witnesses():
    for n in range(3, 11):
        w = tilde_cycle_optimal(n)
        assert verify(w.digraph, w.coloring).ok
        assert w.claimed_value == (3 if n % 2 == 0 else 4)
        assert dominator_chromatic_number(w.digraph).value == w.claimed_value


def test_fixed_examples_shapes():
    f3 = fig3_digraph()
    f4 = fig4_digraph()
    assert (f3.n, len(f3.arcs)) == (6, 6)
    assert (f4.n, len(f4.arcs)) == (6, 8)


def test_base_graph_of_each_kind():
    # equality is edge-order sensitive, as orientation codes index edges
    def base(kind, *params):
        return underlying(family_witness(FamilySpec(kind, params)).digraph)

    for n in WITNESS_SIZES:
        assert base("path", n) == path_base(n)
    for n in WITNESS_SIZES[2:]:  # from 3 vertices
        assert base("cycle", n) == cycle_base(n)
    for leaves in range(1, 9):
        for in_arcs in range(leaves + 1):
            assert base("star", leaves, in_arcs) == star_base(leaves)
    kn = base("complete", 4)
    assert kn.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    bip = base("complete-bipartite", 2, 3)
    assert bip.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    assert chromatic_number(bip) == 2


SAMPLE_SPECS = [
    FamilySpec("path", (7,)),
    FamilySpec("cycle", (8,)),
    FamilySpec("star", (4, 2)),
    FamilySpec("complete", (5,)),
    FamilySpec("complete-bipartite", (2, 3)),
    FamilySpec("tilde-cycle", (6,)),
    FamilySpec("fig3", ()),
    FamilySpec("fig4", ()),
]


# family_witness(spec) for each sample: arcs, assignment, claimed value
FROZEN_WITNESSES = {
    "path": (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6)),
        (0, 1, 2, 1, 0, 1, 3),
        4,
    ),
    "cycle": (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 0)),
        (0, 1, 2, 1, 0, 1, 3, 1),
        4,
    ),
    "star": (((1, 0), (2, 0), (0, 3), (0, 4)), (0, 1, 1, 2, 2), 3),
    "complete": (
        tuple((u, v) for u in range(5) for v in range(u + 1, 5)),
        (0, 1, 2, 3, 4),
        5,
    ),
    "complete-bipartite": (
        ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
        (0, 0, 1, 1, 1),
        2,
    ),
    "tilde-cycle": (
        tuple((i, (i + 1) % 6) for i in range(6)) + tuple((i, 6) for i in range(6)),
        (0, 1, 0, 1, 0, 1, 2),
        3,
    ),
    "fig3": (((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 0)), (0, 1, 2, 3, 4, 0), 5),
    "fig4": (
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 2), (1, 3)),
        (0, 1, 0, 2, 3, 4),
        5,
    ),
}


@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.kind)
def test_family_witness_matches_the_frozen_witness(spec):
    w = family_witness(spec)
    got = (w.digraph.arcs, w.coloring.assignment, w.claimed_value)
    assert got == FROZEN_WITNESSES[spec.kind]


# with path 7 and cycle 8 above, one frozen witness per residue mod 4
# of both families: arcs, assignment, claimed value
FROZEN_RESIDUE_WITNESSES = {
    ("path", 8): (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6)),
        (0, 1, 2, 1, 0, 1, 3, 1),
        4,
    ),
    ("path", 9): (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8)),
        (0, 1, 2, 1, 0, 1, 3, 1, 0),
        4,
    ),
    ("path", 10): (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8), (9, 8)),
        (0, 1, 2, 1, 0, 1, 3, 1, 4, 1),
        5,
    ),
    ("cycle", 9): (
        ((1, 0), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (8, 7), (8, 0)),
        (0, 1, 2, 3, 2, 1, 2, 4, 2),
        5,
    ),
    ("cycle", 10): (
        ((1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8), (9, 8))
        + ((9, 0),),
        (0, 1, 2, 1, 0, 1, 3, 1, 4, 1),
        5,
    ),
    ("cycle", 11): (
        ((0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (8, 7), (8, 9))
        + ((10, 9), (0, 10)),
        (0, 1, 0, 2, 0, 3, 0, 2, 0, 4, 2),
        5,
    ),
}


@pytest.mark.parametrize("kind, n", FROZEN_RESIDUE_WITNESSES)
def test_path_and_cycle_witnesses_match_one_frozen_witness_per_residue(kind, n):
    w = family_witness(FamilySpec(kind, (n,)))
    got = (w.digraph.arcs, w.coloring.assignment, w.claimed_value)
    assert got == FROZEN_RESIDUE_WITNESSES[kind, n]


@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.kind)
def test_family_witness_is_sound_and_optimal(spec):
    w = family_witness(spec)
    # the CLI's size guard reads the count before anything is built
    assert member_vertices(spec) == w.digraph.n
    assert verify(w.digraph, w.coloring).ok
    assert w.coloring.k == w.claimed_value
    assert dominator_chromatic_number(w.digraph).value == w.claimed_value


def test_family_kinds_are_covered():
    assert sorted(s.kind for s in SAMPLE_SPECS) == sorted(FAMILY_KINDS)
    # the order is the CLI's choice order for `domchrom family`
    assert FAMILY_KINDS == (
        "path",
        "cycle",
        "star",
        "complete",
        "complete-bipartite",
        "tilde-cycle",
        "fig3",
        "fig4",
    )
