import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import digraphs
from domchrom import (
    Coloring,
    Digraph,
    DominationMode,
    Verdict,
    Violation,
    canonicalize,
    directed_path,
    fig3_digraph,
    verify,
)


def test_coloring_accepts_canonical_form():
    c = Coloring([0, 1, 0, 2], 3)
    assert c.n == 4
    assert c.k == 3
    assert c.class_members() == (
        frozenset({0, 2}),
        frozenset({1}),
        frozenset({3}),
    )


def test_coloring_rejects_non_canonical_or_partial():
    with pytest.raises(ValueError):
        Coloring([1, 0], 2)  # class 1 appears before class 0
    with pytest.raises(ValueError):
        Coloring([0, 0], 2)  # class 1 empty
    with pytest.raises(ValueError):
        Coloring([0, 2], 3)  # skips class 1
    with pytest.raises(ValueError):
        Coloring([0, -1], 2)
    with pytest.raises(ValueError):
        Coloring([0, 1], 0)


def test_empty_coloring():
    c = Coloring([], 0)
    assert c.n == 0
    assert c.class_members() == ()


def test_canonicalize_relabels_by_first_occurrence():
    c = canonicalize([2, 2, 0, 1])
    assert c.assignment == (0, 0, 1, 2)
    assert c.k == 3


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=12))
def test_canonicalize_is_idempotent_and_partition_preserving(raw):
    c = canonicalize(raw)
    again = canonicalize(c.assignment)
    assert again.assignment == c.assignment
    assert again.k == c.k
    # same partition: vertices agree in raw iff they agree afterwards
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            assert (raw[i] == raw[j]) == (c.assignment[i] == c.assignment[j])


def test_verify_accepts_a_known_good_coloring():
    verdict = verify(fig3_digraph(), Coloring([0, 1, 2, 3, 4, 0], 5))
    assert verdict.ok
    assert verdict.violations == ()


def test_verify_reports_every_violation():
    d = directed_path(3)
    c = Coloring([0, 0, 0], 1)
    verdict = verify(d, c)
    kinds = [v.kind for v in verdict.violations]
    assert not verdict.ok
    assert kinds.count("properness") == 2
    # vertices 0 and 1 have out-arcs and dominate nothing; 2 is a sink
    assert kinds.count("domination") == 2
    strict = verify(d, c, DominationMode.STRICT)
    assert [v.kind for v in strict.violations].count("domination") == 3


def test_verify_sink_exemption_is_the_only_mode_difference():
    d = directed_path(2)
    c = Coloring([0, 1], 2)
    assert verify(d, c, DominationMode.SINK_EXEMPT).ok
    strict = verify(d, c, DominationMode.STRICT)
    assert not strict.ok
    assert strict.violations[0].kind == "domination"
    assert strict.violations[0].vertex == 1


def test_verify_size_mismatch_raises():
    with pytest.raises(ValueError):
        verify(Digraph(3, [(0, 1)]), Coloring([0, 1], 2))


def set_verify(d, c, mode):
    """The verifier on sets of vertices, kept as the reference."""
    a = c.assignment
    violations = [
        Violation("properness", arc=(u, v)) for u, v in d.arcs if a[u] == a[v]
    ]
    outs = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        outs[u].add(v)
    members = c.class_members()
    for v in range(d.n):
        if mode is DominationMode.SINK_EXEMPT and not outs[v]:
            continue
        if not any(m <= outs[v] for m in members):
            violations.append(Violation("domination", vertex=v))
    return Verdict(ok=not violations, violations=tuple(violations))


@given(digraphs(), st.data())
def test_verify_matches_the_set_based_reference(d, data):
    # random labels leave improper arcs, and random digraphs have sinks;
    # all-distinct labels pass in sink-exempt mode
    raw = data.draw(
        st.one_of(
            st.just(range(d.n)),
            st.lists(st.integers(0, d.n - 1), min_size=d.n, max_size=d.n),
        )
    )
    c = canonicalize(raw)
    for mode in DominationMode:
        assert verify(d, c, mode) == set_verify(d, c, mode)
