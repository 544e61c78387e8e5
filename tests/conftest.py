"""Shared fixtures.

Exhaustive orientation sweeps dominate the suite's runtime, so the two
sweep tables (paths n = 1..12, cycles n = 3..12) are computed once per
session and handed to every test that needs them, along with the wall
time the computation took.
"""

import random
import time
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from domchrom import (
    Digraph,
    code_of,
    cycle_base,
    is_connected,
    orient,
    path_base,
    sweep,
    underlying,
)
from domchrom.graphs import _Record

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

PATH_NS = range(1, 13)
CYCLE_NS = range(3, 13)


@pytest.fixture(scope="session", autouse=True)
def checked_records():
    """Records built without validation (parsed digraphs, bases and
    colorings, kernel witnesses, family bases) must equal the validated
    construction, field types included, in every test."""
    unchecked = _Record._from_checked.__func__

    def from_checked(cls, *values):
        record = unchecked(cls, *values)
        checked = cls(*values)
        assert record == checked
        assert [type(getattr(record, name)) for name in cls._fields] == [
            type(getattr(checked, name)) for name in cls._fields
        ]
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Record, "_from_checked", classmethod(from_checked))
        yield


class TimedSweeps(NamedTuple):
    by_n: dict
    elapsed_s: float


@pytest.fixture(scope="session")
def path_sweeps() -> TimedSweeps:
    t0 = time.perf_counter()
    by_n = {n: sweep(path_base(n)) for n in PATH_NS}
    return TimedSweeps(by_n, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def cycle_sweeps() -> TimedSweeps:
    t0 = time.perf_counter()
    by_n = {n: sweep(cycle_base(n)) for n in CYCLE_NS}
    return TimedSweeps(by_n, time.perf_counter() - t0)


def random_connected_digraph(rng: random.Random, n: int, p: float = 0.5) -> Digraph:
    """Digon-free digraph on n vertices whose underlying graph is
    connected; each unordered pair carries an arc with probability p,
    directed by a fair coin.  Retries until connected."""
    while True:
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        d = Digraph(n, arcs)
        if is_connected(underlying(d)):
            return d


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
    """The code of the orientation that relabelling code's vertices by
    perm gives."""
    d = orient(base, code)
    return code_of(base, Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs]))


def code_orbits(kind, base):
    """The orbits of every code of a path, cycle or star base under its
    vertex automorphisms, each a sorted list, in order of least member:
    each orbit is closed under automorphism_generators by search."""
    generators = automorphism_generators(kind, base)
    seen = set()
    orbits = []
    for code in range(1 << len(base.edges)):
        if code in seen:
            continue
        seen.add(code)
        orbit, stack = [code], [code]
        while stack:
            current = stack.pop()
            for perm in generators:
                image = relabelled_code(base, current, perm)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
                    stack.append(image)
        orbits.append(sorted(orbit))
    return orbits


@st.composite
def digraphs(draw, max_n=7):
    """Digon-free digraph on at most max_n vertices: each pair carries
    no arc or an arc in either direction."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    arcs = []
    for (u, v), s in zip(pairs, states):
        if s == 1:
            arcs.append((u, v))
        elif s == 2:
            arcs.append((v, u))
    return Digraph(n, arcs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260819)
