"""Small directed graphs as immutable values.

Vertices are the integers 0..n-1.  Digraphs are simple: no loops, no
parallel arcs, and no two vertices joined in both directions, so the
underlying undirected graph is simple as well.  A BaseGraph is such an
undirected substrate; an OrientationCode picks one direction per edge,
which is how the solver enumerates all orientations of a base.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class BaseGraph:
    """Undirected simple graph.  Edges are stored as (u, v) with u < v.

    Edge order is significant: orientation codes index bits by position
    in this edge list.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))


@dataclass(frozen=True)
class Digraph:
    """Directed simple graph without digons (no u->v together with v->u)."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        seen = set()
        for u, v in arcs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate arc ({u}, {v})")
            if (v, u) in seen:
                raise ValueError(f"digon between {u} and {v}")
            seen.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def _from_checked(cls, n: int, arcs: tuple[tuple[int, int], ...]) -> "Digraph":
        """A digraph from arcs the caller has already checked as
        __init__ would: skips __init__ and its second pass."""
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "arcs", arcs)
        return d


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class OrientationCode:
    """One orientation of a base graph, as a bit per edge.

    Bit i refers to edge i = (u, v) with u < v of the base: 0 orients it
    u->v, 1 orients it v->u.  Rendered as a bitstring whose first
    character is edge 0; the numeric value of a code is that bitstring
    read as a binary number, which fixes the tie-break order used by
    sweep reports.
    """

    base: BaseGraph
    bits: tuple[int, ...]

    def __init__(self, base: BaseGraph, bits: Sequence[int]):
        bits = tuple(int(b) for b in bits)
        if len(bits) != len(base.edges):
            raise ValueError(
                f"code length {len(bits)} != edge count {len(base.edges)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("code bits must be 0 or 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_value(cls, base: BaseGraph, value: int) -> "OrientationCode":
        m = len(base.edges)
        if not 0 <= value < 1 << m:
            if m == 0:
                raise ValueError("edgeless base admits only code 0")
            raise ValueError(f"code value {value} out of range for {m} edges")
        # bits built here are valid by construction: skip __init__, and
        # keep the digits as the cached bitstring; the guard bit at m
        # pads the digits to m, and to none for an edgeless base
        digits = bin(value | 1 << m)[3:]
        code = object.__new__(cls)
        attrs = code.__dict__
        attrs["base"] = base
        attrs["bits"] = tuple(digits.encode().translate(_DIGIT_VALUES))
        attrs["bitstring"] = digits
        return code

    @cached_property
    def bitstring(self) -> str:
        return bytes(self.bits).translate(_DIGIT_CHARS).decode()

    @property
    def value(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v


def make_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Validated digraph constructor."""
    return Digraph(n, arcs)


def out_neighbors(d: Digraph, v: int) -> frozenset[int]:
    if not (0 <= v < d.n):
        raise ValueError(f"vertex {v} out of range")
    return frozenset(b for a, b in d.arcs if a == v)


def out_degree_sequence(d: Digraph) -> tuple[int, ...]:
    degs = [0] * d.n
    for a, _ in d.arcs:
        degs[a] += 1
    return tuple(degs)


def underlying(d: Digraph) -> BaseGraph:
    """Undirected substrate; edge order follows arc order."""
    return BaseGraph(d.n, d.arcs)


def orient(code: OrientationCode) -> Digraph:
    arcs = []
    for (u, v), b in zip(code.base.edges, code.bits):
        arcs.append((u, v) if b == 0 else (v, u))
    return Digraph(code.base.n, arcs)


def code_of(base: BaseGraph, d: Digraph) -> OrientationCode:
    """Inverse of orient: the code that produces d from base.

    Errors if d is not an orientation of base.
    """
    if d.n != base.n or len(d.arcs) != len(base.edges):
        raise ValueError("digraph is not an orientation of the base")
    arcset = set(d.arcs)
    bits = []
    for u, v in base.edges:
        if (u, v) in arcset:
            bits.append(0)
        elif (v, u) in arcset:
            bits.append(1)
        else:
            raise ValueError(f"base edge ({u}, {v}) is unoriented in the digraph")
    return OrientationCode(base, bits)


def reverse(d: Digraph) -> Digraph:
    """Reverse every arc."""
    return Digraph(d.n, tuple((v, u) for u, v in d.arcs))


def is_connected(base: BaseGraph) -> bool:
    """Connectivity of the undirected graph; 0 or 1 vertices count as connected."""
    if base.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(base.n)]
    for u, v in base.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == base.n


def path_base(n: int) -> BaseGraph:
    """Path on n vertices: edges (i, i+1) in index order."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return BaseGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_base(n: int) -> BaseGraph:
    """Cycle on n vertices: edges (i, i+1) then the closing edge {n-1, 0}."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return BaseGraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])


def star_base(leaves: int) -> BaseGraph:
    """Star with hub 0 and leaves 1..leaves: edges (0, i) in leaf order."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return BaseGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _family(base: BaseGraph) -> str | None:
    """The family, "path", "cycle" or "star", whose builder gives the
    exact edge tuple of base for its vertex count, or None: the same
    edges in another order are not recognised."""
    n, edges = base.n, base.edges
    steps = tuple((i, i + 1) for i in range(n - 1))
    if n >= 2 and edges == steps:
        return "path"
    if n >= 3 and edges == steps + ((0, n - 1),):
        return "cycle"
    if n >= 3 and edges == tuple((0, i) for i in range(1, n)):
        return "star"
    return None


# _REVERSED_BITS[x]: the byte x with its 8 bits in reverse order
_REVERSED_BITS = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))


def _mirror(code: int, m: int) -> int:
    """The m-bit code with its bits in reverse order, each one flipped."""
    # the bytes, little-endian and each reversed, read big-endian hold
    # the reversal of all their bits; the -m & 7 lowest are padding
    reversed_bytes = code.to_bytes((m + 7) >> 3, "little").translate(_REVERSED_BITS)
    return (int.from_bytes(reversed_bytes, "big") >> (-m & 7)) ^ ((1 << m) - 1)


def _orbit(family: str, m: int, code: int) -> list[int]:
    """The codes of a path or cycle with m edges that are isomorphic to
    code, ascending.

    Path: the reversal x -> n-1-x sends edge i to edge m-1-i against its
    direction, so the image of code is its mirror.  Cycle: the closing
    edge (0, n-1) is read against the way round, so in g = code ^ 1 bit
    i (from the most significant) is 0 when its arc runs i -> i+1 mod n.
    The rotation x -> x+1 then rotates g right by one bit, and the
    reflection x -> -x mirrors it; each image is conjugated back by ^ 1.
    """
    if family == "path":
        image = _mirror(code, m)
        if image == code:
            return [code]
        return [code, image] if code < image else [image, code]
    mask = (1 << m) - 1
    g = code ^ 1
    images = set()
    for h in (g, _mirror(g, m)):
        doubled = h | (h << m)
        images.update(((doubled >> k) & mask) ^ 1 for k in range(m))
    return sorted(images)


class CodeOrbits(NamedTuple):
    """Orbits of the 2^|edges| orientation codes of a base under its
    automorphism group: path reversal, cycle rotation and reflection,
    star leaf permutations, or the trivial group for any other base.

    reps: the smallest code of each orbit, ascending.  sizes: orbit
    sizes aligned with reps, or None when every orbit is a single code.
    members: maps a representative to the codes of its orbit, ascending,
    so the representative comes first.
    """

    reps: Sequence[int]
    sizes: Sequence[int] | None
    members: Callable[[int], Iterable[int]]


def code_orbits(base: BaseGraph) -> CodeOrbits:
    """The orbits of base's orientation codes.

    A star's leaf permutations move code bits without flipping any and
    reach every arrangement of them, so its orbits are the popcount
    classes, given in closed form with no per-code work.  For a path or
    cycle the first code not yet seen, in ascending order, is the
    smallest of a new orbit, whose closed-form members are then marked,
    one byte per code.  The trivial group allocates nothing.
    """
    m = len(base.edges)
    total = 1 << m
    family = _family(base)
    if family == "star":
        reps = [(1 << j) - 1 for j in range(m + 1)]
        return CodeOrbits(
            reps, [comb(m, j) for j in range(m + 1)], partial(_same_popcount, m)
        )
    if family is None:
        return CodeOrbits(range(total), None, _singleton)
    members = partial(_orbit, family, m)
    typecode = "I" if total < 1 << 32 else "Q"
    seen = bytearray(total)
    reps = array(typecode)
    sizes = array(typecode)
    start = 0
    while start >= 0:
        orbit = members(start)
        for code in orbit:
            seen[code] = 1
        reps.append(start)
        sizes.append(len(orbit))
        start = seen.find(0, start + 1)  # -1 once every code is seen
    return CodeOrbits(reps, sizes, members)


def codes_enumerated(base: BaseGraph) -> bool:
    """Whether code_orbits(base), or a sweep over its orbits, takes time
    in proportion to the codes: true for every base but a star."""
    return _family(base) != "star"


def _singleton(code: int) -> tuple[int]:
    return (code,)


def _same_popcount(m: int, rep: int) -> Iterator[int]:
    """The m-bit codes with as many set bits as rep = 2^j - 1, ascending,
    by Gosper's next-same-popcount step."""
    if not rep:
        yield 0
        return
    code = rep
    limit = 1 << m
    while code < limit:
        yield code
        low = code & -code
        ripple = code + low
        code = ripple | ((code ^ ripple) >> 2) // low


def cycle_symmetry_classes(n: int) -> list[list[OrientationCode]]:
    """Partition all 2^n orientation codes of the n-cycle into classes
    equivalent under rotation and reflection of the cycle.

    Rotations preserve the traversal direction of arcs while reflections
    reverse it, so this is an orbit computation under the full vertex
    symmetry group of the cycle, acting on codes through relabeling.

    Classes are sorted by smallest member value; members sort ascending.
    """
    base = cycle_base(n)
    orbits = code_orbits(base)
    return [
        [OrientationCode.from_value(base, code) for code in orbits.members(rep)]
        for rep in orbits.reps
    ]
