"""Small directed graphs as immutable values.

Vertices are the integers 0..n-1.  Digraphs are simple: no loops, no
parallel arcs, and no two vertices joined in both directions, so the
underlying undirected graph is simple as well.  A BaseGraph is such an
undirected substrate.  An orientation code is an integer with a bit
per edge, edge 0 the most significant: the codes 0 .. 2^|edges| - 1
are every orientation of a base.  Constructors read vertex counts and
labels with operator.index, so a float raises TypeError.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter, index
from typing import Iterable


class _DataclassFields:
    """The __dataclass_fields__ of a record class, which
    dataclasses.replace, fields and asdict look for.  It is built on
    first use, so only such a caller imports dataclasses."""

    def __get__(self, record, cls):
        return _dataclass_fields(cls)


@cache
def _dataclass_fields(cls):
    import dataclasses

    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, "Any", dataclasses.field(compare=name not in cls._uncompared))
            for name in cls._fields
        ],
    ).__dataclass_fields__


class _Record:
    """Base of the package's immutable value types.

    A subclass declares each field once, as an annotation, in order,
    after those of the record it extends; a value set in the class body
    is that field's default, shared by every record that takes it.  A
    descriptor there, such as a cached_property, is not a default.  The
    generic __init__ binds positional arguments to the fields in order,
    then named ones; a field left out takes its default, and a missing
    field without one, too many positionals or an unknown name raise
    TypeError.  A type that checks or normalises its input writes its
    own __init__.  Two records are equal when they are of the same
    class and agree on every field not named in _uncompared; the hash
    covers the same fields.  Assignment and deletion raise
    AttributeError.  Instances keep a __dict__, so they pickle and copy
    as plain objects do, and a cached_property stores its value there.
    """

    _fields = ()
    _defaults = {}
    # names of the fields that equality and the hash ignore
    _uncompared = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(cls.__annotations__)
        cls._fields += own
        body = vars(cls)
        cls._defaults = cls._defaults | {
            name: body[name]
            for name in own
            if name in body and not hasattr(type(body[name]), "__get__")
        }
        compared = [name for name in cls._fields if name not in cls._uncompared]
        cls._key = staticmethod(attrgetter(*compared))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} fields, got {len(args)} positionally"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        defaults = self._defaults
        attrs = self.__dict__
        # stored in field order, whatever order the names came in
        for field in fields:
            if field in values:
                attrs[field] = values[field]
            elif field in defaults:
                attrs[field] = defaults[field]
            else:
                raise TypeError(f"{name}() missing field {field!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    @classmethod
    def _from_checked(cls, *values):
        """A record of the given field values, in field order, that the
        caller has already checked and normalised as the class's
        __init__ would: skips __init__ and its checks."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BaseGraph(_Record):
    """Undirected simple graph.  Edges are stored as (u, v) with u < v.

    Edge order is significant: orientation codes index bits by position
    in this edge list.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        seen = set()
        for u, v in edges:
            u, v = index(u), index(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        self.__dict__.update(n=n, edges=tuple(normalized))


class Digraph(_Record):
    """Directed simple graph without digons (no u->v together with v->u)."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcs = tuple((index(u), index(v)) for u, v in arcs)
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
        self.__dict__.update(n=n, arcs=arcs)


def out_degree_sequence(d: Digraph) -> tuple[int, ...]:
    degs = [0] * d.n
    for a, _ in d.arcs:
        degs[a] += 1
    return tuple(degs)


def underlying(d: Digraph) -> BaseGraph:
    """Undirected substrate; edge order follows arc order."""
    return BaseGraph(d.n, d.arcs)


def orient(base: BaseGraph, code: int) -> Digraph:
    """The orientation of base that code picks.  Bit i of code, counted
    from the most significant of len(base.edges) bits, orients edge
    i = (u, v), u < v: 0 as u->v, 1 as v->u."""
    code = index(code)
    m = len(base.edges)
    if not 0 <= code < 1 << m:
        if m == 0:
            raise ValueError("edgeless base admits only code 0")
        raise ValueError(f"code value {code} out of range for {m} edges")
    arcs = [
        (v, u) if code >> (m - 1 - i) & 1 else (u, v)
        for i, (u, v) in enumerate(base.edges)
    ]
    return Digraph(base.n, arcs)


def code_of(base: BaseGraph, d: Digraph) -> int:
    """Inverse of orient: the code that produces d from base.

    Errors if d is not an orientation of base.
    """
    if d.n != base.n or len(d.arcs) != len(base.edges):
        raise ValueError("digraph is not an orientation of the base")
    arcset = set(d.arcs)
    code = 0
    for u, v in base.edges:
        if (u, v) in arcset:
            code <<= 1
        elif (v, u) in arcset:
            code = code << 1 | 1
        else:
            raise ValueError(f"base edge ({u}, {v}) is unoriented in the digraph")
    return code


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
    return BaseGraph._from_checked(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_base(n: int) -> BaseGraph:
    """Cycle on n vertices: edges (i, i+1) then the closing edge {n-1, 0}."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    # the closing edge {n-1, 0} normalised, as __init__ stores it
    return BaseGraph._from_checked(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def star_base(leaves: int) -> BaseGraph:
    """Star with hub 0 and leaves 1..leaves: edges (0, i) in leaf order."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return BaseGraph._from_checked(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def _family(base: BaseGraph) -> str | None:
    """The family, "path", "cycle" or "star", whose builder gives the
    exact edge tuple of base for its vertex count, or None: the same
    edges in another order are not recognised.  The edge count and the
    last edge leave one candidate, the only base built: n edges for a
    cycle; n - 1 for a star when the last is (0, n-1) and n >= 3, else
    for a path."""
    n, edges = base.n, base.edges
    if n >= 3 and len(edges) == n:
        family, candidate = "cycle", cycle_base(n)
    elif n >= 3 and len(edges) == n - 1 and edges[-1] == (0, n - 1):
        family, candidate = "star", star_base(n - 1)
    elif n >= 2 and len(edges) == n - 1:
        family, candidate = "path", path_base(n)
    else:
        return None
    return family if edges == candidate.edges else None
