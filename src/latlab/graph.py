"""Immutable simple graphs, named family generators, join/union, and codecs."""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import ParameterError, ParseError, TooLargeError, ValidationError

Edge = Tuple[int, int]

SIZE_LIMIT = 1_000_000  # most vertices, and most edges, of a graph


def _refuse_huge(p: int, q: int):
    if max(p, q) > SIZE_LIMIT:
        raise TooLargeError(f"a graph of {p} vertices and {q} edges exceeds the "
                            f"limit of {SIZE_LIMIT} of either")


class Frozen:
    """A value type: `__init__` validates, then sets the slots once through
    `_init`.  Equality, hash, repr and pickling go by `_fields`."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Graph(Frozen):
    """A finite simple undirected graph with canonical edge ordering.

    Edges are stored with endpoints ascending and the list sorted
    lexicographically, so edge ids are stable and certificates are
    reproducible.  Instances are immutable after construction.
    """

    __slots__ = ("p", "edges", "_adj", "_incident")
    _fields = ("p", "edges")

    def __init__(self, p: int, edges: Tuple[Edge, ...]):
        if p < 0:
            raise ValidationError("vertex count must be nonnegative")
        _refuse_huge(p, len(edges))
        prev = None
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < v < p):
                raise ValidationError(f"edge ({u},{v}) out of canonical form or range for p={p}")
            if prev is not None and (u, v) <= prev:
                raise ValidationError(f"edge list not sorted/duplicate at ({u},{v})")
            prev = (u, v)
        adj = [[] for _ in range(p)]
        incident = [[] for _ in range(p)]
        for e, (u, v) in enumerate(edges):
            adj[u].append(v)
            adj[v].append(u)
            incident[u].append(e)
            incident[v].append(e)
        self._init(p, edges, tuple(map(tuple, adj)), tuple(map(tuple, incident)))

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an arbitrary-order edge list, canonicalizing it."""
        return cls(p, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))

    @property
    def q(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def isolated_vertices(self) -> Tuple[int, ...]:
        return tuple(v for v in range(self.p) if not self._adj[v])


def has_isolated_edge(g: Graph) -> bool:
    """An edge whose endpoints have no other edge: no edge labeling of g
    is local antimagic, as both endpoints weigh its label."""
    return any(g.degree(u) == 1 and g.degree(v) == 1 for u, v in g.edges)


# ---------------------------------------------------------------------------
# Combinators

def join(g: Graph, h: Graph) -> Graph:
    """Join g ∨ h: both graphs side by side plus all cross edges.

    Vertices of g keep their indices; vertices of h are shifted by g.p.
    """
    edges = list(g.edges)
    edges += [(u + g.p, v + g.p) for u, v in h.edges]
    edges += [(u, v + g.p) for u in range(g.p) for v in range(h.p)]
    return Graph.from_edges(g.p + h.p, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union: same index offsetting as join, no cross edges."""
    edges = list(g.edges) + [(u + g.p, v + g.p) for u, v in h.edges]
    return Graph.from_edges(g.p + h.p, edges)


# ---------------------------------------------------------------------------
# Families

def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# kind -> (least value of each parameter, (order, size) of an instance,
# builder).  Cone families (wheel, fan, joins with K1) put the apex last, so
# the base keeps indices 0..n-1.
_FAMILIES = {
    "empty": ((0,), lambda n: (n, 0), lambda n: Graph(n, ())),
    "path": ((1,), lambda n: (n, n - 1), _path),
    "cycle": ((3,), lambda n: (n, n), _cycle),
    "complete": ((0,), lambda n: (n, n * (n - 1) // 2), _complete),
    "complete_bipartite": ((0, 0), lambda a, b: (a + b, a * b), lambda a, b: Graph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)])),
    "wheel": ((3,), lambda n: (n + 1, 2 * n), lambda n: join(_cycle(n), Graph(1, ()))),
    "fan": ((1,), lambda n: (n + 1, 2 * n - 1), lambda n: join(_path(n), Graph(1, ()))),
    "k2_plus_empty": ((0,), lambda n: (n + 2, 1),
                      lambda n: disjoint_union(_complete(2), Graph(n, ()))),
    "join_complete_cycle": ((0, 3), lambda m, n: (m + n, n + m * (m - 1) // 2 + m * n),
                            lambda m, n: join(_cycle(n), _complete(m))),
    "cycle_join_empty": ((3, 0), lambda p, m: (p + m, p + p * m),
                         lambda p, m: join(_cycle(p), Graph(m, ()))),
}


class FamilySpec(Frozen):
    """A named graph family instance (cycle, wheel, fan, ...)."""

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: Tuple[int, ...]):
        if kind not in _FAMILIES:
            raise ParameterError(f"unknown family {kind!r}; one of {sorted(_FAMILIES)}")
        least = _FAMILIES[kind][0]
        if len(params) != len(least):
            raise ParameterError(f"family {kind} takes {len(least)} parameter(s)")
        if any(x < lo for x, lo in zip(params, least)):
            raise ParameterError(f"family {kind} requires parameters >= {least}, got {params}")
        self._init(kind, params)

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse a spec string like 'cycle:4' or 'complete-bipartite:2:3'."""
        parts = text.replace("-", "_").split(":")
        kind = parts[0]
        try:
            params = tuple(int(x) for x in parts[1:])
        except ValueError as exc:
            raise ParameterError(f"non-integer family parameter in {text!r}") from exc
        return cls(kind, params)


def generate(spec: FamilySpec) -> Graph:
    """The canonical graph of a family instance, refused before it is built
    when it would exceed `SIZE_LIMIT`."""
    _, size, build = _FAMILIES[spec.kind]
    _refuse_huge(*size(*spec.params))
    return build(*spec.params)


# ---------------------------------------------------------------------------
# Edge-list codec

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: optional 'p=<n>' first line, then 'u v' lines."""
    declared_p = None
    edges = []
    max_seen = -1
    offset = 0
    first = True
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            if first and stripped.startswith("p="):
                try:
                    declared_p = int(stripped[2:])
                except ValueError:
                    raise ParseError(f"bad vertex-count line {stripped!r}", offset)
                if declared_p < 0:
                    raise ParseError("declared p must be nonnegative", offset)
            else:
                parts = stripped.split()
                if len(parts) != 2:
                    raise ParseError(f"expected two indices, got {stripped!r}", offset)
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(f"non-integer vertex index in {stripped!r}", offset)
                if u < 0 or v < 0:
                    raise ParseError(f"negative vertex index in {stripped!r}", offset)
                edges.append((u, v))
                max_seen = max(max_seen, u, v)
            first = False
        offset += len(line.encode())
    p = declared_p if declared_p is not None else max_seen + 1
    if max_seen >= p:
        raise ValidationError(f"vertex index {max_seen} out of range for declared p={p}")
    return Graph.from_edges(p, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize in canonical order; the p= line appears only when needed."""
    lines = []
    implied = g.edges[-1][1] + 1 if g.edges else 0
    if g.p != implied:
        lines.append(f"p={g.p}")
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# graph6 codec (standard bit layout: upper triangle in column order,
# 6-bit chunks offset by 63)

_G6_HEADER = ">>graph6<<"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ParameterError(f"graph6 vertex count {n} exceeds supported range")


def graph6_encode(g: Graph) -> str:
    n = g.p
    out = [_g6_encode_n(n)]
    adj = [set(g.neighbors(v)) for v in range(n)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if j in adj[i] else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k:k + 6]:
            chunk = (chunk << 1) | b
        out.append(chr(chunk + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    base = 0
    if s.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        s = s[base:]
    if not s:
        raise ParseError("empty graph6 string", base)
    for i, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise ParseError(f"invalid graph6 character {ch!r}", base + i)
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ParseError("unsupported or truncated graph6 size prefix", base)
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
        body_base = base + 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        body_base = base + 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} chars, expected {need}", body_base)
    bits = []
    for ch in body:
        x = ord(ch) - 63
        bits += [(x >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        return graph6_decode(text)
    raise ParameterError(f"unknown graph format {fmt!r}")


def format_graph(g: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        return format_edge_list(g)
    if fmt == "graph6":
        return graph6_encode(g)
    raise ParameterError(f"unknown graph format {fmt!r}")
