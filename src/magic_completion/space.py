"""Partial edge-labelled graphs, triangle checking, cycles and serialization.

Vertices are 0-indexed.  A distance, when present, is an integer in 1..delta.
Graphs are immutable after construction; "completing" a graph always builds a
new one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import GraphParseError, InputError, ResourceLimitError
from .params import MAX_DELTA, ParameterTuple

# Largest vertex count of any graph.  Completion and the triangle scan visit
# every pair with n-bit neighbour masks, so their cost grows faster than n^2;
# a larger graph is refused with ResourceLimitError, and a graph file header
# is checked before any edge is read.
MAX_VERTICES = 1000


class LabelledGraph:
    """A finite graph whose edges carry distances in 1..delta; pairs may be absent."""

    __slots__ = ("n", "delta", "_dist")

    def __init__(self, n: int, delta: int, edges=()):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"vertex count must be a non-negative integer, got {n!r}")
        if not isinstance(delta, int) or delta < 1:
            raise InputError(f"delta must be a positive integer, got {delta!r}")
        if n > MAX_VERTICES:
            raise ResourceLimitError(f"{n} vertices exceed the budget of {MAX_VERTICES}")
        if delta > MAX_DELTA:
            raise ResourceLimitError(f"delta {delta} exceeds the budget of {MAX_DELTA}")
        dist: dict[tuple[int, int], int] = {}
        for u, v, d in edges:
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(d, int)):
                raise InputError(f"edge ({u!r}, {v!r}, {d!r}) is not an integer triple")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if not (1 <= d <= delta):
                raise InputError(f"distance {d} out of range 1..{delta}")
            key = (u, v) if u < v else (v, u)
            if key in dist:
                raise InputError(f"duplicate distance for pair {key}")
            dist[key] = d
        self.n = n
        self.delta = delta
        self._dist = dist

    @classmethod
    def _checked(cls, n: int, delta: int, dist: dict[tuple[int, int], int]) -> "LabelledGraph":
        """A graph over a pair -> distance dict that its builder already
        validated: keys (u, v) with 0 <= u < v < n, values in 1..delta."""
        g = object.__new__(cls)
        g.n, g.delta, g._dist = n, delta, dist
        return g

    def get(self, u: int, v: int) -> int | None:
        """Distance between two distinct vertices, or None when unassigned."""
        return self._dist.get((u, v) if u < v else (v, u))

    def edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, self._dist[(u, v)]) for u, v in sorted(self._dist)]

    def edge_count(self) -> int:
        return len(self._dist)

    def pairs(self):
        return itertools.combinations(range(self.n), 2)

    def missing_pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in self.pairs() if (u, v) not in self._dist]

    def is_complete(self) -> bool:
        return len(self._dist) == self.n * (self.n - 1) // 2

    def __eq__(self, other):
        return (isinstance(other, LabelledGraph)
                and self.n == other.n and self.delta == other.delta
                and self._dist == other._dist)

    def __hash__(self):
        return hash((self.n, self.delta, tuple(sorted(self._dist.items()))))

    def __repr__(self):
        return f"LabelledGraph(n={self.n}, delta={self.delta}, edges={self.edges()})"

    def __getstate__(self):
        return (self.n, self.delta, self.edges())

    def __setstate__(self, state):
        n, delta, edges = state
        rebuilt = LabelledGraph(n, delta, edges)
        self.n = rebuilt.n
        self.delta = rebuilt.delta
        self._dist = rebuilt._dist


def fork_graph(a: int, b: int, delta: int) -> LabelledGraph:
    """Two-edge path 0-1-2 with labels a and b; the pair (0, 2) is missing."""
    return LabelledGraph(3, delta, [(0, 1, a), (1, 2, b)])


class TriangleBound(Enum):
    NON_METRIC = "NonMetric"
    K1 = "K1Bound"
    K2 = "K2Bound"
    C0 = "C0Bound"
    C1 = "C1Bound"


@dataclass(frozen=True)
class TriangleVerdict:
    violated: frozenset[TriangleBound]
    perimeter: int
    min_edge: int

    @property
    def allowed(self) -> bool:
        return not self.violated


def classify_triangle(p: ParameterTuple, a: int, b: int, c: int) -> TriangleVerdict:
    """Every bound the distance triple (a, b, c) violates, in any vertex order.

    The lower odd-perimeter bound is only reported for metric triples; a
    non-metric triple is already fully explained by its metric failure.  The
    remaining bounds are reported whenever their inequality fires, so a triple
    can violate several at once.
    """
    for x in (a, b, c):
        if not isinstance(x, int) or not 1 <= x <= p.delta:
            raise InputError(f"distance {x!r} out of range 1..{p.delta}")
    per = a + b + c
    mn = min(a, b, c)
    mx = max(a, b, c)
    odd = per % 2 == 1
    violated = set()
    if 2 * mx > per:
        violated.add(TriangleBound.NON_METRIC)
    elif odd and per < 2 * p.k1 + 1:
        violated.add(TriangleBound.K1)
    if odd and per >= 2 * p.k2 + 2 * mn:
        violated.add(TriangleBound.K2)
    if odd and per >= p.c1:
        violated.add(TriangleBound.C1)
    if not odd and per >= p.c0:
        violated.add(TriangleBound.C0)
    return TriangleVerdict(frozenset(violated), per, mn)


@lru_cache(maxsize=None)
def allowed_cube(p: ParameterTuple):
    """cube[a][b][c] is True when the triangle (a, b, c) is allowed.  1-based."""
    d = p.delta
    cube = [[[False] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            for c in range(1, d + 1):
                cube[a][b][c] = classify_triangle(p, a, b, c).allowed
    return cube


def triangle_allowed(p: ParameterTuple, a: int, b: int, c: int) -> bool:
    return allowed_cube(p)[a][b][c]


def is_member(p: ParameterTuple, g: LabelledGraph) -> bool:
    """Membership test for complete graphs: no triangle violates any bound."""
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    if not g.is_complete():
        raise InputError("membership is only defined for complete graphs")
    return next(scan_forbidden(p, g), None) is None


def label_matrix(g: LabelledGraph) -> list[list[int]]:
    """mat[u][v] is the distance of the pair (u, v); 0 where it is missing
    and on the diagonal."""
    mat = [[0] * g.n for _ in range(g.n)]
    for (u, v), d in g._dist.items():
        mat[u][v] = mat[v][u] = d
    return mat


def label_masks(g: LabelledGraph) -> list[list[int]]:
    """rows[d][u] has bit w set when g assigns distance d to the pair (u, w)."""
    rows = [[0] * g.n for _ in range(g.delta + 1)]
    for (u, v), d in g._dist.items():
        row = rows[d]
        row[u] |= 1 << v
        row[v] |= 1 << u
    return rows


@lru_cache(maxsize=None)
def _label_pairs(delta: int) -> tuple[tuple[int, int], ...]:
    # one set of pair objects per delta, shared by every tuple's lists below
    return tuple(itertools.product(range(1, delta + 1), repeat=2))


@lru_cache(maxsize=None)
def _forbidden_pairs(p: ParameterTuple) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry a lists the label pairs (b, c) with (a, b, c) forbidden.  1-based."""
    cube = allowed_cube(p)
    return ((),) + tuple(tuple(pair for pair in _label_pairs(p.delta)
                               if not cube[a][pair[0]][pair[1]])
                         for a in range(1, p.delta + 1))


def _forbidden_in(p: ParameterTuple, rows: list[list[int]], pairs,
                  first: bool = False) -> list[tuple[int, int, int]]:
    """The fully assigned forbidden triples u < v < w in sorted order, of the
    graph whose label masks are `rows` (as label_masks builds them) and whose
    labelled pairs ((u, v), distance), u < v, `pairs` lists in sorted order;
    with `first`, only the first one.  The caller sorts: the engine's
    completed graph comes out of its matrix in pair order already.

    For each assigned pair u < v labelled a, the third vertices w are the set
    bits of rows[b][u] & rows[c][v] over the forbidden (b, c) for a; only the
    bits above v are kept, so every triangle is found once, from its two
    smallest vertices.
    """
    forbidden = _forbidden_pairs(p)
    found = []
    for (u, v), a in pairs:
        hits = 0
        for b, c in forbidden[a]:
            hits |= rows[b][u] & rows[c][v]
        hits >>= v + 1
        if hits and first:
            return [(u, v, v + (hits & -hits).bit_length())]
        while hits:
            low = hits & -hits
            found.append((u, v, v + low.bit_length()))
            hits ^= low
    return found


def scan_forbidden(p: ParameterTuple, g: LabelledGraph):
    """Yield the fully assigned forbidden triples u < v < w of g in sorted order.

    The scan stops at the first triangle; only a caller that asks for more
    pays for the whole scan.
    """
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    rows = label_masks(g)
    pairs = sorted(g._dist.items())
    head = _forbidden_in(p, rows, pairs, first=True)
    yield from head
    if head:
        yield from _forbidden_in(p, rows, pairs)[1:]


def forbidden_triangles(p: ParameterTuple, g: LabelledGraph) -> list[tuple[int, int, int]]:
    """Sorted vertex triples of g that are fully assigned and forbidden."""
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    return _forbidden_in(p, label_masks(g), sorted(g._dist.items()))


def automorphisms(g: LabelledGraph, max_vertices: int = 9) -> list[tuple[int, ...]]:
    """All label-preserving vertex permutations, in lexicographic order.

    Depth-first over partial permutations: vertex i goes to the smallest
    unused image whose row of labels has the same multiset as i's and whose
    labels towards the images of 0..i-1 equal i's labels towards 0..i-1, so a
    mismatched pair prunes every extension of the prefix.
    """
    if g.n > max_vertices:
        raise ResourceLimitError(
            f"automorphism search on {g.n} vertices exceeds the budget of {max_vertices}")
    n = g.n
    mat = label_matrix(g)
    profiles = [sorted(row) for row in mat]
    candidates = [[x for x in range(n) if profiles[x] == profiles[i]] for i in range(n)]
    perm = [0] * n
    used = [False] * n
    out = []

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(perm))
            return
        row = mat[i]
        for x in candidates[i]:
            image = mat[x]
            if not used[x] and all(row[j] == image[perm[j]] for j in range(i)):
                perm[i] = x
                used[x] = True
                extend(i + 1)
                used[x] = False

    extend(0)
    return out


def is_automorphism(g: LabelledGraph, perm: tuple[int, ...]) -> bool:
    return all(g.get(u, v) == g.get(perm[u], perm[v]) for u, v in g.pairs())


@dataclass(frozen=True)
class LabelledCycle:
    """A cyclic sequence of at least three distances."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) < 3:
            raise InputError("a cycle needs at least three edges")
        for d in self.labels:
            if not isinstance(d, int) or d < 1:
                raise InputError(f"cycle label {d!r} is not a positive integer")

    def __len__(self):
        return len(self.labels)


def canonical_cycle(c: LabelledCycle) -> LabelledCycle:
    """Lexicographically smallest representative over rotation and reversal."""
    seq = c.labels
    n = len(seq)
    candidates = []
    for base in (seq, seq[::-1]):
        for i in range(n):
            candidates.append(base[i:] + base[:i])
    return LabelledCycle(min(candidates))


def cycle_to_graph(c: LabelledCycle, delta: int | None = None) -> LabelledGraph:
    """The cycle as a graph on len(c) vertices; all chords are missing."""
    if delta is None:
        delta = max(c.labels)
    n = len(c.labels)
    edges = [(i, (i + 1) % n, c.labels[i]) for i in range(n)]
    edges = [(min(u, v), max(u, v), d) for u, v, d in edges]
    return LabelledGraph(n, delta, edges)


def parse_cycle(text: str) -> LabelledCycle:
    """One whitespace-separated line of distances."""
    try:
        labels = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise InputError(f"cycle labels must be integers: {exc}") from None
    return LabelledCycle(labels)


def serialize_cycle(c: LabelledCycle) -> str:
    return " ".join(map(str, c.labels))


def parse_graph(text: str) -> LabelledGraph:
    """Parse the line-oriented graph format.

    First meaningful line: ``graph <n> <delta>``.  Each following line:
    ``e <u> <v> <d>``.  Blank lines and lines starting with ``#`` are skipped.
    Errors carry the offending line number.
    """
    n = delta = None
    dist: dict[tuple[int, int], int] = {}
    seen: dict[tuple[int, int], int] = {}  # pair -> line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "graph" or len(tokens) != 3:
                raise GraphParseError(line_no, f"expected 'graph <n> <delta>', got {line!r}")
            try:
                n, delta = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer header fields in {line!r}") from None
            if n < 0 or delta < 1:
                raise GraphParseError(line_no, f"invalid header values in {line!r}")
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {line_no}: {n} vertices exceed the budget of {MAX_VERTICES}")
            if delta > MAX_DELTA:
                raise ResourceLimitError(
                    f"line {line_no}: delta {delta} exceeds the budget of {MAX_DELTA}")
            continue
        if tokens[0] != "e" or len(tokens) != 4:
            raise GraphParseError(line_no, f"expected 'e <u> <v> <d>', got {line!r}")
        try:
            u, v, d = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:
            raise GraphParseError(line_no, f"non-integer edge fields in {line!r}") from None
        if u == v:
            raise GraphParseError(line_no, f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"vertex out of range in {line!r}")
        if not (1 <= d <= delta):
            raise GraphParseError(line_no, f"distance {d} out of range 1..{delta}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(
                line_no, f"duplicate distance for pair {key} (first set on line {seen[key]})")
        seen[key] = line_no
        dist[key] = d
    if n is None:
        raise GraphParseError(1, "missing 'graph <n> <delta>' header")
    return LabelledGraph._checked(n, delta, dist)


def serialize_graph(g: LabelledGraph) -> str:
    """Inverse of parse_graph; edges sorted by vertex pair, one per line."""
    lines = [f"graph {g.n} {g.delta}"]
    lines.extend(f"e {u} {v} {d}" for u, v, d in g.edges())
    return "\n".join(lines) + "\n"
