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
from typing import NamedTuple

from .errors import GraphParseError, InputError, ResourceLimitError
from .params import MAX_DELTA, ParameterTuple

# Largest vertex count of any graph.  Completion and the triangle scan visit
# every pair with n-bit neighbour masks, so their cost grows faster than n^2:
# `complete` on a sparse graph of this size (300 edges, delta 32) takes ~1 s,
# most of it in the rule passes.  A larger graph is refused with
# ResourceLimitError, and a graph file header is checked before any edge is
# read.
MAX_VERTICES = 1000

# Largest vertex count of an automorphism search, which can visit every permutation.
AUTOMORPHISM_BUDGET = 9

# str(i) for every vertex, vertex count, label and step number; the text
# writers index it instead of formatting each number, and parse_graph reads
# a canonical decimal token back through the reverse dict.
DECIMAL = tuple(map(str, range(MAX_VERTICES + 1)))
_DECIMAL_VALUE = {text: i for i, text in enumerate(DECIMAL)}


class LabelledGraph:
    """A finite graph whose edges carry distances in 1..delta; pairs may be absent.

    The graph is its label matrix: _mat[u][v] == _mat[v][u] is the distance
    of the pair (u, v), 0 where it is missing and on the diagonal, held as a
    tuple of n tuples so that the graph is immutable and hashable.
    """

    __slots__ = ("n", "delta", "_mat")

    def __init__(self, n: int, delta: int, edges=()):
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a non-negative integer, got {n!r}")
        if type(delta) is not int or delta < 1:
            raise InputError(f"delta must be a positive integer, got {delta!r}")
        if n > MAX_VERTICES:
            raise ResourceLimitError(f"{n} vertices exceed the budget of {MAX_VERTICES}")
        if delta > MAX_DELTA:
            raise ResourceLimitError(f"delta {delta} exceeds the budget of {MAX_DELTA}")
        mat = [[0] * n for _ in range(n)]
        for u, v, d in edges:
            if not (type(u) is int and type(v) is int and type(d) is int):
                raise InputError(f"edge ({u!r}, {v!r}, {d!r}) is not an integer triple")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if not (1 <= d <= delta):
                raise InputError(f"distance {d} out of range 1..{delta}")
            if mat[u][v]:
                raise InputError(f"duplicate distance for pair {(u, v) if u < v else (v, u)}")
            mat[u][v] = mat[v][u] = d
        self.n = n
        self.delta = delta
        self._mat = tuple(map(tuple, mat))

    @classmethod
    def _of(cls, delta: int, mat) -> "LabelledGraph":
        """The graph over a label matrix that its builder already validated:
        n symmetric rows of n entries in 0..delta, 0 on the diagonal."""
        g = object.__new__(cls)
        g.n, g.delta, g._mat = len(mat), delta, tuple(map(tuple, mat))
        return g

    def get(self, u: int, v: int) -> int | None:
        """Distance between two distinct vertices, or None when unassigned or
        when either is not a vertex of the graph."""
        if 0 <= u < self.n and 0 <= v < self.n:
            return self._mat[u][v] or None
        return None

    def edges(self) -> list[tuple[int, int, int]]:
        """(u, v, distance) per labelled pair u < v, in sorted order."""
        n = self.n
        return [(u, v, row[v]) for u, row in enumerate(self._mat)
                for v in range(u + 1, n) if row[v]]

    def pairs(self):
        return itertools.combinations(range(self.n), 2)

    def missing_pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._mat)
                for v in range(u + 1, self.n) if not row[v]]

    def is_complete(self) -> bool:
        return all(row.count(0) == 1 for row in self._mat)

    def __eq__(self, other):
        return (isinstance(other, LabelledGraph)
                and self.delta == other.delta and self._mat == other._mat)

    def __hash__(self):
        return hash((self.delta, self._mat))

    def __repr__(self):
        return f"LabelledGraph(n={self.n}, delta={self.delta}, edges={self.edges()})"

    def __getstate__(self):
        return (self.n, self.delta, self.edges())

    def __setstate__(self, state):
        rebuilt = LabelledGraph(*state)
        self.n, self.delta, self._mat = rebuilt.n, rebuilt.delta, rebuilt._mat


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


def _check_labels(p: ParameterTuple, labels) -> None:
    for x in labels:
        if type(x) is not int or not 1 <= x <= p.delta:
            raise InputError(f"distance {x!r} out of range 1..{p.delta}")


def classify_triangle(p: ParameterTuple, a: int, b: int, c: int) -> TriangleVerdict:
    """Every bound the distance triple (a, b, c) violates, in any vertex order.

    The lower odd-perimeter bound is only reported for metric triples; a
    non-metric triple is already fully explained by its metric failure.  The
    remaining bounds are reported whenever their inequality fires, so a triple
    can violate several at once.
    """
    _check_labels(p, (a, b, c))
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
def allowed_masks(p: ParameterTuple) -> tuple[tuple[int, ...], ...]:
    """masks[a][b] has bit c set when the triangle (a, b, c) is allowed, 1-based; a
    missing side (label 0) allows every c.  classify_triangle's bounds in closed form:
    for a <= b the metric c run from b - a to a + b, and min(a, b, c) is min(a, c)."""
    d, k1, k2, c0, c1 = p.key()
    every = (1 << (d + 1)) - 2
    masks = [[every] * (d + 1) for _ in range(d + 1)]
    for a in range(1, d + 1):
        for b in range(a, d + 1):
            mask = 0
            for c in range(max(b - a, 1), min(a + b, d) + 1):
                per = a + b + c
                if per % 2 == 0:  # C0 caps an even perimeter
                    mask |= (per < c0) << c
                elif 2 * k1 < per < c1 and per < 2 * k2 + 2 * min(a, c):  # K1, C1, K2
                    mask |= 1 << c
            masks[a][b] = masks[b][a] = mask
    return tuple(map(tuple, masks))


def triangle_allowed(p: ParameterTuple, a: int, b: int, c: int) -> bool:
    """One bit of allowed_masks; InputError for a label outside 1..delta."""
    _check_labels(p, (a, b, c))
    return bool(allowed_masks(p)[a][b] >> c & 1)


def is_member(p: ParameterTuple, g: LabelledGraph) -> bool:
    """Membership test for complete graphs: no triangle violates any bound."""
    found = first_forbidden(p, g)  # refuses a graph of another delta first
    if not g.is_complete():
        raise InputError("membership is only defined for complete graphs")
    return found is None


@lru_cache(maxsize=None)
def _label_pairs(delta: int) -> tuple[tuple[int, int], ...]:
    # one set of pair objects per delta, shared by every tuple's lists below
    return tuple(itertools.product(range(1, delta + 1), repeat=2))


# counts that send every pair to the lookup scan
_LOOKUP_ONLY = (MAX_VERTICES,) * (MAX_DELTA + 1)


class _ScanTables(NamedTuple):
    """The forbidden-triangle scan's per-tuple tables, 1-based."""

    # the label pairs (b, c) with (a, b, c) forbidden, per label a
    forbidden: tuple[tuple[tuple[int, int], ...], ...]
    # len(forbidden[a]), per label a
    counts: tuple[int, ...]
    # bad[a][b] has bit c set when (a, b, c) is forbidden; entry 0 stands
    # for a missing side and is never forbidden
    bad: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _scan_tables(p: ParameterTuple) -> _ScanTables:
    """The scan tables of the tuple p, read off allowed_masks(p)."""
    masks = allowed_masks(p)
    bad = tuple(tuple(masks[0][0] & ~m if a and b else 0 for b, m in enumerate(row))
                for a, row in enumerate(masks))
    forbidden = ((),) + tuple(tuple(pair for pair in _label_pairs(p.delta)
                                    if bad_a[pair[0]] >> pair[1] & 1)
                              for bad_a in bad[1:])
    return _ScanTables(forbidden, tuple(map(len, forbidden)), bad)


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, in increasing order.
    A mask of a few bits is taken apart bit by bit; a longer one is read
    off its binary digits from the lowest set bit up, which costs less per
    bit but more per call.  Below 8 set bits the bit loop is the faster of
    the two on masks 10 to 1000 bits wide; at 10 set bits it is slower on
    10-bit masks, and from 24 on 80-bit ones."""
    if mask.bit_count() < 8:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    low = (mask & -mask).bit_length() - 1
    return [i for i, digit in enumerate(bin(mask >> low)[:1:-1], low) if digit == "1"]


def _forbidden_in(tables: _ScanTables, rows, mat, magic: int = 0,
                  first: bool = False) -> list[tuple[int, int, int]]:
    """(u, v, hits) per pair u < v, in sorted order, that closes a fully
    assigned forbidden triangle of the graph whose label matrix is `mat` (as
    LabelledGraph holds it): bit w of hits is set when (u, v, w) is forbidden,
    and only bits w > v are.  `rows` are the graph's label masks (rows[d][u]
    has bit w set when the pair (u, w) has distance d), or None; `tables` is
    _scan_tables of the tuple.  With `first`, only the first pair, with only
    its smallest w.

    Every triangle is found once, from its two smallest vertices u < v, as a
    third vertex w > v.  For a pair labelled a, the scan pays the cheaper of
    two ways to find those w:

    - one lookup per w, bad[a][mat[u][w]] >> mat[v][w] & 1, when there are
      no more vertices above v than forbidden label pairs of a, or when
      `rows` is None;
    - otherwise the set bits above v of rows[c][v] & B[c], ORed over the
      labels c, where B[c] ORs rows[b][u] over the forbidden (b, c) for a;
      the B[c] of a label a are worked out once per vertex u.

    A nonzero `magic` M, given with the rows, skips a pair labelled M when
    every w above v has the label M towards u or towards v: every triangle
    with two sides M is allowed for an eligible M, which the step table
    checks.
    """
    forbidden, counts, bad = tables
    n = len(mat)
    if rows is None:
        counts, magic = _LOOKUP_ONLY, 0
    elif magic:
        # other[u]: the vertices w whose pair with u is not labelled M; its
        # bit u is set too, but a pair (u, v) reads only the bits above v
        full = (1 << n) - 1
        other = [full ^ row for row in rows[magic]]
    last = n - 1
    found = []
    append = found.append
    for u, mu in enumerate(mat):
        terms_of = [None] * len(forbidden)  # per label a: (rows[c], B[c]) for B[c] != 0
        for v in range(u + 1, n):
            a = mu[v]
            if not a:
                continue
            if a == magic and not (other[u] & other[v]) >> (v + 1):
                continue  # each w above v has an M side towards u or v
            if last - v <= counts[a]:
                bad_a, mv = bad[a], mat[v]
                hits = 0
                for w in range(v + 1, n):
                    if bad_a[mu[w]] >> mv[w] & 1:
                        if first:
                            return [(u, v, 1 << w)]
                        hits |= 1 << w
                if hits:
                    append((u, v, hits))
                continue
            terms = terms_of[a]
            if terms is None:
                by_c = {}
                for b, c in forbidden[a]:
                    if rows[b][u]:
                        by_c[c] = by_c.get(c, 0) | rows[b][u]
                terms = terms_of[a] = [(rows[c], mask) for c, mask in by_c.items()]
            hits = 0
            for row, mask in terms:
                hits |= row[v] & mask
            hits &= -(2 << v)
            if hits:
                if first:
                    return [(u, v, hits & -hits)]
                append((u, v, hits))
    return found


def _triangles(found) -> list[tuple[int, int, int]]:
    """The triangles (u, v, w) of _forbidden_in's list, in sorted order."""
    return [(u, v, w) for u, v, hits in found for w in _set_bits(hits)]


def _first_triangle(found) -> tuple[int, int, int] | None:
    """The first triangle of _forbidden_in's list, or None."""
    if not found:
        return None
    u, v, hits = found[0]
    return u, v, (hits & -hits).bit_length() - 1


def _scan_tables_of(p: ParameterTuple, g: LabelledGraph) -> _ScanTables:
    """_scan_tables(p), for a graph g of p's delta."""
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    return _scan_tables(p)


def first_forbidden(p: ParameterTuple, g: LabelledGraph) -> tuple[int, int, int] | None:
    """The first fully assigned forbidden triple u < v < w of g in sorted
    order, or None; the scan stops there."""
    return _first_triangle(_forbidden_in(_scan_tables_of(p, g), None, g._mat, first=True))


def forbidden_triangles(p: ParameterTuple, g: LabelledGraph) -> list[tuple[int, int, int]]:
    """Sorted vertex triples of g that are fully assigned and forbidden."""
    return _triangles(_forbidden_in(_scan_tables_of(p, g), None, g._mat))


def automorphisms(g: LabelledGraph) -> list[tuple[int, ...]]:
    """All label-preserving vertex permutations, in lexicographic order;
    vertex i only goes to a vertex whose row of labels has the same multiset
    as i's."""
    if g.n > AUTOMORPHISM_BUDGET:
        raise ResourceLimitError(
            f"automorphism search on {g.n} vertices exceeds the budget of {AUTOMORPHISM_BUDGET}")
    profiles = [sorted(row) for row in g._mat]
    return _label_maps(g, g, [[x for x, other in enumerate(profiles) if other == profile]
                              for profile in profiles])


def _label_maps(a: LabelledGraph, b: LabelledGraph,
                candidates) -> list[tuple[int, ...]]:
    """All injections of a's vertices into b's that keep every label and send
    each vertex i to one of candidates[i], in lexicographic order; each
    candidates[i] lists its vertices in increasing order.

    Depth-first over partial maps: vertex i goes to each unused candidate
    whose labels towards the images of 0..i-1 equal i's labels towards
    0..i-1, so a mismatched pair prunes every extension of the prefix.
    """
    n = a.n
    ma, mb = a._mat, b._mat
    perm = [0] * n
    used = [False] * b.n
    out = []

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(perm))
            return
        row = ma[i]
        for x in candidates[i]:
            image = mb[x]
            if not used[x] and all(row[j] == image[perm[j]] for j in range(i)):
                perm[i] = x
                used[x] = True
                extend(i + 1)
                used[x] = False

    extend(0)
    # extend refers to itself through its closure; unbinding it frees the
    # graphs' rows now instead of at the next cycle collection
    del extend
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
            if type(d) is not int or d < 1:
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
    return LabelledGraph(n, delta, [(i, (i + 1) % n, c.labels[i]) for i in range(n)])


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

    Each line is split once; a canonical decimal field is read from
    DECIMAL's reverse dict, and any other form int() accepts (``07``,
    ``+3``, ``1_0``, non-ASCII digits) through int().
    """
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != "graph" or len(tokens) != 3:
            raise GraphParseError(line_no, f"expected 'graph <n> <delta>', got {raw.strip()!r}")
        try:
            n, delta = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise GraphParseError(
                line_no, f"non-integer header fields in {raw.strip()!r}") from None
        if n < 0 or delta < 1:
            raise GraphParseError(line_no, f"invalid header values in {raw.strip()!r}")
        if n > MAX_VERTICES:
            raise ResourceLimitError(
                f"line {line_no}: {n} vertices exceed the budget of {MAX_VERTICES}")
        if delta > MAX_DELTA:
            raise ResourceLimitError(
                f"line {line_no}: delta {delta} exceeds the budget of {MAX_DELTA}")
        break
    else:
        raise GraphParseError(1, "missing 'graph <n> <delta>' header")
    value = _DECIMAL_VALUE.get
    mat = [[0] * n for _ in range(n)]
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != "e" or len(tokens) != 4:
            raise GraphParseError(line_no, f"expected 'e <u> <v> <d>', got {raw.strip()!r}")
        _, su, sv, sd = tokens
        u, v, d = value(su), value(sv), value(sd)
        if u is None or v is None or d is None:
            try:
                u, v, d = int(su), int(sv), int(sd)
            except ValueError:
                raise GraphParseError(
                    line_no, f"non-integer edge fields in {raw.strip()!r}") from None
        if u == v:
            raise GraphParseError(line_no, f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"vertex out of range in {raw.strip()!r}")
        if not (1 <= d <= delta):
            raise GraphParseError(line_no, f"distance {d} out of range 1..{delta}")
        if mat[u][v]:
            key = (u, v) if u < v else (v, u)
            raise GraphParseError(line_no, f"duplicate distance for pair {key} "
                                           f"(first set on line {_first_line_of(text, key)})")
        mat[u][v] = mat[v][u] = d
    return LabelledGraph._of(delta, mat)


def _first_line_of(text: str, key: tuple[int, int]) -> int:
    """The number of the first edge line of a graph text that sets the pair
    `key`; every edge line before the duplicate one has parsed."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens[:1] == ["e"] and sorted(map(int, tokens[1:3])) == list(key):
            return line_no


def serialize_graph(g: LabelledGraph) -> str:
    """Inverse of parse_graph; edges sorted by vertex pair, one per line."""
    text = DECIMAL
    lines = [f"graph {g.n} {g.delta}"]
    lines.extend([f"e {text[u]} {text[v]} {text[d]}" for u, row in enumerate(g._mat)
                  for v, d in enumerate(row[u + 1:], u + 1) if d])
    return "\n".join(lines) + "\n"
