"""Staged completion of partial graphs around a magic distance.

Each distance value x other than the magic value M owns a set of forks: an
unordered pair of labels (a, b) such that a path u-w-v labelled a, b forces
the pair (u, v) to distance x.  Small values (x < M) are forced by sum forks
(a + b = x) and by cap forks (a + b = C - 1 - x); large values (x > M) by
difference forks (|a - b| = x).  Values run in increasing time-function
order, every pass is simultaneous, and whatever survives all passes becomes
M.  The result is scanned for forbidden triangles and certified either way.

The engine keeps, for each label d and vertex u, the bitmask rows[d][u] of
the vertices at distance d from u.  A pass ORs rows[a][u] & rows[b][v] over
the rule's forks (a, b) for every missing pair (u, v), and the lowest set bit
is the witness.  Forks with a label that no pair carries yet have all-zero
rows, so a pass skips them, and a pass with no other fork scans nothing.
The check that the pass left no new match re-scans only the forks with the
target label: a pair that had no witness before the pass can only gain one
through an edge the pass added, and all of those carry the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .params import ParameterTuple, eligible_magic
from .space import DECIMAL, LabelledGraph, _forbidden_in, _scan_tables

FAMILY_PLUS = "plus"
FAMILY_MINUS = "minus"
FAMILY_CBOUND = "cbound"
FAMILY_FINAL = "final-M"
FAMILY_INPUT = "input"
_DERIVED = (FAMILY_PLUS, FAMILY_MINUS, FAMILY_CBOUND)


def time_of(x: int, magic: int, delta: int) -> int:
    """Scheduling time of a non-magic target distance."""
    if x == magic or not 1 <= x <= delta:
        raise InputError(f"no scheduled time for distance {x} with magic {magic}")
    return 2 * x - 1 if x < magic else 2 * (delta - x)


@lru_cache(maxsize=None, typed=True)
def _steps(p: ParameterTuple,
           magic: int) -> tuple[tuple[int, int, dict[tuple[int, int], str]], ...]:
    """The rule passes for an admissible tuple and an eligible magic value:
    (step, target, forks) in step order, the step being the target's time.
    forks maps each fork (a, b) of the target, in both orientations, to its
    family; (a, b) matches a path u-w-v with d(u, w) = a and d(w, v) = b.
    No fork is both a sum and a cap fork: that needs x = C - 1 - x, and
    x < M <= (C - delta - 1) / 2.
    This is the one gate for a (tuple, magic) pair: an inadmissible tuple,
    then an ineligible or non-int magic value, raises, and raising calls are
    not cached.  typed=True keeps 3.0 from finding the steps of 3."""
    if magic not in eligible_magic(p) or type(magic) is not int:
        raise InputError(f"{magic} is not an eligible magic distance for {p.key()}")
    delta, c = p.delta, p.c
    labels = range(1, delta + 1)
    steps = []
    for x in labels:
        if x == magic:
            continue
        if x < magic:
            forks = [((a, total - a), family) for total, family
                     in ((x, FAMILY_PLUS), (c - 1 - x, FAMILY_CBOUND))
                     for a in labels if 1 <= total - a <= delta]
        else:
            forks = [(fork, FAMILY_MINUS) for a in range(1, delta + 1 - x)
                     for fork in ((a, a + x), (a + x, a))]
        steps.append((time_of(x, magic, delta), x, dict(sorted(forks))))
    if len({step for step, _, _ in steps}) != len(steps):
        raise InvariantViolation(f"time collision in schedule for {p.key()} M={magic}")
    return tuple(sorted(steps, key=lambda entry: entry[0]))


class TraceRecord(NamedTuple):
    """How one pair got its distance.  step/witness are None for input and
    final-M records.  A tuple, so a record equals the plain tuple of its
    fields."""

    step: int | None
    pair: tuple[int, int]
    value: int
    witness: int | None
    family: str


@dataclass(frozen=True)
class CompletionTrace:
    params: ParameterTuple
    magic: int
    records: tuple[TraceRecord, ...]

    def by_pair(self) -> dict[tuple[int, int], TraceRecord]:
        return {record.pair: record for record in self.records}


@dataclass(frozen=True)
class CompletionOutcome:
    completed: LabelledGraph
    trace: CompletionTrace
    completable: bool
    forbidden_triangles: tuple[tuple[int, int, int], ...]


def _set_bits(mask: int):
    """Positions of the set bits of a non-negative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Masks:
    """A partial graph under completion as per-label neighbour bitmasks.

    rows[d][u] has bit w set when the pair (u, w) has distance d; known[u]
    has bit w set when (u, w) has any distance, and always bit u itself.
    mat is a mutable copy of the graph's label matrix, which the completed
    graph wraps in the end; present has bit d set when some pair has
    distance d.
    """

    def __init__(self, g: LabelledGraph):
        n = self.n = g.n
        rows = self.rows = [[0] * n for _ in range(g.delta + 1)]
        known = self.known = [1 << u for u in range(n)]
        self.mat = list(map(list, g._mat))
        present = 0
        for u, line in enumerate(g._mat):
            for v in range(u + 1, n):
                d = line[v]
                if d:
                    row = rows[d]
                    row[u] |= 1 << v
                    row[v] |= 1 << u
                    known[u] |= 1 << v
                    known[v] |= 1 << u
                    present |= 1 << d
        self.present = present

    def free(self, u: int) -> int:
        """Mask of the vertices v > u whose pair with u is unassigned."""
        return ((1 << self.n) - 1) & ~self.known[u] & ~((1 << u) - 1)

    def witnesses(self, forks):
        """(u, v, mask) per unassigned pair u < v, in increasing order, whose
        mask of vertices w closing a fork (a, b) -- d(u, w) = a and
        d(w, v) = b -- is not empty."""
        if not forks:
            return
        rows = self.rows
        for u in range(self.n):
            free = self.free(u)
            if not free:
                continue
            left = [(rows[a][u], rows[b]) for a, b in forks if rows[a][u]]
            for v in _set_bits(free if left else 0):
                hits = 0
                for mask, row in left:
                    hits |= mask & row[v]
                if hits:
                    yield u, v, hits

    def assign(self, u: int, v: int, d: int) -> None:
        self.mat[u][v] = self.mat[v][u] = d
        row = self.rows[d]
        row[u] |= 1 << v
        row[v] |= 1 << u
        self.known[u] |= 1 << v
        self.known[v] |= 1 << u
        self.present |= 1 << d


def _apply_rule(masks: _Masks, target: int, forks) -> list[tuple[int, int, int, str]]:
    """One simultaneous pass of the rule for `target` over the masks, which
    are updated in place; `forks` maps each fork, oriented both ways, to its
    family.

    Returns (u, v, witness, family) per assignment; the witness is the
    smallest vertex closing a fork.  A fork with a label that no pair carries
    has all-zero rows and cannot match, so only the others are scanned.
    Re-scanning must find no further match: a new edge feeding a fork of its
    own rule would make the single simultaneous pass insufficient, which the
    staging is meant to exclude, so that is checked every step.
    """
    present = masks.present
    live = [(a, b) for a, b in forks if present >> a & 1 and present >> b & 1]
    if not live:
        return []
    mat = masks.mat
    found = []
    for u, v, hits in masks.witnesses(live):
        w = (hits & -hits).bit_length() - 1
        found.append((u, v, w, forks[mat[u][w], mat[v][w]]))
    if not found:
        return found
    for u, v, _, _ in found:
        masks.assign(u, v, target)
    # A pair still free had no witness before the pass, so a witness it has
    # now uses a new edge, and every new edge carries the target: only forks
    # with the target label can match.  They come from all of `forks`, since
    # the pass itself can make the target present.  The magic-distance bounds
    # keep a scheduled rule's target out of its own forks, so this list is
    # empty but for hand-built rules.
    again = [fork for fork in forks if target in fork]
    for u, v, _ in masks.witnesses(again):
        raise InvariantViolation(
            f"cascade within one pass: pair ({u}, {v}) matches target "
            f"{target} only after this step's assignments")
    return found


def magic_complete(p: ParameterTuple, magic: int, g: LabelledGraph) -> CompletionOutcome:
    """Run the staged completion and certify the result.

    Only admissible tuples and their eligible magic values are accepted,
    which _steps checks; the certificate Completable / Uncompletable is only
    meaningful for them.
    """
    steps = _steps(p, magic)
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    masks = _Masks(g)
    # tuple.__new__ skips the NamedTuple constructor's keyword handling
    new = tuple.__new__
    records = [new(TraceRecord, (None, (u, v), d, None, FAMILY_INPUT))
               for u, v, d in g.edges()]
    for step, target, forks in steps:
        for u, v, w, family in _apply_rule(masks, target, forks):
            records.append(new(TraceRecord, (step, (u, v), target, w, family)))
    # final fill: one OR per vertex; known[v] would only gain bits free() ignores
    fill, known, mat = masks.rows[magic], masks.known, masks.mat
    for u in range(g.n):
        free = masks.free(u)
        fill[u] |= free
        known[u] |= free
        for v in _set_bits(free):
            fill[v] |= 1 << u
            mat[u][v] = mat[v][u] = magic
            records.append(new(TraceRecord, (None, (u, v), magic, None, FAMILY_FINAL)))
    completed = LabelledGraph._of(g.delta, mat)
    bad = tuple(_forbidden_in(_scan_tables(p), masks.rows, completed._mat))
    trace = CompletionTrace(p, magic, tuple(records))
    return CompletionOutcome(completed, trace, not bad, bad)


# DECIMAL keyed by number: a number outside the table raises KeyError here,
# where a negative index into the tuple would read its other end
_DECIMAL_OF = dict(enumerate(DECIMAL))


class _AnyNumber:
    """str() of any number, indexed like DECIMAL."""

    def __getitem__(self, number) -> str:
        return str(number)


def serialize_trace(trace: CompletionTrace) -> str:
    """Text form of a trace: header, step records, then the final fill.
    Numbers are written through DECIMAL, which holds every number an engine
    trace does; a hand-built trace with any other number (negative, above
    MAX_VERTICES, or a None step) is written with str() throughout."""
    try:
        return _trace_text(trace, _DECIMAL_OF)
    except (KeyError, TypeError):  # TypeError: a number that does not hash
        return _trace_text(trace, _AnyNumber())


def _trace_text(trace: CompletionTrace, text) -> str:
    p = trace.params
    lines = [f"magic M={trace.magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
    finals = []
    for step, (u, v), value, witness, family in trace.records:
        if family == FAMILY_FINAL:
            finals.append(f"final {text[u]} {text[v]} = {text[value]}")
        elif family in _DERIVED:
            lines.append(f"step {text[step]} set {text[u]} {text[v]} = {text[value]} "
                         f"witness {text[witness]} via {family}")
    lines.extend(finals)
    return "\n".join(lines) + "\n"


def shortest_path_complete(delta: int, g: LabelledGraph) -> LabelledGraph:
    """All-pairs shortest paths capped at delta; disconnected pairs get delta.

    Independent of the staged engine.  The result can disagree with the input
    on an edge exactly when the input contains a non-metric cycle.
    """
    if g.delta != delta:
        raise InputError(f"graph delta {g.delta} differs from requested delta {delta}")
    rows = _Masks(g).rows
    # within[k][u]: the vertices whose shortest path from u is at most k long;
    # a path of length at most k starts with an edge u-w of some label d <= k
    # and continues within k - d of w.
    within = [[1 << u for u in range(g.n)]]
    for k in range(1, delta):
        layer = list(within[-1])
        for u in range(g.n):
            for d in range(1, k + 1):
                for w in _set_bits(rows[d][u]):
                    layer[u] |= within[k - d][w]
        within.append(layer)
    mat = [[0] * g.n for _ in range(g.n)]
    for u, v in itertools.combinations(range(g.n), 2):
        mat[u][v] = mat[v][u] = next((k for k in range(1, delta) if within[k][u] >> v & 1), delta)
    return LabelledGraph._of(delta, mat)
