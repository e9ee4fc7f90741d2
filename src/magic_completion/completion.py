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
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .params import ParameterTuple, eligible_magic
from .space import (DECIMAL, LabelledGraph, _forbidden_in, _scan_tables, _set_bits,
                    _triangles, allowed_masks)

FAMILY_PLUS = "plus"
FAMILY_MINUS = "minus"
FAMILY_CBOUND = "cbound"
FAMILY_FINAL = "final-M"
FAMILY_INPUT = "input"
_DERIVED = (FAMILY_PLUS, FAMILY_MINUS, FAMILY_CBOUND)


def time_of(x: int, magic: int, delta: int) -> int:
    """Scheduling time of a non-magic target distance."""
    if type(x) is not int or x == magic or not 1 <= x <= delta:
        raise InputError(f"no scheduled time for distance {x!r} with magic {magic}")
    return 2 * x - 1 if x < magic else 2 * (delta - x)


def _steps(p: ParameterTuple,
           magic: int) -> tuple[tuple[int, int, dict[tuple[int, int], str]], ...]:
    """The rule passes for an admissible tuple and an eligible magic value:
    (step, target, forks) in step order, the step being the target's time.
    forks maps each fork (a, b) of the target, in both orientations, to its
    family; (a, b) matches a path u-w-v with d(u, w) = a and d(w, v) = b.
    No fork is both a sum and a cap fork: that needs x = C - 1 - x, and
    x < M <= (C - delta - 1) / 2.
    This is the one gate for a (tuple, magic) pair: an inadmissible tuple,
    then an ineligible or non-int magic value, raises before the table's
    cache sees the value, so 3.0 and an unhashable value are refused too."""
    eligible = eligible_magic(p)
    if type(magic) is not int or magic not in eligible:
        raise InputError(f"{magic} is not an eligible magic distance for {p.key()}")
    return _step_table(p, magic)


@lru_cache(maxsize=None)
def _step_table(p: ParameterTuple,
                magic: int) -> tuple[tuple[int, int, dict[tuple[int, int], str]], ...]:
    """_steps for a pair that it has accepted."""
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
    # the engine's scan skips every triangle with two sides M
    masks = allowed_masks(p)
    if masks[magic][magic] != masks[0][0]:
        raise InvariantViolation(f"a triangle with two sides {magic} is forbidden for {p.key()}")
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
    """What one run decided: the input graph, the derived records in step
    order, and final[u], whose bit v > u is set when the final fill gave the
    pair (u, v) the magic value."""

    params: ParameterTuple
    magic: int
    graph: LabelledGraph
    derived: tuple[TraceRecord, ...]
    final: tuple[int, ...]

    def __post_init__(self):
        # every reader walks the set bits of each mask, which never ends for
        # a negative int
        for mask in self.final:
            if type(mask) is not int or mask < 0:
                raise InputError(f"final mask {mask!r} is not a non-negative integer")

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """Every pair's record: the input pairs, the derived records, then
        the final fill, each in pair order.  Nothing in the package reads
        it; the benchmark's tracer counts derived and final-M edges from it."""
        magic = self.magic
        return (*[TraceRecord(None, (u, v), d, None, FAMILY_INPUT)
                  for u, v, d in self.graph.edges()],
                *self.derived,
                *[TraceRecord(None, (u, v), magic, None, FAMILY_FINAL)
                  for u, mask in enumerate(self.final) for v in _set_bits(mask)])


@dataclass(frozen=True)
class CompletionOutcome:
    """A run's completed graph, trace and certificate.  forbidden_hits holds
    (u, v, hits) per pair u < v that closes a forbidden triangle, in sorted
    order, with bit w of hits set when (u, v, w) is one."""

    completed: LabelledGraph
    trace: CompletionTrace
    completable: bool
    forbidden_hits: tuple[tuple[int, int, int], ...]

    @cached_property
    def forbidden_triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The forbidden triangles (u, v, w), u < v < w, in sorted order."""
        return tuple(_triangles(self.forbidden_hits))


def _label_rows(g: LabelledGraph) -> list[list[int]]:
    """rows[d][u] has bit w set when g gives the pair (u, w) distance d;
    rows[0] stays empty."""
    rows = [[0] * g.n for _ in range(g.delta + 1)]
    for u, v, d in g.edges():
        rows[d][u] |= 1 << v
        rows[d][v] |= 1 << u
    return rows


def _matches(rows, known, forks) -> list[tuple[int, int, int]]:
    """(u, v, w) per unassigned pair u < v, in increasing order, that a fork
    (a, b) of `forks` closes -- d(u, w) = a and d(w, v) = b -- with w the
    smallest such vertex.  rows are _label_rows' masks; known[u] has bit w
    set when (u, w) has a distance, and always bit u itself."""
    if not forks:
        return []
    n = len(known)
    found = []
    for u in range(n):
        free = ((1 << n) - 1) & ~known[u] & ~((1 << u) - 1)
        if not free:
            continue
        left = [(rows[a][u], rows[b]) for a, b in forks if rows[a][u]]
        for v in _set_bits(free if left else 0):
            hits = 0
            for mask, row in left:
                hits |= mask & row[v]
            if hits:
                found.append((u, v, (hits & -hits).bit_length() - 1))
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
    n = g.n
    # rows and known as _matches reads them; mat is the label matrix that the
    # completed graph wraps; present has bit d set when some pair has distance d
    rows = _label_rows(g)
    known = [sum(column, 1 << u) for u, column in enumerate(zip(*rows))]
    mat = list(map(list, g._mat))
    present = sum(1 << d for d, row in enumerate(rows) if any(row))
    # tuple.__new__ skips the NamedTuple constructor's keyword handling
    new = tuple.__new__
    derived = []
    for step, target, forks in steps:
        # one simultaneous pass: every match is found before any assignment.
        # A fork with a label that no pair carries has all-zero rows and
        # cannot match, so only the others are scanned.
        found = _matches(rows, known, [(a, b) for a, b in forks
                                       if present >> a & 1 and present >> b & 1])
        if not found:
            continue
        row = rows[target]
        for u, v, w in found:
            # the pass assigns only unknown pairs, so w's two labels are
            # those from before the pass
            derived.append(new(TraceRecord, (step, (u, v), target, w,
                                             forks[mat[u][w], mat[v][w]])))
            mat[u][v] = mat[v][u] = target
            row[u] |= 1 << v
            row[v] |= 1 << u
            known[u] |= 1 << v
            known[v] |= 1 << u
        present |= 1 << target
        # Re-scanning must find no further match: a new edge feeding a fork
        # of its own rule would make the single simultaneous pass
        # insufficient, which the staging is meant to exclude.  A pair still
        # free had no witness before the pass, so a witness it has now uses a
        # new edge, and every new edge carries the target: only forks with
        # the target label can match.  They come from all of `forks`, since
        # the pass itself can make the target present.  The magic-distance
        # bounds keep a scheduled rule's target out of its own forks, so this
        # list is empty but for hand-built rules.
        for u, v, _ in _matches(rows, known, [fork for fork in forks if target in fork]):
            raise InvariantViolation(
                f"cascade within one pass: pair ({u}, {v}) matches target "
                f"{target} only after this step's assignments")
    # final fill: one OR per vertex and one pass over its matrix row.  known
    # is symmetric, so a vertex's free mask holds its free pairs on both
    # sides; final keeps the ones above it.  known is not read again.
    fill = rows[magic]
    final = []
    for u, row in enumerate(mat):
        free = ((1 << n) - 1) & ~known[u]
        if free:
            fill[u] |= free
            mat[u] = [d or magic for d in row]
            mat[u][u] = 0
        final.append(free & -(2 << u))
    completed = LabelledGraph._of(g.delta, mat)
    hits = tuple(_forbidden_in(_scan_tables(p), rows, completed._mat, magic))
    trace = CompletionTrace(p, magic, g, tuple(derived), tuple(final))
    return CompletionOutcome(completed, trace, not hits, hits)


# DECIMAL keyed by number: a number outside the table raises KeyError here,
# where a negative index into the tuple would read its other end
_DECIMAL_OF = dict(enumerate(DECIMAL))


def serialize_trace(trace: CompletionTrace) -> str:
    """Text form of a trace: header, step records, then the final fill.
    Numbers are written through DECIMAL, which holds every number an engine
    trace does; a hand-built trace with any other number (negative, above
    MAX_VERTICES, or a None step) is refused with InputError."""
    text, p = _DECIMAL_OF, trace.params
    lines = [f"magic M={trace.magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
    try:
        lines.extend([f"step {text[step]} set {text[u]} {text[v]} = {text[value]} "
                      f"witness {text[witness]} via {family}"
                      for step, (u, v), value, witness, family in trace.derived])
        tail = f" = {text[trace.magic]}"
        lines.extend([f"final {text[u]} {text[v]}{tail}"
                      for u, mask in enumerate(trace.final) if mask for v in _set_bits(mask)])
    except (KeyError, TypeError):  # TypeError: a number that does not hash
        raise InputError("trace holds a number that no completion run writes") from None
    return "\n".join(lines) + "\n"


def shortest_path_complete(delta: int, g: LabelledGraph) -> LabelledGraph:
    """All-pairs shortest paths capped at delta; disconnected pairs get delta.

    Independent of the staged engine.  The result can disagree with the input
    on an edge exactly when the input contains a non-metric cycle.
    """
    if type(delta) is not int or g.delta != delta:
        raise InputError(f"graph delta {g.delta} differs from requested delta {delta!r}")
    rows = _label_rows(g)
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
