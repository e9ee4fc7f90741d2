"""Staged completion of partial graphs around a magic distance.

Each distance value x other than the magic value M owns a set of forks: an
unordered pair of labels (a, b) such that a path u-w-v labelled a, b forces
the pair (u, v) to distance x.  Small values (x < M) are forced by sum forks
(a + b = x) and by cap forks (a + b = C - 1 - x); large values (x > M) by
difference forks (|a - b| = x).  Values run in increasing time-function
order, every pass is simultaneous, and whatever survives all passes becomes
M.  The result is scanned for forbidden triangles and certified either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InvariantViolation
from .params import ParameterTuple, classify_admissible, eligible_magic
from .space import (LabelledGraph, forbidden_triangles, graph_to_matrix,
                    matrix_to_graph)

FAMILY_PLUS = "plus"
FAMILY_MINUS = "minus"
FAMILY_CBOUND = "cbound"
FAMILY_FINAL = "final-M"
FAMILY_INPUT = "input"


@dataclass(frozen=True)
class ForkRule:
    """Forks that force one target distance, split by family."""

    target: int
    plus: frozenset[tuple[int, int]]
    minus: frozenset[tuple[int, int]]
    cbound: frozenset[tuple[int, int]]

    @property
    def forks(self) -> frozenset[tuple[int, int]]:
        return self.plus | self.minus | self.cbound

    def family_of(self, a: int, b: int) -> str | None:
        pair = (a, b) if a <= b else (b, a)
        if pair in self.plus:
            return FAMILY_PLUS
        if pair in self.minus:
            return FAMILY_MINUS
        if pair in self.cbound:
            return FAMILY_CBOUND
        return None


@dataclass(frozen=True)
class Schedule:
    """Assignment of step numbers to target distances (gaps are skipped)."""

    magic: int
    steps: tuple[tuple[int, int], ...]  # sorted (step, target) pairs

    def as_dict(self) -> dict[int, int]:
        return dict(self.steps)

    @property
    def last_step(self) -> int:
        return self.steps[-1][0] if self.steps else -1


def time_of(x: int, magic: int, delta: int) -> int:
    """Scheduling time of a non-magic target distance."""
    if x == magic or not 1 <= x <= delta:
        raise InputError(f"no scheduled time for distance {x} with magic {magic}")
    return 2 * x - 1 if x < magic else 2 * (delta - x)


@lru_cache(maxsize=None)
def _schedule_cached(p: ParameterTuple, magic: int):
    delta, c = p.delta, p.c
    rules: dict[int, ForkRule] = {}
    times: dict[int, int] = {}
    for x in range(1, delta + 1):
        if x == magic:
            continue
        plus = frozenset()
        minus = frozenset()
        cbound = frozenset()
        if x < magic:
            plus = frozenset((a, x - a) for a in range(1, delta + 1)
                             if a <= x - a <= delta)
            cbound = frozenset((a, c - 1 - x - a) for a in range(1, delta + 1)
                               if a <= c - 1 - x - a <= delta)
        else:
            minus = frozenset((a, a + x) for a in range(1, delta + 1 - x))
        rules[x] = ForkRule(x, plus, minus, cbound)
        times[x] = time_of(x, magic, delta)
    if len(set(times.values())) != len(times):
        raise InvariantViolation(f"time collision in schedule for {p.key()} M={magic}")
    steps = tuple(sorted((t, x) for x, t in times.items()))
    return Schedule(magic, steps), rules


def build_schedule(p: ParameterTuple, magic: int) -> tuple[Schedule, dict[int, ForkRule]]:
    """Schedule and fork rules for an admissible tuple and an eligible magic value."""
    if magic not in eligible_magic(p):
        raise InputError(f"{magic} is not an eligible magic distance for {p.key()}")
    schedule, rules = _schedule_cached(p, magic)
    return schedule, dict(rules)


@dataclass(frozen=True)
class TraceRecord:
    """How one pair got its distance.  step/witness are None for input and
    final-M records."""

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


def _apply_rule(mat, n: int, rule: ForkRule) -> list[tuple[int, int, int, str]]:
    """One simultaneous pass of a rule over a matrix (mutated in place).

    Returns (u, v, witness, family) per assignment.  Re-scanning must find no
    further match: a new edge feeding a fork of its own rule would make the
    single simultaneous pass insufficient, which the staging is meant to
    exclude, so that is checked every step.
    """
    found = []
    for u in range(n):
        for v in range(u + 1, n):
            if mat[u][v] is not None:
                continue
            for w in range(n):
                if w == u or w == v:
                    continue
                a, b = mat[u][w], mat[v][w]
                if a is None or b is None:
                    continue
                family = rule.family_of(a, b)
                if family is not None:
                    found.append((u, v, w, family))
                    break
    for u, v, w, family in found:
        mat[u][v] = mat[v][u] = rule.target
    for u in range(n):
        for v in range(u + 1, n):
            if mat[u][v] is not None:
                continue
            for w in range(n):
                if w == u or w == v:
                    continue
                a, b = mat[u][w], mat[v][w]
                if a is not None and b is not None and rule.family_of(a, b):
                    raise InvariantViolation(
                        f"cascade within one pass: pair ({u}, {v}) matches target "
                        f"{rule.target} only after this step's assignments")
    return found


def magic_complete(p: ParameterTuple, magic: int, g: LabelledGraph) -> CompletionOutcome:
    """Run the staged completion and certify the result.

    Only admissible tuples are accepted; the certificate Completable /
    Uncompletable is only meaningful for them.
    """
    verdict = classify_admissible(p)
    if not verdict.admissible:
        raise InputError(f"tuple {p.key()} is not admissible")
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    schedule, rules = build_schedule(p, magic)
    mat = graph_to_matrix(g)
    records = [TraceRecord(None, (u, v), d, None, FAMILY_INPUT) for u, v, d in g.edges()]
    for step, target in schedule.steps:
        for u, v, w, family in _apply_rule(mat, g.n, rules[target]):
            records.append(TraceRecord(step, (u, v), target, w, family))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if mat[u][v] is None:
                mat[u][v] = mat[v][u] = magic
                records.append(TraceRecord(None, (u, v), magic, None, FAMILY_FINAL))
    completed = matrix_to_graph(g.delta, mat)
    bad = tuple(forbidden_triangles(p, completed))
    trace = CompletionTrace(p, magic, tuple(records))
    return CompletionOutcome(completed, trace, not bad, bad)


def serialize_trace(trace: CompletionTrace) -> str:
    """Text form of a trace: header, step records, then the final fill."""
    p = trace.params
    lines = [f"magic M={trace.magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
    for record in trace.records:
        if record.family in (FAMILY_PLUS, FAMILY_MINUS, FAMILY_CBOUND):
            u, v = record.pair
            lines.append(f"step {record.step} set {u} {v} = {record.value} "
                         f"witness {record.witness} via {record.family}")
    for record in trace.records:
        if record.family == FAMILY_FINAL:
            u, v = record.pair
            lines.append(f"final {u} {v} = {record.value}")
    return "\n".join(lines) + "\n"


def shortest_path_complete(delta: int, g: LabelledGraph) -> LabelledGraph:
    """All-pairs shortest paths capped at delta; disconnected pairs get delta.

    Independent of the staged engine.  The result can disagree with the input
    on an edge exactly when the input contains a non-metric cycle.
    """
    if g.delta != delta:
        raise InputError(f"graph delta {g.delta} differs from requested delta {delta}")
    n = g.n
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, d in g.edges():
        dist[u][v] = dist[v][u] = d
    for w in range(n):
        dw = dist[w]
        for u in range(n):
            duw = dist[u][w]
            if duw == inf:
                continue
            du = dist[u]
            for v in range(n):
                alt = duw + dw[v]
                if alt < du[v]:
                    du[v] = alt
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        edges.append((u, v, delta if dist[u][v] == inf else min(delta, int(dist[u][v]))))
    return LabelledGraph(n, delta, edges)
