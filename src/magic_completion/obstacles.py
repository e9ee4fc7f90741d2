"""Obstacle cycles: why an input could not be completed.

When the engine certifies Uncompletable, the forbidden triangle it found can
be pulled back through the trace: every derived edge is replaced by the two
witness edges that forced it, edge by edge, until only input edges remain.
The result is a cycle that maps homomorphically into the input and is itself
uncompletable.  The module also enumerates all uncompletable cycles of a
given length and matches cycles against the known forbidden-cycle families.
"""

from __future__ import annotations

import collections
import itertools
import os
from dataclasses import dataclass
from enum import Enum

from .completion import CompletionTrace, magic_complete
from .errors import InputError, InvariantViolation, ResourceLimitError
from .params import ParameterTuple
from .space import (LabelledCycle, LabelledGraph, _first_triangle, _forbidden_in, _scan_tables,
                    _set_bits, canonical_cycle, cycle_to_graph, serialize_cycle)

# Budgets of the cycle catalogue: the canonical candidates of one
# enumerate_uncompletable_cycles call, and the length family_classify takes.
CANDIDATE_BUDGET = 5_000_000
CLASSIFY_BUDGET = 24

# Most items in one worker task of _pmap.  A verify sweep instance takes about
# 0.2 ms, so a full chunk outweighs the task's own cost, and 2 * jobs chunks
# of instances and findings stay near 1 MB per job.
_CHUNK_LIMIT = 250


@dataclass(frozen=True)
class Obstacle:
    """An uncompletable cycle plus the vertex map sending it into the input."""

    cycle: LabelledCycle
    hom: tuple[int, ...]


def validate_obstacle_hom(g: LabelledGraph, obstacle: Obstacle) -> bool:
    """Check that consecutive cycle vertices map onto input edges of the same label."""
    hom = obstacle.hom
    labels = obstacle.cycle.labels
    if len(hom) != len(labels):
        return False
    size = len(hom)
    return all(g.get(hom[i], hom[(i + 1) % size]) == labels[i] for i in range(size))


def extract_obstacle(p: ParameterTuple, magic: int, g: LabelledGraph,
                     trace: CompletionTrace) -> Obstacle:
    """Backward run from the first forbidden triangle of an uncompletable run.

    The trace is checked against p, magic and g, and the completed graph is
    rebuilt from it only to find that triangle; _pull_back does the rest.
    No minimization is attempted afterwards.
    """
    if trace.params != p or trace.magic != magic:
        raise InputError("trace does not belong to the given parameters and magic value")
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    n = g.n
    if trace.graph != g or len(trace.final) != n:
        raise InputError("trace does not belong to the given graph")
    # every pair u < v is set once: by the input, a derived record or a final
    # bit; a derived record names a third vertex and a distance in 1..delta
    mat = list(map(list, g._mat))
    for _, (u, v), value, witness, _ in trace.derived:
        if not (type(u) is int and type(v) is int and 0 <= u < v < n) or mat[u][v]:
            raise InputError(f"trace sets the pair ({u}, {v}) twice or outside the graph")
        if type(witness) is not int or not 0 <= witness < n or witness in (u, v):
            raise InputError(f"witness {witness!r} of the pair ({u}, {v}) is not a third vertex")
        if type(value) is not int or not 1 <= value <= p.delta:
            raise InputError(
                f"distance {value!r} of the pair ({u}, {v}) out of range 1..{p.delta}")
        mat[u][v] = mat[v][u] = value
    for u, mask in enumerate(trace.final):
        for v in _set_bits(mask):
            if not u < v < n or mat[u][v]:
                raise InputError(f"trace sets the pair ({u}, {v}) twice or outside the graph")
            mat[u][v] = mat[v][u] = magic
    if any(row.count(0) != 1 for row in mat):
        raise InputError("trace leaves a pair of the graph unset")
    triangle = _first_triangle(_forbidden_in(_scan_tables(p), None, mat))
    if triangle is None:
        raise InputError("the completion run was Completable; there is no obstacle")
    return _pull_back(trace, triangle)


def _pull_back(trace: CompletionTrace, triangle: tuple[int, int, int]) -> Obstacle:
    """The obstacle of a forbidden triangle (u, v, w) of the run `trace`
    records.  A stack holds the edges still to walk, starting with u-v, v-w
    and w-u.  A derived edge a-b is replaced by its witness edges a-x and
    x-b; an input edge is walked, giving its start vertex to the hom and its
    label to the labels, so the cycle comes out in order."""
    derived = {record.pair: record for record in trace.derived}
    labels_of, final = trace.graph._mat, trace.final
    limit = 3 * 2 ** trace.params.delta
    u, v, w = triangle
    stack = [(w, u), (v, w), (u, v)]
    hom: list[int] = []
    labels: list[int] = []
    while stack:
        a, b = stack.pop()
        pair = (a, b) if a < b else (b, a)
        record = derived.get(pair)
        if record is not None:
            x = record.witness
            stack += (x, b), (a, x)
            if len(hom) + len(stack) > limit:
                raise InvariantViolation(
                    f"obstacle grew past {limit} edges; the witness records must loop")
        elif final[pair[0]] >> pair[1] & 1:
            raise InvariantViolation(
                f"final-fill edge ({a}, {b}) inside an obstacle contradicts "
                "magic-edge provenance")
        elif labels_of[a][b]:
            hom.append(a)
            labels.append(labels_of[a][b])
        else:
            raise InvariantViolation(f"pair ({a}, {b}) has no label in the trace")
    return Obstacle(LabelledCycle(tuple(labels)), tuple(hom))


def _canonical_candidates(delta: int, length: int, leading: int):
    """Canonical cycles of the given length whose smallest label is `leading`."""
    for rest in itertools.product(range(leading, delta + 1), repeat=length - 1):
        labels = (leading,) + rest
        cycle = LabelledCycle(labels)
        if canonical_cycle(cycle).labels == labels:
            yield cycle


def _require_jobs(jobs: int) -> None:
    """Refuse a worker count outside 1..the CPU count."""
    limit = os.cpu_count() or 1
    if type(jobs) is not int or not 1 <= jobs <= limit:
        raise InputError(f"jobs must be between 1 and {limit} (the CPU count), got {jobs!r}")


def _pmap(fn, items, jobs: int, count: int):
    """Lazy map of fn over the `count` items, in input order, in `jobs` worker
    processes when jobs > 1.

    jobs is checked by _require_jobs before any process starts.  A worker
    task takes a chunk of max(1, count // (jobs * 8)) items, at most
    _CHUNK_LIMIT, and at most 2 * jobs chunks are sent or done but not yet
    read, so what this process holds does not grow with count.
    """
    _require_jobs(jobs)
    if jobs == 1:
        return map(fn, items)
    chunk = max(1, min(count // (jobs * 8), _CHUNK_LIMIT))
    return _pool_map(fn, iter(items), jobs, chunk)


def _pool_map(fn, items, jobs: int, chunk: int):
    from concurrent.futures import ProcessPoolExecutor  # only a pool run loads it
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window = collections.deque()
        while True:
            while len(window) < 2 * jobs and (batch := list(itertools.islice(items, chunk))):
                window.append(pool.submit(_map_chunk, fn, batch))
            if not window:
                return
            yield from window.popleft().result()


def _map_chunk(fn, batch: list) -> list:
    return [fn(item) for item in batch]


def _enumerate_worker(args) -> list[tuple[int, ...]]:
    p, magic, length, leading = args
    hits = []
    for cycle in _canonical_candidates(p.delta, length, leading):
        if not magic_complete(p, magic, cycle_to_graph(cycle, p.delta)).completable:
            hits.append(cycle.labels)
    return hits


def enumerate_uncompletable_cycles(p: ParameterTuple, magic: int, length: int,
                                   jobs: int = 1) -> frozenset[LabelledCycle]:
    """All canonical cycles of exactly `length` edges that cannot be completed."""
    if type(length) is not int or length < 3:
        raise InputError(f"cycle length must be an integer of at least 3, got {length!r}")
    # delta^length, computed no further than the first power over budget
    if p.delta ** min(length, CANDIDATE_BUDGET.bit_length()) > CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"{p.delta}^{length} candidate cycles exceed the budget of {CANDIDATE_BUDGET}")
    tasks = [(p, magic, length, leading) for leading in range(1, p.delta + 1)]
    chunks = _pmap(_enumerate_worker, tasks, jobs, len(tasks))
    return frozenset(LabelledCycle(labels) for chunk in chunks for labels in chunk)


def serialize_catalogue(p: ParameterTuple, length: int,
                        cycles: frozenset[LabelledCycle]) -> str:
    """Catalogue text: a header line, then one canonical cycle per line, sorted."""
    lines = [f"obstacles {p.delta} {p.k1} {p.k2} {p.c0} {p.c1} length={length}"]
    lines.extend(serialize_cycle(c) for c in sorted(cycles, key=lambda c: c.labels))
    return "\n".join(lines) + "\n"


class CycleFamily(Enum):
    NON_METRIC = "NonMetric"
    C0 = "C0Cycle"
    C1 = "C1Cycle"
    K1 = "K1Cycle"
    K2 = "K2Cycle"


@dataclass(frozen=True)
class FamilyMatch:
    """A family whose inequality some d/x edge split satisfies.

    `partition` lists the positions of the d-role edges; all others carry the
    x-role.  `n` is the family index (number of d-edges is 2n+1 for the
    perimeter-cap families and 2n+2 for the upper-bound family).
    """

    family: CycleFamily
    partition: tuple[int, ...]
    n: int


def family_classify(p: ParameterTuple, cycle: LabelledCycle) -> list[FamilyMatch]:
    """Every forbidden-cycle family the label multiset satisfies.

    Role assignment ignores the cyclic arrangement: for a fixed number of
    d-edges the inequality is monotone in their sum, so it is satisfiable by
    some split exactly when the largest labels satisfy it.  Families are:
    one edge longer than the rest of the cycle (non-metric); an odd metric
    perimeter under 2*K1; and sums of d-edges beating n perimeter caps plus
    the x-edges (C0/C1 by perimeter parity, with 2*K2 added for the
    even-count family, which uses C = min(C0, C1)).
    """
    labels = cycle.labels
    size = len(labels)
    if size > CLASSIFY_BUDGET:
        raise ResourceLimitError(
            f"cycle of length {size} exceeds the classification budget of {CLASSIFY_BUDGET}")
    perimeter = sum(labels)
    odd = perimeter % 2 == 1
    by_size = sorted(range(size), key=lambda i: (-labels[i], i))

    def heaviest(count: int) -> tuple[int, tuple[int, ...]]:
        chosen = tuple(sorted(by_size[:count]))
        return sum(labels[i] for i in chosen), chosen

    matches = []
    top, top_pos = heaviest(1)
    metric = 2 * top <= perimeter
    if 2 * top > perimeter:
        matches.append(FamilyMatch(CycleFamily.NON_METRIC, top_pos, 0))
    cap = p.c0 if not odd else p.c1
    cap_family = CycleFamily.C0 if not odd else CycleFamily.C1
    for n in range(0, (size - 1) // 2 + 1):
        d_sum, positions = heaviest(2 * n + 1)
        if 2 * d_sum > n * (cap - 1) + perimeter:
            matches.append(FamilyMatch(cap_family, positions, n))
            break
    if metric and odd and 2 * p.k1 > perimeter:
        matches.append(FamilyMatch(CycleFamily.K1, (), 0))
    if odd:
        for n in range(0, (size - 2) // 2 + 1):
            d_sum, positions = heaviest(2 * n + 2)
            if 2 * d_sum > n * (p.c - 1) + 2 * p.k2 + perimeter:
                matches.append(FamilyMatch(CycleFamily.K2, positions, n))
                break
    return matches
