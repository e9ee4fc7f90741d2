"""Obstacle cycles: why an input could not be completed.

When the engine certifies Uncompletable, the forbidden triangle it found can
be pulled back through the trace: every derived edge is replaced by the two
witness edges that forced it, stage by stage, until only input edges remain.
The result is a cycle that maps homomorphically into the input and is itself
uncompletable.  The module also enumerates all uncompletable cycles of a
given length and matches cycles against the known forbidden-cycle families.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .completion import (FAMILY_CBOUND, FAMILY_FINAL, FAMILY_INPUT,
                         FAMILY_MINUS, FAMILY_PLUS, CompletionTrace,
                         magic_complete)
from .errors import InputError, InvariantViolation, ResourceLimitError
from .params import ParameterTuple
from .space import (LabelledCycle, LabelledGraph, canonical_cycle,
                    cycle_to_graph, forbidden_triangles)

_DERIVED = (FAMILY_PLUS, FAMILY_MINUS, FAMILY_CBOUND)


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

    Stages are processed in decreasing step order; within a stage every cycle
    edge assigned at that step is replaced by its witness fork.  No
    minimization is attempted afterwards.
    """
    if trace.params != p or trace.magic != magic:
        raise InputError("trace does not belong to the given parameters and magic value")
    records = trace.by_pair()
    completed = g.with_edges(
        (record.pair[0], record.pair[1], record.value)
        for record in trace.records if record.family != FAMILY_INPUT)
    bad = forbidden_triangles(p, completed)
    if not bad:
        raise InputError("the completion run was Completable; there is no obstacle")
    u, v, w = bad[0]
    hom = [u, v, w]
    labels = [completed.get(u, v), completed.get(v, w), completed.get(w, u)]
    limit = 3 * 2 ** p.delta

    def record_of(i: int):
        size = len(hom)
        a, b = hom[i], hom[(i + 1) % size]
        record = records[(a, b) if a < b else (b, a)]
        if record.family == FAMILY_FINAL:
            raise InvariantViolation(
                f"final-fill edge ({a}, {b}) inside an obstacle contradicts "
                "magic-edge provenance")
        return record

    while True:
        steps = [record_of(i).step for i in range(len(hom))
                 if record_of(i).family in _DERIVED]
        if not steps:
            break
        stage = max(steps)
        new_hom: list[int] = []
        new_labels: list[int] = []
        for i in range(len(hom)):
            record = record_of(i)
            new_hom.append(hom[i])
            if record.family in _DERIVED and record.step == stage:
                witness = record.witness
                new_labels.append(completed.get(hom[i], witness))
                new_hom.append(witness)
                new_labels.append(completed.get(witness, hom[(i + 1) % len(hom)]))
            else:
                new_labels.append(labels[i])
        hom, labels = new_hom, new_labels
        if len(hom) > limit:
            raise InvariantViolation(
                f"obstacle grew past {limit} edges; the stage recursion must be wrong")
    return Obstacle(LabelledCycle(tuple(labels)), tuple(hom))


def _canonical_candidates(delta: int, length: int, leading: int):
    """Canonical cycles of the given length whose smallest label is `leading`."""
    for rest in itertools.product(range(leading, delta + 1), repeat=length - 1):
        labels = (leading,) + rest
        cycle = LabelledCycle(labels)
        if canonical_cycle(cycle).labels == labels:
            yield cycle


def _pmap(fn, items, jobs: int) -> list:
    """fn over items in input order, in `jobs` worker processes when jobs > 1.

    jobs must lie between 1 and the CPU count; this is checked before any
    process starts.
    """
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise InputError(f"jobs must be between 1 and {limit} (the CPU count), got {jobs}")
    if jobs == 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(items) // (jobs * 8))
        return list(pool.map(fn, items, chunksize=chunk))


def _enumerate_worker(args) -> list[tuple[int, ...]]:
    p, magic, length, leading = args
    hits = []
    for cycle in _canonical_candidates(p.delta, length, leading):
        if not magic_complete(p, magic, cycle_to_graph(cycle, p.delta)).completable:
            hits.append(cycle.labels)
    return hits


def enumerate_uncompletable_cycles(p: ParameterTuple, magic: int, length: int,
                                   max_candidates: int = 5_000_000,
                                   jobs: int = 1) -> frozenset[LabelledCycle]:
    """All canonical cycles of exactly `length` edges that cannot be completed."""
    if length < 3:
        raise InputError("cycles have at least three edges")
    if p.delta ** length > max_candidates:
        raise ResourceLimitError(
            f"{p.delta}^{length} candidate cycles exceed the budget of {max_candidates}")
    tasks = [(p, magic, length, leading) for leading in range(1, p.delta + 1)]
    chunks = _pmap(_enumerate_worker, tasks, jobs)
    return frozenset(LabelledCycle(labels) for chunk in chunks for labels in chunk)


def serialize_catalogue(p: ParameterTuple, length: int,
                        cycles: frozenset[LabelledCycle]) -> str:
    """Catalogue text: a header line, then one canonical cycle per line, sorted."""
    lines = [f"obstacles {p.delta} {p.k1} {p.k2} {p.c0} {p.c1} length={length}"]
    lines.extend(" ".join(map(str, labels))
                 for labels in sorted(c.labels for c in cycles))
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


def family_classify(p: ParameterTuple, cycle: LabelledCycle,
                    max_length: int = 24) -> list[FamilyMatch]:
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
    if size > max_length:
        raise ResourceLimitError(
            f"cycle of length {size} exceeds the classification budget of {max_length}")
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
