import dataclasses
import itertools
import random

import pytest

from magic_completion import (CompletionTrace, CycleFamily, InputError,
                              InvariantViolation, LabelledCycle, LabelledGraph,
                              Obstacle, ParameterTuple, ResourceLimitError,
                              TraceRecord, brute_force_completable, canonical_cycle,
                              cycle_to_graph, eligible_magic,
                              enumerate_admissible,
                              enumerate_uncompletable_cycles, extract_obstacle,
                              family_classify, magic_complete,
                              serialize_catalogue, validate_obstacle_hom)
from magic_completion.obstacles import _pull_back
from magic_completion.oracle import ExhaustiveScope, scope_instances

P5 = ParameterTuple(5, 3, 3, 16, 13)

LENGTH5_CATALOGUE = {
    (1, 1, 1, 1, 1), (1, 1, 1, 1, 5), (1, 1, 1, 5, 5), (1, 1, 5, 1, 5),
    (1, 1, 5, 5, 5), (1, 5, 1, 5, 5), (1, 5, 5, 5, 5), (5, 5, 5, 5, 5)}


def _extract(p, magic, g):
    outcome = magic_complete(p, magic, g)
    assert not outcome.completable
    return outcome, extract_obstacle(p, magic, g, outcome.trace)


def test_extraction_of_forbidden_input_triangle():
    g = cycle_to_graph(LabelledCycle((1, 1, 4)), 5)
    _, obstacle = _extract(P5, 3, g)
    assert obstacle.cycle.labels == (1, 1, 4)
    assert obstacle.hom == (0, 1, 2)
    assert validate_obstacle_hom(g, obstacle)


def test_extraction_walks_back_to_the_input_cycle():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    _, obstacle = _extract(P5, 3, g)
    assert obstacle.cycle.labels == (1, 1, 5, 5, 5)
    assert obstacle.hom == (0, 1, 2, 3, 4)
    assert validate_obstacle_hom(g, obstacle)


def test_extraction_replaces_one_stage_at_a_time():
    g = cycle_to_graph(LabelledCycle((1, 1, 1, 5)), 5)
    _, obstacle = _extract(P5, 3, g)
    assert obstacle.cycle.labels == (1, 1, 1, 5)
    assert obstacle.hom == (0, 1, 2, 3)
    assert validate_obstacle_hom(g, obstacle)


def test_extracted_cycles_are_really_uncompletable():
    for labels in ((1, 1, 5, 5, 5), (1, 1, 1, 5), (1, 1, 1, 1, 5)):
        g = cycle_to_graph(LabelledCycle(labels), 5)
        _, obstacle = _extract(P5, 3, g)
        cg = cycle_to_graph(canonical_cycle(obstacle.cycle), 5)
        assert brute_force_completable(P5, cg) is None


def test_extraction_requires_a_failed_run():
    g = cycle_to_graph(LabelledCycle((1, 5, 5, 5)), 5)
    outcome = magic_complete(P5, 3, g)
    assert outcome.completable
    with pytest.raises(InputError):
        extract_obstacle(P5, 3, g, outcome.trace)


def test_extraction_rejects_a_trace_of_another_graph():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    other = cycle_to_graph(LabelledCycle((1, 5, 5, 5, 1)), 5)
    with pytest.raises(InputError):
        extract_obstacle(P5, 3, g, magic_complete(P5, 3, other).trace)


def test_extraction_rejects_a_trace_of_another_tuple_or_magic():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    trace = magic_complete(P5, 3, g).trace
    for p, magic in ((ParameterTuple(5, 3, 3, 14, 13), 3), (P5, 4)):
        with pytest.raises(InputError, match="trace does not belong to the given parameters"):
            extract_obstacle(p, magic, g, trace)


def test_extraction_rejects_a_trace_that_does_not_set_each_pair_once():
    # the forbidden input triangle 0 1 2 plus the edge 3-4; the final fill
    # sets the six pairs between {0, 1, 2} and {3, 4}
    g = LabelledGraph(5, 5, [(0, 1, 1), (1, 2, 1), (0, 2, 4), (3, 4, 5)])
    trace = magic_complete(P5, 3, g).trace
    assert trace.final == (0b11000, 0b11000, 0b11000, 0, 0) and not trace.derived
    extract_obstacle(P5, 3, g, trace)
    dropped = dataclasses.replace(trace, final=(0b11000, 0, 0b11000, 0, 0))
    with pytest.raises(InputError, match="leaves a pair of the graph unset"):
        extract_obstacle(P5, 3, g, dropped)
    on_input = dataclasses.replace(trace, final=(0b11010, 0b11000, 0b11000, 0, 0))
    with pytest.raises(InputError, match=r"sets the pair \(0, 1\) twice"):
        extract_obstacle(P5, 3, g, on_input)
    below = dataclasses.replace(trace, final=(0b11000, 0b11001, 0b11000, 0, 0))
    with pytest.raises(InputError, match=r"sets the pair \(1, 0\) twice or outside"):
        extract_obstacle(P5, 3, g, below)
    derived = dataclasses.replace(trace, derived=(TraceRecord(1, (3, 4), 3, 0, "plus"),))
    with pytest.raises(InputError, match=r"sets the pair \(3, 4\) twice"):
        extract_obstacle(P5, 3, g, derived)


# the first derived record of the run on the cycle 1 1 5 5 5 is
# (2, (1, 3), 4, 2, "minus"): each case changes one of its fields
BAD_RECORD_FIELDS = [
    ("value", 99, "distance 99 "), ("value", -1, "distance -1 "), ("value", 2.0, "distance 2.0 "),
    ("pair", (1.0, 3), r"pair \(1.0, 3\) "), ("witness", 99, "witness 99 "),
    ("witness", None, "witness None "), ("witness", -1, "witness -1 "),
    ("witness", 3, "witness 3 ")]


@pytest.mark.parametrize("field, bad, message", BAD_RECORD_FIELDS)
def test_extraction_refuses_a_derived_record_off_the_graph(field, bad, message):
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    trace = magic_complete(P5, 3, g).trace
    first, *rest = trace.derived
    assert first == (2, (1, 3), 4, 2, "minus")
    extract_obstacle(P5, 3, g, trace)
    bad_trace = dataclasses.replace(trace, derived=(first._replace(**{field: bad}), *rest))
    with pytest.raises(InputError, match=message):
        extract_obstacle(P5, 3, g, bad_trace)


@pytest.mark.parametrize("delta", [4, 6])
def test_extraction_refuses_a_trace_whose_graph_has_another_delta(delta):
    # a hand-built trace that sets every pair of its graph, so that only the
    # delta tells it from a run's; the label 4 is within both deltas
    g = LabelledGraph(3, delta, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    trace = CompletionTrace(P5, 3, g, (), (0, 0, 0))
    with pytest.raises(InputError, match=f"^graph delta {delta} differs from parameter delta 5$"):
        extract_obstacle(P5, 3, g, trace)


def test_extraction_from_a_trace_equals_the_run_pull_back():
    # the verify sweep pulls obstacles back from its own runs; extract_obstacle
    # checks a trace and rebuilds the run from it, and must agree
    p = ParameterTuple(3, 1, 2, 10, 9)
    pulled = 0
    for g in scope_instances(p, ExhaustiveScope(4)):
        outcome = magic_complete(p, 2, g)
        if not outcome.completable:
            assert extract_obstacle(p, 2, g, outcome.trace) == \
                _pull_back(outcome.trace, outcome.forbidden_triangles[0])
            pulled += 1
    assert pulled == 1331


def _stage_loop(outcome):
    """Reference pull-back: every stage replaces all cycle edges derived at
    the latest step left by their witness forks, reading labels off the
    completed graph, until only input edges are left."""
    completed = outcome.completed
    records = {record.pair: record for record in outcome.trace.records}
    hom = list(outcome.forbidden_triangles[0])
    while True:
        cycle = [records[min(a, b), max(a, b)] for a, b in zip(hom, hom[1:] + hom[:1])]
        assert "final-M" not in {record.family for record in cycle}
        steps = [record.step for record in cycle if record.family != "input"]
        if not steps:
            break
        stage = max(steps)
        new_hom = []
        for i, record in enumerate(cycle):
            new_hom.append(hom[i])
            if record.family != "input" and record.step == stage:
                new_hom.append(record.witness)
        hom = new_hom
    labels = [completed.get(a, b) for a, b in zip(hom, hom[1:] + hom[:1])]
    return Obstacle(LabelledCycle(tuple(labels)), tuple(hom))


def _uncompletable_runs():
    """Every run of the twelve delta-3 (tuple, magic) pairs on 4 vertices,
    then one seeded noise graph on 30..40 vertices per admissible tuple of
    delta 4..7, all of them uncompletable."""
    for row in enumerate_admissible(3):
        for magic in sorted(eligible_magic(row.params)):
            for g in scope_instances(row.params, ExhaustiveScope(4)):
                yield magic_complete(row.params, magic, g)
    rng = random.Random(18)
    for delta in range(4, 8):
        for row in enumerate_admissible(delta):
            magic = min(eligible_magic(row.params))
            n = rng.randint(30, 40)
            edges = [(u, v, rng.randint(1, delta))
                     for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            yield magic_complete(row.params, magic, LabelledGraph(n, delta, edges))


def test_pull_back_equals_the_stage_loop():
    pairs, noise = set(), 0
    for outcome in _uncompletable_runs():
        if outcome.completable:
            continue
        assert _pull_back(outcome.trace, outcome.forbidden_triangles[0]) == \
            _stage_loop(outcome)
        pairs.add((outcome.trace.params, outcome.trace.magic))
        noise += outcome.trace.params.delta > 3
    assert len([pair for pair in pairs if pair[0].delta == 3]) == 12
    assert noise == 183


def _hand_trace(edges, derived, final):
    """A trace of (3, 1, 2, 10, 9) and M = 2 on three vertices."""
    return CompletionTrace(ParameterTuple(3, 1, 2, 10, 9), 2, LabelledGraph(3, 3, edges),
                           tuple(TraceRecord(*record) for record in derived), final)


def test_pull_back_refuses_a_final_fill_edge():
    trace = _hand_trace([(0, 1, 1), (1, 2, 1)], [], (1 << 2, 0, 0))
    with pytest.raises(InvariantViolation, match=r"final-fill edge \(2, 0\)"):
        _pull_back(trace, (0, 1, 2))


def test_pull_back_refuses_a_pair_the_trace_does_not_set():
    trace = _hand_trace([(0, 1, 1)], [], (0, 0, 0))
    with pytest.raises(InvariantViolation, match=r"pair \(1, 2\) has no label"):
        _pull_back(trace, (0, 1, 2))


def test_pull_back_stops_on_a_witness_loop():
    # each pair names the third vertex as its witness, so every expansion
    # brings back the pairs it came from
    trace = _hand_trace([], [(1, (0, 1), 1, 2, "plus"), (1, (1, 2), 1, 0, "plus"),
                             (1, (0, 2), 1, 1, "plus")], (0, 0, 0))
    with pytest.raises(InvariantViolation, match="grew past 24 edges"):
        _pull_back(trace, (0, 1, 2))


def test_hom_validation_rejects_wrong_labels():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    _, obstacle = _extract(P5, 3, g)
    rotated = type(obstacle)(obstacle.cycle, (1, 2, 3, 4, 0))
    assert not validate_obstacle_hom(g, rotated)


def test_hom_validation_rejects_a_hom_of_another_length():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    _, obstacle = _extract(P5, 3, g)
    for hom in (obstacle.hom[:4], obstacle.hom + (0,)):
        assert not validate_obstacle_hom(g, Obstacle(obstacle.cycle, hom))


def test_catalogue_length5():
    cycles = enumerate_uncompletable_cycles(P5, 3, 5)
    assert {c.labels for c in cycles} == LENGTH5_CATALOGUE


def test_catalogue_length6_empty():
    assert enumerate_uncompletable_cycles(P5, 3, 6) == frozenset()


def test_catalogue_small_class():
    cycles = enumerate_uncompletable_cycles(ParameterTuple(3, 1, 3, 10, 11), 2, 3)
    assert {c.labels for c in cycles} == {(1, 1, 3)}


def test_catalogue_parallel_matches_serial():
    serial = enumerate_uncompletable_cycles(P5, 3, 5, jobs=1)
    parallel = enumerate_uncompletable_cycles(P5, 3, 5, jobs=2)
    assert serial == parallel


def test_catalogue_serialization():
    cycles = enumerate_uncompletable_cycles(ParameterTuple(3, 1, 3, 10, 11), 2, 3)
    text = serialize_catalogue(ParameterTuple(3, 1, 3, 10, 11), 3, cycles)
    assert text == "obstacles 3 1 3 10 11 length=3\n1 1 3\n"


def test_catalogue_rejects_tiny_lengths():
    with pytest.raises(InputError):
        enumerate_uncompletable_cycles(P5, 3, 2)


def _families(p, labels):
    return {(m.family, m.n) for m in family_classify(p, LabelledCycle(labels))}


def test_family_examples():
    assert _families(ParameterTuple(3, 3, 3, 10, 11), (1, 1, 1, 1, 1)) == {
        (CycleFamily.K1, 0)}
    assert _families(P5, (5, 5, 5)) == {(CycleFamily.C1, 1)}
    assert _families(P5, (2, 4, 5)) == {(CycleFamily.K2, 0)}
    assert _families(P5, (5, 5, 5, 5, 5)) == {(CycleFamily.C1, 2)}
    assert _families(ParameterTuple(3, 1, 3, 8, 9), (1, 3, 3, 3)) == {
        (CycleFamily.C0, 1)}
    assert _families(P5, (2, 3, 3)) == set()


def test_nonmetric_edge_coincides_with_zero_cap_family():
    # one overlong edge is both the non-metric family and the n=0 cap family
    matches = _families(P5, (1, 1, 4))
    assert (CycleFamily.NON_METRIC, 0) in matches
    assert (CycleFamily.C0, 0) in matches


def test_family_partition_points_at_heaviest_labels():
    match, = family_classify(P5, LabelledCycle((2, 4, 5)))
    assert match.partition == (1, 2)


def test_family_classify_refuses_cycles_over_budget():
    family_classify(P5, LabelledCycle((5,) * 24))  # the budget itself is classified
    with pytest.raises(ResourceLimitError, match="length 25 exceeds the classification budget of 24"):
        family_classify(P5, LabelledCycle((5,) * 25))


def test_known_coverage_gap():
    # the all-maximal five cycle in one delta=3 class is uncompletable but
    # matches no family; every other small uncompletable cycle there does
    p = ParameterTuple(3, 1, 3, 8, 9)
    gap = LabelledCycle((3, 3, 3, 3, 3))
    assert brute_force_completable(p, cycle_to_graph(gap, 3)) is None
    assert family_classify(p, gap) == []
