import itertools

import pytest

from magic_completion import (InputError, LabelledCycle, LabelledGraph,
                              ParameterTuple, build_schedule, cycle_to_graph,
                              eligible_magic, enumerate_admissible,
                              fork_graph, magic_complete, serialize_trace,
                              shortest_path_complete, time_of)

P5 = ParameterTuple(5, 3, 3, 16, 13)

# II-B tuples with delta <= 11
II_B_KEYS = [(5, 3, 3, 16, 13), (8, 5, 5, 24, 21), (8, 5, 5, 26, 21),
             (11, 7, 7, 32, 29), (11, 7, 7, 34, 29)]


def test_time_function():
    assert time_of(1, 3, 5) == 1
    assert time_of(2, 3, 5) == 3
    assert time_of(4, 3, 5) == 2
    assert time_of(5, 3, 5) == 0
    with pytest.raises(InputError):
        time_of(3, 3, 5)
    with pytest.raises(InputError):
        time_of(0, 3, 5)
    with pytest.raises(InputError):
        time_of(6, 3, 5)


def test_time_injective_for_small_admissible_tuples():
    for delta in range(3, 7):
        for row in enumerate_admissible(delta):
            for magic in eligible_magic(row.params):
                times = [time_of(x, magic, delta)
                         for x in range(1, delta + 1) if x != magic]
                assert len(set(times)) == len(times)


def test_schedule_for_ii_b_tuple():
    schedule, rules = build_schedule(P5, 3)
    assert schedule.as_dict() == {0: 5, 1: 1, 2: 4, 3: 2}
    assert rules[4].minus == frozenset({(1, 5)})
    assert rules[4].plus == frozenset()
    assert rules[2].plus == frozenset({(1, 1)})
    assert rules[2].cbound == frozenset({(5, 5)})
    assert rules[1].forks == frozenset()
    assert rules[5].forks == frozenset()


def test_ii_b_low_rule_keeps_the_extreme_fork():
    # in case II-B the rule below the magic distance closes exactly the
    # (delta, delta) fork through its perimeter bound
    for key in II_B_KEYS:
        p = ParameterTuple(*key)
        magic = min(eligible_magic(p))
        _, rules = build_schedule(p, magic)
        assert rules[magic - 1].cbound == frozenset({(p.delta, p.delta)})


def test_schedule_rejects_non_eligible_magic():
    with pytest.raises(InputError):
        build_schedule(ParameterTuple(3, 1, 2, 10, 9), 3)


def test_fork_rule_family_lookup():
    _, rules = build_schedule(P5, 3)
    assert rules[2].family_of(1, 1) == "plus"
    assert rules[2].family_of(5, 5) == "cbound"
    assert rules[2].family_of(1, 5) is None
    assert rules[4].family_of(5, 1) == "minus"


def test_single_fork_completions():
    assert magic_complete(P5, 3, fork_graph(5, 5, 5)).completed.get(0, 2) == 2
    assert magic_complete(P5, 3, fork_graph(1, 5, 5)).completed.get(0, 2) == 4
    assert magic_complete(P5, 3, fork_graph(1, 1, 5)).completed.get(0, 2) == 2
    assert magic_complete(P5, 3, fork_graph(1, 2, 5)).completed.get(0, 2) == 3


def test_four_cycle_completion():
    outcome = magic_complete(P5, 3, cycle_to_graph(LabelledCycle((1, 5, 5, 5)), 5))
    assert outcome.completable
    assert outcome.completed.get(0, 2) == 4
    assert outcome.completed.get(1, 3) == 4


def test_five_cycle_uncompletable():
    outcome = magic_complete(P5, 3, cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5))
    assert not outcome.completable
    assert outcome.forbidden_triangles == (
        (0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4), (1, 3, 4))


def test_isolated_pair_gets_magic_value():
    outcome = magic_complete(P5, 3, LabelledGraph(2, 5))
    assert outcome.completable
    assert outcome.completed.get(0, 1) == 3
    record = outcome.trace.by_pair()[(0, 1)]
    assert record.family == "final-M"
    assert record.step is None


def test_input_edges_never_rewritten():
    pairs = list(itertools.combinations(range(3), 2))
    p = ParameterTuple(3, 1, 3, 10, 11)
    for assignment in itertools.product(range(4), repeat=3):
        edges = [(u, v, d) for (u, v), d in zip(pairs, assignment) if d > 0]
        g = LabelledGraph(3, 3, edges)
        done = magic_complete(p, 2, g).completed
        for u, v, d in g.edges():
            assert done.get(u, v) == d


def test_completion_idempotent():
    g = cycle_to_graph(LabelledCycle((1, 5, 5, 5)), 5)
    once = magic_complete(P5, 3, g)
    twice = magic_complete(P5, 3, once.completed)
    assert twice.completable
    assert twice.completed == once.completed
    assert all(r.family == "input" for r in twice.trace.records)


def test_trace_serialization_deterministic():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    first = serialize_trace(magic_complete(P5, 3, g).trace)
    second = serialize_trace(magic_complete(P5, 3, g).trace)
    assert first == second
    assert first.splitlines()[0] == "magic M=3 params 5 3 3 16 13"
    assert "step 2 set 1 3 = 4 witness 2 via minus" in first


def test_trace_records_the_simultaneous_pass():
    g = cycle_to_graph(LabelledCycle((1, 1, 1, 5)), 5)
    outcome = magic_complete(P5, 3, g)
    by_pair = outcome.trace.by_pair()
    assert by_pair[(0, 2)].step == 2
    assert by_pair[(0, 2)].witness == 3
    assert by_pair[(1, 3)].step == 2
    assert by_pair[(1, 3)].witness == 0


def test_magic_complete_requires_admissible_tuple():
    with pytest.raises(InputError):
        magic_complete(ParameterTuple(3, 1, 1, 10, 11), 2, LabelledGraph(2, 3))
    with pytest.raises(InputError):
        magic_complete(P5, 3, LabelledGraph(2, 3))


def test_shortest_path_examples():
    g = LabelledGraph(3, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 3)])
    assert sorted(shortest_path_complete(3, g).edges()) == [
        (0, 1, 1), (0, 2, 1), (1, 2, 2)]
    empty = LabelledGraph(3, 4)
    assert all(d == 4 for _, _, d in shortest_path_complete(4, empty).edges())
    chain = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert shortest_path_complete(5, chain).get(0, 3) == 3
    with pytest.raises(InputError):
        shortest_path_complete(4, LabelledGraph(3, 5))
