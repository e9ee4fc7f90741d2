import dataclasses
import itertools
import random

import pytest

from magic_completion import (InputError, InvariantViolation,
                              LabelledCycle, LabelledGraph, ParameterTuple,
                              RandomScope, TraceRecord, classify_triangle, cycle_to_graph,
                              eligible_magic, enumerate_admissible,
                              forbidden_triangles, fork_graph, magic_complete,
                              run_verification_suite, select_magic_parameter,
                              serialize_trace, shortest_path_complete, time_of)
from magic_completion import completion, oracle
from magic_completion.completion import (CompletionTrace, _label_rows, _step_table,
                                         _steps)
from magic_completion.obstacles import _pull_back
from magic_completion.space import MAX_VERTICES, _first_triangle, allowed_masks

P3 = ParameterTuple(3, 1, 2, 10, 9)
P5 = ParameterTuple(5, 3, 3, 16, 13)


def _reference_matrix(g):
    """g's label matrix, built from its edge list."""
    mat = [[0] * g.n for _ in range(g.n)]
    for u, v, d in g.edges():
        mat[u][v] = mat[v][u] = d
    return mat


def _reference_masks(g):
    """rows[d][u] has bit w set when g gives the pair (u, w) distance d,
    built from its edge list."""
    rows = [[0] * g.n for _ in range(g.delta + 1)]
    for u, v, d in g.edges():
        rows[d][u] |= 1 << v
        rows[d][v] |= 1 << u
    return rows


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


def test_every_eligible_magic_allows_each_triangle_with_two_sides_magic():
    # the engine's scan skips every triangle with two sides M, so the step
    # table of each admissible (tuple, eligible magic) pair must build, and
    # classify_triangle must agree that (M, M, c) is allowed for every c
    pairs = 0
    for delta in range(3, 13):
        for row in enumerate_admissible(delta):
            p = row.params
            for magic in sorted(eligible_magic(p)):
                _step_table.__wrapped__(p, magic)
                assert all(classify_triangle(p, magic, magic, c).allowed
                           for c in range(1, delta + 1))
                pairs += 1
    assert pairs == 3486


def test_the_step_table_refuses_a_forbidden_triangle_with_two_sides_magic(monkeypatch):
    masks = [list(row) for row in allowed_masks(P5)]
    masks[3][3] &= ~(1 << 5)
    monkeypatch.setattr(completion, "allowed_masks", lambda p: masks)
    with pytest.raises(InvariantViolation, match="two sides 3 is forbidden for"):
        _step_table.__wrapped__(P5, 3)


def _forks_by_target(p, magic):
    return {target: forks for _, target, forks in _steps(p, magic)}


def test_schedule_for_ii_b_tuple():
    assert [(step, target) for step, target, _ in _steps(P5, 3)] == \
        [(0, 5), (1, 1), (2, 4), (3, 2)]
    forks = _forks_by_target(P5, 3)
    assert forks[4] == {(1, 5): "minus", (5, 1): "minus"}
    assert forks[2] == {(1, 1): "plus", (5, 5): "cbound"}
    assert forks[1] == {}
    assert forks[5] == {}


def test_ii_b_low_rule_keeps_the_extreme_fork():
    # in case II-B the rule below the magic distance closes exactly the
    # (delta, delta) fork through its perimeter bound
    for key in II_B_KEYS:
        p = ParameterTuple(*key)
        magic = min(eligible_magic(p))
        low = _forks_by_target(p, magic)[magic - 1]
        assert [fork for fork, family in low.items() if family == "cbound"] == \
            [(p.delta, p.delta)]


def test_schedule_rejects_non_eligible_magic():
    with pytest.raises(InputError):
        _steps(ParameterTuple(3, 1, 2, 10, 9), 3)


def test_fork_rule_family_lookup():
    forks = _forks_by_target(P5, 3)
    assert forks[2][1, 1] == "plus"
    assert forks[2][5, 5] == "cbound"
    assert (1, 5) not in forks[2]
    assert forks[4][5, 1] == "minus"


def test_non_int_magic_is_refused_with_a_cold_and_a_warm_cache(monkeypatch):
    # 3.0 == 3 and both hash alike, so a cache that saw it first would hand
    # the float the int's steps, and [3] cannot be hashed at all: the gate
    # tests the type before the step table's cache sees the value, and the
    # sweep reads the table before it builds its scope
    monkeypatch.setattr(oracle, "scope_instances", lambda *args: pytest.fail("scope built"))
    g = fork_graph(1, 5, 5)
    _step_table.cache_clear()
    for _ in ("cold", "warm"):
        for magic in (3.0, [3]):
            with pytest.raises(InputError, match="not an eligible magic distance"):
                magic_complete(P5, magic, g)
            with pytest.raises(InputError, match="not an eligible magic distance"):
                run_verification_suite(P5, magic, RandomScope(1, seed=0))
        with pytest.raises(InputError):
            select_magic_parameter(P5, 3.0)
        assert magic_complete(P5, 3, g).completed.get(0, 2) == 4


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


def _two_pass_serialize_trace(trace):
    """serialize_trace as two passes over the records: derived steps, then
    the final fill."""
    p = trace.params
    lines = [f"magic M={trace.magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
    for record in trace.records:
        if record.family in ("plus", "minus", "cbound"):
            u, v = record.pair
            lines.append(f"step {record.step} set {u} {v} = {record.value} "
                         f"witness {record.witness} via {record.family}")
    for record in trace.records:
        if record.family == "final-M":
            u, v = record.pair
            lines.append(f"final {u} {v} = {record.value}")
    return "\n".join(lines) + "\n"


def _seeded_runs(seed, sizes):
    """(p, magic, outcome) of seeded random graphs on the II-A, II-B and III
    tuples, sparse ones (mostly completable) and dense ones (mostly not),
    their edges given in shuffled order."""
    rng = random.Random(seed)
    for key in [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13)]:
        p = ParameterTuple(*key)
        magic = select_magic_parameter(p).selected
        for n in sizes:
            for density in (0.1, 0.5):
                edges = [(u, v, rng.randint(1, p.delta))
                         for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
                rng.shuffle(edges)
                yield p, magic, magic_complete(p, magic, LabelledGraph(n, p.delta, edges))


def test_serialize_trace_matches_the_two_pass_reference():
    runs = [outcome for _, _, outcome in _seeded_runs(11, (2, 5, 12, 30))]
    assert {outcome.completable for outcome in runs} == {True, False}
    # the decimal table's edges: delta-32 labels and steps, and every trace
    # moved to the top of the vertex range, so that it names vertex 999
    top = ParameterTuple(32, 1, 31, 68, 67)
    rng = random.Random(32)
    runs += [magic_complete(top, 16, LabelledGraph(n, 32, [
        (u, v, rng.randint(1, 32)) for u, v in itertools.combinations(range(n), 2)
        if rng.random() < density])) for n in (3, 12, 40) for density in (0.1, 0.6)]
    traces = [outcome.trace for outcome in runs]
    assert max(record.value for trace in traces for record in trace.records) == 32
    for trace in list(traces):
        shift = MAX_VERTICES - trace.graph.n
        graph = LabelledGraph(MAX_VERTICES, trace.graph.delta, [
            (u + shift, v + shift, d) for u, v, d in trace.graph.edges()])
        traces.append(CompletionTrace(trace.params, trace.magic, graph, tuple(
            TraceRecord(r.step, (r.pair[0] + shift, r.pair[1] + shift), r.value,
                        r.witness + shift, r.family) for r in trace.derived),
            (0,) * shift + tuple(mask << shift for mask in trace.final)))
    assert any(f" {MAX_VERTICES - 1} " in serialize_trace(trace) for trace in traces)
    for trace in traces:
        assert serialize_trace(trace) == _two_pass_serialize_trace(trace)


def test_serialize_trace_writes_numbers_outside_the_table_with_str():
    # a hand-built trace may hold numbers no engine trace does: a negative
    # index must not read the table's other end, and a number above it must
    # not raise
    header = (P5, 3, LabelledGraph(3, 5))
    for record in [TraceRecord(1, (0, 2), 4, -1, "plus"),
                   TraceRecord(-7, (0, 1), 2, 1, "minus"),
                   TraceRecord(2, (0, 1500), 2, 1, "cbound"),
                   TraceRecord(None, (0, 1), -1001, 2, "plus"),
                   TraceRecord(3, (0, 1), 2, 10 ** 20, "minus")]:
        trace = CompletionTrace(*header, (TraceRecord(1, (0, 1), 2, 3, "plus"), record),
                                (0, 1 << 2, 0))
        assert serialize_trace(trace) == _two_pass_serialize_trace(trace)
    assert "witness -1 via plus" in serialize_trace(
        CompletionTrace(*header, (TraceRecord(1, (0, 2), 4, -1, "plus"),), (0, 0, 0)))


def test_completed_graph_is_built_in_pair_order():
    # the completed graph wraps the engine's matrix: every pair is labelled,
    # edges() lists them in pair order, and each label is the trace's
    for _, _, outcome in _seeded_runs(12, (0, 1, 4, 17, 40)):
        done = outcome.completed
        assert [(u, v) for u, v, _ in done.edges()] == list(
            itertools.combinations(range(done.n), 2))
        assert done == LabelledGraph(done.n, done.delta, [
            (*record.pair, record.value) for record in outcome.trace.records])
        assert done._mat == tuple(map(tuple, _reference_matrix(done)))


def test_trace_records_the_simultaneous_pass():
    g = cycle_to_graph(LabelledCycle((1, 1, 1, 5)), 5)
    outcome = magic_complete(P5, 3, g)
    by_pair = outcome.trace.by_pair()
    assert by_pair[(0, 2)].step == 2
    assert by_pair[(0, 2)].witness == 3
    assert by_pair[(1, 3)].step == 2
    assert by_pair[(1, 3)].witness == 0


def test_trace_record_is_an_immutable_tuple():
    outcome = magic_complete(P5, 3, cycle_to_graph(LabelledCycle((1, 1, 1, 5)), 5))
    assert TraceRecord._fields == ("step", "pair", "value", "witness", "family")
    record = outcome.trace.by_pair()[(0, 2)]
    assert (record.step, record.pair, record.value, record.witness, record.family) == (
        2, (0, 2), 4, 3, "minus")
    # a record compares equal to the plain tuple of its fields
    assert record == (2, (0, 2), 4, 3, "minus")
    assert outcome.trace.by_pair()[(0, 1)] == TraceRecord(None, (0, 1), 1, None, "input")
    assert outcome.trace.by_pair() == {r.pair: r for r in outcome.trace.records}
    with pytest.raises(AttributeError):
        record.value = 4
    # CompletionOutcome stays a dataclass
    other = dataclasses.replace(outcome, completable=False)
    assert other.trace is outcome.trace and not other.completable


def test_a_run_builds_no_record_or_triangle_until_asked():
    # the trace holds the input graph, the derived records and the final
    # masks, and the outcome the hit masks: serializing the trace and
    # pulling the obstacle back, as `complete --trace --obstacle` does, build
    # no record and no triangle tuple, and both lists, once asked for, equal
    # the ones the engine used to build eagerly
    p = ParameterTuple(5, 3, 3, 14, 13)
    rng = random.Random(14)
    for density in (0.35, 0.35, 0.6):
        g = LabelledGraph(80, 5, [(u, v, rng.randint(1, 5))
                                  for u, v in itertools.combinations(range(80), 2)
                                  if rng.random() < density])
        outcome = magic_complete(p, 3, g)
        assert not outcome.completable
        text = serialize_trace(outcome.trace)
        obstacle = _pull_back(outcome.trace, _first_triangle(outcome.forbidden_hits))
        assert "records" not in vars(outcome.trace)
        assert "forbidden_triangles" not in vars(outcome)
        derived = list(outcome.trace.derived)
        assert derived and all(record.family in ("plus", "minus", "cbound") for record in derived)
        eager = [TraceRecord(None, (u, v), d, None, "input") for u, v, d in g.edges()]
        eager += derived
        eager += [TraceRecord(None, (u, v), 3, None, "final-M")
                  for u, v in itertools.combinations(range(80), 2)
                  if not g.get(u, v) and (u, v) not in {record.pair for record in derived}]
        assert list(outcome.trace.records) == eager
        assert outcome.trace.by_pair() == {record.pair: record for record in eager}
        assert outcome.forbidden_triangles == tuple(forbidden_triangles(p, outcome.completed))
        assert text == _two_pass_serialize_trace(outcome.trace)
        assert obstacle == _pull_back(outcome.trace, outcome.forbidden_triangles[0])


CASE_KEYS = [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13)]  # II-A, II-B, III


@pytest.mark.parametrize("key", CASE_KEYS)
def test_engine_scan_matches_a_fresh_scan(key):
    # the engine scans its own masks after the final-M fill; a fresh scan of
    # the completed graph must list the same triangles in the same order.
    # Sparse inputs leave most pairs to the final fill; by m-edge provenance
    # no final-M edge is in a forbidden triangle.
    p = ParameterTuple(*key)
    magic = select_magic_parameter(p).selected
    rng = random.Random(sum(key))
    runs = 0
    for n in range(20, 41, 4):
        for density in (0.1, 0.2, 0.5):
            g = LabelledGraph(n, p.delta, [
                (u, v, rng.randint(1, p.delta))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
            outcome = magic_complete(p, magic, g)
            if outcome.completable:
                continue
            runs += 1
            assert outcome.forbidden_triangles == tuple(forbidden_triangles(p, outcome.completed))
            final = {r.pair for r in outcome.trace.records if r.family == "final-M"}
            assert final
            for u, v, w in outcome.forbidden_triangles:
                assert not {(u, v), (u, w), (v, w)} & final
    assert runs >= 15


@pytest.mark.parametrize("key", CASE_KEYS)
def test_the_scan_reads_the_completed_graphs_masks(monkeypatch, key):
    # after the final fill the engine hands its own masks to the scan; they
    # must be the completed graph's, both halves of every symmetric pair
    scanned = []
    scan = completion._forbidden_in

    def spy(tables, rows, mat, magic=0, first=False):
        scanned.append((rows, mat, magic))
        return scan(tables, rows, mat, magic, first)

    monkeypatch.setattr(completion, "_forbidden_in", spy)
    p = ParameterTuple(*key)
    magic = select_magic_parameter(p).selected
    rng = random.Random(sum(key))
    for n in (5, 6, 9, 16, 31, 50, 80):
        for density in (0.1, 0.4, 0.8):
            g = LabelledGraph(n, p.delta, [
                (u, v, rng.randint(1, p.delta))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
            outcome = magic_complete(p, magic, g)
            rows, mat, scanned_magic = scanned.pop()
            assert scanned_magic == magic
            assert rows == _reference_masks(outcome.completed)
            assert list(map(list, mat)) == _reference_matrix(outcome.completed)
    assert not scanned


def test_cascade_within_one_pass_is_refused(monkeypatch):
    # (0, 2) gets 2 through the fork 1-2 at vertex 1, which then closes the
    # same fork for (2, 3) at vertex 0: one simultaneous pass would not do
    forks = {(1, 2): "plus", (2, 1): "plus"}
    monkeypatch.setattr(completion, "_step_table", lambda p, magic: ((1, 2, forks),))
    g = LabelledGraph(4, 3, [(0, 1, 1), (1, 2, 2), (0, 3, 1)])
    with pytest.raises(InvariantViolation, match=r"cascade within one pass: pair \(2, 3\)"):
        magic_complete(P3, 2, g)


def test_cascade_onto_a_target_absent_before_the_pass_is_refused(monkeypatch):
    # label 2 is nowhere in the input, so only the (1, 1) fork is live in the
    # pass; (0, 2) and (1, 3) get 2, which closes the (1, 2) fork for (2, 3)
    forks = {(1, 1): "plus", (1, 2): "plus", (2, 1): "plus"}
    monkeypatch.setattr(completion, "_step_table", lambda p, magic: ((1, 2, forks),))
    g = LabelledGraph(4, 3, [(0, 1, 1), (1, 2, 1), (0, 3, 1)])
    with pytest.raises(InvariantViolation, match=r"cascade within one pass: pair \(2, 3\)"):
        magic_complete(P3, 2, g)


def _reference_family(p, magic, x, a, b):
    """The family of a path labelled a, b that forces distance x, from the
    three rules, or None."""
    if x < magic and a + b == x:
        return "plus"
    if x < magic and a + b == p.c - 1 - x:
        return "cbound"
    if x > magic and abs(a - b) == x:
        return "minus"
    return None


def _reference_complete(p, magic, g):
    """The staged completion on a pair -> distance dict: every pass tries
    every fork of its rule for every free pair and re-scans all of them
    after its assignments.  Returns the records and the forbidden triangles."""
    schedule = sorted((time_of(x, magic, p.delta), x)
                      for x in range(1, p.delta + 1) if x != magic)
    dist = {(u, v): d for u, v, d in g.edges()}
    records = [(None, pair, d, None, "input") for pair, d in dist.items()]
    pairs = list(itertools.combinations(range(g.n), 2))

    def witnesses(target):
        out = []
        for u, v in pairs:
            if (u, v) in dist:
                continue
            for w in range(g.n):
                a = dist.get((min(u, w), max(u, w)))
                b = dist.get((min(v, w), max(v, w)))
                family = a and b and _reference_family(p, magic, target, a, b)
                if family:
                    out.append((u, v, w, family))
                    break
        return out

    for step, target in schedule:
        found = witnesses(target)
        for u, v, w, family in found:
            dist[(u, v)] = target
            records.append((step, (u, v), target, w, family))
        if witnesses(target):
            raise InvariantViolation("cascade")
    for pair in pairs:
        if pair not in dist:
            dist[pair] = magic
            records.append((None, pair, magic, None, "final-M"))
    completed = LabelledGraph(g.n, g.delta, [(u, v, d) for (u, v), d in dist.items()])
    return records, tuple(forbidden_triangles(p, completed))


def test_passes_match_a_reference_over_every_fork():
    # the engine scans only the forks whose labels are present and re-scans
    # only the forks with the target label; the reference scans them all
    rng = random.Random(6)
    runs = 0
    for delta in range(3, 6):
        for row in enumerate_admissible(delta):
            p = row.params
            for magic in sorted(eligible_magic(p)):
                for n in range(3, 13):
                    g = LabelledGraph(n, delta, [
                        (u, v, rng.randint(1, delta))
                        for u, v in itertools.combinations(range(n), 2)
                        if rng.random() < 0.4])
                    outcome = magic_complete(p, magic, g)
                    assert (list(outcome.trace.records), outcome.forbidden_triangles) == \
                        _reference_complete(p, magic, g)
                    runs += 1
    assert runs > 500


def test_one_loop_masks_match_the_graph():
    rng = random.Random(4)
    for n in range(2, 12):
        g = LabelledGraph(n, 5, [(u, v, rng.randint(1, 5))
                                 for u, v in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        rows = _label_rows(g)
        for d in range(6):
            assert rows[d] == [sum(1 << w for w in range(n)
                                   if w != u and g.get(u, w) == d)
                               for u in range(n)]
    # a pass makes its target label present: no input pair has distance 7,
    # step 2 sets (0, 2) to 7 through the minus fork (1, 8), and step 4
    # needs that 7 for its minus fork (7, 1)
    p = ParameterTuple(8, 5, 5, 22, 21)
    g = LabelledGraph(4, 8, [(0, 1, 1), (1, 2, 8), (0, 3, 1)])
    records = magic_complete(p, 5, g).trace.records
    assert (2, (0, 2), 7, 1, "minus") in records
    assert (4, (2, 3), 6, 0, "minus") in records


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


def test_shortest_path_matches_floyd_warshall():
    rng = random.Random(0)
    for _ in range(200):
        delta, n = rng.randint(1, 8), rng.randint(0, 12)
        g = LabelledGraph(n, delta, [(u, v, rng.randint(1, delta))
                                     for u, v in itertools.combinations(range(n), 2)
                                     if rng.random() < 0.4])
        dist = [[0 if u == v else g.get(u, v) or delta for v in range(n)] for u in range(n)]
        for w, u, v in itertools.product(range(n), repeat=3):
            dist[u][v] = min(dist[u][v], dist[u][w] + dist[w][v])
        assert shortest_path_complete(delta, g).edges() == [
            (u, v, dist[u][v]) for u, v in itertools.combinations(range(n), 2)]
