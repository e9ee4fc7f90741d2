import collections
import dataclasses
import functools
import itertools
import random
import types

import pytest

import magic_completion
from magic_completion import (ExhaustiveScope, Failure, InputError, LabelledCycle,
                              LabelledGraph, ParameterTuple, RandomScope,
                              ResourceLimitError, brute_force_completable,
                              check_amalgamation,
                              check_instance, cycle_to_graph,
                              enumerate_all_completions, enumerate_members,
                              fork_graph, format_report, magic_complete,
                              run_verification_suite, serialize_graph,
                              shortest_path_complete)
from magic_completion import oracle
from magic_completion.oracle import (PROPERTY_ORDER, _value_counts,
                                     scope_instances)
from magic_completion.params import eligible_magic, enumerate_admissible
from magic_completion.space import classify_triangle

P5 = ParameterTuple(5, 3, 3, 16, 13)
P3 = ParameterTuple(3, 1, 3, 10, 11)


def _cube(p):
    """cube[a][b][c] is classify_triangle's verdict on (a, b, c), 1-based: the
    reference loops read it, not the oracle's own tables."""
    labels = range(p.delta + 1)
    return [[[bool(a and b and c) and classify_triangle(p, a, b, c).allowed
              for c in labels] for b in labels] for a in labels]


def _check(p, magic, g):
    reports = check_instance(p, magic, g)
    assert [r.name for r in reports] == list(PROPERTY_ORDER[:-1])
    return {r.name: r for r in reports}


def test_fork_completion_sets():
    comps = enumerate_all_completions(P5, fork_graph(1, 2, 5))
    assert sorted(h.get(0, 2) for h in comps.completions) == [1, 3]
    comps = enumerate_all_completions(P5, fork_graph(1, 5, 5))
    assert sorted(h.get(0, 2) for h in comps.completions) == [4]
    comps = enumerate_all_completions(P5, fork_graph(5, 5, 5))
    assert sorted(h.get(0, 2) for h in comps.completions) == [2, 4]


def test_forbidden_input_has_no_completion():
    g = cycle_to_graph(LabelledCycle((1, 1, 4)), 5)
    assert brute_force_completable(P5, g) is None
    assert enumerate_all_completions(P5, g).completions == ()


def test_first_completion_search_stops():
    # a leaf action that returns True ends the whole search, at every depth
    leaves = []
    total, _ = oracle._search(P5, LabelledGraph(4, 5), 6,
                              lambda assignment: leaves.append(list(assignment)) or True)
    assert (total, leaves) == (1, [[1, 1, 1, 2, 2, 2]])


def test_search_budget():
    with pytest.raises(ResourceLimitError):
        brute_force_completable(P5, LabelledGraph(8, 5), max_missing=10)


def test_empty_graph_completions_are_members():
    comps = enumerate_all_completions(P3, LabelledGraph(3, 3))
    assert len(comps.completions) == len(enumerate_members(P3, 3))
    values = {tuple(d for _, _, d in h.edges()) for h in comps.completions}
    assert (2, 2, 2) in values
    assert (1, 1, 3) not in values


# one tuple per admissible case, with its selected magic value: III, II-A, II-B
CASES = [(ParameterTuple(4, 1, 4, 14, 13), 2), (ParameterTuple(5, 3, 3, 14, 13), 3),
         (ParameterTuple(5, 3, 3, 16, 13), 3)]


@pytest.mark.parametrize("n", range(3, 7))
def test_value_counts_are_completion_columns(n):
    for p, magic in CASES:
        for g in scope_instances(p, magic, RandomScope(6, seed=n, vertices=n))[-6:]:
            completions = enumerate_all_completions(p, g).completions
            expected = [[sum(h.get(u, v) == d for h in completions)
                         for d in range(p.delta + 1)]
                        for u, v in g.missing_pairs()]
            assert _value_counts(p, g) == (len(completions), expected)


@pytest.mark.parametrize("p", [P3, ParameterTuple(3, 1, 2, 10, 9),
                               ParameterTuple(4, 1, 4, 14, 13)],
                         ids=["3-1-3", "3-1-2", "4-1-4"])
def test_search_matches_every_assignment(p):
    # the search prunes on the per-pair constraint lists; the reference
    # tries every assignment of the missing pairs and checks all triangles
    cube = _cube(p)
    magic = min(eligible_magic(p))
    for g in scope_instances(p, magic, RandomScope(40, seed=7))[-40:]:
        pairs = g.missing_pairs()
        if len(pairs) > 6:
            continue
        base = {(u, v): d for u, v, d in g.edges()}
        expected = []
        for values in itertools.product(range(1, p.delta + 1), repeat=len(pairs)):
            dist = {**base, **dict(zip(pairs, values))}
            if all(cube[dist[u, v]][dist[u, w]][dist[v, w]]
                   for u, v, w in itertools.combinations(range(g.n), 3)):
                expected.append(values)
        found = [tuple(h.get(u, v) for u, v in pairs)
                 for h in enumerate_all_completions(p, g).completions]
        assert found == expected
        assert _value_counts(p, g) == (len(expected), [
            [sum(values[i] == d for values in expected) for d in range(p.delta + 1)]
            for i in range(len(pairs))])


def test_value_counts_on_a_delta_32_fork():
    # one missing pair on a fork; three on a path, where the tally counts
    # the last pair's 33-bit value masks
    p = ParameterTuple(32, 1, 32, 98, 97)
    cube = _cube(p)
    for a, b in ((1, 1), (1, 32), (5, 20), (32, 32)):
        allowed = [0] + [int(cube[a][b][d]) for d in range(1, 33)]
        assert _value_counts(p, fork_graph(a, b, 32)) == (sum(allowed), [allowed])
    path = LabelledGraph(4, 32, [(0, 1, 3), (1, 2, 30), (2, 3, 17)])
    pairs = path.missing_pairs()
    base = {(u, v): d for u, v, d in path.edges()}
    expected = []
    for values in itertools.product(range(1, 33), repeat=len(pairs)):
        dist = {**base, **dict(zip(pairs, values))}
        if all(cube[dist[u, v]][dist[u, w]][dist[v, w]]
               for u, v, w in itertools.combinations(range(4), 3)):
            expected.append(values)
    assert expected
    assert _value_counts(p, path) == (len(expected), [
        [sum(values[i] == d for values in expected) for d in range(33)]
        for i in range(len(pairs))])


def test_engine_matches_oracle_on_forks():
    for a in range(1, 6):
        for b in range(a, 6):
            g = fork_graph(a, b, 5)
            allowed = {h.get(0, 2)
                       for h in enumerate_all_completions(P5, g).completions}
            chosen = magic_complete(P5, 3, g).completed.get(0, 2)
            assert chosen in allowed


def test_optimality_on_example():
    report = _check(P5, 3, fork_graph(2, 3, 5))["optimality"]
    assert report.passed
    assert report.instances == 1
    assert report.stats["clause1"] + report.stats["clause2"] > 0


@pytest.mark.parametrize("name, detail", [
    ("optimality", "pair (0, 3): engine=4 other=1 magic=3"),
    ("parity", "pair (0, 3): engine=4 other=1 differ in parity")],
    ids=["optimality", "parity"])
def test_wrong_derived_value_is_reported(monkeypatch, name, detail):
    # the engine gives all three missing pairs 3; the completions give (0, 3)
    # every value, so an engine value of 4 there breaks both properties
    g = LabelledGraph(4, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 2)])

    def wrong_at_0_3(p, magic, graph):
        outcome = magic_complete(p, magic, graph)
        edges = [(u, v, 4 if (u, v) == (0, 3) else d)
                 for u, v, d in outcome.completed.edges()]
        return dataclasses.replace(outcome, completed=LabelledGraph(4, 5, edges))

    assert magic_complete(P5, 3, g).completed.get(0, 3) == 3
    monkeypatch.setattr(oracle, "magic_complete", wrong_at_0_3)
    report = _check(P5, 3, g)[name]
    assert report.instances == 1
    assert report.failures == [Failure(serialize_graph(g), detail)]


@pytest.mark.parametrize("labels", [(1, 1, 5, 5, 5), (1, 1, 5)], ids=["cycle", "complete"])
def test_false_completable_verdict_is_reported(monkeypatch, labels):
    # the value tallies decide oracle equivalence on a completable verdict;
    # the triangle has no missing pair, so only the completion count can
    # tell that the search found nothing
    g = cycle_to_graph(LabelledCycle(labels), 5)
    assert not magic_complete(P5, 3, g).completable

    def claims_completable(p, magic, graph):
        return dataclasses.replace(magic_complete(p, magic, graph), completable=True)

    monkeypatch.setattr(oracle, "magic_complete", claims_completable)
    reports = _check(P5, 3, g)
    assert reports["oracle-equivalence"].failures == [
        Failure(serialize_graph(g), "engine says completable=True, search says False")]
    assert reports["optimality"].instances == 1
    assert reports["optimality"].stats == {"clause1": 0, "clause2": 0, "clause3": 0}


def test_complete_member_is_oracle_equivalent():
    g = magic_complete(P5, 3, cycle_to_graph(LabelledCycle((1, 5, 5, 5)), 5)).completed
    assert _value_counts(P5, g) == (1, [])
    reports = _check(P5, 3, g)
    assert reports["oracle-equivalence"].instances == 1
    assert all(r.passed for r in reports.values())


def test_parity_on_example():
    report = _check(P5, 3, fork_graph(1, 5, 5))["parity"]
    assert report.passed
    assert report.instances == 1


def test_automorphism_preservation_square():
    g = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 5)])
    report = _check(P5, 3, g)["automorphism-preservation"]
    assert report.passed
    assert report.stats["input-automorphisms"] == 4


def test_lost_non_identity_automorphism_is_reported(monkeypatch):
    # the square's automorphisms are (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)
    # and (3, 2, 1, 0); a diagonal of 4 against 5 breaks the second one
    g = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 5)])

    def short_diagonal(delta, graph):
        completed = shortest_path_complete(delta, graph)
        edges = [(u, v, 4 if (u, v) == (0, 2) else d) for u, v, d in completed.edges()]
        return LabelledGraph(graph.n, delta, edges)

    monkeypatch.setattr(oracle, "shortest_path_complete", short_diagonal)
    report = _check(P5, 3, g)["automorphism-preservation"]
    assert report.stats == {"input-automorphisms": 4}
    assert report.failures == [Failure(
        serialize_graph(g), "permutation (1, 0, 3, 2) lost by shortest-path completion")]


def test_shortest_path_completion_only_for_symmetric_inputs(monkeypatch):
    # only the identity preserves a path with distinct labels, so there is
    # nothing for the shortest-path completion to be checked against
    calls = []

    def counted(delta, graph):
        calls.append(graph)
        return shortest_path_complete(delta, graph)

    monkeypatch.setattr(oracle, "shortest_path_complete", counted)
    rigid = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    report = _check(P5, 3, rigid)["automorphism-preservation"]
    assert (report.instances, report.stats, calls) == (1, {"input-automorphisms": 1}, [])
    symmetric = fork_graph(2, 2, 5)
    report = _check(P5, 3, symmetric)["automorphism-preservation"]
    assert (report.instances, report.stats, calls) == (
        1, {"input-automorphisms": 2}, [symmetric])


def _reference_extend_member(p, magic, rng, base, size):
    # the draw as first written: every candidate value is tested against
    # every earlier vertex with classify_triangle's verdicts
    cube = _cube(p)
    mat = [[0] * size for _ in range(size)]
    for u, v, d in base.edges():
        mat[u][v] = mat[v][u] = d
    for v in range(base.n, size):
        for u in range(v):
            options = [val for val in range(1, p.delta + 1)
                       if all(not mat[u][w] or not mat[v][w]
                              or cube[val][mat[u][w]][mat[v][w]]
                              for w in range(v))]
            if not options:
                for w in range(v):
                    mat[w][v] = mat[v][w] = magic
                break
            mat[u][v] = mat[v][u] = rng.choice(options)
    return LabelledGraph(size, p.delta, [
        (u, v, mat[u][v]) for u, v in itertools.combinations(range(size), 2) if mat[u][v]])


def test_extend_member_matches_the_reference_draw():
    seeds = random.Random(7)
    draws = 0
    for delta in range(3, 6):
        for row in enumerate_admissible(delta):
            p = row.params
            for magic in sorted(eligible_magic(p)):
                for size in range(8):
                    seed = seeds.randrange(2 ** 32)
                    bases = [LabelledGraph(0, delta), _reference_extend_member(
                        p, magic, random.Random(seed), LabelledGraph(0, delta), size // 2)]
                    for base in bases:
                        ours, theirs = random.Random(seed + 1), random.Random(seed + 1)
                        assert oracle._extend_member(p, magic, ours, base, size) == \
                            _reference_extend_member(p, magic, theirs, base, size)
                        assert ours.random() == theirs.random()
                        draws += 1
    assert draws > 1000


def test_m_edge_provenance_on_uncompletable_input():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    reports = _check(P5, 3, g)
    assert all(r.passed for r in reports.values())
    # optimality and parity only apply to completable inputs
    assert {name: r.instances for name, r in reports.items()} == {
        "oracle-equivalence": 1, "optimality": 0, "parity": 0,
        "automorphism-preservation": 1, "m-edge-provenance": 1,
        "obstacle-extraction": 1}


def test_package_exports():
    assert "check_instance" in magic_completion.__all__
    assert not any(isinstance(getattr(magic_completion, name), types.ModuleType)
                   for name in magic_completion.__all__)


def test_amalgamation_example():
    a = LabelledGraph(1, 3)
    b1 = LabelledGraph(2, 3, [(0, 1, 1)])
    b2 = LabelledGraph(2, 3, [(0, 1, 3)])
    oracle._check_parts(P3, a, b1, b2, (0,), (0,))
    oracle._require_members(P3, b1, b2)
    glued = oracle._glue(P3, a, b1, b2, (0,), (0,))
    assert glued == LabelledGraph(3, 3, [(0, 1, 1), (0, 2, 3)])
    outcome = magic_complete(P3, 2, glued)
    assert outcome.completable
    assert outcome.completed.n == 3
    assert outcome.completed.get(0, 1) == 1
    assert outcome.completed.get(0, 2) == 3


def test_amalgamate_validates_embeddings():
    a = LabelledGraph(2, 3, [(0, 1, 1)])
    b = LabelledGraph(2, 3, [(0, 1, 2)])
    with pytest.raises(InputError, match="emb1 does not preserve labels"):
        oracle._check_parts(P3, a, b, b, (0, 1), (0, 1))
    with pytest.raises(InputError, match="emb1 is not an injection"):
        oracle._check_parts(P3, a, b, b, (0, 0), (0, 1))
    partial = LabelledGraph(3, 3, [(0, 1, 1)])
    with pytest.raises(InputError, match="b1 must be a complete graph"):
        oracle._check_parts(P3, a, partial, partial, (0, 1), (0, 1))
    with pytest.raises(InputError, match="embedding maps outside its target"):
        oracle._check_embedding(a, "embedding", (0, 2), b)


def test_amalgamate_rejects_non_members():
    bad = cycle_to_graph(LabelledCycle((1, 1, 3)), 3)
    a = LabelledGraph(0, 3)
    oracle._check_parts(P3, a, bad, bad, (), ())
    with pytest.raises(InputError, match="must belong to the class"):
        oracle._require_members(P3, bad, bad)
    oracle._require_members(P3, a, LabelledGraph(2, 3, [(0, 1, 3)]))


def test_members_enumeration():
    singles = enumerate_members(P3, 1)
    assert len(singles) == 1
    pairs = enumerate_members(P3, 2)
    assert len(pairs) == 3
    triples = enumerate_members(P3, 3)
    assert all(len(t.edges()) == 3 for t in triples)
    # delta^3 orderings minus the labellings of the one forbidden triple
    assert len(triples) == 27 - 3


def test_exhaustive_scope_size():
    instances = scope_instances(P3, 2, ExhaustiveScope(3))
    assert len(instances) == 4 ** 3
    assert len({i for i in map(repr, instances)}) == 64


def test_scopes_refuse_a_vertex_count_out_of_range():
    # the instances wrap matrices without re-validation, so the vertex count
    # is checked once per scope, before any instance is drawn
    for scope in (ExhaustiveScope(-1), RandomScope(0, seed=1, vertices=-1)):
        with pytest.raises(InputError, match="vertex count must be a non-negative"):
            scope_instances(P3, 2, scope)
    with pytest.raises(ResourceLimitError, match="1001 vertices exceed"):
        scope_instances(P3, 2, RandomScope(1, seed=1, vertices=1001))


def test_random_scope_prepends_forks_and_is_deterministic():
    a = scope_instances(P5, 3, RandomScope(20, seed=9))
    b = scope_instances(P5, 3, RandomScope(20, seed=9))
    assert a == b
    assert a[:15] == [fork_graph(x, y, 5)
                      for x in range(1, 6) for y in range(x, 6)]
    assert len(a) == 35
    c = scope_instances(P5, 3, RandomScope(20, seed=10))
    assert a != c


def test_suite_exhaustive_small():
    reports = run_verification_suite(P3, 2, ExhaustiveScope(3))
    assert [r.name for r in reports] == list(PROPERTY_ORDER)
    assert all(r.passed for r in reports)
    by_name = {r.name: r for r in reports}
    assert by_name["oracle-equivalence"].instances == 64
    assert by_name["m-edge-provenance"].instances == 3
    assert by_name["obstacle-extraction"].instances == 3
    assert by_name["amalgamation"].instances > 1000


def test_suite_random_smoke():
    reports = run_verification_suite(P5, 3, RandomScope(40, seed=3))
    assert all(r.passed for r in reports)
    by_name = {r.name: r for r in reports}
    assert by_name["oracle-equivalence"].instances == 55
    assert by_name["optimality"].stats["clause1"] > 0


def test_suite_random_stats_are_pinned():
    by_name = {r.name: r for r in run_verification_suite(P5, 3, RandomScope(60, seed=8))}
    assert all(r.passed for r in by_name.values())
    assert by_name["optimality"].instances == 51
    assert by_name["optimality"].stats == {
        "clause1": 160208, "clause2": 64752, "clause3": 104}
    assert by_name["parity"].stats == {"parity-exception": 0}
    assert by_name["automorphism-preservation"].stats == {"input-automorphisms": 90}


def test_suite_skips_automorphisms_of_graphs_over_budget():
    # two random instances on 10 vertices, one above AUTOMORPHISM_BUDGET:
    # their automorphism check is skipped, the six fork instances count
    by_name = {r.name: r for r in run_verification_suite(
        ParameterTuple(3, 1, 2, 10, 9), 2, RandomScope(2, 1, vertices=10))}
    assert len(by_name) == 7
    report = by_name["automorphism-preservation"]
    assert (report.instances, report.stats["skipped"]) == (6, 2)
    assert report.passed


def test_suite_parallel_matches_serial():
    serial = run_verification_suite(P3, 2, RandomScope(25, seed=5))
    parallel = run_verification_suite(P3, 2, RandomScope(25, seed=5), jobs=2)
    assert [(r.name, r.instances, r.stats) for r in serial] == \
        [(r.name, r.instances, r.stats) for r in parallel]


def test_suite_rejects_bad_magic():
    with pytest.raises(InputError):
        run_verification_suite(P5, 2, ExhaustiveScope(3))


def test_suite_refuses_jobs_before_building_the_scope(monkeypatch):
    monkeypatch.setattr(oracle, "scope_instances", lambda *args: pytest.fail("scope built"))
    with pytest.raises(InputError, match="jobs must be between 1 and"):
        run_verification_suite(P3, 2, RandomScope(99990, seed=0), jobs=0)


def test_format_report_shape():
    reports = run_verification_suite(P3, 2, RandomScope(5, seed=1))
    text = format_report(reports[0])
    # six fork instances for delta=3 plus the five random ones
    assert text.startswith("PROPERTY oracle-equivalence instances=11 failures=0\n")


def test_check_amalgamation_small():
    report = check_amalgamation(P3, 2)
    assert report.passed
    assert report.instances == 15518


# the exhaustive sweep of criterion 9, and 250 seeded draws on the same tuple
EXHAUSTIVE_SWEEP = functools.partial(check_amalgamation, ParameterTuple(3, 1, 2, 10, 9), 2)
RANDOM_SWEEP = functools.partial(oracle._random_amalgamation, ParameterTuple(3, 1, 2, 10, 9),
                                 2, RandomScope(250, seed=3))


def _recorded_amalgamation(monkeypatch, engine, sweep):
    """sweep() under `engine`, with the sides, the embeddings and the glued
    graph of every amalgam in sweep order."""
    glued_list = []

    def recording_glue(p, a, b1, b2, emb1, emb2):
        glued = glue(p, a, b1, b2, emb1, emb2)
        glued_list.append((a, b1, b2, emb1, emb2, glued))
        return glued

    glue = oracle._glue
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_glue", recording_glue)
        patch.setattr(oracle, "magic_complete", engine)
        return sweep(), glued_list


def test_check_amalgamation_runs_the_engine_once_per_glued_graph(monkeypatch):
    calls = []

    def counted(p, magic, g):
        calls.append(g)
        return magic_complete(p, magic, g)

    report, glued = _recorded_amalgamation(monkeypatch, counted, EXHAUSTIVE_SWEEP)
    assert (report.instances, report.failures) == (11438, [])
    assert len(calls) == len(set(calls)) == 2545
    assert set(calls) == {g for *_, g in glued}


def test_random_amalgamation_runs_the_engine_once_per_glued_graph(monkeypatch):
    calls = []

    def counted(p, magic, g):
        calls.append(g)
        return magic_complete(p, magic, g)

    report, glued = _recorded_amalgamation(monkeypatch, counted, RANDOM_SWEEP)
    assert (report.instances, report.failures, len(glued)) == (250, [], 250)
    assert len(calls) == len(set(calls)) == 103
    assert set(calls) == {g for *_, g in glued}
    # every draw glues its two sides along the identity on a
    assert all(e1 == e2 == tuple(range(a.n)) for a, _, _, e1, e2, _ in glued)


def test_every_amalgam_of_a_failing_glued_graph_is_reported(monkeypatch):
    report, glued, target, times = _failing_on_the_most_shared_graph(monkeypatch,
                                                                     EXHAUSTIVE_SWEEP)
    assert report.instances == 11438
    assert report.failures == [
        Failure(serialize_graph(g),
                f"amalgam over a={a.edges()} with b1={b1.edges()} emb1={e1} "
                f"b2={b2.edges()} emb2={e2} is uncompletable")
        for a, b1, b2, e1, e2, g in glued if g == target]
    # each failing amalgam has its own detail text
    assert len({failure.detail for failure in report.failures}) == len(report.failures) == times


def _failing_on_the_most_shared_graph(monkeypatch, sweep):
    """sweep() and its amalgams, with the engine made to fail on the glued
    graph that the most amalgams share, and on it alone; then that graph and
    the number of amalgams that share it."""
    _, glued = _recorded_amalgamation(monkeypatch, magic_complete, sweep)
    target, times = collections.Counter(g for *_, g in glued).most_common(1)[0]
    assert times > 1

    def fails_on_target(p, magic, g):
        outcome = magic_complete(p, magic, g)
        return dataclasses.replace(outcome, completable=False) if g == target else outcome

    report, again = _recorded_amalgamation(monkeypatch, fails_on_target, sweep)
    assert again == glued
    return report, glued, target, times


def test_every_failing_random_draw_is_reported(monkeypatch):
    report, glued, target, times = _failing_on_the_most_shared_graph(monkeypatch,
                                                                     RANDOM_SWEEP)
    assert report.instances == 250
    assert report.failures == [
        Failure(serialize_graph(g), f"amalgam over a={a.edges()} is uncompletable")
        for a, _, _, _, _, g in glued if g == target]
    assert len(report.failures) == times == 25
