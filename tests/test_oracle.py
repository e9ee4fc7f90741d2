import collections
import dataclasses
import functools
import itertools
import random
import tracemalloc
import types

import pytest

import magic_completion
from magic_completion import (ExhaustiveScope, Failure, InputError,
                              InvariantViolation, LabelledCycle,
                              LabelledGraph, ParameterTuple, RandomScope,
                              ResourceLimitError, brute_force_completable,
                              check_amalgamation,
                              check_instance, cycle_to_graph,
                              enumerate_all_completions, enumerate_members,
                              enumerate_uncompletable_cycles,
                              fork_graph, format_report, magic_complete,
                              run_verification_suite, serialize_graph,
                              shortest_path_complete)
from magic_completion import obstacles, oracle
from magic_completion.oracle import (ENUM_BUDGET, PROPERTY_ORDER, _search,
                                     scope_instances)
from magic_completion.params import (classify_admissible, eligible_magic,
                                     enumerate_admissible)
from magic_completion.space import allowed_masks, classify_triangle, is_member

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
    g, leaves = LabelledGraph(4, 5), []
    total, _ = _search(P5, g, 6, lambda mat: leaves.append(
        [mat[u][v] for u, v in g.missing_pairs()]) or True)
    assert (total, leaves) == (1, [[1, 1, 1, 2, 2, 2]])


def test_search_budget():
    with pytest.raises(ResourceLimitError,
                       match="28 missing pairs exceed the search budget of 18"):
        brute_force_completable(P5, LabelledGraph(8, 5))


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
        for g in list(scope_instances(p, RandomScope(6, seed=n, vertices=n)))[-6:]:
            completions = enumerate_all_completions(p, g).completions
            expected = [[sum(h.get(u, v) == d for h in completions)
                         for d in range(p.delta + 1)]
                        for u, v in g.missing_pairs()]
            assert _search(p, g, ENUM_BUDGET) == (len(completions), expected)


@pytest.mark.parametrize("p", [P3, ParameterTuple(3, 1, 2, 10, 9),
                               ParameterTuple(4, 1, 4, 14, 13)],
                         ids=["3-1-3", "3-1-2", "4-1-4"])
def test_search_matches_every_assignment(p):
    # the search prunes on the label matrix it fills; the reference
    # tries every assignment of the missing pairs and checks all triangles
    cube = _cube(p)
    magic = min(eligible_magic(p))
    for g in list(scope_instances(p, RandomScope(40, seed=7)))[-40:]:
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
        assert _search(p, g, ENUM_BUDGET) == (len(expected), [
            [sum(values[i] == d for values in expected) for d in range(p.delta + 1)]
            for i in range(len(pairs))])


def test_value_counts_on_a_delta_32_fork():
    # one missing pair on a fork; three on a path, where the tally counts
    # the last pair's 33-bit value masks
    p = ParameterTuple(32, 1, 32, 98, 97)
    cube = _cube(p)
    for a, b in ((1, 1), (1, 32), (5, 20), (32, 32)):
        allowed = [0] + [int(cube[a][b][d]) for d in range(1, 33)]
        assert _search(p, fork_graph(a, b, 32), ENUM_BUDGET) == (sum(allowed), [allowed])
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
    assert _search(p, path, ENUM_BUDGET) == (len(expected), [
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


def _permuted(g, perm):
    return LabelledGraph(g.n, g.delta, [(perm[u], perm[v], d) for u, v, d in g.edges()])


def test_engine_matches_the_oracle_over_the_catalogue():
    # every admissible (tuple, magic) pair of delta 3..8, on seeded graphs:
    # the engine's verdict is the search's, it does not depend on which
    # eligible value is used, and both completions commute with relabelling
    rng = random.Random(1)
    pairs = [(row.params, magic) for delta in range(3, 9)
             for row in enumerate_admissible(delta)
             for magic in sorted(eligible_magic(row.params))]
    assert collections.Counter(classify_admissible(p).case_tag for p, _ in pairs) == {
        "III": 656, "II-A": 10, "II-B": 3}
    completable = 0
    for p, magic in pairs:
        for _ in range(4):
            g = oracle._random_instance(p, rng, LabelledGraph(rng.randint(3, 5), p.delta))
            verdict = magic_complete(p, magic, g).completable
            assert verdict == (brute_force_completable(p, g) is not None), (p, magic, g.edges())
            completable += verdict
    assert completable == 2121
    multi = list(dict.fromkeys(p for p, _ in pairs if len(eligible_magic(p)) > 1))
    assert len(multi) == 223
    for p in multi:
        for _ in range(4):
            g = oracle._random_instance(p, rng, LabelledGraph(rng.randint(3, 6), p.delta))
            assert len({magic_complete(p, magic, g).completable
                        for magic in eligible_magic(p)}) == 1, (p, g.edges())
    for p, magic in pairs:
        g = oracle._random_instance(p, rng, LabelledGraph(rng.randint(3, 6), p.delta))
        perm = rng.sample(range(g.n), g.n)
        moved = _permuted(g, perm)
        assert magic_complete(p, magic, moved).completed == \
            _permuted(magic_complete(p, magic, g).completed, perm), (p, magic, g.edges())
        assert shortest_path_complete(p.delta, moved) == \
            _permuted(shortest_path_complete(p.delta, g), perm), (p, g.edges())


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
    assert _search(P5, g, ENUM_BUDGET) == (1, [])
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
                        assert oracle._extend_member(p, ours, base, size) == \
                            _reference_extend_member(p, magic, theirs, base, size)
                        assert ours.random() == theirs.random()
                        draws += 1
    assert draws > 1000


def test_extend_member_refuses_a_dead_end(monkeypatch):
    # strong amalgamation leaves every drawn pair an allowed value, so a dead
    # end means a broken triangle table; here two given sides allow nothing
    full = allowed_masks(P5)[0][0]
    broken = tuple(tuple(0 if a and b else full for b in range(6)) for a in range(6))
    monkeypatch.setattr(oracle, "allowed_masks", lambda p: broken)
    with pytest.raises(InvariantViolation,
                       match=r"pair \(1, 2\) of a member of \(5, 3, 3, 16, 13\)"):
        oracle._extend_member(P5, random.Random(1), LabelledGraph(0, 5), 3)


def test_m_edge_provenance_on_uncompletable_input():
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    reports = _check(P5, 3, g)
    assert all(r.passed for r in reports.values())
    # optimality and parity only apply to completable inputs
    assert {name: r.instances for name, r in reports.items()} == {
        "oracle-equivalence": 1, "optimality": 0, "parity": 0,
        "automorphism-preservation": 1, "m-edge-provenance": 1,
        "obstacle-extraction": 1}


def test_provenance_names_a_derived_magic_edge_in_a_bad_triangle():
    # (5, 5, 3) has perimeter 13 >= C1 = 13 and odd, so it is forbidden, and
    # its magic edge (1, 2) is not an input edge
    g = LabelledGraph(3, 5, [(0, 1, 5), (0, 2, 5)])
    completed = LabelledGraph(3, 5, [(0, 1, 5), (0, 2, 5), (1, 2, 3)])
    assert oracle._provenance_details(P5, 3, g, completed) == [
        "triangle (0, 1, 2) uses derived magic edge (1, 2)"]


def test_instance_reports_a_permutation_lost_by_the_engine(monkeypatch):
    # the staged completion is checked before the shortest-path one
    monkeypatch.setattr(oracle, "is_automorphism", lambda g, perm: False)
    g = LabelledGraph(3, 5, [(0, 1, 1), (0, 2, 1)])
    report = _check(P5, 3, g)["automorphism-preservation"]
    assert (report.instances, report.stats) == (1, {"input-automorphisms": 2})
    assert report.failures == [
        Failure(serialize_graph(g), "permutation (0, 2, 1) lost by staged completion")]


def test_instance_reports_an_invalid_obstacle_hom(monkeypatch):
    monkeypatch.setattr(oracle, "validate_obstacle_hom", lambda g, obstacle: False)
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    report = _check(P5, 3, g)["obstacle-extraction"]
    assert report.instances == 1
    assert report.failures == [
        Failure(serialize_graph(g), "invalid homomorphism for obstacle (1, 1, 5, 5, 5)")]


def test_instance_skips_an_obstacle_check_over_budget(monkeypatch):
    def over_budget(p, labels):
        raise ResourceLimitError("over budget")

    monkeypatch.setattr(oracle, "_cycle_uncompletable", over_budget)
    report = _check(P5, 3, cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5))[
        "obstacle-extraction"]
    assert (report.instances, report.failures, report.stats) == (0, [], {"skipped": 1})


def test_package_exports():
    assert "check_instance" in magic_completion.__all__
    assert not any(isinstance(getattr(magic_completion, name), types.ModuleType)
                   for name in magic_completion.__all__)


def test_amalgamation_example():
    a = LabelledGraph(1, 3)
    b1 = LabelledGraph(2, 3, [(0, 1, 1)])
    b2 = LabelledGraph(2, 3, [(0, 1, 3)])
    glued = oracle._glue(P3, a, b1, b2, (0,), (0,))
    assert glued == LabelledGraph(3, 3, [(0, 1, 1), (0, 2, 3)])
    outcome = magic_complete(P3, 2, glued)
    assert outcome.completable
    assert outcome.completed.n == 3
    assert outcome.completed.get(0, 1) == 1
    assert outcome.completed.get(0, 2) == 3


def test_members_enumeration():
    singles = enumerate_members(P3, 1)
    assert len(singles) == 1
    pairs = enumerate_members(P3, 2)
    assert len(pairs) == 3
    triples = enumerate_members(P3, 3)
    assert all(len(t.edges()) == 3 for t in triples)
    # delta^3 orderings minus the labellings of the one forbidden triple
    assert len(triples) == 27 - 3


def test_members_enumeration_keeps_the_search_budget():
    # 10 missing pairs on 5 vertices, 15 on 6: over ENUM_BUDGET, the search
    # is refused before it starts
    p = ParameterTuple(3, 1, 2, 10, 9)
    assert len(enumerate_members(p, 5)) == 8071
    for size in (6, 7):
        pairs = size * (size - 1) // 2
        with pytest.raises(ResourceLimitError, match=(
                f"^{pairs} missing pairs exceed the search budget of {oracle.ENUM_BUDGET}$")):
            enumerate_members(p, size)


def test_exhaustive_scope_size():
    instances = list(scope_instances(P3, ExhaustiveScope(3)))
    assert len(instances) == 4 ** 3
    assert len({i for i in map(repr, instances)}) == 64


def test_scopes_refuse_a_vertex_count_out_of_range():
    # the instances wrap matrices without re-validation, so the vertex count
    # is checked once per scope, before any instance is drawn
    for scope in (ExhaustiveScope(-1), RandomScope(0, seed=1, vertices=-1)):
        with pytest.raises(InputError, match="vertex count must be a non-negative"):
            scope_instances(P3, scope)
    with pytest.raises(ResourceLimitError, match="1001 vertices exceed"):
        scope_instances(P3, RandomScope(1, seed=1, vertices=1001))


def test_random_scope_prepends_forks_and_is_deterministic():
    a = list(scope_instances(P5, RandomScope(20, seed=9)))
    b = list(scope_instances(P5, RandomScope(20, seed=9)))
    assert a == b
    assert a[:15] == [fork_graph(x, y, 5)
                      for x in range(1, 6) for y in range(x, 6)]
    assert len(a) == 35
    c = list(scope_instances(P5, RandomScope(20, seed=10)))
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


@pytest.mark.parametrize("key, magic, count, instances, optimality, clauses, auts", [
    ((5, 3, 3, 14, 13), 3, 200, 215, 125, (1373650, 600439), 283),
    ((8, 5, 5, 22, 21), 5, 60, 96, 67, (10942045, 6784324), 114)],
    ids=["5-3-3-14-13", "8-5-5-22-21"])
def test_suite_ii_a_stats_are_pinned(key, magic, count, instances, optimality,
                                     clauses, auts):
    # two case II-A tuples, which no other sweep test reaches
    p = ParameterTuple(*key)
    assert classify_admissible(p).case_tag == "II-A"
    by_name = {r.name: r for r in run_verification_suite(p, magic, RandomScope(count, seed=1))}
    assert all(r.passed for r in by_name.values())
    assert by_name["oracle-equivalence"].instances == instances
    assert by_name["optimality"].instances == optimality
    assert by_name["optimality"].stats == {
        "clause1": clauses[0], "clause2": clauses[1], "clause3": 0}
    assert by_name["parity"].stats == {"parity-exception": 0}
    assert by_name["automorphism-preservation"].stats == {"input-automorphisms": auts}


def test_suite_counts_parity_exceptions():
    # (5,3,5,14,15) with M = 4 meets the parity exception's condition: case
    # III, C = 2 delta + k1 + 1 != 2 k1 + 2 k2 + 1 and M > k1 > 1.  Every
    # pair the engine sets to k1 whose other completions differ in parity is
    # counted here, and would fail the parity check without the exception
    by_name = {r.name: r for r in run_verification_suite(
        ParameterTuple(5, 3, 5, 14, 15), 4, RandomScope(150, seed=1))}
    assert all(r.passed for r in by_name.values())
    assert (by_name["parity"].instances, by_name["parity"].stats) == (
        107, {"parity-exception": 3760})
    assert by_name["optimality"].stats == {
        "clause1": 1942306, "clause2": 2516994, "clause3": 0}


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


def test_suite_refuses_an_unknown_scope():
    with pytest.raises(InputError, match="unknown scope 'everything'"):
        run_verification_suite(P3, 2, "everything")


def test_sweep_memory_does_not_grow_with_the_scope():
    # each instance is drawn when it is checked and its findings are merged
    # at once, so four times the instances leave the traced peak about level;
    # an untraced run first fills the caches and the interpreter's free
    # lists, so that the traced peaks count only what each sweep holds
    p = ParameterTuple(3, 1, 2, 10, 9)
    run_verification_suite(p, 2, RandomScope(1200, seed=1))
    peaks = []
    for count in (300, 1200):
        tracemalloc.start()
        try:
            run_verification_suite(p, 2, RandomScope(count, seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_suite_refuses_jobs_before_building_the_scope(monkeypatch):
    monkeypatch.setattr(oracle, "scope_instances", lambda *args: pytest.fail("scope built"))
    with pytest.raises(InputError, match="jobs must be between 1 and"):
        run_verification_suite(P3, 2, RandomScope(99990, seed=0), jobs=0)


# sizes of the library's sweeps and catalogues that are not an int: each
# is refused with InputError before any instance or cycle is checked
BAD_SIZES = {
    "exhaustive-vertices-2.5": lambda: run_verification_suite(P3, 2, ExhaustiveScope(2.5)),
    "exhaustive-vertices-True": lambda: run_verification_suite(P3, 2, ExhaustiveScope(True)),
    "random-count-2.0": lambda: run_verification_suite(P3, 2, RandomScope(2.0, 1)),
    "random-count-True": lambda: run_verification_suite(P3, 2, RandomScope(True, 1)),
    "random-seed-x": lambda: run_verification_suite(P3, 2, RandomScope(2, "x")),
    "random-vertices-5.0": lambda: run_verification_suite(P3, 2, RandomScope(2, 1, 5.0)),
    "suite-jobs-1.0": lambda: run_verification_suite(P3, 2, RandomScope(2, 1), jobs=1.0),
    "suite-jobs-True": lambda: run_verification_suite(P3, 2, RandomScope(2, 1), jobs=True),
    "cycles-jobs-2.0": lambda: enumerate_uncompletable_cycles(P3, 2, 4, jobs=2.0),
    "cycles-jobs-True": lambda: enumerate_uncompletable_cycles(P3, 2, 4, jobs=True),
    "cycles-length-4.0": lambda: enumerate_uncompletable_cycles(P3, 2, 4.0),
}


@pytest.mark.parametrize("call", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_sizes_that_are_not_an_int_are_refused_before_any_run(monkeypatch, call):
    for module in (oracle, obstacles):
        monkeypatch.setattr(module, "magic_complete", lambda *args: pytest.fail("ran"))
    with pytest.raises(InputError, match="must be an integer|must be between 1 and"):
        call()


def test_format_report_shape():
    reports = run_verification_suite(P3, 2, RandomScope(5, seed=1))
    text = format_report(reports[0])
    # six fork instances for delta=3 plus the five random ones
    assert text.startswith("PROPERTY oracle-equivalence instances=11 failures=0\n")


def test_check_amalgamation_small():
    report = check_amalgamation(P3, 2)
    assert report.passed
    assert report.instances == 15518


def _reference_glue(p, a, b1, b2, emb1, emb2):
    # the glue as first written: b2's pairs inside the shared part are
    # skipped, so they keep b1's labels
    fresh = itertools.count(b1.n)
    mapping = {y: emb1[emb2.index(y)] if y in emb2 else next(fresh) for y in range(b2.n)}
    edges = b1.edges() + [(mapping[x], mapping[y], d) for x, y, d in b2.edges()
                          if not (x in emb2 and y in emb2)]
    return LabelledGraph(b1.n + b2.n - a.n, p.delta, edges)


def _admissible_pairs():
    """Every admissible (tuple, magic) pair of delta 3..5."""
    return [(row.params, magic) for delta in range(3, 6)
            for row in enumerate_admissible(delta)
            for magic in sorted(eligible_magic(row.params))]


def test_glue_matches_the_reference_on_every_swept_amalgam():
    # writing a shared pair again is harmless only because both sides agree
    # on it; the reference keeps b1's label and so tells them apart
    p = ParameterTuple(3, 1, 2, 10, 9)
    amalgams = 0
    for parts in oracle._all_amalgams(p):
        assert oracle._glue(p, *parts) == _reference_glue(p, *parts)
        amalgams += 1
    assert amalgams == 11438
    seeds = random.Random(5)
    for p, _ in _admissible_pairs():
        scope = RandomScope(250, seeds.randrange(2 ** 32))
        for parts in oracle._drawn_amalgams(p, scope):
            assert oracle._glue(p, *parts) == _reference_glue(p, *parts)


def test_swept_sides_are_members():
    # neither sweep checks its sides: the draws and the enumeration must
    # build members of the class, complete and of the tuple's delta
    seeds = random.Random(6)
    tuples = set()
    for p, _ in _admissible_pairs():
        tuples.add(p)
        scope = RandomScope(250, seeds.randrange(2 ** 32))
        for _, b1, b2, _, _ in oracle._drawn_amalgams(p, scope):
            assert is_member(p, b1) and is_member(p, b2)
    for p in tuples:
        for size in range(oracle.AMALGAM_PART_SIZE + 1):
            assert all(is_member(p, b) for b in enumerate_members(p, size))


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
