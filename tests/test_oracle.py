import itertools
import types

import pytest

import magic_completion
from magic_completion import (ExhaustiveScope, InputError, LabelledCycle,
                              LabelledGraph, ParameterTuple, RandomScope,
                              ResourceLimitError, amalgamate,
                              brute_force_completable, check_amalgamation,
                              check_instance, cycle_to_graph,
                              enumerate_all_completions, enumerate_members,
                              fork_graph, format_report, magic_complete,
                              run_verification_suite)
from magic_completion.oracle import PROPERTY_ORDER, scope_instances

P5 = ParameterTuple(5, 3, 3, 16, 13)
P3 = ParameterTuple(3, 1, 3, 10, 11)


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


def test_value_order_does_not_change_the_verdict():
    for labels in ((1, 1, 5, 5, 5), (1, 5, 5, 5), (1, 2, 3, 4)):
        g = cycle_to_graph(LabelledCycle(labels), 5)
        up = brute_force_completable(P5, g, value_order="ascending")
        down = brute_force_completable(P5, g, value_order="descending")
        assert (up is None) == (down is None)


def test_search_budget():
    with pytest.raises(ResourceLimitError):
        brute_force_completable(P5, LabelledGraph(8, 5), max_missing=10)


def test_empty_graph_completions_are_members():
    comps = enumerate_all_completions(P3, LabelledGraph(3, 3))
    assert len(comps.completions) == len(enumerate_members(P3, 3))
    values = {tuple(d for _, _, d in h.edges()) for h in comps.completions}
    assert (2, 2, 2) in values
    assert (1, 1, 3) not in values


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


def test_parity_on_example():
    report = _check(P5, 3, fork_graph(1, 5, 5))["parity"]
    assert report.passed
    assert report.instances == 1


def test_automorphism_preservation_square():
    g = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 5)])
    report = _check(P5, 3, g)["automorphism-preservation"]
    assert report.passed
    assert report.stats["input-automorphisms"] == 4


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
    outcome = amalgamate(P3, 2, a, b1, b2, (0,), (0,))
    assert outcome.completable
    assert outcome.completed.n == 3
    assert outcome.completed.get(0, 1) == 1
    assert outcome.completed.get(0, 2) == 3


def test_amalgamate_validates_embeddings():
    a = LabelledGraph(2, 3, [(0, 1, 1)])
    b = LabelledGraph(2, 3, [(0, 1, 2)])
    with pytest.raises(InputError):
        amalgamate(P3, 2, a, b, b, (0, 1), (0, 1))
    with pytest.raises(InputError):
        amalgamate(P3, 2, a, b, b, (0, 0), (0, 1))
    partial = LabelledGraph(3, 3, [(0, 1, 1)])
    with pytest.raises(InputError):
        amalgamate(P3, 2, a, partial, partial, (0, 1), (0, 1))


def test_amalgamate_rejects_non_members():
    bad = cycle_to_graph(LabelledCycle((1, 1, 3)), 3)
    a = LabelledGraph(0, 3)
    with pytest.raises(InputError):
        amalgamate(P3, 2, a, bad, bad, (), ())


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


def test_suite_parallel_matches_serial():
    serial = run_verification_suite(P3, 2, RandomScope(25, seed=5))
    parallel = run_verification_suite(P3, 2, RandomScope(25, seed=5), jobs=2)
    assert [(r.name, r.instances, r.stats) for r in serial] == \
        [(r.name, r.instances, r.stats) for r in parallel]


def test_suite_rejects_bad_magic():
    with pytest.raises(InputError):
        run_verification_suite(P5, 2, ExhaustiveScope(3))


def test_format_report_shape():
    reports = run_verification_suite(P3, 2, RandomScope(5, seed=1))
    text = format_report(reports[0])
    # six fork instances for delta=3 plus the five random ones
    assert text.startswith("PROPERTY oracle-equivalence instances=11 failures=0\n")


def test_check_amalgamation_small():
    report = check_amalgamation(P3, 2, max_part_size=2)
    assert report.passed
    assert report.instances > 0
