import itertools
import random

import pytest

from magic_completion import (GraphParseError, InputError, LabelledCycle,
                              LabelledGraph, ParameterTuple,
                              ResourceLimitError, TriangleBound,
                              automorphisms, canonical_cycle,
                              classify_triangle, cycle_to_graph,
                              enumerate_acceptable, forbidden_triangles,
                              fork_graph, is_member,
                              parse_cycle, parse_graph, select_magic_parameter,
                              serialize_cycle, serialize_graph, triangle_allowed)
from magic_completion.oracle import _extend_member
from magic_completion.params import MAX_DELTA
from magic_completion.space import scan_forbidden

P5 = ParameterTuple(5, 3, 3, 16, 13)


def _violations(p, a, b, c):
    return {bound.value for bound in classify_triangle(p, a, b, c).violated}


def test_triangle_examples():
    assert _violations(P5, 1, 1, 5) == {"NonMetric"}
    assert _violations(P5, 1, 2, 2) == {"K1Bound"}
    assert _violations(P5, 2, 4, 5) == {"K2Bound"}
    assert _violations(P5, 3, 5, 5) == {"K2Bound", "C1Bound"}
    assert _violations(P5, 5, 5, 5) == {"C1Bound"}
    assert _violations(P5, 2, 5, 5) == set()
    assert _violations(ParameterTuple(3, 1, 3, 8, 9), 2, 3, 3) == {"C0Bound"}


def test_nonmetric_masks_k1():
    # an odd short perimeter that is also non-metric reports only NonMetric
    p = ParameterTuple(5, 3, 3, 16, 13)
    assert _violations(p, 1, 1, 3) == {"NonMetric"}


def test_triangle_symmetry():
    for a, b, c in itertools.product(range(1, 6), repeat=3):
        expected = classify_triangle(P5, a, b, c).violated
        for perm in itertools.permutations((a, b, c)):
            assert classify_triangle(P5, *perm).violated == expected


def test_forbidden_triples_match_example():
    forbidden = sorted(tuple(sorted((a, b, c)))
                       for a in range(1, 6) for b in range(a, 6)
                       for c in range(b, 6)
                       if not triangle_allowed(P5, a, b, c))
    assert forbidden == [
        (1, 1, 1), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 2, 2), (1, 2, 4),
        (1, 2, 5), (1, 3, 5), (1, 4, 4), (1, 5, 5), (2, 2, 5), (2, 4, 5),
        (3, 5, 5), (4, 4, 5), (5, 5, 5)]


def test_unit_k_classes_forbid_only_nonmetric_triples():
    for key in ((3, 1, 3, 10, 11), (4, 1, 4, 14, 13), (5, 1, 5, 16, 17)):
        p = ParameterTuple(*key)
        for a, b, c in itertools.product(range(1, p.delta + 1), repeat=3):
            verdict = classify_triangle(p, a, b, c)
            assert verdict.violated <= {TriangleBound.NON_METRIC}


def test_graph_construction_and_lookup():
    g = LabelledGraph(4, 5, [(0, 1, 2), (2, 3, 5)])
    assert g.get(0, 1) == 2
    assert g.get(1, 0) == 2
    assert g.get(0, 2) is None
    assert g.edge_count() == 2
    assert g.missing_pairs() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert not g.is_complete()


def test_graph_validation():
    with pytest.raises(InputError):
        LabelledGraph(3, 5, [(0, 0, 2)])
    with pytest.raises(InputError):
        LabelledGraph(3, 5, [(0, 3, 2)])
    with pytest.raises(InputError):
        LabelledGraph(3, 5, [(0, 1, 6)])
    with pytest.raises(InputError):
        LabelledGraph(3, 5, [(0, 1, 0)])
    with pytest.raises(InputError):
        LabelledGraph(3, 5, [(0, 1, 2), (1, 0, 2)])
    with pytest.raises(ResourceLimitError):
        LabelledGraph(1001, 3)


def test_delta_budget():
    assert LabelledGraph(3, MAX_DELTA).delta == MAX_DELTA
    assert parse_graph(f"graph 2 {MAX_DELTA}\ne 0 1 {MAX_DELTA}\n").delta == MAX_DELTA
    with pytest.raises(ResourceLimitError):
        LabelledGraph(3, MAX_DELTA + 1)
    with pytest.raises(ResourceLimitError, match="line 2: delta 33 exceeds"):
        parse_graph("# header next\ngraph 3 33\n")
    with pytest.raises(ResourceLimitError):
        enumerate_acceptable(MAX_DELTA + 1)


def test_fork_graph_shape():
    g = fork_graph(2, 4, 5)
    assert g.n == 3
    assert g.get(0, 1) == 2
    assert g.get(1, 2) == 4
    assert g.get(0, 2) is None


def test_is_member():
    good = LabelledGraph(3, 5, [(0, 1, 2), (0, 2, 3), (1, 2, 5)])
    assert is_member(P5, good)
    bad = LabelledGraph(3, 5, [(0, 1, 1), (0, 2, 1), (1, 2, 5)])
    assert not is_member(P5, bad)
    with pytest.raises(InputError):
        is_member(P5, LabelledGraph(3, 5, [(0, 1, 2)]))


def test_forbidden_triangles_listing():
    g = cycle_to_graph(LabelledCycle((1, 1, 5)), 5)
    assert forbidden_triangles(P5, g) == [(0, 1, 2)]


# one tuple per admissible case: II-A, II-B, III
CASE_KEYS = [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13)]


@pytest.mark.parametrize("seed", range(6))
def test_forbidden_triangles_match_triple_loop(seed):
    rng = random.Random(seed)
    for key in CASE_KEYS:
        p = ParameterTuple(*key)
        for n in range(3, 21):
            density = rng.uniform(0.3, 0.7)
            g = LabelledGraph(n, p.delta, [
                (u, v, rng.randint(1, p.delta))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
            expected = []
            for u, v, w in itertools.combinations(range(n), 3):
                a, b, c = g.get(u, v), g.get(u, w), g.get(v, w)
                if None not in (a, b, c) and not triangle_allowed(p, a, b, c):
                    expected.append((u, v, w))
            assert forbidden_triangles(p, g) == expected
            assert list(scan_forbidden(p, g)) == expected


@pytest.mark.parametrize("key", CASE_KEYS)
def test_is_member_matches_triple_loop(key):
    p = ParameterTuple(*key)
    magic = select_magic_parameter(p).selected
    rng = random.Random(sum(key))

    def reference(g):
        return all(triangle_allowed(p, g.get(u, v), g.get(u, w), g.get(v, w))
                   for u, v, w in itertools.combinations(range(g.n), 3))

    non_members = 0
    for n in range(3, 31):
        member = _extend_member(p, magic, rng, LabelledGraph(0, p.delta), n)
        assert reference(member) and is_member(p, member)
        # one edge off: relabel a random pair until a triangle breaks
        dist = {(u, v): d for u, v, d in member.edges()}
        pair = rng.choice(sorted(dist))
        for d in rng.sample(range(1, p.delta + 1), p.delta):
            off = LabelledGraph(n, p.delta, [(u, v, d if (u, v) == pair else e)
                                             for (u, v), e in dist.items()])
            if not reference(off):
                assert not is_member(p, off)
                non_members += 1
                break
            assert is_member(p, off)
    assert non_members >= 20
    with pytest.raises(InputError):
        is_member(p, LabelledGraph(3, p.delta + 1, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]))
    with pytest.raises(InputError):
        is_member(p, LabelledGraph(3, p.delta, [(0, 1, 1)]))


def test_automorphisms_of_alternating_square():
    g = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 5)])
    assert sorted(automorphisms(g)) == [
        (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def test_automorphisms_match_all_permutations():
    rng = random.Random(4)
    for i in range(3000):
        # the reference tries all n! permutations, so 7 vertices only now and then
        n = 7 if i % 30 == 0 else rng.randint(0, 6)
        delta = rng.randint(1, 4)
        missing = rng.random()
        g = LabelledGraph(n, delta, [
            (u, v, rng.randint(1, delta))
            for u, v in itertools.combinations(range(n), 2) if rng.random() >= missing])
        expected = [perm for perm in itertools.permutations(range(n))
                    if all(g.get(u, v) == g.get(perm[u], perm[v]) for u, v in g.pairs())]
        assert automorphisms(g) == expected
        # lexicographic order puts the identity first; the verify sweep skips it
        assert expected[0] == tuple(range(n))
    with pytest.raises(ResourceLimitError):
        automorphisms(LabelledGraph(10, 3))
    with pytest.raises(ResourceLimitError):
        automorphisms(LabelledGraph(4, 3), max_vertices=3)


def test_canonical_cycle():
    assert canonical_cycle(LabelledCycle((5, 1, 5, 5, 1))).labels == (1, 5, 1, 5, 5)
    assert canonical_cycle(LabelledCycle((3, 2, 1))).labels == (1, 2, 3)
    orbit = {(1, 1, 5, 5, 5), (5, 1, 1, 5, 5), (5, 5, 5, 1, 1), (1, 5, 5, 5, 1)}
    for labels in orbit:
        assert canonical_cycle(LabelledCycle(labels)).labels == (1, 1, 5, 5, 5)


def test_cycle_validation_and_conversion():
    with pytest.raises(InputError):
        LabelledCycle((1, 2))
    with pytest.raises(InputError):
        LabelledCycle((1, 0, 2))
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    assert g.n == 5
    assert g.get(0, 1) == 1
    assert g.get(4, 0) == 5
    assert g.get(0, 2) is None
    # default delta is the largest label
    assert cycle_to_graph(LabelledCycle((1, 2, 3))).delta == 3
    with pytest.raises(InputError):
        cycle_to_graph(LabelledCycle((1, 2, 6)), 5)


def test_cycle_text_round_trip():
    c = parse_cycle("1 1 5 5 5")
    assert c.labels == (1, 1, 5, 5, 5)
    assert serialize_cycle(c) == "1 1 5 5 5"
    with pytest.raises(InputError):
        parse_cycle("1 x 5")


def test_graph_text_round_trip():
    g = LabelledGraph(4, 5, [(0, 1, 2), (1, 3, 5)])
    text = serialize_graph(g)
    assert text == "graph 4 5\ne 0 1 2\ne 1 3 5\n"
    assert parse_graph(text) == g
    commented = "# partial instance\n\ngraph 4 5\ne 1 0 2\ne 1 3 5\n"
    assert parse_graph(commented) == g


def _parse_error(text):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    return info.value


def test_graph_parse_errors_carry_line_numbers():
    assert _parse_error("graph x 5\n").line_no == 1
    assert _parse_error("e 0 1 2\n").line_no == 1          # edge before header
    assert _parse_error("graph 3 5\ne 0 0 2\n").line_no == 2
    assert _parse_error("graph 3 5\ne 0 7 2\n").line_no == 2
    assert _parse_error("graph 3 5\ne 0 1 9\n").line_no == 2
    assert _parse_error("graph 3 5\n# ok\ne 0 1 2\ne 1 0 3\n").line_no == 4
    assert _parse_error("graph 3 5\nedge 0 1 2\n").line_no == 2
    assert _parse_error("").line_no == 1                   # missing header


def test_graph_equality_and_pickle_support():
    g = LabelledGraph(3, 5, [(0, 1, 2)])
    same = LabelledGraph(3, 5, [(1, 0, 2)])
    assert g == same
    assert hash(g) == hash(same)
    import pickle
    assert pickle.loads(pickle.dumps(g)) == g
