import itertools

import pytest

from magic_completion import (GraphParseError, InputError, LabelledCycle,
                              LabelledGraph, ParameterTuple, TriangleBound,
                              automorphisms, canonical_cycle,
                              classify_triangle, cycle_to_graph,
                              forbidden_triangles, fork_graph, is_member,
                              parse_cycle, parse_graph, serialize_cycle,
                              serialize_graph, triangle_allowed)

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
    assert g.with_edges([(0, 2, 1)]).get(0, 2) == 1


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


def test_automorphisms_of_alternating_square():
    g = LabelledGraph(4, 5, [(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 5)])
    assert sorted(automorphisms(g)) == [
        (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


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
