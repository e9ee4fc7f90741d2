import functools
import itertools
import random

import pytest

from magic_completion import (GraphParseError, InputError, LabelledCycle,
                              LabelledGraph, ParameterTuple,
                              ResourceLimitError, TriangleBound,
                              automorphisms, canonical_cycle,
                              classify_triangle, cycle_to_graph,
                              enumerate_acceptable, forbidden_triangles,
                              fork_graph, is_member, magic_complete,
                              parse_cycle, parse_graph, select_magic_parameter,
                              serialize_cycle, serialize_graph, triangle_allowed)
from magic_completion.oracle import _extend_member
from magic_completion.params import MAX_DELTA
from magic_completion import space
from magic_completion.space import (MAX_VERTICES, _first_triangle, _forbidden_in,
                                    _label_pairs, _scan_tables, allowed_masks)

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


@pytest.mark.parametrize("labels", [(-2, 3, 3), (4, 1, 1), (0, 2, 2), (2, 0, 2), (1, 2, 4),
                                    (1.0, 1, 1), (None, 1, 1)])
def test_triangle_allowed_refuses_labels_outside_the_range(labels):
    # the same error as classify_triangle, not a read off the table's ends
    p = ParameterTuple(3, 1, 2, 10, 9)
    with pytest.raises(InputError) as expected:
        classify_triangle(p, *labels)
    with pytest.raises(InputError) as info:
        triangle_allowed(p, *labels)
    assert str(info.value) == str(expected.value)


@functools.cache
def _exactness_tuples():
    # every acceptable tuple of delta 3..7, and three seeded ones each of delta 16 and 32
    rng = random.Random(11)
    tuples = [p for delta in range(3, 8) for p in enumerate_acceptable(delta)]
    for delta in (16, 32):
        tuples += rng.sample(enumerate_acceptable(delta), 3)
    return tuples


def test_allowed_masks_match_classify_triangle():
    for p in _exactness_tuples():
        masks = allowed_masks(p)
        labels = range(1, p.delta + 1)
        every = sum(1 << c for c in labels)
        assert len(masks) == p.delta + 1 and masks[0] == (every,) * (p.delta + 1)
        for a in labels:
            row = masks[a]
            assert len(row) == p.delta + 1 and row[0] == every
            for b in labels:
                mask = row[b]
                assert mask == sum(1 << c for c in labels
                                   if classify_triangle(p, a, b, c).allowed), (p, a, b)
                assert triangle_allowed(p, a, b, 1) == bool(mask >> 1 & 1)


def test_scan_tables_match_classify_triangle():
    for p in _exactness_tuples():
        labels = range(1, p.delta + 1)
        bans = {(a, b, c) for a, b, c in itertools.product(labels, repeat=3)
                if not classify_triangle(p, a, b, c).allowed}
        forbidden = ((),) + tuple(
            tuple((b, c) for b, c in itertools.product(labels, repeat=2) if (a, b, c) in bans)
            for a in labels)
        bad = tuple(tuple(sum(1 << c for c in labels if (a, b, c) in bans)
                          for b in range(p.delta + 1))
                    for a in range(p.delta + 1))
        tables = _scan_tables(p)
        assert tables.forbidden == forbidden
        assert tables.counts == tuple(map(len, forbidden))
        assert tables.bad == bad
        # the pair objects are shared per delta, not rebuilt per tuple
        shared = set(map(id, _label_pairs(p.delta)))
        assert all(id(pair) in shared for pairs in tables.forbidden for pair in pairs)


def test_tables_build_without_classify_triangle(monkeypatch):
    # the tables come from the bounds in closed form, never a call per triple
    def refuse(*args):
        raise AssertionError("classify_triangle called while building a table")

    monkeypatch.setattr(space, "classify_triangle", refuse)
    allowed_masks.cache_clear()
    _scan_tables.cache_clear()
    p = ParameterTuple(32, 1, 31, 68, 67)
    # (1, 1, 1) and (1, 1, 2) are allowed; (1, 1, 3) is not metric
    assert allowed_masks(p)[1][1] == 0b110
    assert _scan_tables(p).counts[1] > 0


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
    assert len(g.edges()) == 2
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


def test_bool_labels_are_refused():
    # bool is an int subclass; like ParameterTuple, every label check refuses it
    p = ParameterTuple(3, 1, 2, 10, 9)
    for build in (lambda: LabelledGraph(2, 3, [(False, True, True)]),
                  lambda: LabelledGraph(2, 3, [(0, 1, True)]),
                  lambda: LabelledGraph(True, 3),
                  lambda: LabelledGraph(2, True),
                  lambda: classify_triangle(p, True, 1, 1),
                  lambda: triangle_allowed(p, 1, 1, True),
                  lambda: LabelledCycle((True, 1, 1))):
        with pytest.raises(InputError):
            build()


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


@pytest.mark.parametrize("key", CASE_KEYS)
def test_is_member_matches_triple_loop(key):
    p = ParameterTuple(*key)
    rng = random.Random(sum(key))

    def reference(g):
        return all(triangle_allowed(p, g.get(u, v), g.get(u, w), g.get(v, w))
                   for u, v, w in itertools.combinations(range(g.n), 3))

    non_members = 0
    for n in range(3, 31):
        member = _extend_member(p, rng, LabelledGraph(0, p.delta), n)
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
    assert len(LabelledCycle((1, 1, 5, 5, 5))) == 5
    g = cycle_to_graph(LabelledCycle((1, 1, 5, 5, 5)), 5)
    assert g.n == 5
    assert g.get(0, 1) == 1
    assert g.get(4, 0) == 5
    assert g.get(0, 2) is None
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


# delta 3..8; label 2 of (3, 1, 2, 10, 9) has no forbidden pair
SCAN_KEYS = [(3, 1, 2, 10, 9), (3, 3, 3, 10, 11), (4, 1, 4, 14, 13), (5, 3, 3, 14, 13),
             (5, 3, 3, 16, 13), (6, 1, 5, 16, 15), (7, 1, 6, 18, 17), (8, 5, 5, 24, 21)]


def _reference_scan(p, g):
    """Forbidden triples u < v < w of g by a triple loop over classify_triangle."""
    verdicts = {}
    found = []
    for u, v, w in itertools.combinations(range(g.n), 3):
        sides = (g.get(u, v), g.get(u, w), g.get(v, w))
        if None in sides:
            continue
        if sides not in verdicts:
            verdicts[sides] = not classify_triangle(p, *sides).allowed
        if verdicts[sides]:
            found.append((u, v, w))
    return found


def _cube_scan(p, g):
    """_reference_scan through a cube of classify_triangle verdicts indexed
    by the label matrix, fast enough for a few hundred vertices."""
    labels = range(p.delta + 1)
    cube = [[[0 not in (a, b, c) and not classify_triangle(p, a, b, c).allowed
              for c in labels] for b in labels] for a in labels]
    mat = g._mat
    return [(u, v, w) for u, v in itertools.combinations(range(g.n), 2)
            for w in range(v + 1, g.n) if cube[mat[u][v]][mat[u][w]][mat[v][w]]]


def _expand(found, n):
    """The triangles of _forbidden_in's (u, v, hits) list; each hits mask
    is nonzero and has no bit at or below v."""
    for u, v, hits in found:
        assert u < v and hits and hits >> (v + 1) << (v + 1) == hits
    return [(u, v, w) for u, v, hits in found for w in range(v + 1, n) if hits >> w & 1]


@pytest.mark.parametrize("key", SCAN_KEYS)
def test_scan_matches_a_triple_loop_over_classify_triangle(key):
    # every graph also goes through both ways of finding the third vertices:
    # lookups only (no masks) and, per pair, lookups or the mask OR; the
    # engine's completions of sparse graphs on 200 vertices go through its
    # own scan, where most pairs are labelled M
    p = ParameterTuple(*key)
    tables = _scan_tables(p)
    assert key != (3, 1, 2, 10, 9) or tables.counts[2] == 0
    rng = random.Random(sum(key))
    for n in (0, 1, 2, 3, 4, 7, 12, 80):
        graphs = []
        for density in (0.3, 0.7, 1.0):
            # shuffled, so that the constructor gets the pairs out of order
            edges = [(u, v, rng.randint(1, p.delta))
                     for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
            rng.shuffle(edges)
            graphs.append(LabelledGraph(n, p.delta, edges))
        graphs.append(_extend_member(p, rng, LabelledGraph(0, p.delta), n))
        for g in graphs:
            expected = _reference_scan(p, g)
            assert forbidden_triangles(p, g) == expected
            mat = _reference_matrix(g)
            assert g._mat == tuple(map(tuple, mat))
            for rows in (None, _reference_masks(g)):
                found = list(_forbidden_in(tables, rows, mat))
                assert _expand(found, n) == expected
                # the first triangle reads the scan's first item and no more
                scan = _forbidden_in(tables, rows, mat)
                assert _first_triangle(scan) == (expected[0] if expected else None)
                assert list(scan) == found[1:]
            if g.is_complete():
                assert is_member(p, g) == (not expected)
        # members pass; these random complete graphs of 7 or more vertices do not
        assert is_member(p, graphs[-1]) and (n < 7 or not is_member(p, graphs[-2]))
    magic = select_magic_parameter(p).selected
    pairs = list(itertools.combinations(range(200), 2))
    verdicts = set()
    for size in (40, 400, 2000):
        g = LabelledGraph(200, p.delta, [(u, v, rng.randint(1, p.delta))
                                         for u, v in rng.sample(pairs, size)])
        outcome = magic_complete(p, magic, g)
        expected = _cube_scan(p, outcome.completed)
        assert list(outcome.forbidden_triangles) == expected
        assert _expand(outcome.forbidden_hits, g.n) == expected
        assert outcome.completable == (not expected)
        verdicts.add(outcome.completable)
    assert verdicts == {True, False}


def _reference_parse_graph(text):
    """parse_graph as it was before it split each line once: strip, test for
    blank and comment lines, then split; every field through int()."""
    n = delta = None
    dist = {}
    seen = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "graph" or len(tokens) != 3:
                raise GraphParseError(line_no, f"expected 'graph <n> <delta>', got {line!r}")
            try:
                n, delta = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer header fields in {line!r}") from None
            if n < 0 or delta < 1:
                raise GraphParseError(line_no, f"invalid header values in {line!r}")
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {line_no}: {n} vertices exceed the budget of {MAX_VERTICES}")
            if delta > MAX_DELTA:
                raise ResourceLimitError(
                    f"line {line_no}: delta {delta} exceeds the budget of {MAX_DELTA}")
            continue
        if tokens[0] != "e" or len(tokens) != 4:
            raise GraphParseError(line_no, f"expected 'e <u> <v> <d>', got {line!r}")
        try:
            u, v, d = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:
            raise GraphParseError(line_no, f"non-integer edge fields in {line!r}") from None
        if u == v:
            raise GraphParseError(line_no, f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"vertex out of range in {line!r}")
        if not (1 <= d <= delta):
            raise GraphParseError(line_no, f"distance {d} out of range 1..{delta}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(
                line_no, f"duplicate distance for pair {key} (first set on line {seen[key]})")
        seen[key] = line_no
        dist[key] = d
    if n is None:
        raise GraphParseError(1, "missing 'graph <n> <delta>' header")
    return LabelledGraph(n, delta, [(u, v, d) for (u, v), d in dist.items()])


PARSE_CORPUS = [
    # valid
    "graph 0 1\n",
    "graph 4 5\ne 0 1 2\ne 1 3 5\n",
    "# partial instance\n\ngraph 4 5\n\n# an edge\ne 1 0 2\n   \ne 1 3 5\n#e 2 3 1\n",
    "graph 4 5\r\ne 0 1 2\r\n\r\ne 2 3 4\r\n",
    "\tgraph\t4\t5\ne\t0\t1\t2\n  e  2   3 4  \n",
    "graph 12 5\ne 07 08 05\ne +3 1_0 +1\ne ٣ ٤ ٥\ne 0 11 5\n",
    "graph 1000 32\ne 0 999 32\ne 998 999 1\ne 500 2 17\n",
    "graph 3 5\ne 0 1 2",
    "graph 3 5\n#\n# e 0 0 0\ne 0 1 2\n",
    "graph\u00a04 5\ne\u30000 1 2\x0ce 2 3 1\x0b\n",
    # a bad header
    "",
    "\n\n# only comments\n",
    "e 0 1 2\n",
    "graph 4\n",
    "graph 4 5 6\n",
    "graphs 4 5\n",
    "graph x 5\n",
    "graph 4 5.0\n",
    "graph -1 5\n",
    "graph 4 0\n",
    "graph 1001 5\n",
    "# oversized\ngraph 100000000000000000000 5\n",
    "graph 4 33\n",
    "graph 4 5\ngraph 4 5\n",
    # a bad edge line
    "graph 4 5\nedge 0 1 2\n",
    "graph 4 5\ne 0 1\n",
    "graph 4 5\ne 0 1 2 3\n",
    "graph 4 5\ne 0 1 2 # note\n",
    "graph 4 5\ne 0 x 2\n",
    "graph 4 5\ne 0 1 2.5\n",
    "graph 4 5\ne 0 1 0x2\n",
    "graph 4 5\ne 2 2 1\n",
    "graph 4 5\ne 007 7 1\n",
    "graph 4 5\ne 0 4 1\n",
    "graph 4 5\ne -1 2 1\n",
    "graph 4 5\ne 0 1 0\n",
    "graph 4 5\ne 0 1 6\n",
    "graph 4 5\ne 0 1 -3\n",
    "graph 4 5\ne 0 1 2\n# again\ne 1 0 3\n",
    "graph 4 5\r\ne 2 3 1\r\n\r\ne 3 2 1\r\n",
    # duplicates whose first line is non-canonical, or follows comment and CRLF lines
    "graph 9 5\ne 07 +1 2\ne 1 7 3\n",
    "graph 5 5\ne 0 1 2\ne \u0663 1 2\ne 2 4 1\ne 1 3 4\n",
    "# c\r\n\r\ngraph 4 5\r\n# x\r\ne 1 3 2\r\n\r\n# y\r\ne 0 1 1\r\ne 3 1 2\r\n",
    "graph 1000 32\ne 999 1000 1\n",
]


def _parsed(parse, text):
    try:
        return parse(text)
    except (GraphParseError, ResourceLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def test_parse_graph_matches_the_strip_first_reference():
    outcomes = [_parsed(parse_graph, text) for text in PARSE_CORPUS]
    assert outcomes == [_parsed(_reference_parse_graph, text) for text in PARSE_CORPUS]
    # the corpus holds graphs, every parse error and both budgets
    kinds = {outcome[0] if isinstance(outcome, tuple) else LabelledGraph for outcome in outcomes}
    assert kinds == {LabelledGraph, GraphParseError, ResourceLimitError}
    assert _parsed(parse_graph, PARSE_CORPUS[5]) == LabelledGraph(
        12, 5, [(7, 8, 5), (3, 10, 1), (3, 4, 5), (0, 11, 5)])


def _reference_serialize_graph(g):
    lines = [f"graph {g.n} {g.delta}"]
    lines.extend(f"e {u} {v} {d}" for u, v, d in g.edges())
    return "\n".join(lines) + "\n"


def test_serialize_graph_matches_the_reference_at_the_table_edges():
    # a sparse graph on MAX_VERTICES vertices that uses the last one, with
    # labels up to MAX_DELTA, given in shuffled order
    rng = random.Random(9)
    pairs = {(0, 999), (998, 999), (0, 1)} | {
        tuple(sorted(rng.sample(range(MAX_VERTICES), 2))) for _ in range(400)}
    edges = [(v, u, rng.randint(1, MAX_DELTA)) for u, v in pairs] + [(999, 500, MAX_DELTA)]
    rng.shuffle(edges)
    big = LabelledGraph(MAX_VERTICES, MAX_DELTA, edges)
    graphs = [big, LabelledGraph(0, 1), LabelledGraph(3, 2, [(2, 0, 2)])]
    graphs += [LabelledGraph(n, 8, [(u, v, rng.randint(1, 8))
                                    for u, v in itertools.combinations(range(n), 2)
                                    if rng.random() < 0.5]) for n in (5, 40, 120)]
    for g in graphs:
        text = serialize_graph(g)
        assert text == _reference_serialize_graph(g)
        assert parse_graph(text) == g
    assert "e 999 500 32\n" not in serialize_graph(big)
    assert f"e 500 999 {MAX_DELTA}\n" in serialize_graph(big)
