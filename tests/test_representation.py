"""Property tests of LabelledGraph's one representation, its label matrix:
every way a graph is built, checked or not, gives the graph that the
validating constructor builds from its edge list."""

import itertools
import pickle
import random

import pytest

from magic_completion import (ExhaustiveScope, LabelledGraph, ParameterTuple, RandomScope,
                              brute_force_completable, canonical_cycle, cycle_to_graph,
                              enumerate_all_completions, extract_obstacle, fork_graph,
                              magic_complete, parse_graph, select_magic_parameter,
                              serialize_graph, shortest_path_complete,
                              validate_obstacle_hom)
from magic_completion import oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# derandomized and without an example database: the same examples on every
# run, and none saved between runs
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None)

# one admissible tuple per case, II-A, II-B and III, and a delta-3 tuple
KEYS = [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13), (3, 1, 2, 10, 9)]


@st.composite
def graphs(draw, delta=None, max_vertices=7):
    """A graph on at most max_vertices vertices, delta at most 5, whose
    edges reach the constructor in a drawn order and orientation."""
    if delta is None:
        delta = draw(st.integers(1, 5))
    n = draw(st.integers(0, max_vertices))
    labels = draw(st.lists(st.integers(0, delta), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    edges = [(v, u, d) if flip else (u, v, d)
             for ((u, v), d), flip in zip(zip(itertools.combinations(range(n), 2), labels),
                                          draw(st.lists(st.booleans(), min_size=len(labels),
                                                        max_size=len(labels))))
             if d]
    return LabelledGraph(n, delta, draw(st.permutations(edges)))


def _check_representation(g):
    """g equals, and hashes like, the graph the constructor builds from its
    edges, and its text and pickle round-trips; get is symmetric and None
    off the graph; missing_pairs and edges partition the pairs."""
    rebuilt = LabelledGraph(g.n, g.delta, g.edges())
    assert rebuilt == g and hash(rebuilt) == hash(g)
    parsed = parse_graph(serialize_graph(g))
    assert parsed == g and hash(parsed) == hash(g)
    assert pickle.loads(pickle.dumps(g)) == g
    labelled = {(u, v): d for u, v, d in g.edges()}
    assert sorted(labelled) == [(u, v) for u, v, _ in g.edges()]
    assert all(u < v and 1 <= d <= g.delta for (u, v), d in labelled.items())
    assert sorted([*labelled, *g.missing_pairs()]) == list(g.pairs())
    assert not set(labelled) & set(g.missing_pairs())
    assert g.is_complete() == (not g.missing_pairs())
    for u in range(-2, g.n + 2):
        for v in range(-2, g.n + 2):
            assert g.get(u, v) == g.get(v, u) == (
                labelled.get((u, v) if u < v else (v, u)) if 0 <= u < g.n and 0 <= v < g.n
                else None)


@SETTINGS
@hypothesis.given(graphs())
def test_constructed_graphs_round_trip(g):
    _check_representation(g)


@SETTINGS
@hypothesis.given(st.sampled_from(KEYS).flatmap(
    lambda key: st.tuples(st.just(ParameterTuple(*key)), graphs(key[0]))))
def test_completed_and_searched_graphs_round_trip(case):
    p, g = case
    outcome = magic_complete(p, select_magic_parameter(p).selected, g)
    _check_representation(outcome.completed)
    assert outcome.completed.is_complete()
    assert all(outcome.completed.get(u, v) == d for u, v, d in g.edges())
    _check_representation(shortest_path_complete(p.delta, g))
    found = brute_force_completable(p, g)
    if found is not None:
        _check_representation(found)
    if len(g.missing_pairs()) <= 3:
        for h in enumerate_all_completions(p, g).completions:
            _check_representation(h)
            assert all(h.get(u, v) == d for u, v, d in g.edges())


def test_extracted_obstacles_are_uncompletable_cycles_of_the_input():
    # every uncompletable run's obstacle, pulled back from the first forbidden
    # triangle, maps into the input, and the oracle finds no completion of its
    # cycle; a cycle with more chords than the oracle's budget is counted
    tally = {"checked": 0, "over budget": 0}

    @SETTINGS
    @hypothesis.given(st.sampled_from(KEYS).flatmap(
        lambda key: st.tuples(st.just(ParameterTuple(*key)), graphs(key[0]))))
    def check(case):
        p, g = case
        magic = select_magic_parameter(p).selected
        outcome = magic_complete(p, magic, g)
        if outcome.completable:
            return
        obstacle = extract_obstacle(p, magic, g, outcome.trace)
        assert validate_obstacle_hom(g, obstacle)
        length = len(obstacle.cycle)
        if length * (length - 3) // 2 > oracle.BRUTE_BUDGET:
            tally["over budget"] += 1
            return
        tally["checked"] += 1
        assert brute_force_completable(
            p, cycle_to_graph(canonical_cycle(obstacle.cycle), p.delta)) is None

    check()
    assert tally["checked"] >= 20, tally


@SETTINGS
@hypothesis.given(st.sampled_from(KEYS), st.integers(0, 2 ** 32), st.integers(0, 2),
                  st.integers(0, 3), st.integers(0, 3))
def test_drawn_and_glued_members_round_trip(key, seed, a_size, b1_extra, b2_extra):
    p = ParameterTuple(*key)
    rng = random.Random(seed)
    a = oracle._extend_member(p, rng, LabelledGraph(0, p.delta), a_size)
    b1 = oracle._extend_member(p, rng, a, a_size + b1_extra)
    b2 = oracle._extend_member(p, rng, a, a_size + b2_extra)
    for member in (a, b1, b2):
        _check_representation(member)
        assert member.is_complete()
    identity = tuple(range(a_size))
    glued = oracle._glue(p, a, b1, b2, identity, identity)
    _check_representation(glued)
    # b1 keeps its ids; b2's vertices outside a follow them in order
    shift = b1.n - a_size
    expected = b1.edges() + [(u + shift if u >= a_size else u, v + shift, d)
                             for u, v, d in b2.edges() if v >= a_size]
    assert glued == LabelledGraph(b1.n + b2.n - a_size, p.delta, expected)


def _reference_random_scope(p, scope):
    """RandomScope's instances built through the validating constructor from
    edge lists, with the same random draws in the same order."""
    out = [fork_graph(a, b, p.delta) for a in range(1, p.delta + 1) for b in range(a, p.delta + 1)]
    rng = random.Random(scope.seed)
    n = scope.vertices
    for _ in range(scope.count):
        if rng.random() < 0.5:
            edges = [(u, v, rng.randint(1, p.delta))
                     for u, v in itertools.combinations(range(n), 2) if rng.random() >= 0.25]
        else:
            member = oracle._extend_member(p, rng, LabelledGraph(0, p.delta), n)
            edges = [edge for edge in member.edges() if rng.random() >= 0.5]
        out.append(LabelledGraph(n, p.delta, edges))
    return out


@SETTINGS
@hypothesis.given(st.sampled_from(KEYS), st.integers(0, 2 ** 32), st.integers(0, 7),
                  st.integers(0, 4))
def test_scope_instances_round_trip(key, seed, vertices, count):
    p = ParameterTuple(*key)
    scope = RandomScope(count, seed, vertices)
    drawn = list(oracle.scope_instances(p, scope))
    assert drawn == _reference_random_scope(p, scope)
    for g in drawn:
        _check_representation(g)


@pytest.mark.parametrize("key", KEYS)
def test_exhaustive_scope_instances_round_trip(key):
    p = ParameterTuple(*key)
    for n in range(4):
        pairs = list(itertools.combinations(range(n), 2))
        reference = [
            LabelledGraph(n, p.delta, [(u, v, d) for (u, v), d in zip(pairs, labels) if d])
            for labels in itertools.product(range(p.delta + 1), repeat=len(pairs))]
        instances = list(oracle.scope_instances(p, ExhaustiveScope(n)))
        assert instances == reference
        for g in instances:
            _check_representation(g)
