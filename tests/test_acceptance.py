"""Acceptance gate: one pass/fail line per criterion.

Verdict lines are echoed in the terminal summary after any run; use
``pytest tests/test_acceptance.py -v -s`` to see them inline as well.
Every expected value below was frozen from an independent derivation or a
brute-force oracle cross-check, not from the engine under test.
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conftest

from magic_completion import (ExhaustiveScope, LabelledCycle, LabelledGraph,
                              ParameterTuple, RandomScope,
                              brute_force_completable, canonical_cycle,
                              check_amalgamation, cycle_to_graph,
                              eligible_magic, enumerate_admissible,
                              enumerate_all_completions,
                              enumerate_uncompletable_cycles, family_classify,
                              fork_graph, magic_complete,
                              run_verification_suite, shortest_path_complete)

DATA = Path(__file__).parent / "data"

P5 = ParameterTuple(5, 3, 3, 16, 13)
P3_FULL = ParameterTuple(3, 1, 3, 10, 11)

EXPECTED_CATALOGUE = [
    "3 1 2 10 9 case=III magic={2}",
    "3 1 2 10 11 case=III magic={2}",
    "3 1 3 8 9 case=III magic={2}",
    "3 1 3 10 9 case=III magic={2}",
    "3 1 3 10 11 case=III magic={2,3}",
    "3 2 2 10 9 case=III magic={2}",
    "3 2 2 10 11 case=III magic={2}",
    "3 2 3 10 9 case=III magic={2}",
    "3 2 3 10 11 case=III magic={2,3}",
    "3 3 3 10 11 case=III magic={3}",
]

# fork table for (5,3,3,16,13) with M=3: (a, b) -> (completion set, chosen)
EXPECTED_FORKS = {
    (1, 1): ({2}, 2), (1, 2): ({1, 3}, 3), (1, 3): ({2, 3, 4}, 3),
    (1, 4): ({3, 5}, 3), (1, 5): ({4}, 4), (2, 2): ({2, 3, 4}, 3),
    (2, 3): ({1, 2, 3, 4, 5}, 3), (2, 4): ({2, 3, 4}, 3), (2, 5): ({3, 5}, 3),
    (3, 3): ({1, 2, 3, 4, 5}, 3), (3, 4): ({1, 2, 3, 4, 5}, 3),
    (3, 5): ({2, 3, 4}, 3), (4, 4): ({2, 3, 4}, 3), (4, 5): ({1, 3, 5}, 3),
    (5, 5): ({2, 4}, 2),
}

EXPECTED_CYCLES_3 = {
    (1, 1, 1), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 2, 2), (1, 2, 4),
    (1, 2, 5), (1, 3, 5), (1, 4, 4), (1, 5, 5), (2, 2, 5), (2, 4, 5),
    (3, 5, 5), (4, 4, 5), (5, 5, 5)}

EXPECTED_CYCLES_5 = {
    (1, 1, 1, 1, 1), (1, 1, 1, 1, 5), (1, 1, 1, 5, 5), (1, 1, 5, 1, 5),
    (1, 1, 5, 5, 5), (1, 5, 1, 5, 5), (1, 5, 5, 5, 5), (5, 5, 5, 5, 5)}


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {status}{suffix}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"criterion {num} {name}: {detail}"


def _all_partials(n, delta):
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product(range(delta + 1), repeat=len(pairs)):
        edges = [(u, v, d) for (u, v), d in zip(pairs, assignment) if d > 0]
        yield LabelledGraph(n, delta, edges)


@pytest.fixture(scope="module")
def delta3_sweep():
    """Full verification suite on every 4-vertex partial graph, for every
    delta=3 admissible tuple and every eligible magic distance."""
    start = time.monotonic()
    results = {}
    for row in enumerate_admissible(3):
        for magic in sorted(eligible_magic(row.params)):
            reports = run_verification_suite(row.params, magic, ExhaustiveScope(4))
            results[(row.params.key(), magic)] = {r.name: r for r in reports}
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def iib_random_sweep():
    start = time.monotonic()
    reports = run_verification_suite(P5, 3, RandomScope(1000, seed=2026))
    return {r.name: r for r in reports}, time.monotonic() - start


def test_criterion_1_parameter_catalogue():
    start = time.monotonic()
    result = subprocess.run([sys.executable, "-m", "magic_completion", "params",
                             "list", "--delta", "3"],
                            capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = result.stdout.splitlines()
    ok = (result.returncode == 0 and lines == EXPECTED_CATALOGUE
          and elapsed < 1.0)
    _verdict(1, "parameter-catalogue", ok,
             f"{len(lines)} rows, {elapsed:.2f}s, limit 1s")


def test_criterion_2_fork_completions():
    start = time.monotonic()
    seen = {}
    for a in range(1, 6):
        for b in range(a, 6):
            g = fork_graph(a, b, 5)
            values = {h.get(0, 2)
                      for h in enumerate_all_completions(P5, g).completions}
            chosen = magic_complete(P5, 3, g).completed.get(0, 2)
            seen[(a, b)] = (values, chosen)
    elapsed = time.monotonic() - start
    ok = seen == EXPECTED_FORKS and elapsed < 1.0
    _verdict(2, "fork-completions", ok,
             f"15 forks, {elapsed:.2f}s, limit 1s")


def test_criterion_3_obstacle_catalogues():
    start = time.monotonic()
    got3 = {c.labels for c in enumerate_uncompletable_cycles(P5, 3, 3)}
    got4 = {c.labels for c in enumerate_uncompletable_cycles(P5, 3, 4)}
    got5 = {c.labels for c in enumerate_uncompletable_cycles(P5, 3, 5)}
    got6 = enumerate_uncompletable_cycles(P5, 3, 6)
    # independent cross-check of the length-4 catalogue by exhaustive search
    oracle4 = set()
    for labels in itertools.product(range(1, 6), repeat=4):
        cycle = LabelledCycle(labels)
        if canonical_cycle(cycle).labels != labels:
            continue
        if brute_force_completable(P5, cycle_to_graph(cycle, 5)) is None:
            oracle4.add(labels)
    golden4 = {tuple(map(int, line.split()))
               for line in (DATA / "cycles4_5_3_3_16_13.txt")
               .read_text().splitlines()[1:]}
    elapsed = time.monotonic() - start
    ok = (got3 == EXPECTED_CYCLES_3 and got4 == oracle4 == golden4
          and len(got4) == 13 and got5 == EXPECTED_CYCLES_5
          and got6 == frozenset() and elapsed < 60.0)
    _verdict(3, "obstacle-catalogues", ok,
             f"lengths 3..6: {len(got3)}/{len(got4)}/{len(got5)}/{len(got6)} "
             f"cycles, {elapsed:.1f}s, limit 60s")


def test_criterion_4_oracle_equivalence(delta3_sweep):
    results, elapsed = delta3_sweep
    scopes = len(results)
    instances = sum(r["oracle-equivalence"].instances for r in results.values())
    failures = sum(len(r["oracle-equivalence"].failures) for r in results.values())
    skipped = sum(r["oracle-equivalence"].stats.get("skipped", 0)
                  for r in results.values())
    ok = (scopes == 12 and instances == 12 * 4096 and failures == 0
          and skipped == 0 and elapsed < 300.0)
    _verdict(4, "oracle-equivalence", ok,
             f"{scopes} scopes, {instances} instances, {failures} failures, "
             f"{elapsed:.1f}s, limit 300s")


def test_criterion_5_optimality_and_parity(delta3_sweep, iib_random_sweep):
    results, _ = delta3_sweep
    iib, elapsed = iib_random_sweep
    failures = sum(len(r[name].failures)
                   for r in results.values()
                   for name in ("optimality", "parity"))
    failures += len(iib["optimality"].failures) + len(iib["parity"].failures)
    instances = (sum(r["optimality"].instances for r in results.values())
                 + iib["optimality"].instances)
    exceptional = iib["optimality"].stats.get("clause3", 0)
    ok = failures == 0 and exceptional >= 1 and elapsed < 120.0
    _verdict(5, "optimality-and-parity", ok,
             f"{instances} completable instances, {failures} failures, "
             f"II-B exceptional clause used {exceptional} times, "
             f"{elapsed:.1f}s, limit 120s")


def test_criterion_6_automorphism_preservation(delta3_sweep, iib_random_sweep):
    results, _ = delta3_sweep
    iib, _ = iib_random_sweep
    reports = [r["automorphism-preservation"] for r in results.values()]
    reports.append(iib["automorphism-preservation"])
    failures = sum(len(r.failures) for r in reports)
    instances = sum(r.instances for r in reports)
    ok = failures == 0 and instances == 12 * 4096 + 1015
    _verdict(6, "automorphism-preservation", ok,
             f"{instances} instances, {failures} failures")


def test_criterion_7_shortest_path_correspondence():
    start = time.monotonic()
    missing_mismatch = full_mismatch = dominance_bad = 0
    consistent = 0
    for g in _all_partials(4, 3):
        engine = magic_complete(P3_FULL, 3, g).completed
        sp = shortest_path_complete(3, g)
        for u, v in g.missing_pairs():
            if engine.get(u, v) != sp.get(u, v):
                missing_mismatch += 1
        if any(sp.get(u, v) != d for u, v, d in g.edges()):
            continue
        consistent += 1
        if engine != sp:
            full_mismatch += 1
        for h in enumerate_all_completions(P3_FULL, g).completions:
            if any(h.get(u, v) > sp.get(u, v) for u, v in g.missing_pairs()):
                dominance_bad += 1
    random_checked = 0
    for key in ((4, 1, 4, 14, 13), (5, 1, 5, 16, 17)):
        p = ParameterTuple(*key)
        rng = random.Random(42)
        for _ in range(500):
            edges = [(u, v, rng.randint(1, p.delta))
                     for u, v in itertools.combinations(range(5), 2)
                     if rng.random() >= 0.25]
            g = LabelledGraph(5, p.delta, edges)
            sp = shortest_path_complete(p.delta, g)
            if any(sp.get(u, v) != d for u, v, d in g.edges()):
                continue
            random_checked += 1
            if magic_complete(p, p.delta, g).completed != sp:
                full_mismatch += 1
    elapsed = time.monotonic() - start
    ok = (missing_mismatch == 0 and full_mismatch == 0 and dominance_bad == 0
          and consistent > 3000 and random_checked > 300 and elapsed < 120.0)
    _verdict(7, "shortest-path-correspondence", ok,
             f"4096 exhaustive + {random_checked} random instances, "
             f"{missing_mismatch}/{full_mismatch}/{dominance_bad} mismatches, "
             f"{elapsed:.1f}s, limit 120s")


def test_criterion_8_family_soundness():
    start = time.monotonic()
    unsound = 0
    unexplained = []
    for row in enumerate_admissible(3):
        p = row.params
        for length in range(3, 7):
            for labels in itertools.product(range(1, 4), repeat=length):
                cycle = LabelledCycle(labels)
                if canonical_cycle(cycle).labels != labels:
                    continue
                matched = bool(family_classify(p, cycle))
                completable = brute_force_completable(
                    p, cycle_to_graph(cycle, 3)) is not None
                if matched and completable:
                    unsound += 1
                if not completable and not matched:
                    unexplained.append((p.key(), labels))
    elapsed = time.monotonic() - start
    ok = (unsound == 0
          and unexplained == [((3, 1, 3, 8, 9), (3, 3, 3, 3, 3))]
          and elapsed < 60.0)
    _verdict(8, "family-soundness", ok,
             f"10 tuples, cycle lengths 3..6, {unsound} unsound matches, "
             f"{len(unexplained)} uncompletable cycles left unexplained, "
             f"{elapsed:.1f}s, limit 60s")


def test_criterion_9_amalgamation():
    start = time.monotonic()
    report = check_amalgamation(ParameterTuple(3, 1, 2, 10, 9), 2)
    elapsed = time.monotonic() - start
    ok = report.passed and report.instances > 1000 and elapsed < 120.0
    _verdict(9, "amalgamation", ok,
             f"{report.instances} amalgams, {len(report.failures)} failures, "
             f"{elapsed:.1f}s, limit 120s")
