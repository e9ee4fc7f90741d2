import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from magic_completion import (LabelledGraph, ParameterTuple, RandomScope,
                              completion, extract_obstacle, magic_complete, oracle,
                              select_magic_parameter, serialize_graph,
                              triangle_allowed)
from magic_completion.cli import main
from magic_completion.completion import _steps

DATA = Path(__file__).parent / "data"


def _golden(name: str) -> str:
    return (DATA / name).read_text()


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_list_golden(capsys):
    code, out, err = _run(capsys, "params", "list", "--delta", "3")
    assert code == 0
    assert err == ""
    assert out == _golden("catalogue_delta3.txt")


def test_params_list_repeat_runs_identical(capsys):
    _, first, _ = _run(capsys, "params", "list", "--delta", "3")
    _, second, _ = _run(capsys, "params", "list", "--delta", "3")
    assert first == second


def test_params_check_admissible(capsys):
    code, out, _ = _run(capsys, "params", "check", "5", "3", "3", "16", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "params 5 3 3 16 13"
    assert lines[1] == "acceptable yes"
    assert sum(1 for l in lines if l.startswith("clause ")) == 10
    assert "case II-B" in lines
    assert "magic {3} selected 3" in lines
    assert lines[-1] == "admissible yes"


def test_params_check_inadmissible(capsys):
    code, out, _ = _run(capsys, "params", "check", "3", "1", "1", "10", "11")
    assert code == 1
    assert "case none" in out.splitlines()
    assert out.splitlines()[-1] == "admissible no"


def test_params_check_reports_c1_out_of_range(capsys):
    code, out, err = _run(capsys, "params", "check", "3", "1", "2", "10", "13")
    assert (code, err) == (1, "")
    assert out == "params 3 1 2 10 13\nacceptable no\nviolated 2*delta+2 <= C1 <= 3*delta+2\n"


def test_params_list_refuses_delta_below_3(capsys):
    assert _run(capsys, "params", "list", "--delta", "2") == (
        2, "", "error: delta must be at least 3\n")


def test_params_check_unacceptable(capsys):
    code, out, _ = _run(capsys, "params", "check", "3", "2", "1", "10", "11")
    assert code == 1
    assert "acceptable no" in out.splitlines()
    assert any(l.startswith("violated ") for l in out.splitlines())


def test_forks_golden(capsys):
    code, out, _ = _run(capsys, "forks", "--params", "5", "3", "3", "16", "13")
    assert code == 0
    assert out == _golden("forks_5_3_3_16_13.txt")


def test_verify_exhaustive_stats_golden(capsys):
    # the PROPERTY lines on stdout and the clause, parity-exception and
    # automorphism stats on stderr, over all 4096 graphs on 4 vertices
    code, out, err = _run(capsys, "verify", "--params", "3", "1", "2", "10", "9",
                          "--exhaustive", "4", "--stats")
    assert code == 0
    assert out == _golden("verify_exhaustive4_3_1_2_10_9.txt")
    assert err == _golden("verify_exhaustive4_3_1_2_10_9.stats.txt")


def test_forks_magic_override(capsys):
    code, out, _ = _run(capsys, "forks", "--params", "3", "1", "3", "10", "11",
                        "--magic", "3")
    assert code == 0
    assert out.splitlines()[0] == "forks 3 1 3 10 11 magic=3"
    code, _, err = _run(capsys, "forks", "--params", "3", "1", "3", "10", "11",
                        "--magic", "1")
    assert code == 2
    assert "error:" in err


def test_complete_cycle_golden(capsys):
    code, out, _ = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--cycle", "1 1 5 5 5", "--trace", "--obstacle")
    assert code == 1
    assert out == _golden("complete_11555.txt")


def test_complete_file_completable(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("graph 4 5\ne 0 1 1\ne 1 2 5\ne 2 3 5\ne 0 3 5\n")
    code, out, _ = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--file", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "magic M=3 params 5 3 3 16 13"
    assert lines[1] == "verdict Completable"
    assert "e 0 2 4" in lines
    assert "e 1 3 4" in lines


def test_complete_reports_an_invariant_violation(capsys, monkeypatch, tmp_path):
    # the hand-built rule of test_cascade_within_one_pass_is_refused cascades
    # within its own pass
    forks = {(1, 2): "plus", (2, 1): "plus"}
    monkeypatch.setattr(completion, "_step_table", lambda p, magic: ((1, 2, forks),))
    path = tmp_path / "g.txt"
    path.write_text("graph 4 3\ne 0 1 1\ne 1 2 2\ne 0 3 1\n")
    assert _run(capsys, "complete", "--params", "3", "1", "2", "10", "9",
                "--file", str(path)) == (
        2, "", "invariant violation: cascade within one pass: pair (2, 3) matches "
               "target 2 only after this step's assignments\n")


@pytest.mark.parametrize("key", [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13)])
def test_forbidden_lines_match_get_reference(capsys, tmp_path, key):
    p = ParameterTuple(*key)
    args = [str(x) for x in key]
    magic = select_magic_parameter(p).selected
    rng = random.Random(len(key) + sum(key))
    runs = 0
    for n in range(20, 41, 5):
        for density in (0.1, 0.5):
            g = LabelledGraph(n, p.delta, [
                (u, v, rng.randint(1, p.delta))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
            path = tmp_path / f"g{n}-{density}.txt"
            path.write_text(serialize_graph(g))
            code, out, _ = _run(capsys, "complete", "--params", *args, "--file", str(path))
            if code == 0:
                continue
            runs += 1
            done = magic_complete(p, magic, g).completed
            expected = [f"forbidden {u} {v} {w} = "
                        f"{done.get(u, v)} {done.get(u, w)} {done.get(v, w)}"
                        for u, v, w in itertools.combinations(range(n), 3)
                        if not triangle_allowed(p, done.get(u, v), done.get(u, w), done.get(v, w))]
            assert code == 1
            assert [line for line in out.splitlines() if line.startswith("forbidden ")] == expected
    assert runs >= 6


def _reference_complete_stdout(p, magic, g, trace):
    """`complete --obstacle` stdout from the writers as they were before the
    decimal table: str() formatting and three `get` calls per triangle."""
    outcome = magic_complete(p, magic, g)
    if trace:
        lines = [f"magic M={magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
        finals = []
        for step, (u, v), value, witness, family in outcome.trace.records:
            if family == "final-M":
                finals.append(f"final {u} {v} = {value}")
            elif family in ("plus", "minus", "cbound"):
                lines.append(f"step {step} set {u} {v} = {value} witness {witness} via {family}")
        lines.extend(finals)
    else:
        lines = [f"magic M={magic} params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}"]
    done = outcome.completed
    if outcome.completable:
        lines.append("verdict Completable")
        lines.append(f"graph {done.n} {done.delta}")
        lines.extend(f"e {u} {v} {d}" for u, v, d in done.edges())
    else:
        lines.append("verdict Uncompletable")
        lines.extend(f"forbidden {u} {v} {w} = {done.get(u, v)} {done.get(u, w)} {done.get(v, w)}"
                     for u, v, w in outcome.forbidden_triangles)
        obstacle = extract_obstacle(p, magic, g, outcome.trace)
        lines.append("obstacle " + " ".join(map(str, obstacle.cycle.labels)))
        lines.append("hom " + " ".join(map(str, obstacle.hom)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key", [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13),
                                 (32, 1, 31, 68, 67)])
def test_complete_stdout_matches_the_reference_writers(capsys, tmp_path, key):
    # seeded runs of both verdicts, with and without the trace; the last
    # tuple has delta MAX_DELTA, so labels and steps reach 32 and 62
    p = ParameterTuple(*key)
    magic = select_magic_parameter(p).selected
    rng = random.Random(sum(key) + 1)
    verdicts = set()
    for n in (1, 6, 15, 40):
        for density in (0.05, 0.3, 0.7):
            g = LabelledGraph(n, p.delta, [
                (u, v, rng.randint(1, p.delta))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
            path = tmp_path / f"g{n}-{density}.txt"
            path.write_text(serialize_graph(g))
            for trace in (False, True):
                code, out, err = _run(capsys, "complete", "--params", *map(str, key), "--file",
                                      str(path), "--obstacle", *(["--trace"] if trace else []))
                assert (out, err) == (_reference_complete_stdout(p, magic, g, trace), "")
                verdicts.add(code)
    assert verdicts == {0, 1}


@pytest.mark.parametrize("key", [(5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (4, 1, 4, 14, 13)])
def test_cli_obstacle_matches_extract_obstacle(capsys, tmp_path, key):
    # the CLI pulls the obstacle back from its own run; the library function
    # checks the trace against the graph and rebuilds the completed graph
    p = ParameterTuple(*key)
    magic = select_magic_parameter(p).selected
    rng = random.Random(sum(key))
    for n in (12, 25, 50, 80):
        g = LabelledGraph(n, p.delta, [
            (u, v, rng.randint(1, p.delta))
            for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        path = tmp_path / f"g{n}.txt"
        path.write_text(serialize_graph(g))
        code, out, _ = _run(capsys, "complete", "--params", *map(str, key), "--file", str(path),
                            "--trace", "--obstacle")
        assert code == 1
        obstacle = extract_obstacle(p, magic, g, magic_complete(p, magic, g).trace)
        assert out.splitlines()[-2:] == [
            "obstacle " + " ".join(map(str, obstacle.cycle.labels)),
            "hom " + " ".join(map(str, obstacle.hom))]


@pytest.mark.parametrize("graph", [
    "graph 5 5\ne 0 1 1\ne 1 2 1\ne 2 3 5\ne 3 4 5\ne 0 4 5\n",
    "graph 9 5\ne 0 1 1\ne 1 2 5\ne 2 3 5\ne 0 3 5\ne 4 5 2\ne 5 6 3\ne 7 8 4\n"])
def test_complete_stats_go_to_stderr(capsys, tmp_path, graph):
    path = tmp_path / "g.txt"
    path.write_text(graph)
    argv = ("complete", "--params", "5", "3", "3", "16", "13", "--file", str(path),
            "--trace", "--obstacle")
    code, plain, err = _run(capsys, *argv)
    assert err == ""
    stats_code, out, err = _run(capsys, *argv, "--stats")
    assert (stats_code, out) == (code, plain)
    lines = [line.split() for line in err.splitlines()]
    assert all(line[:2] == ["stats", "complete"] for line in lines)
    fields = [dict(item.split("=") for item in line[2:]) for line in lines]
    *steps, totals, times = fields
    printed = [line.split() for line in out.splitlines()]
    # one line per scheduled step; its counts add up to the trace's step lines
    assert [(int(f["step"]), int(f["target"])) for f in steps] == [
        (step, target) for step, target, _ in _steps(ParameterTuple(5, 3, 3, 16, 13), 3)]
    for f in steps:
        for family in ("plus", "minus", "cbound"):
            assert int(f[family]) == sum(
                1 for t in printed if t[:2] == ["step", f["step"]] and t[-1] == family)
    assert sum(int(f[family]) for f in steps for family in ("plus", "minus", "cbound")) == sum(
        1 for t in printed if t[0] == "step")
    assert list(totals) == ["input", "plus", "minus", "cbound", "final-M", "forbidden"]
    for family in ("plus", "minus", "cbound"):
        assert int(totals[family]) == sum(int(f[family]) for f in steps)
    assert int(totals["final-M"]) == sum(1 for t in printed if t[0] == "final")
    assert int(totals["forbidden"]) == sum(1 for t in printed if t[0] == "forbidden")
    stages = ["read_s", "complete_s", "format_s"] + (["obstacle_s"] if code == 1 else [])
    assert list(times) == stages and all(float(v) >= 0 for v in times.values())


def test_complete_missing_file(capsys):
    code, _, err = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--file", "/nonexistent/graph.txt")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [
    ("complete", "--params", "3", "1", "2", "10", "9"),
    ("shortest-path", "--delta", "3"),
])
def test_graph_file_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    path = tmp_path / "g.txt"
    path.write_bytes(b"graph 3 3\ne 0 1 \xff\n")
    code, out, err = _run(capsys, *command, "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_complete_rejects_huge_vertex_count(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("graph 3000000000 5\n")
    code, _, err = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--file", str(path))
    assert code == 2
    assert "resource limit:" in err


def test_complete_rejects_huge_cycle(capsys):
    code, _, err = _run(capsys, "complete", "--params", "3", "1", "3", "10", "11",
                        "--cycle", " ".join(["1"] * 1001))
    assert code == 2
    assert "resource limit:" in err


def test_complete_rejects_labels_above_delta(capsys):
    code, _, err = _run(capsys, "complete", "--params", "3", "1", "3", "10", "11",
                        "--cycle", "1 1 5")
    assert code == 2
    assert "error:" in err


def test_complete_rejects_inadmissible_tuple(capsys):
    code, _, err = _run(capsys, "complete", "--params", "3", "1", "1", "10", "11",
                        "--cycle", "1 1 3")
    assert code == 2
    assert "not admissible" in err


def test_shortest_path_consistent(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("graph 3 3\ne 0 1 1\ne 1 2 1\n")
    code, out, err = _run(capsys, "shortest-path", "--delta", "3", "--file", str(path))
    assert code == 0
    assert err == ""
    assert out == "graph 3 3\ne 0 1 1\ne 0 2 2\ne 1 2 1\n"


def test_shortest_path_flags_nonmetric_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("graph 3 3\ne 0 1 1\ne 0 2 1\ne 1 2 3\n")
    code, out, err = _run(capsys, "shortest-path", "--delta", "3", "--file", str(path))
    assert code == 1
    assert "e 1 2 2" in out.splitlines()
    assert "note: input edge 1 2 = 3 exceeds shortest-path value 2" in err


def test_obstacles_enumerate_goldens(capsys):
    code, out, _ = _run(capsys, "obstacles", "enumerate",
                        "--params", "5", "3", "3", "16", "13", "--length", "5")
    assert code == 0
    assert out == _golden("cycles5_5_3_3_16_13.txt")
    code, out, _ = _run(capsys, "obstacles", "enumerate",
                        "--params", "5", "3", "3", "16", "13", "--length", "4")
    assert code == 0
    assert out == _golden("cycles4_5_3_3_16_13.txt")


def test_obstacles_enumerate_parallel_identical(capsys):
    _, serial, _ = _run(capsys, "obstacles", "enumerate",
                        "--params", "5", "3", "3", "16", "13", "--length", "5")
    _, parallel, _ = _run(capsys, "obstacles", "enumerate",
                          "--params", "5", "3", "3", "16", "13", "--length", "5",
                          "--jobs", "2")
    assert serial == parallel


def test_verify_exhaustive(capsys):
    code, out, _ = _run(capsys, "verify", "--params", "3", "1", "3", "10", "11",
                        "--exhaustive", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify 3 1 3 10 11 magic=2"
    assert lines[1] == "PROPERTY oracle-equivalence instances=64 failures=0"
    assert len([l for l in lines if l.startswith("PROPERTY ")]) == 7


def test_verify_exhaustive_over_budget(capsys):
    # 6^15 partial graphs: refused before any of them is built
    code, out, err = _run(capsys, "verify", "--params", "5", "3", "3", "16", "13",
                          "--exhaustive", "6")
    assert code == 2
    assert "resource limit:" in err
    assert out == ""


@pytest.mark.parametrize("command, message", [
    (("obstacles", "enumerate", "--params", "3", "1", "3", "10", "11",
      "--length", "100000000"), "3^100000000 candidate cycles exceed the budget"),
    (("verify", "--params", "3", "1", "2", "10", "9", "--random", "100000000"),
     "6 fork and 100000000 random instances exceed the budget of 100000"),
    (("params", "list", "--delta", "200"), "delta 200 exceeds the budget of 32"),
    (("complete", "--params", "3000", "1", "3000", "9002", "9001", "--cycle", "1 1 1"),
     "delta 3000 exceeds the budget of 32"),
], ids=["obstacles", "verify", "params", "complete"])
def test_hostile_sizes_exit_2(capsys, command, message):
    # each of these used to run for minutes or end in a MemoryError
    code, out, err = _run(capsys, *command)
    assert code == 2
    assert err.startswith("resource limit:") and message in err
    assert out == ""


def test_verify_negative_random_count_exit_2(capsys):
    code, out, err = _run(capsys, "verify", "--params", "3", "1", "2", "10", "9",
                          "--random", "-5")
    assert (code, out) == (2, "")
    assert err == "error: random instance count must be non-negative, got -5\n"


def test_verify_stats_go_to_stderr(capsys):
    argv = ("verify", "--params", "3", "1", "3", "10", "11", "--random", "5", "--seed", "2")
    code, plain, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain
    assert err.splitlines() == [
        "stats oracle-equivalence",
        "stats optimality clause1=6732 clause2=2240 clause3=0",
        "stats parity parity-exception=0",
        "stats automorphism-preservation input-automorphisms=15",
        "stats m-edge-provenance",
        "stats obstacle-extraction",
        "stats amalgamation"]


def test_verify_random_parallel_identical(capsys):
    # 306 instances in chunks of 19, at most four of them in flight
    argv = ("verify", "--params", "3", "1", "2", "10", "9", "--random", "300",
            "--seed", "4", "--stats")
    serial = _run(capsys, *argv, "--jobs", "1")
    assert serial[0] == 0 and serial[2].startswith("stats oracle-equivalence")
    assert _run(capsys, *argv, "--jobs", "2") == serial


def test_verify_prints_each_counterexample_with_its_instance(capsys, monkeypatch):
    # no real sweep fails, so two chosen uncompletable instances are made to
    # fail magic-edge provenance: each failure prints its detail and then
    # its instance, indented, in instance order
    p = ParameterTuple(3, 1, 2, 10, 9)
    magic = select_magic_parameter(p).selected
    failing = [g for g in oracle.scope_instances(p, RandomScope(30, 4))
               if not magic_complete(p, magic, g).completable]
    chosen = {failing[0]: "first", failing[-1]: "last"}
    assert len(chosen) == 2 and all(failing.count(g) == 1 for g in chosen)
    monkeypatch.setattr(oracle, "_provenance_details", lambda p, magic, g, completed: (
        [f"chosen {chosen[g]}"] if g in chosen else []))
    code, out, _ = _run(capsys, "verify", "--params", "3", "1", "2", "10", "9",
                        "--random", "30", "--seed", "4", "--jobs", "1")
    assert code == 1
    expected = [f"PROPERTY m-edge-provenance instances={len(failing)} failures=2"]
    for g, name in chosen.items():
        expected.append(f"counterexample chosen {name}")
        expected += ["  " + line for line in serialize_graph(g).strip("\n").split("\n")]
    lines = out.splitlines()
    start = lines.index(expected[0])
    assert lines[start:start + len(expected)] == expected
    assert lines[start + len(expected)].startswith("PROPERTY obstacle-extraction ")
    assert sum(line.endswith(" failures=0") for line in lines) == 6


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
@pytest.mark.parametrize("command", [
    ("verify", "--params", "3", "1", "3", "10", "11", "--random", "5"),
    ("obstacles", "enumerate", "--params", "5", "3", "3", "16", "13", "--length", "3"),
])
def test_jobs_out_of_range(capsys, command, jobs):
    code, _, err = _run(capsys, *command, "--jobs", str(jobs))
    assert code == 2
    assert "error: jobs must be between 1 and" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--params", "3", "1", "3", "10", "11"])
    assert info.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "magic_completion", "params", "list", "--delta", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == _golden("catalogue_delta3.txt")


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 starts a pool, so a serial run never imports its modules
    code = ("import sys, magic_completion.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
