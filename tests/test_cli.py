import os
import subprocess
import sys
from pathlib import Path

import pytest

from magic_completion.cli import main

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


def test_params_check_unacceptable(capsys):
    code, out, _ = _run(capsys, "params", "check", "3", "2", "1", "10", "11")
    assert code == 1
    assert "acceptable no" in out.splitlines()
    assert any(l.startswith("violated ") for l in out.splitlines())


def test_forks_golden(capsys):
    code, out, _ = _run(capsys, "forks", "--params", "5", "3", "3", "16", "13")
    assert code == 0
    assert out == _golden("forks_5_3_3_16_13.txt")


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


def test_complete_missing_file(capsys):
    code, _, err = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--file", "/nonexistent/graph.txt")
    assert code == 2
    assert "error:" in err


def test_complete_rejects_huge_vertex_count(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("graph 3000000000 5\n")
    code, _, err = _run(capsys, "complete", "--params", "5", "3", "3", "16", "13",
                        "--file", str(path))
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
    code, _, err = _run(capsys, "verify", "--params", "5", "3", "3", "16", "13",
                        "--exhaustive", "6")
    assert code == 2
    assert "resource limit:" in err


def test_verify_random_parallel_identical(capsys):
    _, serial, _ = _run(capsys, "verify", "--params", "3", "1", "3", "10", "11",
                        "--random", "30", "--seed", "4")
    _, parallel, _ = _run(capsys, "verify", "--params", "3", "1", "3", "10", "11",
                          "--random", "30", "--seed", "4", "--jobs", "2")
    assert serial == parallel


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
