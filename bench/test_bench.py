"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import model  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """The benchmark as the command line runs it, with no package on any path."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PATH"] = os.pathsep.join(
        part for part in env.get("PATH", "").split(os.pathsep)
        if part and not (Path(part) / "magic-completion").exists())
    assert shutil.which("magic-completion", path=env["PATH"]) is None
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_from_uninstalled_checkout(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0.000000 ratio" in done.stdout
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}
    assert all(metric["value"] >= 0 for metric in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(tmp_path, "--workload", "small-queries", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def package():
    return run.import_package(ROOT / "src")


def _first(name, package, tmp_path):
    runner = workloads.WORKLOADS[name](package, 5, workloads.SIZES[name]["tiny"], tmp_path)
    request = runner.round(0)[0]
    _, output = runner.call(request)
    assert runner.check(request, output) == []
    return runner, request, output


def _flip(line: str, at: int = -1) -> str:
    """Change the label in token `at` of a line to another label."""
    tokens = line.split()
    tokens[at] = "1" if tokens[at] != "1" else "2"
    return " ".join(tokens)


def _counted_failed(runner, request, output) -> int:
    log = run.OutputLog(runner)
    log(0, request, output)
    log(1, request, output)
    return log.failures()[0]


def test_flipped_label_fails_complete_large(package, tmp_path):
    runner, request, (code, text) = _first("complete-large", package, tmp_path)
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(("step ", "final ")))
    lines[at] = _flip(lines[at], 6 if lines[at].startswith("step ") else 4)
    corrupted = (code, "\n".join(lines) + "\n")
    assert runner.check(request, corrupted)
    assert _counted_failed(runner, request, corrupted) == 2


def test_flipped_label_fails_small_queries(package, tmp_path):
    runner, request, output = _first("small-queries", package, tmp_path)
    lines = output[2].splitlines()
    lines[-1] = _flip(lines[-1])
    corrupted = (output[0], output[1], "\n".join(lines) + "\n", *output[3:])
    assert runner.check(request, corrupted)
    assert _counted_failed(runner, request, corrupted) == 2


def test_counterexample_fails_verify_sweep(package, tmp_path):
    runner, request, (code, text) = _first("verify-sweep", package, tmp_path)
    corrupted = (code, text.replace("failures=0", "failures=1", 1))
    assert runner.check(request, corrupted)
    wrong_count = (code, text.replace("instances=", "instances=1", 1))
    assert runner.check(request, wrong_count)


def test_raised_request_counts_as_failed(package, tmp_path):
    runner, request, _ = _first("small-queries", package, tmp_path)
    assert _counted_failed(runner, request, ValueError("boom")) == 2


def test_own_triangle_rule_matches_the_class_definition():
    rule = model.ClassRule(5, 3, 3, 16, 13)
    assert rule.forbidden(1, 1, 3)          # non-metric
    assert rule.forbidden(1, 1, 1)          # odd perimeter 3 < 2*K1 + 1
    assert rule.forbidden(1, 5, 5)          # odd perimeter 11 >= 2*K2 + 2*1
    assert rule.forbidden(5, 5, 5)          # odd perimeter 15 >= C1
    assert not rule.forbidden(3, 3, 3)
    assert not rule.forbidden(4, 5, 5)      # even perimeter 14 < C0


def test_tuples_file_and_rule_agree_with_the_package(package):
    rows = {(row.params.key()): row for d in range(3, 9)
            for row in package.enumerate_admissible(d)}
    tuples = model.load_tuples()
    assert len(tuples) == len(rows) == 298
    for rule, magics in tuples:
        p = package.ParameterTuple(rule.delta, rule.k1, rule.k2, rule.c0, rule.c1)
        assert p.key() in rows
        assert set(magics) == package.eligible_magic(p)
        for a in range(1, rule.delta + 1):
            for b in range(1, rule.delta + 1):
                for c in range(1, rule.delta + 1):
                    assert rule.forbidden(a, b, c) != package.triangle_allowed(p, a, b, c)


def test_tail_keeps_ten_samples_above():
    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (75, 30.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    import types

    import tracing

    package = types.ModuleType("fakepkg")
    params = types.ModuleType("fakepkg.params")
    params.classify_admissible = lambda p: ("verdict", p)
    package.classify_admissible = params.classify_admissible
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.params", params)
    tracer = tracing.Tracer()
    tracer.install("fakepkg")
    assert package.classify_admissible is params.classify_admissible
    assert package.classify_admissible(7) == ("verdict", 7)
    tracer.uninstall()
    assert "completion.magic_complete" in tracer.absent
    assert "params.classify_admissible" not in tracer.absent
    metrics = tracer.metrics()
    assert metrics["params.classify_admissible.calls"] == (1, "count")
    assert metrics["completion.magic_complete.calls"] == (0, "count")
    assert len(tracer.spans) == 1
