"""Shared pytest wiring: collect acceptance verdict lines and echo them in
the terminal summary so they survive output capture, and let child
processes import the package the tests import."""

import os
from pathlib import Path

import pytest

import magic_completion

ACCEPTANCE_VERDICTS: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def _package_path_for_subprocesses():
    # `python -m magic_completion` in a child process must find the package
    # also in an uninstalled checkout, where only pytest's pythonpath has it.
    root = str(Path(magic_completion.__file__).resolve().parent.parent)
    paths = [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
