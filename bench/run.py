"""Benchmark of the magic-completion package: one workload per process.

    python3 bench/run.py --workload complete-large --seed 1 --seconds 25 --trace 0

Runs from the root of an uninstalled checkout and imports the package from
./src.  Set-up (import, seeded input generation, input files and one
warm-up request per distinct tuple) is repeated three times and its median
is setup_s.  Then one whole round of requests runs, and more requests until
they have taken --seconds in total.  Each distinct request's output is
checked between timed requests; repeats must reproduce it byte for byte.
At the default seed the first round's outputs must also match the digest
recorded in digests.json.  With --trace 1 half of the time runs untraced
and half with spans around each module's public functions, and the
per-module metrics are reported instead.  The last line of stdout is one
JSON object with the result; the lines before it give the machine, the
failed fraction and each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

PACKAGE = "magic_completion"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# The tail is the highest of these percentiles with at least ten samples above it.
TAIL_LADDER = (99, 90, 75, 50)
DIGESTS = HERE / "digests.json"


class SetupError(Exception):
    pass


def machine_note() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def import_package(src: Path):
    """Import the package fresh from src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {src}: {exc}") from None
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not from {src}")
    return pkg


def set_up(workload: str, seed: int, size: str, root: Path):
    """Repeat the whole set-up; return the last workload and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = import_package(root / "src")
        runner = WORKLOADS[workload](pkg, seed, SIZES[workload][size],
                                     root / ".bench_out" / f"{workload}-{seed}")
        times.append(time.perf_counter() - start)
    return runner, statistics.median(times)


class Section:
    """Requests run round after round until they have taken `seconds`."""

    def __init__(self):
        self.latencies: list[float] = []
        self.items = 0
        self.busy = 0.0

    def run(self, runner, seconds: float, log, tracer=None) -> None:
        """Run the first round whole, then stop at the first request after
        the budget.  Rounds interleave their request kinds, so stopping
        inside one barely changes the mix."""
        index = 0
        while True:
            for request in runner.round(index):
                if index and self.busy >= seconds:
                    return
                if tracer is not None:
                    tracer.request += 1
                start = time.perf_counter()
                try:
                    items, output = runner.call(request)
                except Exception as exc:  # a failed request is counted, not fatal
                    items, output = 0, exc
                elapsed = time.perf_counter() - start
                self.latencies.append(elapsed)
                self.busy += elapsed
                self.items += items
                log(index, request, output)
            index += 1

    def items_per_s(self) -> float:
        return self.items / self.busy


class OutputLog:
    """Checks the first output of each distinct request, between timed
    requests, and compares later outputs of the same request by hash."""

    def __init__(self, runner):
        self.runner = runner
        self.hashes: dict = {}
        self.problems: dict = {}
        self.counts: dict = {}
        self.mismatched: list = []
        self.digest = hashlib.sha256()
        self.sealed = False  # the digest covers the first round of the first section
        self.attempted = 0

    def __call__(self, index, request, output) -> None:
        self.attempted += 1
        key = self.runner.key(request)
        self.counts[key] = self.counts.get(key, 0) + 1
        text = repr(output).encode()
        digest = hashlib.sha256(text).digest()
        if key in self.hashes:
            if digest != self.hashes[key]:
                self.mismatched.append(key)
            return
        self.hashes[key] = digest
        if index == 0 and not self.sealed:
            self.digest.update(text)
        if isinstance(output, Exception):
            self.problems[key] = [f"raised {type(output).__name__}: {output}"]
            return
        try:
            self.problems[key] = self.runner.check(request, output)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            self.problems[key] = [f"unreadable output: {type(exc).__name__}: {exc}"]

    def failures(self) -> tuple[int, list[str]]:
        """Failed request count and one message per failed request kind."""
        bad = [key for key, problems in self.problems.items() if problems]
        messages = [f"{key}: {self.problems[key][0]}" for key in bad]
        messages += [f"{key}: output differs from the same request's first output"
                     for key in self.mismatched]
        return sum(self.counts[key] for key in bad) + len(self.mismatched), messages


def tail(latencies: list[float]) -> tuple[int, float]:
    """Nearest-rank percentile from TAIL_LADDER with ten samples above it."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    note = machine_note()
    root = Path.cwd()
    print(f"machine nproc={note['nproc']} cpu={note['cpu']!r} python={note['python']} "
          f"loadavg={note['loadavg'][0]:.2f}")
    try:
        runner, setup_s = set_up(args.workload, args.seed, args.size, root)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log = OutputLog(runner)
    timed = Section()
    tracer = None
    if args.trace:
        timed.run(runner, args.seconds / 2, log)
        log.sealed = True
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
        traced = Section()
        traced.run(runner, args.seconds / 2, log, tracer)
        tracer.uninstall()
    else:
        timed.run(runner, args.seconds, log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, messages = log.failures()
    digest = log.digest.hexdigest()
    print(f"digest {digest}")
    if args.seed == DEFAULT_SEED and args.size == "full":
        expected = json.loads(DIGESTS.read_text()).get(args.workload)
        if digest != expected:
            failed += 1
            messages.append(f"digest {digest} differs from the recorded {expected}")
    for message in messages[:20]:
        print(f"failed {message}")
    attempted = log.attempted
    failed = min(failed, attempted)
    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted})")

    if tracer is None:
        pct, tail_s = tail(timed.latencies)
        print(f"request_tail is p{pct} of {len(timed.latencies)} requests")
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (timed.items_per_s(), "1/s"),
            "request_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
            "request_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.items_per_s_untraced"] = (timed.items_per_s(), "1/s")
        metrics["trace.items_per_s_traced"] = (traced.items_per_s(), "1/s")
        metrics["trace.overhead_ratio"] = (timed.items_per_s() / traced.items_per_s(), "ratio")
        out = root / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"machine": note, "absent": tracer.absent,
                                   "uncounted": tracer.uncounted,
                                   "fields": ["name", "start", "end", "parent", "request"],
                                   "spans": tracer.spans}))
        print(f"spans {len(tracer.spans)} written to {out.relative_to(root)}")
        print(f"absent {' '.join(tracer.absent) or '-'}")
        print(f"uncounted {' '.join(tracer.uncounted) or '-'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
