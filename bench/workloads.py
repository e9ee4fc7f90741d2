"""The three workloads: seeded inputs, one timed request, and its checks.

Each workload builds its inputs from the seed with the benchmark's own
generators, so the package only ever receives the generated inputs.  A
request returns (items, output); `check` judges an output without timing it
and returns the problems found.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

import model

# Sizes per workload: "full" is the benchmark, "tiny" is for the tests.
SIZES = {
    "complete-large": {"full": {"n": 80, "copies": 3, "densities": (0.35, 0.6)},
                       "tiny": {"n": 12, "copies": 1, "densities": (0.5,)}},
    "small-queries": {"full": {"queries": 3000}, "tiny": {"queries": 60}},
    "verify-sweep": {"full": {"random": 25, "exhaustive": 4},
                     "tiny": {"random": 2, "exhaustive": 3}},
}

# The three admissible cases: II-A, II-B and III, with their selected magic value.
CASE_TUPLES = ((model.ClassRule(5, 3, 3, 14, 13), 3),
               (model.ClassRule(5, 3, 3, 16, 13), 3),
               (model.ClassRule(4, 1, 4, 14, 13), 2))
EXHAUSTIVE_TUPLE = model.ClassRule(3, 1, 2, 10, 9)
# Random scopes run on the delta-3 tuples with the fewest 5-vertex members.
# On the delta-4 and delta-5 case tuples about one random instance in 700
# takes seconds and hundreds of MB, and on the loosest delta-3 tuples one in
# a thousand enumerates 20k completions; either made throughput, tail latency
# and peak memory differ by 20-90% between seeds.
RANDOM_TUPLES = (model.ClassRule(3, 1, 2, 10, 9), model.ClassRule(3, 2, 2, 10, 9),
                 model.ClassRule(3, 3, 3, 10, 11))


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + ("" if not err.getvalue() else "stderr " + err.getvalue())


class CompleteLarge:
    """`complete --file F --trace --obstacle` on large partial graphs."""

    name = "complete-large"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path):
        self.pkg = pkg
        rng = random.Random(seed)
        n = size["n"]
        workdir.mkdir(parents=True, exist_ok=True)
        # Per tuple: thinned members (completable) and random-label noise
        # (uncompletable, so obstacle extraction runs), at two densities,
        # interleaved so that any stretch of the pool has the same mix.
        self.pool = []
        for copy in range(size["copies"]):
            for rule, magic in CASE_TUPLES:
                for density in size["densities"]:
                    member = model.thin(model.random_member(rule, magic, rng, n), rng, density)
                    noise = model.noise(rule, rng, n, density)
                    for kind, dist in (("member", member), ("noise", noise)):
                        path = workdir / f"{'-'.join(rule.args())}-{kind}-{density}-{copy}.txt"
                        path.write_text(model.graph_text(n, rule.delta, dist))
                        self.pool.append((rule, n, dist, [
                            "complete", "--params", *rule.args(), "--file", str(path),
                            "--trace", "--obstacle"]))
        for rule, magic in CASE_TUPLES:
            self.call(next(r for r in self.pool if r[0] == rule))

    def round(self, index: int):
        return self.pool

    def key(self, request):
        return Path(request[3][8]).name

    def call(self, request):
        return 1, run_cli(self.pkg.cli, request[3])

    def check(self, request, output) -> list[str]:
        rule, n, given, _ = request
        code, text = output
        lines = text.splitlines()
        completed = dict(given)
        problems = []
        index = 1
        while index < len(lines) and lines[index].startswith(("step ", "final ")):
            tokens = lines[index].split()
            u, v, d = ((int(tokens[3]), int(tokens[4]), int(tokens[6])) if tokens[0] == "step"
                       else (int(tokens[1]), int(tokens[2]), int(tokens[4])))
            if (u, v) in completed:
                problems.append(f"pair ({u}, {v}) assigned twice")
            completed[u, v] = d
            index += 1
        verdict = lines[index] if index < len(lines) else ""
        if verdict not in ("verdict Completable", "verdict Uncompletable"):
            return problems + [f"no verdict line, exit code {code}"]
        completable = verdict == "verdict Completable"
        if code != (0 if completable else 1):
            problems.append(f"exit code {code} with {verdict}")
        rest = lines[index + 1:]
        if completable:
            _, printed = model.read_graph_text("\n".join(rest))
            if printed != completed:
                problems.append("printed graph differs from the trace")
            return problems + model.check_completion(rule, n, given, completed, True)
        bad = [tuple(map(int, line.split()[1:4])) for line in rest if line.startswith("forbidden ")]
        problems += model.check_completion(rule, n, given, completed, False, bad)
        obstacle = [line.split()[1:] for line in rest if line.startswith(("obstacle ", "hom "))]
        if len(obstacle) != 2:
            return problems + ["missing obstacle or hom line"]
        labels, hom = (list(map(int, part)) for part in obstacle)
        return problems + model.check_obstacle(given, labels, hom)


def _query(rng: random.Random, tuples) -> tuple:
    """One library query: a tuple, a magic value and a cycle or graph text.

    The kinds are weighted so that about half of the queries are
    uncompletable: uniform random cycles almost never are, cycles with one
    long edge and random-label graphs mostly are, thinned members never are.
    """
    rule, magics = rng.choice(tuples)
    magic = rng.choice(magics)
    kind = rng.choice(("cycle", "detour", "detour", "member", "noise", "noise"))
    if kind in ("cycle", "detour"):
        length = rng.randint(4, 8)
        if kind == "cycle":
            labels = [rng.randint(1, rule.delta) for _ in range(length)]
        else:
            start = rng.randrange(length)
            labels = [rule.delta if i == start else 1 for i in range(length)]
        given = {(min(i, (i + 1) % length), max(i, (i + 1) % length)): d
                 for i, d in enumerate(labels)}
        return rule, magic, length, given, " ".join(map(str, labels))
    n = rng.randint(5, 10)
    if kind == "member":
        given = model.thin(model.random_member(rule, magic, rng, n), rng, 0.5)
    else:
        given = model.noise(rule, rng, n, 0.6)
    return rule, magic, n, given, model.graph_text(n, rule.delta, given)


class SmallQueries:
    """The README "Library" call sequence on small cycles and graphs."""

    name = "small-queries"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path):
        self.pkg = pkg
        rng = random.Random(seed)
        tuples = model.load_tuples()
        self.pool = [_query(rng, tuples) for _ in range(size["queries"])]
        self.names = {id(query): f"query {i}" for i, query in enumerate(self.pool)}
        warmed = set()
        for query in self.pool:
            if query[:2] not in warmed:
                warmed.add(query[:2])
                self.call(query)

    def round(self, index: int):
        return self.pool

    def key(self, request):
        return self.names[id(request)]

    def call(self, request):
        pkg = self.pkg
        rule, magic, _, _, text = request
        p = pkg.ParameterTuple(rule.delta, rule.k1, rule.k2, rule.c0, rule.c1)
        choice = pkg.select_magic_parameter(p, magic)
        if text.startswith("graph"):
            g = pkg.parse_graph(text)
        else:
            g = pkg.cycle_to_graph(pkg.parse_cycle(text), p.delta)
        outcome = pkg.magic_complete(p, choice.selected, g)
        trace = pkg.serialize_trace(outcome.trace)
        graph = pkg.serialize_graph(outcome.completed)
        if outcome.completable:
            return 1, (True, trace, graph, None, None, None)
        obstacle = pkg.extract_obstacle(p, choice.selected, g, outcome.trace)
        families = pkg.family_classify(p, obstacle.cycle)
        return 1, (False, trace, graph, obstacle.cycle.labels, obstacle.hom,
                   [(m.family.value, m.n, m.partition) for m in families])

    def check(self, request, output) -> list[str]:
        rule, magic, n, given, _ = request
        completable, trace, graph, labels, hom, _ = output
        size, completed = model.read_graph_text(graph)
        problems = [] if size == n else [f"completed graph has {size} vertices, expected {n}"]
        if not trace.startswith(f"magic M={magic} "):
            problems.append("trace header names another magic value")
        problems += model.check_completion(rule, n, given, completed, completable)
        if not completable:
            problems += model.check_obstacle(given, labels, hom)
        return problems


PROPERTY_LINE = re.compile(r"PROPERTY (\S+) instances=(\d+) failures=(\d+)$")


class VerifySweep:
    """`verify --jobs 1`: one exhaustive scope, then seeded random scopes,
    all on delta-3 tuples."""

    name = "verify-sweep"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.count = size["random"]
        self.issued = 0
        self.exhaustive = ["verify", "--params", *EXHAUSTIVE_TUPLE.args(),
                           "--exhaustive", str(size["exhaustive"]), "--jobs", "1"]
        self.vertices = size["exhaustive"]
        self.amalgams = model.amalgam_count(EXHAUSTIVE_TUPLE)
        # Warm-up: one small request per distinct tuple, on seeds no round uses.
        for rule in RANDOM_TUPLES:
            self.call(self._random(rule, "warm-up", 1))

    def _random(self, rule, tag, count=None):
        scope_seed = random.Random(f"{self.seed}/{rule.args()}/{tag}").randrange(2 ** 31)
        return rule, ["verify", "--params", *rule.args(), "--random", str(count or self.count),
                      "--seed", str(scope_seed), "--jobs", "1"]

    def round(self, index: int):
        """The exhaustive scope once per section, then random scopes."""
        head = [(EXHAUSTIVE_TUPLE, self.exhaustive)] if index == 0 else []
        self.issued += 1
        return head + [self._random(rule, self.issued) for rule in RANDOM_TUPLES]

    def key(self, request):
        return tuple(request[1])

    def call(self, request):
        code, text = run_cli(self.pkg.cli, request[1])
        items = sum(int(m.group(2)) for m in map(PROPERTY_LINE.match, text.splitlines()) if m)
        return items, (code, text)

    def check(self, request, output) -> list[str]:
        rule, argv = request
        code, text = output
        lines = text.splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        if not lines or not lines[0].startswith("verify " + " ".join(rule.args()) + " magic="):
            return problems + ["missing verify header"]
        found = {}
        for line in lines[1:]:
            match = PROPERTY_LINE.match(line)
            if not match:
                problems.append(f"unexpected line {line!r}")
                continue
            found[match.group(1)] = int(match.group(2))
            if match.group(3) != "0":
                problems.append(line)
        if len(found) != 7:
            return problems + [f"{len(found)} PROPERTY lines, expected 7"]
        if "--exhaustive" in argv:
            pairs = self.vertices * (self.vertices - 1) // 2
            total = (rule.delta + 1) ** pairs
            if found["amalgamation"] != self.amalgams:
                problems.append(f"amalgamation instances differ from {self.amalgams}")
        else:
            total = rule.delta * (rule.delta + 1) // 2 + self.count
            if found["amalgamation"] != min(self.count, 250):
                problems.append("amalgamation instances differ from the random count")
        # Every instance is checked against the oracle and for automorphisms;
        # completable ones for optimality and parity, the rest for provenance
        # and obstacle extraction.
        if (found["oracle-equivalence"] != total or found["automorphism-preservation"] != total
                or found["optimality"] != found["parity"]
                or found["optimality"] + found["m-edge-provenance"] != total
                or found["obstacle-extraction"] != found["m-edge-provenance"]):
            problems.append(f"instance counts {found} do not add up to {total}")
        return problems


WORKLOADS = {cls.name: cls for cls in (CompleteLarge, SmallQueries, VerifySweep)}
