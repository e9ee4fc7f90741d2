"""The benchmark's own model of the metric classes: triangle rule, seeded
input generators, the graph text format and the output checks.

Nothing here imports the package under test.  The triangle rule is written
from the class definition in README.md, so the checks below stay independent
of the engine they judge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

TUPLES_FILE = Path(__file__).with_name("tuples.txt")


@dataclass(frozen=True)
class ClassRule:
    """One class (delta, K1, K2, C0, C1) and its allowed-triangle table."""

    delta: int
    k1: int
    k2: int
    c0: int
    c1: int

    def forbidden(self, a: int, b: int, c: int) -> bool:
        """README definition: non-metric, odd perimeter too short or too long,
        or even perimeter reaching C0."""
        p = a + b + c
        if 2 * max(a, b, c) > p:
            return True
        if p % 2 == 1:
            return p < 2 * self.k1 + 1 or p >= 2 * self.k2 + 2 * min(a, b, c) or p >= self.c1
        return p >= self.c0

    @cached_property
    def table(self) -> list[list[int]]:
        """table[a][b] is the bitmask of labels c with (a, b, c) allowed."""
        d = self.delta
        out = [[0] * (d + 1) for _ in range(d + 1)]
        for a, b, c in itertools.product(range(1, d + 1), repeat=3):
            if not self.forbidden(a, b, c):
                out[a][b] |= 1 << c
        return out

    def args(self) -> list[str]:
        return [str(x) for x in (self.delta, self.k1, self.k2, self.c0, self.c1)]


def load_tuples() -> list[tuple[ClassRule, tuple[int, ...]]]:
    """Admissible tuples with their eligible magic distances (see tuples.txt)."""
    out = []
    for line in TUPLES_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            nums, magic = line.split("magic=")
            out.append((ClassRule(*map(int, nums.split())),
                        tuple(int(m) for m in magic.split(","))))
    return out


# A graph is (n, {(u, v): d}) with u < v.
Graph = tuple[int, dict[tuple[int, int], int]]


def graph_text(n: int, delta: int, dist: dict[tuple[int, int], int]) -> str:
    lines = [f"graph {n} {delta}"]
    lines.extend(f"e {u} {v} {dist[u, v]}" for u, v in sorted(dist))
    return "\n".join(lines) + "\n"


def read_graph_text(text: str) -> Graph:
    n = None
    dist = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "graph":
            n = int(tokens[1])
        elif tokens[0] == "e":
            dist[int(tokens[1]), int(tokens[2])] = int(tokens[3])
        else:
            raise ValueError(f"unexpected graph line {line!r}")
    return n, dist


def random_member(rule: ClassRule, magic: int, rng: random.Random, n: int) -> dict:
    """A complete member on n vertices, grown one vertex at a time.

    Each label is drawn from those the allowed table leaves open against the
    vertices placed so far.  When a vertex dead-ends, all its distances become
    the magic value, which every (M, M, b) triangle tolerates.
    """
    table = rule.table
    labels = range(1, rule.delta + 1)
    dist: dict[tuple[int, int], int] = {}
    for v in range(n):
        row: dict[int, int] = {}
        for u in range(v):
            mask = ~0
            for w, d in row.items():
                mask &= table[dist[min(u, w), max(u, w)]][d]
            options = [c for c in labels if mask >> c & 1]
            if not options:
                row = {u: magic for u in range(v)}
                break
            row[u] = rng.choice(options)
        dist.update(((u, v), d) for u, d in row.items())
    return dist


def thin(dist: dict, rng: random.Random, keep: float) -> dict:
    return {pair: d for pair, d in dist.items() if rng.random() < keep}


def noise(rule: ClassRule, rng: random.Random, n: int, density: float) -> dict:
    """Random labels on a random set of pairs."""
    return {(u, v): rng.randint(1, rule.delta)
            for u, v in itertools.combinations(range(n), 2) if rng.random() < density}


def forbidden_triangles(rule: ClassRule, n: int, dist: dict) -> list[tuple[int, int, int]]:
    """Sorted vertex triples that are fully labelled and forbidden."""
    table = rule.table
    rows = [[0] * n for _ in range(n)]
    for (u, v), d in dist.items():
        rows[u][v] = rows[v][u] = d
    out = []
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            a = ru[v]
            if not a:
                continue
            rv = rows[v]
            for w in range(v + 1, n):
                b, c = ru[w], rv[w]
                if b and c and not table[a][b] >> c & 1:
                    out.append((u, v, w))
    return out


def check_completion(rule: ClassRule, n: int, given: dict, completed: dict,
                     completable: bool, reported_bad=None) -> list[str]:
    """Problems with one completion result: it must extend the input, be
    complete, and be Completable exactly when no triangle is forbidden."""
    problems = []
    for pair, d in given.items():
        if completed.get(pair) != d:
            problems.append(f"input pair {pair} changed to {completed.get(pair)}")
            break
    if len(completed) != n * (n - 1) // 2 or any(
            not (0 <= u < v < n and 1 <= d <= rule.delta) for (u, v), d in completed.items()):
        problems.append("completed graph is not a complete graph in range")
        return problems
    bad = forbidden_triangles(rule, n, completed)
    if completable != (not bad):
        problems.append(f"verdict completable={completable} but {len(bad)} forbidden triangles")
    if reported_bad is not None and list(reported_bad) != bad:
        problems.append("reported forbidden triangles differ from the triangle rule")
    return problems


def check_obstacle(given: dict, labels, hom) -> list[str]:
    """The obstacle cycle must map onto input edges carrying the same labels."""
    if len(labels) < 3 or len(labels) != len(hom):
        return [f"obstacle of {len(labels)} labels with a {len(hom)}-vertex map"]
    size = len(hom)
    for i in range(size):
        u, v = hom[i], hom[(i + 1) % size]
        if given.get((min(u, v), max(u, v))) != labels[i]:
            return [f"obstacle edge {i} maps to ({u}, {v}) without label {labels[i]}"]
    return []


def members(rule: ClassRule, size: int) -> list[dict]:
    """Every complete member on `size` labelled vertices."""
    pairs = list(itertools.combinations(range(size), 2))
    out = []
    for labels in itertools.product(range(1, rule.delta + 1), repeat=len(pairs)):
        dist = dict(zip(pairs, labels))
        if not forbidden_triangles(rule, size, dist):
            out.append(dist)
    return out


def amalgam_count(rule: ClassRule, max_size: int = 3) -> int:
    """Instances of an exhaustive strong-amalgamation sweep over members of at
    most max_size vertices: for each member A, one instance per ordered pair
    of label-preserving embeddings of A into members at least as large."""
    by_size = [members(rule, size) for size in range(max_size + 1)]
    total = 0
    for size, parts in enumerate(by_size):
        for a in parts:
            sides = sum(1 for b_size in range(size, max_size + 1) for b in by_size[b_size]
                        for image in itertools.permutations(range(b_size), size)
                        if all(b[min(image[x], image[y]), max(image[x], image[y])] == d
                               for (x, y), d in a.items()))
            total += sides * sides
    return total
