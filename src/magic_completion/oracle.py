"""Brute-force ground truth and property verification sweeps.

Everything here is deliberately independent of the staged engine: the search
enumerates raw assignments and prunes on forbidden triangles only.  The
property checks compare the engine against this ground truth and against the
structural guarantees the engine is supposed to provide (optimality around
the magic value, parity preservation, automorphism preservation, magic-edge
provenance, obstacle validity, strong amalgamation).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from .completion import _steps, magic_complete, shortest_path_complete
from .errors import InputError, InvariantViolation, ResourceLimitError
from .obstacles import _pmap, _pull_back, _require_jobs, validate_obstacle_hom
from .params import CASE_III, ParameterTuple, classify_admissible
from .space import (LabelledCycle, LabelledGraph, _first_triangle, _label_maps,
                    allowed_masks, automorphisms, canonical_cycle, cycle_to_graph,
                    forbidden_triangles, fork_graph, is_automorphism, serialize_graph)

# Missing-pair budgets of the completion enumeration and of the completability
# search; every verification sweep runs within them.
ENUM_BUDGET = 12
BRUTE_BUDGET = 18

# Largest number of instances a verification scope may materialize,
# exhaustive or random (fork instances included); checked before any is built.
MAX_SCOPE_INSTANCES = 100_000

# Largest side of an amalgam in both amalgamation sweeps.
AMALGAM_PART_SIZE = 3

PROPERTY_ORDER = (
    "oracle-equivalence",
    "optimality",
    "parity",
    "automorphism-preservation",
    "m-edge-provenance",
    "obstacle-extraction",
    "amalgamation",
)


@dataclass(frozen=True)
class CompletionSet:
    base: LabelledGraph
    completions: tuple[LabelledGraph, ...]


@dataclass(frozen=True)
class Failure:
    instance: str
    detail: str


@dataclass
class PropertyReport:
    name: str
    instances: int
    failures: list[Failure] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def format_report(report: PropertyReport) -> str:
    lines = [f"PROPERTY {report.name} instances={report.instances} "
             f"failures={len(report.failures)}"]
    for failure in report.failures:
        lines.append(f"counterexample {failure.detail}")
        lines.extend("  " + text for text in failure.instance.strip("\n").split("\n"))
    return "\n".join(lines) + "\n"


def _search(p: ParameterTuple, g: LabelledGraph, budget: int,
            leaf=None) -> tuple[int, list[list[int]]]:
    """Depth-first search over the completions of g.

    The pairs of g.missing_pairs() are filled in that order, in one list copy
    of g's label matrix, each with the values 1..delta, in increasing order,
    that keep every triangle through the pair allowed: the AND of
    masks[mat[u][w]][mat[v][w]] over its third vertices w, where a pair not
    yet filled reads 0 and allows every value.  If given, leaf(mat) runs at
    every completion, with the filled matrix, and the search stops when it
    returns True.  Returns (completions, counts): the number of completions
    visited, and counts[i][d], the number of them that give the i-th pair the
    value d.  Each node adds up the completions below it, so no completion
    is walked to count it.  Without a leaf no node fills the last pair: its
    allowed values are tallied per distinct mask and spread over its counts
    once the search is done.
    """
    missing = g.missing_pairs()
    counts = [[0] * (p.delta + 1) for _ in missing]
    # forbidden_triangles also refuses a graph whose delta is not the tuple's
    if forbidden_triangles(p, g):
        return 0, counts
    if len(missing) > budget:
        raise ResourceLimitError(
            f"{len(missing)} missing pairs exceed the search budget of {budget}")
    mat = _padded(g, g.n)
    if not missing:
        if leaf is not None:
            leaf(mat)
        return 1, counts
    masks = allowed_masks(p)
    values = range(1, p.delta + 1)
    every = masks[0][0]
    thirds = [[w for w in range(g.n) if w != u and w != v] for u, v in missing]
    deepest = len(missing) - 1
    tally = leaf is None
    # the last pair's allowed values -> the number of nodes that reached them
    last: dict[int, int] = {}
    stop = False

    def descend(idx: int, dom: int) -> int:
        """Completions below the node that fills pair idx, whose allowed
        values are the bits of dom."""
        nonlocal stop
        row = counts[idx]
        u, v = missing[idx]
        ru, rv = mat[u], mat[v]
        found = 0
        if idx == deepest:
            # every allowed value completes the graph; no pair below reads it
            for d in values:
                if dom >> d & 1:
                    row[d] += 1
                    found += 1
                    if not tally:
                        ru[v] = rv[u] = d
                        if leaf(mat):
                            stop = True
                            break
            ru[v] = rv[u] = 0
            return found
        nxt = idx + 1
        x, y = missing[nxt]
        rx, ry = mat[x], mat[y]
        others = thirds[nxt]
        for d in values:
            if dom >> d & 1:
                ru[v] = rv[u] = d
                sub = every
                for w in others:
                    sub &= masks[rx[w]][ry[w]]
                if not sub:
                    continue
                if tally and nxt == deepest:
                    last[sub] = last.get(sub, 0) + 1
                    below = sub.bit_count()
                else:
                    below = descend(nxt, sub)
                row[d] += below
                found += below
                if stop:
                    break
        ru[v] = rv[u] = 0
        return found

    u, v = missing[0]
    dom = every
    for w in thirds[0]:
        dom &= masks[mat[u][w]][mat[v][w]]
    total = descend(0, dom)
    # descend refers to itself through its closure; unbinding it frees the
    # search state now instead of at the next cycle collection
    del descend
    for dom, times in last.items():
        for d in values:
            if dom >> d & 1:
                counts[deepest][d] += times
    return total, counts


def _completions(p: ParameterTuple, g: LabelledGraph, budget: int,
                 first: bool) -> list[LabelledGraph]:
    """The completions of g as graphs, in search order; only one if `first`."""
    out: list[LabelledGraph] = []

    def leaf(mat) -> bool:
        out.append(LabelledGraph._of(g.delta, mat))
        return first

    _search(p, g, budget, leaf)
    return out


def brute_force_completable(p: ParameterTuple, g: LabelledGraph) -> LabelledGraph | None:
    """First completion in depth-first order, or None; ResourceLimitError
    when g has more than BRUTE_BUDGET missing pairs."""
    results = _completions(p, g, BRUTE_BUDGET, first=True)
    return results[0] if results else None


def enumerate_all_completions(p: ParameterTuple, g: LabelledGraph) -> CompletionSet:
    """Every completion, ordered lexicographically by the assignment vector;
    ResourceLimitError when g has more than ENUM_BUDGET missing pairs."""
    results = _completions(p, g, ENUM_BUDGET, first=False)
    return CompletionSet(g, tuple(results))


def enumerate_members(p: ParameterTuple, size: int) -> list[LabelledGraph]:
    """All complete members of the class on `size` labelled vertices; like
    every enumeration, ResourceLimitError over ENUM_BUDGET missing pairs."""
    return list(enumerate_all_completions(p, LabelledGraph(size, p.delta)).completions)


def _optparity(p: ParameterTuple, magic: int, completed: LabelledGraph,
               pairs: list[tuple[int, int]], counts: list[list[int]]):
    """Optimality and parity findings on one instance, from one scan of the
    value counts of its missing pairs.  Each (pair, value) adds its count to
    the clause stats; the reported failure is the first in pair order."""
    case = classify_admissible(p).case_tag
    opt_stats = {"clause1": 0, "clause2": 0, "clause3": 0}
    par_stats = {"parity-exception": 0}
    opt_detail = par_detail = None
    parity_exception_possible = (
        case == CASE_III
        and p.c == 2 * p.delta + p.k1 + 1
        and p.c != 2 * p.k1 + 2 * p.k2 + 1
        and magic > p.k1 > 1)
    low = min(p.k1, magic - 1)
    high = max(p.k2, magic + 1)
    for (u, v), row in zip(pairs, counts):
        dbar = completed.get(u, v)
        for dprime, count in enumerate(row):
            if not count:
                continue
            if dprime >= dbar >= magic:
                opt_stats["clause1"] += count
            elif dprime <= dbar <= magic:
                opt_stats["clause2"] += count
            elif (case == "II-B" and dbar == magic - 1 and dprime > magic
                  and (dprime - dbar) % 2 == 0):
                opt_stats["clause3"] += count
            elif opt_detail is None:
                opt_detail = f"pair ({u}, {v}): engine={dbar} other={dprime} magic={magic}"
            if (dbar <= low or dbar >= high) and (dprime - dbar) % 2 != 0:
                if parity_exception_possible and dbar == p.k1:
                    par_stats["parity-exception"] += count
                elif par_detail is None:
                    par_detail = (f"pair ({u}, {v}): engine={dbar} other={dprime} "
                                  f"differ in parity")
    return [("optimality", True, opt_detail, opt_stats),
            ("parity", True, par_detail, par_stats)]


def _provenance_details(p: ParameterTuple, magic: int, g: LabelledGraph,
                        completed: LabelledGraph) -> list[str]:
    """Magic-labelled pairs in forbidden or perimeter-capped triangles of the
    completed graph must already be input edges."""
    masks = allowed_masks(p)
    given, mat = g._mat, completed._mat
    details = []
    for u, v, w in itertools.combinations(range(completed.n), 3):
        a, b, c = mat[u][v], mat[u][w], mat[v][w]
        if masks[a][b] >> c & 1 and a + b + c < p.c:
            continue
        for x, y, d in ((u, v, a), (u, w, b), (v, w, c)):
            if d == magic and not given[x][y]:
                details.append(
                    f"triangle ({u}, {v}, {w}) uses derived magic edge ({x}, {y})")
    return details


@lru_cache(maxsize=None)
def _cycle_uncompletable(p: ParameterTuple, labels: tuple[int, ...]) -> bool:
    g = cycle_to_graph(LabelledCycle(labels), p.delta)
    return brute_force_completable(p, g) is None


def _glue(p: ParameterTuple, a: LabelledGraph, b1: LabelledGraph,
          b2: LabelledGraph, emb1: tuple[int, ...],
          emb2: tuple[int, ...]) -> LabelledGraph:
    """Free superposition of b1 and b2 over their shared copies of a: b1 and
    b2 are complete graphs of p's delta, and emb1, emb2 are label-preserving
    injections of a into them.

    The glued graph keeps b1's vertex ids; vertices of b2 outside the shared
    part get fresh ids, and a pair inside the shared part gets the label it
    has on both sides.  Pairs across the two sides stay missing.
    """
    mapping = dict(zip(emb2, emb1))
    next_id = b1.n
    for y in range(b2.n):
        if y not in mapping:
            mapping[y] = next_id
            next_id += 1
    mat = _padded(b1, next_id)
    for x, y, d in b2.edges():
        mat[mapping[x]][mapping[y]] = mat[mapping[y]][mapping[x]] = d
    return LabelledGraph._of(p.delta, mat)


def _padded(g: LabelledGraph, size: int) -> list[list[int]]:
    """g's label matrix as lists, widened to `size` >= g.n vertices whose
    new pairs are missing."""
    pad = [0] * (size - g.n)
    return [list(row) + pad for row in g._mat] + [[0] * size for _ in pad]


def _amalgam_report(p: ParameterTuple, magic: int, amalgams, describe) -> PropertyReport:
    """The amalgamation report over `amalgams`, which yields the parts
    (a, b1, b2, emb1, emb2) of each amalgam: members b1, b2 of p's class
    and label-preserving injections emb1, emb2 of a into them.
    Each counts as an instance and, when its glued graph is uncompletable, as
    a failure whose detail is describe(*parts).  Many amalgams glue to the
    same graph, so the engine runs once per distinct glued graph."""
    report = PropertyReport("amalgamation", 0)
    # the glued label matrix, row by row, -> the engine's completable verdict;
    # labels are at most MAX_DELTA, so a byte per label keeps the key exact
    verdicts: dict[bytes, bool] = {}
    for parts in amalgams:
        glued = _glue(p, *parts)
        report.instances += 1
        key = bytes(itertools.chain.from_iterable(glued._mat))
        completable = verdicts.get(key)
        if completable is None:
            completable = verdicts[key] = magic_complete(p, magic, glued).completable
        if not completable:
            report.failures.append(Failure(serialize_graph(glued), describe(*parts)))
    return report


def _all_amalgams(p: ParameterTuple):
    """The parts of check_amalgamation's amalgams, in sweep order."""
    members = {size: enumerate_members(p, size)
               for size in range(0, AMALGAM_PART_SIZE + 1)}
    for a_size in range(0, AMALGAM_PART_SIZE + 1):
        for a in members[a_size]:
            sides = []
            for b_size in range(a_size, AMALGAM_PART_SIZE + 1):
                for b in members[b_size]:
                    sides.extend((b, emb) for emb in _label_maps(a, b, [range(b.n)] * a.n))
            for (b1, e1), (b2, e2) in itertools.product(sides, sides):
                yield a, b1, b2, e1, e2


def check_amalgamation(p: ParameterTuple, magic: int) -> PropertyReport:
    """Exhaustive strong-amalgamation sweep over the complete members of at
    most AMALGAM_PART_SIZE vertices.

    Every ordered pair of embeddings of one member a into two members counts
    as an instance and, when its glued graph is uncompletable, as a failure
    whose detail names a, both sides b1, b2 and both embeddings.
    """
    return _amalgam_report(p, magic, _all_amalgams(p), lambda a, b1, b2, e1, e2: (
        f"amalgam over a={a.edges()} with b1={b1.edges()} emb1={e1} "
        f"b2={b2.edges()} emb2={e2} is uncompletable"))


@dataclass(frozen=True)
class ExhaustiveScope:
    """Every partial graph on exactly `vertices` labelled vertices."""
    vertices: int


@dataclass(frozen=True)
class RandomScope:
    """Deterministic fork instances, then `count` seeded random instances."""
    count: int
    seed: int
    vertices: int = 5


def _extend_member(p: ParameterTuple, rng: random.Random, base: LabelledGraph,
                   size: int) -> LabelledGraph:
    """Random complete member of the given size containing `base` on 0..n-1.

    Each new distance is drawn from the values that keep all triangles against
    the already-built part allowed.  Strong amalgamation makes such a value
    exist: when d(u, v) is drawn, the members on 0..u and on 0..u-1 plus v
    share 0..u-1, and their free amalgam misses only (u, v).  A dead end
    therefore means a broken triangle table and raises InvariantViolation.
    """
    masks = allowed_masks(p)
    values = range(1, p.delta + 1)
    mat = _padded(base, size)
    for v in range(base.n, size):
        row = mat[v]
        for u in range(v):
            allowed = masks[0][0]
            # only the vertices before u have a distance to v yet
            for a, b in zip(mat[u], row[:u]):
                allowed &= masks[a][b]
            options = [val for val in values if allowed >> val & 1]
            if not options:
                raise InvariantViolation(
                    f"no distance is allowed for the pair ({u}, {v}) of a member of "
                    f"{p.key()}; the class must amalgamate strongly")
            mat[u][v] = mat[v][u] = rng.choice(options)
    return LabelledGraph._of(p.delta, mat)


def _random_instance(p: ParameterTuple, rng: random.Random,
                     empty: LabelledGraph) -> LabelledGraph:
    """A seeded graph on the vertices of `empty`, which has no edges."""
    if rng.random() < 0.5:
        mat = _padded(empty, empty.n)
        for u, v in empty.pairs():
            if rng.random() >= 0.25:
                mat[u][v] = mat[v][u] = rng.randint(1, p.delta)
        return LabelledGraph._of(p.delta, mat)
    member = _extend_member(p, rng, LabelledGraph(0, p.delta), empty.n)
    mat = _padded(member, empty.n)
    for u, v, _ in member.edges():
        if rng.random() < 0.5:
            mat[u][v] = mat[v][u] = 0
    return LabelledGraph._of(p.delta, mat)


def _scope_size(p: ParameterTuple, scope) -> int:
    """The number of instances in a verification scope, after checking it
    against MAX_SCOPE_INSTANCES."""
    if not isinstance(scope, (ExhaustiveScope, RandomScope)):
        raise InputError(f"unknown scope {scope!r}")
    for name, value in vars(scope).items():
        if type(value) is not int:
            raise InputError(f"scope {name} must be an integer, got {value!r}")
    if isinstance(scope, ExhaustiveScope):
        # (delta+1)^pairs, computed no further than the first power over budget
        count = math.comb(max(scope.vertices, 0), 2)
        if ((p.delta + 1) ** min(count, MAX_SCOPE_INSTANCES.bit_length())
                > MAX_SCOPE_INSTANCES):
            raise ResourceLimitError(
                f"{p.delta + 1}^{count} instances on {scope.vertices} vertices exceed "
                f"the budget of {MAX_SCOPE_INSTANCES}")
        return (p.delta + 1) ** count
    if scope.count < 0:
        raise InputError(f"random instance count must be non-negative, got {scope.count}")
    forks = p.delta * (p.delta + 1) // 2
    if forks + scope.count > MAX_SCOPE_INSTANCES:
        raise ResourceLimitError(
            f"{forks} fork and {scope.count} random instances exceed the budget "
            f"of {MAX_SCOPE_INSTANCES}")
    return forks + scope.count


def scope_instances(p: ParameterTuple, scope) -> Iterator[LabelledGraph]:
    """The instances of a verification scope, drawn one at a time as they
    are read.  The scope is checked here, before any instance is drawn."""
    _scope_size(p, scope)
    empty = LabelledGraph(scope.vertices, p.delta)
    if isinstance(scope, ExhaustiveScope):
        return _exhaustive_instances(p, empty)
    return _random_instances(p, scope, empty)


def _exhaustive_instances(p: ParameterTuple, empty: LabelledGraph):
    pairs = empty.missing_pairs()
    for assignment in itertools.product(range(p.delta + 1), repeat=len(pairs)):
        mat = _padded(empty, empty.n)
        for (u, v), d in zip(pairs, assignment):
            mat[u][v] = mat[v][u] = d
        yield LabelledGraph._of(p.delta, mat)


def _random_instances(p: ParameterTuple, scope: RandomScope, empty: LabelledGraph):
    for a in range(1, p.delta + 1):
        for b in range(a, p.delta + 1):
            yield fork_graph(a, b, p.delta)
    rng = random.Random(scope.seed)
    for _ in range(scope.count):
        yield _random_instance(p, rng, empty)


def _instance_findings(p: ParameterTuple, magic: int, g: LabelledGraph):
    """Per-instance results: (serialized instance or None, list of findings).

    A finding is (property, counted, failure detail or None, stats delta).
    Budget overruns mark the property as skipped instead of failing.
    Automorphism preservation checks only the non-identity automorphisms,
    and builds the shortest-path completion only when there is one; its
    input-automorphisms stat still counts the identity.
    """
    findings: list[tuple[str, bool, str | None, dict[str, int]]] = []
    outcome = magic_complete(p, magic, g)
    # one search counts the completions, for oracle-equivalence, and tallies
    # their values, for optimality and parity; the first-completion search,
    # with its larger budget, runs only when the tally is over budget
    try:
        tally = _search(p, g, ENUM_BUDGET)
    except ResourceLimitError:
        tally = None
    try:
        found = (tally[0] > 0 if tally is not None
                 else brute_force_completable(p, g) is not None)
    except ResourceLimitError:
        findings.append(("oracle-equivalence", False, None, {"skipped": 1}))
    else:
        detail = None if found == outcome.completable else (
            f"engine says completable={outcome.completable}, search says {found}")
        findings.append(("oracle-equivalence", True, detail, {}))
    # automorphisms lists the identity first, and every completion keeps it
    try:
        auts = automorphisms(g)
    except ResourceLimitError:
        findings.append(("automorphism-preservation", False, None, {"skipped": 1}))
    else:
        moved = auts[1:]
        spc = shortest_path_complete(p.delta, g) if moved else None
        aut_detail = None
        for perm in moved:
            if not is_automorphism(outcome.completed, perm):
                aut_detail = f"permutation {perm} lost by staged completion"
                break
            if not is_automorphism(spc, perm):
                aut_detail = f"permutation {perm} lost by shortest-path completion"
                break
        findings.append(("automorphism-preservation", True, aut_detail,
                         {"input-automorphisms": len(auts)}))
    if outcome.completable:
        if tally is None:
            findings.append(("optimality", False, None, {"skipped": 1}))
            findings.append(("parity", False, None, {"skipped": 1}))
        else:
            findings.extend(_optparity(p, magic, outcome.completed,
                                       g.missing_pairs(), tally[1]))
    else:
        details = _provenance_details(p, magic, g, outcome.completed)
        findings.append(("m-edge-provenance", True,
                         details[0] if details else None, {}))
        obstacle = _pull_back(outcome.trace, _first_triangle(outcome.forbidden_hits))
        if not validate_obstacle_hom(g, obstacle):
            findings.append(("obstacle-extraction", True,
                             f"invalid homomorphism for obstacle {obstacle.cycle.labels}",
                             {}))
        else:
            labels = canonical_cycle(obstacle.cycle).labels
            try:
                uncompletable = _cycle_uncompletable(p, labels)
            except ResourceLimitError:
                findings.append(("obstacle-extraction", False, None, {"skipped": 1}))
            else:
                detail = None if uncompletable else f"extracted cycle {labels} is completable"
                findings.append(("obstacle-extraction", True, detail, {}))
    text = serialize_graph(g) if any(f[2] for f in findings) else None
    return text, findings


def _drawn_amalgams(p: ParameterTuple, scope: RandomScope):
    """Seeded amalgam parts: up to 250 draws of a member a on at most two
    vertices and two members that extend it, glued along a itself."""
    rng = random.Random(scope.seed + 1)
    for _ in range(min(scope.count, 250)):
        a = _extend_member(p, rng, LabelledGraph(0, p.delta), rng.randint(0, 2))
        b1 = _extend_member(p, rng, a, rng.randint(a.n, AMALGAM_PART_SIZE))
        b2 = _extend_member(p, rng, a, rng.randint(a.n, AMALGAM_PART_SIZE))
        identity = tuple(range(a.n))
        yield a, b1, b2, identity, identity


def _random_amalgamation(p: ParameterTuple, magic: int, scope: RandomScope) -> PropertyReport:
    return _amalgam_report(p, magic, _drawn_amalgams(p, scope),
                           lambda a, *_: f"amalgam over a={a.edges()} is uncompletable")


def _merge_findings(per_instance) -> list[PropertyReport]:
    """One report per property in PROPERTY_ORDER, except the last one,
    amalgamation, which is not checked per instance."""
    reports = {name: PropertyReport(name, 0) for name in PROPERTY_ORDER[:-1]}
    for text, findings in per_instance:
        for name, counted, detail, stats in findings:
            report = reports[name]
            if counted:
                report.instances += 1
            if detail is not None:
                report.failures.append(Failure(text or "", detail))
            for key, value in stats.items():
                report.stats[key] = report.stats.get(key, 0) + value
    return list(reports.values())


def check_instance(p: ParameterTuple, magic: int,
                   g: LabelledGraph) -> list[PropertyReport]:
    """Every per-instance property on one graph, with the sweep's budgets.

    Properties that do not apply count zero instances: optimality and parity
    only look at completable inputs, magic-edge provenance and obstacle
    extraction only at uncompletable ones.
    """
    return _merge_findings([_instance_findings(p, magic, g)])


def run_verification_suite(p: ParameterTuple, magic: int, scope,
                           jobs: int = 1) -> list[PropertyReport]:
    """Run every property over a scope and merge the reports in a fixed order.

    Results are deterministic for a given scope (random scopes are seeded).
    Budget overruns within a sub-check are counted under a "skipped" stat.
    """
    _steps(p, magic)  # refuses a bad (tuple, magic) pair
    _require_jobs(jobs)  # before the scope is checked or drawn
    instances = scope_instances(p, scope)
    worker = functools.partial(_instance_findings, p, magic)
    # each instance's findings are merged as it is checked, so neither the
    # instances nor their findings pile up
    reports = _merge_findings(_pmap(worker, instances, jobs, _scope_size(p, scope)))
    if isinstance(scope, ExhaustiveScope):
        reports.append(check_amalgamation(p, magic))
    else:
        reports.append(_random_amalgamation(p, magic, scope))
    return reports
