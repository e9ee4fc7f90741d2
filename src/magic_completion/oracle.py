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
from dataclasses import dataclass, field
from functools import lru_cache

from .completion import magic_complete, shortest_path_complete
from .errors import InputError, ResourceLimitError
from .obstacles import _pmap, extract_obstacle, validate_obstacle_hom
from .params import (CASE_III, ParameterTuple, classify_admissible,
                     eligible_magic)
from .space import (LabelledCycle, LabelledGraph, allowed_cube, automorphisms,
                    canonical_cycle, cycle_to_graph, fork_graph,
                    graph_to_matrix, is_automorphism, is_member,
                    matrix_to_graph, serialize_graph)

# Missing-pair budgets of the completion enumeration and the completability
# search: the search defaults, and the budgets of every verification sweep.
ENUM_BUDGET = 12
BRUTE_BUDGET = 18

# Largest number of partial graphs an exhaustive scope may materialize.
MAX_EXHAUSTIVE_INSTANCES = 100_000

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


def _search(p: ParameterTuple, g: LabelledGraph, max_missing: int,
            value_order: str, find_all: bool):
    if g.delta != p.delta:
        raise InputError(f"graph delta {g.delta} differs from parameter delta {p.delta}")
    cube = allowed_cube(p)
    mat = graph_to_matrix(g)
    n = g.n
    for u, v, w in itertools.combinations(range(n), 3):
        a, b, c = mat[u][v], mat[u][w], mat[v][w]
        if a is not None and b is not None and c is not None and not cube[a][b][c]:
            return []
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if mat[u][v] is None]
    if len(missing) > max_missing:
        raise ResourceLimitError(
            f"{len(missing)} missing pairs exceed the search budget of {max_missing}")
    if value_order == "ascending":
        values = list(range(1, p.delta + 1))
    elif value_order == "descending":
        values = list(range(p.delta, 0, -1))
    else:
        raise InputError(f"unknown value order {value_order!r}")
    results: list[LabelledGraph] = []

    def consistent(u: int, v: int, val: int) -> bool:
        row_u, row_v = mat[u], mat[v]
        for w in range(n):
            if w == u or w == v:
                continue
            a, b = row_u[w], row_v[w]
            if a is not None and b is not None and not cube[val][a][b]:
                return False
        return True

    def descend(idx: int) -> bool:
        if idx == len(missing):
            results.append(matrix_to_graph(p.delta, mat))
            return not find_all
        u, v = missing[idx]
        for val in values:
            if consistent(u, v, val):
                mat[u][v] = mat[v][u] = val
                if descend(idx + 1):
                    mat[u][v] = mat[v][u] = None
                    return True
                mat[u][v] = mat[v][u] = None
        return False

    descend(0)
    return results


def brute_force_completable(p: ParameterTuple, g: LabelledGraph,
                            max_missing: int = BRUTE_BUDGET,
                            value_order: str = "ascending") -> LabelledGraph | None:
    """First completion in depth-first order, or None.  value_order exists so
    tests can confirm the verdict does not depend on the search order."""
    results = _search(p, g, max_missing, value_order, find_all=False)
    return results[0] if results else None


def enumerate_all_completions(p: ParameterTuple, g: LabelledGraph,
                              max_missing: int = ENUM_BUDGET) -> CompletionSet:
    """Every completion, ordered lexicographically by the assignment vector."""
    results = _search(p, g, max_missing, "ascending", find_all=True)
    return CompletionSet(g, tuple(results))


def enumerate_members(p: ParameterTuple, size: int) -> list[LabelledGraph]:
    """All complete members of the class on `size` labelled vertices."""
    empty = LabelledGraph(size, p.delta)
    return list(enumerate_all_completions(p, empty, max_missing=size * (size - 1) // 2
                                          ).completions)


def _optparity(p: ParameterTuple, magic: int, completed: LabelledGraph,
               comps: CompletionSet):
    """Optimality and parity findings on one instance, from one shared scan."""
    case = classify_admissible(p).case_tag
    opt_stats = {"clause1": 0, "clause2": 0, "clause3": 0}
    par_stats = {"parity-exception": 0}
    opt_details: list[str] = []
    par_details: list[str] = []
    pairs = comps.base.missing_pairs()
    parity_exception_possible = (
        case == CASE_III
        and p.c == 2 * p.delta + p.k1 + 1
        and p.c != 2 * p.k1 + 2 * p.k2 + 1
        and magic > p.k1 > 1)
    low = min(p.k1, magic - 1)
    high = max(p.k2, magic + 1)
    for other in comps.completions:
        for u, v in pairs:
            dbar = completed.get(u, v)
            dprime = other.get(u, v)
            if dprime >= dbar >= magic:
                opt_stats["clause1"] += 1
            elif dprime <= dbar <= magic:
                opt_stats["clause2"] += 1
            elif (case == "II-B" and dbar == magic - 1 and dprime > magic
                  and (dprime - dbar) % 2 == 0):
                opt_stats["clause3"] += 1
            else:
                opt_details.append(
                    f"pair ({u}, {v}): engine={dbar} other={dprime} magic={magic}")
            if dbar <= low or dbar >= high:
                if (dprime - dbar) % 2 != 0:
                    if parity_exception_possible and dbar == p.k1:
                        par_stats["parity-exception"] += 1
                    else:
                        par_details.append(
                            f"pair ({u}, {v}): engine={dbar} other={dprime} "
                            f"differ in parity")
    return [("optimality", True, opt_details[0] if opt_details else None, opt_stats),
            ("parity", True, par_details[0] if par_details else None, par_stats)]


def _provenance_details(p: ParameterTuple, magic: int, g: LabelledGraph,
                        completed: LabelledGraph) -> list[str]:
    """Magic-labelled pairs in forbidden or perimeter-capped triangles of the
    completed graph must already be input edges."""
    cube = allowed_cube(p)
    details = []
    for u, v, w in itertools.combinations(range(completed.n), 3):
        a, b, c = completed.get(u, v), completed.get(u, w), completed.get(v, w)
        if cube[a][b][c] and a + b + c < p.c:
            continue
        for x, y, d in ((u, v, a), (u, w, b), (v, w, c)):
            if d == magic and g.get(x, y) is None:
                details.append(
                    f"triangle ({u}, {v}, {w}) uses derived magic edge ({x}, {y})")
    return details


@lru_cache(maxsize=None)
def _cycle_uncompletable(p: ParameterTuple, labels: tuple[int, ...]) -> bool:
    g = cycle_to_graph(LabelledCycle(labels), p.delta)
    return brute_force_completable(p, g) is None


def _embeddings(a: LabelledGraph, b: LabelledGraph) -> list[tuple[int, ...]]:
    """All label-preserving injections between complete graphs."""
    out = []
    for image in itertools.permutations(range(b.n), a.n):
        if all(a.get(x, y) == b.get(image[x], image[y]) for x, y in a.pairs()):
            out.append(image)
    return out


def _glue(p: ParameterTuple, a: LabelledGraph, b1: LabelledGraph,
          b2: LabelledGraph, emb1: tuple[int, ...],
          emb2: tuple[int, ...]) -> LabelledGraph:
    """Free superposition of b1 and b2 over their shared copies of a.

    The glued graph keeps b1's vertex ids; vertices of b2 outside the shared
    part get fresh ids.  Pairs across the two sides stay missing.
    """
    for name, graph in (("a", a), ("b1", b1), ("b2", b2)):
        if graph.delta != p.delta:
            raise InputError(f"{name} has delta {graph.delta}, expected {p.delta}")
        if not graph.is_complete():
            raise InputError(f"{name} must be a complete graph")
    for name, emb, b in (("emb1", emb1, b1), ("emb2", emb2, b2)):
        if len(emb) != a.n or len(set(emb)) != a.n:
            raise InputError(f"{name} is not an injection of a")
        if any(not 0 <= x < b.n for x in emb):
            raise InputError(f"{name} maps outside its target")
        for x, y in a.pairs():
            if a.get(x, y) != b.get(emb[x], emb[y]):
                raise InputError(f"{name} does not preserve labels")
    if not is_member(p, b1) or not is_member(p, b2):
        raise InputError("both sides of an amalgam must belong to the class")
    mapping: dict[int, int] = {}
    for x in range(a.n):
        mapping[emb2[x]] = emb1[x]
    next_id = b1.n
    for y in range(b2.n):
        if y not in mapping:
            mapping[y] = next_id
            next_id += 1
    edges = list(b1.edges())
    shared = set(emb2)
    for x, y, d in b2.edges():
        if x in shared and y in shared:
            continue  # already present via b1, consistency enforced above
        edges.append((mapping[x], mapping[y], d))
    edges = [(min(u, v), max(u, v), d) for u, v, d in edges]
    return LabelledGraph(next_id, p.delta, edges)


def amalgamate(p: ParameterTuple, magic: int, a: LabelledGraph,
               b1: LabelledGraph, b2: LabelledGraph,
               emb1: tuple[int, ...], emb2: tuple[int, ...]):
    """Glue b1 and b2 along their copies of a, then run the completion engine.

    For admissible parameters the outcome must always be Completable.
    """
    return magic_complete(p, magic, _glue(p, a, b1, b2, emb1, emb2))


def check_amalgamation(p: ParameterTuple, magic: int,
                       max_part_size: int = 3) -> PropertyReport:
    """Exhaustive strong-amalgamation sweep over small complete members."""
    members = {size: enumerate_members(p, size)
               for size in range(0, max_part_size + 1)}
    report = PropertyReport("amalgamation", 0)
    for a_size in range(0, max_part_size + 1):
        for a in members[a_size]:
            sides = []
            for b_size in range(a_size, max_part_size + 1):
                for b in members[b_size]:
                    sides.extend((b, emb) for emb in _embeddings(a, b))
            for (b1, e1), (b2, e2) in itertools.product(sides, sides):
                glued = _glue(p, a, b1, b2, e1, e2)
                report.instances += 1
                if not magic_complete(p, magic, glued).completable:
                    report.failures.append(Failure(
                        serialize_graph(glued),
                        f"amalgam over a={a.edges()} with emb1={e1} emb2={e2} "
                        f"is uncompletable"))
    return report


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


def _extend_member(p: ParameterTuple, magic: int, rng: random.Random,
                   base: LabelledGraph, size: int) -> LabelledGraph:
    """Random complete member of the given size containing `base` on 0..n-1.

    Each new distance is drawn from the values that keep all triangles against
    the already-built part allowed; if the greedy draw dead-ends, the whole
    vertex falls back to the magic distance, which always works.
    """
    cube = allowed_cube(p)
    mat = graph_to_matrix(LabelledGraph(size, p.delta, base.edges()))
    for v in range(base.n, size):
        for u in range(v):
            options = [val for val in range(1, p.delta + 1)
                       if all(mat[u][w] is None or mat[v][w] is None
                              or cube[val][mat[u][w]][mat[v][w]]
                              for w in range(v))]
            if not options:
                for w in range(v):
                    mat[w][v] = mat[v][w] = magic
                break
            mat[u][v] = mat[v][u] = rng.choice(options)
    return matrix_to_graph(p.delta, mat)


def _random_instance(p: ParameterTuple, magic: int, rng: random.Random,
                     vertices: int) -> LabelledGraph:
    if rng.random() < 0.5:
        edges = []
        for u, v in itertools.combinations(range(vertices), 2):
            if rng.random() >= 0.25:
                edges.append((u, v, rng.randint(1, p.delta)))
        return LabelledGraph(vertices, p.delta, edges)
    member = _extend_member(p, magic, rng, LabelledGraph(0, p.delta), vertices)
    kept = [(u, v, d) for u, v, d in member.edges() if rng.random() >= 0.5]
    return LabelledGraph(vertices, p.delta, kept)


def scope_instances(p: ParameterTuple, magic: int, scope) -> list[LabelledGraph]:
    """Materialize the instance list for a verification scope."""
    if isinstance(scope, ExhaustiveScope):
        # (delta+1)^pairs, computed no further than the first power over budget
        count = math.comb(max(scope.vertices, 0), 2)
        if ((p.delta + 1) ** min(count, MAX_EXHAUSTIVE_INSTANCES.bit_length())
                > MAX_EXHAUSTIVE_INSTANCES):
            raise ResourceLimitError(
                f"{p.delta + 1}^{count} instances on {scope.vertices} vertices exceed "
                f"the budget of {MAX_EXHAUSTIVE_INSTANCES}")
        pairs = list(itertools.combinations(range(scope.vertices), 2))
        out = []
        for assignment in itertools.product(range(p.delta + 1), repeat=len(pairs)):
            edges = [(u, v, d) for (u, v), d in zip(pairs, assignment) if d > 0]
            out.append(LabelledGraph(scope.vertices, p.delta, edges))
        return out
    if isinstance(scope, RandomScope):
        out = [fork_graph(a, b, p.delta)
               for a in range(1, p.delta + 1) for b in range(a, p.delta + 1)]
        rng = random.Random(scope.seed)
        out.extend(_random_instance(p, magic, rng, scope.vertices)
                   for _ in range(scope.count))
        return out
    raise InputError(f"unknown scope {scope!r}")


def _instance_findings(p: ParameterTuple, magic: int, g: LabelledGraph):
    """Per-instance results: (serialized instance or None, list of findings).

    A finding is (property, counted, failure detail or None, stats delta).
    Budget overruns mark the property as skipped instead of failing.
    """
    findings: list[tuple[str, bool, str | None, dict[str, int]]] = []
    outcome = magic_complete(p, magic, g)
    try:
        found = brute_force_completable(p, g) is not None
    except ResourceLimitError:
        findings.append(("oracle-equivalence", False, None, {"skipped": 1}))
    else:
        detail = None if found == outcome.completable else (
            f"engine says completable={outcome.completable}, search says {found}")
        findings.append(("oracle-equivalence", True, detail, {}))
    auts = automorphisms(g)
    spc = shortest_path_complete(p.delta, g)
    aut_detail = None
    for perm in auts:
        if not is_automorphism(outcome.completed, perm):
            aut_detail = f"permutation {perm} lost by staged completion"
            break
        if not is_automorphism(spc, perm):
            aut_detail = f"permutation {perm} lost by shortest-path completion"
            break
    findings.append(("automorphism-preservation", True, aut_detail,
                     {"input-automorphisms": len(auts)}))
    if outcome.completable:
        try:
            comps = enumerate_all_completions(p, g)
        except ResourceLimitError:
            findings.append(("optimality", False, None, {"skipped": 1}))
            findings.append(("parity", False, None, {"skipped": 1}))
        else:
            findings.extend(_optparity(p, magic, outcome.completed, comps))
    else:
        details = _provenance_details(p, magic, g, outcome.completed)
        findings.append(("m-edge-provenance", True,
                         details[0] if details else None, {}))
        obstacle = extract_obstacle(p, magic, g, outcome.trace)
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


def _random_amalgamation(p: ParameterTuple, magic: int, scope: RandomScope,
                         max_part_size: int = 3) -> PropertyReport:
    rng = random.Random(scope.seed + 1)
    report = PropertyReport("amalgamation", 0)
    for _ in range(min(scope.count, 250)):
        a = _extend_member(p, magic, rng, LabelledGraph(0, p.delta), rng.randint(0, 2))
        b1 = _extend_member(p, magic, rng, a, rng.randint(a.n, max_part_size))
        b2 = _extend_member(p, magic, rng, a, rng.randint(a.n, max_part_size))
        identity = tuple(range(a.n))
        glued = _glue(p, a, b1, b2, identity, identity)
        report.instances += 1
        if not magic_complete(p, magic, glued).completable:
            report.failures.append(Failure(
                serialize_graph(glued),
                f"amalgam over a={a.edges()} is uncompletable"))
    return report


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
    if magic not in eligible_magic(p):
        raise InputError(f"{magic} is not an eligible magic distance for {p.key()}")
    instances = scope_instances(p, magic, scope)
    worker = functools.partial(_instance_findings, p, magic)
    reports = _merge_findings(_pmap(worker, instances, jobs))
    if isinstance(scope, ExhaustiveScope):
        reports.append(check_amalgamation(p, magic))
    else:
        reports.append(_random_amalgamation(p, magic, scope))
    return reports
