"""Command line front end.

Exit codes: 0 for a positive verdict, 1 for a clean negative verdict
(inadmissible tuple, uncompletable input, property failures, shortest-path
disagreement), 2 for usage, input or resource-limit errors.
"""

from __future__ import annotations

import argparse
import collections
import sys
import time
from functools import lru_cache

from .completion import (_DERIVED, FAMILY_FINAL, FAMILY_INPUT, _steps,
                         magic_complete, serialize_trace, shortest_path_complete)
from .errors import InputError, InvariantViolation, ResourceLimitError
from .obstacles import _run_obstacle, enumerate_uncompletable_cycles, serialize_catalogue
from .oracle import (ExhaustiveScope, RandomScope, enumerate_all_completions,
                     format_report, run_verification_suite)
from .params import (ParameterTuple, acceptability_failures,
                     classify_admissible, clause_evaluations,
                     enumerate_admissible, format_catalogue_row,
                     select_magic_parameter)
from .space import (DECIMAL, cycle_to_graph, fork_graph, parse_cycle,
                    parse_graph, serialize_cycle, serialize_graph)


def _params_from(args) -> ParameterTuple:
    delta, k1, k2, c0, c1 = args.params
    return ParameterTuple(delta, k1, k2, c0, c1)


def _require_admissible(p: ParameterTuple) -> None:
    if not classify_admissible(p).admissible:
        raise InputError(f"tuple {p.key()} is not admissible")


def _format_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _read_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_graph(handle.read())
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _cmd_params_list(args) -> int:
    for row in enumerate_admissible(args.delta):
        print(format_catalogue_row(row))
    return 0


def _cmd_params_check(args) -> int:
    p = ParameterTuple(args.delta, args.k1, args.k2, args.c0, args.c1)
    print(f"params {p.delta} {p.k1} {p.k2} {p.c0} {p.c1}")
    failures = acceptability_failures(p)
    if failures:
        print("acceptable no")
        for message in failures:
            print(f"violated {message}")
        return 1
    print("acceptable yes")
    verdict = classify_admissible(p)
    for label, ok in clause_evaluations(p):
        print(f"clause {label} {'pass' if ok else 'fail'}")
    print(f"case {verdict.case_tag}")
    if not verdict.admissible:
        print("admissible no")
        return 1
    choice = select_magic_parameter(p)
    print(f"magic {_format_set(choice.magic_set)} selected {choice.selected}")
    print("admissible yes")
    return 0


def _cmd_forks(args) -> int:
    p = _params_from(args)
    _require_admissible(p)
    choice = select_magic_parameter(p, args.magic)
    print(f"forks {p.delta} {p.k1} {p.k2} {p.c0} {p.c1} magic={choice.selected}")
    for a in range(1, p.delta + 1):
        for b in range(a, p.delta + 1):
            g = fork_graph(a, b, p.delta)
            comps = enumerate_all_completions(p, g)
            values = sorted({h.get(0, 2) for h in comps.completions})
            chosen = magic_complete(p, choice.selected, g).completed.get(0, 2)
            print(f"fork {a} {b} completions={_format_set(values)} chosen={chosen}")
    return 0


def _cmd_complete(args) -> int:
    p = _params_from(args)
    _require_admissible(p)
    choice = select_magic_parameter(p, args.magic)
    marks = [time.perf_counter()]  # then the end of each stage, for --stats
    if args.file is not None:
        g = _read_graph(args.file)
    else:
        g = cycle_to_graph(parse_cycle(args.cycle), p.delta)
    marks.append(time.perf_counter())
    outcome = magic_complete(p, choice.selected, g)
    marks.append(time.perf_counter())
    if args.trace:
        print(serialize_trace(outcome.trace), end="")
    else:
        print(f"magic M={choice.selected} params "
              f"{p.delta} {p.k1} {p.k2} {p.c0} {p.c1}")
    if outcome.completable:
        print("verdict Completable")
        print(serialize_graph(outcome.completed), end="")
    else:
        print("verdict Uncompletable")
        print(_forbidden_lines(outcome))
    marks.append(time.perf_counter())
    if args.obstacle and not outcome.completable:
        obstacle = _run_obstacle(outcome)
        print("obstacle " + serialize_cycle(obstacle.cycle))
        print("hom " + " ".join(map(str, obstacle.hom)))
        marks.append(time.perf_counter())
    if args.stats:
        print(_complete_stats(outcome, marks), end="", file=sys.stderr)
    return 0 if outcome.completable else 1


def _forbidden_lines(outcome) -> str:
    """One `forbidden u v w = a b c` line per forbidden triangle.  The
    triangles come sorted, so each run of equal (u, v) formats its head and
    its ` = a ` once and then one line per w, over the completed graph's
    labels as text."""
    text = DECIMAL
    labels = [[text[d] for d in row] for row in outcome.completed._mat]
    lines = []
    run_u = run_v = -1
    for u, v, w in outcome.forbidden_triangles:
        if v != run_v or u != run_u:
            run_u, run_v = u, v
            head, mid = f"forbidden {text[u]} {text[v]} ", f" = {labels[u][v]} "
            at_u, at_v = labels[u], labels[v]
        lines.append(f"{head}{text[w]}{mid}{at_u[w]} {at_v[w]}")
    return "\n".join(lines)


def _complete_stats(outcome, marks) -> str:
    """The `complete --stats` lines: assignments per step and per family,
    counted from the trace, forbidden triangles and each stage's wall time."""
    trace = outcome.trace
    by_step = collections.Counter((record.step, record.family) for record in trace.records)
    by_family = collections.Counter(record.family for record in trace.records)
    lines = [f"step={step} target={target}" + "".join(f" {f}={by_step[step, f]}" for f in _DERIVED)
             for step, target, _ in _steps(trace.params, trace.magic)]
    lines.append("".join(f"{f}={by_family[f]} " for f in (FAMILY_INPUT, *_DERIVED, FAMILY_FINAL))
                 + f"forbidden={len(outcome.forbidden_triangles)}")
    lines.append(" ".join(f"{stage}_s={end - start:.6f}" for stage, start, end
                          in zip(("read", "complete", "format", "obstacle"), marks, marks[1:])))
    return "".join(f"stats complete {line}\n" for line in lines)


def _cmd_shortest_path(args) -> int:
    g = _read_graph(args.file)
    result = shortest_path_complete(args.delta, g)
    print(serialize_graph(result), end="")
    status = 0
    for u, v, d in g.edges():
        value = result.get(u, v)
        if value != d:
            print(f"note: input edge {u} {v} = {d} exceeds shortest-path "
                  f"value {value}", file=sys.stderr)
            status = 1
    return status


def _cmd_obstacles_enumerate(args) -> int:
    p = _params_from(args)
    _require_admissible(p)
    choice = select_magic_parameter(p, args.magic)
    cycles = enumerate_uncompletable_cycles(p, choice.selected, args.length,
                                            jobs=args.jobs)
    print(serialize_catalogue(p, args.length, cycles), end="")
    return 0


def _cmd_verify(args) -> int:
    p = _params_from(args)
    _require_admissible(p)
    choice = select_magic_parameter(p, args.magic)
    if args.exhaustive is not None:
        scope = ExhaustiveScope(args.exhaustive)
    else:
        scope = RandomScope(args.random, args.seed)
    # the header follows the sweep, so a refused scope prints nothing to stdout
    reports = run_verification_suite(p, choice.selected, scope, jobs=args.jobs)
    print(f"verify {p.delta} {p.k1} {p.k2} {p.c0} {p.c1} magic={choice.selected}")
    failed = 0
    for report in reports:
        print(format_report(report), end="")
        if args.stats:
            print(f"stats {report.name}" + "".join(
                f" {key}={value}" for key, value in sorted(report.stats.items())),
                file=sys.stderr)
        failed += len(report.failures)
    return 1 if failed else 0


def _add_params_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", type=int, nargs=5, required=True,
                        metavar=("DELTA", "K1", "K2", "C0", "C1"),
                        help="class parameters")
    parser.add_argument("--magic", type=int, default=None,
                        help="override the selected magic distance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magic-completion",
        description="Staged completion of partial distance graphs into "
                    "triangle-constrained metric classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    params = sub.add_parser("params", help="catalogue and classify parameter tuples")
    params_sub = params.add_subparsers(dest="subcommand", required=True)
    p_list = params_sub.add_parser("list", help="admissible tuples for one delta")
    p_list.add_argument("--delta", type=int, required=True)
    p_list.set_defaults(handler=_cmd_params_list)
    p_check = params_sub.add_parser("check", help="clause-by-clause report for one tuple")
    for name in ("delta", "k1", "k2", "c0", "c1"):
        p_check.add_argument(name, type=int)
    p_check.set_defaults(handler=_cmd_params_check)

    forks = sub.add_parser("forks", help="completion sets of all single-fork instances")
    _add_params_options(forks)
    forks.set_defaults(handler=_cmd_forks)

    complete = sub.add_parser("complete", help="run the staged completion on one instance")
    _add_params_options(complete)
    source = complete.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="graph file")
    source.add_argument("--cycle", help="cycle labels, e.g. \"1 1 5 5 5\"")
    complete.add_argument("--trace", action="store_true",
                          help="print the full assignment trace")
    complete.add_argument("--obstacle", action="store_true",
                          help="on failure, print an extracted obstacle cycle")
    complete.add_argument("--stats", action="store_true",
                          help="write per-step counts and stage times to stderr")
    complete.set_defaults(handler=_cmd_complete)

    spath = sub.add_parser("shortest-path", help="shortest-path completion of a graph")
    spath.add_argument("--delta", type=int, required=True)
    spath.add_argument("--file", required=True)
    spath.set_defaults(handler=_cmd_shortest_path)

    obstacles = sub.add_parser("obstacles", help="catalogue uncompletable cycles")
    obstacles_sub = obstacles.add_subparsers(dest="subcommand", required=True)
    enum = obstacles_sub.add_parser("enumerate",
                                    help="all uncompletable cycles of one length")
    _add_params_options(enum)
    enum.add_argument("--length", type=int, required=True)
    enum.add_argument("--jobs", type=int, default=1)
    enum.set_defaults(handler=_cmd_obstacles_enumerate)

    verify = sub.add_parser("verify", help="property verification sweep")
    _add_params_options(verify)
    scope = verify.add_mutually_exclusive_group(required=True)
    scope.add_argument("--exhaustive", type=int, metavar="VERTICES",
                       help="every partial graph on this many vertices")
    scope.add_argument("--random", type=int, metavar="COUNT",
                       help="seeded random instances after the fork preamble")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--stats", action="store_true",
                        help="write each property's stats to stderr")
    verify.set_defaults(handler=_cmd_verify)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process; parse_args leaves it
    as it was, so every call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
