"""Spans around calls into the package's modules, recorded from outside.

The tracer replaces each named public function, in every module namespace
of the package that holds it, with a wrapper that records a span.  Spans
stay in memory until the run ends.  A layer's self time is its span's
duration minus the time covered by the spans it directly caused.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# The layers are the package modules; these are the calls the benchmark times.
LAYERS = {
    "params": ("classify_admissible", "eligible_magic", "select_magic_parameter"),
    "space": ("forbidden_triangles", "parse_graph", "parse_cycle", "cycle_to_graph",
              "serialize_graph", "automorphisms"),
    "completion": ("magic_complete", "serialize_trace", "shortest_path_complete"),
    "obstacles": ("extract_obstacle", "family_classify"),
    "oracle": ("enumerate_all_completions", "brute_force_completable",
               "check_amalgamation", "run_verification_suite"),
    "cli": ("main",),
}

DERIVED_FAMILIES = ("plus", "minus", "cbound")


def _count_completion(counts, args, result):
    for record in result.trace.records:
        if record.family in DERIVED_FAMILIES:
            counts["completion.derived_edges"] += 1
        elif record.family == "final-M":
            counts["completion.final_m_edges"] += 1


def _count_scan(counts, args, result):
    counts["space.triangles_scanned"] += math.comb(args[1].n, 3)


def _count_obstacle(counts, args, result):
    counts["obstacles.obstacle_edges"] += len(result.cycle.labels)


def _count_family(counts, args, result):
    counts["obstacles.family_matched"] += bool(result)


def _count_completions(counts, args, result):
    counts["oracle.completions"] += len(result.completions)


def _count_amalgams(counts, args, result):
    counts["oracle.amalgams"] += result.instances


# Work counts read from the arguments and results at the same boundaries.
COUNTERS = {
    "completion.magic_complete": _count_completion,
    "space.forbidden_triangles": _count_scan,
    "obstacles.extract_obstacle": _count_obstacle,
    "obstacles.family_classify": _count_family,
    "oracle.enumerate_all_completions": _count_completions,
    "oracle.check_amalgamation": _count_amalgams,
}
COUNT_NAMES = ("completion.derived_edges", "completion.final_m_edges",
               "space.triangles_scanned", "obstacles.obstacle_edges",
               "obstacles.family_matched", "oracle.completions", "oracle.amalgams")


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    """Records (name, start, end, parent span, request) for every wrapped call."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent: list[str] = []
        self.uncounted: list[str] = []
        self.request = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package: str) -> None:
        """Wrap every listed function that the package still defines."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for module_name, names in LAYERS.items():
            home = sys.modules.get(f"{package}.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        counter = COUNTERS.get(span)
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (span, start, end, parent, self.request)
                calls[span] += 1
                self_s[span] += duration - frame[1]
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError, IndexError):  # the result changed shape
                    if span not in self.uncounted:
                        self.uncounted.append(span)
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in COUNT_NAMES:
            if name != "obstacles.family_matched":
                out[name] = (self.counts[name], "count")
        classified = self.calls["obstacles.family_classify"]
        out["obstacles.family_matched_ratio"] = (
            self.counts["obstacles.family_matched"] / classified if classified else 0.0, "ratio")
        return out
