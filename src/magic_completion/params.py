"""Parameter tuples of distance-labelled metric classes.

A class of finite metric spaces with integer distances 1..delta is described
by five numbers (delta, K1, K2, C0, C1).  K1/K2 bound odd-perimeter triangles
from below/above and C0/C1 cap even/odd perimeters.  This module decides
which tuples are acceptable, which are admissible (and of which case), and
computes the magic distances used by the completion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InvariantViolation, ResourceLimitError

# Largest delta of a catalogue or a graph.  Label tables grow with delta (up
# to delta^3 forbidden label pairs), the catalogue with delta^4 tuples; at 32,
# `params list` takes ~2.5 s and `complete` ~0.14 s on a 2-core x86-64 box.
# A larger delta is refused with ResourceLimitError.
MAX_DELTA = 32

CASE_II_A = "II-A"
CASE_II_B = "II-B"
CASE_III = "III"
CASE_NONE = "none"


@dataclass(frozen=True, order=True)
class ParameterTuple:
    """A five-number class description.  c and c_prime are always recomputed."""

    delta: int
    k1: int
    k2: int
    c0: int
    c1: int

    def __post_init__(self):
        for name in ("delta", "k1", "k2", "c0", "c1"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InputError(f"{name} must be a positive integer, got {value!r}")

    @property
    def c(self) -> int:
        return min(self.c0, self.c1)

    @property
    def c_prime(self) -> int:
        return max(self.c0, self.c1)

    def key(self) -> tuple[int, int, int, int, int]:
        return (self.delta, self.k1, self.k2, self.c0, self.c1)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    case_tag: str  # "II-A" | "II-B" | "III" | "none"
    failed_clauses: tuple[str, ...]


@dataclass(frozen=True)
class MagicChoice:
    magic_set: frozenset[int]
    selected: int


def is_acceptable(p: ParameterTuple) -> bool:
    """Range and parity constraints that any usable tuple must satisfy."""
    return not acceptability_failures(p)


def acceptability_failures(p: ParameterTuple) -> list[str]:
    """Human-readable list of violated acceptability constraints (empty when fine)."""
    out = []
    if p.delta < 3:
        out.append("delta >= 3")
    if not (1 <= p.k1 <= p.k2 <= p.delta):
        out.append("1 <= K1 <= K2 <= delta")
    if not (2 * p.delta + 2 <= p.c0 <= 3 * p.delta + 2):
        out.append("2*delta+2 <= C0 <= 3*delta+2")
    if not (2 * p.delta + 2 <= p.c1 <= 3 * p.delta + 2):
        out.append("2*delta+2 <= C1 <= 3*delta+2")
    if p.c0 % 2 != 0:
        out.append("C0 even")
    if p.c1 % 2 != 1:
        out.append("C1 odd")
    return out


def clause_evaluations(p: ParameterTuple) -> list[tuple[str, bool]]:
    """Evaluate every admissibility clause of both case groups, in a fixed order."""
    d, k1, k2, c, cp = p.delta, p.k1, p.k2, p.c, p.c_prime
    sub_a = cp == c + 1
    sub_b = cp > c + 1 and k1 == k2 and 3 * k2 == 2 * d - 1
    return [
        ("II: C <= 2*delta+K1", c <= 2 * d + k1),
        ("II: C = 2*K1+2*K2+1", c == 2 * k1 + 2 * k2 + 1),
        ("II: K1+K2 >= delta", k1 + k2 >= d),
        ("II: K1+2*K2 <= 2*delta-1", k1 + 2 * k2 <= 2 * d - 1),
        ("II: C' = C+1 (II-A), or C' > C+1 and K1 = K2 and 3*K2 = 2*delta-1 (II-B)",
         sub_a or sub_b),
        ("III: C >= 2*delta+K1+1", c >= 2 * d + k1 + 1),
        ("III: K1+2*K2 >= 2*delta-1", k1 + 2 * k2 >= 2 * d - 1),
        ("III: 3*K2 >= 2*delta", 3 * k2 >= 2 * d),
        ("III: if K1+2*K2 = 2*delta-1 then C >= 2*delta+K1+2",
         k1 + 2 * k2 != 2 * d - 1 or c >= 2 * d + k1 + 2),
        ("III: if C' > C+1 then C >= 2*delta+K2",
         cp <= c + 1 or c >= 2 * d + k2),
    ]


@lru_cache(maxsize=None)
def classify_admissible(p: ParameterTuple) -> AdmissibilityVerdict:
    """Decide admissibility of an acceptable tuple and name its case.

    The two case groups are mutually exclusive: the first clause of each
    compares C against 2*delta+K1 in opposite directions.  When neither group
    holds, every violated clause of both groups is reported.
    """
    if not is_acceptable(p):
        raise InputError(
            f"not an acceptable tuple: {'; '.join(acceptability_failures(p))}")
    clauses = dict(clause_evaluations(p))
    group_ii = [name for name in clauses if name.startswith("II:")]
    group_iii = [name for name in clauses if name.startswith("III:")]
    if all(clauses[name] for name in group_ii):
        cp = p.c_prime
        tag = CASE_II_A if cp == p.c + 1 else CASE_II_B
        return AdmissibilityVerdict(True, tag, ())
    if all(clauses[name] for name in group_iii):
        return AdmissibilityVerdict(True, CASE_III, ())
    failed = tuple(name for name, ok in clauses.items() if not ok)
    return AdmissibilityVerdict(False, CASE_NONE, failed)


def magic_distances(p: ParameterTuple) -> frozenset[int]:
    """All magic distances: the closed interval of values an (a,a,b) triangle
    tolerates for every b in 1..delta."""
    lo = max(p.k1, (p.delta + 1) // 2)
    hi = min(p.k2, (p.c - p.delta - 1) // 2)
    return frozenset(range(lo, hi + 1))


@lru_cache(maxsize=None)
def eligible_magic(p: ParameterTuple) -> frozenset[int]:
    """Magic distances that the completion engine may actually use.

    Two extra conditions cut the interval down in case III: when
    K1+2*K2 = 2*delta-1 the choice must exceed K1, and when C' > C+1 with
    C = 2*delta+K2 it must stay below K2.  An empty result would contradict
    the existence guarantee for admissible tuples, so it aborts loudly.
    """
    verdict = classify_admissible(p)
    if not verdict.admissible:
        raise InputError(f"tuple {p.key()} is not admissible")
    out = set(magic_distances(p))
    if verdict.case_tag == CASE_III:
        if p.k1 + 2 * p.k2 == 2 * p.delta - 1:
            out = {m for m in out if m > p.k1}
        if p.c_prime > p.c + 1 and p.c == 2 * p.delta + p.k2:
            out = {m for m in out if m < p.k2}
    if not out:
        raise InvariantViolation(
            f"no eligible magic distance for admissible tuple {p.key()}")
    return frozenset(out)


def select_magic_parameter(p: ParameterTuple, override: int | None = None) -> MagicChoice:
    """Pick the magic parameter: the smallest eligible value, or a caller override.

    An override outside the eligible set, or not an int, is an input error.
    """
    full = magic_distances(p)
    eligible = eligible_magic(p)
    if override is None:
        selected = min(eligible)
    else:
        if type(override) is not int or override not in eligible:
            raise InputError(
                f"magic override {override} not in eligible set "
                f"{{{', '.join(map(str, sorted(eligible)))}}} for {p.key()}")
        selected = override
    return MagicChoice(magic_set=full, selected=selected)


@dataclass(frozen=True)
class CatalogueRow:
    """One admissible tuple together with its case tag and magic set."""

    params: ParameterTuple
    case_tag: str
    magic_set: frozenset[int]


def enumerate_acceptable(delta: int) -> list[ParameterTuple]:
    """All acceptable tuples for a given delta, ordered by (K1, K2, C0, C1)."""
    if delta < 3:
        raise InputError("delta must be at least 3")
    if delta > MAX_DELTA:
        raise ResourceLimitError(f"delta {delta} exceeds the budget of {MAX_DELTA}")
    out = []
    lo, hi = 2 * delta + 2, 3 * delta + 2
    for k1 in range(1, delta + 1):
        for k2 in range(k1, delta + 1):
            for c0 in range(lo + (lo % 2), hi + 1, 2):
                c1_start = lo if lo % 2 == 1 else lo + 1
                for c1 in range(c1_start, hi + 1, 2):
                    out.append(ParameterTuple(delta, k1, k2, c0, c1))
    return out


def enumerate_admissible(delta: int) -> list[CatalogueRow]:
    """Catalogue of admissible tuples for a delta, in (K1, K2, C0, C1) order."""
    rows = []
    for p in enumerate_acceptable(delta):
        verdict = classify_admissible(p)
        if verdict.admissible:
            rows.append(CatalogueRow(p, verdict.case_tag, magic_distances(p)))
    return rows


def format_catalogue_row(row: CatalogueRow) -> str:
    p = row.params
    magic = ",".join(map(str, sorted(row.magic_set)))
    return f"{p.delta} {p.k1} {p.k2} {p.c0} {p.c1} case={row.case_tag} magic={{{magic}}}"
