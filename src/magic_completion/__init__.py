"""Completion of partial distance graphs into triangle-constrained classes.

The class is picked by five integer parameters; partial graphs are completed
by a staged forking procedure around a distinguished magic distance, with a
Completable / Uncompletable certificate, obstacle-cycle extraction for
failures, and brute-force verification of the engine's guarantees.
"""

from types import ModuleType as _ModuleType

from .completion import (CompletionOutcome, CompletionTrace, ForkRule,
                         Schedule, TraceRecord, build_schedule, magic_complete,
                         serialize_trace, shortest_path_complete, time_of)
from .errors import (GraphParseError, InputError, InvariantViolation,
                     ResourceLimitError)
from .obstacles import (CycleFamily, FamilyMatch, Obstacle,
                        enumerate_uncompletable_cycles, extract_obstacle,
                        family_classify, serialize_catalogue,
                        validate_obstacle_hom)
from .oracle import (CompletionSet, ExhaustiveScope, Failure, PropertyReport,
                     RandomScope, amalgamate, brute_force_completable,
                     check_amalgamation, check_instance,
                     enumerate_all_completions, enumerate_members,
                     format_report, run_verification_suite)
from .params import (AdmissibilityVerdict, CatalogueRow, MagicChoice,
                     ParameterTuple, classify_admissible, eligible_magic,
                     enumerate_acceptable, enumerate_admissible,
                     format_catalogue_row, is_acceptable, magic_distances,
                     select_magic_parameter)
from .space import (LabelledCycle, LabelledGraph, TriangleBound,
                    TriangleVerdict, automorphisms, canonical_cycle,
                    classify_triangle, cycle_to_graph, forbidden_triangles,
                    fork_graph, is_automorphism, is_member, parse_cycle,
                    parse_graph, serialize_cycle, serialize_graph,
                    triangle_allowed)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
