"""Robust stable matching under random single upward-shift preference errors.

Given a two-sided matching instance and a probability distribution over
elementary preference errors (one entry of one list moved upward), this
package computes a stable matching that maximizes the probability of staying
stable after one random error, and a succinct poset representing all such
robust matchings.

The pipeline: build the rotation poset of the instance (`rotations`), reduce
every possible error to an interval of the poset (`shift_analysis`), solve a
min-cut over a closure network (`flow`), and condense the residual graph into
the poset of all optimal solutions (`representation`).  `oracle` and
`verification` provide slow brute-force counterparts for every step, and
`cli` exposes everything as a command line.
"""

from __future__ import annotations

from .flow import (
    ClosureNetwork,
    FlowResult,
    RobustSolution,
    SolveRun,
    build_network,
    robust_matching,
    solve_pipeline,
)
from .instance import (
    BOY_LIST,
    GIRL_LIST,
    InstanceFormatError,
    PreferenceInstance,
    Shift,
    ShiftDistribution,
    apply_shift,
    enumerate_shift_domain,
    parse_distribution,
    parse_instance,
    parse_shift,
    serialize_distribution,
    serialize_instance,
)
from .matching import (
    Matching,
    blocking_pairs,
    boy_optimal,
    dominates,
    girl_optimal,
    is_stable,
    join,
    meet,
    serialize_matching,
)
from .representation import (
    Sublattice,
    build_robust_poset,
    enumerate_robust,
    robust_members,
    sublattice_poset,
)
from .rotations import (
    Rotation,
    RotationPoset,
    build_rotation_poset,
    closed_set_to_matching,
    eliminate,
    enumerate_closed_masks,
    exposed_rotations,
    matching_to_closed_set,
)
from .shift_analysis import (
    DISJOINT,
    EMPTY_MAB,
    PROPER,
    ShiftAnalysis,
    analyze_shift,
    characterize_MAB,
)
from .verification import VerificationReport, cross_check

__all__ = [
    "BOY_LIST",
    "GIRL_LIST",
    "DISJOINT",
    "EMPTY_MAB",
    "PROPER",
    "ClosureNetwork",
    "FlowResult",
    "InstanceFormatError",
    "Matching",
    "PreferenceInstance",
    "RobustSolution",
    "Rotation",
    "RotationPoset",
    "Shift",
    "ShiftAnalysis",
    "ShiftDistribution",
    "SolveRun",
    "Sublattice",
    "VerificationReport",
    "analyze_shift",
    "apply_shift",
    "blocking_pairs",
    "boy_optimal",
    "build_network",
    "build_robust_poset",
    "build_rotation_poset",
    "characterize_MAB",
    "closed_set_to_matching",
    "cross_check",
    "dominates",
    "eliminate",
    "enumerate_closed_masks",
    "enumerate_robust",
    "enumerate_shift_domain",
    "exposed_rotations",
    "girl_optimal",
    "is_stable",
    "join",
    "matching_to_closed_set",
    "meet",
    "parse_distribution",
    "parse_instance",
    "parse_shift",
    "robust_matching",
    "robust_members",
    "serialize_distribution",
    "serialize_instance",
    "serialize_matching",
    "solve_pipeline",
    "sublattice_poset",
]

__version__ = "0.1.0"
