"""Agreement checks between the structured solver and the brute-force oracle.

Everything the solver computes has a slow, independent counterpart: stable
sets by exhaustive search, destabilization by re-testing stability on the
shifted instance, optimality by evaluating every stable matching.  This
module runs all of those comparisons for one instance + distribution and
reports every discrepancy; the `verify` command and the acceptance tests are
thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import solve_pipeline
from .instance import PreferenceInstance, ShiftDistribution, apply_shift
from .matching import Matching, is_stable, join, meet
from .oracle import (
    OraclePoset,
    enumerate_stable_bruteforce,
    oracle_argmin,
    oracle_objective,
    oracle_poset,
)
from .representation import build_robust_poset, sublattice_poset
from .rotations import RotationPoset, closed_set_to_matching, enumerate_closed_masks
from .shift_analysis import EMPTY_MAB, analyze_shift, characterize_MAB


def posets_isomorphic(poset: RotationPoset, reference: OraclePoset) -> str | None:
    """None when the two posets have the same rotations and the same order,
    otherwise a description of the first difference found."""
    mine = {rot.pairs: i for i, rot in enumerate(poset.rotations)}
    theirs = {pairs: i for i, pairs in enumerate(reference.rotations)}
    if set(mine) != set(theirs):
        missing = set(theirs) - set(mine)
        extra = set(mine) - set(theirs)
        return f"rotation sets differ: {len(missing)} missing, {len(extra)} unexpected"
    to_ref = {i: theirs[rot.pairs] for i, rot in enumerate(poset.rotations)}
    for i in range(poset.size):
        for j in range(poset.size):
            if poset.leq(i, j) != reference.leq(to_ref[i], to_ref[j]):
                return (
                    f"precedence differs on rotations {poset.rotations[i].describe()} "
                    f"and {poset.rotations[j].describe()}"
                )
    return None


@dataclass
class VerificationReport:
    """What cross_check found.  The solver's argmin is kept as closed sets
    of the rotation poset the solver built, sorted by their matchings'
    pairs; the oracle's as matchings."""

    failures: list[str]
    poset: RotationPoset
    argmin_masks: tuple[int, ...]
    oracle_argmin: tuple
    main_objective: Fraction
    oracle_objective: Fraction

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def main_argmin(self) -> tuple[Matching, ...]:
        return tuple(closed_set_to_matching(self.poset, m) for m in self.argmin_masks)

    def argmin_diff(self) -> str:
        main = set(self.main_argmin)
        ref = set(self.oracle_argmin)
        lines = []
        for m in sorted(main - ref, key=lambda m: m.pairs):
            lines.append(f"only solver:  {m!r}")
        for m in sorted(ref - main, key=lambda m: m.pairs):
            lines.append(f"only oracle:  {m!r}")
        return "\n".join(lines) if lines else "argmin sets agree"


def cross_check(inst: PreferenceInstance, dist: ShiftDistribution) -> VerificationReport:
    """Run the whole solver and the whole oracle and compare every artifact."""
    failures: list[str] = []
    run = solve_pipeline(inst, dist)

    # the lattice generated by the poset is exactly the brute-force stable set
    brute = enumerate_stable_bruteforce(inst)
    masks = enumerate_closed_masks(run.poset)
    matchings = {m: closed_set_to_matching(run.poset, m) for m in masks}
    generated = set(matchings.values())
    if len(masks) != len(generated):
        failures.append("distinct closed sets generated the same matching")
    if generated != set(brute):
        failures.append(
            f"stable sets differ: {len(generated)} generated from rotations, "
            f"{len(brute)} found by brute force"
        )

    mismatch = posets_isomorphic(run.poset, oracle_poset(inst))
    if mismatch:
        failures.append(mismatch)

    # per-shift: analysis formulas vs. direct re-testing vs. positional
    # lemma, and the destabilized sublattice's members vs. the formulas
    for shift, _ in dist.weights:
        analysis = analyze_shift(run.poset, inst, shift)
        if analysis.status != EMPTY_MAB:
            members = sublattice_poset(run.poset, analysis).member_masks()
            if sorted(members) != sorted(m for m in masks if analysis.destabilizes_mask(m)):
                failures.append(f"destabilized sublattice disagrees with the analysis: {shift.describe()}")
        shifted = apply_shift(inst, shift)
        for mask, matching in matchings.items():
            direct = not is_stable(shifted, matching)
            if analysis.destabilizes_mask(mask) != direct:
                failures.append(
                    f"analysis disagrees with direct stability test: {shift.describe()}"
                )
                break
            if characterize_MAB(inst, shift, matching) != direct:
                failures.append(
                    f"positional characterization disagrees with direct test: {shift.describe()}"
                )
                break

    # optimality, exactly
    best, winners = oracle_argmin(inst, dist, brute)
    if run.solution.objective != best:
        failures.append(
            f"objective mismatch: solver reports {run.solution.objective}, oracle finds {best}"
        )
    attained = oracle_objective(inst, dist, run.solution.matching)
    if attained != run.solution.objective:
        failures.append(
            f"returned matching attains {attained}, not the reported {run.solution.objective}"
        )

    # the succinct representation enumerates exactly the argmin set
    robust_masks = build_robust_poset(run.network, run.flow).member_masks()
    robust = [closed_set_to_matching(run.poset, m) for m in robust_masks]
    if len(robust) != len(set(robust)):
        failures.append("robust enumeration repeated a matching")
    if set(robust) != set(winners):
        failures.append(
            f"robust sets differ: representation yields {len(set(robust))}, oracle argmin has {len(winners)}"
        )

    # the robust set is closed under meet and join
    robust_set = dict(zip(robust, robust_masks))  # each robust matching -> its closed set
    for m1 in robust_set:
        for m2 in robust_set:
            if meet(inst, m1, m2, validate=False) not in robust_set or join(inst, m1, m2, validate=False) not in robust_set:
                failures.append("robust set is not closed under meet/join")
                break
        else:
            continue
        break

    return VerificationReport(
        failures=failures,
        poset=run.poset,
        argmin_masks=tuple(robust_set[m] for m in sorted(robust_set, key=lambda m: m.pairs)),
        oracle_argmin=tuple(sorted(winners, key=lambda m: m.pairs)),
        main_objective=run.solution.objective,
        oracle_objective=best,
    )
