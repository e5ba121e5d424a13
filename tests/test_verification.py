"""Tests for the solver-vs-oracle cross-checking layer."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import robustmatch.verification
from robustmatch import (
    ShiftDistribution,
    build_rotation_poset,
    enumerate_shift_domain,
    sublattice_poset,
)
from robustmatch.oracle import OraclePoset, oracle_poset
from robustmatch.shift_analysis import PROPER
from robustmatch.verification import VerificationReport, cross_check, posets_isomorphic

from test_flow import point_dist
from test_instance import random_instances
from test_matching import M0_I2, M1_I3, MZ_I2


def random_rational_dist(inst, seed: int) -> ShiftDistribution:
    """A reproducible distribution with small rational weights over the full domain."""
    rng = random.Random(seed)
    domain = enumerate_shift_domain(inst)
    weights = [rng.randrange(6) for _ in domain]
    total = sum(weights)
    if not total:
        return ShiftDistribution(())
    entries = tuple(
        (shift, Fraction(w, total)) for shift, w in zip(domain, weights) if w
    )
    return ShiftDistribution(entries, allow_partial=True)


class TestPosetsIsomorphic:
    def test_agrees_with_oracle(self, i3):
        assert posets_isomorphic(build_rotation_poset(i3), oracle_poset(i3)) is None

    def test_reports_differing_rotation_sets(self, i2, i3):
        message = posets_isomorphic(build_rotation_poset(i3), oracle_poset(i2))
        assert message is not None
        assert "rotation sets differ" in message

    def test_reports_differing_precedence(self, i3):
        poset = build_rotation_poset(i3)
        flipped = OraclePoset(
            rotations=tuple(rot.pairs for rot in poset.rotations),
            matching_sets={
                "bottom": frozenset(),
                "middle": frozenset({1}),
                "top": frozenset({0, 1}),
            },
            stable=(),
        )
        message = posets_isomorphic(poset, flipped)
        assert message is not None
        assert "precedence differs" in message


class TestVerificationReport:
    def test_agreeing_report(self, i2):
        report = VerificationReport(
            failures=[],
            poset=build_rotation_poset(i2),
            argmin_masks=(0,),
            oracle_argmin=(M0_I2,),
            main_objective=Fraction(0),
            oracle_objective=Fraction(0),
        )
        assert report.ok
        assert report.argmin_diff() == "argmin sets agree"

    def test_disagreeing_report(self, i2):
        report = VerificationReport(
            failures=["objective mismatch"],
            poset=build_rotation_poset(i2),
            argmin_masks=(0,),
            oracle_argmin=(MZ_I2,),
            main_objective=Fraction(0),
            oracle_objective=Fraction(1, 2),
        )
        assert not report.ok
        diff = report.argmin_diff()
        assert "only solver:" in diff
        assert "only oracle:" in diff


class TestCrossCheck:
    def test_uniform_fixtures(self, i2, i3):
        for inst in (i2, i3):
            report = cross_check(inst, ShiftDistribution.uniform(inst))
            assert report.ok, report.failures
            assert report.main_objective == report.oracle_objective
            assert report.main_argmin == report.oracle_argmin
            assert report.argmin_diff() == "argmin sets agree"

    def test_point_distribution(self, i3):
        report = cross_check(i3, point_dist(i3, "GIRL_LIST g1 b1 1"))
        assert report.ok, report.failures
        assert report.main_objective == 0
        assert len(report.main_argmin) == 2

    @settings(max_examples=25, deadline=None)
    @given(random_instances(max_n=5))
    def test_uniform_random_instances(self, inst):
        report = cross_check(inst, ShiftDistribution.uniform(inst))
        assert report.ok, report.failures

    @settings(max_examples=25, deadline=None)
    @given(random_instances(max_n=5), st.integers(0, 10**6))
    def test_random_partial_distributions(self, inst, seed):
        report = cross_check(inst, random_rational_dist(inst, seed))
        assert report.ok, report.failures

    def test_reports_a_wrong_destabilized_sublattice(self, monkeypatch, i3):
        """A destabilized set built without its exit rotation holds matchings
        the shift leaves stable."""
        def no_exit(poset, analysis):
            return sublattice_poset(poset, analysis._replace(rho_out=None))

        monkeypatch.setattr("robustmatch.verification.sublattice_poset", no_exit)
        report = cross_check(i3, ShiftDistribution.uniform(i3))
        assert not report.ok
        assert any(f.startswith("destabilized sublattice disagrees with the analysis: ") for f in report.failures)


def _doubled_first(original):
    return lambda poset: [*original(poset), original(poset)[0]]


def _one_short(original):
    return lambda inst: original(inst)[1:]


def _rotation_dropped(original):
    return lambda inst: dataclasses.replace(original(inst), rotations=original(inst).rotations[1:])


def _exit_dropped(original):
    def analyze(poset, inst, shift):
        analysis = original(poset, inst, shift)
        return analysis._replace(rho_out=None) if analysis.status == PROPER else analysis
    return analyze


def _negated(original):
    return lambda *args: not original(*args)


def _best_raised(original):
    def argmin(*args):
        best, winners = original(*args)
        return best + 1, winners
    return argmin


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _empty_element_added(original):
    """Every member twice: once with and once without a free element that holds no rotation."""
    def build(network, flow):
        robust = original(network, flow)
        return dataclasses.replace(robust, free_elements=(*robust.free_elements, ()))
    return build


def _last_element_dropped(original):
    def build(network, flow):
        robust = original(network, flow)
        assert robust.free_elements and not robust.edges
        return dataclasses.replace(robust, free_elements=robust.free_elements[:-1])
    return build


def _outside_the_robust_set(original):
    return lambda *args, **kwargs: M1_I3


# (name verification binds, wrong stand-in, distribution, the failure it must report);
# "point" is I3's GIRL_LIST g1 b1 1, whose robust set {M0, Mz} leaves M1 out
WRONG_REFEREES = [
    ("enumerate_closed_masks", _doubled_first, "uniform", "distinct closed sets generated the same matching"),
    ("enumerate_stable_bruteforce", _one_short, "uniform",
     "stable sets differ: 3 generated from rotations, 2 found by brute force"),
    ("oracle_poset", _rotation_dropped, "uniform", "rotation sets differ: 0 missing, 1 unexpected"),
    ("analyze_shift", _exit_dropped, "uniform", "analysis disagrees with direct stability test: "),
    ("characterize_MAB", _negated, "uniform", "positional characterization disagrees with direct test: "),
    ("oracle_argmin", _best_raised, "uniform", "objective mismatch: solver reports "),
    ("oracle_objective", _plus_one, "uniform", "returned matching attains "),
    ("build_robust_poset", _empty_element_added, "point", "robust enumeration repeated a matching"),
    ("build_robust_poset", _last_element_dropped, "point",
     "robust sets differ: representation yields 1, oracle argmin has 2"),
    ("meet", _outside_the_robust_set, "point", "robust set is not closed under meet/join"),
]


class TestEveryCheckFires:
    """Each of cross_check's comparisons reports its own failure when the
    name it calls is swapped for a wrong stand-in."""

    @pytest.mark.parametrize(
        "name, wrong, dist, failure", WRONG_REFEREES, ids=[case[1].__name__[1:] for case in WRONG_REFEREES]
    )
    def test_reports(self, monkeypatch, i3, name, wrong, dist, failure):
        monkeypatch.setattr(robustmatch.verification, name, wrong(getattr(robustmatch.verification, name)))
        dist = ShiftDistribution.uniform(i3) if dist == "uniform" else point_dist(i3, "GIRL_LIST g1 b1 1")
        report = cross_check(i3, dist)
        assert any(f.startswith(failure) for f in report.failures), report.failures
