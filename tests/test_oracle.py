"""Tests for the brute-force ground-truth oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from robustmatch import ShiftDistribution, boy_optimal, girl_optimal, parse_shift
from robustmatch.cli import gen_random_instance
from robustmatch.oracle import (
    destabilized_set,
    enumerate_stable_bruteforce,
    oracle_argmin,
    oracle_objective,
    oracle_poset,
)

from test_flow import point_dist
from test_instance import random_instances
from test_matching import M0_I2, M0_I3, M1_I3, MZ_I2, MZ_I3

I3_POINT = "GIRL_LIST g1 b1 1"


class TestBruteforceEnumeration:
    def test_i2_has_two_stable_matchings(self, i2):
        assert enumerate_stable_bruteforce(i2) == [M0_I2, MZ_I2]

    def test_i3_has_three_stable_matchings(self, i3):
        assert enumerate_stable_bruteforce(i3) == [M0_I3, M1_I3, MZ_I3]

    def test_contains_both_optimal_matchings(self, i3):
        stable = enumerate_stable_bruteforce(i3)
        assert boy_optimal(i3) in stable
        assert girl_optimal(i3) in stable

    def test_size_guard(self):
        big = gen_random_instance(9, 0)
        with pytest.raises(ValueError, match="at most 8"):
            enumerate_stable_bruteforce(big)

    def test_unique_stable_matching_golden(self):
        inst = gen_random_instance(6, 42)
        stable = enumerate_stable_bruteforce(inst)
        assert len(stable) == 1
        uniform = ShiftDistribution.uniform(inst)
        assert oracle_objective(inst, uniform, stable[0]) == Fraction(11, 90)

    @settings(max_examples=60, deadline=None)
    @given(random_instances(max_n=5))
    def test_extremes_always_present(self, inst):
        stable = enumerate_stable_bruteforce(inst)
        assert boy_optimal(inst) in stable
        assert girl_optimal(inst) in stable


class TestObjective:
    def test_point_distribution_objectives(self, i3):
        dist = point_dist(i3, I3_POINT)
        assert oracle_objective(i3, dist, M0_I3) == 0
        assert oracle_objective(i3, dist, M1_I3) == 1
        assert oracle_objective(i3, dist, MZ_I3) == 0

    def test_destabilized_set_matches_objectives(self, i3):
        shift = parse_shift(I3_POINT, i3)
        broken = destabilized_set(i3, shift, [M0_I3, M1_I3, MZ_I3])
        assert broken == frozenset({1})

    def test_empty_distribution_never_destabilizes(self, i3):
        dist = ShiftDistribution(())
        assert oracle_objective(i3, dist, M1_I3) == 0

    def test_argmin_point_distribution(self, i3):
        best, winners = oracle_argmin(i3, point_dist(i3, I3_POINT))
        assert best == 0
        assert winners == [M0_I3, MZ_I3]

    def test_argmin_rejects_empty_candidate_list(self, i3):
        with pytest.raises(ValueError, match="no stable matching"):
            oracle_argmin(i3, ShiftDistribution(()), stable=[])


class TestOraclePoset:
    def test_i3_chain(self, i3):
        poset = oracle_poset(i3)
        assert poset.rotations == (
            ((0, 0), (1, 1), (2, 2)),
            ((0, 1), (1, 2), (2, 0)),
        )
        assert poset.stable == (M0_I3, M1_I3, MZ_I3)
        assert poset.matching_sets[M0_I3] == frozenset()
        assert poset.matching_sets[M1_I3] == frozenset({0})
        assert poset.matching_sets[MZ_I3] == frozenset({0, 1})
        assert poset.leq(0, 1)
        assert not poset.leq(1, 0)
        assert poset.relation() == frozenset({(0, 1)})

    def test_unique_matching_has_no_rotations(self):
        inst = gen_random_instance(6, 42)
        assert oracle_poset(inst).rotations == ()

    def test_size_guard(self):
        big = gen_random_instance(8, 0)
        with pytest.raises(ValueError, match="at most 7"):
            oracle_poset(big)

    @settings(max_examples=60, deadline=None)
    @given(random_instances(max_n=5))
    def test_lattice_walk_reaches_every_stable_matching(self, inst):
        poset = oracle_poset(inst)
        assert set(poset.stable) == set(enumerate_stable_bruteforce(inst))
