"""Matchings, stability, and the dominance lattice operations."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given

from robustmatch import (
    Matching,
    blocking_pairs,
    boy_optimal,
    dominates,
    girl_optimal,
    is_stable,
    join,
    meet,
    parse_instance,
    serialize_matching,
)
from robustmatch.matching import unmatched_agents, validate_matching
from robustmatch.oracle import enumerate_stable_bruteforce

from test_instance import random_instances

UNMATCHED = Path(__file__).parent / "fixtures" / "unmatched.txt"

M0_I2 = Matching([(0, 0), (1, 1)])
MZ_I2 = Matching([(0, 1), (1, 0)])
M0_I3 = Matching([(0, 0), (1, 1), (2, 2)])
M1_I3 = Matching([(0, 1), (1, 2), (2, 0)])
MZ_I3 = Matching([(0, 2), (1, 0), (2, 1)])


class TestMatching:
    def test_pairs_sorted_and_hashable(self):
        m = Matching([(1, 0), (0, 1)])
        assert m.pairs == ((0, 1), (1, 0))
        assert m == MZ_I2 and hash(m) == hash(MZ_I2)

    def test_lookups(self):
        assert MZ_I2.girl_of(0) == 1 and MZ_I2.boy_of(0) == 1
        assert MZ_I2.girl_of(9) is None

    def test_partner_maps_are_fresh(self):
        m = Matching([(1, 0), (0, 1)])
        girl_of, boy_of = m.partner_maps()
        assert list(girl_of.items()) == [(0, 1), (1, 0)] and boy_of == {1: 0, 0: 1}
        girl_of[0] = 0
        boy_of.clear()
        assert m.partner_maps() == ({0: 1, 1: 0}, {1: 0, 0: 1})
        assert m.girl_of(0) == 1 and m.boy_of(0) == 1

    def test_agent_appears_once(self):
        with pytest.raises(ValueError, match="appears twice"):
            Matching([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="appears twice"):
            Matching([(0, 0), (1, 0)])

    def test_validate_needs_mutual_acceptability(self, i2):
        validate_matching(i2, M0_I2)
        with pytest.raises(ValueError, match="out of range"):
            validate_matching(i2, Matching([(0, 5)]))
        short = parse_instance("2\nb1: g1\nb2: g1 g2\ng1: b1 b2\ng2: b2\n")
        with pytest.raises(ValueError, match="pair b1 g2 is not mutually acceptable"):
            validate_matching(short, Matching([(0, 1)]))

    def test_unmatched_agents(self, i2):
        assert unmatched_agents(i2, Matching([(0, 0)])) == ((1,), (1,))

    def test_serialize(self, i2):
        assert serialize_matching(i2, M0_I2) == "b1 g1\nb2 g2\n"
        assert serialize_matching(i2, Matching([(0, 0)])) == "b1 g1\n# unmatched\nb2\ng2\n"


class TestBlockingAndStability:
    def test_i2_both_matchings_stable(self, i2):
        assert blocking_pairs(i2, M0_I2) == []
        assert blocking_pairs(i2, MZ_I2) == []
        assert is_stable(i2, M0_I2) and is_stable(i2, MZ_I2)

    def test_i2_empty_matching_unstable(self, i2):
        assert not is_stable(i2, Matching([]))

    def test_i3_identity_stable(self, i3):
        assert is_stable(i3, M0_I3)

    def test_i3_swap_blocked(self, i3):
        found = blocking_pairs(i3, Matching([(0, 1), (1, 0), (2, 2)]))
        assert found == [(1, 2)]
        assert not is_stable(i3, Matching([(0, 1), (1, 0), (2, 2)]))

    def test_two_unmatched_acceptable_agents_block(self):
        inst = parse_instance("2\nb1: g1 g2\nb2: g1 g2\ng1: b1 b2\ng2: b1 b2\n")
        assert (1, 1) in blocking_pairs(inst, Matching([(0, 0)]))

    @pytest.mark.parametrize("pair, message", [
        ((0, 0), "pair b1 g1 is not mutually acceptable"),
        ((0, 14), r"pair \(0, 14\) out of range for this instance"),
        ((14, 6), r"pair \(14, 6\) out of range for this instance"),
    ], ids=["off-the-lists", "girl-out-of-range", "boy-out-of-range"])
    def test_invalid_pair_raises(self, pair, message):
        """A pair the instance cannot hold raises instead of reading as
        unstable: b1 lists g7 g9 g8 g13, and unmatched.txt has 14 agents a
        side.  The boy-optimal matching keeps every other agent's partner."""
        inst = parse_instance(UNMATCHED.read_text())
        b, g = pair
        m = Matching([(x, y) for x, y in boy_optimal(inst).pairs if x != b and y != g] + [pair])
        for check in (is_stable, blocking_pairs, lambda i, m: meet(i, m, boy_optimal(i))):
            with pytest.raises(ValueError, match=message):
                check(inst, m)

    @given(random_instances(max_n=6))
    def test_bruteforce_agrees_with_is_stable(self, inst):
        stable = enumerate_stable_bruteforce(inst)
        assert all(is_stable(inst, m) for m in stable)


class TestOptimalMatchings:
    def test_i2_extremes(self, i2):
        assert boy_optimal(i2) == M0_I2
        assert girl_optimal(i2) == MZ_I2

    def test_i3_extremes(self, i3):
        assert boy_optimal(i3) == M0_I3
        assert girl_optimal(i3) == MZ_I3

    @given(random_instances())
    def test_extremes_are_stable(self, inst):
        assert is_stable(inst, boy_optimal(inst))
        assert is_stable(inst, girl_optimal(inst))

    @given(random_instances(max_n=6))
    def test_boy_optimal_dominates_all(self, inst):
        m0, mz = boy_optimal(inst), girl_optimal(inst)
        for m in enumerate_stable_bruteforce(inst):
            assert dominates(inst, m0, m)
            assert dominates(inst, m, mz)

    @given(random_instances(max_n=6))
    def test_unmatched_sets_invariant(self, inst):
        stable = enumerate_stable_bruteforce(inst)
        reference = unmatched_agents(inst, stable[0])
        assert all(unmatched_agents(inst, m) == reference for m in stable)


class TestLatticeOperations:
    def test_i3_extremes_absorb(self, i3):
        assert meet(i3, M0_I3, MZ_I3) == M0_I3
        assert join(i3, M0_I3, MZ_I3) == MZ_I3

    def test_i3_chain_meet(self, i3):
        assert meet(i3, M1_I3, MZ_I3) == M1_I3

    def test_meet_requires_stable_inputs(self, i3):
        unstable = Matching([(0, 1), (1, 0), (2, 2)])
        with pytest.raises(ValueError, match="must be stable"):
            meet(i3, M0_I3, unstable)

    def test_inputs_must_match_the_same_agents(self, i3):
        """Stable matchings of one instance do; unchecked inputs may not."""
        partial = Matching([(0, 0), (1, 1)])
        for combine in (meet, join):
            with pytest.raises(ValueError, match="match different agent sets"):
                combine(i3, M0_I3, partial, validate=False)

    def test_dominates_is_reflexive_and_ordered(self, i3):
        assert dominates(i3, M1_I3, M1_I3)
        assert dominates(i3, M0_I3, M1_I3)
        assert not dominates(i3, M1_I3, M0_I3)

    @given(random_instances(max_n=5))
    def test_meet_join_closed_over_stable_set(self, inst):
        stable = enumerate_stable_bruteforce(inst)
        pool = set(stable)
        for m1 in stable:
            for m2 in stable:
                lo = meet(inst, m1, m2)
                hi = join(inst, m1, m2)
                assert lo in pool and hi in pool
                assert dominates(inst, lo, m1) and dominates(inst, m2, hi)
