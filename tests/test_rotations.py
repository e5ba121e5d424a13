"""Rotations, the rotation poset, and the closed-set correspondence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from robustmatch import (
    Matching,
    Rotation,
    boy_optimal,
    build_rotation_poset,
    closed_set_to_matching,
    eliminate,
    enumerate_closed_masks,
    exposed_rotations,
    girl_optimal,
    matching_to_closed_set,
)
from robustmatch.oracle import enumerate_stable_bruteforce
from robustmatch.rotations import ids_to_mask, mask_to_ids

from test_instance import random_instances
from test_matching import M0_I2, M0_I3, M1_I3, MZ_I2, MZ_I3

RHO_I2 = Rotation(((0, 0), (1, 1)))
RHO_A = Rotation(((0, 0), (1, 1), (2, 2)))
RHO_B = Rotation(((0, 1), (1, 2), (2, 0)))


class TestRotation:
    def test_canonical_form_starts_at_smallest_boy(self):
        rot = Rotation.from_cycle([(2, 2), (0, 0), (1, 1)])
        assert rot.pairs[0][0] == 0
        assert rot == Rotation.from_cycle([(0, 0), (1, 1), (2, 2)])

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError, match="smallest boy"):
            Rotation(((1, 1), (0, 0)))

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError, match="at least two"):
            Rotation(((0, 0),))

    def test_distinct_agents(self):
        with pytest.raises(ValueError, match="distinct"):
            Rotation(((0, 0), (1, 0)))

    def test_post_pairs_cycle(self):
        assert RHO_A.post_pairs == ((0, 1), (1, 2), (2, 0))

    def test_describe(self):
        assert RHO_I2.describe() == "(b1,g1) (b2,g2)"


class TestExposedRotations:
    def test_i2_boy_optimal_exposes_one(self, i2):
        assert exposed_rotations(i2, M0_I2) == [RHO_I2]

    def test_i2_girl_optimal_exposes_none(self, i2):
        assert exposed_rotations(i2, MZ_I2) == []

    def test_i3_boy_optimal(self, i3):
        assert exposed_rotations(i3, M0_I3) == [RHO_A]

    def test_i3_middle(self, i3):
        assert exposed_rotations(i3, M1_I3) == [RHO_B]

    @given(random_instances(max_n=6))
    def test_exposed_rotations_are_vertex_disjoint(self, inst):
        rotations = exposed_rotations(inst, boy_optimal(inst))
        boys = [b for rot in rotations for b in rot.boys]
        assert len(boys) == len(set(boys))


class TestEliminate:
    def test_i2(self, i2):
        assert eliminate(i2, M0_I2, RHO_I2) == MZ_I2

    def test_i3_chain(self, i3):
        m1 = eliminate(i3, M0_I3, RHO_A)
        assert m1 == M1_I3
        assert eliminate(i3, m1, RHO_B) == MZ_I3

    def test_rejects_absent_pair(self, i3):
        with pytest.raises(ValueError, match="not in the matching"):
            eliminate(i3, MZ_I3, RHO_A)

    def test_rejects_non_exposed(self, i3):
        # both pairs are present at M0, but g3 is not b1's successor girl
        with pytest.raises(ValueError, match="not exposed"):
            eliminate(i3, M0_I3, Rotation(((0, 0), (2, 2))))

    @given(random_instances(max_n=6))
    def test_elimination_preserves_stability(self, inst):
        from robustmatch import is_stable

        m = boy_optimal(inst)
        for rot in exposed_rotations(inst, m):
            assert is_stable(inst, eliminate(inst, m, rot))


class TestRotationPoset:
    def test_i2_single_rotation(self, i2):
        poset = build_rotation_poset(i2)
        assert poset.size == 1
        assert poset.rotations == (RHO_I2,)
        assert poset.minimal_ids == poset.maximal_ids == (0,)

    def test_i3_chain(self, i3):
        poset = build_rotation_poset(i3)
        assert poset.rotations == (RHO_A, RHO_B)
        assert poset.leq(0, 1) and not poset.leq(1, 0)
        assert poset.hasse_succs[0] == (1,)
        assert poset.pred_closure[1] == 0b01

    def test_endpoints(self, i3):
        poset = build_rotation_poset(i3)
        assert poset.boy_opt == M0_I3 and poset.girl_opt == MZ_I3

    def test_index_of_unknown_rotation(self, i2):
        poset = build_rotation_poset(i2)
        with pytest.raises(ValueError, match="does not belong"):
            poset.index_of(RHO_A)

    def test_unique_matching_means_empty_poset(self):
        from robustmatch import parse_instance

        inst = parse_instance("2\nb1: g1 g2\nb2: g1 g2\ng1: b1 b2\ng2: b1 b2\n")
        poset = build_rotation_poset(inst)
        assert poset.size == 0
        assert poset.boy_opt == poset.girl_opt

    @given(random_instances(max_n=7))
    @settings(max_examples=60)
    def test_discovery_order_is_linear_extension(self, inst):
        poset = build_rotation_poset(inst)
        for j in range(poset.size):
            assert poset.pred_closure[j] < (1 << j) * 2
            assert all(i < j for i in mask_to_ids(poset.pred_closure[j]))

    @given(random_instances(max_n=7))
    @settings(max_examples=60)
    def test_hasse_matches_closure(self, inst):
        poset = build_rotation_poset(inst)
        for v in range(poset.size):
            for u in poset.hasse_preds[v]:
                assert poset.leq(u, v)
                assert v in poset.hasse_succs[u]

    @given(random_instances(max_n=6))
    @settings(max_examples=60)
    def test_partner_chains_match_bruteforce(self, inst):
        poset = build_rotation_poset(inst)
        stable = enumerate_stable_bruteforce(inst)
        boy_partners: dict[int, set[int]] = {}
        girl_partners: dict[int, set[int]] = {}
        for m in stable:
            for b, g in m.pairs:
                boy_partners.setdefault(b, set()).add(g)
                girl_partners.setdefault(g, set()).add(b)
        # every list best first; the slot positions are the ranks of those partners
        assert poset.boy_slot_girls == {
            b: tuple(sorted(gs, key=inst.boy_rank[b].get)) for b, gs in boy_partners.items()
        }
        assert poset.girl_slot_boys == {
            g: tuple(sorted(bs, key=inst.girl_rank[g].get)) for g, bs in girl_partners.items()
        }
        for b, girls in poset.boy_slot_girls.items():
            assert poset.boy_slot_positions[b] == tuple(inst.boy_rank[b][g] for g in girls)
        for g, boys in poset.girl_slot_boys.items():
            assert poset.girl_slot_positions[g] == tuple(inst.girl_rank[g][b] for b in boys)


class TestClosedSets:
    def test_i3_masks(self, i3):
        poset = build_rotation_poset(i3)
        assert closed_set_to_matching(poset, 0) == M0_I3
        assert closed_set_to_matching(poset, 0b01) == M1_I3
        assert closed_set_to_matching(poset, 0b11) == MZ_I3

    def test_non_closed_mask_rejected(self, i3):
        poset = build_rotation_poset(i3)
        with pytest.raises(ValueError, match="not downward closed"):
            closed_set_to_matching(poset, 0b10)

    def test_i2_enumeration(self, i2):
        poset = build_rotation_poset(i2)
        assert enumerate_closed_masks(poset) == [0, 1]

    def test_i3_enumeration(self, i3):
        poset = build_rotation_poset(i3)
        assert sorted(enumerate_closed_masks(poset)) == [0b00, 0b01, 0b11]

    def test_matching_to_closed_set_round_trip(self, i3):
        poset = build_rotation_poset(i3)
        for mask in enumerate_closed_masks(poset):
            assert matching_to_closed_set(poset, closed_set_to_matching(poset, mask)) == mask

    def test_unstable_matching_rejected(self, i3):
        poset = build_rotation_poset(i3)
        with pytest.raises(ValueError, match="not a stable matching"):
            matching_to_closed_set(poset, Matching([(0, 1), (1, 0), (2, 2)]))

    def test_mask_helpers(self):
        assert mask_to_ids(0b1011) == (0, 1, 3)
        assert ids_to_mask((0, 1, 3)) == 0b1011

    @given(random_instances(max_n=6))
    @settings(max_examples=60)
    def test_birkhoff_bijection_small(self, inst):
        poset = build_rotation_poset(inst)
        generated = [closed_set_to_matching(poset, m) for m in enumerate_closed_masks(poset)]
        assert len(set(generated)) == len(generated)
        assert set(generated) == set(enumerate_stable_bruteforce(inst))

    @given(random_instances(max_n=6))
    @settings(max_examples=40)
    def test_girl_optimal_is_full_mask(self, inst):
        poset = build_rotation_poset(inst)
        assert closed_set_to_matching(poset, poset.full_mask) == girl_optimal(inst)
