"""Classification of single shifts against the rotation poset."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from robustmatch import (
    BOY_LIST,
    GIRL_LIST,
    Shift,
    analyze_shift,
    apply_shift,
    build_rotation_poset,
    characterize_MAB,
    closed_set_to_matching,
    enumerate_closed_masks,
    enumerate_shift_domain,
    is_stable,
    join,
    meet,
    parse_instance,
    sublattice_poset,
)
from robustmatch.instance import reversed_instance, reversed_shift
from robustmatch.matching import boy_optimal, unmatched_agents
from robustmatch.shift_analysis import (
    DISJOINT,
    EMPTY_MAB,
    PROPER,
    STATUSES,
    ShiftAnalysis,
    find_component_rotations,
)

from test_instance import random_instances
from test_matching import M0_I2, M1_I3, MZ_I2

I2_SHIFT = Shift(GIRL_LIST, 0, 0, 1)   # g1 moves b1 above b2
I3_SHIFT = Shift(GIRL_LIST, 0, 0, 1)   # g1 moves b1 above b3

# unique-stable-matching instance: one shift destabilizes it, another cannot
UNIQUE = parse_instance(
    "3\nb1: g1 g3 g2\nb2: g3 g2 g1\nb3: g1 g2 g3\n"
    "g1: b1 b3 b2\ng2: b1 b3 b2\ng3: b2 b1 b3\n"
)
# incomplete instance where one shift changes who ends up unmatched
UNMATCHED_CHANGE = parse_instance(
    "3\nb1: g1 g3\nb2: g3\nb3: g1 g2\ng1: b1 b3\ng2: b3\ng3: b2 b1\n"
)
# the same instance with the roles of the two sides swapped
UNMATCHED_CHANGE_BOYS = parse_instance(
    "3\nb1: g1 g3\nb2: g3\nb3: g2 g1\ng1: b1 b3\ng2: b3\ng3: b1 b2\n"
)
# incomplete instances with unequal sides, two rotations each
UNEQUAL_SIDES = [
    "3 4\nb1: g1 g2 g4\nb2: g1 g2 g4\nb3: g4 g2 g1 g3\n"
    "g1: b3 b1 b2\ng2: b1 b3 b2\ng3: b3\ng4: b2 b1 b3\n",
    "5 6\nb1: g3 g4 g5 g1\nb2: g6 g4 g3 g2 g1\nb3: g4 g2 g1 g3\nb4: g5 g2 g4 g1 g6 g3\n"
    "b5: g2 g5 g3\ng1: b3 b2 b4 b1\ng2: b3 b4 b2 b5\ng3: b3 b1 b5 b2 b4\n"
    "g4: b4 b3 b1 b2\ng5: b5 b4 b1\ng6: b2 b4\n",
    "6 5\nb1: g2 g1 g4 g5\nb2: g2 g5 g4 g1\nb3: g2 g4 g1 g5\nb4: g3 g4 g2\n"
    "b5: g1 g4 g5 g2 g3\nb6: g5 g4 g2 g1\ng1: b2 b1 b5 b3 b6\n"
    "g2: b6 b5 b2 b3 b4 b1\ng3: b5 b4\ng4: b2 b6 b4 b5 b3 b1\ng5: b1 b2 b5 b6 b3\n",
]


def mirrored_boy_analyses(poset):
    """Reference for boy-list shifts: the girl-list rule run on the
    role-reversed instance, its rotation ids mapped back and its endpoints
    swapped.

    A reversed rotation undoes exactly one original rotation: its pairs, read
    back in boy-girl order, are that rotation's post-elimination pairs.  The
    correspondence reverses the precedence order, so the reversed entry is
    the exit and the bottom and top trade places.
    """
    inst = poset.inst
    rposet = build_rotation_poset(reversed_instance(inst))
    mapping = []
    for rot in rposet.rotations:
        ids = {poset.post_pair.get((b, g)) for g, b in rot.pairs}
        assert len(ids) == 1 and None not in ids
        mapping.append(ids.pop())
    assert sorted(mapping) == list(range(poset.size))
    out = {}
    for shift in enumerate_shift_domain(inst):
        if shift.side != BOY_LIST:
            continue
        mirrored = analyze_shift(rposet, rposet.inst, reversed_shift(shift))
        if mirrored.status != PROPER:
            out[shift] = ShiftAnalysis(shift, mirrored.status)
            continue
        rho_in = None if mirrored.rho_out is None else mapping[mirrored.rho_out]
        rho_out = None if mirrored.rho_in is None else mapping[mirrored.rho_in]
        out[shift] = ShiftAnalysis(shift, PROPER, rho_in, rho_out)
    return out


class TestComponentRotations:
    def test_i2(self, i2):
        poset = build_rotation_poset(i2)
        rho1, rho2, rho3 = find_component_rotations(poset, i2, I2_SHIFT)
        assert (rho1, rho2, rho3) == (0, 0, None)

    def test_i3(self, i3):
        poset = build_rotation_poset(i3)
        rho1, rho2, rho3 = find_component_rotations(poset, i3, I3_SHIFT)
        assert (rho1, rho2, rho3) == (0, 0, 1)

    def test_rejects_boy_side(self, i2):
        poset = build_rotation_poset(i2)
        with pytest.raises(ValueError):
            find_component_rotations(poset, i2, Shift(BOY_LIST, 0, 1, 1))

    @given(random_instances(max_n=6))
    @settings(max_examples=60)
    def test_rho1_below_rho2(self, inst):
        poset = build_rotation_poset(inst)
        for shift in enumerate_shift_domain(inst):
            if shift.side != GIRL_LIST:
                continue
            rho1, rho2, _ = find_component_rotations(poset, inst, shift)
            if rho1 is not None and rho2 is not None:
                assert poset.leq(rho1, rho2)


class TestAnalyzeShift:
    def test_i2_proper(self, i2):
        poset = build_rotation_poset(i2)
        analysis = analyze_shift(poset, i2, I2_SHIFT)
        assert analysis.status == PROPER
        assert analysis.rho_in == 0 and analysis.rho_out is None

    def test_i3_proper_interval(self, i3):
        poset = build_rotation_poset(i3)
        analysis = analyze_shift(poset, i3, I3_SHIFT)
        assert analysis.status == PROPER
        assert analysis.rho_in == 0 and analysis.rho_out == 1

    def test_i2_boy_side_mirror(self, i2):
        # b1 moves g2 above g1: the boy-optimal matching becomes unstable
        poset = build_rotation_poset(i2)
        analysis = analyze_shift(poset, i2, Shift(BOY_LIST, 0, 1, 1))
        assert analysis.status == PROPER
        assert analysis.rho_in is None and analysis.rho_out == 0

    def test_disjoint_on_unique_matching(self):
        poset = build_rotation_poset(UNIQUE)
        analysis = analyze_shift(poset, UNIQUE, Shift(GIRL_LIST, 0, 2, 1))
        assert analysis.status == DISJOINT
        assert not is_stable(apply_shift(UNIQUE, Shift(GIRL_LIST, 0, 2, 1)), poset.boy_opt)

    def test_empty_on_unique_matching(self):
        poset = build_rotation_poset(UNIQUE)
        analysis = analyze_shift(poset, UNIQUE, Shift(GIRL_LIST, 0, 1, 1))
        assert analysis.status == EMPTY_MAB
        assert is_stable(apply_shift(UNIQUE, Shift(GIRL_LIST, 0, 1, 1)), poset.boy_opt)

    def test_disjoint_when_unmatched_set_changes(self):
        poset = build_rotation_poset(UNMATCHED_CHANGE)
        analysis = analyze_shift(poset, UNMATCHED_CHANGE, Shift(GIRL_LIST, 0, 2, 1))
        assert analysis.status == DISJOINT

    def test_disjoint_when_unmatched_set_changes_on_boy_list(self):
        inst, shift = UNMATCHED_CHANGE_BOYS, Shift(BOY_LIST, 0, 2, 1)
        poset = build_rotation_poset(inst)
        shifted = apply_shift(inst, shift)
        assert unmatched_agents(inst, poset.boy_opt) != unmatched_agents(shifted, boy_optimal(shifted))
        assert analyze_shift(poset, inst, shift).status == DISJOINT

    @given(random_instances(max_n=6))
    @settings(max_examples=40)
    def test_status_is_always_known(self, inst):
        assert set(STATUSES) == {PROPER, DISJOINT, EMPTY_MAB}
        poset = build_rotation_poset(inst)
        for shift in enumerate_shift_domain(inst):
            assert analyze_shift(poset, inst, shift).status in STATUSES


class TestBoyListMirror:
    """Boy-list shifts read off the one poset agree with role reversal."""

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        expected = mirrored_boy_analyses(poset)
        for shift, reference in expected.items():
            assert analyze_shift(poset, inst, shift) == reference

    def test_i2_i3(self, i2, i3):
        self.check(i2)
        self.check(i3)

    @given(random_instances(max_n=7))
    @settings(max_examples=80)
    def test_random_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))


class TestDestabilizesMask:
    def test_proper_interval_logic(self):
        analysis = ShiftAnalysis(I3_SHIFT, PROPER, rho_in=0, rho_out=1)
        assert not analysis.destabilizes_mask(0b00)
        assert analysis.destabilizes_mask(0b01)
        assert not analysis.destabilizes_mask(0b11)

    def test_sentinels(self):
        always_in = ShiftAnalysis(I3_SHIFT, PROPER, rho_in=None, rho_out=1)
        assert always_in.destabilizes_mask(0b00)
        assert not always_in.destabilizes_mask(0b11)
        assert ShiftAnalysis(I3_SHIFT, DISJOINT).destabilizes_mask(0b00)
        assert not ShiftAnalysis(I3_SHIFT, EMPTY_MAB).destabilizes_mask(0b00)

    @given(random_instances(max_n=6))
    @settings(max_examples=40)
    def test_agrees_with_direct_stability_test(self, inst):
        poset = build_rotation_poset(inst)
        masks = enumerate_closed_masks(poset)
        generated = {m: closed_set_to_matching(poset, m) for m in masks}
        for shift in enumerate_shift_domain(inst):
            analysis = analyze_shift(poset, inst, shift)
            shifted = apply_shift(inst, shift)
            for mask, matching in generated.items():
                assert analysis.destabilizes_mask(mask) == (not is_stable(shifted, matching))


class TestCharacterize:
    def test_i2_examples(self, i2):
        assert characterize_MAB(i2, I2_SHIFT, MZ_I2)
        assert not characterize_MAB(i2, I2_SHIFT, M0_I2)

    @given(random_instances(max_n=6))
    @settings(max_examples=40)
    def test_equals_direct_test(self, inst):
        from robustmatch.oracle import enumerate_stable_bruteforce

        stable = enumerate_stable_bruteforce(inst)
        for shift in enumerate_shift_domain(inst):
            shifted = apply_shift(inst, shift)
            for m in stable:
                assert characterize_MAB(inst, shift, m) == (not is_stable(shifted, m))


class TestSublattice:
    def test_i3_singleton(self, i3):
        poset = build_rotation_poset(i3)
        analysis = analyze_shift(poset, i3, I3_SHIFT)
        fragment, boy_best, girl_best = sublattice_poset(poset, analysis)
        assert fragment.fragment_ids == ()
        assert boy_best == girl_best == M1_I3
        assert fragment.matchings() == [M1_I3]

    def test_i2_singleton(self, i2):
        poset = build_rotation_poset(i2)
        analysis = analyze_shift(poset, i2, I2_SHIFT)
        fragment, boy_best, girl_best = sublattice_poset(poset, analysis)
        assert fragment.fragment_ids == ()
        assert boy_best == girl_best == MZ_I2

    def test_requires_proper(self, i2):
        poset = build_rotation_poset(i2)
        with pytest.raises(ValueError, match="PROPER"):
            sublattice_poset(poset, ShiftAnalysis(I2_SHIFT, EMPTY_MAB))

    @given(random_instances(max_n=6))
    @settings(max_examples=30)
    def test_generates_exactly_the_destabilized_set(self, inst):
        poset = build_rotation_poset(inst)
        masks = enumerate_closed_masks(poset)
        generated = {m: closed_set_to_matching(poset, m) for m in masks}
        for shift in enumerate_shift_domain(inst):
            analysis = analyze_shift(poset, inst, shift)
            if analysis.status != PROPER:
                continue
            shifted = apply_shift(inst, shift)
            expected = {m for m in generated.values() if not is_stable(shifted, m)}
            fragment, boy_best, girl_best = sublattice_poset(poset, analysis)
            members = fragment.matchings()
            assert len(set(members)) == len(members)
            assert set(members) == expected
            assert boy_best in expected and girl_best in expected
            # destabilized sublattice is closed under meet and join
            for m1 in members:
                for m2 in members:
                    assert meet(inst, m1, m2) in expected
                    assert join(inst, m1, m2) in expected
