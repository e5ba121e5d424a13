"""Classification of single shifts against the rotation poset."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from robustmatch import (
    BOY_LIST,
    GIRL_LIST,
    Shift,
    Sublattice,
    analyze_shift,
    apply_shift,
    build_rotation_poset,
    characterize_MAB,
    closed_set_to_matching,
    enumerate_closed_masks,
    enumerate_robust,
    enumerate_shift_domain,
    is_stable,
    join,
    meet,
    parse_instance,
    robust_members,
    sublattice_poset,
)
from robustmatch.cli import gen_random_instance
from robustmatch.instance import mover_position, reversed_instance
from robustmatch.matching import boy_optimal, unmatched_agents
from robustmatch.rotations import ids_to_mask
from robustmatch.shift_analysis import (
    DISJOINT,
    EMPTY_MAB,
    PROPER,
    STATUSES,
    ShiftAnalysis,
    _add_runs,
    _mover_crossing,
    find_component_rotations,
    uniform_weights,
)

from test_instance import random_instances, reversed_shift
from test_matching import M0_I2, M1_I3, MZ_I2
from test_rotations import (
    DEEP_CHAIN,
    UNEQUAL_SIDES,
    chain_prefixes,
    cyclic_blocks,
    lattice_instances,
    recursive_closed_subsets,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

I2_SHIFT = Shift(GIRL_LIST, 0, 0, 1)   # g1 moves b1 above b2
I3_SHIFT = Shift(GIRL_LIST, 0, 0, 1)   # g1 moves b1 above b3

# b1 is unmatched in the one stable matching; g1 moving him above b2 is the
# one shift of the domain, and it is DISJOINT
LONE_GIRL = "2 1\nb1: g1\nb2: g1\ng1: b2 b1\n"

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
# instances with movers unmatched in every stable matching, hence chainless
CHAINLESS = pytest.mark.parametrize(
    "text",
    [*UNEQUAL_SIDES, (FIXTURES / "unmatched.txt").read_text(encoding="utf-8"), LONE_GIRL],
    ids=["3x4", "5x6", "6x5", "unmatched", "2x1"],
)
# random instances, incomplete lists and cyclic blocks
PAIR_INSTANCES = st.one_of(
    lattice_instances(), random_instances(max_n=8, completeness=st.sampled_from([0.9, 0.7, 0.5, 0.3]))
)


def run_windows(poset, inst, side, owner, i):
    """(windows, shift) per run of windows of the mover at position i on the
    owner's list, the shift holding the run's longest window: k = i - p_j
    for run j < right, then k = 1 for the run holding no partner, when it has
    a window (i - 1 > p_{right-1}).  The window counts add up to i."""
    positions, _ = (poset.girl_chains if side == GIRL_LIST else poset.boy_chains).get(owner, ((), ()))
    mover = inst.prefs_of(side, owner)[i]
    previous = -1
    for position in positions:
        if position >= i:
            break
        yield position - previous, Shift(side, owner, mover, i - position)
        previous = position
    if i - 1 > previous:
        yield i - 1 - previous, Shift(side, owner, mover, 1)


def shift_runs(poset, inst):
    """Reference for ``uniform_weights``: the whole shift domain walked run
    by run, one (windows, status, rho_in, rho_out) per run of windows, each
    run's outcome read by ``analyze_shift`` on one window of it.

    One run per stable partner of the list owner above the mover plus one
    for the windows that hold none; every shift of a run has that analysis,
    and the window counts add up to the size of the domain.
    """
    for side, lists in ((GIRL_LIST, inst.girl_prefs), (BOY_LIST, inst.boy_prefs)):
        for owner, prefs in enumerate(lists):
            for i in range(1, len(prefs)):
                for windows, shift in run_windows(poset, inst, side, owner, i):
                    a = analyze_shift(poset, inst, shift)
                    yield windows, a.status, a.rho_in, a.rho_out


def run_weights(poset, inst) -> dict:
    """``shift_runs`` added up in the form of ``uniform_weights``:
    {(rho_in, rho_out): windows}, EMPTY_MAB runs left out."""
    weights = Counter()
    for windows, status, rho_in, rho_out in shift_runs(poset, inst):
        if status != EMPTY_MAB:
            weights[rho_in, rho_out] += windows
    return dict(weights)


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
    undone = {frozenset(rot.post_pairs): v for v, rot in enumerate(poset.rotations)}
    mapping = [undone[frozenset((b, g) for g, b in rot.pairs)] for rot in rposet.rotations]
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


# b2 and g1 list each other second; g2 lists only b2, b1 only g1
SHORT_LISTS = parse_instance("2\nb1: g1\nb2: g1 g2\ng1: b1 b2\ng2: b2\n")


class TestRejectedShift:
    """A shift that does not apply to the instance raises the message of
    ``mover_position``, the general check, although the mover is located by
    one rank lookup."""

    @pytest.mark.parametrize("analyze, shift, message", [
        (analyze_shift, Shift(GIRL_LIST, 2, 0, 1), "GIRL_LIST shift agent 2 out of range (0..1)"),
        (analyze_shift, Shift(BOY_LIST, -1, 0, 1), "BOY_LIST shift agent -1 out of range (0..1)"),
        (analyze_shift, Shift(GIRL_LIST, 1, 0, 1), "shift mover is not on the list of g2"),
        (analyze_shift, Shift(BOY_LIST, 0, 1, 1), "shift mover is not on the list of b1"),
        (analyze_shift, Shift(GIRL_LIST, 0, 2, 1), "shift mover is not on the list of g1"),
        (analyze_shift, Shift(GIRL_LIST, 0, 1, 2), "shift window 2 does not fit above position 1 in the list of g1"),
        (analyze_shift, Shift(BOY_LIST, 1, 0, 1), "shift window 1 does not fit above position 0 in the list of b2"),
        (find_component_rotations, Shift(GIRL_LIST, 0, 1, 2),
         "shift window 2 does not fit above position 1 in the list of g1"),
    ], ids=["owner-out-of-range", "negative-owner", "mover-not-listed", "mover-not-listed-boy",
            "mover-past-other-side", "window-too-wide", "window-too-wide-boy", "component-rotations"])
    def test_message_is_mover_position_s(self, analyze, shift, message):
        poset = build_rotation_poset(SHORT_LISTS)
        with pytest.raises(ValueError) as expected:
            mover_position(SHORT_LISTS, shift)
        with pytest.raises(ValueError) as info:
            analyze(poset, SHORT_LISTS, shift)
        assert str(info.value) == str(expected.value) == message


class TestAnalyzeShift:
    def test_i2_proper(self, i2):
        poset = build_rotation_poset(i2)
        analysis = analyze_shift(poset, i2, I2_SHIFT)
        assert analysis.status == PROPER
        assert analysis.rho_in == 0 and analysis.rho_out is None
        assert analysis == (I2_SHIFT, PROPER, 0, None)

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


class TestShiftRuns:
    """Runs of windows carry exactly the per-shift analyses, counted, and the
    per-mover counts of ``uniform_weights`` carry the same weight per
    (rho_in, rho_out), EMPTY_MAB left out.  An analysis has no endpoint on
    either side exactly when it is not PROPER, so the table's (None, None)
    entry is the DISJOINT mass and nothing else."""

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        expected = Counter()
        breaking = Counter()
        for shift in enumerate_shift_domain(inst):
            a = analyze_shift(poset, inst, shift)
            assert ((a.rho_in, a.rho_out) == (None, None)) == (a.status != PROPER)
            expected[(a.status, a.rho_in, a.rho_out)] += 1
            if a.status != EMPTY_MAB:
                breaking[a.rho_in, a.rho_out] += 1
        runs = Counter()
        for windows, *outcome in shift_runs(poset, inst):
            assert windows > 0
            runs[tuple(outcome)] += windows
        assert runs == expected
        weights = uniform_weights(poset, inst)
        assert all(w > 0 for w in weights.values())
        assert weights == breaking

    def test_i2_i3(self, i2, i3):
        self.check(i2)
        self.check(i3)

    @given(random_instances(max_n=8, completeness=st.sampled_from([1.0, 0.9, 0.7, 0.5, 0.3])))
    @settings(max_examples=80)
    def test_random_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))

    @CHAINLESS
    def test_chainless_movers(self, text):
        """A mover unmatched in every stable matching has no chain and
        prefers every owner on its list; some of its shifts break matchings,
        and ``uniform_weights`` counts them."""
        inst = parse_instance(text)
        poset = build_rotation_poset(inst)
        chainless_breaking = 0
        for shift in enumerate_shift_domain(inst):
            mover_chains = poset.boy_chains if shift.side == GIRL_LIST else poset.girl_chains
            if shift.mover not in mover_chains and analyze_shift(poset, inst, shift).status != EMPTY_MAB:
                chainless_breaking += 1
        assert chainless_breaking > 0
        self.check(inst)


class TestSurvivingRunsArePrefix:
    """Per mover, ``_add_runs`` adds exactly the runs that are not
    EMPTY_MAB, which are runs 0..t-1, each under its own analysis's
    (rho_in, rho_out).  Run j is given 2**j windows, so every entry of the
    table names the runs it holds.  ``check`` returns how many pairs keep
    some runs but not all of them past run 0 (1 < t < right), the pairs on
    which the scan for t steps back and then stops mid-chain."""

    @staticmethod
    def check(inst) -> int:
        poset = build_rotation_poset(inst)
        mid_chain = 0
        for side, lists in ((GIRL_LIST, inst.girl_prefs), (BOY_LIST, inst.boy_prefs)):
            girl = side == GIRL_LIST
            for owner, prefs in enumerate(lists):
                positions, boundaries = (poset.girl_chains if girl else poset.boy_chains).get(owner, ((), ()))
                for i in range(1, len(prefs)):
                    never, crossing = _mover_crossing(poset, inst, side, owner, prefs[i])
                    right = sum(1 for p in positions if p < i)
                    if not right or never:
                        continue
                    expected = Counter()
                    for run, (_, shift) in enumerate(list(run_windows(poset, inst, side, owner, i))[:right]):
                        a = analyze_shift(poset, inst, shift)
                        if a.status != EMPTY_MAB:
                            expected[a.rho_in, a.rho_out] += 1 << run
                    weights = {}
                    _add_runs(weights, poset, girl, boundaries, [1 << j for j in range(right)], right, crossing)
                    assert weights == expected
                    held = sum(weights.values())
                    assert held & 1 and held & (held + 1) == 0
                    mid_chain += 1 < held.bit_length() < right
        return mid_chain

    @given(PAIR_INSTANCES)
    @settings(max_examples=120, deadline=None)
    def test_random_and_block_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("size", range(5, 13))
    def test_single_cyclic_block(self, size):
        self.check(cyclic_blocks([size], size))

    # the benchmark's complete n = 30 panel (seed 4242 is fixtures/gen30.txt),
    # less seed 4, whose one stable matching leaves no run past run 0
    @pytest.mark.parametrize("seed", (4242, 1, 2, 3, 5, 6))
    def test_random_complete_n30(self, seed):
        assert self.check(gen_random_instance(30, seed)) > 0


class TestCrossingIsTheOnlyFixedEndpoint:
    """The stability argument the shift rule rests on, checked against the
    two extreme stable matchings rather than the rule's own reading.  For
    every (owner, mover) pair where the mover prefers the owner in some
    stable matching:

    - the owner is matched in every stable matching, so it has a chain;
    - without a crossing, the mover prefers the owner in every stable
      matching too, every stable partner of the owner ranks above the mover,
      and boundary ``right`` of the owner's chain is None;
    - on a girl list, rho1 comes with a rho2 at or above it, and a PROPER
      analysis enters at rho2 and exits at rho3.
    """

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        for side, lists in ((GIRL_LIST, inst.girl_prefs), (BOY_LIST, inst.boy_prefs)):
            girl = side == GIRL_LIST
            owner_chains = poset.girl_chains if girl else poset.boy_chains
            # on a girl list the boy mover is worst off in the girl-optimal
            # matching and the girl owner in the boy-optimal one
            mover_worst, mover_best = (poset.girl_opt, poset.boy_opt) if girl else (poset.boy_opt, poset.girl_opt)
            owner_worst = poset.boy_opt if girl else poset.girl_opt
            mover_rank = inst.boy_rank if girl else inst.girl_rank
            owner_rank = inst.girl_rank if girl else inst.boy_rank

            def prefers(matching, mover, owner):
                mate = matching.girl_of(mover) if girl else matching.boy_of(mover)
                return mate is None or mover_rank[mover][mate] > mover_rank[mover][owner]

            for owner, prefs in enumerate(lists):
                for i, mover in enumerate(prefs):
                    if not prefers(mover_worst, mover, owner):
                        continue
                    assert owner in owner_chains
                    positions, boundaries = owner_chains[owner]
                    never, crossing = _mover_crossing(poset, inst, side, owner, mover)
                    assert not never
                    if crossing is None:
                        assert prefers(mover_best, mover, owner)
                        partner = owner_worst.boy_of(owner) if girl else owner_worst.girl_of(owner)
                        assert owner_rank[owner][partner] < i
                        assert boundaries[bisect_left(positions, i)] is None
                    if not girl:
                        continue
                    for window in range(1, i + 1):
                        shift = Shift(side, owner, mover, window)
                        rho1, rho2, rho3 = find_component_rotations(poset, inst, shift)
                        if rho1 is not None:
                            assert rho2 is not None and poset.leq(rho1, rho2)
                        a = analyze_shift(poset, inst, shift)
                        if a.status == PROPER:
                            assert (a.rho_in, a.rho_out) == (rho2, rho3)

    @given(PAIR_INSTANCES)
    @settings(max_examples=150, deadline=None)
    def test_random_and_block_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("sizes", [[5], [8], [12], [3, 4, 5], [6, 6]], ids=str)
    def test_cyclic_blocks(self, sizes):
        self.check(cyclic_blocks(sizes, len(sizes)))

    @CHAINLESS
    def test_chainless_movers(self, text):
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


def free_rotation_sets(sublattice) -> list[int]:
    """The sublattice's members, in order, as the free rotations each one
    adds to the mandatory set."""
    mandatory = ids_to_mask(sublattice.mandatory)
    return [mask & ~mandatory for mask in sublattice.member_masks()]


def best_members(sublattice) -> tuple:
    """(boy-best, girl-best) member: the one with no free element, and the
    one with every free element."""
    return robust_members(sublattice, ()), robust_members(sublattice, range(len(sublattice.free_elements)))


class TestSublattice:
    def test_i3_singleton(self, i3):
        poset = build_rotation_poset(i3)
        analysis = analyze_shift(poset, i3, I3_SHIFT)
        fragment = sublattice_poset(poset, analysis)
        boy_best, girl_best = best_members(fragment)
        assert fragment.free_elements == ()
        assert boy_best == girl_best == M1_I3
        assert enumerate_robust(fragment) == [M1_I3]

    def test_i2_singleton(self, i2):
        poset = build_rotation_poset(i2)
        analysis = analyze_shift(poset, i2, I2_SHIFT)
        fragment = sublattice_poset(poset, analysis)
        boy_best, girl_best = best_members(fragment)
        assert fragment.free_elements == ()
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
            fragment = sublattice_poset(poset, analysis)
            boy_best, girl_best = best_members(fragment)
            members = enumerate_robust(fragment)
            assert len(set(members)) == len(members)
            assert set(members) == expected
            assert boy_best in expected and girl_best in expected
            # destabilized sublattice is closed under meet and join
            for m1 in members:
                for m2 in members:
                    assert meet(inst, m1, m2) in expected
                    assert join(inst, m1, m2) in expected

    @given(lattice_instances())
    @settings(max_examples=40, deadline=None)
    def test_fragment_order_matches_recursive_reference(self, inst):
        poset = build_rotation_poset(inst)
        for shift in enumerate_shift_domain(inst):
            analysis = analyze_shift(poset, inst, shift)
            if analysis.status != PROPER:
                continue
            fragment = sublattice_poset(poset, analysis)
            ids = [r for (r,) in fragment.free_elements]
            fmask = sum(1 << v for v in ids)
            expected = recursive_closed_subsets([poset.pred_closure[v] & fmask for v in ids], ids)
            assert free_rotation_sets(fragment) == expected

    def test_deep_chain(self):
        """Needs no recursion: a 2,000-rotation fragment of a chain, cut off
        below and above, gives 2,001 prefixes."""
        n = DEEP_CHAIN + 2
        free = range(1, n - 1)
        fragment = Sublattice(
            poset=None,
            mandatory=(0,),
            excluded=(n - 1,),
            free_elements=tuple((v,) for v in free),
            edges=tuple((i, i + 1) for i in range(len(free) - 1)),
        )
        assert free_rotation_sets(fragment) == chain_prefixes(free)
