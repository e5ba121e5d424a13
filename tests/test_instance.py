"""Instance parsing, shifts, and distributions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robustmatch import (
    BOY_LIST,
    GIRL_LIST,
    InstanceFormatError,
    PreferenceInstance,
    Shift,
    ShiftDistribution,
    analyze_shift,
    apply_shift,
    build_rotation_poset,
    enumerate_shift_domain,
    parse_distribution,
    parse_instance,
    parse_shift,
    serialize_distribution,
    serialize_instance,
)
from robustmatch.cli import gen_random_instance
from robustmatch.instance import mover_position, reversed_instance


def random_instances(max_n=7, completeness=st.sampled_from([1.0, 0.7, 0.5])):
    return st.builds(
        gen_random_instance,
        st.integers(1, max_n),
        st.integers(0, 10**6),
        completeness,
    )


def reversed_shift(shift: Shift) -> Shift:
    """The same list edit, expressed for the role-reversed instance."""
    side = BOY_LIST if shift.side == GIRL_LIST else GIRL_LIST
    return Shift(side, shift.agent, shift.mover, shift.window)


class TestPreferenceInstance:
    def test_i2_shape(self, i2):
        assert i2.n_boys == i2.n_girls == 2
        assert i2.boy_prefs == ((0, 1), (1, 0))
        assert i2.girl_prefs == ((1, 0), (0, 1))
        assert i2.is_complete

    def test_ranks_invert_lists(self, i3):
        for b, prefs in enumerate(i3.boy_prefs):
            for pos, g in enumerate(prefs):
                assert i3.boy_rank[b][g] == pos

    def test_mutual_acceptability_enforced(self):
        with pytest.raises(ValueError, match="not mutual"):
            PreferenceInstance(((0,),), ((),))

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PreferenceInstance(((0, 0),), ((0,), (0,)))

    def test_unequal_sides_supported(self):
        inst = parse_instance("2 1\nb1: g1\nb2: g1\ng1: b2 b1\n")
        assert inst.n_boys == 2 and inst.n_girls == 1
        assert not inst.is_complete

    def test_incomplete_lists_are_not_complete(self):
        inst = parse_instance("2\nb1: g1\nb2:\ng1: b1\ng2:\n")
        assert not inst.is_complete

    def test_reversed_instance_swaps_sides(self, i3):
        assert reversed_instance(i3).boy_prefs == i3.girl_prefs


class TestParsing:
    def test_round_trip_i2(self, i2, i2_path):
        assert serialize_instance(i2) == i2_path.read_text()

    def test_parse_reports_line_numbers(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance("2\nb2: g1 g2\nb2: g2 g1\ng1: b2 b1\ng2: b1 b2\n")

    def test_unknown_agent_rejected(self):
        with pytest.raises(InstanceFormatError, match="out of range"):
            parse_instance("1\nb1: g7\ng1: b1\n")

    def test_empty_file_rejected(self):
        with pytest.raises(InstanceFormatError, match="empty"):
            parse_instance("\n\n")

    def test_non_ascii_header_digit_rejected(self):
        with pytest.raises(InstanceFormatError, match="line 1.*expected 'n' or 'n_boys n_girls'"):
            parse_instance("\u00b2\nb1: g1\ng1: b1\n")

    def test_non_ascii_agent_digit_rejected(self):
        with pytest.raises(InstanceFormatError, match="line 2.*expected an agent like g3"):
            parse_instance("1\nb1: g\u00b2\ng1: b1\n")

    def test_missing_lines_rejected(self):
        with pytest.raises(InstanceFormatError, match="expected 4 preference lines"):
            parse_instance("2\nb1: g1 g2\n")

    @given(random_instances())
    def test_round_trip_random(self, inst):
        assert parse_instance(serialize_instance(inst)) == inst


class TestShift:
    def test_describe(self):
        assert Shift(GIRL_LIST, 0, 0, 1).describe() == "GIRL_LIST g1 b1 1"
        assert Shift(BOY_LIST, 2, 1, 2).describe() == "BOY_LIST b3 g2 2"

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            Shift(GIRL_LIST, 0, 0, 0)

    def test_apply_on_girl_list(self, i2):
        shifted = apply_shift(i2, Shift(GIRL_LIST, 0, 0, 1))
        assert shifted.girl_prefs[0] == (0, 1)
        assert shifted.girl_prefs[1] == i2.girl_prefs[1]
        assert shifted.boy_prefs == i2.boy_prefs

    def test_apply_on_boy_list(self, i3):
        shifted = apply_shift(i3, Shift(BOY_LIST, 0, 2, 2))
        assert shifted.boy_prefs[0] == (2, 0, 1)

    def test_window_must_fit(self, i2):
        with pytest.raises(ValueError, match="does not fit"):
            apply_shift(i2, Shift(GIRL_LIST, 0, 1, 2))

    def test_mover_must_be_listed(self):
        inst = parse_instance("2\nb1: g1\nb2: g1 g2\ng1: b1 b2\ng2: b2\n")
        with pytest.raises(ValueError, match="not on the list"):
            apply_shift(inst, Shift(GIRL_LIST, 1, 0, 1))

    @given(random_instances(max_n=6), st.data())
    def test_apply_changes_exactly_one_list(self, inst, data):
        domain = enumerate_shift_domain(inst)
        if not domain:
            return
        shift = data.draw(st.sampled_from(domain))
        shifted = apply_shift(inst, shift)
        before = inst.prefs_of(shift.side, shift.agent)
        after = shifted.prefs_of(shift.side, shift.agent)
        assert sorted(before) == sorted(after)
        pos = mover_position(inst, shift)
        assert after.index(shift.mover) == pos - shift.window
        other = (
            (inst.boy_prefs, shifted.boy_prefs)
            if shift.side == GIRL_LIST
            else (inst.girl_prefs, shifted.girl_prefs)
        )
        assert other[0] == other[1]

    @pytest.mark.parametrize("side", [GIRL_LIST, BOY_LIST])
    @pytest.mark.parametrize("agent", [-1, 3])
    def test_agent_out_of_range(self, i3, side, agent):
        """Negative ids would silently read the last list; too large ones
        would raise a bare IndexError."""
        shift = Shift(side, agent, 0, 1)
        message = f"{side} shift agent {agent} out of range \\(0..2\\)"
        with pytest.raises(ValueError, match=message):
            mover_position(i3, shift)
        with pytest.raises(ValueError, match=message):
            apply_shift(i3, shift)
        with pytest.raises(ValueError, match=message):
            ShiftDistribution(((shift, Fraction(1)),)).validate_for(i3)
        with pytest.raises(ValueError, match=message):
            analyze_shift(build_rotation_poset(i3), i3, shift)

    def test_reversed_shift_flips_side(self):
        shift = Shift(GIRL_LIST, 1, 2, 1)
        assert reversed_shift(shift) == Shift(BOY_LIST, 1, 2, 1)


class TestShiftDomain:
    def test_i2_has_four_shifts(self, i2):
        assert len(enumerate_shift_domain(i2)) == 4

    def test_i3_has_eighteen_shifts(self, i3):
        assert len(enumerate_shift_domain(i3)) == 18

    @given(random_instances())
    def test_size_formula(self, inst):
        expected = sum(
            len(p) * (len(p) - 1) // 2 for p in inst.boy_prefs + inst.girl_prefs
        )
        domain = enumerate_shift_domain(inst)
        assert len(domain) == expected
        assert len(set(domain)) == len(domain)


class TestDistribution:
    def test_must_sum_to_one(self, i2):
        shift = Shift(GIRL_LIST, 0, 0, 1)
        with pytest.raises(ValueError, match="sums to"):
            ShiftDistribution(((shift, Fraction(1, 2)),))

    def test_duplicates_rejected(self, i2):
        shift = Shift(GIRL_LIST, 0, 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            ShiftDistribution(((shift, Fraction(1, 2)), (shift, Fraction(1, 2))))

    def test_negative_rejected(self):
        a, b = Shift(GIRL_LIST, 0, 0, 1), Shift(BOY_LIST, 0, 1, 1)
        with pytest.raises(ValueError, match="negative"):
            ShiftDistribution(((a, Fraction(3, 2)), (b, Fraction(-1, 2))))

    def test_partial_allowed_with_flag(self):
        shift = Shift(GIRL_LIST, 0, 0, 1)
        dist = ShiftDistribution(((shift, Fraction(1, 3)),), allow_partial=True)
        assert dist.total == Fraction(1, 3)

    def test_empty_distribution_allowed(self):
        assert ShiftDistribution(()).total == 0

    def test_uniform_covers_domain(self, i3):
        dist = ShiftDistribution.uniform(i3)
        assert len(dist.entries) == 18
        assert dist.total == 1

    @given(random_instances())
    def test_uniform_entries_built_on_read_match_domain(self, inst):
        dist = ShiftDistribution.uniform(inst)
        domain = enumerate_shift_domain(inst)
        assert dist.entries == tuple((s, Fraction(1, len(domain))) for s in domain)
        assert dist.total == (1 if domain else 0)

    def test_uniform_is_for_its_own_instance(self, i2, i3):
        ShiftDistribution.uniform(i3).validate_for(i3)
        with pytest.raises(ValueError, match="another instance"):
            ShiftDistribution.uniform(i3).validate_for(i2)

    def test_parse_shift(self, i2):
        assert parse_shift("GIRL_LIST g1 b1 1", i2) == Shift(GIRL_LIST, 0, 0, 1)

    def test_parse_shift_rejects_bad_side(self, i2):
        with pytest.raises(InstanceFormatError, match="unknown side"):
            parse_shift("SIDEWAYS g1 b1 1", i2)

    def test_parse_distribution_round_trip(self, i3):
        text = "GIRL_LIST g1 b1 1 1/4\nBOY_LIST b2 g1 2 3/4\n"
        dist = parse_distribution(text, i3)
        assert serialize_distribution(dist) == text

    def test_parse_distribution_reports_line(self, i2):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_distribution("GIRL_LIST g1 b1 1 1/2\nGIRL_LIST g9 b1 1 1/2\n", i2)

    def test_non_ascii_window_digit_rejected(self, i2):
        with pytest.raises(InstanceFormatError, match="line 2.*window must be a positive integer"):
            parse_distribution("# comment\nGIRL_LIST g1 b1 \u00b2 1/1\n", i2)

    def test_non_ascii_probability_digit_rejected(self, i2):
        with pytest.raises(InstanceFormatError, match="line 2.*bad probability"):
            parse_distribution("# comment\nGIRL_LIST g1 b1 1 \u0661/\u0661\n", i2)

    def test_comments_and_blanks_skipped(self, i2):
        dist = parse_distribution("# comment\n\nGIRL_LIST g1 b1 1 1/1\n", i2)
        assert len(dist.entries) == 1

    def test_validate_for_other_instance(self, i2, i3):
        dist = parse_distribution("GIRL_LIST g1 b1 2 1/1", i3)
        with pytest.raises(ValueError, match="does not fit"):
            dist.validate_for(i2)


class TestGenRandomInstance:
    def test_deterministic(self):
        assert gen_random_instance(5, 7) == gen_random_instance(5, 7)

    def test_single_agent(self):
        inst = gen_random_instance(1, 3)
        assert inst.boy_prefs == ((0,),) and inst.girl_prefs == ((0,),)

    def test_complete_by_default(self):
        assert gen_random_instance(6, 0).is_complete

    def test_truncation_bounds(self):
        inst = gen_random_instance(10, 5, completeness=0.7)
        assert all(len(p) <= 7 for p in inst.boy_prefs + inst.girl_prefs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random_instance(0, 1)
        with pytest.raises(ValueError):
            gen_random_instance(3, 1, completeness=0.0)

    def test_golden_bytes(self):
        lines = serialize_instance(gen_random_instance(5, 7)).splitlines()
        assert lines[1] == "b1: g5 g1 g4 g2 g3"

    @given(st.integers(1, 8), st.integers(0, 10**6))
    def test_always_valid(self, n, seed):
        inst = gen_random_instance(n, seed, completeness=0.6)
        assert inst.n_boys == inst.n_girls == n
