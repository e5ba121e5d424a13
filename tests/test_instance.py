"""Instance parsing, shifts, and distributions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from robustmatch import (
    BOY_LIST,
    GIRL_LIST,
    InstanceFormatError,
    PreferenceInstance,
    Shift,
    ShiftDistribution,
    analyze_shift,
    apply_shift,
    build_network,
    build_rotation_poset,
    enumerate_shift_domain,
    parse_distribution,
    parse_instance,
    parse_shift,
    serialize_distribution,
    serialize_instance,
)
from robustmatch import instance as instance_module
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

    @pytest.mark.parametrize("boy_prefs, girl_prefs, message", [
        (((0,),), ((),), "acceptability is not mutual: b1 lists g1 but not vice versa"),
        (((0,), ()), ((0, 1), ()), "acceptability is not mutual: g1 lists b2 but not vice versa"),
        (((0, 3),), ((0,),), "boy 1: listed agent id 3 out of range"),
        (((0,),), ((0, -1),), "girl 1: listed agent id -1 out of range"),
        (((0, 0, 5),), ((0,),), "boy 1: duplicate entry in preference list"),
        (((5, 0, 0),), ((0,),), "boy 1: listed agent id 5 out of range"),
        (((0,), (0, 0)), ((0, 1),), "boy 2: duplicate entry in preference list"),
        (((0,),), ((0.0,),), "girl 1: listed agent id 0.0 is not an integer"),
        (((0.0,),), ((0,),), "boy 1: listed agent id 0.0 is not an integer"),
        ((("a",),), ((0,),), "boy 1: listed agent id 'a' is not an integer"),
        (((0,),), ((0, "b"),), "girl 1: listed agent id 'b' is not an integer"),
        (((0, 0.0),), ((0,),), "boy 1: listed agent id 0.0 is not an integer"),
        (((5, "a"),), ((0,),), "boy 1: listed agent id 5 out of range"),
    ], ids=["boy-unmatched", "girl-unmatched", "too-large", "negative", "duplicate-first",
            "range-first", "second-list", "girl-float", "boy-float", "boy-str", "girl-str",
            "float-equal-to-earlier-id", "range-before-str"])
    def test_constructor_messages(self, boy_prefs, girl_prefs, message):
        """The first offending entry is named, boys' lists before girls'."""
        with pytest.raises(ValueError) as info:
            PreferenceInstance(boy_prefs, girl_prefs)
        assert str(info.value) == message

    def test_parse_wraps_constructor_message(self):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance("2\nb1: g1\nb2:\ng1: b1 b2\ng2:\n")
        assert str(info.value) == "acceptability is not mutual: g1 lists b2 but not vice versa"

    def test_unequal_sides_supported(self):
        text = "2 1\nb1: g1\nb2: g1\ng1: b2 b1\n"
        inst = parse_instance(text)
        assert inst.n_boys == 2 and inst.n_girls == 1
        assert not inst.is_complete
        assert serialize_instance(inst) == text

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

    def test_side_must_be_known(self):
        with pytest.raises(ValueError, match="unknown side 'SIDEWAYS'"):
            Shift("SIDEWAYS", 0, 0, 1)

    @pytest.mark.parametrize("args, message", [
        ((GIRL_LIST, 0.0, 1, 1), "shift agent, mover and window must be integers, got 0.0, 1, 1"),
        ((GIRL_LIST, 0, 1.0, 1), "shift agent, mover and window must be integers, got 0, 1.0, 1"),
        ((BOY_LIST, 0, 1, 1.0), "shift agent, mover and window must be integers, got 0, 1, 1.0"),
        ((BOY_LIST, "b1", 1, 1), "shift agent, mover and window must be integers, got 'b1', 1, 1"),
        ((GIRL_LIST, 0, 1, "2"), "shift agent, mover and window must be integers, got 0, 1, '2'"),
        (("SIDEWAYS", 0.0, 1, 1), "unknown side 'SIDEWAYS'"),
        ((GIRL_LIST, 0, 1, 0.0), "shift agent, mover and window must be integers, got 0, 1, 0.0"),
    ], ids=["float-agent", "float-mover", "float-window", "str-agent", "str-window",
            "side-first", "type-before-window"])
    def test_constructor_messages(self, args, message):
        """A float id would pass the range tests and then index a tuple."""
        with pytest.raises(ValueError) as info:
            Shift(*args)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("probabilities, message", [
        ((0.5, Fraction(1, 2)), "probability 0.5 for GIRL_LIST g1 b1 1 is not an int or a Fraction"),
        ((Fraction(1, 2), "1/2"), "probability '1/2' for BOY_LIST b1 g2 1 is not an int or a Fraction"),
        ((0.5, "1/2"), "probability 0.5 for GIRL_LIST g1 b1 1 is not an int or a Fraction"),
        ((Fraction(3, 2), -1.0), "probability -1.0 for BOY_LIST b1 g2 1 is not an int or a Fraction"),
    ], ids=["float", "str", "first-named", "type-before-sign"])
    def test_constructor_messages(self, probabilities, message):
        """The first offending entry is named."""
        shifts = (Shift(GIRL_LIST, 0, 0, 1), Shift(BOY_LIST, 0, 1, 1))
        with pytest.raises(ValueError) as info:
            ShiftDistribution(tuple(zip(shifts, probabilities)))
        assert str(info.value) == message

    def test_int_probabilities_accepted(self):
        a, b = Shift(GIRL_LIST, 0, 0, 1), Shift(BOY_LIST, 0, 1, 1)
        assert ShiftDistribution(((a, 1), (b, 0))).weights == ((a, 1), (b, 0))

    def test_partial_allowed_with_flag(self):
        shift = Shift(GIRL_LIST, 0, 0, 1)
        dist = ShiftDistribution(((shift, Fraction(1, 3)),), allow_partial=True)
        assert dist.total == Fraction(1, 3)
        with pytest.raises(ValueError, match="sums to 4/3, more than 1"):
            ShiftDistribution(((shift, Fraction(4, 3)),), allow_partial=True)

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


class TestValidateFor:
    """A parsed distribution's shifts were located when they were read, so
    validating it on an equal instance compares the instances only."""

    @pytest.fixture
    def located(self, monkeypatch):
        """The shifts ``mover_position`` is asked to locate from now on."""
        calls = []
        real = instance_module.mover_position

        def counting(inst, shift):
            calls.append(shift)
            return real(inst, shift)

        monkeypatch.setattr(instance_module, "mover_position", counting)
        return calls

    def test_parsed_on_equal_instance_locates_nothing(self, i3, located):
        dist = parse_distribution(serialize_distribution(ShiftDistribution.uniform(i3)), i3)
        located.clear()
        dist.validate_for(i3)
        dist.validate_for(parse_instance(serialize_instance(i3)))  # equal, not the same object
        assert located == []

    def test_constructed_or_other_instance_locates_every_shift(self, i3, located):
        other = gen_random_instance(3, 1)
        assert other != i3
        common = set(enumerate_shift_domain(i3)) & set(enumerate_shift_domain(other))
        shifts = [s for s in enumerate_shift_domain(i3) if s in common]
        assert shifts
        parsed = parse_distribution(
            "".join(f"{s.describe()} 1/{len(shifts)}\n" for s in shifts), i3
        )
        located.clear()
        parsed.validate_for(other)
        assert located == shifts
        located.clear()
        ShiftDistribution(parsed.entries).validate_for(i3)
        assert located == shifts


def _unreduced(n: int, d: int, k: int) -> str:
    return f"{n * k}/{d * k}"


class TestParsedEqualsConstructed:
    """The integer reader must give what the ``Fraction`` constructor gives,
    and both what exact ``Fraction`` arithmetic says."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.builds(gen_random_instance, st.integers(2, 8), st.integers(0, 10**6), st.floats(0.3, 1.0)),
        st.data(),
    )
    def test_equivalence(self, inst, data):
        domain = enumerate_shift_domain(inst)
        chosen = data.draw(st.lists(st.sampled_from(domain), unique=True)) if domain else []
        raw = [data.draw(st.integers(0, 12)) for _ in chosen]
        # a sum off by one in a fifth of the cases, to exercise the sum check
        total = max(sum(raw) + data.draw(st.sampled_from([0, 0, 0, -1, 1])), 1)
        written = [_unreduced(r, total, data.draw(st.integers(1, 6))) for r in raw]
        text = "".join(f"{s.describe()} {w}\n" for s, w in zip(chosen, written))
        entries = tuple((s, Fraction(r, total)) for s, r in zip(chosen, raw))
        expected_total = sum((p for _, p in entries), Fraction(0))
        if chosen and expected_total != 1:
            message = f"distribution sums to {expected_total}, expected exactly 1"
            with pytest.raises(InstanceFormatError) as parsed_exc:
                parse_distribution(text, inst)
            with pytest.raises(ValueError) as constructed_exc:
                ShiftDistribution(entries)
            assert str(parsed_exc.value) == str(constructed_exc.value) == message
            return
        parsed = parse_distribution(text, inst)
        constructed = ShiftDistribution(entries)
        expected_denominator = math.lcm(*(p.denominator for _, p in entries))
        for dist in (parsed, constructed):
            assert dist.entries == entries
            assert dist.total == expected_total
            assert dist.denominator == expected_denominator
        poset = build_rotation_poset(inst)
        a, b = build_network(poset, parsed), build_network(poset, constructed)
        assert (a.shift_edges, a.constant_weight, a.denominator) == (
            b.shift_edges, b.constant_weight, b.denominator)
        serialized = serialize_distribution(parsed)
        assert serialized == serialize_distribution(constructed)
        again = parse_distribution(serialized, inst)
        assert again.entries == entries
        assert serialize_distribution(again) == serialized

    @settings(max_examples=60, deadline=None)
    @given(st.builds(gen_random_instance, st.integers(2, 8), st.integers(0, 10**6)), st.data())
    def test_decimals_beside_unreduced(self, inst, data):
        """Probabilities over 10**places, some written as decimals (``0.25``)
        and the rest as unreduced ``a/b``, read as the fractions they are."""
        domain = enumerate_shift_domain(inst)
        chosen = data.draw(st.lists(st.sampled_from(domain), min_size=1, unique=True))
        places = data.draw(st.integers(1, 3))
        total = 10 ** places
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=len(chosen) - 1,
                                         max_size=len(chosen) - 1)))
        raw = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        written = [
            f"{r // total}.{r % total:0{places}d}" if data.draw(st.booleans())
            else _unreduced(r, total, data.draw(st.integers(1, 6)))
            for r in raw
        ]
        text = "".join(f"{s.describe()} {w}\n" for s, w in zip(chosen, written))
        entries = tuple((s, Fraction(r, total)) for s, r in zip(chosen, raw))
        parsed = parse_distribution(text, inst)
        assert parsed.entries == entries
        assert parsed.denominator == math.lcm(*(p.denominator for _, p in entries))
        assert serialize_distribution(parsed) == serialize_distribution(ShiftDistribution(entries))


I3_TEXT = "3\nb1: g1 g2 g3\nb2: g2 g3 g1\nb3: g3 g1 g2\ng1: b2 b3 b1\ng2: b3 b1 b2\ng3: b1 b2 b3\n"
# g2 lists only b2, so b1 is not on her list
SHORT_TEXT = "2\nb1: g1\nb2: g1 g2\ng1: b1 b2\ng2: b2\n"

# (instance text, distribution text, exact error message, its line number)
DISTRIBUTION_ERRORS = [
    (I3_TEXT, "# c\nGIRL_LIST g1 b1 1/1\n",
     "line 2: expected 'SIDE agent mover k', got 'GIRL_LIST g1 b1'", 2),
    (I3_TEXT, "# c\nGIRL_LIST\n", "line 2: expected 'SIDE agent mover k p_num/p_den'", 2),
    (I3_TEXT, "# c\nGIRL_LIST g1 b1 1 1 1/1\n",
     "line 2: expected 'SIDE agent mover k', got 'GIRL_LIST g1 b1 1 1'", 2),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/2\nSIDEWAYS g1 b1 1 1/2\n", "line 2: unknown side 'SIDEWAYS'", 2),
    (I3_TEXT, "GIRL_LIST g0 b1 1 1/1\n", "line 1: agent 'g0' out of range (1..3)", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b2 g99 1 1/2\n", "line 2: agent 'g99' out of range (1..3)", 2),
    (I3_TEXT, "GIRL_LIST x1 b1 1 1/1\n", "line 1: expected an agent like g3, got 'x1'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 0 1/1\n", "line 1: window must be a positive integer, got '0'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 ² 1/1\n", "line 1: window must be a positive integer, got '²'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 3 1/1\n",
     "line 1: shift window 3 does not fit above position 2 in the list of g1", 1),
    (SHORT_TEXT, "\nGIRL_LIST g2 b1 1 1/1\n", "line 2: shift mover is not on the list of g2", 2),
    (I3_TEXT, "GIRL_LIST\tg1  b1 1/1\n",
     "line 1: expected 'SIDE agent mover k', got 'GIRL_LIST\\tg1  b1'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/0\n", "line 1: bad probability '1/0'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 0/0\n", "line 1: bad probability '0/0'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 ١/١\n", "line 1: bad probability '١/١'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 ١/1\n", "line 1: bad probability '١/1'", 1),
    (I3_TEXT, "GIRL_LIST g1 b1 1 -1/2\nBOY_LIST b1 g2 1 3/2\n",
     "negative probability for GIRL_LIST g1 b1 1", None),
    (I3_TEXT, "GIRL_LIST g1 b1 1 2/4\n", "distribution sums to 1/2, expected exactly 1", None),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/2\nGIRL_LIST g1 b1 1 1/2\n",
     "duplicate shift in distribution: GIRL_LIST g1 b1 1", None),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/3\nBOY_LIST b1 g2 1 1/3\n", "distribution sums to 2/3, expected exactly 1", None),
    (I3_TEXT, "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b1 g2 1 3/2\n", "distribution sums to 2, expected exactly 1", None),
]


def _wide_denominators() -> tuple[str, str, int]:
    """Three probabilities over ~170-bit denominators that share most of
    their factors, as the chain-decay benchmark's do, each written with
    numerator and denominator multiplied by one common factor."""
    big = 3 ** 107
    probabilities = [Fraction(1, 2 * big), Fraction(1, 5 * big)]
    probabilities.append(1 - sum(probabilities))
    shifts = ["GIRL_LIST g1 b1 1", "BOY_LIST b1 g2 1", "BOY_LIST b1 g3 2"]
    common = 7 ** 20
    text = "".join(f"{s} {p.numerator * common}/{p.denominator * common}\n"
                   for s, p in zip(shifts, probabilities))
    serialized = "".join(f"{s} {p.numerator}/{p.denominator}\n" for s, p in zip(shifts, probabilities))
    return text, serialized, math.lcm(*(p.denominator for p in probabilities))


# (distribution text on I3, its serialization, its denominator)
DISTRIBUTIONS_ACCEPTED = [
    ("GIRL_LIST g1 b1 1 1/4\r\nBOY_LIST b2 g1 2 3/4\r\n", "GIRL_LIST g1 b1 1 1/4\nBOY_LIST b2 g1 2 3/4\n", 4),
    ("# café\nGIRL_LIST g1 b1 1 14/28\nBOY_LIST b1 g2 1 1/2\n", "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b1 g2 1 1/2\n", 2),
    ("GIRL_LIST g01 b1 1 1/4\nGIRL_LIST g1 b001 2 1/4\nBOY_LIST b02 g1 2 1/2\n",
     "GIRL_LIST g1 b1 1 1/4\nGIRL_LIST g1 b1 2 1/4\nBOY_LIST b2 g1 2 1/2\n", 4),
    _wide_denominators(),
    ("GIRL_LIST g01 b1 1 1/1\n", "GIRL_LIST g1 b1 1 1/1\n", 1),
    ("GIRL_LIST g1 b01 1 1/1\n", "GIRL_LIST g1 b1 1 1/1\n", 1),
    ("GIRL_LIST g1 b1 1 0.5\nBOY_LIST b1 g2 1 1/2\n", "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b1 g2 1 1/2\n", 2),
    ("GIRL_LIST g1 b1 1 1\n", "GIRL_LIST g1 b1 1 1/1\n", 1),
    ("GIRL_LIST g1 b1 1 2/4\nBOY_LIST b1 g2 1 2/4\n", "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b1 g2 1 1/2\n", 2),
    ("GIRL_LIST g1 b1 1 +1/2\nBOY_LIST b1 g2 1 1e-1\nBOY_LIST b1 g3 2 4/10\n",
     "GIRL_LIST g1 b1 1 1/2\nBOY_LIST b1 g2 1 1/10\nBOY_LIST b1 g3 2 2/5\n", 10),
    ("GIRL_LIST g1 b1 1 0/5\nBOY_LIST b1 g2 1 1/1\n", "GIRL_LIST g1 b1 1 0/1\nBOY_LIST b1 g2 1 1/1\n", 1),
]

# (instance text, exact error message, its line number)
INSTANCE_ERRORS = [
    ("1\nb01: g1\ng1: b1\n", "line 2: expected list for b1, got 'b01'", 2),
    ("1\nb1: g1\ng1 b1\n", "line 3: missing ':' in preference line", 3),
    ("2\nb1: g1 g01\nb2: g1 g2\ng1: b1 b2\ng2: b2 b1\n", "line 2: duplicate entry g01", 2),
    ("2\nb1: g1 g2\nb2: g2 g2\ng1: b1 b2\ng2: b2 b1\n", "line 3: duplicate entry g2", 3),
    ("2\nb1: g1 g2\nb2: g1 g3\ng1: b1 b2\ng2: b2 b1\n", "line 3: agent 'g3' out of range (1..2)", 3),
    ("2\nb1: g1 g2\nb2: g1 g2\ng1: b1 b0\ng2: b2 b1\n", "line 4: agent 'b0' out of range (1..2)", 4),
    ("2\nb1: g1 g2\nb2: g1 g2\ng1: b1 b١\ng2: b2 b1\n", "line 4: expected an agent like b3, got 'b١'", 4),
]


class TestReaderMessages:
    """Every reader message and line number, pinned exactly."""

    @pytest.mark.parametrize("inst_text, text, message, line", DISTRIBUTION_ERRORS)
    def test_distribution_error(self, inst_text, text, message, line):
        with pytest.raises(InstanceFormatError) as exc:
            parse_distribution(text, parse_instance(inst_text))
        assert (str(exc.value), exc.value.line) == (message, line)

    @pytest.mark.parametrize("text, serialized, denominator", DISTRIBUTIONS_ACCEPTED)
    def test_distribution_accepted(self, i3, text, serialized, denominator):
        dist = parse_distribution(text, i3)
        assert serialize_distribution(dist) == serialized
        assert dist.denominator == denominator
        assert dist.total == 1

    def test_underscore_probability_rejected(self, i3):
        """``Fraction`` accepts "1_0" from Python 3.11 on; the format does not, on any version."""
        with pytest.raises(InstanceFormatError) as exc:
            parse_distribution("# c\nGIRL_LIST g1 b1 1 1_0/1_0\n", i3)
        assert (str(exc.value), exc.value.line) == ("line 2: bad probability '1_0/1_0'", 2)

    @pytest.mark.parametrize("text, message, line", INSTANCE_ERRORS)
    def test_instance_error(self, text, message, line):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert (str(exc.value), exc.value.line) == (message, line)

    def test_leading_zero_agent_accepted(self):
        inst = parse_instance("2\nb1: g01 g2\nb2: g1 g2\ng1: b1 b2\ng2: b2 b1\n")
        assert inst.boy_prefs == ((0, 1), (0, 1)) and inst.girl_prefs == ((0, 1), (1, 0))


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
