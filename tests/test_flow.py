"""Closure network construction, exact max-flow, and optimal-cut extraction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from robustmatch import (
    DISJOINT,
    GIRL_LIST,
    PROPER,
    Matching,
    Shift,
    ShiftDistribution,
    analyze_shift,
    build_network,
    build_rotation_poset,
    closed_set_to_matching,
    enumerate_shift_domain,
    parse_distribution,
    parse_instance,
    parse_shift,
    robust_matching,
    solve_pipeline,
)
from robustmatch import flow
from robustmatch.cli import gen_random_instance
from robustmatch.flow import (
    ClosureNetwork,
    certificate_violations,
    dump_ip,
    dump_network,
    extract_closed_set,
    solve,
)
from robustmatch.oracle import oracle_argmin, oracle_objective

from test_instance import random_instances
from test_matching import M0_I2, M0_I3, MZ_I3
from test_rotations import UNEQUAL_SIDES, cyclic_blocks
from test_shift_analysis import run_weights

I3_POINT = "GIRL_LIST g1 b1 1"


def point_dist(inst, text):
    from robustmatch import parse_shift

    return ShiftDistribution(((parse_shift(text, inst), Fraction(1)),))


def chain_network(i3) -> ClosureNetwork:
    """I3's two-rotation chain with F-edges on every interval, bottleneck 1/10.

    Nodes: R0, R1, S=2, T=3; the three closed sets {}, {R0}, {R0,R1} pay
    1/10, 6/10, 3/10 respectively, so the optimum is 1/10 at the empty set.
    """
    return ClosureNetwork(
        poset=build_rotation_poset(i3),
        hasse_edges=((2, 0), (0, 1), (1, 3)),
        shift_edges=(
            (0, 2, 1),   # separated exactly by S = {}
            (1, 0, 6),   # separated exactly by S = {R0}
            (3, 1, 3),   # separated exactly by S = {R0, R1}
        ),
        constant_weight=0,
        denominator=10,
    )


def objective_of_mask(analyses, dist: ShiftDistribution, mask: int) -> Fraction:
    """Breaking probability of the matching with closed set `mask`, from analyses alone."""
    total = Fraction(0)
    for analysis, (_, p) in zip(analyses, dist.entries):
        if analysis.destabilizes_mask(mask):
            total += p
    return total


class TestBuildNetwork:
    def test_i3_point_distribution(self, i3):
        poset = build_rotation_poset(i3)
        dist = point_dist(i3, I3_POINT)
        network = build_network(poset, dist)
        assert network.n_rotations == 2
        assert network.denominator == 1
        assert network.shift_edges == ((1, 0, 1),)
        assert set(network.hasse_edges) == {(0, 1), (network.bottom, 0), (1, network.top)}
        assert network.constant_weight == 0

    def test_parallel_edges_merged(self, i3):
        poset = build_rotation_poset(i3)
        shifts = [s for s in enumerate_shift_domain(i3)]
        dist = ShiftDistribution(tuple((s, Fraction(1, len(shifts))) for s in shifts))
        network = build_network(poset, dist)
        endpoints = [(u, v) for u, v, _ in network.shift_edges]
        assert len(endpoints) == len(set(endpoints))

    def test_disjoint_goes_to_constant(self):
        from test_shift_analysis import UNIQUE

        poset = build_rotation_poset(UNIQUE)
        dist = point_dist(UNIQUE, "GIRL_LIST g1 b3 1")
        network = build_network(poset, dist)
        assert network.shift_edges == ()
        assert (network.constant_weight, network.denominator) == (1, 1)

    def test_uniform_over_other_instance_rejected(self, i2, i3):
        poset = build_rotation_poset(i3)
        with pytest.raises(ValueError, match="another instance"):
            build_network(poset, ShiftDistribution.uniform(i2))
        # every shift of I2 fits I3, so the parsed one goes from I3 to I2
        parsed = parse_distribution("GIRL_LIST g1 b1 2 1/1", i3)
        with pytest.raises(ValueError, match="does not fit"):
            build_network(build_rotation_poset(i2), parsed)
        constructed = ShiftDistribution(((Shift(GIRL_LIST, 0, 0, 3), Fraction(1)),))
        with pytest.raises(ValueError, match="does not fit"):
            build_network(poset, constructed)

    def test_node_names(self, i3):
        poset = build_rotation_poset(i3)
        dist = point_dist(i3, I3_POINT)
        network = build_network(poset, dist)
        assert network.node_name(0) == "R0"
        assert network.node_name(network.bottom) == "S"
        assert network.node_name(network.top) == "T"


def reference_network(poset, analyses, dist) -> ClosureNetwork:
    """The per-shift construction: one analysis per distribution entry, and
    probabilities summed as Fractions one shift at a time, then written as
    integers over ``dist.denominator``."""
    assert len(analyses) == len(dist.entries)
    bottom, top = poset.size, poset.size + 1
    constant = Fraction(0)
    merged: dict[tuple[int, int], Fraction] = {}
    for analysis, (shift, p) in zip(analyses, dist.entries):
        assert analysis.shift == shift
        if analysis.status == DISJOINT:
            constant += p
        elif analysis.status == PROPER:
            u = top if analysis.rho_out is None else analysis.rho_out
            v = bottom if analysis.rho_in is None else analysis.rho_in
            merged[(u, v)] = merged.get((u, v), Fraction(0)) + p
    hasse = [(u, v) for v in range(poset.size) for u in poset.hasse_preds[v]]
    hasse += [(bottom, v) for v in poset.minimal_ids] + [(v, top) for v in poset.maximal_ids]

    def weight(q: Fraction) -> int:
        scaled = q * dist.denominator
        assert scaled.denominator == 1
        return scaled.numerator

    shift_edges = tuple((u, v, weight(c)) for (u, v), c in sorted(merged.items()))
    return ClosureNetwork(poset, tuple(hasse), shift_edges, weight(constant), dist.denominator)


def sub_distribution(inst, rng) -> ShiftDistribution:
    """Random rational weights on a random part of the domain, summing to at most 1."""
    chosen = [s for s in enumerate_shift_domain(inst) if rng.random() < 0.6]
    weights = [rng.randrange(7) for _ in chosen]
    total = sum(weights) + 1 + rng.randrange(3)
    return ShiftDistribution(
        tuple((s, Fraction(w, total)) for s, w in zip(chosen, weights)), allow_partial=True
    )


def decay_sample(inst, count, seed) -> ShiftDistribution:
    """``count`` distinct shifts drawn with the seed, each with probability
    proportional to 1/window, the shape of the chain-decay benchmark input."""
    chosen = random.Random(seed).sample(enumerate_shift_domain(inst), count)
    total = sum(Fraction(1, s.window) for s in chosen)
    return ShiftDistribution(tuple((s, Fraction(1, s.window) / total) for s in chosen))


class TestNetworkMatchesPerShiftReference:
    """build_network (runs of windows, integer weights) equals the per-shift network."""

    @staticmethod
    def check(inst, dist):
        poset = build_rotation_poset(inst)
        network = build_network(poset, dist)
        analyses = [analyze_shift(poset, inst, shift) for shift, _ in dist.weights]
        reference = reference_network(poset, analyses, dist)
        assert network.n_rotations == reference.n_rotations
        assert network.hasse_edges == reference.hasse_edges
        assert network.shift_edges == reference.shift_edges
        assert network.constant_weight == reference.constant_weight
        assert network.denominator == reference.denominator

    @given(random_instances(max_n=8, completeness=st.sampled_from([1.0, 0.9, 0.7, 0.5, 0.3])))
    @settings(max_examples=120, deadline=None)
    def test_uniform_random_instances(self, inst):
        self.check(inst, ShiftDistribution.uniform(inst))

    def test_uniform_i2_i3(self, i2, i3):
        self.check(i2, ShiftDistribution.uniform(i2))
        self.check(i3, ShiftDistribution.uniform(i3))

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_uniform_unequal_sides(self, text):
        inst = parse_instance(text)
        self.check(inst, ShiftDistribution.uniform(inst))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_uniform_cyclic_blocks(self, sizes, seed):
        inst = cyclic_blocks(sizes, seed)
        self.check(inst, ShiftDistribution.uniform(inst))

    @pytest.mark.parametrize("size", range(5, 13))
    def test_uniform_single_cyclic_block(self, size):
        """Every list position is a stable partner, so each mover has as many
        of the owner's partners above it as its position, and usually a fixed
        endpoint of its own."""
        inst = cyclic_blocks([size], size)
        self.check(inst, ShiftDistribution.uniform(inst))

    @given(random_instances(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_explicit_sub_distributions(self, inst, rng):
        self.check(inst, sub_distribution(inst, rng))

    @pytest.mark.parametrize("size", range(5, 13))
    def test_explicit_single_cyclic_block(self, size):
        inst = cyclic_blocks([size], size)
        self.check(inst, sub_distribution(inst, random.Random(size)))

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=3), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_explicit_mixed_cyclic_blocks(self, sizes, seed, rng):
        inst = cyclic_blocks(sizes, seed)
        self.check(inst, sub_distribution(inst, rng))

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_explicit_unequal_sides(self, text):
        inst = parse_instance(text)
        self.check(inst, sub_distribution(inst, random.Random(len(text))))

    def test_explicit_decay_sample_on_cyclic_60(self):
        inst = cyclic_blocks([60], 60)
        self.check(inst, decay_sample(inst, 2000, 60))

    def test_empty_distribution(self, i3):
        self.check(i3, ShiftDistribution(()))


class TestNetworkMatchesRunWalk:
    """At sizes the per-shift reference is too slow for, build_network equals
    the same merge fed by the run-by-run walk of the whole domain."""

    @pytest.mark.parametrize("make", [
        lambda: cyclic_blocks([60], 60),
        lambda: gen_random_instance(100, 4242),
        lambda: gen_random_instance(60, 7, 0.5),
    ], ids=["cyclic-60", "random-100", "random-60-half"])
    def test_large_instances(self, make, monkeypatch):
        inst = make()
        poset = build_rotation_poset(inst)
        dist = ShiftDistribution.uniform(inst)
        network = build_network(poset, dist)
        monkeypatch.setattr(flow, "uniform_weights", run_weights)
        assert build_network(poset, dist) == network


class TestSolve:
    def test_chain_bottleneck(self, i3):
        network = chain_network(i3)
        flow = solve(network)
        assert flow.flow_value == Fraction(1, 10)
        assert extract_closed_set(network, flow) == 0

    def test_empty_f_gives_zero_flow(self, i3):
        poset = build_rotation_poset(i3)
        dist = ShiftDistribution(())
        network = build_network(poset, dist)
        flow = solve(network)
        assert flow.flow_value == 0
        assert extract_closed_set(network, flow) == 0
        assert closed_set_to_matching(poset, 0) == M0_I3

    def test_unavoidable_edge(self):
        network = ClosureNetwork(
            poset=build_rotation_poset(gen_random_instance(1, 0)), hasse_edges=(),
            shift_edges=((1, 0, 3),), constant_weight=0, denominator=7,
        )
        assert network.n_rotations == 0
        flow = solve(network)
        assert flow.flow_value == Fraction(3, 7)

    def test_flow_before_extraction_must_be_maximum(self, i3):
        network = chain_network(i3)
        flow = solve(network)
        flow.cap[:] = flow.original  # roll the residual back to an empty flow
        with pytest.raises(ValueError, match="not maximum"):
            extract_closed_set(network, flow)


class TestOneDenominator:
    def test_capacities_are_weights_over_the_distribution_denominator(self, i3):
        """|D| = 18 on I3, three times the lcm (6) of the merged probabilities' denominators."""
        run = solve_pipeline(i3, ShiftDistribution.uniform(i3))
        assert run.network.denominator == run.dist.denominator == 18
        assert run.flow.scale == 18
        assert [w for _, _, w in run.network.shift_edges] == [3, 6, 3, 3, 3]
        assert [run.flow.original[e] for e in run.flow.shift_eidx] == [3, 6, 3, 3, 3]
        assert run.flow.value_scaled == 6
        assert run.flow.flow_value == Fraction(1, 3)


class TestCertificate:
    def test_clean_on_solved_instances(self, i3):
        run = solve_pipeline(i3, ShiftDistribution.uniform(i3))
        assert certificate_violations(run.network, run.flow, run.closed_mask) == []

    def test_detects_suboptimal_cut(self, i3):
        run = solve_pipeline(i3, point_dist(i3, I3_POINT))
        # {R0} pays the full edge probability instead of the optimum 0
        violations = certificate_violations(run.network, run.flow, 0b01)
        assert violations

    @pytest.mark.parametrize("shifts, mask, violation", [
        # {R1} without its predecessor R0
        ((I3_POINT,), 0b10, "unbounded edge R0->R1 crosses the cut: set not closed"),
        # the flow T -> R0 -> R1 -> S climbs the cover R0 -> R1 out of {R0}
        (("GIRL_LIST g1 b1 2", "BOY_LIST b1 g3 2"), 0b01, "unbounded edge R0->R1 carries 1/2 against the cut"),
        # the flow T -> R1 -> R0 -> S leaves {R1} by its shift edge R1 -> R0
        (("GIRL_LIST g1 b3 1", I3_POINT, "BOY_LIST b1 g2 1"), 0b10, "shift edge R1->R0 crosses back into the cut with flow 1/3"),
    ])
    def test_reports_a_cut_the_flow_contradicts(self, i3, shifts, mask, violation):
        """A mask that is wrong on purpose, against a solved network."""
        dist = ShiftDistribution(tuple((parse_shift(text, i3), Fraction(1, len(shifts))) for text in shifts))
        run = solve_pipeline(i3, dist)
        assert violation in certificate_violations(run.network, run.flow, mask)


class TestPipeline:
    def test_i3_point_distribution_ties(self, i3):
        solution = solve_pipeline(i3, point_dist(i3, I3_POINT)).solution
        assert solution.objective == 0
        assert solution.matching in (M0_I3, MZ_I3)

    def test_i2_point_distribution(self, i2):
        solution = robust_matching(i2, point_dist(i2, "GIRL_LIST g1 b1 1"))
        assert solution.closed_set == ()
        assert solution.matching == M0_I2
        assert solution.objective == 0

    def test_i2_uniform_matches_oracle(self, i2):
        dist = ShiftDistribution.uniform(i2)
        solution = robust_matching(i2, dist)
        best, winners = oracle_argmin(i2, dist)
        assert solution.objective == best
        assert solution.matching in winners

    def test_constant_loss_included(self):
        from test_shift_analysis import UNIQUE

        solution = robust_matching(UNIQUE, point_dist(UNIQUE, "GIRL_LIST g1 b3 1"))
        assert solution.flow_value == 0
        assert solution.constant_loss == 1
        assert solution.objective == 1

    def test_single_agent_instance(self):
        inst = gen_random_instance(1, 0)
        solution = robust_matching(inst, ShiftDistribution(()))
        assert solution.matching == Matching([(0, 0)])
        assert solution.objective == 0

    def test_empty_domain_gives_zero_objective(self):
        inst = parse_instance("2\nb1: g1\nb2: g2\ng1: b1\ng2: b2\n")
        dist = ShiftDistribution.uniform(inst)
        assert dist.entries == ()
        assert solve_pipeline(inst, dist).solution.objective == 0

    def test_uniform_builds_no_per_shift_object(self, monkeypatch):
        inst = gen_random_instance(12, 4242)
        dist = ShiftDistribution.uniform(inst)
        built = []

        def no_analysis(*args):
            raise AssertionError("per-shift analysis on the uniform path")

        original_new = Shift.__new__

        def count_shift(cls, *fields):
            built.append(fields)
            return original_new(cls, *fields)

        monkeypatch.setattr("robustmatch.flow.analyze_shift", no_analysis)
        monkeypatch.setattr(Shift, "__new__", count_shift)
        run = solve_pipeline(inst, dist)
        assert built == []
        assert run.solution.objective > 0

    def test_objective_equals_mask_accounting(self, i3):
        dist = ShiftDistribution.uniform(i3)
        run = solve_pipeline(i3, dist)
        analyses = [analyze_shift(run.poset, i3, shift) for shift, _ in dist.weights]
        assert run.solution.objective == objective_of_mask(analyses, dist, run.closed_mask)

    @given(random_instances(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_added_shifts(self, inst, rng):
        domain = enumerate_shift_domain(inst)
        if not domain:
            return
        chosen = [s for s in domain if rng.random() < 0.5]
        split = rng.randrange(len(chosen) + 1)
        total = 2 * len(domain)
        small = ShiftDistribution(
            tuple((s, Fraction(1, total)) for s in chosen[:split]), allow_partial=True
        )
        large = ShiftDistribution(
            tuple((s, Fraction(1, total)) for s in chosen), allow_partial=True
        )
        small_obj = solve_pipeline(inst, small).solution.objective
        large_obj = solve_pipeline(inst, large).solution.objective
        assert small_obj <= large_obj

    @given(random_instances(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_uniform_objective_matches_oracle(self, inst):
        dist = ShiftDistribution.uniform(inst)
        run = solve_pipeline(inst, dist)
        best, winners = oracle_argmin(inst, dist)
        assert run.solution.objective == best
        assert run.solution.matching in winners
        assert oracle_objective(inst, dist, run.solution.matching) == best


class TestDumps:
    def test_network_dump(self, i3):
        run = solve_pipeline(i3, point_dist(i3, I3_POINT))
        text = dump_network(run.network)
        assert "NODES R0 R1 S T" in text
        assert "SHIFT R1 -> R0 cap 1" in text
        assert "CONSTANT 0" in text

    def test_ip_dump(self, i3):
        run = solve_pipeline(i3, point_dist(i3, I3_POINT))
        text = dump_ip(run.network)
        assert text.startswith("min 1 x0")
        assert "x0 >= y_R1 - y_R0" in text
        assert "y_S = 0, y_T = 1" in text
