"""Tests for the succinct poset of all robust matchings."""

from __future__ import annotations

import dataclasses
import random
from bisect import insort
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from robustmatch import (
    ShiftDistribution,
    analyze_shift,
    build_robust_poset,
    enumerate_robust,
    enumerate_shift_domain,
    join,
    meet,
    parse_distribution,
    parse_instance,
    parse_shift,
    robust_members,
    solve_pipeline,
    sublattice_poset,
)
from robustmatch.flow import ClosureNetwork, build_network, extract_closed_set, solve
from robustmatch.oracle import oracle_argmin
from robustmatch.representation import Sublattice, _strong_components, condense
from robustmatch.rotations import (
    build_rotation_poset,
    closed_set_to_matching,
    enumerate_closed_masks,
    ids_to_mask,
    mask_to_ids,
)
from robustmatch.shift_analysis import DISJOINT, PROPER

from test_cli import FIXTURES
from test_flow import point_dist, sub_distribution
from test_instance import random_instances
from test_matching import M0_I2, M0_I3, M1_I3, MZ_I2, MZ_I3
from test_rotations import (
    DEEP_CHAIN,
    chain_prefixes,
    counting_checks,
    cyclic_blocks,
    lattice_instances,
    recursive_closed_subsets,
    rotation_rich_instances,
)


def robust_of(inst, dist):
    run = solve_pipeline(inst, dist)
    return build_robust_poset(run.network, run.flow), run


class TestBuildRobustPoset:
    def test_point_dist_merges_the_whole_chain(self, i3):
        robust, run = robust_of(i3, point_dist(i3, "GIRL_LIST g1 b1 1"))
        assert robust.mandatory == ()
        assert robust.excluded == ()
        assert robust.free_elements == ((0, 1),)
        assert robust.edges == ()
        assert set(enumerate_robust(robust)) == {M0_I3, MZ_I3}
        assert run.solution.objective == 0

    def test_empty_distribution_keeps_every_rotation_free(self, i3):
        robust, _ = robust_of(i3, ShiftDistribution(()))
        assert robust.mandatory == ()
        assert robust.excluded == ()
        assert robust.free_elements == ((0,), (1,))
        assert robust.edges == ((0, 1),)
        assert set(enumerate_robust(robust)) == {M0_I3, M1_I3, MZ_I3}

    def test_mandatory_rotation(self, i2):
        robust, run = robust_of(i2, point_dist(i2, "BOY_LIST b1 g2 1"))
        assert robust.mandatory == (0,)
        assert robust.excluded == ()
        assert robust.free_elements == ()
        assert enumerate_robust(robust) == [MZ_I2]
        assert run.solution.matching == MZ_I2

    def test_excluded_rotation(self, i2):
        robust, run = robust_of(i2, point_dist(i2, "GIRL_LIST g1 b1 1"))
        assert robust.mandatory == ()
        assert robust.excluded == (0,)
        assert robust.free_elements == ()
        assert enumerate_robust(robust) == [M0_I2]
        assert run.solution.matching == M0_I2


class TestEnumerateRobustCost:
    def test_at_most_one_check_per_rotation(self, monkeypatch):
        """Enumerating the robust set checks each of its rotations for
        exposure at most once, and no rotation outside it."""
        inst = cyclic_blocks([4, 4, 4], 1)
        dist = parse_distribution((FIXTURES / "three-blocks.dist").read_text(encoding="utf-8"), inst)
        robust, _ = robust_of(inst, dist)
        assert robust.mandatory and any(len(e) > 1 for e in robust.free_elements)
        calls = counting_checks(monkeypatch)
        matchings = enumerate_robust(robust)
        in_robust_set = robust.mandatory + tuple(v for element in robust.free_elements for v in element)
        assert len(matchings) == 36
        assert len(calls) == len(set(calls))
        assert set(calls) <= {robust.poset.rotations[v] for v in in_robust_set}


class TestManualNetworks:
    def chain_with_poset(self, i3, shift_edges, denominator):
        return ClosureNetwork(
            poset=build_rotation_poset(i3),
            hasse_edges=((2, 0), (0, 1), (1, 3)),
            shift_edges=shift_edges,
            constant_weight=0,
            denominator=denominator,
        )

    def test_unavoidable_shift_edge_flows_through(self, i3):
        network = self.chain_with_poset(i3, ((3, 2, 1),), 2)
        flow = solve(network)
        assert flow.flow_value == Fraction(1, 2)
        robust = build_robust_poset(network, flow)
        assert robust.mandatory == ()
        assert robust.excluded == ()
        assert robust.free_elements == ((0,), (1,))
        assert robust.edges == ((0, 1),)

    def test_rejects_non_maximum_flow(self, i3):
        network = self.chain_with_poset(i3, ((3, 2, 1),), 2)
        flow = solve(network)
        flow.cap[:] = flow.original  # roll the residual back to an empty flow
        with pytest.raises(ValueError, match="not maximum"):
            build_robust_poset(network, flow)


class TestRobustMembers:
    def test_selects_by_downward_closed_element_sets(self, i3):
        robust, _ = robust_of(i3, ShiftDistribution(()))
        assert robust_members(robust, []) == M0_I3
        assert robust_members(robust, [0]) == M1_I3
        assert robust_members(robust, [0, 1]) == MZ_I3

    def test_rejects_sets_that_are_not_downward_closed(self, i3):
        robust, _ = robust_of(i3, ShiftDistribution(()))
        with pytest.raises(ValueError, match="downward closed"):
            robust_members(robust, [1])

    def test_destabilized_set_names_the_sublattice(self):
        """R4 -> R5 on 3 cyclic blocks of 4 leaves 6 free rotations; the
        first two, R0 and R1, are a chain."""
        inst = parse_instance((FIXTURES / "three-blocks.txt").read_text(encoding="utf-8"))
        poset = build_rotation_poset(inst)
        analysis = analyze_shift(poset, inst, parse_shift("GIRL_LIST g1 b5 1", inst))
        sublattice = sublattice_poset(poset, analysis)
        assert sublattice.edges[0] == (0, 1)
        assert robust_members(sublattice, []) == closed_set_to_matching(poset, ids_to_mask(sublattice.mandatory))
        with pytest.raises(ValueError, match="^element set is not downward closed in the sublattice$"):
            robust_members(sublattice, [1])

    @pytest.mark.parametrize("ids", [[5], [-1], [0, 2]])
    def test_rejects_unknown_ids(self, i3, ids):
        robust, _ = robust_of(i3, ShiftDistribution(()))
        assert len(robust.free_elements) == 2
        with pytest.raises(ValueError, match="unknown ids"):
            robust_members(robust, ids)

    @pytest.mark.parametrize("ids", [[1, 5], [-1, 1], [1, 2]])
    def test_unknown_ids_are_reported_before_closure(self, i3, ids):
        robust, _ = robust_of(i3, ShiftDistribution(()))
        assert len(robust.free_elements) == 2
        with pytest.raises(ValueError, match="unknown ids"):
            robust_members(robust, ids)

    def test_members_include_mandatory(self, i2):
        robust, _ = robust_of(i2, point_dist(i2, "BOY_LIST b1 g2 1"))
        assert robust.member_masks() == [0b1]
        assert robust_members(robust, []) == MZ_I2


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(random_instances(max_n=5))
    def test_enumerates_exactly_the_optimal_matchings(self, inst):
        dist = ShiftDistribution.uniform(inst)
        run = solve_pipeline(inst, dist)
        robust = build_robust_poset(run.network, run.flow)
        matchings = enumerate_robust(robust)
        assert len(matchings) == len(set(matchings))
        assert run.solution.matching in matchings
        _, winners = oracle_argmin(inst, dist)
        assert set(matchings) == set(winners)

    @settings(max_examples=40, deadline=None)
    @given(random_instances(max_n=5))
    def test_robust_set_is_closed_under_meet_and_join(self, inst):
        dist = ShiftDistribution.uniform(inst)
        run = solve_pipeline(inst, dist)
        matchings = set(enumerate_robust(build_robust_poset(run.network, run.flow)))
        for a in matchings:
            for b in matchings:
                assert meet(inst, a, b) in matchings
                assert join(inst, a, b) in matchings


def sparse_distribution(inst, rng) -> ShiftDistribution:
    """Up to three weighted shifts: optima tie often, so robust posets have free elements."""
    domain = list(enumerate_shift_domain(inst))
    chosen = rng.sample(domain, min(len(domain), rng.randrange(4)))
    weights = [1 + rng.randrange(3) for _ in chosen]
    total = sum(weights) + rng.randrange(3)
    return ShiftDistribution(
        tuple((s, Fraction(w, total)) for s, w in zip(chosen, weights)), allow_partial=True
    )


def element_set_rotations(sublattice: Sublattice, element_mask: int) -> int:
    """The rotation mask of the member a closed set of free elements selects."""
    return ids_to_mask(sublattice.mandatory) | ids_to_mask(
        r for i in mask_to_ids(element_mask) for r in sublattice.free_elements[i]
    )


class TestMemberMasks:
    @given(lattice_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_order_matches_recursive_reference(self, inst, rng):
        robust, _ = robust_of(inst, rng.choice([sub_distribution, sparse_distribution])(inst, rng))
        n = len(robust.free_elements)
        preds = [ids_to_mask(i for i, j in robust.edges if j == v) for v in range(n)]
        expected = recursive_closed_subsets(preds, range(n))
        assert robust.member_masks() == [element_set_rotations(robust, m) for m in expected]
        assert enumerate_robust(robust) == [robust_members(robust, mask_to_ids(m)) for m in expected]

    def test_deep_chain(self):
        """Needs no recursion: 2,000 two-rotation free elements in a chain,
        above one mandatory rotation, give 2,001 prefixes."""
        robust = Sublattice(
            poset=None,
            mandatory=(0,),
            excluded=(),
            free_elements=tuple((2 * i + 1, 2 * i + 2) for i in range(DEEP_CHAIN)),
            edges=tuple((i, i + 1) for i in range(DEEP_CHAIN - 1)),
        )
        assert robust.member_masks() == chain_prefixes(range(2 * DEEP_CHAIN + 1))[1::2]


def closure(start, step) -> set[int]:
    """Every node a walk along step from start reaches, start included."""
    seen, frontier = {start}, [start]
    while frontier:
        for d in step[frontier.pop()]:
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    return seen


def reference_robust_poset(network: ClosureNetwork, flow) -> Sublattice:
    """Test-only reference for build_robust_poset, sharing no graph code
    with it.

    Condenses the whole residual graph, endpoints included, into classes of
    mutual reachability, each named by its least node, and finds the
    mandatory and excluded components by walking the condensation DAG.
    """
    n = network.n_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, v in enumerate(flow.to):
        if flow.cap[e] > 0:
            adj[flow.to[e ^ 1]].append(v)
    reach = [closure(u, adj) for u in range(n)]
    comp = [min(v for v in reach[u] if u in reach[v]) for u in range(n)]
    labels = sorted(set(comp))
    members = {c: [r for r in range(network.n_rotations) if comp[r] == c] for c in labels}
    dag_succ: dict[int, set[int]] = {c: set() for c in labels}
    dag_pred: dict[int, set[int]] = {c: set() for c in labels}
    for u in range(n):
        for v in adj[u]:
            if comp[u] != comp[v]:
                dag_succ[comp[u]].add(comp[v])
                dag_pred[comp[v]].add(comp[u])
    reaches_bottom = closure(comp[network.bottom], dag_pred)
    from_top = closure(comp[network.top], dag_succ)
    assert comp[network.top] not in reaches_bottom
    free_set = {c for c in labels if c not in reaches_bottom and c not in from_top}
    pending = {c: sum(1 for d in dag_pred[c] if d in free_set) for c in free_set}
    ready = sorted((min(members[c]), c) for c in free_set if pending[c] == 0)
    order: list[int] = []
    while ready:
        _, c = ready.pop(0)
        order.append(c)
        for d in sorted(dag_succ[c]):
            if d in free_set:
                pending[d] -= 1
                if pending[d] == 0:
                    insort(ready, (min(members[d]), d))
    assert len(order) == len(free_set)
    position = {c: i for i, c in enumerate(order)}
    return Sublattice(
        poset=network.poset,
        mandatory=tuple(sorted(r for c in reaches_bottom for r in members[c])),
        excluded=tuple(sorted(r for c in from_top for r in members[c])),
        free_elements=tuple(tuple(sorted(members[c])) for c in order),
        edges=tuple(sorted((position[c], position[d]) for c in free_set for d in dag_succ[c] if d in free_set)),
    )


def condensation_fields(robust: Sublattice):
    return robust.mandatory, robust.excluded, robust.free_elements, robust.edges


class TestCondensationMatchesReference:
    """build_robust_poset (both ends read off the residual arcs) equals the
    condensation by mutual reachability, and its mandatory rotations are
    the solver's own cut."""

    @staticmethod
    def check(inst, dist) -> Sublattice:
        run = solve_pipeline(inst, dist)
        robust = build_robust_poset(run.network, run.flow)
        assert condensation_fields(robust) == condensation_fields(reference_robust_poset(run.network, run.flow))
        assert robust.mandatory == mask_to_ids(extract_closed_set(run.network, run.flow))
        return robust

    def test_cyclic_blocks(self):
        rng = random.Random(5)
        with_edges = 0
        for seed in range(60):
            inst = cyclic_blocks([rng.randint(2, 5) for _ in range(rng.randint(1, 3))], seed)
            robust = self.check(inst, sparse_distribution(inst, rng))
            with_edges += bool(robust.edges)
        assert with_edges > 0

    @given(lattice_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_random_instances(self, inst, rng):
        self.check(inst, sparse_distribution(inst, rng))


def reference_sublattice(poset, analysis) -> Sublattice:
    """Test-only reference: the mask-and-cover construction sublattice_poset
    replaced.  Mandatory is everything at or below the entry rotation,
    excluded everything at or above the exit rotation, each other rotation
    is a singleton element in ascending id, and the covers between them are
    the edges."""
    mandatory = excluded = 0
    if analysis.rho_in is not None:
        mandatory = poset.pred_closure[analysis.rho_in] | (1 << analysis.rho_in)
    if analysis.rho_out is not None:
        excluded = ids_to_mask(v for v in range(poset.size) if poset.leq(analysis.rho_out, v))
    free = [v for v in range(poset.size) if not ((mandatory | excluded) >> v) & 1]
    index = {r: i for i, r in enumerate(free)}
    return Sublattice(
        poset=poset,
        mandatory=mask_to_ids(mandatory),
        excluded=mask_to_ids(excluded),
        free_elements=tuple((r,) for r in free),
        edges=tuple(sorted((index[u], index[v]) for u in free for v in poset.hasse_succs[u] if v in index)),
    )


class TestCondense:
    def test_rejects_a_top_that_reaches_the_bottom(self, i3):
        """An arc from the top to the bottom, directly on a poset of size 0,
        or through the chain R0 < R1 with R1 forced in and R0 forced out."""
        empty = build_rotation_poset(parse_instance("1\nb1: g1\ng1: b1\n"))
        assert empty.size == 0
        chain = build_rotation_poset(i3)
        for poset, succ in ((empty, [(), (0,)]), (chain, [(1,), (2,), (), (0,)])):
            with pytest.raises(ValueError, match="^the top endpoint reaches the bottom endpoint"):
                condense(poset, succ)

    def test_forced_ends_need_no_mandatory_mask(self, i3):
        """R1 -> S forces R0 in through the cover R0 -> R1; T -> R0 alone
        bars R1 too."""
        poset = build_rotation_poset(i3)
        forced = condense(poset, [(1,), (2,), (), ()])
        assert (forced.mandatory, forced.excluded, forced.free_elements) == ((0, 1), (), ())
        barred = condense(poset, [(1,), (), (), (0,)])
        assert (barred.mandatory, barred.excluded, barred.free_elements) == ((), (0, 1), ())


class TestStrongComponents:
    @pytest.mark.parametrize("seed", range(60))
    def test_classes_of_mutual_reachability(self, seed):
        """Random digraphs of 0 to 12 nodes, with a self-loop, a repeated
        arc and an isolated last node whenever there are nodes to hold
        them."""
        rng = random.Random(seed)
        n = seed % 13
        live = max(n - 1, 0)  # node n - 1 stays isolated
        arcs = [(rng.randrange(live), rng.randrange(live)) for _ in range(rng.randrange(3 * live + 1))]
        if live:
            u = rng.randrange(live)
            arcs += [(u, u), *arcs[:1]]
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            succ[u].append(v)
            pred[v].append(u)
        count, comp = _strong_components(succ, pred, [True] * n)
        reach = [closure(u, succ) for u in range(n)]
        assert sorted(set(comp)) == list(range(count))
        for u in range(n):
            for v in range(n):
                assert (comp[u] == comp[v]) == (v in reach[u] and u in reach[v]), (u, v, arcs)


class TestDestabilizedSetMatchesReference:
    """sublattice_poset (the condensation of the Hasse arcs and two arcs to
    the endpoints) equals the mask-and-cover construction on every PROPER
    and DISJOINT shift, and a DISJOINT shift's set is the whole lattice."""

    @staticmethod
    def check(inst) -> int:
        """The number of PROPER shifts checked; a sublattice depends only on
        its two rotations, so each distinct pair is built once."""
        poset = build_rotation_poset(inst)
        proper, seen = 0, set()
        for shift in enumerate_shift_domain(inst):
            analysis = analyze_shift(poset, inst, shift)
            ends = (analysis.status, analysis.rho_in, analysis.rho_out)
            if analysis.status == PROPER:
                proper += 1
            if ends in seen or analysis.status not in (PROPER, DISJOINT):
                continue
            seen.add(ends)
            sublattice = sublattice_poset(poset, analysis)
            assert condensation_fields(sublattice) == condensation_fields(reference_sublattice(poset, analysis))
            if analysis.status == DISJOINT:
                assert sublattice.member_masks() == enumerate_closed_masks(poset)
        return proper

    @given(lattice_instances())
    @settings(max_examples=60, deadline=None)
    def test_lattice_instances(self, inst):
        self.check(inst)

    def test_cyclic_blocks(self):
        rng = random.Random(9)
        instances = [cyclic_blocks([rng.randint(2, 5) for _ in range(rng.randint(1, 3))], seed) for seed in range(30)]
        assert sum(map(self.check, instances)) > 0

    def test_rotation_rich_random_instances(self):
        assert sum(self.check(inst) for inst in rotation_rich_instances()) > 0


class TestScaledWeights:
    """Dinic's choices depend only on which residual capacities are positive,
    so k times every weight over k times the denominator gives the same cut."""

    @given(lattice_instances(), st.randoms(use_true_random=False), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_same_residual_pattern_cut_and_poset(self, inst, rng, k):
        network = build_network(build_rotation_poset(inst), sparse_distribution(inst, rng))
        scaled = dataclasses.replace(
            network,
            shift_edges=tuple((u, v, k * w) for u, v, w in network.shift_edges),
            constant_weight=k * network.constant_weight,
            denominator=k * network.denominator,
        )
        flow, scaled_flow = solve(network), solve(scaled)
        assert [c > 0 for c in scaled_flow.cap] == [c > 0 for c in flow.cap]
        assert scaled_flow.value_scaled == k * flow.value_scaled
        assert scaled_flow.flow_value == flow.flow_value
        assert extract_closed_set(scaled, scaled_flow) == extract_closed_set(network, flow)
        assert condensation_fields(build_robust_poset(scaled, scaled_flow)) == condensation_fields(
            build_robust_poset(network, flow)
        )
