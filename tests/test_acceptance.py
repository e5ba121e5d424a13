"""End-to-end acceptance checks, one test per criterion.

Each test sweeps seeded random instances and validates one contract of the
solver against brute force: the rotation-poset bijection (a1), lattice laws
(a2), per-shift structure (a3), exact optimality (a4), the succinct poset of
all robust matchings (a5), incomplete lists (a6), and scale (a7).  The
per-instance work is cached in InstanceStudy objects shared across tests.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property

from robustmatch import ShiftDistribution, apply_shift, boy_optimal, join, meet
from robustmatch.cli import gen_random_instance
from robustmatch.flow import (
    build_network,
    certificate_violations,
    extract_closed_set,
    solve,
    solve_pipeline,
)
from robustmatch.instance import (
    GIRL_LIST,
    enumerate_shift_domain,
    reversed_instance,
)
from robustmatch.matching import unmatched_agents
from robustmatch.oracle import destabilized_set, enumerate_stable_bruteforce, oracle_poset
from robustmatch.representation import build_robust_poset, enumerate_robust, sublattice_poset
from robustmatch.rotations import (
    build_rotation_poset,
    closed_set_to_matching,
    enumerate_closed_masks,
)
from robustmatch.shift_analysis import (
    DISJOINT,
    PROPER,
    analyze_shift,
    characterize_MAB,
    find_component_rotations,
)
from robustmatch.verification import posets_isomorphic

from test_instance import reversed_shift
from test_shift_analysis import best_members

COMPLETE = [(2 + (i % 6), i) for i in range(200)]
INCOMPLETE = [(2 + (i % 6), 1000 + i) for i in range(200)]
N_RANDOM_DISTS = 20


class InstanceStudy:
    """Everything the acceptance checks need about one instance, computed once."""

    def __init__(self, inst):
        self.inst = inst

    @cached_property
    def poset(self):
        return build_rotation_poset(self.inst)

    @cached_property
    def masks(self):
        return enumerate_closed_masks(self.poset)

    @cached_property
    def matchings(self):
        return [closed_set_to_matching(self.poset, m) for m in self.masks]

    @cached_property
    def mask_index(self):
        return {m: j for j, m in enumerate(self.masks)}

    @cached_property
    def stable(self):
        return enumerate_stable_bruteforce(self.inst)

    @cached_property
    def domain(self):
        return enumerate_shift_domain(self.inst)

    @cached_property
    def analyses(self):
        return {s: analyze_shift(self.poset, self.inst, s) for s in self.domain}

    @cached_property
    def destab(self):
        """shift -> indices (into matchings) destabilized, by direct re-testing."""
        return {s: destabilized_set(self.inst, s, self.matchings) for s in self.domain}

    @cached_property
    def reversed_pair(self):
        rinst = reversed_instance(self.inst)
        return rinst, build_rotation_poset(rinst)

    @cached_property
    def cover_edges(self):
        """(lower index, upper index, rotation) for every lattice cover edge."""
        edges = []
        for j, m in enumerate(self.masks):
            for r in range(self.poset.size):
                if not (m >> r) & 1 and self.poset.pred_closure[r] & ~m == 0:
                    edges.append((j, self.mask_index[m | (1 << r)], r))
        return edges


_STUDIES: dict[tuple[int, int, float], InstanceStudy] = {}


def study_for(n: int, seed: int, completeness: float = 1.0) -> InstanceStudy:
    key = (n, seed, completeness)
    if key not in _STUDIES:
        _STUDIES[key] = InstanceStudy(gen_random_instance(n, seed, completeness))
    return _STUDIES[key]


# ---------------------------------------------------------------------------
# per-criterion checks, shared between the complete and incomplete sweeps

def check_bijection(study: InstanceStudy):
    generated = set(study.matchings)
    assert len(generated) == len(study.masks)
    assert generated == set(study.stable)
    assert posets_isomorphic(study.poset, oracle_poset(study.inst)) is None


def check_lattice_laws(study: InstanceStudy):
    stable = study.stable
    if len(stable) > 25:
        return
    inst = study.inst
    idx = {m: j for j, m in enumerate(stable)}

    def table(op):
        rows = []
        for a in stable:
            row = []
            for b in stable:
                r = op(inst, a, b, validate=False)
                assert r in idx, "meet/join left the stable set"
                row.append(idx[r])
            rows.append(row)
        return rows

    mt, jt = table(meet), table(join)
    k = len(stable)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                assert mt[a][jt[b][c]] == jt[mt[a][b]][mt[a][c]]
                assert jt[a][mt[b][c]] == mt[jt[a][b]][jt[a][c]]


def check_structure(study: InstanceStudy):
    inst, poset = study.inst, study.poset
    masks, matchings = study.masks, study.matchings
    rinst, rposet = study.reversed_pair
    for shift in study.domain:
        analysis = study.analyses[shift]
        direct = study.destab[shift]

        # (a) both closed-form tests agree with re-testing stability directly
        for j, mask in enumerate(masks):
            broken = j in direct
            assert analysis.destabilizes_mask(mask) == broken
            assert characterize_MAB(inst, shift, matchings[j]) == broken

        # (b) at most one rotation crosses into the destabilized set, and one out
        entry = {r for lo, hi, r in study.cover_edges if lo not in direct and hi in direct}
        exit_ = {r for lo, hi, r in study.cover_edges if lo in direct and hi not in direct}
        assert len(entry) <= 1 and len(exit_) <= 1
        if analysis.status == PROPER:
            assert entry == ({analysis.rho_in} if analysis.rho_in is not None else set())
            assert exit_ == ({analysis.rho_out} if analysis.rho_out is not None else set())
        else:
            assert not entry and not exit_

        broken_set = {matchings[j] for j in direct}

        # (c) the poset fragment generates exactly the destabilized matchings
        if analysis.status == PROPER:
            fragment = sublattice_poset(poset, analysis)
            boy_best, girl_best = best_members(fragment)
            assert set(enumerate_robust(fragment)) == broken_set
            assert boy_best in broken_set and girl_best in broken_set

        # (d) the destabilized matchings are closed under meet and join
        for m1 in broken_set:
            for m2 in broken_set:
                assert meet(inst, m1, m2, validate=False) in broken_set
                assert join(inst, m1, m2, validate=False) in broken_set

        # (e) the two component rotations are ordered whenever both exist
        if shift.side == GIRL_LIST:
            r1, r2, _ = find_component_rotations(poset, inst, shift)
            assert r1 is None or r2 is None or poset.leq(r1, r2)
        else:
            r1, r2, _ = find_component_rotations(rposet, rinst, reversed_shift(shift))
            assert r1 is None or r2 is None or rposet.leq(r1, r2)


def random_dist(study: InstanceStudy, seed: int) -> ShiftDistribution:
    """Reproducible rational distribution over the instance's full shift domain."""
    if not study.domain:
        return ShiftDistribution(())
    rng = random.Random(seed)
    weights = [rng.randrange(10) for _ in study.domain]
    if not sum(weights):
        weights[0] = 1
    total = sum(weights)
    return ShiftDistribution(
        tuple((s, Fraction(w, total)) for s, w in zip(study.domain, weights) if w)
    )


def dists_for(study: InstanceStudy, base_seed: int) -> list[ShiftDistribution]:
    uniform = ShiftDistribution.uniform(study.inst)
    return [uniform] + [random_dist(study, base_seed + k) for k in range(N_RANDOM_DISTS)]


def solve_case(study: InstanceStudy, dist: ShiftDistribution):
    network = build_network(study.poset, dist)
    return network, solve(network)


def mask_objectives(study: InstanceStudy, dist: ShiftDistribution) -> list[Fraction]:
    obj = [Fraction(0)] * len(study.masks)
    for shift, p in dist.entries:
        for j in study.destab[shift]:
            obj[j] += p
    return obj


def check_optimality(study: InstanceStudy, dists):
    for dist in dists:
        network, flow = solve_case(study, dist)
        obj = mask_objectives(study, dist)
        best = min(obj)
        assert flow.flow_value + Fraction(network.constant_weight, network.denominator) == best
        mask = extract_closed_set(network, flow)
        assert obj[study.mask_index[mask]] == best


def check_representation(study: InstanceStudy, dists):
    for dist in dists:
        network, flow = solve_case(study, dist)
        robust = enumerate_robust(build_robust_poset(network, flow))
        assert len(robust) == len(set(robust))
        obj = mask_objectives(study, dist)
        best = min(obj)
        winners = {study.matchings[j] for j, o in enumerate(obj) if o == best}
        assert set(robust) == winners
        for m1 in winners:
            for m2 in winners:
                assert meet(study.inst, m1, m2, validate=False) in winners
                assert join(study.inst, m1, m2, validate=False) in winners


def check_constant_loss(study: InstanceStudy):
    inst = study.inst
    base_unmatched = unmatched_agents(inst, study.stable[0])
    uniform = ShiftDistribution.uniform(inst)
    p = dict(uniform.entries)
    disjoint_mass = Fraction(0)
    everything = frozenset(range(len(study.masks)))
    for shift in study.domain:
        analysis = study.analyses[shift]
        shifted = apply_shift(inst, shift)
        if unmatched_agents(shifted, boy_optimal(shifted)) != base_unmatched:
            assert analysis.status == DISJOINT
        if analysis.status == DISJOINT:
            assert study.destab[shift] == everything
            disjoint_mass += p[shift]
    if study.domain:
        network, _ = solve_case(study, uniform)
        assert Fraction(network.constant_weight, network.denominator) == disjoint_mass


# ---------------------------------------------------------------------------
# the seven criteria

def test_a1_rotation_poset_bijection():
    start = time.monotonic()
    for n, seed in COMPLETE:
        check_bijection(study_for(n, seed))
    assert time.monotonic() - start < 60.0


def test_a2_lattice_laws():
    for n, seed in COMPLETE:
        check_lattice_laws(study_for(n, seed))


def test_a3_shift_structure():
    for n, seed in COMPLETE:
        if n <= 6:
            check_structure(study_for(n, seed))


def test_a4_exact_optimality():
    for n, seed in COMPLETE:
        if n <= 6:
            study = study_for(n, seed)
            check_optimality(study, dists_for(study, seed * 1000))


def test_a5_robust_representation():
    for n, seed in COMPLETE:
        if n <= 6:
            study = study_for(n, seed)
            check_representation(study, dists_for(study, seed * 1000))


def test_a6_incomplete_lists():
    for n, seed in INCOMPLETE:
        study = study_for(n, seed, 0.7)
        check_bijection(study)
        check_lattice_laws(study)
        first = unmatched_agents(study.inst, study.stable[0])
        for m in study.stable:
            assert unmatched_agents(study.inst, m) == first
        if n <= 6:
            check_structure(study)
            dists = dists_for(study, seed * 1000)
            check_optimality(study, dists)
            check_representation(study, dists)
            check_constant_loss(study)


def test_a7_scale_smoke():
    inst = gen_random_instance(50, 4242)
    dist = ShiftDistribution.uniform(inst)
    start = time.monotonic()
    run = solve_pipeline(inst, dist)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert certificate_violations(run.network, run.flow, run.closed_mask) == []

    inst = gen_random_instance(100, 4242)
    dist = ShiftDistribution.uniform(inst)
    assert dist.denominator == 990_000
    start = time.monotonic()
    run = solve_pipeline(inst, dist)
    assert time.monotonic() - start < 60.0
    assert certificate_violations(run.network, run.flow, run.closed_mask) == []
