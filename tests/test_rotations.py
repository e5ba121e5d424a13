"""Rotations, the rotation poset, and the closed-set correspondence."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from robustmatch import (
    BOY_LIST,
    GIRL_LIST,
    Matching,
    PreferenceInstance,
    Rotation,
    analyze_shift,
    boy_optimal,
    build_rotation_poset,
    closed_set_to_matching,
    enumerate_closed_masks,
    enumerate_shift_domain,
    girl_optimal,
    is_stable,
    matching_to_closed_set,
    parse_instance,
    sublattice_poset,
)
from robustmatch.cli import gen_random_instance
from robustmatch.instance import boy_name, girl_name, reversed_instance
from robustmatch.oracle import _apply_cycle, _exposed_cycles, enumerate_stable_bruteforce
import robustmatch.rotations as rotations_module
from robustmatch.rotations import closed_subsets, ids_to_mask, is_closed_mask, mask_to_ids
from robustmatch.shift_analysis import PROPER, _mover_crossing

from test_instance import random_instances
from test_matching import M0_I3, M1_I3, MZ_I3

RHO_I2 = Rotation(((0, 0), (1, 1)))
RHO_A = Rotation(((0, 0), (1, 1), (2, 2)))
RHO_B = Rotation(((0, 1), (1, 2), (2, 0)))

# taller than Python's default recursion limit (1000)
DEEP_CHAIN = 2000


def recursive_closed_subsets(preds, ids) -> list[int]:
    """Test-only reference: the recursive enumerator closed_subsets replaced.

    Emits a set, then grows it by each admissible ids[at:] in turn; the
    output order of every closed-set enumerator in the package is pinned to it.
    """
    out: list[int] = []

    def grow(mask: int, start: int):
        out.append(mask)
        for at in range(start, len(ids)):
            v = ids[at]
            if not (mask >> v) & 1 and (preds[at] & ~mask) == 0:
                grow(mask | (1 << v), at + 1)

    grow(0, 0)
    return out


def reference_movement_index(poset):
    """Test-only reference: the four movement dicts the partner chains replaced.

    post_pair[(b, g)] and pre_pair[(b, g)] are the rotations that create and
    remove the pair; below_girl[(b, g)] is the rotation after which b's
    partner ranks below g on his list, and above_boy[(g, b)] the one after
    which g's partner ranks at or above b on hers.  No key has two rotations.
    """
    inst = poset.inst
    post_pair: dict = {}
    pre_pair: dict = {}
    below_girl: dict = {}
    above_boy: dict = {}

    def claim(table: dict, key, rid: int):
        assert key not in table, f"{key} happens in two rotations"
        table[key] = rid

    for rid, rot in enumerate(poset.rotations):
        for (b, g), (b_next, g_next) in zip(rot.pairs, rot.pairs[1:] + rot.pairs[:1]):
            claim(pre_pair, (b, g), rid)
            claim(post_pair, (b, g_next), rid)
            # b drops from g to g_next past the girls at [pos(g), pos(g_next));
            # g_next rises from b_next to b past the boys at [pos(b), pos(b_next))
            for p in range(inst.boy_rank[b][g], inst.boy_rank[b][g_next]):
                claim(below_girl, (b, inst.boy_prefs[b][p]), rid)
            for q in range(inst.girl_rank[g_next][b], inst.girl_rank[g_next][b_next]):
                claim(above_boy, (g_next, inst.girl_prefs[g_next][q]), rid)
    return post_pair, pre_pair, below_girl, above_boy


def reference_eliminate(inst, matching, rotation):
    """Test-only reference: one rotation eliminated from a Matching, reading
    partners off it and checking every pair (present, next girl is the
    successor girl) before building a new one."""

    def successor_girl(b):
        start = inst.boy_rank[b][matching.girl_of(b)] + 1
        for g2 in inst.boy_prefs[b][start:]:
            holder = matching.boy_of(g2)
            if holder is None:
                return None
            if inst.girl_rank[g2][b] < inst.girl_rank[g2][holder]:
                return g2
        return None

    replaced = dict(matching.pairs)
    r = len(rotation.pairs)
    for i, (b, g) in enumerate(rotation.pairs):
        if replaced.get(b) != g:
            raise ValueError(f"rotation pair ({boy_name(b)},{girl_name(g)}) is not in the matching")
        expected = rotation.pairs[(i + 1) % r][1]
        if successor_girl(b) != expected:
            raise ValueError(f"rotation is not exposed: {girl_name(expected)} is not the successor girl of {boy_name(b)}")
    for b, g in rotation.post_pairs:
        replaced[b] = g
    return Matching(replaced.items())


def reference_closed_set_to_matching(poset, mask):
    """Test-only reference: one reference_eliminate per rotation of the set,
    in ascending id order, from the boy-optimal matching."""
    m = poset.boy_opt
    for v in mask_to_ids(mask):
        m = reference_eliminate(poset.inst, m, poset.rotations[v])
    return m


def counting_checks(monkeypatch) -> list:
    """Record every rotation that closed_set_to_matching checks for exposure."""
    calls = []
    original = rotations_module._check_exposed

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(rotations_module, "_check_exposed", counted)
    return calls


def reference_discovery(inst):
    """Test-only reference: rotation discovery by the oracle's exchange
    cycles, which share no code with the rotations module.  From the
    boy-optimal matching it finds the exposed cycles from scratch and applies
    one to a new Matching per step, always the one with the smallest leading
    boy.

    Returns (rotations, last matching, boy chains, girl chains), a chain being
    agent -> (slot positions, boundary ids) read off the partners the path
    gives the agent: a boy's in path order, a girl's reversed.
    """
    m = boy_optimal(inst)
    partners = {("b", b): [g] for b, g in m.pairs} | {("g", g): [b] for b, g in m.pairs}
    moves = {key: [None] for key in partners}
    rotations = []
    while exposed := _exposed_cycles(inst, m):
        pairs, new_girl = exposed[0]
        rotations.append(Rotation(pairs))
        m = _apply_cycle(m, pairs, new_girl)
        for b, _ in pairs:
            for key, partner in ((("b", b), new_girl[b]), (("g", new_girl[b]), b)):
                partners[key].append(partner)
                moves[key].append(len(rotations) - 1)
    chains = {"b": {}, "g": {}}
    for (side, a), seen in partners.items():
        rank = (inst.boy_rank if side == "b" else inst.girl_rank)[a]
        bd = moves[(side, a)] + [None]
        if side == "g":
            seen, bd = seen[::-1], bd[::-1]
        chains[side][a] = (tuple(rank[x] for x in seen), tuple(bd))
    return rotations, m, chains["b"], chains["g"]


def reference_pred_closure(inst, rotations) -> list[int]:
    """Test-only reference: each rotation's strict predecessors as a bitmask,
    found without the precedence rules and with the oracle's exchange cycles.
    The rotations that do not follow u form the largest closed set avoiding
    u, which applying every exposed cycle but u reaches from the boy-optimal
    matching; u precedes v exactly when v stays out of it."""
    ids = {rot.pairs: v for v, rot in enumerate(rotations)}
    follows = []  # follows[u]: u and every rotation after it
    for avoided in rotations:
        m, reached = boy_optimal(inst), 0
        while exposed := [cycle for cycle in _exposed_cycles(inst, m) if cycle[0] != avoided.pairs]:
            pairs, new_girl = exposed[0]
            m = _apply_cycle(m, pairs, new_girl)
            reached |= 1 << ids[pairs]
        follows.append(((1 << len(rotations)) - 1) & ~reached)
    return [sum(1 << u for u in range(len(rotations)) if u != v and (follows[u] >> v) & 1)
            for v in range(len(rotations))]


def reference_succ_closure(pred_closure) -> list[int]:
    """Test-only reference: each id's strict successors, the formula of the
    successor closure the poset used to keep."""
    succ_closure = [0] * len(pred_closure)
    for v, mask in enumerate(pred_closure):
        for u in mask_to_ids(mask):
            succ_closure[u] |= 1 << v
    return succ_closure


def chain_pair_rotations(poset, girl: bool, agent: int, q: int):
    """(creating, removing) rotation of the pair of the agent with the partner
    at position q on the agent's list, read off the agent's chain: a boy holds
    slot k from boundary k to k+1, a girl from boundary k+1 to k."""
    positions, bd = (poset.girl_chains if girl else poset.boy_chains).get(agent, ((), ()))
    if q not in positions:
        return None, None
    k = positions.index(q)
    return (bd[k + 1], bd[k]) if girl else (bd[k], bd[k + 1])


def cyclic_blocks(sizes, seed, relabel=True) -> PreferenceInstance:
    """Disjoint cyclic Latin-square blocks (I3 is the one block of size 3),
    complete lists, agents relabelled by the seed (or, with relabel False,
    each block's agents numbered consecutively).

    Every agent lists its own block first, then the rest in seeded order, so
    a block of size m adds a chain of m - 1 rotations: random instances of
    this size rarely have more than two or three rotations.
    """
    rng = random.Random(seed)
    n = sum(sizes)
    boys, girls = (rng.sample(range(n), n), rng.sample(range(n), n)) if relabel else (range(n), range(n))
    boy_prefs, girl_prefs = [None] * n, [None] * n
    base = 0
    for m in sizes:
        for i in range(m):
            own_girls = [girls[base + (i + j) % m] for j in range(m)]
            own_boys = [boys[base + (i + 1 + t) % m] for t in range(m)]
            boy_prefs[boys[base + i]] = own_girls + rng.sample([g for g in girls if g not in own_girls], n - m)
            girl_prefs[girls[base + i]] = own_boys + rng.sample([b for b in boys if b not in own_boys], n - m)
        base += m
    return PreferenceInstance.from_lists(boy_prefs, girl_prefs)


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


def lattice_instances():
    """Random instances, complete and incomplete, and many-rotation block instances."""
    blocks = st.builds(cyclic_blocks, st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10**6))
    return st.one_of(random_instances(max_n=7), blocks)


def rotation_rich_instances():
    """24 random instances at n = 20-30, every fourth with lists cut to 70%."""
    rng = random.Random(12)
    for seed in range(24):
        yield gen_random_instance(rng.randint(20, 30), seed, 0.7 if seed % 4 == 0 else 1.0)


def chain_prefixes(ids) -> list[int]:
    """The closed sets of a chain through ids, shortest first."""
    return [ids_to_mask(ids[:k]) for k in range(len(ids) + 1)]


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

    def test_unique_matching_means_empty_poset(self):
        inst = parse_instance("2\nb1: g1 g2\nb2: g1 g2\ng1: b1 b2\ng2: b1 b2\n")
        poset = build_rotation_poset(inst)
        assert poset.size == 0
        assert poset.boy_opt == poset.girl_opt

    def test_twenty_blocks_of_twenty(self):
        """20 disjoint cyclic blocks of 20: 380 rotations in 20 separate
        chains.  A discovery that rescans every boy after each elimination
        takes seconds here instead of a fraction of one."""
        inst = cyclic_blocks([20] * 20, 5)
        poset = build_rotation_poset(inst)
        assert poset.size == 380
        # a boy's block is the set of girls he lists first
        block = {b: frozenset(prefs[:20]) for b, prefs in enumerate(inst.boy_prefs)}
        rotation_block = []
        for rot in poset.rotations:
            assert len({block[b] for b, _ in rot.pairs}) == 1
            rotation_block.append(block[rot.pairs[0][0]])
        for v in range(poset.size):
            assert len(poset.hasse_preds[v]) <= 1 and len(poset.hasse_succs[v]) <= 1
            assert all(rotation_block[u] == rotation_block[v] for u in mask_to_ids(poset.pred_closure[v]))
        paths = []
        for v in poset.minimal_ids:
            path = [v]
            while poset.hasse_succs[path[-1]]:
                path.append(poset.hasse_succs[path[-1]][0])
            paths.append(path)
        assert sorted(map(len, paths)) == [19] * 20
        assert len({rotation_block[path[0]] for path in paths}) == 20
        assert closed_set_to_matching(poset, poset.full_mask) == girl_optimal(inst)

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
        assert {b: tuple(inst.boy_prefs[b][p] for p in pos) for b, (pos, _) in poset.boy_chains.items()} == {
            b: tuple(sorted(gs, key=inst.boy_rank[b].get)) for b, gs in boy_partners.items()
        }
        assert {g: tuple(inst.girl_prefs[g][p] for p in pos) for g, (pos, _) in poset.girl_chains.items()} == {
            g: tuple(sorted(bs, key=inst.girl_rank[g].get)) for g, bs in girl_partners.items()
        }


class TestPartnerChainsMatchMovementDicts:
    """Every lookup of the four movement dicts equals the one read off a
    partner chain, for every (agent, list position)."""

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        post_pair, pre_pair, below_girl, above_boy = reference_movement_index(poset)
        for girl, lists in ((False, inst.boy_prefs), (True, inst.girl_prefs)):
            for positions, bd in (poset.girl_chains if girl else poset.boy_chains).values():
                assert len(bd) == len(positions) + 1
                assert bd[0] is None and bd[-1] is None and None not in bd[1:-1]
            for a, prefs in enumerate(lists):
                for q, x in enumerate(prefs):
                    pair = (x, a) if girl else (a, x)
                    assert chain_pair_rotations(poset, girl, a, q) == (post_pair.get(pair), pre_pair.get(pair))
                    # a as the mover on x's list: the rotation after which a's
                    # partner crosses x's position on a's own list
                    side, swept = (BOY_LIST, above_boy) if girl else (GIRL_LIST, below_girl)
                    assert _mover_crossing(poset, inst, side, x, a)[1] == swept.get((a, x))

    @given(random_instances(max_n=8, completeness=st.sampled_from([1.0, 0.9, 0.7, 0.5, 0.3])))
    @settings(max_examples=120, deadline=None)
    def test_random_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))

    def test_cyclic_blocks(self):
        rng = random.Random(6)
        for seed in range(30):
            self.check(cyclic_blocks([rng.randint(1, 6) for _ in range(rng.randint(1, 3))], seed))


class TestDiscoveryMatchesEliminateLoop:
    """build_rotation_poset, found by Gusfield's walk and then renumbered,
    gives the rotations that the oracle's exchange-cycle loop finds the same
    ids, the same chains on both sides, and the order found without its
    rules; the oracle (reference_discovery, reference_pred_closure) is the
    referee and shares no code with the rotations module.  A destabilized
    sublattice's excluded set is the old successor closure."""

    @staticmethod
    def check(inst, every_shift=True):
        poset = build_rotation_poset(inst)
        rotations, last, boy_chains, girl_chains = reference_discovery(inst)
        assert poset.rotations == tuple(rotations)
        assert last == poset.girl_opt == girl_optimal(inst) and poset.boy_opt == boy_optimal(inst)
        assert boy_chains == poset.boy_chains
        assert girl_chains == poset.girl_chains
        pred_closure = reference_pred_closure(inst, rotations)
        assert poset.pred_closure == tuple(pred_closure)
        assert poset.hasse_preds == tuple(
            tuple(u for u in mask_to_ids(mask) if not any((pred_closure[w] >> u) & 1 for w in mask_to_ids(mask)))
            for mask in pred_closure
        )
        if not every_shift:
            return
        succ_closure = reference_succ_closure(pred_closure)
        for shift in enumerate_shift_domain(inst):
            analysis = analyze_shift(poset, inst, shift)
            if analysis.status == PROPER and analysis.rho_out is not None:
                fragment = sublattice_poset(poset, analysis)
                assert ids_to_mask(fragment.excluded) == succ_closure[analysis.rho_out] | 1 << analysis.rho_out

    @given(random_instances(max_n=8, completeness=st.floats(0.3, 1.0)))
    @settings(max_examples=80, deadline=None)
    def test_random_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))

    def test_cyclic_blocks(self):
        rng = random.Random(8)
        for seed in range(30):
            self.check(cyclic_blocks([rng.randint(1, 6) for _ in range(rng.randint(1, 3))], seed))

    def test_rotation_rich_random_instances(self):
        """At n = 20-30 many random complete instances expose two rotations
        at once, which pins the order among them; at n <= 8 few do.  The
        shift domain (about 26,000 shifts at n = 30) is left to the small
        inputs above."""
        for inst in rotation_rich_instances():
            self.check(inst, every_shift=False)


class TestStepsThroughThePoset:
    """At every stable matching, the rotations exposed there are the ids
    outside its closed set whose predecessors all lie inside, and adding one
    of them to the set steps to the matching that the oracle's exchange of
    the same cycle gives."""

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        for mask in enumerate_closed_masks(poset):
            m = closed_set_to_matching(poset, mask)
            exposed = [v for v in range(poset.size) if not (mask >> v) & 1 and not poset.pred_closure[v] & ~mask]
            cycles = dict(_exposed_cycles(inst, m))
            assert sorted(poset.rotations[v].pairs for v in exposed) == list(cycles)
            for v in exposed:
                pairs = poset.rotations[v].pairs
                assert closed_set_to_matching(poset, mask | 1 << v) == _apply_cycle(m, pairs, cycles[pairs])

    @given(lattice_instances())
    @settings(max_examples=80, deadline=None)
    def test_lattice_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))


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

    def test_rotation_not_exposed_raises(self, i3):
        """Every rotation applied is checked, even when the poset's order is
        wrong: a set that only looks closed raises instead of returning."""
        poset = build_rotation_poset(i3)
        # with no precedence, {RHO_B} looks closed, but (b1,g2) is not in M0
        unordered = dataclasses.replace(poset, pred_closure=(0, 0), hasse_preds=((), ()), hasse_succs=((), ()))
        with pytest.raises(ValueError, match="not in the matching"):
            closed_set_to_matching(unordered, 0b10)
        # both pairs are in M0, but g3 is not b1's successor girl; applied
        # unchecked, the rotation would give an unstable matching
        wrong = dataclasses.replace(poset, rotations=(Rotation(((0, 0), (2, 2))), RHO_B))
        assert not is_stable(i3, Matching([(0, 2), (1, 1), (2, 0)]))
        with pytest.raises(ValueError, match="not exposed"):
            closed_set_to_matching(wrong, 0b01)

    def test_ids_beyond_the_poset_are_not_closed(self, i3):
        poset = build_rotation_poset(i3)
        for mask in (0b100, 0b111, 1 << 70 | 0b1, -1, -0b100):
            assert not is_closed_mask(poset, mask)

    def test_i2_enumeration(self, i2):
        poset = build_rotation_poset(i2)
        assert enumerate_closed_masks(poset) == [0, 1]

    def test_i3_enumeration(self, i3):
        poset = build_rotation_poset(i3)
        assert sorted(enumerate_closed_masks(poset)) == [0b00, 0b01, 0b11]

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_cyclic_blocks_lattice(self, sizes, seed):
        inst = cyclic_blocks(sizes, seed)
        poset = build_rotation_poset(inst)
        assert poset.size == sum(m - 1 for m in sizes)
        assert len(enumerate_closed_masks(poset)) == math.prod(sizes)

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


UNMATCHED = Path(__file__).parent / "fixtures" / "unmatched.txt"


class TestMatchingToClosedSet:
    """matching_to_closed_set inverts closed_set_to_matching on every
    closed set, and rejects each matching that is not stable with the one
    message."""

    def check_round_trip(self, inst):
        poset = build_rotation_poset(inst)
        for mask in enumerate_closed_masks(poset):
            assert matching_to_closed_set(poset, closed_set_to_matching(poset, mask)) == mask

    @given(lattice_instances())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_lattice_instances(self, inst):
        self.check_round_trip(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_round_trip_unequal_sides(self, text):
        self.check_round_trip(parse_instance(text))

    @pytest.mark.parametrize("sizes, seed", [([3, 4], 2), ([4, 4, 4], 0), ([2, 5], 7), ([6], 3)],
                             ids=["3+4", "4+4+4", "2+5", "6"])
    def test_round_trip_cyclic_blocks(self, sizes, seed):
        self.check_round_trip(cyclic_blocks(sizes, seed))

    def check_rejected(self, inst, girl_of: dict):
        with pytest.raises(ValueError) as info:
            matching_to_closed_set(build_rotation_poset(inst), Matching(girl_of.items()))
        assert str(info.value) == "matching is not a stable matching of this instance"

    def test_unstable_perfect_matching(self):
        """Two boys of different blocks swap partners: each girl left
        behind prefers her own block's boy to her new one."""
        inst = cyclic_blocks([3, 4], 2, relabel=False)
        girl_of = dict(boy_optimal(inst).pairs)
        girl_of[0], girl_of[3] = girl_of[3], girl_of[0]
        assert not is_stable(inst, Matching(girl_of.items()))
        self.check_rejected(inst, girl_of)

    def test_chain_boy_unmatched(self):
        inst = parse_instance(UNMATCHED.read_text(encoding="utf-8"))
        girl_of = dict(boy_optimal(inst).pairs)
        del girl_of[5]  # b6 has two stable partners
        assert not is_stable(inst, Matching(girl_of.items()))
        self.check_rejected(inst, girl_of)

    def test_pair_off_the_boy_list(self):
        """b2 moves from g9 to g8, who is free in every stable matching
        and not on his list."""
        inst = parse_instance(UNMATCHED.read_text(encoding="utf-8"))
        girl_of = dict(boy_optimal(inst).pairs)
        assert girl_of[1] == 8 and 7 not in inst.boy_rank[1] and 7 not in girl_of.values()
        girl_of[1] = 7
        self.check_rejected(inst, girl_of)

    def test_extra_pair_for_a_boy_unmatched_in_every_stable_matching(self):
        """b3 has no chain; the extra pair (b3,g2) takes a girl free in
        every stable matching."""
        inst = parse_instance(UNMATCHED.read_text(encoding="utf-8"))
        girl_of = dict(boy_optimal(inst).pairs)
        assert 2 not in build_rotation_poset(inst).boy_chains and 1 not in girl_of.values()
        girl_of[2] = 1
        self.check_rejected(inst, girl_of)


class TestIsClosedMask:
    """is_closed_mask, one bit test per Hasse arc offset, agrees with the
    definition of a downward-closed set on every mask of posets with at most
    10 rotations and on seeded masks of larger ones."""

    @staticmethod
    def check(poset, seed):
        if poset.size <= 10:
            masks = list(range(1 << poset.size))
        else:
            # random sets, closed sets, and closed sets with one id flipped
            rng = random.Random(seed)
            down = [poset.pred_closure[v] | 1 << v for v in range(poset.size)]
            closed = [0, poset.full_mask]
            for _ in range(200):
                mask = 0
                for v in rng.sample(range(poset.size), rng.randint(1, 4)):
                    mask |= down[v]
                closed.append(mask)
            masks = closed + [m ^ 1 << rng.randrange(poset.size) for m in closed]
            masks += [rng.getrandbits(poset.size) for _ in range(200)]
        for mask in masks:
            expected = all(poset.pred_closure[v] & ~mask == 0 for v in mask_to_ids(mask))
            assert is_closed_mask(poset, mask) == expected, mask
            assert not is_closed_mask(poset, mask | 1 << poset.size)

    @given(lattice_instances())
    @settings(max_examples=80, deadline=None)
    def test_lattice_instances(self, inst):
        self.check(build_rotation_poset(inst), 0)

    def test_cyclic_blocks(self):
        """Up to 3 blocks of up to 7: chains of up to 18 rotations, whose ids
        interleave unless the blocks are numbered consecutively."""
        rng = random.Random(26)
        for seed in range(30):
            sizes = [rng.randint(1, 7) for _ in range(rng.randint(1, 3))]
            self.check(build_rotation_poset(cyclic_blocks(sizes, seed, relabel=seed % 2 == 0)), seed)

    def test_rotation_rich_random_instances(self):
        for seed, inst in enumerate(rotation_rich_instances()):
            self.check(build_rotation_poset(inst), seed)


def reference_girl_optimal(inst):
    """Girl-optimal matching by the flip: boy-proposing deferred acceptance
    on the role-reversed instance, pairs swapped back."""
    return Matching((b, g) for g, b in boy_optimal(reversed_instance(inst)).pairs)


class TestGirlOptimalMatchesFlip:
    """girl_optimal, girls proposing on the instance itself, equals the flip."""

    @given(random_instances(completeness=st.sampled_from([1.0, 0.8, 0.6, 0.45, 0.3])))
    @settings(max_examples=80)
    def test_random_instances(self, inst):
        assert girl_optimal(inst) == reference_girl_optimal(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        inst = parse_instance(text)
        assert girl_optimal(inst) == reference_girl_optimal(inst)

    def test_cyclic_blocks(self):
        rng = random.Random(11)
        for seed in range(30):
            inst = cyclic_blocks([rng.randint(1, 6) for _ in range(rng.randint(1, 3))], seed)
            assert girl_optimal(inst) == reference_girl_optimal(inst)


class TestMatchesEliminateChain:
    """closed_set_to_matching equals the chain of reference eliminations on
    every closed set."""

    @staticmethod
    def check(inst):
        poset = build_rotation_poset(inst)
        for mask in enumerate_closed_masks(poset):
            assert closed_set_to_matching(poset, mask) == reference_closed_set_to_matching(poset, mask)

    @given(lattice_instances())
    @settings(max_examples=80, deadline=None)
    def test_lattice_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("text", UNEQUAL_SIDES, ids=["3x4", "5x6", "6x5"])
    def test_unequal_sides(self, text):
        self.check(parse_instance(text))

    def test_cyclic_blocks(self):
        rng = random.Random(7)
        for seed in range(30):
            self.check(cyclic_blocks([rng.randint(1, 6) for _ in range(rng.randint(1, 3))], seed))


def drawn_requests(poset, draw):
    """A drawn sequence of closed masks of the poset: random access, repeats,
    and runs in enumeration order."""
    masks = enumerate_closed_masks(poset)
    picks = draw(st.lists(st.sampled_from(masks), max_size=30))
    start = draw(st.integers(0, len(masks) - 1))
    return picks + masks[start:start + 10] + picks[::-1]


class TestRequestOrder:
    """closed_set_to_matching keeps no state that changes a result: no order
    of requests, on one poset, changes what a request returns."""

    @staticmethod
    def check(poset, masks):
        for mask in masks:
            assert closed_set_to_matching(poset, mask) == reference_closed_set_to_matching(poset, mask)

    @given(lattice_instances(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lattice_instances(self, inst, data):
        poset = build_rotation_poset(inst)
        self.check(poset, drawn_requests(poset, data.draw))

    @given(st.lists(st.integers(2, 4), min_size=2, max_size=3), st.integers(0, 10**6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cyclic_blocks(self, sizes, seed, data):
        poset = build_rotation_poset(cyclic_blocks(sizes, seed))
        self.check(poset, drawn_requests(poset, data.draw))

    @given(lattice_instances(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rejected_mask_changes_no_later_result(self, inst, data):
        poset = build_rotation_poset(inst)
        before, after = drawn_requests(poset, data.draw), drawn_requests(poset, data.draw)
        open_masks = [1 << v for v in range(poset.size) if poset.pred_closure[v]]
        self.check(poset, before)
        with pytest.raises(ValueError, match="unknown ids"):
            closed_set_to_matching(poset, data.draw(st.sampled_from(before or [0])) | 1 << poset.size)
        if open_masks:
            with pytest.raises(ValueError, match="not downward closed"):
                closed_set_to_matching(poset, data.draw(st.sampled_from(open_masks)))
        self.check(poset, after)

    def test_rejected_rotation_is_checked_again(self, i3, monkeypatch):
        """R1 of the wrong poset has both pairs at M1, but g1 is not b1's
        successor girl: R1 is not recorded as checked, so the same request
        raises again, and the sets without it still read right."""
        poset = build_rotation_poset(i3)
        wrong = dataclasses.replace(poset, rotations=(RHO_A, Rotation(((0, 1), (2, 0)))))
        calls = counting_checks(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="not exposed"):
                closed_set_to_matching(wrong, 0b11)
            for mask in (0b01, 0):
                assert closed_set_to_matching(wrong, mask) == reference_closed_set_to_matching(wrong, mask)
        assert calls == list(wrong.rotations) + [wrong.rotations[1]]
        assert closed_set_to_matching(poset, 0b11) == MZ_I3

    def test_threads_share_one_poset(self):
        """4 threads, started together and switched often, materialise every
        closed set of one fresh poset, each in its own order; every result
        equals the reference."""
        poset = build_rotation_poset(cyclic_blocks([3, 4], 2))
        masks = enumerate_closed_masks(poset)
        expected = {mask: reference_closed_set_to_matching(poset, mask) for mask in masks}
        orders = [masks, masks[::-1]] + [random.Random(seed).sample(masks, len(masks)) for seed in range(2)]
        start = threading.Barrier(len(orders))

        def materialise(order):
            start.wait()
            return [(mask, closed_set_to_matching(poset, mask)) for mask in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                results = list(pool.map(materialise, orders))
        finally:
            sys.setswitchinterval(interval)
        assert all(got == expected[mask] for result in results for mask, got in result)

    def test_walked_posets_compare_equal(self):
        inst = cyclic_blocks([3, 4], 2)
        walked, fresh = build_rotation_poset(inst), build_rotation_poset(inst)
        closed_set_to_matching(walked, walked.full_mask)
        assert walked == fresh
        assert repr(walked) == repr(fresh)


class TestClosedSubsets:
    @given(lattice_instances())
    @settings(max_examples=80, deadline=None)
    def test_full_lattice_order_matches_recursive_reference(self, inst):
        poset = build_rotation_poset(inst)
        expected = recursive_closed_subsets(poset.pred_closure, range(poset.size))
        assert enumerate_closed_masks(poset) == expected

    @given(st.integers(0, 10), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_random_dags_match_recursive_reference(self, n, rng):
        ids = rng.sample(range(3 * n), n)  # distinct bits in any order
        density = rng.random()
        preds = [ids_to_mask(u for u in ids[:k] if rng.random() < density) for k in range(n)]
        got = closed_subsets(preds, [1 << v for v in ids], 0)
        assert got == recursive_closed_subsets(preds, ids)
        subsets = (ids_to_mask(v for k, v in enumerate(ids) if (sub >> k) & 1) for sub in range(1 << n))
        closed = [m for m in subsets if all(not preds[k] & ~m for k, v in enumerate(ids) if (m >> v) & 1)]
        assert sorted(got) == sorted(closed)

    @given(st.integers(0, 8), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_multi_bit_items_from_a_start_mask_match_recursive_reference(self, n, rng):
        """A sublattice's case: each item is the rotation mask of one free
        element, its preds the OR of its predecessor items, and every set
        starts from the mandatory mask."""
        pool = iter(rng.sample(range(5 * n + 3), 5 * n + 3))  # distinct bits in any order
        start = ids_to_mask(next(pool) for _ in range(rng.randint(1, 3)))
        items = [ids_to_mask(next(pool) for _ in range(rng.randint(1, 4))) for _ in range(n)]
        density = rng.random()
        element_preds = [ids_to_mask(j for j in range(k) if rng.random() < density) for k in range(n)]

        def union(element_mask: int) -> int:
            mask = 0
            for j in mask_to_ids(element_mask):
                mask |= items[j]
            return mask

        got = closed_subsets([union(e) for e in element_preds], items, start)
        assert got == [start | union(e) for e in recursive_closed_subsets(element_preds, range(n))]

    def test_deep_chain(self):
        """Needs no recursion: 2,000 rotations in a chain give 2,001 prefixes."""
        stand_in = SimpleNamespace(pred_closure=tuple((1 << v) - 1 for v in range(DEEP_CHAIN)), size=DEEP_CHAIN)
        assert enumerate_closed_masks(stand_in) == chain_prefixes(range(DEEP_CHAIN))
