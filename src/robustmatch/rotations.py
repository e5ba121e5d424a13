"""Partner-exchange cycles and the partial order that generates the lattice.

A stable matching can be nudged to an adjacent one by a *rotation*: a cycle of
matched pairs in which every boy passes to the next boy's girl, each boy getting
slightly worse and each girl strictly better.  Eliminating rotations starting
from the boy-optimal matching reaches every stable matching; which rotations
have been applied is all that distinguishes them.  This module discovers the
full set of rotations, derives the precedence order between them, and converts
between stable matchings and downward-closed rotation sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instance import PreferenceInstance, boy_name, girl_name
from .matching import Matching, boy_optimal, girl_optimal


@dataclass(frozen=True)
class Rotation:
    """A cyclic exchange written as the matched pairs it removes.

    pairs[i] = (b_i, g_i); after elimination b_i is matched to g_{i+1}
    (indices mod the length).  The tuple is rotated so the smallest boy
    comes first, making equal rotations compare equal.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.pairs) < 2:
            raise ValueError("a rotation needs at least two pairs")
        boys = [b for b, _ in self.pairs]
        girls = [g for _, g in self.pairs]
        if len(set(boys)) != len(boys) or len(set(girls)) != len(girls):
            raise ValueError("rotation pairs must use distinct boys and distinct girls")
        if boys[0] != min(boys):
            raise ValueError("rotation pairs must start at the smallest boy")

    @classmethod
    def from_cycle(cls, pairs) -> Rotation:
        pairs = tuple(pairs)
        k = min(range(len(pairs)), key=lambda i: pairs[i][0])
        return cls(pairs[k:] + pairs[:k])

    @property
    def boys(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.pairs)

    @property
    def girls(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.pairs)

    @property
    def post_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs present after elimination: each boy with the next girl."""
        r = len(self.pairs)
        return tuple((self.pairs[i][0], self.pairs[(i + 1) % r][1]) for i in range(r))

    def describe(self) -> str:
        return " ".join(f"({boy_name(b)},{girl_name(g)})" for b, g in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _successor_girl(inst: PreferenceInstance, matching: Matching, b: int) -> int | None:
    """First girl below b's partner who strictly prefers b to her current boy.

    Scanning stops without an answer when it hits a girl who is unmatched:
    she would rather take b than stay alone, so b can never be pushed past
    her and takes part in no rotation at this matching.
    """
    g = matching.girl_of(b)
    start = inst.boy_rank[b][g] + 1
    for g2 in inst.boy_prefs[b][start:]:
        holder = matching.boy_of(g2)
        if holder is None:
            return None
        if inst.girl_rank[g2][b] < inst.girl_rank[g2][holder]:
            return g2
    return None


def exposed_rotations(inst: PreferenceInstance, matching: Matching) -> list[Rotation]:
    """All rotations that can be eliminated from the given stable matching.

    They are the cycles of b -> partner(successor girl of b), a functional
    graph over the matched boys, and are therefore vertex-disjoint.  Sorted
    by their canonical pair tuples.
    """
    succ: dict[int, int] = {}
    for b, _ in matching.pairs:
        s = _successor_girl(inst, matching, b)
        if s is not None:
            succ[b] = matching.boy_of(s)
    state: dict[int, int] = {}
    out = []
    for b0 in succ:
        if b0 in state:
            continue
        path = []
        b = b0
        while b in succ and b not in state:
            state[b] = 0
            path.append(b)
            b = succ[b]
        if state.get(b) == 0:
            cycle = path[path.index(b):]
            out.append(Rotation.from_cycle((x, matching.girl_of(x)) for x in cycle))
        for x in path:
            state[x] = 1
    out.sort(key=lambda r: r.pairs)
    return out


def eliminate(inst: PreferenceInstance, matching: Matching, rotation: Rotation) -> Matching:
    """Apply an exposed rotation: every boy in it moves to the next girl.

    Raises ValueError when the rotation is not exposed at this matching,
    i.e. some pair is absent or some girl is not her boy's successor girl.
    """
    replaced = dict(matching.pairs)
    r = len(rotation.pairs)
    for i, (b, g) in enumerate(rotation.pairs):
        if replaced.get(b) != g:
            raise ValueError(f"rotation pair ({boy_name(b)},{girl_name(g)}) is not in the matching")
        expected = rotation.pairs[(i + 1) % r][1]
        if _successor_girl(inst, matching, b) != expected:
            raise ValueError(f"rotation is not exposed: {girl_name(expected)} is not the successor girl of {boy_name(b)}")
    for b, g in rotation.post_pairs:
        replaced[b] = g
    return Matching(replaced.items())


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class RotationPoset:
    """Every rotation of an instance plus the precedence order between them.

    Rotation ids are discovery order along the elimination path that always
    picks the exposed rotation with the smallest leading boy; that order is a
    linear extension of the precedence order.  Stable matchings correspond
    one-to-one with downward-closed id sets (kept as bitmasks here).
    """

    inst: PreferenceInstance
    rotations: tuple[Rotation, ...]
    boy_opt: Matching
    girl_opt: Matching
    pred_closure: tuple[int, ...]   # strict predecessors of each id, as a bitmask
    succ_closure: tuple[int, ...]
    hasse_preds: tuple[tuple[int, ...], ...]
    hasse_succs: tuple[tuple[int, ...], ...]
    # movement indexes; each key appears for at most one rotation
    post_pair: dict    # (b, g) -> id of the rotation after which b and g are matched
    pre_pair: dict     # (b, g) -> id of the rotation that removes the pair (b, g)
    below_girl: dict   # (b, g) -> id of the rotation after which b's partner is worse than g
    above_boy: dict    # (g, b) -> id of the rotation after which g's partner is no worse than b
    girl_slot_positions: dict  # g -> ascending positions on g's list of her possible partners
    girl_slot_boys: dict       # g -> boys parallel to girl_slot_positions
    boy_slot_positions: dict   # b -> ascending positions on b's list of his possible partners
    boy_slot_girls: dict       # b -> girls parallel to boy_slot_positions

    @property
    def size(self) -> int:
        return len(self.rotations)

    def leq(self, i: int, j: int) -> bool:
        """True when rotation i precedes (or equals) rotation j."""
        return i == j or bool((self.pred_closure[j] >> i) & 1)

    def index_of(self, rotation: Rotation) -> int:
        try:
            return self.rotations.index(rotation)
        except ValueError:
            raise ValueError(f"rotation {rotation.describe()} does not belong to this instance") from None

    @property
    def minimal_ids(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if not self.hasse_preds[v])

    @property
    def maximal_ids(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if not self.hasse_succs[v])

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


def build_rotation_poset(inst: PreferenceInstance) -> RotationPoset:
    """Discover all rotations of the instance and order them.

    Precedence between rotations u and v is generated by three rules:
    u creates a pair that v removes; u makes some girl's partner better
    than a boy whom v sweeps past her (strictly between v's endpoints on
    his list); plus transitivity.  Equality of the resulting lattice with
    the brute-force stable set is exercised heavily by the test suite.
    """
    m0 = boy_optimal(inst)
    mz = girl_optimal(inst)

    # one elimination path visits every rotation exactly once
    rotations: list[Rotation] = []
    current = m0
    while True:
        exposed = exposed_rotations(inst, current)
        if not exposed:
            break
        rotations.append(exposed[0])
        current = eliminate(inst, current, exposed[0])
    if current != mz:
        raise AssertionError("elimination path did not terminate at the girl-optimal matching")

    post_pair: dict[tuple[int, int], int] = {}
    pre_pair: dict[tuple[int, int], int] = {}
    below_girl: dict[tuple[int, int], int] = {}
    above_boy: dict[tuple[int, int], int] = {}

    def claim(table: dict, key, rid: int, what: str):
        if key in table:
            raise AssertionError(f"{what} happens in two rotations for {key}")
        table[key] = rid

    for rid, rot in enumerate(rotations):
        r = len(rot.pairs)
        for i, (b, g) in enumerate(rot.pairs):
            claim(pre_pair, (b, g), rid, "pair removal")
            g_next = rot.pairs[(i + 1) % r][1]
            claim(post_pair, (b, g_next), rid, "pair creation")
            # b's partner drops from g to g_next: he passes every girl
            # at positions [pos(g), pos(g_next)) on his list
            prefs = inst.boy_prefs[b]
            lo, hi = inst.boy_rank[b][g], inst.boy_rank[b][g_next]
            for p in range(lo, hi):
                claim(below_girl, (b, prefs[p]), rid, "downward sweep")
            # g_next's partner rises from b_next to b: she passes every boy
            # at positions [pos(b), pos(b_next)) on her list
            b_next = rot.pairs[(i + 1) % r][0]
            gprefs = inst.girl_prefs[g_next]
            lo, hi = inst.girl_rank[g_next][b], inst.girl_rank[g_next][b_next]
            if lo >= hi:
                raise AssertionError("girl did not improve in a rotation")
            for q in range(lo, hi):
                claim(above_boy, (g_next, gprefs[q]), rid, "upward sweep")

    # precedence edges
    edges: set[tuple[int, int]] = set()
    for v, rot in enumerate(rotations):
        for b, g in rot.pairs:
            u = post_pair.get((b, g))
            if u is not None:
                if u >= v:
                    raise AssertionError("pair-creation precedence points forward")
                edges.add((u, v))
        for i, (b, g) in enumerate(rot.pairs):
            g_next = rot.pairs[(i + 1) % len(rot.pairs)][1]
            prefs = inst.boy_prefs[b]
            for p in range(inst.boy_rank[b][g] + 1, inst.boy_rank[b][g_next]):
                mid = prefs[p]
                u = above_boy.get((mid, b))
                if u is None:
                    # she must already start out holding someone better than b
                    holder = m0.boy_of(mid)
                    if holder is None or inst.girl_rank[mid][holder] > inst.girl_rank[mid][b]:
                        raise AssertionError("swept girl never rises above the boy sweeping past her")
                    continue
                if u == v:
                    continue
                if u > v:
                    raise AssertionError("sweep precedence points forward")
                edges.add((u, v))

    n = len(rotations)
    preds_of: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        preds_of[v].append(u)

    pred_closure = [0] * n
    for v in range(n):
        mask = 0
        for u in preds_of[v]:
            mask |= pred_closure[u] | (1 << u)
        pred_closure[v] = mask

    succ_closure = [0] * n
    for v in range(n):
        for u in _bits(pred_closure[v]):
            succ_closure[u] |= 1 << v

    hasse_preds: list[tuple[int, ...]] = []
    for v in range(n):
        mask = pred_closure[v]
        dominated = 0
        for u in _bits(mask):
            dominated |= pred_closure[u]
        hasse_preds.append(tuple(_bits(mask & ~dominated)))
    hasse_succs_sets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in hasse_preds[v]:
            hasse_succs_sets[u].append(v)

    # each agent's possible partners, keyed by position on his or her list;
    # along the elimination path boys only get worse and girls only better
    girl_chains: dict[int, list[int]] = {g: [b] for b, g in m0.pairs}
    boy_chains: dict[int, list[int]] = {b: [g] for b, g in m0.pairs}
    for rot in rotations:
        for b, g in rot.post_pairs:
            girl_chains[g].append(b)
            boy_chains[b].append(g)
    girl_slot_positions, girl_slot_boys = _slots(
        {g: chain[::-1] for g, chain in girl_chains.items()}, inst.girl_rank)
    boy_slot_positions, boy_slot_girls = _slots(boy_chains, inst.boy_rank)

    return RotationPoset(
        inst=inst,
        rotations=tuple(rotations),
        boy_opt=m0,
        girl_opt=mz,
        pred_closure=tuple(pred_closure),
        succ_closure=tuple(succ_closure),
        hasse_preds=tuple(hasse_preds),
        hasse_succs=tuple(tuple(s) for s in hasse_succs_sets),
        post_pair=post_pair,
        pre_pair=pre_pair,
        below_girl=below_girl,
        above_boy=above_boy,
        girl_slot_positions=girl_slot_positions,
        girl_slot_boys=girl_slot_boys,
        boy_slot_positions=boy_slot_positions,
        boy_slot_girls=boy_slot_girls,
    )


def _slots(chains: dict, rank) -> tuple[dict, dict]:
    """(agent -> positions of the partners on the agent's list, agent -> partners),
    both tuples in chain order; the positions must strictly ascend."""
    positions: dict[int, tuple[int, ...]] = {}
    partners: dict[int, tuple[int, ...]] = {}
    for a, chain in chains.items():
        pos = tuple(rank[a][p] for p in chain)
        if any(x >= y for x, y in itertools.pairwise(pos)):
            raise AssertionError("a partner chain is not strictly monotone along the lattice")
        positions[a], partners[a] = pos, tuple(chain)
    return positions, partners


# ---------------------------------------------------------------------------
# stable matchings <-> downward-closed rotation sets

def is_closed_mask(poset: RotationPoset, mask: int) -> bool:
    return all((poset.pred_closure[v] & ~mask) == 0 for v in _bits(mask))


def closed_set_to_matching(poset: RotationPoset, mask: int) -> Matching:
    """Eliminate the rotations of a downward-closed set from the boy-optimal matching."""
    if mask >> poset.size:
        raise ValueError("rotation set contains unknown ids")
    if not is_closed_mask(poset, mask):
        raise ValueError("rotation set is not downward closed")
    m = poset.boy_opt
    for v in _bits(mask):  # ascending id order is a linear extension
        m = eliminate(poset.inst, m, poset.rotations[v])
    return m


def matching_to_closed_set(poset: RotationPoset, matching: Matching) -> int:
    """The downward-closed rotation set producing the given stable matching.

    Raises ValueError when the matching is not a stable matching of the
    instance (detected by regenerating and comparing).
    """
    inst = poset.inst
    mask = 0
    for v, rot in enumerate(poset.rotations):
        b0 = rot.pairs[0][0]
        after = rot.post_pairs[0][1]
        partner = matching.girl_of(b0)
        rank = inst.boy_rank[b0].get(partner, len(inst.boy_prefs[b0])) if partner is not None else len(inst.boy_prefs[b0])
        if rank >= inst.boy_rank[b0][after]:
            mask |= 1 << v
    if not is_closed_mask(poset, mask) or closed_set_to_matching(poset, mask) != matching:
        raise ValueError("matching is not a stable matching of this instance")
    return mask


def closed_subsets(preds, ids) -> list[int]:
    """Every subset of ids closed under the given predecessors, as bitmasks.

    ids[k] may join a set once the set holds every bit of preds[k].  The ids
    must be distinct and in a linear extension of the order (each id after
    its predecessors).  Sets are grown by adding ids in the given order,
    which visits each closed set exactly once: the empty set first, each set
    before its extensions, and the extensions of a set in the order of the
    id added.  An explicit stack replaces recursion, so the height of the
    order is unbounded.  Exponential in general; callers guard size.
    """
    out: list[int] = []
    stack = [(0, 0)]  # (set, position of the first id it may still gain)
    while stack:
        mask, start = stack.pop()
        out.append(mask)
        for k in reversed(range(start, len(ids))):  # pushed last, popped first
            if not preds[k] & ~mask:
                stack.append((mask | 1 << ids[k], k + 1))
    return out


def enumerate_closed_masks(poset: RotationPoset) -> list[int]:
    """Every downward-closed rotation set, i.e. every stable matching.

    The empty set (the boy-optimal matching) comes first and every set
    before its supersets; see closed_subsets.  Exponential in general;
    callers guard size.
    """
    return closed_subsets(poset.pred_closure, range(poset.size))


def mask_to_ids(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def ids_to_mask(ids) -> int:
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask
