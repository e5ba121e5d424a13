"""Partner-exchange cycles and the partial order that generates the lattice.

A stable matching can be nudged to an adjacent one by a *rotation*: a cycle of
matched pairs in which every boy passes to the next boy's girl, each boy getting
slightly worse and each girl strictly better.  Eliminating rotations starting
from the boy-optimal matching reaches every stable matching; which rotations
have been applied is all that distinguishes them.  This module discovers the
full set of rotations in O(n^2) with Gusfield's walk, numbers them in one
canonical linear extension of the precedence order, and converts between
stable matchings and downward-closed rotation sets.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

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
        k = pairs.index(min(pairs))
        return cls(pairs[k:] + pairs[:k])

    @property
    def post_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs present after elimination: each boy with the next girl.

        The package itself does not read it; the benchmark's expected-value
        generator (perfbench/workloads.py, ``apply_rotations``) does."""
        r = len(self.pairs)
        return tuple((self.pairs[i][0], self.pairs[(i + 1) % r][1]) for i in range(r))

    def describe(self) -> str:
        return " ".join(f"({boy_name(b)},{girl_name(g)})" for b, g in self.pairs)


def _successor_position(prefs, girl_rank, boy_of: dict, b: int, start: int) -> int | None:
    """Position on b's list prefs of the first girl, at or after start, who
    strictly prefers b to her current boy (read off a girl->boy map of one
    matching and the girls' rank tables).  From just below b's partner, that
    girl is b's successor girl.

    Scanning stops without an answer when it hits a girl who is unmatched:
    she would rather take b than stay alone, so b can never be pushed past
    her and takes part in no rotation at this matching.
    """
    for p in range(start, len(prefs)):
        g = prefs[p]
        holder = boy_of.get(g)
        if holder is None:
            return None
        if girl_rank[g][b] < girl_rank[g][holder]:
            return p
    return None


def _check_exposed(inst: PreferenceInstance, girl_of: dict, boy_of: dict, rotation: Rotation):
    """Raise ValueError unless the rotation is exposed at the matching of a
    boy->girl / girl->boy pair of maps: every pair of the rotation must be
    present, and the next girl of the rotation must be the boy's successor
    girl."""
    pairs = rotation.pairs
    after = pairs[1:] + pairs[:1]  # after[i][1] is b_i's next girl
    boy_prefs, boy_rank, girl_rank = inst.boy_prefs, inst.boy_rank, inst.girl_rank
    for (b, g), (_, g_next) in zip(pairs, after):
        if girl_of.get(b) != g:
            raise ValueError(f"rotation pair ({boy_name(b)},{girl_name(g)}) is not in the matching")
        prefs = boy_prefs[b]
        p = _successor_position(prefs, girl_rank, boy_of, b, boy_rank[b][g] + 1)
        if p is None or prefs[p] != g_next:
            raise ValueError(f"rotation is not exposed: {girl_name(g_next)} is not the successor girl of {boy_name(b)}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class RotationPoset:
    """Every rotation of an instance plus the precedence order between them.

    Rotation ids are one canonical linear extension of the precedence order:
    the elimination path from the boy-optimal matching that always takes the
    exposed rotation with the smallest ``pairs`` tuple (equivalently, the
    smallest leading boy) gives rotation k id k.  They do not depend on the
    order in which discovery found the rotations.  Stable matchings
    correspond one-to-one with downward-closed id sets (kept as bitmasks here).

    Every agent matched in the stable matchings has a partner chain,
    ``girl_chains[g]`` or ``boy_chains[b]``: a pair (slot positions,
    boundary ids).  The slot positions are the ascending positions, on a's
    own list, of a's stable partners: slot k is a's (k+1)-th best.  The
    boundary ids have one entry more: entry k is the id of the rotation that
    moves a across the boundary between slot k-1 and slot k, with None at
    both ends.  A boy crosses his boundaries downwards and a girl upwards,
    so a boy holds slot k in the stable matchings whose rotation sets
    contain entry k but not entry k+1, and a girl in those that contain
    entry k+1 but not entry k (None: no condition).  Agents
    unmatched in every stable matching have no chain.

    A boy's boundary ids form a chain in the precedence order, so a closed
    set holds a prefix of them, and its size is his slot.  ``boy_slots``
    keeps, in boy order, one entry per boy with a chain: (b, mask of his
    boundary ids, his stable partners in slot order), from which
    closed_set_to_matching reads any stable matching.

    The poset records which rotations closed_set_to_matching has found
    exposed at the matching of their predecessors.  The record only grows,
    takes no part in equality or repr, and never changes a result: a thread
    that misses another's update repeats a check, and ``dataclasses.replace``
    starts with nothing checked.
    """

    inst: PreferenceInstance
    rotations: tuple[Rotation, ...]
    boy_opt: Matching
    girl_opt: Matching
    pred_closure: tuple[int, ...]   # strict predecessors of each id, as a bitmask
    hasse_preds: tuple[tuple[int, ...], ...]
    hasse_succs: tuple[tuple[int, ...], ...]
    girl_chains: dict  # g -> (ascending positions on g's list of her stable partners, boundary ids)
    boy_chains: dict   # b -> (ascending positions on b's list of his stable partners, boundary ids)
    boy_slots: tuple[tuple[int, int, tuple[int, ...]], ...]  # (b, boundary id mask, partners by slot)
    _exposed: int = field(default=0, init=False, repr=False, compare=False)  # rotations checked exposed

    @property
    def size(self) -> int:
        return len(self.rotations)

    def leq(self, i: int, j: int) -> bool:
        """True when rotation i precedes (or equals) rotation j."""
        return i == j or bool((self.pred_closure[j] >> i) & 1)

    @property
    def minimal_ids(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if not self.hasse_preds[v])

    @property
    def maximal_ids(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if not self.hasse_succs[v])

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def cover_offsets(self) -> tuple[tuple[int, int], ...]:
        """The Hasse arcs u -> v grouped by their id offset d = v - u (> 0,
        as ids are a linear extension): one (d, mask of the heads v) per
        offset, ascending.  Read off hasse_preds on first use, so a
        ``dataclasses.replace``d poset derives its own."""
        heads: dict[int, int] = {}
        for v, us in enumerate(self.hasse_preds):
            for u in us:
                heads[v - u] = heads.get(v - u, 0) | 1 << v
        return tuple(sorted(heads.items()))


def build_rotation_poset(inst: PreferenceInstance) -> RotationPoset:
    """Discover all rotations of the instance and order them.

    Discovery is Gusfield's walk, O(n^2) over the lengths of the lists: it
    finds the rotations and every agent's partner chain, nothing else.
    Precedence between rotations u and v is then read off the boy chains,
    generated by two rules plus transitivity: u creates a pair that v
    removes; u makes some girl's partner better than a boy whom v sweeps
    past her (strictly between v's endpoints on his list).  Equality of the
    resulting lattice with the brute-force stable set is exercised heavily
    by the test suite.  The rotations are renumbered into the canonical
    linear extension described on RotationPoset, so ids do not depend on
    the walk.
    """
    m0 = boy_optimal(inst)
    mz = girl_optimal(inst)
    last_girl = dict(mz.pairs)
    boy_prefs, boy_rank, girl_rank = inst.boy_prefs, inst.boy_rank, inst.girl_rank

    # Gusfield's walk on one pair of partner maps.  A boy short of his
    # girl-optimal partner has a successor girl, and her boy is short of his
    # too; so following b -> partner of b's successor girl from such a boy
    # closes a cycle, an exposed rotation, which is eliminated at once.  The
    # rest of the path stays valid, since none of its girls moved; only its
    # last boy's successor girl is read again.  Each boy keeps one scan
    # position that only moves forward: a girl he skipped holds someone she
    # prefers to him, and girls only get better.  While a boy is on the
    # path, scan holds his successor girl's position: eliminating moves him
    # there.
    # Along the walk each agent's partners, kept as positions on the agent's
    # list, come in lattice order with the rotations that move the agent
    # along them; boys only get worse and girls only better.
    # The partner maps, scan positions and path indices are lists indexed
    # by agent id: None for an unmatched agent, -1 for a boy off the path.
    # The successor scan is _successor_position's, inline on these lists: a
    # call per boy-move made the whole represent run measurably slower.
    girl_of: list = [None] * inst.n_boys
    boy_of: list = [None] * inst.n_girls
    scan = [0] * inst.n_boys
    for b, g in m0.pairs:
        girl_of[b] = g
        boy_of[g] = b
        scan[b] = boy_rank[b][g] + 1
    boy_positions = {b: [boy_rank[b][g]] for b, g in m0.pairs}
    girl_positions = {g: [girl_rank[g][b]] for b, g in m0.pairs}
    boy_moves: dict[int, list] = {b: [None] for b, _ in m0.pairs}
    girl_moves: dict[int, list] = {g: [None] for _, g in m0.pairs}
    rotations: list[Rotation] = []
    path: list[int] = []
    on_path = [-1] * inst.n_boys  # boy -> his index on path
    for b0, _ in m0.pairs:
        while path or girl_of[b0] != last_girl[b0]:
            if not path:
                path.append(b0)
                on_path[b0] = 0
            b = path[-1]
            prefs = boy_prefs[b]
            for p in range(scan[b], len(prefs)):
                g = prefs[p]
                nxt = boy_of[g]
                if nxt is None or girl_rank[g][b] < girl_rank[g][nxt]:
                    break
            else:
                nxt = None  # the scan ran past the end of his list
            if nxt is None:
                raise AssertionError("a boy short of his girl-optimal partner has no successor girl")
            scan[b] = p
            at = on_path[nxt]
            if at < 0:
                on_path[nxt] = len(path)
                path.append(nxt)
                continue
            cycle = path[at:]
            del path[at:]
            v = len(rotations)
            rotations.append(Rotation.from_cycle([(x, girl_of[x]) for x in cycle]))
            for x in cycle:
                on_path[x] = -1
                p = scan[x]
                g = boy_prefs[x][p]
                girl_of[x] = g
                boy_of[g] = x
                scan[x] = p + 1
                boy_positions[x].append(p)
                boy_moves[x].append(v)
                girl_positions[g].append(girl_rank[g][x])
                girl_moves[g].append(v)
    if Matching((b, g) for b, g in enumerate(girl_of) if g is not None) != mz:
        raise AssertionError("elimination path did not terminate at the girl-optimal matching")
    boy_chains = _slots(boy_positions, boy_moves, 1)
    girl_chains = _slots(girl_positions, girl_moves, -1)

    # The generating predecessors of each rotation, in walk ids, read off
    # the boy chains.  Each boundary v of a boy's chain moves him from the
    # slot at position first on his list to the slot at position stop.  v
    # removes the pair that the boundary before it created (pair creation),
    # and it drops him past each girl strictly between first and stop, so
    # the rotation that lifts her above him must come first (sweep): the
    # boundary of her chain at her rank of him.
    preds: list[set[int]] = [set() for _ in rotations]
    for b, (pos, bd) in boy_chains.items():
        if len(pos) == 1:  # he never moves
            continue
        for creator, v, first, stop in zip(bd, bd[1:-1], pos, pos[1:]):
            if creator is not None:
                preds[v].add(creator)
            if stop == first + 1:
                continue
            for mid in boy_prefs[b][first + 1:stop]:
                positions, boundaries = girl_chains.get(mid, ((), ()))
                j = bisect_right(positions, girl_rank[mid][b])
                if j == 0:
                    raise AssertionError("swept girl never rises above the boy sweeping past her")
                u = boundaries[j]
                if u is None or u == v:  # None: she starts out holding someone better
                    continue
                if u > v:
                    raise AssertionError("sweep precedence points forward")
                preds[v].add(u)

    # Renumber into the canonical linear extension: the topological order
    # that always takes the smallest available pairs tuple.  Every agent
    # meets the same partners along every maximal chain of the lattice, so
    # only the ids change, never the chains.
    order = topological_order(preds, [rot.pairs for rot in rotations])
    if order != list(range(len(order))):
        new_id: dict = {u: k for k, u in enumerate(order)}
        new_id[None] = None  # the ends of every chain
        rotations = [rotations[u] for u in order]
        preds = [{new_id[u] for u in preds[old]} for old in order]
        for chains in (boy_chains, girl_chains):
            for a, (pos, bd) in chains.items():
                chains[a] = pos, tuple(map(new_id.__getitem__, bd))

    # A cover of v is one of its generating predecessors, and one is a
    # cover unless it precedes another of them.  v ascends, so each list of
    # covered successors ascends too.
    n = len(rotations)
    pred_closure = [0] * n
    hasse_preds: list[tuple[int, ...]] = []
    hasse_succs: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        direct = dominated = 0
        for u in preds[v]:
            direct |= 1 << u
            dominated |= pred_closure[u]
        pred_closure[v] = direct | dominated
        covers = tuple(_bits(direct & ~dominated))
        hasse_preds.append(covers)
        for u in covers:
            hasse_succs[u].append(v)

    return RotationPoset(
        inst=inst,
        rotations=tuple(rotations),
        boy_opt=m0,
        girl_opt=mz,
        pred_closure=tuple(pred_closure),
        hasse_preds=tuple(hasse_preds),
        hasse_succs=tuple(map(tuple, hasse_succs)),
        girl_chains=girl_chains,
        boy_chains=boy_chains,
        boy_slots=tuple(
            (b, ids_to_mask(bd[1:-1]), tuple(map(boy_prefs[b].__getitem__, pos)))
            for b, (pos, bd) in boy_chains.items()
        ),
    )


def topological_order(preds, keys) -> list[int]:
    """Kahn's order of the nodes 0..n-1 that always takes the available node
    with the smallest key; preds[v] holds the distinct predecessors of v,
    which must form no cycle, and the keys are distinct."""
    succs: list[list[int]] = [[] for _ in preds]
    for v, us in enumerate(preds):
        for u in us:
            succs[u].append(v)
    missing = [len(us) for us in preds]
    heap = [(keys[v], v) for v in range(len(preds)) if not missing[v]]
    heapq.heapify(heap)
    order = []
    while heap:
        _, u = heapq.heappop(heap)
        order.append(u)
        for v in succs[u]:
            missing[v] -= 1
            if not missing[v]:
                heapq.heappush(heap, (keys[v], v))
    return order


def _slots(positions: dict, moves: dict, step: int) -> dict:
    """agent -> (slot positions, boundary ids) from each agent's partner
    positions and moves in elimination order, read forwards (step 1) or
    backwards (step -1) so the positions ascend; they must strictly ascend."""
    chains: dict[int, tuple[tuple[int, ...], tuple]] = {}
    for a, pos in positions.items():
        pos = tuple(pos)[::step]
        if not all(map(operator.lt, pos, pos[1:])):
            raise AssertionError("a partner chain is not strictly monotone along the lattice")
        chains[a] = pos, (*moves[a], None)[::step]
    return chains


# ---------------------------------------------------------------------------
# stable matchings <-> downward-closed rotation sets

def is_closed_mask(poset: RotationPoset, mask: int) -> bool:
    """True when mask is a set of the poset's rotation ids that holds every
    predecessor of each of its rotations; False for a mask holding an id of
    no rotation (size or more, or a negative mask).

    A set is downward closed exactly when it holds the tail of every Hasse
    arc whose head it holds, so the test is one bit expression per offset
    of cover_offsets: the heads in the set whose tail is missing.
    """
    if mask >> poset.size:
        return False
    for d, heads in poset.cover_offsets:
        if mask & heads & ~(mask << d):
            return False
    return True


def _matching_of(poset: RotationPoset, mask: int) -> Matching:
    """The matching of a closed set: each boy holds the slot given by how
    many of his boundary ids the set contains."""
    return Matching((b, partners[(mask & crossed).bit_count()]) for b, crossed, partners in poset.boy_slots)


def closed_set_to_matching(poset: RotationPoset, mask: int) -> Matching:
    """The stable matching of a downward-closed set: its rotations eliminated
    from the boy-optimal matching, read off the partner chains (see
    RotationPoset).

    Raises ValueError for unknown ids and for a set that is not downward
    closed.  Before any matching that holds a rotation is returned, the
    rotation is checked once per poset for exposure at the matching of its
    strict predecessors: every pair is present and every next girl is the
    boy's successor girl.  The set's rotations are checked in ascending id
    order, so when a wrong order lets a set that is not truly closed pass as
    closed, its first rotation missing a true predecessor is checked at a
    truly closed set that lacks it, and raises ValueError instead of yielding
    an unstable matching.  A rotation that fails is not recorded, so the next
    request that holds it raises again.
    """
    if mask >> poset.size:
        raise ValueError("rotation set contains unknown ids")
    if not is_closed_mask(poset, mask):
        raise ValueError("rotation set is not downward closed")
    for v in _bits(mask & ~poset._exposed):
        girl_of, boy_of = _matching_of(poset, poset.pred_closure[v]).partner_maps()
        _check_exposed(poset.inst, girl_of, boy_of, poset.rotations[v])
        poset._exposed |= 1 << v
    return _matching_of(poset, mask)


def matching_to_closed_set(poset: RotationPoset, matching: Matching) -> int:
    """The downward-closed rotation set producing the given stable matching.

    Each boy's slot is read off his chain, the inverse of _matching_of: the
    set holds the boundary ids he has crossed to reach his partner.  Raises
    ValueError when the matching is not a stable matching of the instance
    (detected by regenerating and comparing).
    """
    mask = 0
    for b, (pos, bd) in poset.boy_chains.items():
        r = poset.inst.boy_rank[b].get(matching.girl_of(b), -1)  # -1: unmatched, or a partner off his list
        mask |= ids_to_mask(bd[1:bisect_right(pos, r)])
    if not is_closed_mask(poset, mask) or closed_set_to_matching(poset, mask) != matching:
        raise ValueError("matching is not a stable matching of this instance")
    return mask


def closed_subsets(preds, items, start: int) -> list[int]:
    """Every union of start with items, closed under the given predecessors,
    as bitmasks.

    items[k] is a bit mask, disjoint from start and from the other items,
    and may join a set once the set holds every bit of preds[k].  The items
    must be in a linear extension of the order (each after its
    predecessors).  Sets are grown by adding items in the given order, which
    visits each closed set exactly once: start first, each set before its
    extensions, and the extensions of a set in the order of the item added.
    An explicit stack replaces recursion, so the height of the order is
    unbounded.  Exponential in general; callers guard size.
    """
    out: list[int] = []
    stack = [(start, 0)]  # (set, position of the first item it may still gain)
    while stack:
        mask, at = stack.pop()
        out.append(mask)
        for k in reversed(range(at, len(items))):  # pushed last, popped first
            if not preds[k] & ~mask:
                stack.append((mask | items[k], k + 1))
    return out


def enumerate_closed_masks(poset: RotationPoset) -> list[int]:
    """Every downward-closed rotation set, i.e. every stable matching.

    The empty set (the boy-optimal matching) comes first and every set
    before its supersets; see closed_subsets.  Exponential in general;
    callers guard size.
    """
    return closed_subsets(poset.pred_closure, [1 << v for v in range(poset.size)], 0)


def mask_to_ids(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def ids_to_mask(ids) -> int:
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask
