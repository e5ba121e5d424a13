"""Matchings, blocking pairs, stability, and the dominance lattice operations.

A matching pairs boys with girls along mutually acceptable edges, each agent
at most once.  A blocking pair is a mutually acceptable pair bg outside the
matching where both b and g strictly prefer each other to their current
situation (an unmatched agent prefers any acceptable partner).  A matching is
stable when it has no blocking pair; that already forces maximality among
acceptable pairs, since two unmatched acceptable agents block.

Stable matchings are ordered by boy-side dominance: M <= M' iff every boy
likes his M-partner at least as much as his M'-partner.  Under that order
they form a distributive lattice whose meet and join are computed pointwise.
"""

from __future__ import annotations

from collections import deque

from .instance import Agent, PreferenceInstance, boy_name, girl_name


class Matching:
    """An immutable set of (boy, girl) pairs, hashable, each agent at most once."""

    __slots__ = ("_pairs", "_girl_of", "_boy_of", "_hash")

    def __init__(self, pairs):
        pairs = tuple(sorted(pairs))
        girl_of = {}
        boy_of = {}
        for b, g in pairs:
            if b in girl_of:
                raise ValueError(f"{boy_name(b)} appears twice in matching")
            if g in boy_of:
                raise ValueError(f"{girl_name(g)} appears twice in matching")
            girl_of[b] = g
            boy_of[g] = b
        self._pairs = pairs
        self._girl_of = girl_of
        self._boy_of = boy_of
        self._hash = hash(pairs)

    @property
    def pairs(self) -> tuple[tuple[Agent, Agent], ...]:
        return self._pairs

    def girl_of(self, b: Agent) -> Agent | None:
        return self._girl_of.get(b)

    def boy_of(self, g: Agent) -> Agent | None:
        return self._boy_of.get(g)

    def partner_maps(self) -> tuple[dict[Agent, Agent], dict[Agent, Agent]]:
        """Fresh boy -> girl and girl -> boy maps, the first in boy order."""
        return self._girl_of.copy(), self._boy_of.copy()

    def __len__(self):
        return len(self._pairs)

    def __eq__(self, other):
        return isinstance(other, Matching) and self._pairs == other._pairs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{boy_name(b)}{girl_name(g)}" for b, g in self._pairs)
        return f"Matching({{{inner}}})"


def validate_matching(inst: PreferenceInstance, matching: Matching):
    """Raise ValueError unless every pair is in range and mutually acceptable."""
    for b, g in matching.pairs:
        if not 0 <= b < inst.n_boys or not 0 <= g < inst.n_girls:
            raise ValueError(f"pair ({b}, {g}) out of range for this instance")
        if g not in inst.boy_rank[b]:
            raise ValueError(
                f"pair {boy_name(b)} {girl_name(g)} is not mutually acceptable"
            )


def unmatched_agents(inst: PreferenceInstance, matching: Matching):
    """(unmatched boys, unmatched girls), each as a sorted tuple; a side
    with every agent matched is not scanned."""
    full = len(matching)
    boys = () if full == inst.n_boys else tuple(b for b in range(inst.n_boys) if matching.girl_of(b) is None)
    girls = () if full == inst.n_girls else tuple(g for g in range(inst.n_girls) if matching.boy_of(g) is None)
    return boys, girls


def _blocking_scan(inst: PreferenceInstance, matching: Matching):
    """Yield the pairs that block the matching, boy by boy and each boy's in
    his preference order, after validating the matching."""
    validate_matching(inst, matching)
    for b in range(inst.n_boys):
        partner = matching.girl_of(b)
        # b strictly prefers exactly the girls above his partner (all of his
        # list when unmatched); any of them preferring b back blocks.
        upto = len(inst.boy_prefs[b]) if partner is None else inst.boy_rank[b][partner]
        for g in inst.boy_prefs[b][:upto]:
            her = matching.boy_of(g)
            if her is None or inst.girl_rank[g][b] < inst.girl_rank[g][her]:
                yield b, g


def blocking_pairs(inst: PreferenceInstance, matching: Matching) -> list[tuple[Agent, Agent]]:
    """All mutually acceptable pairs that block the matching, in scan order."""
    return list(_blocking_scan(inst, matching))


def is_stable(inst: PreferenceInstance, matching: Matching) -> bool:
    """True iff the matching has no blocking pair.

    Raises ValueError, as blocking_pairs and meet/join do, when the matching
    is not valid for the instance: a pair out of range, or a pair that is
    not mutually acceptable.
    """
    return next(_blocking_scan(inst, matching), None) is None


def _deferred_acceptance(proposer_prefs, receiver_rank) -> dict[Agent, Agent]:
    """Receiver -> proposer after deferred acceptance, proposers starting in
    ascending id order."""
    next_choice = [0] * len(proposer_prefs)
    fiance: dict[Agent, Agent] = {}
    free = deque(range(len(proposer_prefs)))
    while free:
        a = free.popleft()
        prefs = proposer_prefs[a]
        while next_choice[a] < len(prefs):
            r = prefs[next_choice[a]]
            next_choice[a] += 1
            holder = fiance.get(r)
            if holder is None:
                fiance[r] = a
                break
            if receiver_rank[r][a] < receiver_rank[r][holder]:
                fiance[r] = a
                free.append(holder)
                break
    return fiance


def boy_optimal(inst: PreferenceInstance) -> Matching:
    """Deferred acceptance with boys proposing in ascending id order.

    The result is stable and dominates every stable matching of the instance.
    """
    return Matching((b, g) for g, b in _deferred_acceptance(inst.boy_prefs, inst.girl_rank).items())


def girl_optimal(inst: PreferenceInstance) -> Matching:
    """Deferred acceptance with girls proposing; the boy-pessimal stable matching."""
    return Matching(_deferred_acceptance(inst.girl_prefs, inst.boy_rank).items())


def _boy_rank_or_inf(inst, matching, b):
    g = matching.girl_of(b)
    return inst.boy_rank[b][g] if g is not None else len(inst.boy_prefs[b])


def dominates(inst: PreferenceInstance, m1: Matching, m2: Matching) -> bool:
    """True iff every boy weakly prefers his m1-partner to his m2-partner."""
    return all(
        _boy_rank_or_inf(inst, m1, b) <= _boy_rank_or_inf(inst, m2, b)
        for b in range(inst.n_boys)
    )


def _combine(inst, m1, m2, pick_better, validate):
    if validate:
        if not is_stable(inst, m1) or not is_stable(inst, m2):
            raise ValueError("meet/join inputs must be stable matchings")
    pairs = []
    for b in range(inst.n_boys):
        g1, g2 = m1.girl_of(b), m2.girl_of(b)
        if g1 is None and g2 is None:
            continue
        if g1 is None or g2 is None:
            # stable matchings of one instance match the same agents
            raise ValueError("meet/join inputs match different agent sets")
        ranks = inst.boy_rank[b]
        if (ranks[g1] <= ranks[g2]) == pick_better:
            pairs.append((b, g1))
        else:
            pairs.append((b, g2))
    return Matching(pairs)


def meet(inst: PreferenceInstance, m1: Matching, m2: Matching, validate: bool = True) -> Matching:
    """Boy-side best of two stable matchings: each boy takes his preferred partner."""
    return _combine(inst, m1, m2, True, validate)


def join(inst: PreferenceInstance, m1: Matching, m2: Matching, validate: bool = True) -> Matching:
    """Boy-side worst of two stable matchings: each boy takes his less preferred partner."""
    return _combine(inst, m1, m2, False, validate)


def serialize_matching(inst: PreferenceInstance, matching: Matching) -> str:
    """One ``b<i> g<j>`` line per pair sorted by boy id, then unmatched agents."""
    boy_names, girl_names = inst.boy_names, inst.girl_names
    lines = [f"{boy_names[b]} {girl_names[g]}" for b, g in matching.pairs]
    boys, girls = unmatched_agents(inst, matching)
    if boys or girls:
        lines.append("# unmatched")
        lines.extend(boy_names[b] for b in boys)
        lines.extend(girl_names[g] for g in girls)
    return "\n".join(lines) + ("\n" if lines else "")
