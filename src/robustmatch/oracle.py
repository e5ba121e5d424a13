"""Brute-force ground truth for every structural and optimization claim.

Everything here recomputes results from first principles at small sizes so the
structured algorithms can be checked against it.  The module deliberately
depends only on the instance and matching primitives: it never touches the
rotation-poset builder, the shift analysis, or the flow solver it exists to
validate.  Size guards are hard errors, not warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import PreferenceInstance, Shift, ShiftDistribution, apply_shift
from .matching import Matching, boy_optimal, is_stable

MAX_BRUTEFORCE_N = 8
MAX_POSET_N = 7


def _guard(inst: PreferenceInstance, limit: int, what: str):
    size = max(inst.n_boys, inst.n_girls)
    if size > limit:
        raise ValueError(f"{what} is limited to instances with at most {limit} agents per side, got {size}")


def enumerate_stable_bruteforce(inst: PreferenceInstance) -> list[Matching]:
    """Every stable matching, found by exhaustive assignment with pruning.

    Boys choose a partner from their list (or stay unmatched) one at a time.
    A branch dies as soon as two already-decided agents form a blocking pair;
    every surviving leaf is re-checked with is_stable from scratch.
    """
    _guard(inst, MAX_BRUTEFORCE_N, "brute-force stable enumeration")
    n = inst.n_boys
    taken: dict[int, int] = {}  # girl -> boy, decided so far
    chosen: list[int | None] = [None] * n
    found: list[Matching] = []

    def blocked_by_decided(b: int, g: int | None) -> bool:
        # girls above g on b's list, already taken, who prefer b
        upto = len(inst.boy_prefs[b]) if g is None else inst.boy_rank[b][g]
        for above in inst.boy_prefs[b][:upto]:
            holder = taken.get(above)
            if holder is not None and inst.girl_rank[above][b] < inst.girl_rank[above][holder]:
                return True
        if g is None:
            return False
        # decided boys whom g prefers to b and who prefer g to their choice
        for other in inst.girl_prefs[g][: inst.girl_rank[g][b]]:
            if other < b:
                his = chosen[other]
                if his is None or inst.boy_rank[other][g] < inst.boy_rank[other][his]:
                    return True
        return False

    def extend(b: int):
        if b == n:
            m = Matching((i, g) for i, g in enumerate(chosen) if g is not None)
            if is_stable(inst, m):
                found.append(m)
            return
        for g in inst.boy_prefs[b]:
            if g in taken:
                continue
            if blocked_by_decided(b, g):
                continue
            taken[g] = b
            chosen[b] = g
            extend(b + 1)
            del taken[g]
            chosen[b] = None
        if not blocked_by_decided(b, None):
            extend(b + 1)

    extend(0)
    found.sort(key=lambda m: m.pairs)
    return found


def destabilized_set(inst, shift: Shift, matchings) -> frozenset[int]:
    """Indices of the given matchings that stop being stable under the shift."""
    shifted = apply_shift(inst, shift)
    return frozenset(i for i, m in enumerate(matchings) if not is_stable(shifted, m))


def oracle_objective(inst, dist: ShiftDistribution, matching: Matching) -> Fraction:
    """Probability mass of shifts that destabilize the matching, by direct test."""
    total = Fraction(0)
    for shift, p in dist.entries:
        if not is_stable(apply_shift(inst, shift), matching):
            total += p
    return total


def oracle_argmin(inst, dist, stable=None):
    """(minimum objective, list of stable matchings attaining it)."""
    if stable is None:
        stable = enumerate_stable_bruteforce(inst)
    if not stable:
        raise ValueError("instance has no stable matching to rank")
    objectives = [oracle_objective(inst, dist, m) for m in stable]
    best = min(objectives)
    winners = [m for m, obj in zip(stable, objectives) if obj == best]
    return best, winners


# ---------------------------------------------------------------------------
# lattice exploration

def _exposed_cycles(inst, matching):
    """Minimal partner-exchange cycles applicable to a stable matching.

    Returns (cycle, new_girl) entries where cycle is the canonical tuple of
    current (boy, girl) pairs and new_girl maps each cycle boy to the partner
    he holds after the exchange.
    """
    nxt = {}
    target = {}
    for b, g in matching.pairs:
        start = inst.boy_rank[b][g] + 1
        for g2 in inst.boy_prefs[b][start:]:
            holder = matching.boy_of(g2)
            if holder is None:
                break  # a girl preferring anyone acceptable halts the scan
            if inst.girl_rank[g2][b] < inst.girl_rank[g2][holder]:
                nxt[b] = holder
                target[b] = g2
                break
    state = {}  # 0 in progress, 1 done
    cycles = []
    for b0 in sorted(nxt):
        if b0 in state:
            continue
        path = []
        b = b0
        while b in nxt and state.get(b) is None:
            state[b] = 0
            path.append(b)
            b = nxt[b]
        if b in state and state[b] == 0:
            at = path.index(b)
            cycle_boys = path[at:]
            k = cycle_boys.index(min(cycle_boys))
            cycle_boys = cycle_boys[k:] + cycle_boys[:k]
            pairs = tuple((x, matching.girl_of(x)) for x in cycle_boys)
            cycles.append((pairs, {x: target[x] for x in cycle_boys}))
        for x in path:
            state[x] = 1
    cycles.sort()
    return cycles


def _apply_cycle(matching, pairs, new_girl):
    replaced = dict(matching.pairs)
    for b, _ in pairs:
        replaced[b] = new_girl[b]
    return Matching(replaced.items())


@dataclass
class OraclePoset:
    """Exchange cycles of the full lattice, ordered by what every path agrees on."""

    rotations: tuple[tuple[tuple[int, int], ...], ...]
    matching_sets: dict  # Matching -> frozenset of rotation indices
    stable: tuple

    def leq(self, i: int, j: int) -> bool:
        """i precedes j: every recorded closed set containing j contains i."""
        if i == j:
            return True
        return all(i in s for s in self.matching_sets.values() if j in s)

    def relation(self) -> frozenset:
        n = len(self.rotations)
        return frozenset((i, j) for i in range(n) for j in range(n) if i != j and self.leq(i, j))


def oracle_poset(inst: PreferenceInstance) -> OraclePoset:
    """Explore the whole lattice from the boy-optimal matching.

    Walks every exchange-cycle elimination path, records which cycles each
    reachable matching used, and derives precedence purely from those sets.
    """
    _guard(inst, MAX_POSET_N, "oracle poset construction")
    m0 = boy_optimal(inst)
    ids: dict[tuple, int] = {}
    sets: dict[Matching, frozenset[int]] = {m0: frozenset()}
    queue = [m0]
    while queue:
        m = queue.pop()
        base = sets[m]
        for pairs, new_girl in _exposed_cycles(inst, m):
            rid = ids.setdefault(pairs, len(ids))
            nm = _apply_cycle(m, pairs, new_girl)
            ns = base | {rid}
            if nm in sets:
                if sets[nm] != ns:
                    raise AssertionError(
                        "two elimination paths disagree on a matching's cycle set"
                    )
            else:
                sets[nm] = ns
                queue.append(nm)
    rotations = tuple(p for p, _ in sorted(ids.items(), key=lambda kv: kv[1]))
    stable = tuple(sorted(sets, key=lambda m: m.pairs))
    return OraclePoset(rotations, sets, stable)
