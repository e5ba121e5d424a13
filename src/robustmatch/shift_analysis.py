"""What a single upward preference shift does to the set of stable matchings.

Moving one entry up in one list can only create one new blocking pair
candidate: the moved agent together with the list owner.  Which stable
matchings that pair actually breaks is an interval-like slice of the
lattice, pinned down by at most one entry rotation and one exit rotation.
Both list sides are read off the partner chains of the instance's one
rotation poset, one (slot positions, boundary ids) value per agent (see
``RotationPoset``), by one rule, mirrored between the sides because a girl
rises across the boundaries of her chain and a boy falls.  This module
computes those rotations for a shift and classifies the outcome;
``representation.sublattice_poset`` turns a PROPER or DISJOINT outcome into
the destabilized set's ``Sublattice``, the same condensation that builds the
robust set.

A shift's outcome depends on its window only through which of the owner's
stable partners the window holds.  The owner's partners sit at ascending
positions p_0 < p_1 < ... on its list, and ``right`` of them lie above the
mover's position i.  A window of k entries holds slots j..right-1 with
j = bisect_left(p, i - k), so the windows of one mover fall into runs with
one outcome each: run j < right covers k in [i - p_j, i - p_{j-1} - 1]
(p_{-1} = -1), and the shorter windows, run ``right``, hold no partner and
break nothing (EMPTY_MAB).  The mover's partner crosses the owner's
position q on the mover's list at boundary bisect_right(positions, q) of the
mover's chain (see ``_mover_crossing``); a mover that never prefers the
owner breaks nothing either.  Otherwise run j has one outcome:

- run j pairs the mover's crossing with boundary j of the owner's chain:
  (entry, exit) on a girl list, (exit, entry) on a boy list, None standing
  for the bottom and top;
- with both None the run breaks every matching (DISJOINT);
- with the exit at or below the entry it breaks none (EMPTY_MAB);
- otherwise it is PROPER with that entry and exit.

Why: a matching breaks when the owner's partner lies in the window, where
the mover outranks it after the shift, and the mover prefers the owner.  A
girl owner rises across her boundaries, so she holds a partner in the window
of run j from boundary ``right`` to boundary j; a boy owner falls across
his, the mirror, from boundary j to boundary ``right``.  The mover prefers
the owner from its crossing on: on a girl list the crossing is a second
entry, on a boy list a second exit.  In a stable matching where the mover
prefers the owner, the owner's partner cannot rank below the mover, or the
two would form a blocking pair, so the owner holds one of its ``right``
partners above the mover: the crossing's condition implies boundary
``right``'s, and the crossing alone fixes that end of every run.  A mover
with no crossing prefers the owner in every stable matching, or is unmatched
in all of them (the rural hospitals theorem), so by the same argument
boundary ``right`` is None there too.  With both ends None the window holds
every stable partner of the owner and the mover always prefers the owner.

``analyze_shift`` applies the rule to the run of one shift.
``uniform_weights`` reads the whole domain without visiting shifts, mover by
mover: each mover walks its own list only as far as it prefers an owner in
some stable matching, reading its crossing off a pointer into its chain
instead of a bisection, and a mover unmatched in every stable matching (the
rural hospitals theorem) walks the whole list with no crossing.  For each
(owner, mover) pair it reaches, ``_add_runs`` finds how many runs survive
and adds the windows of each surviving run into one table {(rho_in,
rho_out): windows}, the form in which the closure network reads either
distribution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .instance import BOY_LIST, GIRL_LIST, PreferenceInstance, Shift, mover_position
from .matching import Matching
from .rotations import RotationPoset

DISJOINT = "DISJOINT"        # no stable matching survives the shift
EMPTY_MAB = "EMPTY_MAB"      # every stable matching survives the shift
PROPER = "PROPER"            # some survive, some break; entry/exit rotations apply

STATUSES = (DISJOINT, EMPTY_MAB, PROPER)


@dataclass(frozen=True)
class ShiftAnalysis:
    """Outcome of one shift.  rho_in/rho_out are rotation ids; None stands for
    the virtual bottom (always applied) and top (never applied) endpoints.
    Both are None exactly when the status is not PROPER, which lets a table
    keyed by (rho_in, rho_out) hold the DISJOINT mass at (None, None)."""

    shift: Shift
    status: str
    rho_in: int | None = None
    rho_out: int | None = None

    def destabilizes_mask(self, mask: int) -> bool:
        """Whether the stable matching with this closed rotation set breaks."""
        if self.status == DISJOINT:
            return True
        if self.status != PROPER:
            return False
        if self.rho_in is not None and not (mask >> self.rho_in) & 1:
            return False
        return self.rho_out is None or not (mask >> self.rho_out) & 1


def _mover_crossing(poset: RotationPoset, inst: PreferenceInstance, side: str, owner: int, mover: int):
    """(never, crossing): where the mover's preference for the list owner flips.

    Read off the mover's own chain at k = bisect_right(positions, q), q the
    owner's position on the mover's list: slots 0..k-1 rank at or above the
    owner and the rest below.  never is True when the mover is matched in
    every stable matching and even the worst slot ranks at or above the owner
    (k = len(positions)).  Otherwise crossing is boundary k: the rotation
    after which a boy mover (who only gets worse) prefers the girl owner, or
    a girl mover (who only gets better) stops preferring the boy owner; None
    when that never changes.
    """
    girl_mover = side == BOY_LIST
    positions, boundaries = (poset.girl_chains if girl_mover else poset.boy_chains).get(mover, ((), ()))
    if not positions:
        return False, None
    k = bisect_right(positions, (inst.girl_rank if girl_mover else inst.boy_rank)[mover][owner])
    return k == len(positions), boundaries[k]


def _window_runs(poset: RotationPoset, inst: PreferenceInstance, shift: Shift):
    """(owner's boundary ids, right, run j) of one shift, by two bisects on
    the owner's chain (see the module docstring)."""
    i = mover_position(inst, shift)
    positions, boundaries = (poset.girl_chains if shift.side == GIRL_LIST else poset.boy_chains).get(shift.agent, ((), ()))
    right = bisect_left(positions, i)
    return boundaries, right, bisect_left(positions, i - shift.window, 0, right)


def find_component_rotations(poset: RotationPoset, inst: PreferenceInstance, shift: Shift):
    """(rho1, rho2, rho3) for a girl-list shift; None where a rotation does not exist.

    rho1 moves the girl to her worst stable partner inside the window, rho2
    moves the mover below the girl, rho3 moves the girl away from her best
    stable partner inside the window.  A PROPER shift enters at rho2 and
    exits at rho3.  Whenever the mover prefers the girl in some stable
    matching, rho1 lies at or below rho2 (see the module docstring), so rho1
    takes no part in the analysis.
    """
    if shift.side != GIRL_LIST:
        raise ValueError("component rotations are defined on girl-list shifts; reverse roles first")
    boundaries, right, run = _window_runs(poset, inst, shift)
    rho1, rho3 = (boundaries[right], boundaries[run]) if run < right else (None, None)
    _, rho2 = _mover_crossing(poset, inst, shift.side, shift.agent, shift.mover)
    return rho1, rho2, rho3


def analyze_shift(poset: RotationPoset, inst: PreferenceInstance, shift: Shift) -> ShiftAnalysis:
    """Classify one shift and find its entry/exit rotations: the outcome of
    the run of windows that holds it, by the rule in the module docstring."""
    boundaries, right, run = _window_runs(poset, inst, shift)
    if run == right:
        return ShiftAnalysis(shift, EMPTY_MAB)
    never, crossing = _mover_crossing(poset, inst, shift.side, shift.agent, shift.mover)
    if never:
        return ShiftAnalysis(shift, EMPTY_MAB)
    if shift.side == GIRL_LIST:
        rho_in, rho_out = crossing, boundaries[run]
    else:
        rho_in, rho_out = boundaries[run], crossing
    if rho_in is None and rho_out is None:
        return ShiftAnalysis(shift, DISJOINT)
    if rho_in is not None and rho_out is not None and poset.leq(rho_out, rho_in):
        return ShiftAnalysis(shift, EMPTY_MAB)
    return ShiftAnalysis(shift, PROPER, rho_in, rho_out)


def _add_runs(weights: dict, poset: RotationPoset, girl: bool, boundaries, widths, right: int, crossing) -> None:
    """Add one (owner, mover) pair's windows into ``weights``, for a mover
    that does not ``never`` prefer the owner, with ``right`` stable partners
    of the owner above it: run j holds widths[j] windows and, unless
    EMPTY_MAB, adds them to the entry that pairs the crossing with boundary
    j of the owner's chain, (crossing, bd[j]) on a girl list and (bd[j],
    crossing) on a boy list.

    Run j is EMPTY_MAB exactly when leq(bd[j], crossing) on a girl list and
    leq(crossing, bd[j]) on a boy list, and these runs form a suffix
    t..right-1.  A girl's partners improve along every maximal chain of the
    lattice, so her boundaries are a chain in the rotation order,
    bd[right-1] < ... < bd[2] < bd[1]: bd[j] ascends as j falls, and if
    leq(bd[j], crossing) holds, then so does leq(bd[j'], crossing) for every
    j' > j.  A boy's boundaries descend as j falls, and leq(crossing, bd[j])
    carries over to every j' > j in the same way.  Hence t is found by
    stepping back from run right-1 while the run is EMPTY_MAB.  Run 0 is
    never EMPTY_MAB (bd[0] is None), so the scan stops at run 1, and without
    a crossing no run is, so t = right then, as with one run.
    """
    t = right
    if crossing is not None:
        while t > 1 and (poset.leq(boundaries[t - 1], crossing) if girl else poset.leq(crossing, boundaries[t - 1])):
            t -= 1
    for j in range(t):
        outcome = (crossing, boundaries[j]) if girl else (boundaries[j], crossing)
        weights[outcome] = weights.get(outcome, 0) + widths[j]


def uniform_weights(poset: RotationPoset, inst: PreferenceInstance) -> dict:
    """The whole shift domain of the instance, as {(rho_in, rho_out): windows}.

    Every shift of the domain that is not EMPTY_MAB adds one window to the
    entry of its outcome; (None, None) is DISJOINT and every other key is
    PROPER.  For one mover at position i on an owner's list, run j < right
    holds p_j - p_{j-1} windows (p_{-1} = -1), which does not depend on the
    mover, so each (owner, mover) pair adds those widths straight into the
    entries of its surviving runs (``_add_runs``): no per-shift object or
    call, one backward scan over the runs per pair.

    The walk is mover-major, so that it visits only the pairs that can
    block.  A mover with a chain prefers an owner in some stable matching
    only when the owner sits above its worst stable partner, so it walks
    its own list down to that partner, and a pointer over its slot
    positions gives k = bisect_right(positions, q) at each position q, and
    so the crossing boundary k.  A mover with no chain is unmatched in
    every stable matching (the rural hospitals theorem: Gale and Sotomayor,
    "Some remarks on the stable matching problem", Discrete Appl. Math. 11,
    1985), so it prefers every owner on its list: it walks the whole list
    with no crossing, as if its one slot sat just past the list's end.  Every
    owner it reaches has a chain, since an owner unmatched in every stable
    matching would form a blocking pair with the mover.  The owner adds
    windows only if the mover sits below its best stable partner.
    """
    weights: dict[tuple[int | None, int | None], int] = {}
    sides = (
        (GIRL_LIST, inst.boy_prefs, inst.girl_rank, poset.boy_chains, poset.girl_chains),
        (BOY_LIST, inst.girl_prefs, inst.boy_rank, poset.girl_chains, poset.boy_chains),
    )
    for side, mover_lists, owner_ranks, mover_chains, owner_chains in sides:
        girl = side == GIRL_LIST
        owners = {
            owner: (positions, boundaries, [p - q for p, q in zip(positions, (-1,) + positions)])
            for owner, (positions, boundaries) in owner_chains.items()
        }
        for mover, prefs in enumerate(mover_lists):
            slots, crossings = mover_chains.get(mover, ((len(prefs),), (None, None)))
            k = 0
            for q in range(slots[-1]):
                if slots[k] <= q:
                    k += 1
                owner = prefs[q]
                positions, boundaries, widths = owners[owner]
                i = owner_ranks[owner][mover]
                if i > positions[0]:
                    _add_runs(weights, poset, girl, boundaries, widths, bisect_left(positions, i), crossings[k])
    return weights


def characterize_MAB(inst: PreferenceInstance, shift: Shift, matching: Matching) -> bool:
    """Positional test for whether the shift destabilizes a stable matching.

    True exactly when the list owner's partner sits inside the shift window
    and the mover prefers the owner to their own situation (any acceptable
    partner beats being unmatched).
    """
    i = mover_position(inst, shift)
    if shift.side == GIRL_LIST:
        owner_rank = inst.girl_rank[shift.agent]
        partner = matching.boy_of(shift.agent)
        mate = matching.girl_of(shift.mover)
        mover_rank = inst.boy_rank[shift.mover]
    else:
        owner_rank = inst.boy_rank[shift.agent]
        partner = matching.girl_of(shift.agent)
        mate = matching.boy_of(shift.mover)
        mover_rank = inst.girl_rank[shift.mover]
    if partner is None:
        return False
    pos = owner_rank[partner]
    if pos < i - shift.window or pos >= i:
        return False
    return mate is None or mover_rank[mate] > mover_rank[shift.agent]
