"""What a single upward preference shift does to the set of stable matchings.

Moving one entry up in one list can only create one new blocking pair
candidate: the moved agent together with the list owner.  Which stable
matchings that pair actually breaks is an interval-like slice of the
lattice, pinned down by at most one entry rotation and one exit rotation.
Both list sides are read off the instance's one rotation poset: a girl's
stable partners only improve along the lattice and a boy's only worsen, so
the same positional rule serves a girl-list shift and its mirror image.
This module computes those rotations for a shift, classifies the outcome,
and exposes the destabilized set as a poset fragment of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .instance import GIRL_LIST, PreferenceInstance, Shift, mover_position
from .matching import Matching
from .rotations import RotationPoset, closed_set_to_matching

DISJOINT = "DISJOINT"        # no stable matching survives the shift
EMPTY_MAB = "EMPTY_MAB"      # every stable matching survives the shift
PROPER = "PROPER"            # some survive, some break; entry/exit rotations apply

STATUSES = (DISJOINT, EMPTY_MAB, PROPER)


@dataclass(frozen=True)
class ShiftAnalysis:
    """Outcome of one shift.  rho_in/rho_out are rotation ids; None stands for
    the virtual bottom (always applied) and top (never applied) endpoints and
    the two fields are only meaningful when the status is PROPER."""

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


def _window_rotations(poset: RotationPoset, inst: PreferenceInstance, shift: Shift):
    """(entry, exit) rotations of the list owner's stable partners inside the window.

    The window is the run of positions the mover jumps over; a partner there
    is outranked by the mover after the shift.  The owner holds an in-window
    partner exactly in the matchings that contain the entry rotation and not
    the exit one (None for the bottom and top).  Returns None when no stable
    partner falls inside the window.
    """
    owner, i = shift.agent, mover_position(inst, shift)
    if shift.side == GIRL_LIST:
        slot_positions, slot_partners = poset.girl_slot_positions, poset.girl_slot_boys
    else:
        slot_positions, slot_partners = poset.boy_slot_positions, poset.boy_slot_girls
    positions = slot_positions.get(owner)
    if not positions:
        return None
    left = bisect_left(positions, i - shift.window)
    right = bisect_left(positions, i)
    if left == right:
        return None
    partners = slot_partners[owner]
    if shift.side == GIRL_LIST:
        # a girl's best in-window partner is the last one she reaches
        first, last = (partners[right - 1], owner), (partners[left], owner)
    else:
        first, last = (owner, partners[left]), (owner, partners[right - 1])
    return poset.post_pair.get(first), poset.pre_pair.get(last)


def _mover_crossing(poset: RotationPoset, inst: PreferenceInstance, shift: Shift):
    """(never, crossing): where the mover's preference for the list owner flips.

    never is True when the mover is matched in every stable matching and
    even the mover's worst stable partner ranks at or above the owner.
    Otherwise crossing is the rotation after which a boy mover (who only
    gets worse) prefers the girl owner, or a girl mover (who only gets
    better) stops preferring the boy owner; None when that never changes.
    """
    owner, mover = shift.agent, shift.mover
    if shift.side == GIRL_LIST:
        rank, worst, best = inst.boy_rank[mover], poset.girl_opt.girl_of(mover), poset.boy_opt.girl_of(mover)
        crossing = poset.below_girl.get((mover, owner))
    else:
        rank, worst, best = inst.girl_rank[mover], poset.boy_opt.boy_of(mover), poset.girl_opt.boy_of(mover)
        crossing = poset.above_boy.get((mover, owner))
    if worst is not None and rank[worst] <= rank[owner]:
        return True, None
    if crossing is None and best is not None and rank[best] <= rank[owner]:
        raise AssertionError("mover crosses the list owner but no rotation records it")
    return False, crossing


def find_component_rotations(poset: RotationPoset, inst: PreferenceInstance, shift: Shift):
    """(rho1, rho2, rho3) for a girl-list shift; None where a rotation does not exist.

    rho1 moves the girl to her worst stable partner inside the window, rho2
    moves the mover below the girl, rho3 moves the girl away from her best
    stable partner inside the window.
    """
    if shift.side != GIRL_LIST:
        raise ValueError("component rotations are defined on girl-list shifts; reverse roles first")
    rho1, rho3 = _window_rotations(poset, inst, shift) or (None, None)
    _, rho2 = _mover_crossing(poset, inst, shift)
    return rho1, rho2, rho3


def analyze_shift(poset: RotationPoset, inst: PreferenceInstance, shift: Shift) -> ShiftAnalysis:
    """Classify one shift and find its entry/exit rotations.

    A matching breaks when the owner's partner lies in the window and the
    mover prefers the owner.  On a girl list the mover's crossing is a
    second entry, which never precedes the window's; on a boy list it is a
    second exit, which never follows the window's.  With neither endpoint
    left, the window holds every stable partner of the owner and the mover
    always prefers the owner, so every matching breaks.
    """
    window = _window_rotations(poset, inst, shift)
    if window is None:
        return ShiftAnalysis(shift, EMPTY_MAB)
    never, crossing = _mover_crossing(poset, inst, shift)
    if never:
        return ShiftAnalysis(shift, EMPTY_MAB)
    rho_in, rho_out = window
    if crossing is not None:
        if shift.side == GIRL_LIST:
            rho_in = crossing
        else:
            rho_out = crossing
    if rho_in is None and rho_out is None:
        return ShiftAnalysis(shift, DISJOINT)
    if rho_in is not None and rho_out is not None and poset.leq(rho_out, rho_in):
        if crossing is None:
            raise AssertionError("exit rotation precedes entry rotation in a proper analysis")
        return ShiftAnalysis(shift, EMPTY_MAB)
    return ShiftAnalysis(shift, PROPER, rho_in, rho_out)


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


# ---------------------------------------------------------------------------
# the destabilized set as a lattice of its own

@dataclass(frozen=True)
class SublatticePoset:
    """Rotation poset fragment generating the destabilized matchings.

    Starting from the matching generated by in_mask, applying any closed
    subset of fragment_ids (order induced from the full poset) stays inside
    the destabilized set, and every destabilized matching arises that way.
    """

    poset: RotationPoset
    in_mask: int
    out_mask: int
    fragment_ids: tuple[int, ...]

    @property
    def fragment_mask(self) -> int:
        mask = 0
        for v in self.fragment_ids:
            mask |= 1 << v
        return mask

    def closed_masks(self) -> list[int]:
        closure = self.poset.pred_closure
        fmask = self.fragment_mask
        ids = self.fragment_ids
        out: list[int] = []

        def grow(mask: int, start: int):
            out.append(mask)
            for at in range(start, len(ids)):
                v = ids[at]
                if not (mask >> v) & 1 and (closure[v] & fmask & ~mask) == 0:
                    grow(mask | (1 << v), at + 1)

        grow(0, 0)
        return out

    def matchings(self) -> list[Matching]:
        return [closed_set_to_matching(self.poset, self.in_mask | m) for m in self.closed_masks()]


def sublattice_poset(poset: RotationPoset, analysis: ShiftAnalysis):
    """(fragment, boy-best destabilized matching, girl-best destabilized matching).

    Only proper analyses have a destabilized sublattice; everything at or
    below the entry rotation is forced in, everything at or above the exit
    rotation is forced out, and the fragment is what remains free.
    """
    if analysis.status != PROPER:
        raise ValueError(f"sublattice is only defined for PROPER analyses, not {analysis.status}")
    in_mask = 0
    if analysis.rho_in is not None:
        in_mask = poset.pred_closure[analysis.rho_in] | (1 << analysis.rho_in)
    out_mask = 0
    if analysis.rho_out is not None:
        out_mask = poset.succ_closure[analysis.rho_out] | (1 << analysis.rho_out)
    fragment_ids = tuple(v for v in range(poset.size) if not ((in_mask | out_mask) >> v) & 1)
    boy_best = closed_set_to_matching(poset, in_mask)
    girl_best = closed_set_to_matching(poset, poset.full_mask & ~out_mask)
    return SublatticePoset(poset, in_mask, out_mask, fragment_ids), boy_best, girl_best
