"""Every sublattice of stable matchings the program hands back, as one type.

A ``Sublattice`` compresses the rotation poset: rotations forced into every
member, rotations forced out of every member, and an order on the free
rest, whose downward-closed subsets are in bijection with the members.
One builder, ``condense``, makes every one of them from a graph of forcing
arcs alone, over the rotations plus a bottom endpoint (in every set) and a
top endpoint (in none).  The arcs fix both ends (Picard and Queyranne, "On
the structure of all minimum cuts in a network", 1980): whatever reaches
the bottom is forced in, whatever the top reaches is forced out, and the
strongly connected components of the free rest, contracted, give a DAG
whose downward-closed subsets are the members.  Two callers pass
different arcs.  Every reader of the members goes through
``Sublattice.member_masks``, one pass of ``closed_subsets`` over the free
elements' rotation masks, or, for a single member, through
``robust_members``.

A shift's destabilized set (``sublattice_poset``, which returns the
``Sublattice`` alone) is the Hasse arcs plus two: one from its entry
rotation to the bottom and one from the top to its exit rotation.  The
free rotations form a convex set, so each is a component of its own and
their covers give the induced order.  A DISJOINT shift has neither
rotation: its set is the whole lattice.

The robust set (``build_robust_poset``): one max flow pins down one robust
matching, but usually many closed sets achieve the same minimum.  They are
exactly the residual-closed vertex sets: no residual edge may enter the set
from outside.  So the arcs are the residual edges; the mandatory rotations,
those with a residual path to the bottom, are the solver's own cut, and a
top with such a path means the flow is not maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import ClosureNetwork, FlowResult
from .matching import Matching
from .rotations import (
    RotationPoset,
    closed_set_to_matching,
    closed_subsets,
    ids_to_mask,
    topological_order,
)
from .shift_analysis import DISJOINT, PROPER, ShiftAnalysis


def _reached(adj, start: int) -> list[bool]:
    """Which nodes a walk along adj from start reaches, start included."""
    seen = [False] * len(adj)
    seen[start] = True
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _strong_components(succ, pred, inside: list[bool]) -> tuple[int, list[int]]:
    """(component count, component id per node, -1 for the nodes not
    inside): the strongly connected components of the subgraph the inside
    nodes induce, by Kosaraju's two passes, a finishing order over succ,
    then, in reverse finishing order, one walk over the transpose pred per
    component."""
    seen = [not i for i in inside]
    finished: list[int] = []
    for root in range(len(succ)):
        stack = [root]
        while stack:
            u = stack.pop()
            if u < 0:
                finished.append(~u)
            elif not seen[u]:
                seen[u] = True
                stack.append(~u)  # u finishes once every successor pushed after it has
                stack.extend(succ[u])
    comp = [-1] * len(succ)
    count = 0
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root] = count
            stack = [root]
            while stack:
                for v in pred[stack.pop()]:
                    if inside[v] and comp[v] < 0:
                        comp[v] = count
                        stack.append(v)
            count += 1
    return count, comp


@dataclass(frozen=True)
class Sublattice:
    """The compression of the rotation poset that represents one sublattice.

    Folded to mandatory/excluded rotations plus a DAG of free elements, each
    a set of rotations.  free_elements come in a topological order of the
    DAG; edges (i, j) mean element i must be included whenever j is.  Each
    downward-closed subset of free elements yields one distinct member, the
    mandatory rotations plus its elements' rotations; member_masks lists
    them all, and robust_members looks one up.
    """

    poset: RotationPoset
    mandatory: tuple[int, ...]                 # rotations in every member
    excluded: tuple[int, ...]                  # rotations in no member
    free_elements: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def _element_masks(self) -> tuple[list[int], list[int]]:
        """(preds, items): per free element, the OR of its predecessor
        elements' rotation masks, and the mask of its own rotations."""
        items = [ids_to_mask(element) for element in self.free_elements]
        preds = [0] * len(items)
        for i, j in self.edges:
            preds[j] |= items[i]
        return preds, items

    def member_masks(self) -> list[int]:
        """The rotation mask of every member, each exactly once.

        The boy-best member (the mandatory rotations alone) comes first and
        every set before its supersets; see closed_subsets.
        """
        return closed_subsets(*self._element_masks(), ids_to_mask(self.mandatory))


def condense(poset: RotationPoset, succ) -> Sublattice:
    """The sublattice of the closed sets that respect a graph of forcing arcs.

    Nodes are the rotations, then the bottom endpoint ``poset.size`` (in
    every set) and the top endpoint ``poset.size + 1`` (in none); succ[u]
    lists the heads of the arcs out of u, and an arc u -> v means that v in
    a set forces u in.  The arcs alone fix both ends: the rotations with a
    path to the bottom are mandatory, found by one walk back from it over
    the transpose, and the rotations the top reaches, one walk forward, are
    excluded.  A top that reaches the bottom leaves no such closed set and
    raises ValueError.  No path joins a free rotation to either kind in the
    direction that would force it, so the strongly connected components of
    the free rotations alone are those of the whole graph; contracted, and
    ordered smallest least member first, they are the free elements.
    """
    bottom, top = poset.size, poset.size + 1
    pred: list[list[int]] = [[] for _ in succ]
    for u, heads in enumerate(succ):
        for v in heads:
            pred[v].append(u)
    forced, barred = _reached(pred, bottom), _reached(succ, top)
    if forced[top]:
        raise ValueError("the top endpoint reaches the bottom endpoint: no closed set respects the arcs")
    count, comp = _strong_components(succ, pred, [not (f or b) for f, b in zip(forced, barred)])
    members: list[list[int]] = [[] for _ in range(count)]
    for r in range(poset.size):
        if comp[r] >= 0:
            members[comp[r]].append(r)
    dag_pred = [{comp[u] for r in rs for u in pred[r] if comp[u] >= 0} - {c} for c, rs in enumerate(members)]
    order = topological_order(dag_pred, [rs[0] for rs in members])
    position = [0] * count
    for i, c in enumerate(order):
        position[c] = i
    return Sublattice(
        poset=poset,
        mandatory=tuple(r for r in range(poset.size) if forced[r]),
        excluded=tuple(r for r in range(poset.size) if barred[r]),
        free_elements=tuple(tuple(members[c]) for c in order),
        edges=tuple(sorted((position[c], position[d]) for d in range(count) for c in dag_pred[d])),
    )


def build_robust_poset(network: ClosureNetwork, flow: FlowResult) -> Sublattice:
    """Condense the residual graph into the poset of optimal closed sets.

    The arcs are the edges with positive residual capacity.  Raises
    ValueError when the flow is not maximum: then the top endpoint has a
    residual path to the bottom one.
    """
    to, cap = flow.to, flow.cap
    succ = [[to[e] for e in edges if cap[e] > 0] for edges in flow.adj]
    try:
        return condense(network.poset, succ)
    except ValueError:
        raise ValueError("flow is not maximum: an augmenting path remains") from None


def robust_members(robust: Sublattice, element_ids) -> Matching:
    """The member selected by a closed set of free elements.

    Raises ValueError when an id names no free element or when the set is
    not downward closed.
    """
    chosen = set(element_ids)
    preds, items = robust._element_masks()
    if not chosen.issubset(range(len(items))):
        raise ValueError("element set contains unknown ids")
    selected = ids_to_mask(robust.mandatory)
    for i in chosen:
        selected |= items[i]
    if any(preds[i] & ~selected for i in chosen):
        raise ValueError("element set is not downward closed in the sublattice")
    return closed_set_to_matching(robust.poset, selected)


def enumerate_robust(robust: Sublattice) -> list[Matching]:
    """Every member of any ``Sublattice`` exactly once, in member_masks
    order: the robust set, or a shift's destabilized set."""
    return [closed_set_to_matching(robust.poset, mask) for mask in robust.member_masks()]


def sublattice_poset(poset: RotationPoset, analysis: ShiftAnalysis) -> Sublattice:
    """The sublattice of the matchings a shift destabilizes.

    The condensation of the Hasse arcs plus two: one from the entry rotation
    to the bottom, so everything at or below it is mandatory, and one from
    the top to the exit rotation, so everything at or above it is excluded.
    Each remaining rotation is a free element of its own, in ascending id.
    A DISJOINT analysis has neither rotation, so its sublattice is the whole
    lattice.  An EMPTY_MAB analysis destabilizes nothing and raises
    ValueError.
    """
    if analysis.status not in (PROPER, DISJOINT):
        raise ValueError(f"sublattice is only defined for PROPER and DISJOINT analyses, not {analysis.status}")
    rho_in, rho_out = analysis.rho_in, analysis.rho_out
    succ = [*poset.hasse_succs, (), ()]
    if rho_in is not None:
        succ[rho_in] = (*succ[rho_in], poset.size)
    if rho_out is not None:
        succ[-1] = (rho_out,)
    return condense(poset, succ)
