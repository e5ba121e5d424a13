"""Every sublattice of stable matchings the program hands back, as one type.

A ``Sublattice`` compresses the rotation poset: rotations forced into every
member, rotations forced out of every member, and an order on the free
rest, whose downward-closed subsets are in bijection with the members.
One builder, ``condense``, makes every one of them from a graph of forcing
arcs on the rotations plus a bottom endpoint (in every set) and a top
endpoint (in none): the caller's mandatory rotations reach the bottom,
the rotations the top reaches are excluded, and the strongly connected
components of the arcs among the free rest, contracted, give a DAG whose
downward-closed subsets are the members.  Two callers pass different arcs.
Every reader of the members goes through ``Sublattice.member_masks``, one
pass of ``closed_subsets`` over the free elements' rotation masks, or,
for a single member, through ``robust_members``.

A shift's destabilized set (``sublattice_poset``, which returns the
``Sublattice`` alone) passes the Hasse arcs plus one arc from the top to
its exit rotation, and everything at or below its entry rotation as
mandatory; the free rotations form a convex set, so each is a component of
its own and their covers give the induced order.  A DISJOINT shift has
neither rotation: its set is the whole lattice.

The robust set (``build_robust_poset``): one max flow pins down one robust
matching, but usually many closed sets achieve the same minimum.  They are
exactly the residual-closed vertex sets: no residual edge may enter the set
from outside (Picard and Queyranne, "On the structure of all minimum cuts
in a network", 1980).  So the arcs are the residual edges, and the
mandatory rotations are those with a residual path to the bottom endpoint
-- the solver's own cut, as ``extract_closed_set`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import ClosureNetwork, FlowResult, extract_closed_set
from .matching import Matching
from .rotations import (
    RotationPoset,
    closed_set_to_matching,
    closed_subsets,
    ids_to_mask,
    mask_to_ids,
    topological_order,
)
from .shift_analysis import DISJOINT, PROPER, ShiftAnalysis


def _tarjan_scc(adj: list[list[int]]) -> tuple[int, list[int]]:
    """(component count, component id per vertex), iteratively."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    count = 0
    next_index = 0
    work: list[tuple[int, int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work.append((root, 0))
        while work:
            u, pi = work.pop()
            if pi == 0:
                index[u] = low[u] = next_index
                next_index += 1
                stack.append(u)
                on_stack[u] = True
            recurse = False
            for i in range(pi, len(adj[u])):
                v = adj[u][i]
                if index[v] == -1:
                    work.append((u, i + 1))
                    work.append((v, 0))
                    recurse = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            if recurse:
                continue
            if low[u] == index[u]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = count
                    if w == u:
                        break
                count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
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


def condense(poset: RotationPoset, succ, mandatory: int) -> Sublattice:
    """The sublattice of the closed sets that respect a graph of forcing arcs.

    Nodes are the rotations, then the bottom endpoint ``poset.size`` (in
    every set) and the top endpoint ``poset.size + 1`` (in none); succ[u]
    lists the heads of the arcs out of u, and an arc u -> v means that v in
    a set forces u in.  ``mandatory`` is the caller's mask of the rotations
    forced in, those that reach the bottom; the arcs out of them are never
    read.  The rotations one forward walk from the top reaches are excluded.  A cycle through a free rotation meets neither kind (it
    would make the rotation reach the bottom or be reached from the top), so
    components, DAG edges and the order of the free elements -- smallest
    least member first -- are computed over the free rotations alone.
    """
    top = poset.size + 1
    reached = [False] * (top + 1)
    reached[top] = True
    stack = [top]
    while stack:
        for v in succ[stack.pop()]:
            if not reached[v]:
                reached[v] = True
                stack.append(v)
    rotations = range(poset.size)
    excluded = tuple(r for r in rotations if reached[r])
    free = [r for r in rotations if not reached[r] and not (mandatory >> r) & 1]
    index = {r: i for i, r in enumerate(free)}
    free_adj = [[index[v] for v in succ[r] if v in index] for r in free]

    count, comp = _tarjan_scc(free_adj)
    members: list[list[int]] = [[] for _ in range(count)]
    for r, c in zip(free, comp):
        members[c].append(r)
    dag_pred: list[set[int]] = [set() for _ in range(count)]
    for i, heads in enumerate(free_adj):
        for j in heads:
            if comp[j] != comp[i]:
                dag_pred[comp[j]].add(comp[i])
    order = topological_order(dag_pred, [m[0] for m in members])
    position = [0] * count
    for i, c in enumerate(order):
        position[c] = i
    return Sublattice(
        poset=poset,
        mandatory=mask_to_ids(mandatory),
        excluded=excluded,
        free_elements=tuple(tuple(members[c]) for c in order),
        edges=tuple(sorted((position[c], position[d]) for d in range(count) for c in dag_pred[d])),
    )


def build_robust_poset(network: ClosureNetwork, flow: FlowResult) -> Sublattice:
    """Condense the residual graph into the poset of optimal closed sets.

    The arcs are the edges with positive residual capacity; the mandatory
    rotations are ``extract_closed_set``'s, which raises ValueError when
    the flow is not maximum.
    """
    mandatory, to, cap = extract_closed_set(network, flow), flow.to, flow.cap
    succ = [() if mandatory >> u & 1 else [to[e] for e in edges if cap[e] > 0] for u, edges in enumerate(flow.adj)]
    return condense(network.poset, succ, mandatory)


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

    The condensation of the Hasse arcs plus one arc from the top to the exit
    rotation: everything at or below the entry rotation is mandatory,
    everything at or above the exit rotation is excluded, and each remaining
    rotation is a free element of its own, in ascending id.  A DISJOINT
    analysis has neither, so its sublattice is the whole lattice.  An
    EMPTY_MAB analysis destabilizes nothing and raises ValueError.
    """
    if analysis.status not in (PROPER, DISJOINT):
        raise ValueError(f"sublattice is only defined for PROPER and DISJOINT analyses, not {analysis.status}")
    rho_in, rho_out = analysis.rho_in, analysis.rho_out
    mandatory = 0 if rho_in is None else poset.pred_closure[rho_in] | 1 << rho_in
    return condense(poset, [*poset.hasse_succs, (), () if rho_out is None else (rho_out,)], mandatory)
