"""Every sublattice of stable matchings the program hands back, as one type.

A ``Sublattice`` compresses the rotation poset: rotations forced into every
member, rotations forced out of every member, and an order on the free
rest, whose downward-closed subsets are in bijection with the members.  Two
sublattices are built here.

A shift's destabilized set (``sublattice_poset``) forces in everything at
or below its entry rotation and out everything at or above its exit
rotation; the free rotations form a convex set, so their covers give the
induced order.

The robust set (``build_robust_poset``): one max flow pins down one robust
matching, but usually many closed sets achieve the same minimum.  They are
exactly the residual-closed vertex sets: no residual edge may enter the set
from outside (Picard and Queyranne, "On the structure of all minimum cuts
in a network", 1980).  Rotations with a residual path to the bottom
endpoint -- the solver's own cut, as ``extract_closed_set`` reads it -- are
forced into every optimum; rotations the top endpoint reaches can never be
used; everything else is free.  Contracting the strongly connected
components of the residual graph on the free rotations gives a DAG whose
downward-closed subsets are in bijection with the optimal closed sets.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .flow import ClosureNetwork, FlowResult, extract_closed_set
from .matching import Matching
from .rotations import RotationPoset, closed_set_to_matching, closed_subsets, ids_to_mask, mask_to_ids
from .shift_analysis import PROPER, ShiftAnalysis


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
    downward-closed subset of free elements yields one distinct member.
    """

    poset: RotationPoset
    mandatory: tuple[int, ...]                 # rotations in every member
    excluded: tuple[int, ...]                  # rotations in no member
    free_elements: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def mandatory_mask(self) -> int:
        return ids_to_mask(self.mandatory)

    def _pred_masks(self) -> list[int]:
        preds = [0] * len(self.free_elements)
        for i, j in self.edges:
            preds[j] |= 1 << i
        return preds

    def element_closed_sets(self) -> list[int]:
        """All downward-closed subsets of free elements, as element bitmasks.

        The empty set (the boy-best member) comes first and every
        set before its supersets; see closed_subsets.
        """
        return closed_subsets(self._pred_masks(), range(len(self.free_elements)))

    def rotation_mask(self, element_ids) -> int:
        """The mandatory rotations plus those of the given free elements.

        Raises ValueError when an id names no free element.
        """
        ids = list(element_ids)
        if any(i not in range(len(self.free_elements)) for i in ids):
            raise ValueError("element set contains unknown ids")
        return self.mandatory_mask | ids_to_mask(r for i in ids for r in self.free_elements[i])


def build_robust_poset(network: ClosureNetwork, flow: FlowResult) -> Sublattice:
    """Condense the residual graph into the poset of optimal closed sets.

    The mandatory rotations are ``extract_closed_set``'s, which raises
    ValueError when the flow is not maximum; the excluded ones are those
    one forward walk from the top endpoint reaches.  A residual cycle
    through a free rotation meets neither kind (it would make the rotation
    reach the bottom or be reached from the top), so components, DAG edges
    and the order of the free elements -- Kahn's, smallest least member
    first -- are computed over the free rotations alone.
    """
    mandatory = extract_closed_set(network, flow)
    to, cap = flow.to, flow.cap
    reached = [False] * network.n_nodes
    reached[network.top] = True
    stack = [network.top]
    while stack:
        for e in flow.adj[stack.pop()]:
            v = to[e]
            if cap[e] > 0 and not reached[v]:
                reached[v] = True
                stack.append(v)
    rotations = range(network.n_rotations)
    excluded = tuple(r for r in rotations if reached[r])
    free = [r for r in rotations if not reached[r] and not (mandatory >> r) & 1]
    index = {r: i for i, r in enumerate(free)}
    free_adj = [[index[to[e]] for e in flow.adj[r] if cap[e] > 0 and to[e] in index] for r in free]

    count, comp = _tarjan_scc(free_adj)
    members: list[list[int]] = [[] for _ in range(count)]
    for r, c in zip(free, comp):
        members[c].append(r)
    dag_succ: list[set[int]] = [set() for _ in range(count)]
    for i, succ in enumerate(free_adj):
        dag_succ[comp[i]].update(comp[j] for j in succ if comp[j] != comp[i])

    pending = [0] * count
    for succ in dag_succ:
        for d in succ:
            pending[d] += 1
    ready = sorted((members[c][0], c) for c in range(count) if pending[c] == 0)
    order: list[int] = []
    while ready:
        _, c = ready.pop(0)
        order.append(c)
        for d in dag_succ[c]:
            pending[d] -= 1
            if pending[d] == 0:
                insort(ready, (members[d][0], d))
    if len(order) != count:
        raise AssertionError("free components of the residual condensation do not form a DAG")

    position = [0] * count
    for i, c in enumerate(order):
        position[c] = i
    return Sublattice(
        poset=network.poset,
        mandatory=mask_to_ids(mandatory),
        excluded=excluded,
        free_elements=tuple(tuple(members[c]) for c in order),
        edges=tuple(sorted((position[c], position[d]) for c in range(count) for d in dag_succ[c])),
    )


def robust_members(robust: Sublattice, element_ids) -> Matching:
    """The member selected by a closed set of free elements."""
    chosen = sorted(set(element_ids))
    selected = robust.rotation_mask(chosen)  # rejects unknown ids first
    preds = robust._pred_masks()
    mask = ids_to_mask(chosen)
    for i in chosen:
        if preds[i] & ~mask:
            raise ValueError("element set is not downward closed in the sublattice")
    return closed_set_to_matching(robust.poset, selected)


def enumerate_robust(robust: Sublattice) -> list[Matching]:
    """Every member of any ``Sublattice`` exactly once, in element_closed_sets
    order: the robust set, or a shift's destabilized set."""
    return [
        closed_set_to_matching(robust.poset, robust.rotation_mask(mask_to_ids(emask)))
        for emask in robust.element_closed_sets()
    ]


def sublattice_poset(poset: RotationPoset, analysis: ShiftAnalysis):
    """(destabilized sublattice, its boy-best matching, its girl-best matching).

    Only proper analyses have a destabilized sublattice.  Everything at or
    below the entry rotation is mandatory, everything at or above the exit
    rotation is excluded, and each remaining rotation is a free element of
    its own, in ascending id.  The free rotations form a convex set, so the
    covers between them generate the order they inherit.
    """
    if analysis.status != PROPER:
        raise ValueError(f"sublattice is only defined for PROPER analyses, not {analysis.status}")
    mandatory = excluded = 0
    if analysis.rho_in is not None:
        mandatory = poset.pred_closure[analysis.rho_in] | (1 << analysis.rho_in)
    if analysis.rho_out is not None:
        excluded = ids_to_mask(v for v in range(poset.size) if poset.leq(analysis.rho_out, v))
    free = [v for v in range(poset.size) if not ((mandatory | excluded) >> v) & 1]
    index = {r: i for i, r in enumerate(free)}
    sublattice = Sublattice(
        poset=poset,
        mandatory=mask_to_ids(mandatory),
        excluded=mask_to_ids(excluded),
        free_elements=tuple((r,) for r in free),
        edges=tuple(sorted((index[u], index[v]) for u in free for v in poset.hasse_succs[u] if v in index)),
    )
    boy_best = closed_set_to_matching(poset, mandatory)
    girl_best = closed_set_to_matching(poset, poset.full_mask & ~excluded)
    return sublattice, boy_best, girl_best
