"""Succinct poset of ALL optimal robust matchings.

One max flow pins down one robust matching, but usually many closed sets
achieve the same minimum.  They are exactly the residual-closed vertex sets:
no residual edge may enter the set from outside.  Contracting the residual
graph's strongly connected components gives a DAG whose downward-closed
subsets of *free* elements are in bijection with the optimal closed sets —
components that can reach the bottom endpoint are forced into every optimum,
components reachable from the top endpoint can never be used, and everything
else is free to toggle subject to the DAG's order.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .flow import ClosureNetwork, FlowResult
from .matching import Matching
from .rotations import RotationPoset, closed_set_to_matching, closed_subsets, ids_to_mask, mask_to_ids


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
class RobustPoset:
    """All robust matchings, folded to mandatory/excluded rotations plus a free DAG.

    free_elements come in a topological order of the DAG; edges (i, j) mean
    element i must be included whenever j is.  Each downward-closed subset of
    free elements yields one distinct robust matching.
    """

    poset: RotationPoset
    mandatory: tuple[int, ...]                 # rotations in every robust matching
    excluded: tuple[int, ...]                  # rotations in no robust matching
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

        The empty set (the boy-best robust matching) comes first and every
        set before its supersets; see closed_subsets.
        """
        return closed_subsets(self._pred_masks(), range(len(self.free_elements)))

    def rotation_mask(self, element_ids) -> int:
        return self.mandatory_mask | ids_to_mask(r for i in element_ids for r in self.free_elements[i])


def build_robust_poset(network: ClosureNetwork, flow: FlowResult) -> RobustPoset:
    """Condense the residual graph into the poset of optimal closed sets."""
    if network.poset is None:
        raise ValueError("network lacks its rotation poset; build it with build_network")
    n = network.n_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, v in enumerate(flow.to):
        if flow.cap[e] > 0:
            adj[flow.to[e ^ 1]].append(v)

    count, comp = _tarjan_scc(adj)
    members: list[list[int]] = [[] for _ in range(count)]
    for r in range(network.n_rotations):
        members[comp[r]].append(r)
    bottom_c = comp[network.bottom]
    top_c = comp[network.top]

    dag_succ: list[set[int]] = [set() for _ in range(count)]
    dag_pred: list[set[int]] = [set() for _ in range(count)]
    for u in range(n):
        cu = comp[u]
        for v in adj[u]:
            cv = comp[v]
            if cu != cv:
                dag_succ[cu].add(cv)
                dag_pred[cv].add(cu)

    def closure(starts, step) -> set[int]:
        seen = set(starts)
        frontier = list(starts)
        while frontier:
            c = frontier.pop()
            for d in step[c]:
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        return seen

    reaches_bottom = closure([bottom_c], dag_pred)   # components with a path to bottom
    from_top = closure([top_c], dag_succ)            # components reachable from top
    if top_c in reaches_bottom:
        raise ValueError("flow is not maximum: the top endpoint still reaches the bottom")

    mandatory = sorted(r for c in reaches_bottom for r in members[c])
    excluded = sorted(r for c in from_top for r in members[c])
    free_set = {c for c in range(count) if c not in reaches_bottom and c not in from_top}

    # deterministic topological order of the free components
    pending = {c: sum(1 for d in dag_pred[c] if d in free_set) for c in free_set}
    ready = sorted((min(members[c]), c) for c in free_set if pending[c] == 0)
    order: list[int] = []
    while ready:
        _, c = ready.pop(0)
        order.append(c)
        for d in sorted(dag_succ[c]):
            if d in free_set:
                pending[d] -= 1
                if pending[d] == 0:
                    insort(ready, (min(members[d]), d))
    if len(order) != len(free_set):
        raise AssertionError("free components of the residual condensation do not form a DAG")

    position = {c: i for i, c in enumerate(order)}
    edges = sorted(
        (position[c], position[d])
        for c in free_set
        for d in dag_succ[c]
        if d in free_set
    )
    return RobustPoset(
        poset=network.poset,
        mandatory=tuple(mandatory),
        excluded=tuple(excluded),
        free_elements=tuple(tuple(sorted(members[c])) for c in order),
        edges=tuple(edges),
    )


def robust_members(robust: RobustPoset, element_ids) -> Matching:
    """The robust matching selected by a closed set of free elements."""
    chosen = sorted(set(element_ids))
    if any(i not in range(len(robust.free_elements)) for i in chosen):
        raise ValueError("element set contains unknown ids")
    preds = robust._pred_masks()
    mask = ids_to_mask(chosen)
    for i in chosen:
        if preds[i] & ~mask:
            raise ValueError("element set is not downward closed in the robust poset")
    return closed_set_to_matching(robust.poset, robust.rotation_mask(chosen))


def enumerate_robust(robust: RobustPoset) -> list[Matching]:
    """Every robust matching exactly once, in element_closed_sets order."""
    return [
        closed_set_to_matching(robust.poset, robust.rotation_mask(mask_to_ids(emask)))
        for emask in robust.element_closed_sets()
    ]
