"""Closure network and max-flow solver for the robust matching problem.

Choosing a stable matching = choosing a downward-closed rotation set S.  A
shift whose analysis is PROPER breaks exactly the matchings whose S contains
the entry rotation but not the exit rotation, so the probability of breaking
is a sum over "separated" shift edges (exit, entry).  Minimizing that sum
over closed sets is a min-cut problem: rotations sit between a bottom
endpoint S (always inside the set) and a top endpoint T (never inside), cover
edges of the precedence order ascend with effectively infinite capacity, and
each shift contributes an edge from its exit to its entry with capacity equal
to its probability.  Max flow from T to S equals the minimum breaking
probability, and the residual graph pins down every optimal closed set.

Everything is computed in exact arithmetic: capacities are scaled to a common
integer denominator, flow is integral, and results convert back to Fractions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .instance import PreferenceInstance, ShiftDistribution
from .matching import Matching
from .rotations import (
    RotationPoset,
    build_rotation_poset,
    closed_set_to_matching,
    mask_to_ids,
)
from .shift_analysis import DISJOINT, PROPER, ShiftAnalysis, analyze_shift


@dataclass(frozen=True)
class ClosureNetwork:
    """Flow network over rotation nodes plus the two virtual endpoints."""

    n_rotations: int
    hasse_edges: tuple[tuple[int, int], ...]           # ascending cover edges, unbounded
    shift_edges: tuple[tuple[int, int, Fraction], ...]  # (exit, entry, probability), merged
    constant_loss: Fraction
    poset: RotationPoset | None = None  # set when built from a poset; None for ad-hoc networks

    @property
    def bottom(self) -> int:
        return self.n_rotations

    @property
    def top(self) -> int:
        return self.n_rotations + 1

    @property
    def n_nodes(self) -> int:
        return self.n_rotations + 2

    def node_name(self, u: int) -> str:
        if u == self.bottom:
            return "S"
        if u == self.top:
            return "T"
        return f"R{u}"


def build_network(poset: RotationPoset, analyses: list[ShiftAnalysis], dist: ShiftDistribution) -> ClosureNetwork:
    """Translate per-shift analyses into the closure network.

    EMPTY_MAB shifts are dropped; DISJOINT shifts break every matching and
    accumulate into constant_loss; PROPER shifts become edges from their exit
    rotation (T when absent) to their entry rotation (S when absent).
    Parallel edges merge by summing probabilities.
    """
    if len(analyses) != len(dist.entries):
        raise ValueError("need exactly one analysis per distribution entry")
    bottom, top = poset.size, poset.size + 1
    constant = Fraction(0)
    merged: dict[tuple[int, int], Fraction] = {}
    for analysis, (shift, p) in zip(analyses, dist.entries):
        if analysis.shift != shift:
            raise ValueError(f"analysis order does not match the distribution at: {shift.describe()}")
        if analysis.status == DISJOINT:
            constant += p
        elif analysis.status == PROPER:
            u = top if analysis.rho_out is None else analysis.rho_out
            v = bottom if analysis.rho_in is None else analysis.rho_in
            merged[(u, v)] = merged.get((u, v), Fraction(0)) + p
    hasse: list[tuple[int, int]] = []
    for v in range(poset.size):
        for u in poset.hasse_preds[v]:
            hasse.append((u, v))
    for v in poset.minimal_ids:
        hasse.append((bottom, v))
    for v in poset.maximal_ids:
        hasse.append((v, top))
    shift_edges = tuple((u, v, c) for (u, v), c in sorted(merged.items()))
    return ClosureNetwork(poset.size, tuple(hasse), shift_edges, constant, poset)


# ---------------------------------------------------------------------------
# Dinic over integers

def _bfs_levels(adj, to, cap, s):
    level = [-1] * len(adj)
    level[s] = 0
    dq = deque([s])
    while dq:
        u = dq.popleft()
        lu = level[u]
        for e in adj[u]:
            v = to[e]
            if cap[e] > 0 and level[v] < 0:
                level[v] = lu + 1
                dq.append(v)
    return level


def _augment(adj, to, cap, it, level, s, t):
    """Push one augmenting path along the level graph; 0 when none remains."""
    path: list[int] = []
    u = s
    while True:
        if u == t:
            amount = min(cap[e] for e in path)
            for e in path:
                cap[e] -= amount
                cap[e ^ 1] += amount
            return amount
        advanced = False
        while it[u] < len(adj[u]):
            e = adj[u][it[u]]
            if cap[e] > 0 and level[to[e]] == level[u] + 1:
                path.append(e)
                u = to[e]
                advanced = True
                break
            it[u] += 1
        if not advanced:
            if not path:
                return 0
            level[u] = -1  # dead end for this phase
            e = path.pop()
            u = to[e ^ 1]
            it[u] += 1


@dataclass
class FlowResult:
    """A maximum flow plus the residual state needed for extraction."""

    network: ClosureNetwork
    scale: int            # common denominator: integer capacity = probability * scale
    value_scaled: int
    to: list[int]
    cap: list[int]        # residual capacities (paired edges: e ^ 1 is the reverse)
    original: list[int]
    adj: list[list[int]]
    hasse_eidx: tuple[int, ...]
    shift_eidx: tuple[int, ...]

    @property
    def flow_value(self) -> Fraction:
        return Fraction(self.value_scaled, self.scale)

    def hasse_flows(self) -> list[Fraction]:
        return [Fraction(self.original[e] - self.cap[e], self.scale) for e in self.hasse_eidx]

    def shift_flows(self) -> list[Fraction]:
        return [Fraction(self.original[e] - self.cap[e], self.scale) for e in self.shift_eidx]


def solve(network: ClosureNetwork) -> FlowResult:
    """Maximum flow from the top endpoint to the bottom endpoint.

    The "infinite" capacity on Hasse edges is one more than the total shift
    capacity, which no cut avoiding Hasse edges can reach.
    """
    scale = math.lcm(*(c.denominator for _, _, c in network.shift_edges)) if network.shift_edges else 1
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(network.n_nodes)]

    def add(u: int, v: int, c: int) -> int:
        e = len(to)
        to.append(v)
        cap.append(c)
        adj[u].append(e)
        to.append(u)
        cap.append(0)
        adj[v].append(e + 1)
        return e

    scaled = [c.numerator * (scale // c.denominator) for _, _, c in network.shift_edges]
    inf = sum(scaled) + 1
    hasse_eidx = tuple(add(u, v, inf) for u, v in network.hasse_edges)
    shift_eidx = tuple(add(u, v, c) for (u, v, _), c in zip(network.shift_edges, scaled))
    original = cap.copy()

    flow = 0
    while True:
        level = _bfs_levels(adj, to, cap, network.top)
        if level[network.bottom] < 0:
            break
        it = [0] * network.n_nodes
        while True:
            pushed = _augment(adj, to, cap, it, level, network.top, network.bottom)
            if not pushed:
                break
            flow += pushed
    return FlowResult(network, scale, flow, to, cap, original, adj, hasse_eidx, shift_eidx)


def extract_closed_set(network: ClosureNetwork, flow: FlowResult) -> int:
    """The boy-most optimal closed rotation set, as a bitmask.

    Vertices with a residual path to the bottom endpoint form the smallest
    min-cut sink side; its rotations are the smallest optimal closed set.
    Raises ValueError when the flow is not maximum (the top endpoint would
    have such a path).
    """
    preds: list[list[int]] = [[] for _ in range(network.n_nodes)]
    for e, v in enumerate(flow.to):
        if flow.cap[e] > 0:
            preds[v].append(flow.to[e ^ 1])
    seen = [False] * network.n_nodes
    seen[network.bottom] = True
    stack = [network.bottom]
    while stack:
        x = stack.pop()
        for u in preds[x]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    if seen[network.top]:
        raise ValueError("flow is not maximum: an augmenting path remains")
    for u, v in network.hasse_edges:
        if seen[v] and not seen[u]:
            raise AssertionError("extracted set is not closed under the precedence order")
    mask = 0
    for r in range(network.n_rotations):
        if seen[r]:
            mask |= 1 << r
    return mask


def certificate_violations(network: ClosureNetwork, flow: FlowResult, mask: int) -> list[str]:
    """Complementary-slackness checks tying the closed set to the flow.

    Empty result certifies optimality: the cut induced by the closed set is
    crossed only by saturated shift edges, carries no flow backwards, and its
    separated probability mass equals the flow value exactly.
    """
    y = [1] * network.n_nodes
    y[network.bottom] = 0
    for r in range(network.n_rotations):
        if (mask >> r) & 1:
            y[r] = 0
    problems: list[str] = []
    name = network.node_name
    separated = Fraction(0)
    shift_flows = flow.shift_flows()
    for k, (u, v, p) in enumerate(network.shift_edges):
        g = shift_flows[k]
        if y[u] > y[v]:
            separated += p
            if g != p:
                problems.append(f"separated shift edge {name(u)}->{name(v)} carries {g}, not its capacity {p}")
        elif y[u] < y[v] and g != 0:
            problems.append(f"shift edge {name(u)}->{name(v)} crosses back into the cut with flow {g}")
    hasse_flows = flow.hasse_flows()
    for k, (u, v) in enumerate(network.hasse_edges):
        f = hasse_flows[k]
        if y[u] > y[v]:
            problems.append(f"unbounded edge {name(u)}->{name(v)} crosses the cut: set not closed")
        elif y[u] < y[v] and f != 0:
            problems.append(f"unbounded edge {name(u)}->{name(v)} carries {f} against the cut")
    if separated != flow.flow_value:
        problems.append(f"separated mass {separated} differs from flow value {flow.flow_value}")
    return problems


# ---------------------------------------------------------------------------
# end-to-end pipeline

@dataclass(frozen=True)
class RobustSolution:
    """A stable matching minimizing the probability of being destabilized."""

    matching: Matching
    closed_set: tuple[int, ...]
    objective: Fraction
    flow_value: Fraction
    constant_loss: Fraction


@dataclass
class SolveRun:
    """Everything produced on the way to a robust matching, for reuse."""

    inst: PreferenceInstance
    dist: ShiftDistribution
    poset: RotationPoset
    analyses: list[ShiftAnalysis]
    network: ClosureNetwork
    flow: FlowResult
    closed_mask: int
    solution: RobustSolution


def analyze_domain(poset: RotationPoset, inst: PreferenceInstance, dist: ShiftDistribution) -> list[ShiftAnalysis]:
    return [analyze_shift(poset, inst, shift) for shift, _ in dist.entries]


def objective_of_mask(analyses: list[ShiftAnalysis], dist: ShiftDistribution, mask: int) -> Fraction:
    """Breaking probability of the matching with closed set `mask`, from analyses alone."""
    total = Fraction(0)
    for analysis, (_, p) in zip(analyses, dist.entries):
        if analysis.destabilizes_mask(mask):
            total += p
    return total


def solve_pipeline(inst: PreferenceInstance, dist: ShiftDistribution) -> SolveRun:
    dist.validate_for(inst)
    poset = build_rotation_poset(inst)
    analyses = analyze_domain(poset, inst, dist)
    network = build_network(poset, analyses, dist)
    flow = solve(network)
    mask = extract_closed_set(network, flow)
    matching = closed_set_to_matching(poset, mask)
    solution = RobustSolution(
        matching=matching,
        closed_set=mask_to_ids(mask),
        objective=flow.flow_value + network.constant_loss,
        flow_value=flow.flow_value,
        constant_loss=network.constant_loss,
    )
    return SolveRun(inst, dist, poset, analyses, network, flow, mask, solution)


def robust_matching(inst: PreferenceInstance, dist: ShiftDistribution) -> RobustSolution:
    """One matching least likely to be destabilized by a shift drawn from dist."""
    return solve_pipeline(inst, dist).solution


# ---------------------------------------------------------------------------
# debug printers

def dump_network(network: ClosureNetwork) -> str:
    name = network.node_name
    lines = ["NODES " + " ".join([f"R{r}" for r in range(network.n_rotations)] + ["S", "T"])]
    for u, v in network.hasse_edges:
        lines.append(f"HASSE {name(u)} -> {name(v)}")
    for u, v, p in network.shift_edges:
        lines.append(f"SHIFT {name(u)} -> {name(v)} cap {p}")
    lines.append(f"CONSTANT {network.constant_loss}")
    return "\n".join(lines)


def dump_ip(network: ClosureNetwork) -> str:
    """The 0/1 program the flow solves, in a plain text form."""
    name = network.node_name
    terms = [f"{p} x{k}" for k, (_, _, p) in enumerate(network.shift_edges)]
    lines = ["min " + (" + ".join(terms) if terms else "0") + f" + {network.constant_loss}"]
    lines.append("s.t.")
    for k, (u, v, _) in enumerate(network.shift_edges):
        lines.append(f"  x{k} >= y_{name(u)} - y_{name(v)}    (shift edge {name(u)}->{name(v)})")
    for u, v in network.hasse_edges:
        lines.append(f"  y_{name(u)} <= y_{name(v)}    (precedence)")
    lines.append("  y_S = 0, y_T = 1")
    lines.append("  all x, y in {0, 1}")
    return "\n".join(lines)
