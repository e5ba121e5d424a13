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

Everything is computed in exact arithmetic.  Inside, a weight is an integer
count over the distribution's one denominator: both distribution readers
hand the network one table {(rho_in, rho_out): weight}, whose (None, None)
entry, the DISJOINT shifts, becomes the constant and every other entry one
shift edge; the max flow uses those integers as its capacities, and the
optimality certificate is checked in them.  The full-uniform distribution is
never read shift by shift: each mover walks its own list as far as it can
prefer an owner in some stable matching (the whole list for a mover that
the rural hospitals theorem leaves unmatched in every one), and each pair
it reaches adds its windows into the table.  Fractions are made only
at the boundary: the flow value, the solution, the text dumps and the
certificate messages.
"""

from __future__ import annotations

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
from .shift_analysis import EMPTY_MAB, analyze_shift, uniform_weights


@dataclass(frozen=True)
class ClosureNetwork:
    """Flow network over the poset's rotations plus the two virtual endpoints.

    Weights are integers over one denominator: a shift edge of weight w
    carries probability w / denominator, and so does the constant weight of
    the shifts that break every matching.
    """

    poset: RotationPoset
    hasse_edges: tuple[tuple[int, int], ...]      # ascending cover edges, unbounded
    shift_edges: tuple[tuple[int, int, int], ...]  # (exit, entry, weight), one per outcome
    constant_weight: int
    denominator: int

    @property
    def n_rotations(self) -> int:
        return self.poset.size

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


def _explicit_weights(poset: RotationPoset, dist: ShiftDistribution) -> dict:
    """{(rho_in, rho_out): weight} over the listed shifts, weight = p *
    dist.denominator, in the form of ``uniform_weights``: EMPTY_MAB shifts
    are left out and DISJOINT ones add to (None, None).  A listed shift of
    weight 0 still makes its entry."""
    weights: dict[tuple[int | None, int | None], int] = {}
    for shift, weight in dist.weights:
        analysis = analyze_shift(poset, poset.inst, shift)
        if analysis.status != EMPTY_MAB:
            outcome = analysis.rho_in, analysis.rho_out
            weights[outcome] = weights.get(outcome, 0) + weight
    return weights


def build_network(poset: RotationPoset, dist: ShiftDistribution) -> ClosureNetwork:
    """Translate a shift distribution over the poset's instance into the closure network.

    Both readers give one integer weight per outcome over the one
    denominator ``dist.denominator``: the full-uniform distribution one
    mover at a time (``uniform_weights``), without building any per-shift
    object, an explicit one shift by shift.  The DISJOINT entry (None, None)
    becomes constant_weight, and every other (rho_in, rho_out) one edge from
    its exit rotation (T when absent) to its entry rotation (S when absent);
    the map is one-to-one, so no edge merges.
    """
    if dist.uniform_over is not None:
        dist.validate_for(poset.inst)
        weights = uniform_weights(poset, poset.inst)
    else:
        weights = _explicit_weights(poset, dist)
    bottom, top = poset.size, poset.size + 1
    constant = weights.pop((None, None), 0)
    shift_edges = tuple(sorted(
        (top if rho_out is None else rho_out, bottom if rho_in is None else rho_in, w)
        for (rho_in, rho_out), w in weights.items()
    ))
    hasse: list[tuple[int, int]] = []
    for v in range(poset.size):
        for u in poset.hasse_preds[v]:
            hasse.append((u, v))
    for v in poset.minimal_ids:
        hasse.append((bottom, v))
    for v in poset.maximal_ids:
        hasse.append((v, top))
    return ClosureNetwork(poset, tuple(hasse), shift_edges, constant, dist.denominator)


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
    value_scaled: int     # flow value times the network's denominator
    to: list[int]
    cap: list[int]        # residual capacities (paired edges: e ^ 1 is the reverse)
    original: list[int]
    adj: list[list[int]]  # ids of the edges leaving each node, reverse edges included
    hasse_eidx: tuple[int, ...]
    shift_eidx: tuple[int, ...]

    @property
    def scale(self) -> int:
        """The denominator of every capacity and flow: integer = probability * scale."""
        return self.network.denominator

    @property
    def flow_value(self) -> Fraction:
        return Fraction(self.value_scaled, self.scale)


def solve(network: ClosureNetwork) -> FlowResult:
    """Maximum flow from the top endpoint to the bottom endpoint.

    Capacities are the network's integer shift weights as they are.  The
    "infinite" capacity on Hasse edges is one more than the total shift
    weight, which no cut avoiding Hasse edges can reach.
    """
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

    inf = sum(w for _, _, w in network.shift_edges) + 1
    hasse_eidx = tuple(add(u, v, inf) for u, v in network.hasse_edges)
    shift_eidx = tuple(add(u, v, w) for u, v, w in network.shift_edges)
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
    return FlowResult(network, flow, to, cap, original, adj, hasse_eidx, shift_eidx)


def extract_closed_set(network: ClosureNetwork, flow: FlowResult) -> int:
    """The boy-most optimal closed rotation set, as a bitmask.

    Vertices with a residual path to the bottom endpoint form the smallest
    min-cut sink side; its rotations are the smallest optimal closed set.
    The set is closed: a Hasse arc u -> v carries more capacity than any
    flow, so its residual arc never closes and the walk reaches u whenever
    it reaches v (the certificate checks it again).  Raises ValueError when
    the flow is not maximum (the top endpoint would have such a path).
    """
    to, cap = flow.to, flow.cap
    seen = [False] * network.n_nodes
    seen[network.bottom] = True
    stack = [network.bottom]
    while stack:
        # e leaves x, so the residual edge e ^ 1 enters x from to[e]
        for e in flow.adj[stack.pop()]:
            u = to[e]
            if cap[e ^ 1] > 0 and not seen[u]:
                seen[u] = True
                stack.append(u)
    if seen[network.top]:
        raise ValueError("flow is not maximum: an augmenting path remains")
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
    # compared in integer weights: original[e] is the edge's probability times flow.scale
    original, cap, scale = flow.original, flow.cap, flow.scale
    separated = 0
    for (u, v, w), e in zip(network.shift_edges, flow.shift_eidx):
        g = original[e] - cap[e]
        if y[u] > y[v]:
            separated += original[e]
            if g != original[e]:
                problems.append(f"separated shift edge {name(u)}->{name(v)} carries {Fraction(g, scale)}, not its capacity {Fraction(w, scale)}")
        elif y[u] < y[v] and g != 0:
            problems.append(f"shift edge {name(u)}->{name(v)} crosses back into the cut with flow {Fraction(g, scale)}")
    for (u, v), e in zip(network.hasse_edges, flow.hasse_eidx):
        if y[u] > y[v]:
            problems.append(f"unbounded edge {name(u)}->{name(v)} crosses the cut: set not closed")
        elif y[u] < y[v] and original[e] != cap[e]:
            problems.append(f"unbounded edge {name(u)}->{name(v)} carries {Fraction(original[e] - cap[e], scale)} against the cut")
    if separated != flow.value_scaled:
        problems.append(f"separated mass {Fraction(separated, scale)} differs from flow value {flow.flow_value}")
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
    network: ClosureNetwork
    flow: FlowResult
    closed_mask: int
    solution: RobustSolution


def solve_pipeline(inst: PreferenceInstance, dist: ShiftDistribution) -> SolveRun:
    """Solve and certify: raises AssertionError when the optimality
    certificate of the extracted cut fails."""
    dist.validate_for(inst)
    poset = build_rotation_poset(inst)
    network = build_network(poset, dist)
    flow = solve(network)
    mask = extract_closed_set(network, flow)
    violations = certificate_violations(network, flow, mask)
    if violations:
        raise AssertionError("optimality certificate failed: " + "; ".join(violations))
    constant_loss = Fraction(network.constant_weight, network.denominator)
    solution = RobustSolution(
        matching=closed_set_to_matching(poset, mask),
        closed_set=mask_to_ids(mask),
        objective=flow.flow_value + constant_loss,
        flow_value=flow.flow_value,
        constant_loss=constant_loss,
    )
    return SolveRun(inst, dist, poset, network, flow, mask, solution)


def robust_matching(inst: PreferenceInstance, dist: ShiftDistribution) -> RobustSolution:
    """One matching least likely to be destabilized by a shift drawn from dist."""
    return solve_pipeline(inst, dist).solution


# ---------------------------------------------------------------------------
# debug printers

def dump_network(network: ClosureNetwork) -> str:
    """Nodes, edges and constant, each weight printed as its probability."""
    name, d = network.node_name, network.denominator
    lines = ["NODES " + " ".join([f"R{r}" for r in range(network.n_rotations)] + ["S", "T"])]
    for u, v in network.hasse_edges:
        lines.append(f"HASSE {name(u)} -> {name(v)}")
    for u, v, w in network.shift_edges:
        lines.append(f"SHIFT {name(u)} -> {name(v)} cap {Fraction(w, d)}")
    lines.append(f"CONSTANT {Fraction(network.constant_weight, d)}")
    return "\n".join(lines)


def dump_ip(network: ClosureNetwork) -> str:
    """The 0/1 program the flow solves, in a plain text form."""
    name, d = network.node_name, network.denominator
    terms = [f"{Fraction(w, d)} x{k}" for k, (_, _, w) in enumerate(network.shift_edges)]
    lines = ["min " + (" + ".join(terms) if terms else "0") + f" + {Fraction(network.constant_weight, d)}"]
    lines.append("s.t.")
    for k, (u, v, _) in enumerate(network.shift_edges):
        lines.append(f"  x{k} >= y_{name(u)} - y_{name(v)}    (shift edge {name(u)}->{name(v)})")
    for u, v in network.hasse_edges:
        lines.append(f"  y_{name(u)} <= y_{name(v)}    (precedence)")
    lines.append("  y_S = 0, y_T = 1")
    lines.append("  all x, y in {0, 1}")
    return "\n".join(lines)
