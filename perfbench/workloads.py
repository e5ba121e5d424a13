"""Workload inputs, their certified expected outputs, and the output check.

Every input is generated here from the workload seed and written as the
plain-text instance and distribution files that the CLI parses; the program
under test receives only those files.  Expected outputs are recorded once per
input by calling the library in-process, and each recorded value is certified
by checks that do not share the solver's shift analysis or flow code (see
``record``).  An operation's output is then compared on named JSON keys only,
so keys added to the output later do not count as failures.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from robustmatch import (
    GIRL_LIST,
    PreferenceInstance,
    ShiftDistribution,
    build_robust_poset,
    build_rotation_poset,
    cross_check,
    enumerate_closed_masks,
    enumerate_robust,
    is_stable,
    parse_distribution,
    parse_instance,
    solve_pipeline,
)
from robustmatch.cli import gen_random_instance
from robustmatch.flow import certificate_violations
from robustmatch.matching import Matching, unmatched_agents
from robustmatch.rotations import mask_to_ids

# JSON keys compared per command; every other key of the output is ignored.
CHECKED_KEYS = {
    "solve": ("matching", "objective", "closed_set"),
    "represent": ("objective", "mandatory", "excluded", "free_elements", "edges"),
    "enumerate": ("count", "matchings"),
}


# ---------------------------------------------------------------------------
# generators (deterministic in the seed)

Prefs = tuple[tuple[int, ...], ...]


def cyclic_chain(n: int, seed: int | None) -> tuple[Prefs, Prefs]:
    """The n x n cyclic Latin-square instance, agents relabelled by the seed.

    Boy i ranks girls i, i+1, ... (mod n); girl j ranks boys j+1, j+2, ...,
    j.  Its n stable matchings pair b_i with g_{i+s} for s = 0..n-1 and form
    a chain of n-1 rotations, each moving all n pairs.  tests/fixtures/I3.txt
    is the n = 3 member with no relabelling (seed None).
    """
    boys, girls = list(range(n)), list(range(n))
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(boys)
        rng.shuffle(girls)
    boy_prefs: list = [None] * n
    girl_prefs: list = [None] * n
    for i in range(n):
        boy_prefs[boys[i]] = tuple(girls[(i + j) % n] for j in range(n))
        girl_prefs[girls[i]] = tuple(boys[(i + 1 + t) % n] for t in range(n))
    return tuple(boy_prefs), tuple(girl_prefs)


def k_blocks(k: int, m: int, seed: int) -> tuple[Prefs, Prefs]:
    """k disjoint cyclic m x m blocks with complete lists.

    Every agent lists its own block first, in the cyclic Latin-square order,
    then the other blocks' agents in a seeded random order.  No stable
    matching leaves a block, so the instance has k*(m-1) rotations in k
    independent chains and m**k stable matchings.
    """
    rng = random.Random(seed)
    n = k * m

    def lists(first):
        out = []
        for a in range(n):
            block, i = divmod(a, m)
            own = [block * m + (i + first + j) % m for j in range(m)]
            rest = [x for x in range(n) if x // m != block]
            rng.shuffle(rest)
            out.append(tuple(own + rest))
        return tuple(out)

    return lists(0), lists(1)


def block_matchings(k: int, m: int) -> set[tuple[tuple[int, int], ...]]:
    """The m**k stable matchings of k_blocks(k, m, seed), as sorted pair tuples."""
    out = {()}
    for block in range(k):
        base = block * m
        out = {
            pairs + tuple((base + i, base + (i + s) % m) for i in range(m))
            for pairs in out
            for s in range(m)
        }
    return {tuple(sorted(p)) for p in out}


def random_instance(n: int, seed: int, completeness: float) -> tuple[Prefs, Prefs]:
    """The CLI's own random generator (``gen --n --seed --completeness``)."""
    inst = gen_random_instance(n, seed, completeness)
    return inst.boy_prefs, inst.girl_prefs


def relabel(boy_prefs: Prefs, girl_prefs: Prefs, rng: random.Random) -> tuple[Prefs, Prefs]:
    """The same instance with boys and girls renumbered by random permutations.

    Rotations, shifts and their outcomes map one-to-one, so the work an op
    does is unchanged while the bytes differ.
    """
    boy_id, girl_id = list(range(len(boy_prefs))), list(range(len(girl_prefs)))
    rng.shuffle(boy_id)
    rng.shuffle(girl_id)
    new_boys: list = [None] * len(boy_prefs)
    new_girls: list = [None] * len(girl_prefs)
    for b, prefs in enumerate(boy_prefs):
        new_boys[boy_id[b]] = tuple(girl_id[g] for g in prefs)
    for g, prefs in enumerate(girl_prefs):
        new_girls[girl_id[g]] = tuple(boy_id[b] for b in prefs)
    return tuple(new_boys), tuple(new_girls)


def instance_text(boy_prefs: Prefs, girl_prefs: Prefs) -> str:
    """The plain-text instance format read by ``--instance``."""
    lines = [str(len(boy_prefs)) if len(boy_prefs) == len(girl_prefs)
             else f"{len(boy_prefs)} {len(girl_prefs)}"]
    for b, prefs in enumerate(boy_prefs):
        lines.append(f"b{b + 1}: " + " ".join(f"g{g + 1}" for g in prefs))
    for g, prefs in enumerate(girl_prefs):
        lines.append(f"g{g + 1}: " + " ".join(f"b{b + 1}" for b in prefs))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def decay_distribution_text(boy_prefs: Prefs, girl_prefs: Prefs, count: int, seed: int) -> str:
    """``count`` distinct shifts drawn uniformly from the shift domain, each
    with exact probability proportional to 1/window.

    Lines are sorted by (list, mover position, window), so the bytes depend
    only on the sample.
    """
    rng = random.Random(seed)
    lists = [("GIRL_LIST", "g", "b", a, p) for a, p in enumerate(girl_prefs)]
    lists += [("BOY_LIST", "b", "g", a, p) for a, p in enumerate(boy_prefs)]
    sizes = [len(p) * (len(p) - 1) // 2 for *_, p in lists]
    domain = sum(sizes)
    if count > domain:
        raise ValueError(f"cannot sample {count} distinct shifts from {domain}")
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + size)
    chosen: set[tuple[int, int, int]] = set()
    while len(chosen) < count:
        r = rng.randrange(domain)
        li = bisect_left(starts, r + 1) - 1
        r -= starts[li]
        pos = 1  # mover position; positions 1..pos-1 hold pos*(pos-1)/2 shifts
        while (pos + 1) * pos // 2 <= r:
            pos += 1
        chosen.add((li, pos, r - pos * (pos - 1) // 2 + 1))
    items = sorted(chosen)
    total = sum(Fraction(1, w) for _, _, w in items)
    lines = []
    for li, pos, w in items:
        side, own, other, a, prefs = lists[li]
        p = Fraction(1, w) / total
        lines.append(f"{side} {own}{a + 1} {other}{prefs[pos] + 1} {w} {p.numerator}/{p.denominator}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Input:
    """One generated input: the CLI arguments plus what its output must be."""

    name: str
    argv: list[str]
    units: int                       # work units one successful op completes
    expected: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    stable_set: set | None = None    # every stable matching, when the generator implies it


@dataclass(frozen=True)
class Workload:
    """A named operation and the generator of its inputs.  Why each workload
    exists is recorded in BENCHMARK.json and perfbench/NOTES.md."""

    name: str
    command: str
    make: Callable[[random.Random, Path, str], list[Input]]

    def inputs(self, seed: int, workdir: Path) -> list[Input]:
        return self.make(random.Random(f"{self.name}:{seed}"), workdir, self.command)


UNIFORM_COMPLETE_N = 30
UNIFORM_INCOMPLETE_N = 20
UNIFORM_INCOMPLETE_C = 0.7
CHAIN_N = 120
CHAIN_SHIFTS = 6000
BLOCKS_K = 4
BLOCKS_M = 6
# The random workloads run a fixed panel of generator seeds, 4242 (the
# ROADMAP baseline) first.  Random instances of one size differ in op cost by
# up to 2x, so drawing new ones per run would make a run's medians depend on
# the draw; the workload seed instead relabels every panel instance.  An odd
# count puts the median op inside the middle instance's cluster.
PANEL_SEEDS = (4242, *range(1, 7))


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _argv(command: str, instance: str, dist: str | None) -> list[str]:
    argv = [command, "--instance", instance]
    if dist is not None:
        argv += ["--dist", dist]
    return argv + ["--format", "json"]


def _uniform_inputs(rng, workdir, command, n, completeness):
    """The panel of random instances, each relabelled by the workload seed."""
    out = []
    for s in PANEL_SEEDS:
        name = f"random-n{n}-c{completeness}-s{s}"
        prefs = relabel(*random_instance(n, s, completeness), rng)
        path = _write(workdir, name + ".txt", instance_text(*prefs))
        out.append(Input(name, _argv(command, path, "full-uniform"), 0))
    return out


def _make_uniform_complete(rng, workdir, command):
    return _uniform_inputs(rng, workdir, command, UNIFORM_COMPLETE_N, 1.0)


def _make_uniform_incomplete(rng, workdir, command):
    return _uniform_inputs(rng, workdir, command, UNIFORM_INCOMPLETE_N, UNIFORM_INCOMPLETE_C)


def _make_chain_decay(rng, workdir, command):
    out = []
    for _ in range(2):
        s = rng.randrange(2**31)
        boy_prefs, girl_prefs = cyclic_chain(CHAIN_N, s)
        name = f"chain-n{CHAIN_N}-s{s}"
        inst = _write(workdir, name + ".txt", instance_text(boy_prefs, girl_prefs))
        dist = _write(workdir, name + ".dist",
                      decay_distribution_text(boy_prefs, girl_prefs, CHAIN_SHIFTS, s))
        out.append(Input(name, _argv(command, inst, dist), 0))
    return out


def _make_lattice_enumerate(rng, workdir, command):
    out = []
    for _ in range(2):
        s = rng.randrange(2**31)
        name = f"blocks-k{BLOCKS_K}-m{BLOCKS_M}-s{s}"
        path = _write(workdir, name + ".txt", instance_text(*k_blocks(BLOCKS_K, BLOCKS_M, s)))
        out.append(Input(name, _argv(command, path, None), 0,
                         stable_set=block_matchings(BLOCKS_K, BLOCKS_M)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-complete", "solve", _make_uniform_complete),
        Workload("uniform-incomplete", "solve", _make_uniform_incomplete),
        Workload("chain-decay", "represent", _make_chain_decay),
        Workload("lattice-enumerate", "enumerate", _make_lattice_enumerate),
    )
}


# ---------------------------------------------------------------------------
# expected values and their certification

def format_matching(inst: PreferenceInstance, matching) -> dict:
    """A matching in the CLI's JSON shape, written independently of the CLI."""
    boys, girls = unmatched_agents(inst, matching)
    return {
        "pairs": [[f"b{b + 1}", f"g{g + 1}"] for b, g in matching.pairs],
        "unmatched_boys": [f"b{b + 1}" for b in boys],
        "unmatched_girls": [f"g{g + 1}" for g in girls],
    }


def _fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def load(argv: list[str]) -> tuple[PreferenceInstance, str | None]:
    """The instance an op's arguments name, parsed in-process, and its --dist value."""
    inst = parse_instance(Path(argv[argv.index("--instance") + 1]).read_text(encoding="utf-8"))
    return inst, argv[argv.index("--dist") + 1] if "--dist" in argv else None


def load_distribution(inst: PreferenceInstance, dist_arg: str) -> ShiftDistribution:
    if dist_arg == "full-uniform":
        return ShiftDistribution.uniform(inst)
    return parse_distribution(Path(dist_arg).read_text(encoding="utf-8"), inst)


class PositionalObjective:
    """Breaking probability of any stable matching by the positional test.

    Sums the probability of every shift for which ``characterize_MAB`` holds:
    the owner's partner sits in the window and the mover prefers the owner to
    his or her own partner.  Shifts of one (side, owner, mover) differ only in
    the window, and the test holds exactly for windows >= i - p (i the mover's
    position, p the partner's), so each group is summed from a suffix table.
    Weights are integers over one common denominator, ``scale``.
    """

    def __init__(self, inst: PreferenceInstance, groups, scale: int, shifts: int):
        # per group: girl list?, owner, mover, mover position i, windows
        # ascending, suffix sums of their weights, owner's and mover's ranks
        self.groups = [
            (girl_list, owner, mover, i, windows, suffix,
             (inst.girl_rank if girl_list else inst.boy_rank)[owner],
             (inst.boy_rank if girl_list else inst.girl_rank)[mover])
            for girl_list, owner, mover, i, windows, suffix in groups
        ]
        self.scale = scale
        self.shifts = shifts

    @classmethod
    def of(cls, inst: PreferenceInstance, dist: ShiftDistribution) -> "PositionalObjective":
        scale = lcm(*(p.denominator for _, p in dist.entries)) if dist.entries else 1
        by_pair: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
        for shift, p in dist.entries:
            weight = p.numerator * (scale // p.denominator)
            by_pair.setdefault((shift.side, shift.agent, shift.mover), []).append((shift.window, weight))
        groups = []
        for (side, owner, mover), entries in by_pair.items():
            entries.sort()
            suffix = [0] * (len(entries) + 1)
            for j in range(len(entries) - 1, -1, -1):
                suffix[j] = suffix[j + 1] + entries[j][1]
            groups.append((side == GIRL_LIST, owner, mover, inst.prefs_of(side, owner).index(mover),
                           [w for w, _ in entries], suffix))
        return cls(inst, groups, scale, len(dist.entries))

    @classmethod
    def uniform(cls, inst: PreferenceInstance) -> "PositionalObjective":
        """The full-uniform distribution without building it: every shift weighs 1."""
        groups = []
        for girl_list, side_prefs in ((True, inst.girl_prefs), (False, inst.boy_prefs)):
            for owner, prefs in enumerate(side_prefs):
                for i in range(1, len(prefs)):
                    groups.append((girl_list, owner, prefs[i], i, range(1, i + 1),
                                   [i - j for j in range(i + 1)]))
        shifts = sum(len(g[4]) for g in groups)
        return cls(inst, groups, max(shifts, 1), shifts)

    def __call__(self, matching) -> Fraction:
        girl_of = dict(matching.pairs)
        boy_of = {g: b for b, g in matching.pairs}
        total = 0
        for girl_list, owner, mover, i, windows, suffix, owner_rank, mover_rank in self.groups:
            if girl_list:
                partner, mate = boy_of.get(owner), girl_of.get(mover)
            else:
                partner, mate = girl_of.get(owner), boy_of.get(mover)
            if partner is None:
                continue
            p = owner_rank[partner]
            if p >= i or (mate is not None and mover_rank[mate] <= mover_rank[owner]):
                continue
            total += suffix[bisect_left(windows, i - p)]
        return Fraction(total, self.scale)


def apply_rotations(poset, mask: int) -> Matching:
    """The matching of a closed rotation set, by moving each rotation's boys
    to their post-rotation partners in id order (a linear extension), without
    the exposure checks of ``closed_set_to_matching``."""
    girl_of = dict(poset.boy_opt.pairs)
    for v in mask_to_ids(mask):
        girl_of.update(poset.rotations[v].post_pairs)
    return Matching(girl_of.items())


def record(command: str, argv: list[str], stable_set=None, run_solver: bool = True):
    """(expected checked keys, facts, certification problems) for one input.

    ``solve`` expectations come from outside the solver: the minimum of the
    positional test over every stable matching, and the smallest closed set
    attaining it (the intersection of all optimal ones), which is what the
    solver returns.  With ``run_solver`` the in-process solution is also
    certified by complementary slackness against its own flow
    (``certificate_violations``) and compared with them.  ``represent``
    records the in-process robust poset, certified the same way and by
    comparing the matchings it generates with the positional argmin set.
    ``enumerate`` records the in-process lattice, its matchings rebuilt with
    ``apply_rotations``, certified by stability, distinctness and, when the
    generator implies it (``stable_set``, sorted pair tuples), the exact set
    of stable matchings.
    """
    inst, dist_arg = load(argv)
    problems: list[str] = []
    facts: dict = {}
    poset = build_rotation_poset(inst)
    masks = enumerate_closed_masks(poset)
    matchings = [apply_rotations(poset, m) for m in masks]
    if command == "enumerate":
        if len(set(matchings)) != len(matchings):
            problems.append("enumeration repeats a matching")
        if not all(is_stable(inst, m) for m in matchings):
            problems.append("enumeration emits an unstable matching")
        if stable_set is not None and {m.pairs for m in matchings} != stable_set:
            problems.append("enumeration differs from the generator's stable matchings")
        facts["units"] = len(matchings)
        expected = {"count": len(matchings),
                    "matchings": [format_matching(inst, m) for m in matchings]}
        return expected, facts, problems

    if dist_arg == "full-uniform":
        positional = PositionalObjective.uniform(inst)
    else:
        positional = PositionalObjective.of(inst, load_distribution(inst, dist_arg))
    values = [positional(m) for m in matchings]
    best = min(values)
    optimal = [m for m, v in zip(masks, values) if v == best]
    smallest = poset.full_mask
    for m in optimal:
        smallest &= m
    facts["units"] = positional.shifts
    facts["stable_matchings"] = len(masks)

    run = None
    if run_solver or command == "represent":
        run = solve_pipeline(inst, load_distribution(inst, dist_arg))
        problems += certificate_violations(run.network, run.flow, run.closed_mask)
        if run.solution.objective != best:
            problems.append(f"objective {run.solution.objective} is not the positional minimum {best}")
        if run.closed_mask != smallest:
            problems.append("closed set is not the smallest optimal closed set")
    if command == "solve":
        matching = apply_rotations(poset, smallest)
        if not is_stable(inst, matching):
            problems.append("expected matching is not stable")
        expected = {"matching": format_matching(inst, matching),
                    "objective": _fraction_text(best),
                    "closed_set": list(mask_to_ids(smallest))}
        return expected, facts, problems

    robust = build_robust_poset(run.network, run.flow)
    if set(enumerate_robust(robust)) != {apply_rotations(poset, m) for m in optimal}:
        problems.append("robust poset does not generate exactly the optimal matchings")
    expected = {"objective": _fraction_text(best),
                "mandatory": list(robust.mandatory),
                "excluded": list(robust.excluded),
                "free_elements": [list(e) for e in robust.free_elements],
                "edges": [list(e) for e in robust.edges]}
    return expected, facts, problems


def distribution_bytes(argv: list[str]) -> int:
    """Heap bytes the op's error distribution holds once built (0 without one)."""
    inst, dist_arg = load(argv)
    if dist_arg is None:
        return 0
    tracemalloc.start()
    try:
        dist = load_distribution(inst, dist_arg)  # alive while memory is read
        held = tracemalloc.get_traced_memory()[0]
        del dist
        return held
    finally:
        tracemalloc.stop()


def prepare(workload: Workload, seed: int, workdir: Path, sizes: bool) -> tuple[list[Input], list[str]]:
    """Generate the run's inputs and record their certified expected outputs.

    Returns (inputs, certification problems).  The in-process solver runs on
    the first input only, where the run can afford it.  With ``sizes`` each
    input's facts also get the heap size of its distribution.
    """
    inputs = workload.inputs(seed, workdir)
    problems = []
    for index, inp in enumerate(inputs):
        try:
            expected, facts, found = record(workload.command, inp.argv, inp.stable_set,
                                            run_solver=index == 0)
        except Exception as exc:  # a broken program: its ops fail the check, the run goes on
            expected, facts, found = {}, {"units": 0}, [f"recording raised {exc!r}"]
        inp.expected = expected
        inp.facts.update(facts)
        inp.units = facts["units"]
        if sizes:
            inp.facts["dist_bytes"] = distribution_bytes(inp.argv)
        problems += [f"{inp.name}: {p}" for p in found]
    problems += [f"n<=7 family member: {p}" for p in family_cross_check(workload.name, seed)]
    return inputs, problems


def family_cross_check(workload: str, seed: int) -> list[str]:
    """Brute-force ``cross_check`` on a small (n <= 7) member of the workload's family."""
    rng = random.Random(f"small:{workload}:{seed}")
    s = rng.randrange(2**31)
    if workload == "uniform-complete":
        boy_prefs, girl_prefs = random_instance(6, s, 1.0)
    elif workload == "uniform-incomplete":
        boy_prefs, girl_prefs = random_instance(7, s, UNIFORM_INCOMPLETE_C)
    elif workload == "chain-decay":
        boy_prefs, girl_prefs = cyclic_chain(6, s)
    else:
        boy_prefs, girl_prefs = k_blocks(2, 3, s)
    inst = PreferenceInstance(boy_prefs, girl_prefs)
    if workload == "chain-decay":
        dist = parse_distribution(decay_distribution_text(boy_prefs, girl_prefs, 40, s), inst)
    else:
        dist = ShiftDistribution.uniform(inst)
    return list(cross_check(inst, dist).failures)


# ---------------------------------------------------------------------------
# the output check

def check_output(code: int, stdout: str, expected: dict, keys) -> str | None:
    """None when the op succeeded, else why it failed: a non-zero exit,
    output that is not JSON, or a checked key that differs."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    for key in keys:
        if key not in expected:
            return f"no expected value recorded for {key!r}"
        if payload.get(key) != expected[key]:
            return f"key {key!r} differs from the expected value"
    return None
