"""Command-line surface tying the solver pipeline together.

Subcommands
  solve          robust matching for an instance + error distribution
  lattice        dump the rotation poset of an instance
  analyze-shift  how one preference error cuts the lattice of stable matchings
  represent      the poset of all robust matchings (optionally enumerated)
  enumerate      all stable matchings of an instance
  verify         cross-check the solver against the brute-force oracle
  gen            reproducible random instance

Exit codes: 0 success, 1 validation or usage error, 2 verification mismatch,
3 internal invariant failure, 141 (128 + SIGPIPE) stdout closed by its
reader before the output ended.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .flow import dump_ip, dump_network, solve_pipeline
from .instance import (
    InstanceFormatError,
    PreferenceInstance,
    ShiftDistribution,
    boy_name,
    girl_name,
    parse_distribution,
    parse_instance,
    parse_shift,
    serialize_instance,
)
from .matching import serialize_matching, unmatched_agents
from .representation import build_robust_poset, robust_members, sublattice_poset
from .rotations import build_rotation_poset, closed_set_to_matching, enumerate_closed_masks, is_closed_mask
from .shift_analysis import EMPTY_MAB, PROPER, analyze_shift
from .verification import cross_check

# beyond this many free bits, counting matchings by enumeration is refused
_COUNT_LIMIT = 20


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so run() can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt_q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _rho_name(rid: int | None, sentinel: str) -> str:
    return sentinel if rid is None else f"R{rid}"


def _matching_json(inst: PreferenceInstance, matching) -> dict:
    boy_names, girl_names = inst.boy_names, inst.girl_names
    boys, girls = unmatched_agents(inst, matching)
    return {
        "pairs": [[boy_names[b], girl_names[g]] for b, g in matching.pairs],
        "unmatched_boys": [boy_names[b] for b in boys],
        "unmatched_girls": [girl_names[g] for g in girls],
    }


def _matching_block(inst: PreferenceInstance, matching) -> str:
    return serialize_matching(inst, matching).rstrip("\n")


def _json_names(names, depth: int) -> str:
    """A list of names as json.dumps(..., indent=2) renders it at this nesting depth."""
    if not names:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, names)) + "\n" + "  " * depth + "]"


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _write_matchings(inst: PreferenceInstance, head, poset, masks) -> None:
    """Print head, then the stable matching of each closed set in masks as
    soon as the iterable yields it.

    A dict head is a JSON payload whose last value is an empty list: the
    output is what _emit prints once that list holds every matching's
    _matching_json.  A list head holds text lines: the output is what print
    prints for them, each _matching_block after an empty line, and the
    blocks alone (one empty line apart) when there are no head lines.  A row
    is each boy's cell at his slot (RotationPoset.boy_slots).  Consecutive
    boys with the same boundary mask hold the same slot in every closed set
    (a boy whose partner never moves has mask 0, and the boys of one cyclic
    block move together), so each run of them is one entry whose cells are
    joined per slot; a row then costs one bit count per run.  The cells and
    the unmatched agents, alike in all stable matchings, are rendered once.
    A mask holding a rotation that no earlier mask held goes through
    closed_set_to_matching, any other through is_closed_mask."""
    boy_names, girl_names = inst.boy_names, inst.girl_names
    boys, girls = unmatched_agents(inst, poset.boy_opt)
    boys, girls = [boy_names[b] for b in boys], [girl_names[g] for g in girls]
    write = sys.stdout.write
    if isinstance(head, list):
        write("\n".join(head))
        render, sep, opening, ends = " ".join, "\n", "", ("\n", "\n")
        first, lead = "\n\n" if head else "", "\n\n"
        tail = "\n".join(["# unmatched", *boys, *girls]) if boys or girls else ""
        closing = "\n" + tail if poset.boy_slots and tail else tail
    else:
        before, _, after = json.dumps(head, indent=2).rpartition("[]")
        write(before)
        render, sep, first, lead = functools.partial(_json_names, depth=4), ",\n        ", "[\n    {", ",\n    {"
        opening = '\n      "pairs": ' + ("[\n        " if poset.boy_slots else "[]")
        closing = ("\n      ]" if poset.boy_slots else "") + ',\n      "unmatched_boys": ' + _json_names(boys, 3)
        closing += ',\n      "unmatched_girls": ' + _json_names(girls, 3) + "\n    }"
        ends = ("[]" + after + "\n", "\n  ]" + after + "\n")
    table = []
    for crossed, run in itertools.groupby(poset.boy_slots, operator.itemgetter(1)):
        cells = [[render((boy_names[b], girl_names[g])) for g in partners] for b, _, partners in run]
        table.append((crossed, [sep.join(slot) for slot in zip(*cells)]))
    passed = 0
    for mask in masks:
        if mask & ~passed:
            closed_set_to_matching(poset, mask)
            passed |= mask
        elif not is_closed_mask(poset, mask):
            raise ValueError("rotation set is not downward closed")
        write(first + opening + sep.join([cells[(mask & crossed).bit_count()] for crossed, cells in table]) + closing)
        first = lead
    write(ends[first == lead])


def _load_instance(args) -> PreferenceInstance:
    with open(args.instance, encoding="utf-8-sig") as fh:
        return parse_instance(fh.read())


def _load_distribution(args, inst: PreferenceInstance) -> ShiftDistribution:
    if args.dist == "full-uniform":
        return ShiftDistribution.uniform(inst)
    with open(args.dist, encoding="utf-8-sig") as fh:
        return parse_distribution(fh.read(), inst)


# ---------------------------------------------------------------------------
# random instances

def gen_random_instance(n: int, seed: int, completeness: float = 1.0) -> PreferenceInstance:
    """Random instance with n agents per side, byte-reproducible in (n, seed).

    Each agent draws a uniformly random permutation of the other side.
    completeness c < 1 keeps only the top max(1, round(c*n)) entries of every
    list, and mutual acceptability is restored by intersecting the two sides'
    truncated lists, preserving order.
    """
    if n < 1:
        raise ValueError("need at least one agent per side")
    if not 0 < completeness <= 1:
        raise ValueError("completeness must be in (0, 1]")
    rng = random.Random(seed)

    # explicit Fisher-Yates so the bytes depend only on randrange, which is
    # stable across interpreter versions
    def permutation() -> list[int]:
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    keep = max(1, round(completeness * n))
    boy_wants = [permutation()[:keep] for _ in range(n)]
    girl_wants = [permutation()[:keep] for _ in range(n)]
    girl_accepts = [set(p) for p in girl_wants]
    boy_accepts = [set(p) for p in boy_wants]
    boy_prefs = tuple(
        tuple(g for g in wants if b in girl_accepts[g]) for b, wants in enumerate(boy_wants)
    )
    girl_prefs = tuple(
        tuple(b for b in wants if g in boy_accepts[b]) for g, wants in enumerate(girl_wants)
    )
    return PreferenceInstance(boy_prefs, girl_prefs)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_solve(args) -> int:
    inst = _load_instance(args)
    dist = _load_distribution(args, inst)
    run = solve_pipeline(inst, dist)
    sol = run.solution
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "solve",
            "matching": _matching_json(inst, sol.matching),
            "objective": _fmt_q(sol.objective),
            "flow_value": _fmt_q(sol.flow_value),
            "constant_loss": _fmt_q(sol.constant_loss),
            "closed_set": list(sol.closed_set),
        }
        if args.dump_network:
            payload["network"] = dump_network(run.network).splitlines()
        if args.dump_ip:
            payload["ip"] = dump_ip(run.network).splitlines()
        _emit(payload)
        return 0
    lines = [_matching_block(inst, sol.matching)]
    lines.append(f"objective {_fmt_q(sol.objective)}")
    lines.append(f"flow {_fmt_q(sol.flow_value)}")
    lines.append(f"constant {_fmt_q(sol.constant_loss)}")
    closed = " ".join(f"R{r}" for r in sol.closed_set) or "(empty)"
    lines.append(f"closed set {closed}")
    if args.dump_network:
        lines += ["", dump_network(run.network)]
    if args.dump_ip:
        lines += ["", dump_ip(run.network)]
    print("\n".join(lines))
    return 0


def _cmd_lattice(args) -> int:
    inst = _load_instance(args)
    poset = build_rotation_poset(inst)
    edges = [("S", f"R{v}") for v in poset.minimal_ids]
    for u in range(poset.size):
        edges += [(f"R{u}", f"R{v}") for v in poset.hasse_succs[u]]
    edges += [(f"R{u}", "T") for u in poset.maximal_ids]
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "lattice",
            "rotations": [
                {"id": k, "pairs": [[boy_name(b), girl_name(g)] for b, g in rot.pairs]}
                for k, rot in enumerate(poset.rotations)
            ],
            "hasse": [list(e) for e in edges],
            "boy_optimal": _matching_json(inst, poset.boy_opt),
            "girl_optimal": _matching_json(inst, poset.girl_opt),
        }
        _emit(payload)
        return 0
    lines = [f"R{k}: {rot.describe()}" for k, rot in enumerate(poset.rotations)]
    lines += [f"HASSE: {u} -> {v}" for u, v in edges]
    if lines:
        print("\n".join(lines))
    return 0


def _member_count(sublattice) -> int | None:
    """How many matchings the sublattice holds, when small enough to enumerate."""
    if len(sublattice.free_elements) > _COUNT_LIMIT:
        return None
    return len(sublattice.member_masks())


def _cmd_analyze_shift(args) -> int:
    inst = _load_instance(args)
    shift = parse_shift(args.shift, inst)
    poset = build_rotation_poset(inst)
    analysis = analyze_shift(poset, inst, shift)
    size = 0
    if analysis.status != EMPTY_MAB:
        sublattice = sublattice_poset(poset, analysis)
        size = _member_count(sublattice)
    proper = analysis.status == PROPER
    if proper:
        boy_best = robust_members(sublattice, ())
        girl_best = robust_members(sublattice, range(len(sublattice.free_elements)))
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "analyze-shift",
            "shift": shift.describe(),
            "status": analysis.status,
            "rho_in": _rho_name(analysis.rho_in, "S") if proper else None,
            "rho_out": _rho_name(analysis.rho_out, "T") if proper else None,
            "m_ab_size": size,
            "fragment": [r for (r,) in sublattice.free_elements] if proper else None,
            "m_boy": _matching_json(inst, boy_best) if proper else None,
            "m_girl": _matching_json(inst, girl_best) if proper else None,
        }
        _emit(payload)
        return 0
    lines = [f"shift {shift.describe()}", f"status {analysis.status}"]
    if proper:
        lines.append(f"rho_in {_rho_name(analysis.rho_in, 'S')}")
        lines.append(f"rho_out {_rho_name(analysis.rho_out, 'T')}")
    if size is not None:
        lines.append(f"|M_AB| {size}")
    if proper:
        lines += ["M_boy:", _matching_block(inst, boy_best)]
        lines += ["M_girl:", _matching_block(inst, girl_best)]
    print("\n".join(lines))
    return 0


def _cmd_represent(args) -> int:
    inst = _load_instance(args)
    dist = _load_distribution(args, inst)
    run = solve_pipeline(inst, dist)
    robust = build_robust_poset(run.network, run.flow)
    masks = robust.member_masks() if args.enumerate else None
    count = len(masks) if masks is not None else _member_count(robust)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "represent",
            "objective": _fmt_q(run.solution.objective),
            "mandatory": list(robust.mandatory),
            "excluded": list(robust.excluded),
            "free_elements": [list(e) for e in robust.free_elements],
            "edges": [list(e) for e in robust.edges],
            "robust_count": count,
        }
        if masks is None:
            _emit(payload)
        else:
            _write_matchings(inst, {**payload, "matchings": []}, robust.poset, masks)
        return 0

    def ids(rotations) -> str:
        return " ".join(f"R{r}" for r in rotations) or "(none)"

    lines = [f"mandatory: {ids(robust.mandatory)}", f"excluded: {ids(robust.excluded)}"]
    lines += [f"E{k}: {ids(element)}" for k, element in enumerate(robust.free_elements)]
    lines += [f"DAG: E{i} -> E{j}" for i, j in robust.edges]
    lines.append(f"elements {len(robust.free_elements)}, edges {len(robust.edges)}")
    lines.append(f"objective {_fmt_q(run.solution.objective)}")
    if count is not None:
        lines.append(f"robust matchings {count}")
    if masks is None:
        print("\n".join(lines))
    else:
        _write_matchings(inst, lines, robust.poset, masks)
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args)
    poset = build_rotation_poset(inst)
    masks = enumerate_closed_masks(poset)
    head = {"schema": 1, "command": "enumerate", "count": len(masks), "matchings": []}
    _write_matchings(inst, head if args.format == "json" else [], poset, masks)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args)
    dist = _load_distribution(args, inst)
    report = cross_check(inst, dist)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "verify",
            "ok": report.ok,
            "failures": list(report.failures),
            "objective": _fmt_q(report.main_objective),
            "oracle_objective": _fmt_q(report.oracle_objective),
            "robust_count": len(report.argmin_masks),
            "oracle_robust_count": len(report.oracle_argmin),
            "argmin": [],
        }
        _write_matchings(inst, payload, report.poset, report.argmin_masks)
        return 0 if report.ok else 2
    lines = [
        f"objective {_fmt_q(report.main_objective)}",
        f"oracle objective {_fmt_q(report.oracle_objective)}",
        f"robust matchings {len(report.argmin_masks)} (oracle {len(report.oracle_argmin)})",
    ]
    if report.ok:
        lines.append("OK")
    else:
        lines.append("FAIL")
        lines += [f"- {failure}" for failure in report.failures]
        lines.append(report.argmin_diff())
    print("\n".join(lines))
    return 0 if report.ok else 2


def _cmd_gen(args) -> int:
    inst = gen_random_instance(args.n, args.seed, args.completeness)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "gen",
            "n_boys": inst.n_boys,
            "n_girls": inst.n_girls,
            "boys": [[girl_name(g) for g in prefs] for prefs in inst.boy_prefs],
            "girls": [[boy_name(b) for b in prefs] for prefs in inst.girl_prefs],
        }
        _emit(payload)
        return 0
    sys.stdout.write(serialize_instance(inst))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustmatch",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name: str, help_: str, *, instance: bool = True, dist: bool = False):
        p = sub.add_parser(name, help=help_, description=help_)
        if instance:
            p.add_argument("--instance", required=True, metavar="PATH", help="instance file")
        if dist:
            p.add_argument(
                "--dist",
                required=True,
                metavar="PATH",
                help="shift distribution file, or the literal 'full-uniform'",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("solve", "compute one robust stable matching", dist=True)
    p.add_argument("--dump-network", action="store_true", help="also print the closure network")
    p.add_argument("--dump-ip", action="store_true", help="also print the 0/1 program")
    p.set_defaults(handler=_cmd_solve)

    p = add("lattice", "print the rotation poset")
    p.set_defaults(handler=_cmd_lattice)

    p = add("analyze-shift", "classify one preference error")
    p.add_argument(
        "--shift", required=True, metavar="SHIFT", help="e.g. 'GIRL_LIST g1 b1 1'"
    )
    p.set_defaults(handler=_cmd_analyze_shift)

    p = add("represent", "print the poset of all robust matchings", dist=True)
    p.add_argument("--enumerate", action="store_true", help="also print every robust matching")
    p.set_defaults(handler=_cmd_represent)

    p = add("enumerate", "print every stable matching")
    p.set_defaults(handler=_cmd_enumerate)

    p = add("verify", "cross-check the solver against the brute-force oracle", dist=True)
    p.set_defaults(handler=_cmd_verify)

    p = add("gen", "generate a reproducible random instance", instance=False)
    p.add_argument("--n", type=int, required=True, help="agents per side")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--completeness",
        type=float,
        default=1.0,
        help="kept fraction of each preference list, in (0, 1]",
    )
    p.set_defaults(handler=_cmd_gen)
    return parser


# parsing leaves a parser unchanged, so every run call in a process shares one
_shared_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:  # the reader closed stdout: not an input error
        raise
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``robustmatch enumerate ... | head``):
        # point fd 1 at devnull so that the interpreter's final flush stays
        # quiet, and exit with 128 + SIGPIPE as a process killed by it does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
