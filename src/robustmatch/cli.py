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
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

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
from .representation import build_robust_poset, enumerate_robust
from .rotations import build_rotation_poset, closed_set_to_matching, enumerate_closed_masks
from .shift_analysis import DISJOINT, PROPER, analyze_shift, sublattice_poset
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
    boys, girls = unmatched_agents(inst, matching)
    return {
        "pairs": [[boy_name(b), girl_name(g)] for b, g in matching.pairs],
        "unmatched_boys": [boy_name(b) for b in boys],
        "unmatched_girls": [girl_name(g) for g in girls],
    }


def _matching_block(inst: PreferenceInstance, matching) -> str:
    return serialize_matching(inst, matching).rstrip("\n")


def _load_instance(args) -> PreferenceInstance:
    with open(args.instance, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _load_distribution(args, inst: PreferenceInstance) -> ShiftDistribution:
    if args.dist == "full-uniform":
        return ShiftDistribution.uniform(inst)
    with open(args.dist, encoding="utf-8") as fh:
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
        print(json.dumps(payload, indent=2))
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
        print(json.dumps(payload, indent=2))
        return 0
    lines = [f"R{k}: {rot.describe()}" for k, rot in enumerate(poset.rotations)]
    lines += [f"HASSE: {u} -> {v}" for u, v in edges]
    if lines:
        print("\n".join(lines))
    return 0


def _mab_size(poset, analysis) -> int | None:
    """|M_AB| when small enough to enumerate, else None."""
    if analysis.status == PROPER:
        fragment, _, _ = sublattice_poset(poset, analysis)
        if len(fragment.fragment_ids) > _COUNT_LIMIT:
            return None
        return len(fragment.closed_masks())
    if analysis.status == DISJOINT:
        if poset.size > _COUNT_LIMIT:
            return None
        return len(enumerate_closed_masks(poset))
    return 0


def _cmd_analyze_shift(args) -> int:
    inst = _load_instance(args)
    shift = parse_shift(args.shift, inst)
    poset = build_rotation_poset(inst)
    analysis = analyze_shift(poset, inst, shift)
    size = _mab_size(poset, analysis)
    boy_best = girl_best = None
    fragment = None
    if analysis.status == PROPER:
        fragment, boy_best, girl_best = sublattice_poset(poset, analysis)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "analyze-shift",
            "shift": shift.describe(),
            "status": analysis.status,
            "rho_in": _rho_name(analysis.rho_in, "S") if analysis.status == PROPER else None,
            "rho_out": _rho_name(analysis.rho_out, "T") if analysis.status == PROPER else None,
            "m_ab_size": size,
            "fragment": list(fragment.fragment_ids) if fragment is not None else None,
            "m_boy": _matching_json(inst, boy_best) if boy_best is not None else None,
            "m_girl": _matching_json(inst, girl_best) if girl_best is not None else None,
        }
        print(json.dumps(payload, indent=2))
        return 0
    lines = [f"shift {shift.describe()}", f"status {analysis.status}"]
    if analysis.status == PROPER:
        lines.append(f"rho_in {_rho_name(analysis.rho_in, 'S')}")
        lines.append(f"rho_out {_rho_name(analysis.rho_out, 'T')}")
    if size is not None:
        lines.append(f"|M_AB| {size}")
    if boy_best is not None:
        lines += ["M_boy:", _matching_block(inst, boy_best)]
        lines += ["M_girl:", _matching_block(inst, girl_best)]
    print("\n".join(lines))
    return 0


def _cmd_represent(args) -> int:
    inst = _load_instance(args)
    dist = _load_distribution(args, inst)
    run = solve_pipeline(inst, dist)
    robust = build_robust_poset(run.network, run.flow)
    matchings = enumerate_robust(robust) if args.enumerate else None
    if matchings is not None:
        count = len(matchings)
    elif len(robust.free_elements) <= _COUNT_LIMIT:
        count = len(robust.element_closed_sets())
    else:
        count = None
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
        if matchings is not None:
            payload["matchings"] = [_matching_json(inst, m) for m in matchings]
        print(json.dumps(payload, indent=2))
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
    if matchings is not None:
        for m in matchings:
            lines += ["", _matching_block(inst, m)]
    print("\n".join(lines))
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args)
    poset = build_rotation_poset(inst)
    masks = enumerate_closed_masks(poset)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "enumerate",
            "count": len(masks),
            "matchings": [
                _matching_json(inst, closed_set_to_matching(poset, m)) for m in masks
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    blocks = [_matching_block(inst, closed_set_to_matching(poset, m)) for m in masks]
    print("\n\n".join(blocks))
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
            "robust_count": len(report.main_argmin),
            "oracle_robust_count": len(report.oracle_argmin),
            "argmin": [_matching_json(inst, m) for m in report.main_argmin],
        }
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 2
    lines = [
        f"objective {_fmt_q(report.main_objective)}",
        f"oracle objective {_fmt_q(report.oracle_objective)}",
        f"robust matchings {len(report.main_argmin)} (oracle {len(report.oracle_argmin)})",
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
        print(json.dumps(payload, indent=2))
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


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(run(sys.argv[1:]))
