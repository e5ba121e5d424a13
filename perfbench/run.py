"""robustmatch benchmark: one workload run, end-to-end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed, records their certified
expected outputs, times ``import robustmatch`` in several fresh interpreters
(``setup_s``), and then starts one fresh interpreter (perfbench/worker.py)
that drives ``robustmatch.cli.run`` in a closed loop for S seconds, checking
every output.  It prints each metric with its unit, a context line, and as
the last line one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead.  A record of the run, with every op and span, is written under
``.perfbench_out/``.  Exit status is 2 when the checkout has no program to
measure or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from timing import REF_NOMINAL_S, normalise, ref_loop, tail

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# every run must end within 180 s; the worker gets what is left of this
RUN_BUDGET_S = 170.0

# (name, unit) of the end-to-end metrics, in print order; failed_frac is
# printed but kept out of the JSON metrics because it is 0 when all is well
E2E = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metric -> unit; a layer that does not run on a workload reads 0
LAYER_UNITS = {
    "instance.parse_s": "s",
    "instance.dist_s": "s",
    "instance.validate_s": "s",
    "instance.shifts": "count",
    "instance.dist_bytes": "bytes",
    "rotations.poset_s": "s",
    "rotations.count": "count",
    "rotations.hasse_edges": "count",
    "rotations.enumerate_s": "s",
    "rotations.materialize_s": "s",
    "rotations.lattice_size": "count",
    "shift_analysis.girl_s": "s",
    "shift_analysis.boy_s": "s",
    "shift_analysis.first_boy_s": "s",
    "shift_analysis.us_per_shift": "us",
    "shift_analysis.proper": "count",
    "shift_analysis.disjoint": "count",
    "shift_analysis.empty_mab": "count",
    "shift_analysis.unchanged": "count",
    "shift_analysis.useful_frac": "ratio",
    "flow.network_s": "s",
    "flow.maxflow_s": "s",
    "flow.extract_s": "s",
    "flow.shift_edges": "count",
    "flow.scale_bits": "bits",
    "flow.merge_ratio": "ratio",
    "flow.certificate_violations": "count",
    "representation.build_s": "s",
    "representation.free_elements": "count",
    "representation.dag_edges": "count",
    "matching.serialize_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _context(ref_samples) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "robustmatch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_loop_s": median(ref_samples),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples: int) -> tuple[list[float], list[float], list[float]]:
    """(normalised, raw, reference) seconds of fresh interpreters that only
    ``import robustmatch``; one unmeasured start first fills the bytecode cache."""
    argv = [sys.executable, "-c", "import robustmatch"]
    subprocess.run(argv, env=_env(), check=True, timeout=60, stdout=subprocess.DEVNULL)
    norm, raw, refs = [], [], [ref_loop()]
    for _ in range(samples):
        start = perf_counter()
        subprocess.run(argv, env=_env(), check=True, timeout=60, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        refs.append(ref_loop())
        raw.append(wall)
        norm.append(normalise(wall, refs[-2], refs[-1]))
    return norm, raw, refs


def e2e_metrics(ops, peak_rss_mb, setup_norm) -> tuple[dict, dict]:
    """(metrics, extra facts) from the untraced ops of a run."""
    def tail_or_max(values):
        return tail(values) or (max(values), 100.0, len(values))

    ok = [op for op in ops if op["failure"] is None] or ops
    norm = [op["norm_s"] for op in ok]
    tail_value, tail_pct, tail_n = tail_or_max(norm)
    metrics = {
        "latency_p50_s": median(norm),
        "latency_tail_s": tail_value,
        "work_per_s": sum(op["units"] for op in ops if op["failure"] is None)
        / sum(op["norm_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setup_norm),
    }
    extra = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": tail_n,
        "raw_latency_p50_s": median(op["raw_s"] for op in ok),
        "raw_latency_tail_s": tail_or_max([op["raw_s"] for op in ok])[0],
        "failed_frac": sum(op["failure"] is not None for op in ops) / len(ops),
    }
    return metrics, extra


def layer_metrics(ops, inputs) -> dict:
    """Per-layer medians over the traced ops, plus the tracing overhead."""
    traced = [op for op in ops if op["traced"] and "layers" in op]
    metrics = {name: median(op["layers"].get(name, 0) for op in traced) for name in LAYER_UNITS}
    dist_bytes = {inp.name: inp.facts.get("dist_bytes", 0) for inp in inputs}
    metrics["instance.dist_bytes"] = median(dist_bytes[op["input"]] for op in traced)
    traced_s = median(op["norm_s"] for op in traced)
    plain_s = median(op["norm_s"] for op in ops if not op["traced"])
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="robustmatch benchmark, one workload run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "robustmatch" / "cli.py").is_file():
        return _fail(f"no robustmatch sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from workloads import CHECKED_KEYS, WORKLOADS, prepare

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, problems = prepare(workload, args.seed, workdir, sizes=bool(args.trace))
        setup_norm, setup_raw, setup_refs = measure_setup(SETUP_SAMPLES)
        plan = {
            "seconds": args.seconds,
            "trace": args.trace,
            "keys": list(CHECKED_KEYS[workload.command]),
            "inputs": [{"name": i.name, "argv": i.argv, "units": i.units, "expected": i.expected}
                       for i in inputs],
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                       env=_env(), cwd=ROOT, check=True,
                       timeout=max(10.0, RUN_BUDGET_S - (perf_counter() - started)))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    untraced = [op for op in ops if not op["traced"]]
    e2e, extra = e2e_metrics(untraced, result["peak_rss_mb"], setup_norm)
    refs = [op["ref_before_s"] for op in ops] + [ops[-1]["ref_after_s"]]
    context = _context(refs + setup_refs)
    failed = sum(op["failure"] is not None for op in ops)
    if args.trace:
        metrics, units = layer_metrics(ops, inputs), LAYER_UNITS
    else:
        metrics, units = e2e, dict(E2E)

    for name, unit in E2E:
        print(f"{workload.name}  {name:<16} {e2e[name]:.6g} {unit}")
    print(f"{workload.name}  {'failed_frac':<16} {extra['failed_frac']:.6g} ratio")
    if args.trace:
        for name in sorted(metrics):
            print(f"{workload.name}  {name:<32} {metrics[name]:.6g} {units[name]}")
    for p in problems:
        print(f"certification problem: {p}")
    for op in ops:
        if op["failure"] is not None:
            print(f"failed op on {op['input']}: {op['failure']}")
    print(json.dumps({"context": context, **extra, "setup_raw_s": sorted(setup_raw)}))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "e2e": e2e, **extra,
              "metrics": metrics, "problems": problems,
              "inputs": [{"name": i.name, "units": i.units, "facts": i.facts} for i in inputs],
              "setup_norm_s": setup_norm, "setup_raw_s": setup_raw,
              "ops": ops, "spans": result["spans"]}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
