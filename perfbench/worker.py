"""One workload run in a fresh interpreter: a closed loop of CLI operations.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the inputs, each op's CLI arguments and
expected output, the run length and whether to trace.  One client issues one
``robustmatch.cli.run`` call at a time, cycling through the inputs, until the
run length has passed and the last cycle is complete.  The reference
workload runs between consecutive ops, so each op is bracketed by one timing
before and one after.  In a traced run, odd ops are traced and even ops are
not, and the difference between the two is the tracing overhead.  The result
file holds every op's raw and normalised time, its failure if any, the
per-layer figures of traced ops (absent where a layer did not run), the
spans, and the interpreter's peak resident set size.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from time import perf_counter

from timing import normalise, ref_loop
from workloads import check_output

# A run keeps going past its length until it has this many ops, so the tail
# percentile has samples beyond it, and until it has run every input equally
# often, so its medians do not depend on where the length cut the cycle; but
# never past HARD_LIMIT_S.
MIN_OPS = 24
HARD_LIMIT_S = 120.0


def run_op(run, argv: list[str], expected: dict, keys):
    """(wall seconds, captured stdout, failure reason or None) of one CLI op.

    ``run(argv)`` is ``robustmatch.cli.run`` or a wrapper around it; an
    exception it raises is a failed op, as is a non-zero exit or a wrong
    checked key.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    except Exception:  # the loop must go on; the op is counted as failed
        wall = perf_counter() - start
        return wall, "", "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    wall = perf_counter() - start
    return wall, out.getvalue(), check_output(code, out.getvalue(), expected, keys)


def layer_figures(tracer, layers_s: dict, factor: float) -> dict:
    """Per-layer figures of one traced op: each layer's time as ``<layer>_s``
    (scaled by the op's normalisation factor) plus counts read from the
    traced calls' results."""
    from robustmatch.flow import certificate_violations

    out = {f"{name}_s": seconds * factor for name, seconds in layers_s.items()}
    if tracer.first_boy_s is not None:
        out["shift_analysis.first_boy_s"] = tracer.first_boy_s * factor
    res, status = tracer.results, tracer.status
    poset = res.get("rotations.poset")
    if poset is not None:
        out["rotations.count"] = poset.size
        out["rotations.hasse_edges"] = sum(len(s) for s in poset.hasse_succs)
    masks = res.get("rotations.enumerate")
    if masks is not None:
        out["rotations.lattice_size"] = len(masks)
    dist = res.get("instance.dist")
    if dist is not None:
        out["instance.shifts"] = len(dist.entries)
    analysed = sum(status.values())
    if analysed:
        for key in ("PROPER", "DISJOINT", "EMPTY_MAB", "UNCHANGED"):
            out[f"shift_analysis.{key.lower()}"] = status.get(key, 0)
        useful = status.get("PROPER", 0) + status.get("DISJOINT", 0)
        out["shift_analysis.useful_frac"] = useful / analysed
        out["shift_analysis.us_per_shift"] = 1e6 * (
            out.get("shift_analysis.girl_s", 0.0) + out.get("shift_analysis.boy_s", 0.0)) / analysed
    network, flow, mask = res.get("flow.network"), res.get("flow.maxflow"), res.get("flow.extract")
    if network is not None:
        out["flow.shift_edges"] = len(network.shift_edges)
        if status.get("PROPER"):
            out["flow.merge_ratio"] = len(network.shift_edges) / status["PROPER"]
    if flow is not None:
        out["flow.scale_bits"] = flow.scale.bit_length()
    if mask is not None:
        out["flow.certificate_violations"] = len(certificate_violations(network, flow, mask))
    robust = res.get("representation.build")
    if robust is not None:
        out["representation.free_elements"] = len(robust.free_elements)
        out["representation.dag_edges"] = len(robust.edges)
    return out


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from robustmatch import cli

    inputs, keys = plan["inputs"], plan["keys"]
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    cycle = len(inputs) * (2 if tracer else 1)
    ops = []
    ref_before = ref_loop()
    begin = perf_counter()
    i = 0
    while True:
        # traced runs give each input one untraced and then one traced op
        inp = inputs[(i // 2 if tracer else i) % len(inputs)]
        traced = tracer is not None and i % 2 == 1
        layers = None
        if traced:
            tracer.install()
            try:
                wall, _, failure = run_op(partial(tracer.root, i, cli.run), inp["argv"],
                                          inp["expected"], keys)
            finally:
                tracer.uninstall()
            layers = tracer.layers
        else:
            wall, _, failure = run_op(cli.run, inp["argv"], inp["expected"], keys)
        # each op starts from a collected heap, as a fresh CLI process would
        gc.collect()
        ref_after = ref_loop()
        op = {"input": inp["name"], "raw_s": wall, "ref_before_s": ref_before,
              "ref_after_s": ref_after, "norm_s": normalise(wall, ref_before, ref_after),
              "units": inp["units"], "failure": failure, "traced": traced}
        if layers is not None:
            op["layers"] = layer_figures(tracer, layers, op["norm_s"] / wall)
        ops.append(op)
        ref_before = ref_after
        i += 1
        elapsed = perf_counter() - begin
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= plan["seconds"] and i >= MIN_OPS and i % cycle == 0):
            break
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
