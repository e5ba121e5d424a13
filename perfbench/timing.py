"""Speed-normalised timing and the tail-percentile rule.

The host's CPU speed drifts by tens of percent between seconds, so raw wall
times of identical operations spread too widely to compare commits.  Every
time the benchmark reports is therefore scaled by how fast a fixed
pure-Python reference loop ran around it: ``wall * REF_NOMINAL_S / ref``,
where ``ref`` is the mean of the loop timed just before and just after the
measured interval.  Raw seconds and the loop's own times are kept beside
every normalised figure, so raw time can always be recovered.
"""

from __future__ import annotations

import random
import time

# The reference workload: deferred acceptance, rank tables and a scan for
# blocking pairs on one fixed random 120 x 120 instance, REF_ROUNDS times
# (about 50 ms on a 2-core x86-64 sandbox).  It is pure Python built from the
# same operations as the solver (dict and list indexing, tuples, small loops)
# but is the benchmark's own code, so no change to the program moves it.
# Measured against solve ops, its time tracked theirs with a log-log slope of
# 0.9-1.0, where a plain integer loop gave 1.2-1.3.
REF_ROUNDS = 25
_REF_N = 120

# A round figure near the reference workload's median wall time when the
# benchmark was defined (0.048 s on a 2-core x86-64 sandbox, CPython 3.11).
# Normalised seconds are seconds at the speed where the reference takes this
# long.  Changing it rescales every time metric, so it stays fixed.
REF_NOMINAL_S = 0.0500

# A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def _reference_instance():
    rng = random.Random(20181001)
    boys = [tuple(rng.sample(range(_REF_N), _REF_N)) for _ in range(_REF_N)]
    girls = [tuple(rng.sample(range(_REF_N), _REF_N)) for _ in range(_REF_N)]
    return boys, [{b: i for i, b in enumerate(p)} for p in girls]


_BOYS, _GIRL_RANK = _reference_instance()


def ref_loop() -> float:
    """Wall seconds of the fixed reference workload."""
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        next_choice = [0] * _REF_N
        fiance: dict[int, int] = {}
        free = list(range(_REF_N))
        while free:
            b = free.pop()
            while True:
                g = _BOYS[b][next_choice[b]]
                next_choice[b] += 1
                holder = fiance.get(g)
                if holder is None:
                    fiance[g] = b
                    break
                if _GIRL_RANK[g][b] < _GIRL_RANK[g][holder]:
                    fiance[g] = b
                    free.append(holder)
                    break
        boy_rank = [{g: i for i, g in enumerate(p)} for p in _BOYS]
        pairs = tuple(sorted((b, g) for g, b in fiance.items()))
        blocking = sum(
            1
            for b, g in pairs
            for g2 in _BOYS[b][:boy_rank[b][g]]
            if _GIRL_RANK[g2][b] < _GIRL_RANK[g2][fiance[g2]]
        )
        if blocking:
            raise AssertionError("deferred acceptance produced a blocking pair")
    return time.perf_counter() - start


def normalise(wall_s: float, ref_before_s: float, ref_after_s: float,
              nominal_s: float = REF_NOMINAL_S) -> float:
    """Wall time rescaled to the speed at which the reference loop takes nominal_s."""
    return wall_s * nominal_s / ((ref_before_s + ref_after_s) / 2)


def tail(values) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) of the highest percentile that still
    has at least TAIL_BEYOND samples strictly above it in sorted order.

    With N samples that is the (N - TAIL_BEYOND)-th smallest, at percentile
    100 * (N - TAIL_BEYOND) / N.  None when there are too few samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n
