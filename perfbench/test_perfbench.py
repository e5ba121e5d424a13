"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from robustmatch import (  # noqa: E402
    PreferenceInstance,
    ShiftDistribution,
    build_rotation_poset,
    characterize_MAB,
    enumerate_closed_masks,
    parse_distribution,
)
from robustmatch import cli  # noqa: E402
from robustmatch.oracle import enumerate_stable_bruteforce  # noqa: E402

import timing  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    PositionalObjective,
    block_matchings,
    check_output,
    cyclic_chain,
    decay_distribution_text,
    instance_text,
    k_blocks,
    random_instance,
    record,
    relabel,
)


# -- generators ---------------------------------------------------------------

GENERATORS = {
    "cyclic_chain": lambda seed: instance_text(*cyclic_chain(9, seed)),
    "k_blocks": lambda seed: instance_text(*k_blocks(3, 4, seed)),
    "decay": lambda seed: decay_distribution_text(*cyclic_chain(9, 1), 30, seed),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_in_the_seed(name):
    make = GENERATORS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name, tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        WORKLOADS[name].inputs(seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert list(first.values()) != list(other.values())


def test_unrelabelled_chain_is_the_i3_fixture():
    fixture = HERE.parent / "tests" / "fixtures" / "I3.txt"
    assert instance_text(*cyclic_chain(3, None)) == fixture.read_text()


@pytest.mark.parametrize("n", [2, 3, 6])
def test_cyclic_chain_is_a_chain_of_n_minus_1_rotations(n):
    poset = build_rotation_poset(PreferenceInstance(*cyclic_chain(n, 11)))
    assert poset.size == n - 1
    assert len(enumerate_closed_masks(poset)) == n


def test_k_blocks_stable_set_is_the_block_product():
    inst = PreferenceInstance(*k_blocks(2, 3, 4))
    brute = {m.pairs for m in enumerate_stable_bruteforce(inst)}
    assert brute == block_matchings(2, 3)
    assert len(brute) == 3 ** 2


def test_relabel_keeps_the_lattice():
    import random

    prefs = random_instance(8, 4242, 1.0)
    moved = relabel(*prefs, random.Random(1))
    assert moved != prefs
    original, renamed = (build_rotation_poset(PreferenceInstance(*p)) for p in (prefs, moved))
    assert renamed.size == original.size
    assert len(enumerate_closed_masks(renamed)) == len(enumerate_closed_masks(original))


def test_decay_distribution_is_exact_and_decays_with_window():
    boy_prefs, girl_prefs = cyclic_chain(8, 2)
    inst = PreferenceInstance(boy_prefs, girl_prefs)
    dist = parse_distribution(decay_distribution_text(boy_prefs, girl_prefs, 50, 3), inst)
    assert len(dist.entries) == 50
    assert dist.total == 1
    weight = {shift.window: p for shift, p in dist.entries}
    assert all(weight[w] * w == weight[1] for w in weight)


# -- timing -------------------------------------------------------------------

def test_normalise_scales_by_nominal_over_mean_reference():
    assert timing.normalise(1.0, 0.04, 0.06, nominal_s=0.05) == pytest.approx(1.0)
    assert timing.normalise(2.0, 0.1, 0.1, nominal_s=0.05) == pytest.approx(1.0)
    assert timing.normalise(0.3, 0.025, 0.025, nominal_s=0.05) == pytest.approx(0.6)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert timing.tail(range(10)) is None
    assert timing.tail(range(11)) == (0, pytest.approx(100 / 11), 11)
    assert timing.tail(reversed(range(20))) == (9, pytest.approx(50.0), 20)
    value, pct, n = timing.tail([float(v) for v in range(40)])
    assert (value, pct, n) == (29.0, pytest.approx(75.0), 40)
    assert sum(v > value for v in range(40)) == timing.TAIL_BEYOND


# -- expected values and the check ---------------------------------------------

def _family_members():
    yield "complete", random_instance(5, 3, 1.0), None
    yield "incomplete", random_instance(6, 4, 0.7), None
    chain = cyclic_chain(5, 9)
    yield "chain", chain, decay_distribution_text(*chain, 25, 9)
    yield "blocks", k_blocks(2, 3, 1), None


@pytest.mark.parametrize("member", list(_family_members()), ids=lambda m: m[0])
def test_positional_objective_equals_characterize_mab_sum(member):
    _, prefs, dist_text = member
    inst = PreferenceInstance(*prefs)
    dist = ShiftDistribution.uniform(inst) if dist_text is None else parse_distribution(dist_text, inst)
    objective = PositionalObjective.of(inst, dist)
    uniform = PositionalObjective.uniform(inst)
    full = ShiftDistribution.uniform(inst)
    assert uniform.shifts == len(full.entries)
    for matching in enumerate_stable_bruteforce(inst):
        literal = sum((p for s, p in dist.entries if characterize_MAB(inst, s, matching)), Fraction(0))
        assert objective(matching) == literal
        literal = sum((p for s, p in full.entries if characterize_MAB(inst, s, matching)), Fraction(0))
        assert uniform(matching) == literal


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_small_family_members_pass_cross_check(name, seed):
    assert workloads.family_cross_check(name, seed) == []


@pytest.fixture
def chain_input(tmp_path):
    boy_prefs, girl_prefs = cyclic_chain(6, 5)
    inst = tmp_path / "chain.txt"
    inst.write_text(instance_text(boy_prefs, girl_prefs))
    dist = tmp_path / "chain.dist"
    dist.write_text(decay_distribution_text(boy_prefs, girl_prefs, 30, 5))
    return str(inst), str(dist)


@pytest.mark.parametrize("command", ["solve", "represent", "enumerate"])
def test_recorded_values_are_certified_and_match_the_cli(command, chain_input):
    inst, dist = chain_input
    argv = [command, "--instance", inst] + (["--dist", dist] if command != "enumerate" else [])
    argv += ["--format", "json"]
    expected, facts, problems = record(command, argv)
    assert problems == []
    assert facts["units"] > 0
    _, out, failure = run_op(cli.run, argv, expected, workloads.CHECKED_KEYS[command])
    assert failure is None, failure
    assert set(workloads.CHECKED_KEYS[command]) <= set(json.loads(out))


def test_check_ignores_additive_keys_and_flags_differences():
    expected = {"count": 2, "matchings": [1, 2]}
    keys = ("count", "matchings")
    ok = json.dumps({"count": 2, "matchings": [1, 2], "stats": {"x": 1}})
    assert check_output(0, ok, expected, keys) is None
    assert check_output(0, ok, {**expected, "count": 3}, keys) is not None
    assert check_output(1, ok, expected, keys) == "exit code 1"
    assert check_output(0, "not json", expected, keys) == "output is not JSON"
    assert check_output(0, ok, {}, keys) is not None


def test_corrupted_expected_value_and_exception_are_failed_ops(chain_input):
    inst, _ = chain_input
    argv = ["enumerate", "--instance", inst, "--format", "json"]
    keys = workloads.CHECKED_KEYS["enumerate"]
    expected, _, _ = record("enumerate", argv)
    assert run_op(cli.run, argv, expected, keys)[2] is None
    corrupted = {**expected, "count": expected["count"] + 1}
    assert run_op(cli.run, argv, corrupted, keys)[2] is not None

    def raising(_argv):
        raise RuntimeError("boom")

    wall, out, failure = run_op(raising, argv, expected, keys)
    assert failure is not None and "RuntimeError" in failure
    assert wall >= 0 and out == ""


# -- tracing ------------------------------------------------------------------

def test_tracer_restores_bindings_and_times_layers(chain_input):
    inst, dist = chain_input
    from robustmatch import flow, instance

    before = (cli.parse_instance, flow.analyze_shift, flow.solve,
              instance.ShiftDistribution.__dict__["validate_for"])
    argv = ["represent", "--instance", inst, "--dist", dist, "--format", "json"]
    expected, _, _ = record("represent", argv)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failure = run_op(partial(tracer.root, 0, cli.run), argv, expected,
                               workloads.CHECKED_KEYS["represent"])
    finally:
        tracer.uninstall()
    assert failure is None
    assert before == (cli.parse_instance, flow.analyze_shift, flow.solve,
                      instance.ShiftDistribution.__dict__["validate_for"])
    layers = tracer.layers
    for name in ("instance.parse", "instance.dist", "instance.validate", "rotations.poset",
                 "shift_analysis.girl", "shift_analysis.boy", "flow.network", "flow.maxflow",
                 "flow.extract", "representation.build"):
        assert layers[name] > 0, name
    assert 0 <= layers["cli.self"] < layers["cli.run"]
    assert sum(tracer.status.values()) == 30
    root = [s for s in tracer.spans if s[1] == "cli.run"]
    assert len(root) == 1 and root[0][4] is None
    assert all(s[4] == root[0][0] for s in tracer.spans if s[1] != "cli.run")


# -- the benchmark definition -------------------------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
