"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import robustmatch.cli
import robustmatch.flow
import robustmatch.representation
from robustmatch import parse_instance, serialize_instance
from robustmatch.cli import entrypoint, gen_random_instance, run
from robustmatch.rotations import Rotation, build_rotation_poset, closed_set_to_matching, enumerate_closed_masks
from robustmatch.verification import VerificationReport

from test_matching import M0_I2, MZ_I2
from test_rotations import UNEQUAL_SIDES, counting_checks, cyclic_blocks

I3_POINT_DIST = "GIRL_LIST g1 b1 1 1/1\n"
README = Path(__file__).resolve().parents[1] / "README.md"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# serialize_instance(cyclic_blocks([4] * 6, 3)): 4,096 stable matchings,
# 0.7 MB of text and 5.6 MB of JSON from enumerate, far more than a pipe holds
SIX_BLOCKS = FIXTURES / "six-blocks.txt"


def readme_examples():
    """(instance text, distribution text, [(argv, shown output lines)]) of
    the README's Quick start and Commands sections: its two plain blocks and
    every `$ robustmatch ...` block."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index("## Quick start"):text.index("## Library use")]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)
    instance, dist = (body for lang, body in blocks if not lang)
    examples = []
    for lang, body in blocks:
        command, *shown = body.splitlines()
        if lang == "sh" and command.startswith("$ robustmatch "):
            examples.append((shlex.split(command)[2:], shown))
    return instance, dist, examples


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def i3_point_dist(tmp_path):
    path = tmp_path / "point.dist"
    path.write_text(I3_POINT_DIST, encoding="utf-8")
    return str(path)


@pytest.fixture
def i2_boy_point_dist(tmp_path):
    path = tmp_path / "boy-point.dist"
    path.write_text("BOY_LIST b1 g2 1 1/1\n", encoding="utf-8")
    return str(path)


class TestSolve:
    def test_text_output(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i3_path), "--dist", i3_point_dist
        )
        assert code == 0
        assert out == (
            "b1 g1\n"
            "b2 g2\n"
            "b3 g3\n"
            "objective 0/1\n"
            "flow 0/1\n"
            "constant 0/1\n"
            "closed set (empty)\n"
        )

    def test_nonempty_closed_set(self, capsys, i2_path, i2_boy_point_dist):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i2_path), "--dist", i2_boy_point_dist
        )
        assert code == 0
        assert out.startswith("b1 g2\nb2 g1\n")
        assert "closed set R0" in out

    def test_full_uniform_literal(self, capsys, i3_path):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i3_path), "--dist", "full-uniform"
        )
        assert code == 0
        assert "objective " in out

    def test_json_output(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i3_path), "--dist", i3_point_dist,
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "solve"
        assert payload["matching"]["pairs"] == [["b1", "g1"], ["b2", "g2"], ["b3", "g3"]]
        assert payload["matching"]["unmatched_boys"] == []
        assert payload["objective"] == "0/1"
        assert payload["flow_value"] == "0/1"
        assert payload["constant_loss"] == "0/1"
        assert payload["closed_set"] == []

    def test_dumps(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i3_path), "--dist", i3_point_dist,
            "--dump-network", "--dump-ip",
        )
        assert code == 0
        assert "NODES R0 R1 S T" in out
        assert "SHIFT R1 -> R0 cap 1" in out
        assert "CONSTANT 0" in out
        assert "min 1 x0" in out
        assert "y_S = 0, y_T = 1" in out

    def test_dumps_json(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(i3_path), "--dist", i3_point_dist,
            "--dump-network", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "NODES R0 R1 S T" in payload["network"]

    # Full-uniform dumps.  On I3, |D| = 18 is three times the lcm of the
    # edge probabilities' denominators, so every integer capacity triples;
    # the printed probabilities do not change.  unmatched.txt has incomplete
    # lists, unmatched agents and DISJOINT shifts, whose mass is the constant
    # 7/40; I3 has none of these.
    FULL_UNIFORM_GOLDEN = {
        "I3": (
            "b1 g1\n"
            "b2 g2\n"
            "b3 g3\n"
            "objective 1/3\n"
            "flow 1/3\n"
            "constant 0/1\n"
            "closed set (empty)\n"
            "\n"
            "NODES R0 R1 S T\n"
            "HASSE R0 -> R1\n"
            "HASSE S -> R0\n"
            "HASSE R1 -> T\n"
            "SHIFT R0 -> S cap 1/6\n"
            "SHIFT R1 -> R0 cap 1/3\n"
            "SHIFT R1 -> S cap 1/6\n"
            "SHIFT T -> R0 cap 1/6\n"
            "SHIFT T -> R1 cap 1/6\n"
            "CONSTANT 0\n"
            "\n"
            "min 1/6 x0 + 1/3 x1 + 1/6 x2 + 1/6 x3 + 1/6 x4 + 0\n"
            "s.t.\n"
            "  x0 >= y_R0 - y_S    (shift edge R0->S)\n"
            "  x1 >= y_R1 - y_R0    (shift edge R1->R0)\n"
            "  x2 >= y_R1 - y_S    (shift edge R1->S)\n"
            "  x3 >= y_T - y_R0    (shift edge T->R0)\n"
            "  x4 >= y_T - y_R1    (shift edge T->R1)\n"
            "  y_R0 <= y_R1    (precedence)\n"
            "  y_S <= y_R0    (precedence)\n"
            "  y_R1 <= y_T    (precedence)\n"
            "  y_S = 0, y_T = 1\n"
            "  all x, y in {0, 1}\n"
        ),
        "unmatched": (
            "b1 g7\n"
            "b2 g9\n"
            "b4 g1\n"
            "b5 g14\n"
            "b6 g10\n"
            "b7 g13\n"
            "b8 g5\n"
            "b9 g4\n"
            "b11 g11\n"
            "b12 g3\n"
            "b13 g12\n"
            "b14 g6\n"
            "# unmatched\n"
            "b3\n"
            "b10\n"
            "g2\n"
            "g8\n"
            "objective 17/80\n"
            "flow 3/80\n"
            "constant 7/40\n"
            "closed set (empty)\n"
            "\n"
            "NODES R0 R1 S T\n"
            "HASSE S -> R0\n"
            "HASSE S -> R1\n"
            "HASSE R0 -> T\n"
            "HASSE R1 -> T\n"
            "SHIFT R0 -> S cap 1/40\n"
            "SHIFT R1 -> S cap 1/80\n"
            "SHIFT T -> R0 cap 1/32\n"
            "SHIFT T -> R1 cap 11/160\n"
            "CONSTANT 7/40\n"
            "\n"
            "min 1/40 x0 + 1/80 x1 + 1/32 x2 + 11/160 x3 + 7/40\n"
            "s.t.\n"
            "  x0 >= y_R0 - y_S    (shift edge R0->S)\n"
            "  x1 >= y_R1 - y_S    (shift edge R1->S)\n"
            "  x2 >= y_T - y_R0    (shift edge T->R0)\n"
            "  x3 >= y_T - y_R1    (shift edge T->R1)\n"
            "  y_S <= y_R0    (precedence)\n"
            "  y_S <= y_R1    (precedence)\n"
            "  y_R0 <= y_T    (precedence)\n"
            "  y_R1 <= y_T    (precedence)\n"
            "  y_S = 0, y_T = 1\n"
            "  all x, y in {0, 1}\n"
        ),
    }

    @pytest.mark.parametrize("name", FULL_UNIFORM_GOLDEN)
    def test_dumps_full_uniform_golden(self, capsys, name):
        code, out, _ = cli(
            capsys, "solve", "--instance", str(FIXTURES / f"{name}.txt"), "--dist", "full-uniform",
            "--dump-network", "--dump-ip",
        )
        assert code == 0
        assert out == self.FULL_UNIFORM_GOLDEN[name]

    # Distributions with a zero-probability PROPER shift (its edge prints cap
    # 0) and two shifts merging into one edge; the second also lists an
    # EMPTY_MAB shift (GIRL_LIST g1 b1 1), which I3 has none of.  The
    # expected text is the output of the per-shift network construction; a
    # reader that does not analyse explicit shifts one by one must match it.
    EXPLICIT_GOLDEN = {
        "I3": (
            "GIRL_LIST g1 b1 1 1/2\n"
            "BOY_LIST b1 g3 1 1/6\n"
            "GIRL_LIST g1 b3 1 0/1\n"
            "GIRL_LIST g2 b2 2 1/3\n",
            "b1 g1\nb2 g2\nb3 g3\n"
            "objective 0/1\nflow 0/1\nconstant 0/1\nclosed set (empty)\n"
            "\n"
            "NODES R0 R1 S T\n"
            "HASSE R0 -> R1\n"
            "HASSE S -> R0\n"
            "HASSE R1 -> T\n"
            "SHIFT R1 -> R0 cap 2/3\n"
            "SHIFT T -> R0 cap 1/3\n"
            "SHIFT T -> R1 cap 0\n"
            "CONSTANT 0\n"
            "\n"
            "min 2/3 x0 + 1/3 x1 + 0 x2 + 0\n"
            "s.t.\n"
            "  x0 >= y_R1 - y_R0    (shift edge R1->R0)\n"
            "  x1 >= y_T - y_R0    (shift edge T->R0)\n"
            "  x2 >= y_T - y_R1    (shift edge T->R1)\n"
            "  y_R0 <= y_R1    (precedence)\n"
            "  y_S <= y_R0    (precedence)\n"
            "  y_R1 <= y_T    (precedence)\n"
            "  y_S = 0, y_T = 1\n"
            "  all x, y in {0, 1}\n",
        ),
        "two-blocks": (
            "GIRL_LIST g1 b1 1 1/4\n"
            "GIRL_LIST g3 b5 1 1/4\n"
            "BOY_LIST b1 g4 1 1/4\n"
            "BOY_LIST b3 g2 1 0/1\n"
            "GIRL_LIST g1 b3 1 1/4\n",
            "b1 g5\nb2 g4\nb3 g1\nb4 g2\nb5 g3\n"
            "objective 0/1\nflow 0/1\nconstant 0/1\nclosed set (empty)\n"
            "\n"
            "NODES R0 R1 R2 S T\n"
            "HASSE R0 -> R1\n"
            "HASSE S -> R0\n"
            "HASSE S -> R2\n"
            "HASSE R1 -> T\n"
            "HASSE R2 -> T\n"
            "SHIFT R1 -> R0 cap 1/2\n"
            "SHIFT R2 -> S cap 0\n"
            "SHIFT T -> R2 cap 1/4\n"
            "CONSTANT 0\n"
            "\n"
            "min 1/2 x0 + 0 x1 + 1/4 x2 + 0\n"
            "s.t.\n"
            "  x0 >= y_R1 - y_R0    (shift edge R1->R0)\n"
            "  x1 >= y_R2 - y_S    (shift edge R2->S)\n"
            "  x2 >= y_T - y_R2    (shift edge T->R2)\n"
            "  y_R0 <= y_R1    (precedence)\n"
            "  y_S <= y_R0    (precedence)\n"
            "  y_S <= y_R2    (precedence)\n"
            "  y_R1 <= y_T    (precedence)\n"
            "  y_R2 <= y_T    (precedence)\n"
            "  y_S = 0, y_T = 1\n"
            "  all x, y in {0, 1}\n",
        ),
    }

    @pytest.mark.parametrize("name", EXPLICIT_GOLDEN)
    def test_dumps_explicit_golden(self, capsys, tmp_path, name):
        dist_text, expected = self.EXPLICIT_GOLDEN[name]
        dist = tmp_path / f"{name}.dist"
        dist.write_text(dist_text, encoding="utf-8")
        code, out, _ = cli(
            capsys, "solve", "--instance", str(FIXTURES / f"{name}.txt"), "--dist", str(dist),
            "--dump-network", "--dump-ip",
        )
        assert code == 0
        assert out == expected


class TestLattice:
    def test_text_output(self, capsys, i3_path):
        code, out, _ = cli(capsys, "lattice", "--instance", str(i3_path))
        assert code == 0
        assert out == (
            "R0: (b1,g1) (b2,g2) (b3,g3)\n"
            "R1: (b1,g2) (b2,g3) (b3,g1)\n"
            "HASSE: S -> R0\n"
            "HASSE: R0 -> R1\n"
            "HASSE: R1 -> T\n"
        )

    def test_unique_matching_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "unique.txt"
        path.write_text(serialize_instance(gen_random_instance(6, 42)), encoding="utf-8")
        code, out, _ = cli(capsys, "lattice", "--instance", str(path))
        assert code == 0
        assert out == ""

    def test_json_output(self, capsys, i3_path):
        code, out, _ = cli(
            capsys, "lattice", "--instance", str(i3_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["rotations"][0]["pairs"] == [["b1", "g1"], ["b2", "g2"], ["b3", "g3"]]
        assert ["S", "R0"] in payload["hasse"]
        assert payload["boy_optimal"]["pairs"] == [["b1", "g1"], ["b2", "g2"], ["b3", "g3"]]
        assert payload["girl_optimal"]["pairs"] == [["b1", "g3"], ["b2", "g1"], ["b3", "g2"]]


class TestAnalyzeShift:
    def test_text_output(self, capsys, i2_path):
        code, out, _ = cli(
            capsys, "analyze-shift", "--instance", str(i2_path),
            "--shift", "GIRL_LIST g1 b1 1",
        )
        assert code == 0
        assert out == (
            "shift GIRL_LIST g1 b1 1\n"
            "status PROPER\n"
            "rho_in R0\n"
            "rho_out T\n"
            "|M_AB| 1\n"
            "M_boy:\n"
            "b1 g2\n"
            "b2 g1\n"
            "M_girl:\n"
            "b1 g2\n"
            "b2 g1\n"
        )

    def test_json_output(self, capsys, i2_path):
        code, out, _ = cli(
            capsys, "analyze-shift", "--instance", str(i2_path),
            "--shift", "GIRL_LIST g1 b1 1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["status"] == "PROPER"
        assert payload["rho_in"] == "R0"
        assert payload["rho_out"] == "T"
        assert payload["m_ab_size"] == 1
        assert payload["fragment"] == []
        assert payload["m_boy"]["pairs"] == [["b1", "g2"], ["b2", "g1"]]

    def test_bad_shift_is_a_usage_error(self, capsys, i2_path):
        code, _, err = cli(
            capsys, "analyze-shift", "--instance", str(i2_path),
            "--shift", "GIRL_LIST g1 b1 9",
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "line" not in err

    def test_one_sublattice_per_run(self, capsys, monkeypatch, i3_path):
        original = robustmatch.cli.sublattice_poset
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(robustmatch.cli, "sublattice_poset", counting)
        code, _, _ = cli(capsys, "analyze-shift", "--instance", str(i3_path), "--shift", "GIRL_LIST g1 b1 1")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("shift, status, expected", [
        ("GIRL_LIST g4 b5 1", "DISJOINT", 0),
        ("GIRL_LIST g3 b12 1", "PROPER", 2),
    ])
    def test_builds_m_boy_and_m_girl_only_for_proper(self, capsys, monkeypatch, shift, status, expected):
        """A PROPER shift materializes its two extreme members, and nothing
        else; a DISJOINT shift prints neither and materializes none."""
        calls = []
        for module in (robustmatch.cli, robustmatch.representation):
            original = module.closed_set_to_matching

            def counting(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, "closed_set_to_matching", counting)
        code, out, _ = cli(
            capsys, "analyze-shift", "--instance", str(FIXTURES / "unmatched.txt"), "--shift", shift,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["status"] == status
        assert len(calls) == expected


class TestRepresent:
    def test_text_output(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "represent", "--instance", str(i3_path), "--dist", i3_point_dist
        )
        assert code == 0
        assert out == (
            "mandatory: (none)\n"
            "excluded: (none)\n"
            "E0: R0 R1\n"
            "elements 1, edges 0\n"
            "objective 0/1\n"
            "robust matchings 2\n"
        )

    def test_enumerate_appends_matchings(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "represent", "--instance", str(i3_path), "--dist", i3_point_dist,
            "--enumerate",
        )
        assert code == 0
        assert out.endswith(
            "robust matchings 2\n"
            "\n"
            "b1 g1\n"
            "b2 g2\n"
            "b3 g3\n"
            "\n"
            "b1 g3\n"
            "b2 g1\n"
            "b3 g2\n"
        )

    def test_json_output(self, capsys, i3_path, i3_point_dist):
        code, out, _ = cli(
            capsys, "represent", "--instance", str(i3_path), "--dist", i3_point_dist,
            "--enumerate", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["mandatory"] == []
        assert payload["excluded"] == []
        assert payload["free_elements"] == [[0, 1]]
        assert payload["edges"] == []
        assert payload["robust_count"] == 2
        assert len(payload["matchings"]) == 2


class TestEnumerate:
    def test_text_output(self, capsys, i3_path):
        code, out, _ = cli(capsys, "enumerate", "--instance", str(i3_path))
        assert code == 0
        assert out == (
            "b1 g1\n"
            "b2 g2\n"
            "b3 g3\n"
            "\n"
            "b1 g2\n"
            "b2 g3\n"
            "b3 g1\n"
            "\n"
            "b1 g3\n"
            "b2 g1\n"
            "b3 g2\n"
        )

    def test_json_output(self, capsys, i3_path):
        code, out, _ = cli(
            capsys, "enumerate", "--instance", str(i3_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert len(payload["matchings"]) == 3


class TestEnumerateGolden:
    """Output bytes pinned on 3 cyclic blocks of 4 (64 stable matchings),
    on an instance that leaves agents unmatched, on an instance with no
    agents and on one whose every list is empty (empty pair lists, and
    every agent unmatched), and for represent's enumeration on the blocks
    under a two-shift distribution (36 robust matchings, one mandatory
    rotation).  Last, the full-uniform closure network ``solve`` dumps at
    the benchmark's scale: ``gen --n 30 --seed 4242`` (8 rotations, 44
    shift edges), ``gen --n 20 --seed 4242 --completeness 0.7`` (one stable
    matching, two agents unmatched, every breaking shift DISJOINT) and the
    three blocks (27 shift edges).  represent's summary without
    ``--enumerate`` on the blocks, the command shape of the chain-decay
    benchmark.  And the network of an explicit distribution read shift by
    shift: 40 shifts each, weighted 1/window, 32 of them where the mover
    prefers the owner in some stable matching, over the blocks (20 shift
    edges) and over unmatched.txt, whose chainless movers have no
    crossing.  verify's argmin in JSON on two-blocks.txt (4 matchings) and
    on I3 (2), and represent's enumeration of the one robust matching of
    unmatched.txt under its windows distribution, which leaves b3, b10, g2
    and g8 unmatched.  Last, the rotation poset ``lattice`` prints for
    gen30.txt, in text and JSON: 8 rotations and 7 Hasse arcs, 4 of them
    generated by the sweep rule alone."""

    CASES = {
        "enumerate-three-blocks.txt": ("enumerate", "--instance", "three-blocks.txt"),
        "enumerate-three-blocks.json": ("enumerate", "--instance", "three-blocks.txt", "--format", "json"),
        "enumerate-unmatched.txt": ("enumerate", "--instance", "unmatched.txt"),
        "enumerate-unmatched.json": ("enumerate", "--instance", "unmatched.txt", "--format", "json"),
        "enumerate-empty.txt": ("enumerate", "--instance", "empty.txt"),
        "enumerate-empty.json": ("enumerate", "--instance", "empty.txt", "--format", "json"),
        "enumerate-no-lists.txt": ("enumerate", "--instance", "no-lists.txt"),
        "enumerate-no-lists.json": ("enumerate", "--instance", "no-lists.txt", "--format", "json"),
        "represent-three-blocks.txt": (
            "represent", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist", "--enumerate",
        ),
        "represent-three-blocks.json": (
            "represent", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist",
            "--enumerate", "--format", "json",
        ),
        "solve-full-uniform-gen30.json": (
            "solve", "--instance", "gen30.txt", "--dist", "full-uniform", "--dump-network", "--format", "json",
        ),
        "solve-full-uniform-gen20-c07.json": (
            "solve", "--instance", "gen20-c07.txt", "--dist", "full-uniform", "--dump-network", "--format", "json",
        ),
        "solve-full-uniform-three-blocks.json": (
            "solve", "--instance", "three-blocks.txt", "--dist", "full-uniform", "--dump-network", "--format", "json",
        ),
        "represent-summary-three-blocks.json": (
            "represent", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist", "--format", "json",
        ),
        "solve-windows-three-blocks.json": (
            "solve", "--instance", "three-blocks.txt", "--dist", "three-blocks-windows.dist",
            "--dump-network", "--format", "json",
        ),
        "solve-windows-unmatched.json": (
            "solve", "--instance", "unmatched.txt", "--dist", "unmatched-windows.dist",
            "--dump-network", "--format", "json",
        ),
        "verify-two-blocks.json": ("verify", "--instance", "two-blocks.txt", "--dist", "full-uniform", "--format", "json"),
        "verify-I3.json": ("verify", "--instance", "I3.txt", "--dist", "full-uniform", "--format", "json"),
        "represent-unmatched.txt": (
            "represent", "--instance", "unmatched.txt", "--dist", "unmatched-windows.dist", "--enumerate",
        ),
        "represent-unmatched.json": (
            "represent", "--instance", "unmatched.txt", "--dist", "unmatched-windows.dist",
            "--enumerate", "--format", "json",
        ),
        "lattice-gen30.txt": ("lattice", "--instance", "gen30.txt"),
        "lattice-gen30.json": ("lattice", "--instance", "gen30.txt", "--format", "json"),
    }

    @pytest.mark.parametrize("golden", CASES)
    def test_bytes(self, capsys, golden):
        argv = [str(FIXTURES / a) if a.endswith((".txt", ".dist")) else a for a in self.CASES[golden]]
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        assert out == (FIXTURES / "golden" / golden).read_text(encoding="utf-8")

    def test_lattice_gen100(self, capsys, tmp_path):
        """The rotation poset of ``gen --n 100 --seed 4242``: 28 rotations
        and 32 Hasse arcs, 17 of them generated by the sweep rule alone."""
        path = tmp_path / "gen100.txt"
        path.write_text(serialize_instance(gen_random_instance(100, 4242)), encoding="utf-8")
        code, out, _ = cli(capsys, "lattice", "--instance", str(path))
        assert code == 0
        assert out == (FIXTURES / "golden" / "lattice-gen100.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_check_per_rotation(self, capsys, monkeypatch, fmt):
        """Each of the 9 rotations is checked for exposure once across the
        64 matchings."""
        calls = counting_checks(monkeypatch)
        code, _, _ = cli(capsys, "enumerate", "--instance", str(FIXTURES / "three-blocks.txt"), "--format", fmt)
        assert code == 0
        assert len(calls) == len(set(calls)) == 9


def reversed_rotation(k: int):
    """A build_rotation_poset whose rotation k is written backwards: every
    pair is still in the matching where the rotation is exposed, but no
    boy's next girl is his successor girl."""

    def build(inst):
        poset = build_rotation_poset(inst)
        rotations = list(poset.rotations)
        rotations[k] = Rotation.from_cycle(rotations[k].pairs[::-1])
        return dataclasses.replace(poset, rotations=tuple(rotations))

    return build


class TestWriterChecks:
    """The matchings enumerate and represent --enumerate list are checked
    as closed_set_to_matching checks them: on 3 cyclic blocks of 4 the run
    writes every row before the first bad mask, then exits 1 with the
    error."""

    ARGV = {
        "enumerate": ("enumerate", "--instance", "three-blocks.txt"),
        "represent": ("represent", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist", "--enumerate"),
    }

    def run(self, capsys, command, fmt):
        argv = [str(FIXTURES / a) if a.endswith((".txt", ".dist")) else a for a in self.ARGV[command]]
        return cli(capsys, *argv, "--format", fmt)

    @staticmethod
    def rows(out, command, fmt) -> int:
        """How many matchings out holds: JSON rows open with a brace, and
        text rows are one empty line apart, after represent's head lines."""
        if fmt == "json":
            return out.count("\n    {")
        if command == "represent":
            return out.count("\n\n")
        return out.count("\n\n") + 1 if out else 0

    # (rotation reversed, rows before the first mask holding it, the
    # successor girl and boy named); R0 is in represent's solution, whose
    # own closed_set_to_matching call would raise first
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command, k, before, message", [
        pytest.param("enumerate", 1, 2, "g5 is not the successor girl of b1", id="enumerate-R1"),
        pytest.param("enumerate", 8, 9, "g6 is not the successor girl of b4", id="enumerate-R8"),
        pytest.param("represent", 1, 1, "g5 is not the successor girl of b1", id="represent-R1"),
        pytest.param("represent", 4, 4, "g11 is not the successor girl of b2", id="represent-R4"),
        pytest.param("represent", 8, 7, "g6 is not the successor girl of b4", id="represent-R8"),
    ])
    def test_rotation_not_exposed(self, capsys, monkeypatch, command, k, before, message, fmt):
        module = robustmatch.cli if command == "enumerate" else robustmatch.flow
        monkeypatch.setattr(module, "build_rotation_poset", reversed_rotation(k))
        code, out, err = self.run(capsys, command, fmt)
        assert (code, err) == (1, f"error: rotation is not exposed: {message}\n")
        golden = (FIXTURES / "golden" / f"{command}-three-blocks.{'txt' if fmt == 'text' else 'json'}").read_text()
        assert golden.startswith(out)
        assert self.rows(out, command, fmt) == before

    # the last mask of each list is bad; "seen" holds no rotation that an
    # earlier mask did not, so only the closure test can catch it
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["enumerate", "represent"])
    @pytest.mark.parametrize("masks, message", [
        pytest.param([0, 0b1, 0b111111111, 0b10], "rotation set is not downward closed", id="seen"),
        pytest.param([0, 0b10], "rotation set is not downward closed", id="new"),
        pytest.param([0, 1 << 9], "rotation set contains unknown ids", id="unknown"),
    ])
    def test_bad_mask(self, capsys, monkeypatch, command, masks, message, fmt):
        if command == "enumerate":
            monkeypatch.setattr(robustmatch.cli, "enumerate_closed_masks", lambda poset: list(masks))
        else:
            monkeypatch.setattr(robustmatch.representation.Sublattice, "member_masks", lambda self: list(masks))
        code, out, err = self.run(capsys, command, fmt)
        assert (code, err) == (1, f"error: {message}\n")
        assert self.rows(out, command, fmt) == len(masks) - 1


class _CharCount(io.TextIOBase):
    """A stdout that keeps nothing but the number of characters written."""

    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestStreaming:
    """enumerate and represent --enumerate write each matching as it is
    made: on 6 cyclic blocks of 4 (4,096 stable matchings, all robust under
    the empty distribution, megabytes of output) the traced peak stays
    under 1 MB."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["enumerate", "represent"])
    def test_peak_memory_does_not_grow_with_the_output(self, tmp_path, command, fmt):
        dist = tmp_path / "empty.dist"
        dist.write_text("", encoding="utf-8")
        argv = [command, "--instance", str(SIX_BLOCKS), "--format", fmt]
        if command == "represent":
            argv += ["--dist", str(dist), "--enumerate"]
        sink = _CharCount()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars > 4096 * 24 * len("b1 g1\n")  # every matching was written
        assert peak < 1_000_000, f"peak {peak} bytes"


class TestAnalyzeShiftGolden:
    """Output bytes pinned for three PROPER shifts on 3 cyclic blocks of 4,
    each with a non-empty fragment: R3 -> T (48 destabilized matchings),
    R4 -> R5 and R0 -> R1 (16 each, the second from a boy's list).  Then
    the other two statuses on an instance that leaves agents unmatched: a
    DISJOINT shift (all 4 stable matchings break) and an EMPTY_MAB one.
    Last, a DISJOINT shift on ``gen --n 100 --seed 0`` (25 rotations), too
    many to count: no |M_AB| line, and a null m_ab_size."""

    SHIFTS = {
        "girl-b3-3": ("three-blocks.txt", "GIRL_LIST g1 b3 3"),
        "girl-b5-1": ("three-blocks.txt", "GIRL_LIST g1 b5 1"),
        "boy-g10-1": ("three-blocks.txt", "BOY_LIST b1 g10 1"),
        "unmatched-g4-b5-1": ("unmatched.txt", "GIRL_LIST g4 b5 1"),
        "unmatched-g1-b13-1": ("unmatched.txt", "GIRL_LIST g1 b13 1"),
        "gen100-g2-b72-34": (None, "GIRL_LIST g2 b72 34"),
    }

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    @pytest.mark.parametrize("name", SHIFTS)
    def test_bytes(self, capsys, tmp_path, name, fmt):
        instance, shift = self.SHIFTS[name]
        if instance is None:
            path = tmp_path / "gen100.txt"
            path.write_text(serialize_instance(gen_random_instance(100, 0)), encoding="utf-8")
        else:
            path = FIXTURES / instance
        code, out, _ = cli(
            capsys, "analyze-shift", "--instance", str(path),
            "--shift", shift, "--format", "text" if fmt == "txt" else "json",
        )
        assert code == 0
        assert out == (FIXTURES / "golden" / f"analyze-shift-{name}.{fmt}").read_text(encoding="utf-8")


def emitted(obj) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        robustmatch.cli._emit(obj)
    return buf.getvalue()


# strings that exercise every escape: quotes, backslashes, control
# characters, non-ASCII text, astral code points and lone surrogates
JSON_STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f \xe9\u2028\ufeff\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=6,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**100, -(2**70), 0, -1])
    | JSON_STRINGS | st.sampled_from(["b1", "g1", "1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=25,
)


@st.composite
def instances_with_masks(draw):
    """A random instance (n up to 12, so names reach two digits; lists cut
    to 0.4 leave agents unmatched), its rotation poset and a sequence of
    closed sets: any order, repeats, possibly empty."""
    inst = gen_random_instance(
        draw(st.integers(1, 12)), draw(st.integers(0, 10**6)), draw(st.sampled_from([1.0, 0.7, 0.4])),
    )
    poset = build_rotation_poset(inst)
    return inst, poset, draw(st.lists(st.sampled_from(enumerate_closed_masks(poset)), max_size=5))


class TestEmit:
    """The CLI's JSON emitter writes the bytes of json.dumps(obj, indent=2)."""

    @given(JSON_VALUES)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, obj):
        assert emitted(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        # same-depth lists whose items differ only as "1", 1 and True
        [["1"], [1], [True], ["1"], [1], [True]],
        [[True], [1], ["1"], [True, "1"], ["1", True]],
        {"a": [0, 1], "b": [False, True], "c": ["0", "1"], "d": [False, True]},
        # one leaf list repeated at two depths, then again at the first
        {"pair": ["b1", "g1"], "pairs": [["b1", "g1"], ["b1", "g1"]], "again": ["b1", "g1"]},
        [["b1", "g1"], [["b1", "g1"]], [[["b1", "g1"]]], ["b1", "g1"]],
        # tuples render as lists
        [("b1", "g1"), ["b1", "g1"], (), [], {}],
    ])
    def test_repeated_and_mixed_lists(self, obj):
        assert emitted(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_written_matchings_are_the_emitted_payload(self, i2, count):
        """The streaming writer prints what _emit and print print for the
        whole list of the closed sets' matchings, also when it is empty."""
        poset = build_rotation_poset(i2)
        masks = [0, 1][:count]
        matchings = [closed_set_to_matching(poset, m) for m in masks]
        assert matchings == [M0_I2, MZ_I2][:count]
        blocks = [robustmatch.cli._matching_block(i2, m) for m in matchings]
        cases = [
            ({"schema": 1, "matchings": []},
             json.dumps({"schema": 1, "matchings": [robustmatch.cli._matching_json(i2, m) for m in matchings]},
                        indent=2) + "\n"),
            ([], "\n\n".join(blocks) + "\n"),
            (["head", "lines"], "\n".join(["head", "lines"] + [line for b in blocks for line in ("", b)]) + "\n"),
        ]
        for head, expected in cases:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                robustmatch.cli._write_matchings(i2, head, poset, iter(masks))
            assert buf.getvalue() == expected

    @staticmethod
    def check_writer(inst, poset, masks):
        matchings = [closed_set_to_matching(poset, m) for m in masks]
        json_head = {"schema": 1, "command": "enumerate", "count": len(matchings), "matchings": []}
        payload = {**json_head, "matchings": [robustmatch.cli._matching_json(inst, m) for m in matchings]}
        blocks = [robustmatch.cli._matching_block(inst, m) for m in matchings]
        cases = [
            (json_head, json.dumps(payload, indent=2) + "\n"),
            ([], "\n\n".join(blocks) + "\n"),
            (["head"], "\n".join(["head"] + [line for b in blocks for line in ("", b)]) + "\n"),
        ]
        for head, expected in cases:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                robustmatch.cli._write_matchings(inst, head, poset, iter(masks))
            assert buf.getvalue() == expected

    @given(instances_with_masks())
    @settings(max_examples=150, deadline=None)
    def test_writer_template_is_json_dumps(self, case):
        """The writer's hand-written per-matching JSON is what json.dumps
        prints for the whole payload of the closed sets' matchings, and its
        text is the joined blocks."""
        self.check_writer(*case)

    # consecutive boys of a block share a boundary mask: long runs when the
    # blocks are numbered consecutively, runs of one boy when relabelled,
    # runs of boys whose partner never moves (mask 0) on blocks of one, on
    # unequal sides and on unmatched.txt, and no boy with a partner at all
    # on no-lists.txt
    @pytest.mark.parametrize("inst", [
        pytest.param(cyclic_blocks([4, 1, 3, 1, 1], 5, relabel=False), id="consecutive-blocks"),
        pytest.param(cyclic_blocks([4, 1, 3], 5), id="relabelled-blocks"),
        *(pytest.param(parse_instance(text), id=f"unequal-{k}") for k, text in enumerate(UNEQUAL_SIDES)),
        pytest.param(parse_instance((FIXTURES / "unmatched.txt").read_text()), id="unmatched"),
        pytest.param(parse_instance((FIXTURES / "no-lists.txt").read_text()), id="no-lists"),
    ])
    def test_writer_on_structured_inputs(self, inst):
        """Every closed set in enumeration order, then in reverse with the
        first one repeated."""
        poset = build_rotation_poset(inst)
        masks = enumerate_closed_masks(poset)
        self.check_writer(inst, poset, masks + masks[::-1] + masks[:1])

    @pytest.mark.parametrize("obj", [1.5, [1.5], {1: "a"}, [{None: 1}]])
    def test_floats_and_non_str_keys_print_as_json_dumps(self, obj):
        assert emitted(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [{1, 2}, {"a": [{2}]}, object()])
    def test_rejects_other_types_and_prints_nothing(self, obj):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(TypeError):
            robustmatch.cli._emit(obj)
        assert buf.getvalue() == ""


class TestJsonRoundTrip:
    """Every subcommand's --format json output is what the standard library
    writes when it re-renders the parsed payload."""

    CASES = {
        "solve": ("solve", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist",
                  "--dump-network", "--dump-ip"),
        "lattice": ("lattice", "--instance", "three-blocks.txt"),
        "analyze-shift-proper": ("analyze-shift", "--instance", "unmatched.txt", "--shift", "GIRL_LIST g3 b12 1"),
        "analyze-shift-disjoint": ("analyze-shift", "--instance", "unmatched.txt", "--shift", "GIRL_LIST g4 b5 1"),
        "analyze-shift-empty": ("analyze-shift", "--instance", "unmatched.txt", "--shift", "GIRL_LIST g1 b13 1"),
        "represent": ("represent", "--instance", "three-blocks.txt", "--dist", "three-blocks.dist", "--enumerate"),
        "represent-unmatched": ("represent", "--instance", "unmatched.txt", "--dist", "full-uniform", "--enumerate"),
        "enumerate": ("enumerate", "--instance", "unmatched.txt"),
        "verify": ("verify", "--instance", "I3.txt", "--dist", "full-uniform"),
        "gen": ("gen", "--n", "6", "--seed", "5", "--completeness", "0.5"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bytes_match_the_stdlib(self, capsys, case):
        argv = [str(FIXTURES / a) if a.endswith((".txt", ".dist")) else a for a in self.CASES[case]]
        code, out, _ = cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        if case.startswith("analyze-shift-") and case != "analyze-shift-proper":
            assert payload["rho_in"] is payload["fragment"] is payload["m_boy"] is None


class TestVerify:
    def test_ok_text(self, capsys, i2_path):
        code, out, _ = cli(
            capsys, "verify", "--instance", str(i2_path), "--dist", "full-uniform"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("objective ")
        assert lines[1].startswith("oracle objective ")
        assert lines[2].startswith("robust matchings ")
        assert lines[-1] == "OK"

    def test_ok_json(self, capsys, i3_path):
        code, out, _ = cli(
            capsys, "verify", "--instance", str(i3_path), "--dist", "full-uniform",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["objective"] == payload["oracle_objective"]
        assert payload["robust_count"] == len(payload["argmin"])

    @pytest.fixture
    def broken_cross_check(self, monkeypatch, i2):
        report = VerificationReport(
            failures=["synthetic mismatch"],
            poset=build_rotation_poset(i2),
            argmin_masks=(0,),
            oracle_argmin=(MZ_I2,),
            main_objective=Fraction(0),
            oracle_objective=Fraction(1, 2),
        )
        monkeypatch.setattr("robustmatch.cli.cross_check", lambda inst, dist: report)

    def test_mismatch_text(self, capsys, i2_path, broken_cross_check):
        code, out, _ = cli(
            capsys, "verify", "--instance", str(i2_path), "--dist", "full-uniform"
        )
        assert code == 2
        assert "FAIL" in out
        assert "- synthetic mismatch" in out
        assert "only solver:" in out
        assert "only oracle:" in out

    def test_mismatch_json(self, capsys, i2_path, broken_cross_check):
        code, out, _ = cli(
            capsys, "verify", "--instance", str(i2_path), "--dist", "full-uniform",
            "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["failures"] == ["synthetic mismatch"]


class TestGen:
    def test_text_matches_library(self, capsys):
        code, out, _ = cli(capsys, "gen", "--n", "5", "--seed", "7")
        assert code == 0
        assert out == serialize_instance(gen_random_instance(5, 7))
        assert "b1: g5 g1 g4 g2 g3" in out

    def test_json_rebuilds_the_instance(self, capsys):
        code, out, _ = cli(capsys, "gen", "--n", "5", "--seed", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_boys"] == 5
        assert payload["n_girls"] == 5
        inst = gen_random_instance(5, 7)
        assert payload["boys"] == [
            [f"g{g + 1}" for g in prefs] for prefs in inst.boy_prefs
        ]
        assert payload["girls"] == [
            [f"b{b + 1}" for b in prefs] for prefs in inst.girl_prefs
        ]

    def test_completeness_truncates(self, capsys):
        code, out, _ = cli(
            capsys, "gen", "--n", "10", "--seed", "3", "--completeness", "0.5"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            _, _, entries = line.partition(":")
            assert len(entries.split()) <= 5

    def test_rejects_bad_arguments(self, capsys):
        code, _, err = cli(capsys, "gen", "--n", "0")
        assert code == 1
        assert "error: need at least one agent per side" in err
        code, _, err = cli(capsys, "gen", "--n", "3", "--completeness", "1.5")
        assert code == 1
        assert "completeness must be in (0, 1]" in err


class TestOnePoset:
    @pytest.mark.parametrize("command", ["solve", "represent"])
    def test_one_rotation_poset_per_run(self, capsys, monkeypatch, i3_path, command):
        # the full-uniform distribution includes boy-list shifts
        from robustmatch import RotationPoset, rotations

        built = []

        def counting(**fields):
            built.append(RotationPoset(**fields))
            return built[-1]

        monkeypatch.setattr(rotations, "RotationPoset", counting)
        code, _, _ = cli(capsys, command, "--instance", str(i3_path), "--dist", "full-uniform")
        assert code == 0
        assert len(built) == 1


class TestByteOrderMark:
    """Input files that start with a UTF-8 byte-order mark, as Windows
    editors write them, read as the same files without it."""

    @pytest.mark.parametrize("argv", [
        ("enumerate",),
        ("represent", "--dist", "three-blocks.dist", "--enumerate"),
        ("solve", "--dist", "three-blocks.dist", "--format", "json"),
    ], ids=lambda argv: argv[0])
    def test_same_output_as_the_plain_files(self, capsys, tmp_path, argv):
        paths = {}
        for name in ("three-blocks.txt", "three-blocks.dist"):
            paths[name] = tmp_path / name
            paths[name].write_text((FIXTURES / name).read_text(encoding="utf-8"), encoding="utf-8-sig")
            assert paths[name].read_bytes().startswith(b"\xef\xbb\xbf")
        command, *rest = argv
        plain = cli(capsys, command, "--instance", str(FIXTURES / "three-blocks.txt"),
                    *[str(FIXTURES / a) if a.endswith(".dist") else a for a in rest])
        marked = cli(capsys, command, "--instance", str(paths["three-blocks.txt"]),
                     *[str(paths[a]) if a.endswith(".dist") else a for a in rest])
        assert plain[0] == 0
        assert marked == plain


class TestErrorHandling:
    def test_missing_instance_file(self, capsys):
        code, _, err = cli(capsys, "lattice", "--instance", "/no/such/file")
        assert code == 1
        assert err.startswith("error: ")

    def test_malformed_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an instance\n", encoding="utf-8")
        code, _, err = cli(capsys, "lattice", "--instance", str(path))
        assert code == 1
        assert "error: " in err

    def test_malformed_distribution(self, capsys, i2_path, tmp_path):
        path = tmp_path / "bad.dist"
        path.write_text("GIRL_LIST g1 b1 1 nonsense\n", encoding="utf-8")
        code, _, err = cli(
            capsys, "solve", "--instance", str(i2_path), "--dist", str(path)
        )
        assert code == 1
        assert "bad probability" in err

    def test_unknown_command(self, capsys):
        code, _, err = cli(capsys, "frobnicate")
        assert code == 1
        assert "robustmatch" in err

    def test_missing_required_option(self, capsys, i2_path):
        code, _, err = cli(capsys, "solve", "--instance", str(i2_path))
        assert code == 1
        assert "--dist" in err

    @pytest.mark.parametrize(
        "layer, argv",
        [
            ("build_rotation_poset", ["lattice"]),
            ("analyze_shift", ["analyze-shift", "--shift", "GIRL_LIST g1 b1 1"]),
            ("solve_pipeline", ["solve", "--dist", "full-uniform"]),
        ],
    )
    def test_internal_invariant_failure(self, capsys, monkeypatch, i2_path, layer, argv):
        def broken(*args):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(f"robustmatch.cli.{layer}", broken)
        code, out, err = cli(capsys, *argv, "--instance", str(i2_path))
        assert code == 3
        assert out == ""
        assert err == "internal error: broken invariant\n"

    @pytest.mark.parametrize("command", ["solve", "represent"])
    def test_failed_certificate_exits_3(self, capsys, monkeypatch, i3_path, command):
        monkeypatch.setattr(
            "robustmatch.flow.certificate_violations", lambda *args: ["injected violation"]
        )
        code, out, err = cli(capsys, command, "--instance", str(i3_path), "--dist", "full-uniform")
        assert code == 3
        assert out == ""
        assert err == "internal error: optimality certificate failed: injected violation\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "--help")
        assert code == 0
        assert "solve" in out

    def test_entrypoint_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["robustmatch", "gen", "--n", "1"])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        capsys.readouterr()


def fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m robustmatch.cli`` in a new process."""
    src = Path(robustmatch.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "robustmatch.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout, done.stderr


class TestClosedStdout:
    """A reader that closes stdout early (``robustmatch enumerate ... | head``)
    ends the run with exit 141 (128 + SIGPIPE) and nothing on stderr."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exit_141_and_empty_stderr(self, fmt):
        src = Path(robustmatch.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "robustmatch.cli", "enumerate", "--instance", str(SIX_BLOCKS), "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class TestRunAsModule:
    """``python -m robustmatch.cli`` runs the command line as ``run`` does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--instance", "I3", "--dist", "full-uniform"],
            ["analyze-shift", "--instance", "I3", "--shift", "GIRL_LIST g1 b1 9"],
        ],
        ids=["solve", "bad-shift"],
    )
    def test_same_as_run(self, capsys, i3_path, argv):
        argv = [str(i3_path) if a == "I3" else a for a in argv]
        assert cli(capsys, *argv) == fresh_process(argv)


class TestParserReuse:
    """run builds its parser once per process, and a call leaves nothing
    behind for the next one."""

    def test_consecutive_calls_print_what_fresh_processes_print(self, capsys, i3_path):
        calls = [
            ["solve", "--instance", str(i3_path), "--dist", "full-uniform", "--dump-network"],
            ["solve", "--instance", str(i3_path), "--dist", "full-uniform"],
        ]
        assert [cli(capsys, *argv) for argv in calls] == [fresh_process(argv) for argv in calls]

    def test_usage_error_after_a_successful_call(self, capsys, i3_path):
        code, _, _ = cli(capsys, "solve", "--instance", str(i3_path), "--dist", "full-uniform")
        assert code == 0
        code, out, err = cli(capsys, "solve", "--instance", str(i3_path))
        assert (code, out) == (1, "")
        assert "--dist" in err


class TestReadmeExamples:
    """Every example of the README's Quick start and Commands sections prints
    what the README shows, run on I3 (the Quick start instance) and the
    README's two-line distribution; for ``gen`` the lines shown before
    ``...``."""

    INSTANCE, DIST, EXAMPLES = readme_examples()

    def test_quick_start_instance_is_i3(self, i3_path):
        assert self.INSTANCE == i3_path.read_text(encoding="utf-8")
        commands = [argv[0] for argv, _ in self.EXAMPLES]
        assert commands == ["solve", "lattice", "analyze-shift", "represent", "enumerate", "verify", "gen"]

    @pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
    def test_example(self, capsys, tmp_path, i3_path, argv, shown):
        dist = tmp_path / "err.dist"
        dist.write_text(self.DIST, encoding="utf-8")
        argv = [{"inst.txt": str(i3_path), "err.dist": str(dist)}.get(a, a) for a in argv]
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        if shown[-1] == "...":
            assert out.splitlines()[:len(shown) - 1] == shown[:-1]
        else:
            assert out.splitlines() == shown
