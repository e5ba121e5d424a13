"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from robustmatch import serialize_instance
from robustmatch.cli import entrypoint, gen_random_instance, run
from robustmatch.verification import VerificationReport

from test_matching import M0_I2, MZ_I2

I3_POINT_DIST = "GIRL_LIST g1 b1 1 1/1\n"


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
    def broken_cross_check(self, monkeypatch):
        report = VerificationReport(
            failures=["synthetic mismatch"],
            main_argmin=(M0_I2,),
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
