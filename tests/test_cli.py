"""Tests for the batch front end: parsing, reports, exit codes."""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from hhalf.cli import main
from hhalf.fourier import from_modes, function_from_json, function_to_json
from hhalf.pullback import operator_from_json
from hhalf.suite import CheckResult

cos_modes = '{"1": [0.5, 0.0], "-1": [0.5, 0.0]}'
rotation_map = '{"type": "rotation", "alpha": 0.7}'
flow_map = json.dumps(
    {
        "type": "flow",
        "v": function_to_json(from_modes(2, {2: -0.5j, -2: 0.5j})),
        "eps": 0.05,
    }
)
steep_flow_map = json.dumps(
    {
        "type": "flow",
        "v": function_to_json(from_modes(1, {1: -0.6j, -1: 0.6j})),
        "eps": 1.0,
    }
)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv("HHP_CONFIG", raising=False)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestNorm:
    def test_inline_modes(self, capsys):
        report = run_json(["norm", "--modes", cos_modes], capsys)
        assert report["command"] == "norm"
        assert report["bandlimit"] == 1
        assert report["norm_squared"] == 0.5
        assert report["h_half_norm"] == math.sqrt(0.5)

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_to_json(from_modes(1, {1: 1.0}))))
        report = run_json(["norm", "--input", str(path)], capsys)
        assert report["norm_squared"] == 1.0

    def test_exactly_one_input_source(self, capsys):
        code, _, err = run(["norm"], capsys)
        assert code == 1 and "exactly one" in err
        code, _, err = run(
            ["norm", "--modes", cos_modes, "--input", "f.json"], capsys
        )
        assert code == 1

    def test_malformed_modes(self, capsys):
        for bad in ("{}", '{"x": 1}', '{"1": [1, 2, 3]}', '{"0": 1.0}', "[1]"):
            code, _, _ = run(["norm", "--modes", bad], capsys)
            assert code == 1, bad


class TestHilbert:
    def test_emits_a_loadable_function(self, capsys):
        report = run_json(["hilbert", "--modes", cos_modes], capsys)
        f = function_from_json(report)
        assert f.coefficient(1) == -0.5j
        assert f.coefficient(-1) == 0.5j

    def test_output_feeds_norm(self, tmp_path, capsys):
        out = tmp_path / "jf.json"
        run_json(["hilbert", "--modes", cos_modes, "--out", str(out)], capsys)
        report = run_json(["norm", "--input", str(out)], capsys)
        assert report["norm_squared"] == 0.5


class TestEnergy:
    def test_report_and_table(self, tmp_path, capsys):
        out = tmp_path / "energy.json"
        report = run_json(
            ["energy", "--modes", cos_modes, "--grid", "128", "--out", str(out)],
            capsys,
        )
        assert report["within_tol"] is True
        assert report["relative_defect"] <= 1e-12
        sizes = [row["grid_size"] for row in report["curve"]]
        assert sizes == [8, 16, 32, 64, 128]
        lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert lines[0] == "grid_size,douglas_energy,relative_defect"
        assert len(lines) == 6

    def test_csv_only_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        report = run_json(
            ["energy", "--modes", cos_modes, "--grid", "128", "--out", str(out)],
            capsys,
        )
        assert report["command"] == "energy"
        assert out.exists()
        assert not (tmp_path / "curve.json").exists()


class TestPullbackMatrix:
    def test_emits_a_loadable_operator(self, capsys):
        report = run_json(
            ["pullback-matrix", "--map", rotation_map, "--grid", "256"], capsys
        )
        t = operator_from_json(report)
        assert t.cutoff == 32
        assert abs(t.A[0, 0] - np.exp(0.7j)) <= 1e-12


class TestPeriod:
    def test_identity_is_the_basepoint(self, capsys):
        report = run_json(
            ["period", "--map", '{"type": "identity"}', "--grid", "256"],
            capsys,
        )
        assert report["cutoff"] == 32
        assert report["source"] == {"type": "identity"}
        worst = max(
            max(abs(v["re"]), abs(v["im"])) for row in report["Z"] for v in row
        )
        assert worst <= 1e-14

    def test_non_monotone_flow_is_refused(self, capsys):
        code, _, err = run(
            ["period", "--map", steep_flow_map, "--grid", "256"], capsys
        )
        assert code == 1
        assert "violates" in err

    def test_singular_plus_block_is_a_numerical_failure(self, capsys):
        moebius_map = (
            '{"type": "moebius", "a": {"re": 0.5, "im": 0.0}, "beta": 0.5}'
        )
        code, _, err = run(
            ["period", "--map", moebius_map, "--grid", "16384"], capsys
        )
        assert code == 2
        assert "singular" in err
        # integrability forms the same Z, so it refuses the same way.
        code, out, err = run(["integrability", "--map", moebius_map], capsys)
        assert code == 2 and out == ""
        assert "numerically singular" in err


class TestSiegelCheck:
    def test_from_map(self, capsys):
        report = run_json(
            ["siegel-check", "--map", rotation_map, "--grid", "256"], capsys
        )
        assert report["member"] is True
        assert report["symmetric"] is True
        assert report["passed"] is True
        assert report["report"]["sigma_max"] <= 1e-12

    def test_from_period_file(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        run_json(
            ["period", "--map", flow_map, "--grid", "512", "--out", str(path)],
            capsys,
        )
        report = run_json(["siegel-check", "--matrix", str(path)], capsys)
        assert report["passed"] is True
        assert 0.0 < report["report"]["sigma_max"] < 0.1

    def test_period_file_carries_the_condition_of_a(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        run_json(
            ["period", "--map", flow_map, "--grid", "512", "--out", str(path)],
            capsys,
        )
        from_map = run_json(
            ["siegel-check", "--map", flow_map, "--grid", "512"], capsys
        )
        from_file = run_json(["siegel-check", "--matrix", str(path)], capsys)
        condition = from_map["report"]["condition_of_A"]
        assert condition is not None and condition > 1.0
        assert from_file["report"]["condition_of_A"] == condition
        assert from_file["report"] == from_map["report"]

    def test_from_operator_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_json(
            [
                "pullback-matrix",
                "--map",
                flow_map,
                "--grid",
                "512",
                "--out",
                str(path),
            ],
            capsys,
        )
        report = run_json(["siegel-check", "--matrix", str(path)], capsys)
        assert report["passed"] is True

    def test_non_member_reports_cleanly(self, tmp_path, capsys):
        z = [[{"re": 1.5, "im": 0.0}]]
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"cutoff": 1, "Z": z, "source": None}))
        report = run_json(["siegel-check", "--matrix", str(path)], capsys)
        assert report["member"] is False
        assert report["passed"] is False

    def test_exactly_one_source(self, capsys):
        code, _, _ = run(["siegel-check"], capsys)
        assert code == 1
        code, _, _ = run(
            ["siegel-check", "--map", rotation_map, "--matrix", "z.json"],
            capsys,
        )
        assert code == 1

    def test_unrecognized_matrix_object(self, capsys):
        code, _, err = run(["siegel-check", "--matrix", '{"foo": 1}'], capsys)
        assert code == 1
        assert "period matrix or a block operator" in err


class TestRauchCheck:
    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "rauch.json"
        report = run_json(
            [
                "rauch-check",
                "--m",
                "0",
                "--eps",
                "1e-3",
                "--grid",
                "512",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert [1, 1, 1.0] in report["derivative_entries"]
        assert report["within_bound"] is True
        assert abs(report["defect"] / 2.0e-3 - 1.0) <= 1e-3
        ratios = [row["ratio"] for row in report["curve"][1:]]
        assert all(0.3 <= r <= 0.7 for r in ratios)
        lines = (tmp_path / "rauch.csv").read_text().splitlines()
        assert lines[0] == "eps,defect,ratio"
        assert len(lines) == 4

    def test_requires_m(self, capsys):
        code, _, err = run(["rauch-check"], capsys)
        assert code == 1 and "--m" in err

    def test_bad_direction_and_step(self, capsys):
        assert run(["rauch-check", "--m", "-1"], capsys)[0] == 1
        assert run(["rauch-check", "--m", "0", "--eps", "0"], capsys)[0] == 1


class TestEquivariance:
    def test_rotation_pair(self, capsys):
        report = run_json(
            [
                "equivariance",
                "--map",
                rotation_map,
                "--map",
                '{"type": "rotation", "alpha": 0.3}',
                "--grid",
                "256",
            ],
            capsys,
        )
        assert report["within_tol"] is True
        assert report["defect"] <= 1e-10
        assert report["outer"]["alpha"] == 0.7
        assert report["inner"]["alpha"] == 0.3

    def test_needs_two_maps(self, capsys):
        code, _, err = run(["equivariance", "--map", rotation_map], capsys)
        assert code == 1 and "twice" in err


class TestIntegrability:
    def test_from_map(self, capsys):
        report = run_json(
            ["integrability", "--map", rotation_map, "--grid", "512"], capsys
        )
        assert report["within_tol"] is True
        assert report["residual"] <= 1e-10
        assert report["trial_bandlimit"] == 8
        assert report["seed"] == 0

    def test_from_operator_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_json(
            [
                "pullback-matrix",
                "--map",
                flow_map,
                "--grid",
                "512",
                "--out",
                str(path),
            ],
            capsys,
        )
        report = run_json(["integrability", "--matrix", str(path)], capsys)
        assert report["cutoff"] == 32
        assert report["within_tol"] is True

    def test_every_source_reads_the_same_z(self, tmp_path, capsys):
        # A map, its period artifact and its operator artifact all name
        # the same Z = conj(B) A^{-1}, so they give the same residual.
        composite = json.dumps(
            {
                "type": "compose",
                "maps": [
                    json.loads(flow_map),
                    {"type": "moebius", "a": {"re": 0.2, "im": 0.0}},
                ],
            }
        )
        period_path = tmp_path / "per.json"
        operator_path = tmp_path / "op.json"
        run_json(["period", "--map", composite, "--out", str(period_path)], capsys)
        run_json(
            ["pullback-matrix", "--map", composite, "--out", str(operator_path)],
            capsys,
        )
        residuals = {
            run_json(["integrability"] + source, capsys)["residual"]
            for source in (
                ["--map", composite],
                ["--matrix", str(period_path)],
                ["--matrix", str(operator_path)],
            )
        }
        assert len(residuals) == 1

    def test_exactly_one_source(self, capsys):
        assert run(["integrability"], capsys)[0] == 1
        code, _, _ = run(
            ["integrability", "--map", rotation_map, "--matrix", "z.json"],
            capsys,
        )
        assert code == 1


class TestQuantumHs:
    def test_cos_attains_the_lower_bound(self, capsys):
        report = run_json(["quantum-hs", "--modes", cos_modes], capsys)
        assert report["hs_norm"] == 1.0
        assert report["hs_norm_squared"] == report["lower_bound"] == 1.0
        assert report["bracket_holds"] == [True, True]

    def test_complex_input_skips_the_bracket(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_to_json(from_modes(1, {1: 1.0}))))
        report = run_json(["quantum-hs", "--input", str(path)], capsys)
        assert report["bracket_holds"] is None
        assert report["hs_norm"] > 0.0


class TestKernel:
    def test_rotation_kernels_vanish(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        report = run_json(
            [
                "kernel",
                "--map",
                rotation_map,
                "--order",
                "2",
                "--grid",
                "256",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert report["worst_defect"] == 0.0
        assert report["within_tol"] is True
        assert len(report["points"]) == 3
        assert report["points"][0]["x"] == 0.0
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[0] == "x,delta,kernel_value"
        assert len(lines) == 10

    def test_window_override(self, capsys):
        report = run_json(
            [
                "kernel",
                "--map",
                rotation_map,
                "--order",
                "0",
                "--grid",
                "256",
                "--window",
                "0.04,0.02",
            ],
            capsys,
        )
        assert report["deltas"] == [0.04, 0.02]

    def test_validation(self, capsys):
        base = ["kernel", "--map", rotation_map, "--grid", "256"]
        assert run(base, capsys)[0] == 1
        assert run(base + ["--order", "3"], capsys)[0] == 1
        assert run(base + ["--order", "0", "--window", "x"], capsys)[0] == 1
        code, _, _ = run(base + ["--order", "0", "--window", "0.01"], capsys)
        assert code == 1


class TestInvarianceSuite:
    def test_matrix_report(self, capsys, monkeypatch):
        rows = [
            CheckResult(1, "first", True, "fine"),
            CheckResult(2, "second", True, "also fine"),
        ]
        monkeypatch.setattr("hhalf.cli.run_all", lambda seed: rows)
        report = run_json(["invariance-suite", "--seed", "4"], capsys)
        assert report["all_passed"] is True
        assert report["seed"] == 4
        assert [row["criterion"] for row in report["criteria"]] == [1, 2]

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        rows = [CheckResult(1, "first", False, "broken")]
        monkeypatch.setattr("hhalf.cli.run_all", lambda seed: rows)
        code, out, _ = run(["invariance-suite"], capsys)
        assert code == 2
        assert json.loads(out)["all_passed"] is False


class TestPlumbing:
    def test_reports_are_byte_identical(self, tmp_path, capsys):
        argv = ["integrability", "--map", rotation_map, "--grid", "512",
                "--seed", "5"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_json(argv + ["--out", str(first)], capsys)
        run_json(argv + ["--out", str(second)], capsys)
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_matches_the_file(self, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code, text, _ = run(
            ["norm", "--modes", cos_modes, "--out", str(out)], capsys
        )
        assert code == 0
        assert text == out.read_text()

    def test_out_file_survives_a_closed_stdout_pipe(self, tmp_path, monkeypatch):
        # files must be written before stdout so truncation by a pipe
        # consumer (head, less) cannot lose the artifact
        out = tmp_path / "f.json"

        class ClosedPipe:
            def write(self, _):
                raise BrokenPipeError()

            def flush(self):
                raise BrokenPipeError()

            def fileno(self):
                return os.open(os.devnull, os.O_WRONLY)

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["hilbert", "--modes", cos_modes, "--out", str(out)])
        assert code == 0
        assert function_from_json(json.loads(out.read_text())).bandlimit == 1

    def test_env_config_sets_the_cutoff(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 8, "grid_size": 64}))
        monkeypatch.setenv("HHP_CONFIG", str(cfg))
        report = run_json(["period", "--map", rotation_map], capsys)
        assert report["cutoff"] == 8

    def test_invalid_env_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 8, "bogus": 1}))
        monkeypatch.setenv("HHP_CONFIG", str(cfg))
        code, _, err = run(["norm", "--modes", cos_modes], capsys)
        assert code == 1 and "bogus" in err

    def test_flag_overrides_beat_the_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        monkeypatch.setenv("HHP_CONFIG", str(cfg))
        report = run_json(
            ["integrability", "--map", rotation_map, "--grid", "512",
             "--seed", "9"],
            capsys,
        )
        assert report["seed"] == 9

    def test_unknown_subcommand_and_flags(self, capsys):
        assert run(["bogus"], capsys)[0] == 1
        assert run(["norm", "--modes", cos_modes, "--bogus"], capsys)[0] == 1
        assert run([], capsys)[0] == 1
        # Flags exist only on the subcommands that read them.
        for argv in (
            ["period", "--map", rotation_map, "--tol", "5", "--seed", "3"],
            ["hilbert", "--modes", cos_modes, "--tol", "-1"],
            ["rauch-check", "--m", "1", "--tol", "1e-30"],
            ["quantum-hs", "--modes", cos_modes, "--grid", "64"],
        ):
            code, _, err = run(argv, capsys)
            assert code == 1 and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "config, argv",
        [
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": 1, "Z": [[{"re": NaN, "im": 0}]]}']),
            (None, ["norm", "--modes", '{"1": 1e999}']),
            ('{"cutoff": Infinity}', ["norm", "--modes", cos_modes]),
            ('{"cutoff": "abc"}', ["norm", "--modes", cos_modes]),
            (None, ["period", "--map", '{"type": "rotation", "alpha": "abc"}']),
            (None, ["period", "--map", '{"type": "power", "k": "x"}']),
            (None, ["period", "--map", json.dumps(
                dict(json.loads(flow_map), eps="e"))]),
            (None, ["period", "--map",
                    '{"type": "rauch_flow", "m": 1.5, "eps": 0.1}']),
            (None, ["kernel", "--order", "0", "--map",
                    '{"type": "power", "k": 2.5}']),
        ],
    )
    def test_non_finite_and_malformed_numbers_are_input_errors(
        self, config, argv, capsys, monkeypatch
    ):
        if config is not None:
            monkeypatch.setenv("HHP_CONFIG", config)
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "descriptor, name",
        [
            ({"type": "rotation", "alpha": "1e999"}, "rotation alpha"),
            ({"type": "moebius", "a": {"re": "nan", "im": 0.0}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.1, "im": "-inf"}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.1}, "beta": "inf"}, "moebius beta"),
            (dict(json.loads(flow_map), eps="inf"), "flow eps"),
            ({"type": "rauch_flow", "m": 1, "eps": "nan"}, "rauch_flow eps"),
            (
                dict(
                    json.loads(flow_map),
                    v={"bandlimit": 1, "real": True, "coeffs": [{"n": -1, "re": "inf"}]},
                ),
                "coefficient -1",
            ),
        ],
    )
    def test_non_finite_descriptor_parameters_are_refused_by_name(
        self, descriptor, name, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["period", "--map", json.dumps(descriptor)], capsys
            )
        assert code == 1 and out == ""
        assert err == "error: %s must be finite\n" % name

    def test_grid_override_is_validated(self, capsys):
        code, _, err = run(
            ["period", "--map", '{"type": "identity"}', "--grid", "8"], capsys
        )
        assert code == 1 and "4 * cutoff" in err

    def test_csv_path_needs_a_table(self, tmp_path, capsys):
        out = tmp_path / "norm.csv"
        code, _, err = run(
            ["norm", "--modes", cos_modes, "--out", str(out)], capsys
        )
        assert code == 1 and "no CSV table" in err

    def test_unwritable_output_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "norm.json"
        code, _, err = run(
            ["norm", "--modes", cos_modes, "--out", str(out)], capsys
        )
        assert code == 1 and "cannot write" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "invariance-suite" in capsys.readouterr().out
