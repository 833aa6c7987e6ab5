"""Tests for the batch front end: parsing, reports, exit codes."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hhalf import cli
from hhalf.catalog import sin_field
from hhalf.cli import main
from hhalf.errors import NumericalError, ValidationError
from hhalf.fourier import (
    SampleGrid,
    from_modes,
    function_from_json,
    function_to_json,
    matrix_from_json,
)
from hhalf.maps import (
    descriptor_to_json,
    evaluate_lift,
    flow,
    inverse_descriptor,
    make_map,
)
from hhalf.pullback import operator_from_json
from hhalf.suite import CheckResult
from test_quantum import reference_inverse_classical

src_dir = pathlib.Path(__file__).resolve().parent.parent / "src"
perfbench_dir = src_dir.parent / "perfbench"
cos_modes = '{"1": [0.5, 0.0], "-1": [0.5, 0.0]}'
huge = 10**400  # a JSON integer that overflows a float
rotation_map = '{"type": "rotation", "alpha": 0.7}'
flow_map = json.dumps(
    {
        "type": "flow",
        "v": function_to_json(from_modes(2, {2: -0.5j, -2: 0.5j})),
        "eps": 0.05,
    }
)
moebius_half_map = (
    '{"type": "moebius", "a": {"re": 0.5, "im": 0.0}, "beta": 0.5}'
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


def run_module(argv):
    """(exit code, stdout, stderr) of python -m hhalf.cli in a new process."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    done = subprocess.run(
        [sys.executable, "-m", "hhalf.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


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
        for bad in (
            "{}",
            '{"x": 1}',
            '{"1": [1, 2, 3]}',
            '{"0": 1.0}',
            "[1]",
            '{"1": 1, "01": 2}',
            '{"1": [true, 0]}',
            '{"1_0": 1}',
            '{" 2 ": 1}',
            '{"+2": 1}',
            '{"01": 1}',
            '{"\u0661": 1}',
        ):
            code, _, _ = run(["norm", "--modes", bad], capsys)
            assert code == 1, bad

    def test_mode_keys_are_read_as_json_integer_text(self, capsys):
        # int() read "1_0" as mode 10, and "01" as a duplicate of "1".
        for modes, key in (('{"1_0": 1}', "1_0"), ('{"1": 1, "01": 2}', "01")):
            code, _, err = run(["norm", "--modes", modes], capsys)
            assert err == "error: mode index '%s' is not an integer\n" % key
        report = run_json(["norm", "--modes", '{"-10": 1, "10": 1}'], capsys)
        assert report["bandlimit"] == 10

    @pytest.mark.parametrize(
        "key, message",
        # A key past int()'s 4300-digit limit was called "not an
        # integer", and every refused key was echoed whole.
        [
            ("9" * 5000, "mode index 999999999999… exceeds the largest bandlimit"),
            ("-" + "1" * 5000, "mode index -11111111111… exceeds the largest bandlimit"),
            ("x" * 5000, "mode index 'xxxxxxxxxxxx…' is not an integer"),
        ],
    )
    def test_long_mode_keys_are_refused_in_a_short_line(self, key, message, capsys):
        code, out, err = run(["norm", "--modes", json.dumps({key: 1})], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message)
        assert len(err.encode()) < 200

    def test_minus_zero_is_a_duplicate_of_zero(self, capsys):
        argv = ["norm", "--modes", '{"0": 1, "-0": 2}']
        assert run(argv, capsys) == (1, "", "error: duplicate mode index 0\n")


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

    def test_coefficients_near_the_float_limit(self, tmp_path, capsys):
        # The transform only swaps and negates parts, so 1e308 stays
        # finite; symmetrizing the input must not overflow either.
        path = tmp_path / "big.json"
        coeffs = [{"n": 1, "re": 1e308}, {"n": -1, "re": 1e308}]
        path.write_text(json.dumps({"bandlimit": 1, "coeffs": coeffs}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["hilbert", "--input", str(path)], capsys)
        assert (code, err, caught) == (0, "", [])
        f = function_from_json(json.loads(out))
        assert f.coefficient(1) == -1e308j and f.coefficient(-1) == 1e308j


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

    def test_default_grid_curve_is_exact_past_twice_the_bandlimit(self, capsys):
        # The default curve runs M = 8 ... 4096; the quadrature is exact
        # to rounding once M exceeds twice the bandlimit.
        modes = {"1": [0.5, 0.0], "-1": [0.5, 0.0], "7": [0.3, -0.2],
                 "-7": [0.3, 0.2], "40": [0.01, 0.02], "-33": [-0.05, 0.0]}
        for text in (cos_modes, json.dumps(modes)):
            report = run_json(["energy", "--modes", text], capsys)
            curve = report["curve"]
            assert [row["grid_size"] for row in curve] == [2**k for k in range(3, 13)]
            exact = [row for row in curve if row["grid_size"] > 2 * report["bandlimit"]]
            assert exact and exact[-1]["grid_size"] == 4096
            for row in exact:
                assert row["relative_defect"] <= 1e-12, row
        report = run_json(["energy", "--modes", '{"3": 0}'], capsys)
        assert report["h_half_norm_squared"] == 0.0
        assert len(report["curve"]) == 10
        for row in report["curve"]:
            assert row["douglas_energy"] == 0.0
            assert row["relative_defect"] == 0.0

    def test_csv_into_a_missing_directory_is_an_input_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "x.csv"
        argv = ["energy", "--modes", cos_modes, "--out", str(path)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write %s: " % path)
        assert not path.parent.exists()

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
        # The identity is the Moebius map with a = 0 and echoes as one.
        assert report["source"] == {
            "type": "moebius",
            "a": {"re": 0.0, "im": 0.0},
            "beta": 0.0,
        }
        worst = max(
            max(abs(v["re"]), abs(v["im"])) for row in report["Z"] for v in row
        )
        assert worst <= 1e-14

    def test_rauch_flow_source_is_echoed_as_a_flow(self, capsys):
        report = run_json(
            ["period", "--map", '{"type": "rauch_flow", "m": 0, "eps": 0.01}',
             "--grid", "256"],
            capsys,
        )
        source = report["source"]
        assert source["type"] == "flow" and source["eps"] == 0.01
        assert [c["n"] for c in source["v"]["coeffs"]] == [-2, 2]

    @pytest.mark.parametrize("m", ["1e9", "1e300"])
    def test_huge_rauch_index_is_an_input_error(self, m, capsys):
        descriptor = '{"type": "rauch_flow", "m": %s, "eps": 0.001}' % m
        code, out, err = run(["period", "--map", descriptor], capsys)
        assert code == 1 and out == ""
        assert err == "error: bandlimit must lie in 1..%d\n" % 2**20

    def test_non_monotone_flow_is_refused(self, capsys):
        code, _, err = run(
            ["period", "--map", steep_flow_map, "--grid", "256"], capsys
        )
        assert code == 1
        assert "violates" in err

    def test_flow_that_turns_back_between_grid_points_is_refused(self, capsys):
        # 1 + 1.2 cos 21 theta is at least 0.4 on 63 grid points and
        # -0.2 at theta = pi/21.
        field = function_to_json(from_modes(21, {21: -0.5j, -21: 0.5j}))
        turning = json.dumps({"type": "flow", "v": field, "eps": 1.2 / 21})
        for command in ("period", "kernel --order 0"):
            argv = command.split() + ["--map", turning, "--grid", "63"]
            assert run(argv, capsys) == (
                1, "", "error: flow field violates 1 + eps*v' > 0\n"
            )

    def test_nearly_singular_plus_block_gives_the_origin(self, capsys):
        # cond(A) ~1e14 here; Z is formed without inverting A.
        for grid in ("4096", "16384"):
            report = run_json(
                ["period", "--map", moebius_half_map, "--grid", grid], capsys
            )
            z = matrix_from_json(report["Z"], "Z")
            assert np.max(np.abs(z)) <= 1e-14
            assert set(report) == {"cutoff", "Z", "source"}
        report = run_json(["integrability", "--map", moebius_half_map], capsys)
        assert report["within_tol"] is True


    def test_large_rotation_angles_give_the_origin(self, capsys):
        # beta is reduced mod 2 pi before it meets the grid angles; a raw
        # 10000 rounds their low bits away and the tail check fires.
        for descriptor in (
            '{"type": "rotation", "alpha": 10000}',
            '{"type": "moebius", "a": {"re": 0.9}, "beta": 1000}',
        ):
            report = run_json(["period", "--map", descriptor], capsys)
            z = matrix_from_json(report["Z"], "Z")
            assert np.max(np.abs(z)) <= 1e-14, descriptor

    def test_flow_past_nyquist_is_an_input_error(self, capsys):
        # Refused before the field is evaluated, so exit 1, not 2.
        v = function_to_json(from_modes(5, {5: 0.5, -5: 0.5}))
        descriptor = json.dumps({"type": "flow", "v": v, "eps": 0.01})
        code, out, err = run(
            ["period", "--grid", "8", "--map", descriptor], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: grid size 8 cannot resolve a flow field of bandlimit 5, "
            "past Nyquist mode 3\n"
        )

    def test_grid_is_the_ceiling_of_the_assembly_grid(self, capsys):
        # Both grids halve down to the same sub-grid for this flow.
        default = run(["period", "--map", flow_map], capsys)
        assert run(["period", "--map", flow_map, "--grid", "512"], capsys) == default
        assert default[0] == 0

    def test_two_maps_are_refused(self, capsys):
        argv = ["period", "--map", rotation_map, "--map", rotation_map]
        assert run(argv, capsys) == (
            1, "", "error: this subcommand wants --map exactly once\n"
        )


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

    def test_period_file_reports_like_its_map(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        run_json(
            ["period", "--map", flow_map, "--grid", "512", "--out", str(path)],
            capsys,
        )
        from_map = run_json(
            ["siegel-check", "--map", flow_map, "--grid", "512"], capsys
        )
        from_file = run_json(["siegel-check", "--matrix", str(path)], capsys)
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

    def test_maps_and_operator_artifacts_read_alike(self, tmp_path, capsys):
        # Z has one home, period_from_blocks, so a nearly singular A
        # reads the same whether the blocks come from a map or from an
        # operator artifact: both give the origin.
        path = tmp_path / "t.json"
        run_json(
            ["pullback-matrix", "--map", moebius_half_map, "--out", str(path)],
            capsys,
        )
        for command in ("siegel-check", "integrability"):
            sources = (["--map", moebius_half_map], ["--matrix", str(path)])
            reports = [run_json([command] + s, capsys) for s in sources]
            assert reports[0] == reports[1]
        assert reports[0]["within_tol"] is True
        report = run_json(["siegel-check", "--matrix", str(path)], capsys)
        assert report["passed"] is True
        assert report["report"]["sigma_max"] <= 1e-14


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

    @pytest.mark.parametrize("m", ["9", "1000000000"])
    def test_index_outside_the_compared_window_is_an_input_error(
        self, m, capsys
    ):
        # At N = 32 only r + s <= 10 is compared; m = 9 puts the
        # derivative on r + s = 11 and used to pass on zeros.
        code, out, err = run(["rauch-check", "--m", m], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: index m puts the derivative on r + s = ")
        assert err.count("\n") == 1

    def test_window_follows_the_cutoff(self, capsys, monkeypatch):
        monkeypatch.setenv("HHP_CONFIG", '{"cutoff": 8, "grid_size": 512}')
        assert run(["rauch-check", "--m", "7"], capsys)[0] == 1
        report = run_json(["rauch-check", "--m", "6"], capsys)
        assert report["within_bound"] is True
        # The second-order entries at r + s = 16 lie outside the window,
        # so the defect falls by 1/4 per halving.
        assert all(0.2 <= row["ratio"] <= 0.3 for row in report["curve"][1:])


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
        # Rotations echo as Moebius maps with a = 0 and beta = alpha.
        for side, alpha in (("outer", 0.7), ("inner", 0.3)):
            assert report[side]["type"] == "moebius"
            assert report[side]["a"] == {"re": 0.0, "im": 0.0}
            assert report[side]["beta"] == alpha

    def test_needs_two_maps(self, capsys):
        code, _, err = run(["equivariance", "--map", rotation_map], capsys)
        assert code == 1 and "twice" in err

    def test_nearly_singular_outer_map(self, capsys):
        # The period matrix of the outer map used to be refused for its
        # plus block (cond ~1e14); the group law needs no inverse of A.
        report = run_json(
            ["equivariance", "--map", moebius_half_map, "--map", flow_map],
            capsys,
        )
        assert report["within_tol"] is True
        assert report["defect"] <= 1e-6


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
        # the same Z = conj(B) A^{-1}, so they give the same residual;
        # products are exact, so --grid does not move it.
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
                ["--matrix", str(period_path), "--grid", "256"],
                ["--matrix", str(operator_path)],
            )
        }
        assert len(residuals) == 1

    def test_small_cutoffs_use_trials_that_fit(self, monkeypatch, capsys):
        # Fixed trials of bandlimit 8 would refuse every cutoff below 16.
        moebius_map = '{"type": "moebius", "a": {"re": 0.3}, "beta": 0}'
        for cutoff, bandlimit in ((2, 1), (3, 1), (8, 4), (15, 7), (16, 8)):
            monkeypatch.setenv("HHP_CONFIG", '{"cutoff": %d}' % cutoff)
            report = run_json(["integrability", "--map", moebius_map], capsys)
            assert report["trial_bandlimit"] == bandlimit
            assert report["trial_count"] == 4
            assert report["within_tol"] is True
        # At cutoff 1 no nonzero trial fits.
        monkeypatch.setenv("HHP_CONFIG", '{"cutoff": 1}')
        assert run(["integrability", "--map", moebius_map], capsys) == (
            1, "", "error: trial bandlimit exceeds half the cutoff\n"
        )

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

    def test_cutoff_is_the_bandlimit(self, capsys):
        modes = '{"3": [0.5, 0.0], "-3": [0.5, 0.0]}'
        report = run_json(["quantum-hs", "--modes", modes], capsys)
        assert report["bandlimit"] == report["cutoff"] == 3

    def test_bandlimit_past_the_limit_is_an_input_error(self, capsys):
        # The build asked numpy for 47.7 GiB: a MemoryError traceback.
        modes = '{"20000": 1, "-20000": 1}'
        tracemalloc.start()
        try:
            code, out, err = run(["quantum-hs", "--modes", modes], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == (
            "error: quantum derivative needs a bandlimit of at most 1024, "
            "not 20000\n"
        )
        # Reading the function takes about 1.2 MiB; its matrix would
        # take 24 GiB.
        assert peak < 2**22

    def test_complex_input_skips_the_bracket(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_to_json(from_modes(1, {1: 1.0}))))
        report = run_json(["quantum-hs", "--input", str(path)], capsys)
        assert report["bracket_holds"] is None
        assert report["hs_norm"] > 0.0


class TestKernel:
    def test_offset_that_rounds_away_is_an_input_error(self, capsys):
        # pi/3 + 1e-300 rounds to pi/3, so the second base point has no
        # offset left.
        sin_two_flow = json.dumps(
            {
                "type": "flow",
                "v": function_to_json(from_modes(2, {2: -0.5j, -2: 0.5j})),
                "eps": 0.1,
            }
        )
        argv = ["kernel", "--order", "2", "--window", "1e-300,1e-301",
                "--map", sin_two_flow]
        assert run(argv, capsys) == (
            1, "", "error: kernel requires x != y (mod 2 pi)\n"
        )

    def test_tiny_offsets_give_the_classical_value(self, capsys):
        # Differencing lift values would give -1.75e7 for order 1 at
        # 1e-12; the spectral sums keep every digit.
        sin_two_flow = json.dumps(
            {
                "type": "flow",
                "v": function_to_json(from_modes(2, {2: -0.5j, -2: 0.5j})),
                "eps": 0.1,
            }
        )
        for order in ("0", "1", "2"):
            argv = ["kernel", "--order", order, "--window", "1e-12,5e-13",
                    "--map", sin_two_flow]
            report = run_json(argv, capsys)
            for point in report["points"]:
                for value in point["values"]:
                    assert abs(value - point["classical"]) <= 1e-11
            assert report["worst_defect"] <= 1e-11 and report["within_tol"]

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

    def test_table_rows_are_the_report_values(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        report = run_json(
            ["kernel", "--map", flow_map, "--order", "2", "--out", str(out)],
            capsys,
        )
        lines = (tmp_path / "kernel.csv").read_text().splitlines()[1:]
        expected = [
            "%r,%r,%r" % (point["x"], delta, value)
            for point in report["points"]
            for delta, value in zip(report["deltas"], point["values"])
        ]
        assert lines == expected
        values = [value for point in report["points"] for value in point["values"]]
        assert len(values) == 9 and 0.0 not in values

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
        # 4 pi, as a float: x + delta is x again on the circle.
        window = ["--order", "0", "--window", "12.566370614359172,0.1"]
        code, out, err = run(base + window, capsys)
        assert code == 1 and out == ""
        assert err == "error: kernel requires x != y (mod 2 pi)\n"

    @pytest.mark.parametrize("window", ["inf,0.1,0.05", "0.2,nan,0.05"])
    def test_non_finite_window_is_an_input_error(self, window, capsys):
        code, out, err = run(
            ["kernel", "--order", "0", "--map", rotation_map,
             "--window", window],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: deltas must be finite\n"

    def test_unresolved_lift_is_a_numerical_failure(self, capsys):
        # Refused after the FFT of the lift shows a spectrum reaching
        # the tail band, so exit 2, not 1.
        descriptor = '{"type": "moebius", "a": {"re": 0.9, "im": 0.0}, "beta": 0}'
        code, out, err = run(
            ["kernel", "--order", "0", "--grid", "64", "--map", descriptor],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "numerical failure: grid size 64 cannot resolve bandlimit 0 "
            "under this map"
        )


    def test_steep_inverse_flow_needs_a_finer_grid(self, capsys):
        # On the default 4096 points the lift's spectral tail is 1.9e-12,
        # where the order-2 classical values missed S(h)/6 by up to
        # 7.7e-5 at exit 0; on 16384 points they hold to 2.3e-7.
        d = flow(sin_field(3), 0.3)
        inverse = descriptor_to_json(inverse_descriptor(d))
        argv = ["kernel", "--order", "2", "--map", json.dumps(inverse)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(
            "numerical failure: grid size 4096 cannot resolve bandlimit 0 "
            "under this map (spectral tail 1.9e-12 near Nyquist)"
        )
        report = run_json(argv + ["--grid", "16384"], capsys)
        m = make_map(inverse_descriptor(d), SampleGrid(16384))
        for point in report["points"]:
            x = point["x"]
            reference = reference_inverse_classical(d, x, evaluate_lift(m, x))
            assert abs(point["classical"] - reference) <= 1e-6, x


class TestTolerance:
    # --tol replaces the tolerance each subcommand consults: the report
    # echoes the flag, and the verdict flips across the measured value,
    # here one well above rounding for each subcommand.
    aliased = '{"20": [0.3, 0.1], "-20": [0.3, -0.1]}'  # on 8 points
    truncated = json.dumps(  # symmetry defect 1.2e-2 at cutoff 32
        {
            "type": "flow",
            "v": function_to_json(from_modes(5, {5: -0.5j, -5: 0.5j})),
            "eps": 0.15,
        }
    )
    not_integrable = json.dumps(  # a symmetric contraction, no map's Z
        {
            "cutoff": 4,
            "Z": [
                [{"re": 0.3 if r == s else 0.1, "im": 0.05 * (r + s)} for s in range(4)]
                for r in range(4)
            ],
        }
    )
    cases = {
        "energy": (
            ["energy", "--modes", aliased, "--grid", "8"],
            lambda r: r["relative_defect"],
            "within_tol",
        ),
        "siegel-check": (
            ["siegel-check", "--map", truncated],
            lambda r: r["report"]["symmetry_defect"] / (1.0 + r["report"]["sigma_max"]),
            "symmetric",
        ),
        "equivariance": (
            ["equivariance", "--map", moebius_half_map, "--map", flow_map],
            lambda r: r["defect"],
            "within_tol",
        ),
        "integrability": (
            ["integrability", "--matrix", not_integrable],
            lambda r: r["residual"],
            "within_tol",
        ),
        "kernel": (
            ["kernel", "--order", "1", "--map", flow_map],
            lambda r: r["worst_defect"],
            "within_tol",
        ),
    }

    @pytest.mark.parametrize("command", sorted(cases))
    def test_tol_sets_the_verdict(self, command, capsys):
        argv, measured, verdict = self.cases[command]
        value = measured(run_json(argv, capsys))
        assert value > 0.0
        for tol, expected in ((2.0 * value, True), (0.5 * value, False)):
            report = run_json(argv + ["--tol", repr(tol)], capsys)
            assert report["tol"] == tol
            assert report[verdict] is expected
            assert measured(report) == value


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

    def test_grid_above_the_cap_is_an_input_error(self, capsys, monkeypatch):
        # 2**40 points would be 8 TB of lift samples; the size is refused
        # before any array is allocated, from the flag and the config.
        expected = (1, "", "error: grid size must be at most 1048576\n")
        argv = ["period", "--map", '{"type": "identity"}']
        assert run(argv + ["--grid", str(2**40)], capsys) == expected
        monkeypatch.setenv("HHP_CONFIG", '{"grid_size": %d}' % 2**40)
        assert run(argv, capsys) == expected

    def test_out_is_a_flag_not_a_config_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HHP_CONFIG", '{"out": "r.json"}')
        code, out, err = run(["norm", "--modes", cos_modes], capsys)
        assert (code, out) == (1, "")
        assert err == "error: unknown RunConfig fields: out\n"
        assert list(tmp_path.iterdir()) == []

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

    # Which subcommand takes which flag (x) and which refuses it (.), as
    # README states it: --out everywhere, --grid, --tol and --seed where
    # they are read, and each subcommand's own input flags.
    flag_table = """
                      out grid tol seed input modes map matrix m eps order window
    norm               x   .    .   .    x     x     .    .    .  .    .     .
    hilbert            x   .    .   .    x     x     .    .    .  .    .     .
    energy             x   x    x   .    x     x     .    .    .  .    .     .
    pullback-matrix    x   x    .   .    .     .     x    .    .  .    .     .
    period             x   x    .   .    .     .     x    .    .  .    .     .
    siegel-check       x   x    x   .    .     .     x    x    .  .    .     .
    rauch-check        x   x    .   .    .     .     .    .    x  x    .     .
    equivariance       x   x    x   .    .     .     x    .    .  .    .     .
    integrability      x   x    x   x    .     .     x    x    .  .    .     .
    quantum-hs         x   .    .   .    x     x     .    .    .  .    .     .
    kernel             x   x    x   .    .     .     x    .    .  .    x     x
    invariance-suite   x   .    .   x    .     .     .    .    .  .    .     .
    """
    flag_values = {"grid": "64", "tol": "0.5", "seed": "3", "m": "2",
                   "eps": "0.001", "order": "1"}

    def test_each_subcommand_takes_exactly_its_flags(self):
        lines = self.flag_table.strip().splitlines()
        header, *rows = [line.split() for line in lines]
        assert len(header) == len(rows) == 12
        parser = cli._build_parser()
        for command, *cells in rows:
            takes = {
                flag for flag, cell in zip(header, cells, strict=True) if cell == "x"
            }
            assert set(vars(parser.parse_args([command]))) == {"command"} | takes
            for flag in header:
                argv = [command, "--" + flag, self.flag_values.get(flag, "x")]
                if flag in takes:
                    assert getattr(parser.parse_args(argv), flag) is not None
                elif any(other.startswith(flag) for other in takes):
                    # argparse reads --m as the one flag it abbreviates
                    # (--map or --modes), or refuses it as ambiguous.
                    try:
                        assert not hasattr(parser.parse_args(argv), flag)
                    except ValidationError as exc:
                        assert str(exc).startswith("ambiguous option: --m")
                else:
                    with pytest.raises(
                        ValidationError, match="^unrecognized arguments"
                    ):
                        parser.parse_args(argv)

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
            (None, ["siegel-check", "--map", flow_map, "--tol", "inf"]),
            (None, ["energy", "--modes", '{"2": 1}', "--tol", "1e999"]),
            (None, ["integrability", "--map", rotation_map, "--tol=-inf"]),
            (None, ["kernel", "--order", "0", "--map", rotation_map,
                    "--tol", "nan"]),
            # int() truncated these integer fields instead of refusing.
            (None, ["norm", "--input", '{"bandlimit": 2, "real": false, '
                    '"coeffs": [{"n": 1.7, "re": 1, "im": 0}]}']),
            (None, ["norm", "--input", '{"bandlimit": 2.9, "real": false, '
                    '"coeffs": [{"n": 1, "re": 1, "im": 0}]}']),
            (None, ["norm", "--input", '{"bandlimit": 2, "real": false, '
                    '"coeffs": [{"n": true, "re": 1, "im": 0}]}']),
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": 1.5, "Z": [[{"re": 0.1, "im": 0}]]}']),
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": true, "A": [[{"re": 1, "im": 0}]], '
                    '"B": [[{"re": 0, "im": 0}]]}']),
            # int() read these as integers: true as 1, "2" as 2.
            (None, ["period", "--map", '{"type": "power", "k": true}']),
            (None, ["period", "--map",
                    '{"type": "rauch_flow", "m": true, "eps": 0.01}']),
            ('{"cutoff": true}', ["period", "--map", rotation_map]),
            ('{"seed": true}', ["integrability", "--map", rotation_map,
                                "--grid", "512"]),
            (None, ["norm", "--input", '{"bandlimit": "2", "real": false, '
                    '"coeffs": [{"n": 1, "re": 1, "im": 0}]}']),
            (None, ["norm", "--input", '{"bandlimit": 2, "real": false, '
                    '"coeffs": [{"n": "1", "re": 1, "im": 0}]}']),
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
        "coeffs",
        ["null", "true", "0", "1", "-1", "1.5", "1e300", "NaN", "Infinity",
         "-Infinity"],
    )
    def test_coeffs_that_are_not_a_list_are_input_errors(self, coeffs, capsys):
        # Each raised a TypeError out of run_command.
        text = '{"bandlimit": 1, "coeffs": %s}' % coeffs
        code, out, err = run(["norm", "--input", text], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed CircleFunction object: ")

    @pytest.mark.parametrize(
        "text, name",
        [
            ('{"type": "rotation", "alpha": NaN}', "rotation alpha"),
            ('{"type": "moebius", "a": {"re": -Infinity}}', "moebius a"),
            ('{"type": "rauch_flow", "m": 1, "eps": 1e999}', "rauch_flow eps"),
        ],
    )
    def test_non_finite_literals_are_refused_by_their_field(
        self, text, name, capsys
    ):
        # These were refused by the parser, "--map is not valid JSON".
        assert run(["period", "--map", text], capsys) == (
            1, "", "error: %s must be finite\n" % name
        )

    @pytest.mark.parametrize(
        "descriptor, name",
        [
            # JSON reaches infinity only through integers past float range.
            ({"type": "rotation", "alpha": huge}, "rotation alpha"),
            ({"type": "moebius", "a": {"re": huge, "im": 0.0}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.1, "im": -huge}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.1}, "beta": huge}, "moebius beta"),
            (dict(json.loads(flow_map), eps=huge), "flow eps"),
            ({"type": "rauch_flow", "m": 1, "eps": -huge}, "rauch_flow eps"),
            (
                dict(
                    json.loads(flow_map),
                    v={"bandlimit": 1, "real": True, "coeffs": [{"n": -1, "re": huge}]},
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

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": 1, "Z": [[{"re": true, "im": false}]]}'],
             "malformed PeriodMatrix object: Z entry must be a number, "
             "not True"),
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": 1, "Z": [[{"re": 0.5, "im": "0"}]]}'],
             "malformed PeriodMatrix object: Z entry must be a number, "
             "not '0'"),
            (None, ["siegel-check", "--matrix",
                    '{"cutoff": 1, "Z": [[{"re": %d, "im": 0}]]}' % huge],
             "malformed PeriodMatrix object: Z entry must be finite"),
            (None, ["integrability", "--matrix",
                    '{"cutoff": 1, "A": [[{"re": 1, "im": 0}]], '
                    '"B": [[{"re": 0, "im": "0"}]]}'],
             "malformed BlockOperator object: B entry must be a number, "
             "not '0'"),
            (None, ["norm", "--input", '{"bandlimit": 1, "coeffs": '
                    '[{"n": 1, "re": true}]}'],
             "coefficient 1 must be a number, not True"),
            (None, ["norm", "--input", '{"bandlimit": 1, "coeffs": '
                    '[{"n": 1, "re": "1"}]}'],
             "coefficient 1 must be a number, not '1'"),
            (None, ["norm", "--modes", '{"1": [true, 0]}'],
             "mode 1 must be a number, not True"),
            (None, ["norm", "--modes", '{"-2": %d}' % huge],
             "mode -2 must be finite"),
            (None, ["period", "--map", '{"type": "rotation", "alpha": "nan"}'],
             "rotation alpha must be a number, not 'nan'"),
            ('{"matrix_tol": true}', ["siegel-check", "--map", rotation_map],
             "matrix_tol must be a number, not True"),
            ('{"spectral_tol": "1e-8"}', ["norm", "--modes", cos_modes],
             "spectral_tol must be a number, not '1e-8'"),
        ],
    )
    def test_real_fields_take_only_json_numbers(
        self, config, argv, message, capsys, monkeypatch
    ):
        if config is not None:
            monkeypatch.setenv("HHP_CONFIG", config)
        assert run(argv, capsys) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Both exited 0: the first echoed beta 0.0, the second read
            # "false" as true and took the Hermitian coefficients as real.
            (["period", "--map", '{"type": "moebius", "a": {"re": 0.3, '
              '"im": 0.0}, "bata": 1.0}'],
             "unknown moebius descriptor fields: bata"),
            (["norm", "--input", '{"bandlimit": 1, "real": "false", "coeffs": '
              '[{"n": 1, "re": 1.0}, {"n": -1, "re": 1.0}]}'],
             "CircleFunction real must be true or false, not 'false'"),
            (["period", "--map", '{"type": "moebius", "a": {"re": 0.3, '
              '"imag": 0.1}}'],
             "unknown moebius a fields: imag"),
            (["norm", "--input", '{"bandlimit": 1, "coeffs": [{"n": 1, '
              '"re": 1.0, "Im": 0.5}]}'],
             "unknown coefficient entry fields: Im"),
            (["hilbert", "--input", '{"bandlimit": 1, "coeff": [], '
              '"coeffs": []}'],
             "unknown CircleFunction fields: coeff"),
            # Both exited 0 and reported on Z = 0.1; the unknown
            # top-level field is named before the entry is read.
            (["siegel-check", "--matrix", '{"cutoff":1,"Z":[[{"re":0.1,'
              '"im":0,"imag":5}]],"bogus":1}'],
             "malformed PeriodMatrix object: unknown PeriodMatrix fields: "
             "bogus"),
            (["siegel-check", "--matrix", '{"cutoff":1,"Z":[[{"re":0.1,'
              '"im":0,"imag":5}]]}'],
             "malformed PeriodMatrix object: unknown Z entry fields: imag"),
            (["integrability", "--matrix", '{"cutoff": 1, "A": [[{"re": 1, '
              '"im": 0, "Re": 1}]], "B": [[{"re": 0, "im": 0}]], "x": 1}'],
             "malformed BlockOperator object: unknown BlockOperator fields: x"),
            (["integrability", "--matrix", '{"cutoff": 1, "A": [[{"re": 1, '
              '"im": 0, "Re": 1}]], "B": [[{"re": 0, "im": 0}]]}'],
             "malformed BlockOperator object: unknown A entry fields: Re"),
            # Period artifacts no longer record the condition number of A.
            (["siegel-check", "--matrix", '{"cutoff": 1, "Z": [[{"re": 0.5, '
              '"im": 0}]], "condition_of_A": 7.0}'],
             "malformed PeriodMatrix object: unknown PeriodMatrix fields: "
             "condition_of_A"),
        ],
    )
    def test_unknown_fields_and_non_boolean_real_are_input_errors(
        self, argv, message, capsys
    ):
        assert run(argv, capsys) == (1, "", "error: %s\n" % message)

    def test_non_finite_report_value_is_a_numerical_failure(
        self, tmp_path, capsys
    ):
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow
            code, text, err = run(
                ["norm", "--modes", '{"1": [1e308, 1e308]}'], capsys
            )
            assert code == 2 and text == ""
            assert err == (
                "numerical failure: report value h_half_norm is not finite\n"
            )
            code, text, err = run(
                ["energy", "--modes", '{"1": [1e308, 1e308]}',
                 "--out", str(out)],
                capsys,
            )
        assert code == 2 and text == ""
        assert "report value curve[0].douglas_energy is not finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self, capsys):
        # python -m hhalf.cli runs main() under __main__.
        argv = ["norm", "--modes", '{"1": [0.5, 0.0]}']
        code, text, err = run_module(argv)
        assert code == 0 and err == ""
        assert (code, text, err) == run(argv, capsys)
        assert run_module(["norm"]) == (
            1, "", "error: give exactly one of --input or --modes\n"
        )

    def test_deep_descriptors_are_input_errors(self, capsys):
        # Building and echoing a map recurse per compose level, and the
        # JSON parser has its own depth limit: past either, run_command
        # reports an input error instead of raising RecursionError.
        def nested(levels):
            return (
                '{"type": "compose", "maps": [' * levels
                + rotation_map + "]}" * levels
            )

        depth = "error: map descriptor nests compose and inverse past 64 levels\n"
        assert run_json(["period", "--map", nested(64)], capsys)["source"]
        assert run(["period", "--map", nested(65)], capsys) == (1, "", depth)
        argv = ["period", "--map", nested(300)]
        assert run(argv, capsys) == run_module(argv) == (1, "", depth)
        argv = ["period", "--map", nested(2000)]
        code, text, err = run(argv, capsys)
        assert (code, text) == (1, "")
        assert err.startswith("error: --map is not valid JSON: ")
        assert run_module(argv) == (code, text, err)

    def test_parser_reuse_leaves_nothing_behind(self, capsys):
        # One process runs the sequence; each result must equal a fresh
        # interpreter's, so append flags, --grid and an argparse error
        # carry nothing over to the next command.  An odd grid cannot be
        # halved, so its blocks are assembled on all 4097 points, not on
        # the sub-grid that the default 4096 points give.
        sequence = [
            ["equivariance", "--map", flow_map, "--map", rotation_map],
            ["period", "--map", flow_map],
            ["period", "--bogus"],
            ["period", "--map", flow_map, "--grid", "4097"],
            ["period", "--map", flow_map],
        ]
        results = []
        for argv in sequence:
            fresh = run_module(argv)
            results.append(run(argv, capsys))
            assert results[-1] == fresh
        assert [code for code, _, _ in results] == [0, 0, 1, 0, 0]
        assert results[1] == results[4] != results[3]

    def test_grid_override_is_validated(self, capsys):
        # Just above 2N the library's tail check sees too few modes:
        # moebius(0.3) at M = 65 gave wrong blocks with no error, so
        # every subcommand that assembles blocks refuses M < 4N alike.
        moebius_map = '{"type": "moebius", "a": {"re": 0.3, "im": 0.0}}'
        subcommands = [
            ["pullback-matrix", "--map", moebius_map],
            ["period", "--map", moebius_map],
            ["siegel-check", "--map", moebius_map],
            ["rauch-check", "--m", "1"],
            ["equivariance", "--map", moebius_map, "--map", rotation_map],
            ["integrability", "--map", moebius_map],
        ]
        for argv in subcommands:
            for size in ("8", "65", "127"):
                code, _, err = run(argv + ["--grid", size], capsys)
                assert code == 1, argv
                assert err == (
                    "error: grid size %s is below 4 * cutoff = 128\n" % size
                ), argv

    # energy, kernel and norm assemble no blocks, so a grid below
    # 4 * cutoff is no reason to refuse them.
    def test_energy_runs_below_4n(self, capsys):
        run_json(["energy", "--modes", cos_modes, "--grid", "64"], capsys)

    def test_kernel_runs_below_4n(self, capsys):
        moebius_map = '{"type": "moebius", "a": {"re": 0.3, "im": 0.0}}'
        argv = ["kernel", "--order", "2", "--map", moebius_map, "--grid", "64"]
        assert run_json(argv, capsys)["within_tol"]

    def test_norm_runs_below_4n(self, monkeypatch, capsys):
        monkeypatch.setenv("HHP_CONFIG", '{"grid_size": 64}')
        run_json(["norm", "--modes", cos_modes], capsys)

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


def matrix_to_json(matrix):
    """Rows of {"re", "im"} objects: the written form of a complex array."""
    return [
        [{"re": float(v.real), "im": float(v.imag)} for v in row]
        for row in matrix
    ]


def oracle(value):
    return json.dumps(value, indent=2, sort_keys=True, default=matrix_to_json)


def complex_array(parts):
    z = np.empty(parts.shape[1:], np.complex128)
    z.real, z.imag = parts
    return z


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | (
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, -1.5e300, 0.1])
)
complex_entries = st.fixed_dictionaries(
    {"re": finite_floats, "im": finite_floats}
)
complex_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(complex_entries, min_size=cols, max_size=cols),
        min_size=1,
        max_size=4,
    )
)
complex_arrays = (
    st.tuples(st.integers(1, 4), st.integers(1, 4))
    .flatmap(lambda shape: arrays(np.float64, (2,) + shape, elements=finite_floats))
    .map(complex_array)
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | finite_floats
    | st.text()
    | st.sampled_from(["h\u00e9 \u2264 \U0001d4b5", "\t\"q\"\n", "", {}, []])
    | complex_matrices
    | complex_arrays,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=25,
)


def cli_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", perfbench_dir / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEmission:
    """The report text is json.dumps(report, indent=2, sort_keys=True),
    with each complex array written as rows of {"im", "re"} objects."""

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            [[{"im": 1.0, "re": 2.0}] * 2, [{"im": 5.0, "re": 6.0}]],
            [[{"im": 1.0, "re": 2.0}], []],
            [[], []],
            [[{"im": 1, "re": 2.0}]],
            [[{"im": True, "re": 2.0}]],
            [[{"im": 1.0, "re": 2.0, "x": 0.0}]],
            [[{"im": 1.0, "x": 2.0}]],
            [[{"im": 1.0, "re": np.float64(2.0)}]],
            [[[1.0, 2.0]]],
            ([{"im": 1.0, "re": 2.0}],),
        ],
    )
    def test_near_misses_take_the_general_path(self, value):
        # Lists shaped like a written matrix are plain JSON values.
        assert cli._json_text(value) == oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            np.array([[complex(5e-324, -0.0)]]),
            [[np.eye(1, dtype=complex)], "x", np.full((1, 3), 3.0 + 4.0j)],
            {"Z": np.full((2, 2), 1e-7 + 1e16j), "a": {"b": [1, 2.5]}},
        ],
    )
    def test_matrices_at_any_depth(self, value):
        assert cli._json_text(value) == oracle(value)

    @pytest.mark.parametrize(
        "value, name",
        [
            (float("nan"), ""),
            ({"h_half_norm": float("inf")}, "h_half_norm"),
            ({"a": [1.0, {"b": -float("inf")}]}, "a[1].b"),
            ({"Z": np.full((2, 2), complex(float("nan"), 0.0))}, "Z"),
            ({"a": [0.5, {"B": np.array([[0.0, 1j * float("inf")]])}]}, "a[1].B"),
        ],
    )
    def test_non_finite_values_are_refused_by_name(self, value, name):
        with pytest.raises(NumericalError) as info:
            cli._json_text(value)
        assert str(info.value) == "report value %s is not finite" % name

    @pytest.fixture
    def emitted(self, monkeypatch):
        """Every report emitted, each checked against the json oracle."""
        reports = []
        emit = cli._emit

        def checked(report, curve, out):
            assert cli._json_text(report) == oracle(report)
            reports.append(report)
            emit(report, curve, out)

        monkeypatch.setattr(cli, "_emit", checked)
        return reports

    def test_every_subcommand_report(self, emitted, tmp_path, capsys):
        period_file = tmp_path / "p.json"
        run_json(["period", "--map", flow_map, "--out", str(period_file)],
                 capsys)
        for argv in (
            ["norm", "--modes", cos_modes],
            ["hilbert", "--modes", '{"1": [0.5, 0.25], "-3": 1.5}'],
            ["energy", "--modes", '{"2": 1}'],
            ["pullback-matrix", "--map", flow_map],
            ["siegel-check", "--matrix", str(period_file)],
            ["rauch-check", "--m", "2"],
            ["equivariance", "--map", rotation_map, "--map", flow_map],
            ["integrability", "--map", flow_map, "--grid", "512"],
            ["quantum-hs", "--modes", cos_modes],
            ["kernel", "--order", "2", "--map", flow_map],
            ["invariance-suite", "--seed", "7"],
        ):
            run_json(argv, capsys)
        assert len(emitted) == len(cli._commands)

    def test_a_block_of_benchmark_requests(self, emitted, capsys):
        requests = cli_inputs().cli_requests(5)[:7]
        artifacts = {}
        for index, request in enumerate(requests):
            if request["op"] == "siegel-check":
                source = artifacts[request["source"]]
                argv = ["siegel-check", "--matrix", source]
            else:
                argv = request["argv"]
            code, artifacts[index], err = run(argv, capsys)
            assert code == 0, err
        assert len(emitted) == 7


def complex_rows(*rows):
    return matrix_to_json(np.array(rows, np.complex128))


moebius_source = {"type": "moebius", "a": {"re": 0.5, "im": 0.1}, "beta": 0.5}
flow_source = json.loads(flow_map)
small_config = '{"cutoff": 2, "grid_size": 64}'
# Each JSON input of the command line: (template, argv and HHP_CONFIG
# for a JSON text in its place).
fuzz_templates = {
    "--input": (
        function_to_json(from_modes(2, {1: 0.5, -1: 0.5, 2: 0.25j, -2: -0.25j})),
        lambda text: (["norm", "--input", text], None),
    ),
    "--modes": (
        {"1": [0.5, 0.0], "-2": 0.25},
        lambda text: (["norm", "--modes", text], None),
    ),
    "HHP_CONFIG": (
        {"cutoff": 2, "grid_size": 64, "spectral_tol": 1e-8,
         "matrix_tol": 1e-6, "seed": 3},
        lambda text: (["period", "--map", rotation_map], text),
    ),
    "period artifact": (
        {"cutoff": 2, "Z": complex_rows([0.1, 0.2j], [0.2j, -0.1]),
         "source": moebius_source},
        lambda text: (["siegel-check", "--matrix", text], None),
    ),
    "operator artifact": (
        {"cutoff": 2, "A": complex_rows([1, 0.1], [0, 1j]),
         "B": complex_rows([0.1, 0], [0, 0.2])},
        lambda text: (["siegel-check", "--matrix", text], None),
    ),
}
for kind, descriptor in {
    "flow": flow_source,
    "moebius": moebius_source,
    "compose": {"type": "compose", "maps": [moebius_source, json.loads(rotation_map)]},
    "inverse": {"type": "inverse", "of": flow_source},
    "rauch_flow": {"type": "rauch_flow", "m": 1, "eps": 0.01},
    "power": {"type": "power", "k": 2},
}.items():
    fuzz_templates["--map " + kind] = (
        descriptor, lambda text: (["period", "--map", text], small_config)
    )
# What replaces each value and container in turn, as JSON text, so
# that 1e999 reaches the parser as the literal that overflows.
non_finite = ["NaN", "Infinity", "-Infinity", "1e999"]
fuzz_values = non_finite + [
    "null", "true", "0", "-1", "1.5", '"x"', "[]", "{}", "[1]", '{"a": 1}',
]


def fuzzed_texts(template):
    """(path, value, JSON text) with each value of template replaced in turn."""
    marker = "fuzz-marker"

    def paths(value, path):
        yield path
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ()
        )
        for key, item in items:
            yield from paths(item, path + (key,))

    for path in paths(template, ()):
        copy = json.loads(json.dumps(template))
        if path:
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = marker
        else:
            copy = marker
        text = json.dumps(copy)
        for value in fuzz_values:
            yield path, value, text.replace(json.dumps(marker), value)

    def test_csv_into_a_missing_directory_is_an_input_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "kernel.csv"
        argv = ["kernel", "--map", rotation_map, "--order", "0",
                "--grid", "256", "--out", str(path)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write %s: " % path)
        assert not path.parent.exists()


class TestJsonFuzz:
    """Each JSON input is an input error, a numerical failure or a
    report, whatever one value or container in it is replaced by; a
    non-finite number is always refused by the field that reads it."""

    @pytest.mark.parametrize("name", list(fuzz_templates))
    def test_one_replaced_value_never_raises(
        self, name, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # a root replaced by text reads as a path
        template, command = fuzz_templates[name]
        runs = 0
        for path, value, text in fuzzed_texts(template):
            argv, config = command(text)
            if config is None:
                monkeypatch.delenv("HHP_CONFIG", raising=False)
            else:
                monkeypatch.setenv("HHP_CONFIG", config)
            where = "%s at %s" % (value, list(path))
            try:
                code = cli.run_command(argv)
            except Exception as exc:
                pytest.fail("%s raised %r" % (where, exc))
            err = capsys.readouterr().err
            assert code in (0, 1, 2), where
            if value in non_finite:
                assert code == 1 and err.startswith("error: "), (where, err)
            runs += 1
        assert runs >= 2 * len(fuzz_values)
