"""Every hhalf attribute and descriptor the benchmark uses by name must exist.

perfbench/ wraps functions by (module, name), reads `_accel` kernels
by attribute, posts JSON descriptors to validate its reference and
keys references and traced blocks by echoed descriptor JSON.  Its own
tests run outside this suite, so a renamed or deleted function, a
descriptor kind or an echo that rebuilds a different map would
otherwise break only a benchmark run.
"""

import importlib
import importlib.util
import json
import pathlib
import re
import sys

import numpy as np
import pytest

import hhalf
import hhalf.cli

perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(script):
    """A perfbench script loaded by path, as module perfbench_<script>."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + script, perfbench / (script + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load("tracing")
    bound = list(tracing.SPANS.items()) + list(tracing.COUNTERS.items())
    assert bound
    for name, (home, attr) in bound:
        assert callable(getattr(importlib.import_module(home), attr, None)), name


def test_accel_names_exist():
    names = set()
    for script in ("reference.py", "run.py"):
        text = (perfbench / script).read_text()
        names.update(re.findall(r"\b_?accel\.([A-Za-z_]\w*)", text))
    assert {"NUMBA_AVAILABLE", "synth_at_reference", "douglas_pair_reference"} <= names
    for name in sorted(names):
        assert hasattr(hhalf._accel, name), name
    # The agreement checks compare two methods, not one function with itself.
    assert hhalf._accel.synth_at_reference is not hhalf._accel.synth_at
    accel = hhalf._accel
    assert accel.douglas_pair_reference is not accel.douglas_pair_sum


def test_reference_descriptors_build():
    # perfbench/reference.py posts "rauch_flow" descriptors and reads
    # rauch_derivative; neither passes through a traced binding.
    reference = load("reference")
    assert callable(hhalf.rauch_derivative)
    wanted = reference.validation_references()
    assert any(d["type"] == "rauch_flow" for _, d, _, _ in wanted)
    grid = hhalf.SampleGrid(4096)
    for _, descriptor, _, _ in wanted:
        hhalf.make_map(hhalf.descriptor_from_json(descriptor), grid)


def test_tracer_captures_pullback_arguments(capsys, monkeypatch):
    # Tracer.release unpacks (map, cutoff, grid) from the positional
    # arguments of pullback_matrix; a keyword grid would break it.
    monkeypatch.delenv("HHP_CONFIG", raising=False)
    tracing = load("tracing")
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == "hhalf" or name.startswith("hhalf.")
    }
    tracer = tracing.Tracer(modules)
    descriptor = {"type": "rotation", "alpha": 0.7}
    tracer.install()
    try:
        code = hhalf.cli.run_command(
            ["pullback-matrix", "--map", json.dumps(descriptor)]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    tracer.release(0)
    echoed = hhalf.descriptor_to_json(hhalf.descriptor_from_json(descriptor))
    assert list(tracer.blocks) == [(json.dumps(echoed, sort_keys=True), 32, 4096)]


@pytest.mark.parametrize("seed", [1, 2])
def test_workload_descriptors_echo_the_same_map(seed):
    # Built on each workload's grid (cli-n32 at M = 4096, wide-256 at
    # M = 16384), every request map's echoed JSON must rebuild the same
    # lift samples, or the references keyed by it would be of another map.
    inputs = load("inputs")
    cases = []
    families = set()
    for request in inputs.cli_requests(seed):
        argv = request.get("argv", [])
        cases += [(argv[i + 1], 4096) for i, flag in enumerate(argv) if flag == "--map"]
        families.update(request["families"])
    assert families == set(inputs.CLI_FAMILIES)
    cases += [(json.dumps(r["map"]), 16384) for r in inputs.wide_requests(seed)]
    for text, size in cases:
        grid = hhalf.SampleGrid(size)
        m = hhalf.make_map(hhalf.descriptor_from_json(json.loads(text)), grid)
        echoed = json.loads(json.dumps(hhalf.descriptor_to_json(m.descriptor)))
        rebuilt = hhalf.make_map(hhalf.descriptor_from_json(echoed), grid)
        assert np.array_equal(rebuilt.lift_samples, m.lift_samples), text


def test_refusal_messages_keep_the_labelled_substrings(monkeypatch):
    # perfbench/workloads.py labels an exit-2 refusal by substrings of
    # the CLI's stderr, "numerical failure: <message>"; the messages
    # come from the library's two refusals.
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = load("workloads")
    grid = hhalf.SampleGrid(128)
    steep = hhalf.make_map(hhalf.moebius(0.9), grid)
    with pytest.raises(hhalf.AliasingError) as aliasing:
        hhalf.pullback_matrix(steep, 32, grid)
    boundary = hhalf.PeriodMatrix(2, np.eye(2))
    with pytest.raises(hhalf.ConditioningError) as conditioning:
        hhalf.structure_from_period(boundary)
    for raised, label in (
        (aliasing, "refused_aliasing"),
        (conditioning, "refused_condition"),
    ):
        stderr = "numerical failure: %s\n" % raised.value
        parsed = {"code": 2, "stderr": stderr}
        assert workloads._exit_label(parsed) == label


def test_wide_workload_calls_period_matrix_as_written(monkeypatch):
    # WideWorkload.call runs period_matrix(m, cutoff, grid) positionally
    # and turns any exception, a signature slip included, into a failed
    # operation; one request through its own prepare and call must exit 0.
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = load("workloads")
    workload = workloads.WideWorkload(hhalf, 1)
    execution = workload.call(workload.prepare(0))
    assert (execution.code, execution.stderr) == (0, "")
    z, report = execution.value
    assert z.shape == (256, 256)
    assert isinstance(report, hhalf.SiegelReport)


def test_wide_reports_match_the_benchmark_formulas(monkeypatch):
    # The 12 seed-1 wide-256 maps give exactly symmetric Z, whose report
    # comes from one eigensolve of Z Z*; the benchmark recomputes it by
    # an SVD and the Hermitian part of I - Z conj(Z) (siegel_values).
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = load("workloads")
    workload = workloads.WideWorkload(hhalf, 1)
    assert len(workload.requests) == 12
    for index in range(12):
        execution = workload.call(workload.prepare(index))
        assert execution.code == 0, execution.stderr
        z, report = execution.value
        assert np.array_equal(z, z.T)
        got = (report.symmetry_defect, report.sigma_max, report.min_eig_I_minus_ZZbar)
        for value, expected in zip(got, workloads.siegel_values(z)):
            assert abs(value - expected) <= 1e-13, index
