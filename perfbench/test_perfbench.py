"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hhalf  # noqa: E402
import hhalf.cli  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("make", [inputs.cli_requests, inputs.wide_requests, inputs.suite_requests])
def test_same_seed_gives_identical_request_lists(make):
    first = json.dumps(make(7), sort_keys=True).encode()
    assert first == json.dumps(make(7), sort_keys=True).encode()
    assert first != json.dumps(make(8), sort_keys=True).encode()


def test_family_shares_are_fixed_by_construction():
    for seed in (1, 2, 3):
        assert workloads.CliWorkload(hhalf, seed).families() == workloads.CliWorkload(hhalf, 0).families()
    wide = workloads.WideWorkload(hhalf, 4).families()
    assert set(wide) == set(inputs.BASE_FAMILIES)


def test_cli_blocks_hold_every_family_once():
    requests = inputs.cli_requests(9)
    assert len(requests) == len(inputs.CLI_BLOCK) * inputs.CLI_BLOCKS
    for start in range(0, len(requests), len(inputs.CLI_BLOCK)):
        block = requests[start : start + len(inputs.CLI_BLOCK)]
        assert sorted(r["op"] for r in block) == sorted(inputs.CLI_BLOCK)
        assert sorted(f for r in block for f in r["families"]) == sorted(inputs.CLI_FAMILIES)
        for offset, request in enumerate(block):
            if "inverse" in request["families"]:
                assert request["op"] == "period"
            if request["op"] == "siegel-check":
                assert start <= request["source"] < start + offset
                assert requests[request["source"]]["op"] == "period"


def test_accuracy_pass_uses_the_full_ranges():
    timed = inputs.wide_requests(5)
    full = inputs.accuracy_requests("wide-256", 5)
    assert len(full) == len(timed) and full != timed
    radius = max(
        abs(complex(d["a"]["re"], d["a"]["im"]))
        for r in full
        for d in ([r["map"]] if r["map"]["type"] != "compose" else r["map"]["maps"])
        if d["type"] == "moebius"
    )
    assert inputs.WIDE_TIMED.radius < radius <= inputs.FULL.radius
    assert inputs.accuracy_requests("suite", 5) == []


@pytest.mark.parametrize("ranges", [inputs.FULL, inputs.CLI_TIMED, inputs.WIDE_TIMED])
def test_generated_flows_meet_the_strength_range(ranges):
    strata = inputs._Strata(np.random.default_rng(0), 12, ranges)
    low, high = ranges.strength
    for _ in range(12):
        d = strata.flow(0)
        m = hhalf.make_map(hhalf.descriptor_from_json(d), hhalf.SampleGrid(8192))
        slope = np.diff(np.append(m.lift_samples, m.lift_samples[0] + 2 * np.pi)) * 8192 / (2 * np.pi)
        assert low * 0.98 <= np.max(np.abs(slope - 1.0)) <= high * 1.02


def _traced_and_plain(workload, count):
    tracer = tracing.Tracer(layers.hhalf_modules())
    ops = []
    for index in range(count):
        prepared = workload.prepare(index)
        plain = workload.call(prepared)
        workload.record(index, prepared, plain)
        tracer.op = index
        tracer.install()
        try:
            traced = workload.call(prepared)
        finally:
            tracer.uninstall()
        ops.append((plain, traced))
    return tracer, ops


def test_stdout_is_identical_with_and_without_tracing():
    workload = workloads.CliWorkload(hhalf, 3)
    tracer, ops = _traced_and_plain(workload, 12)
    for plain, traced in ops:
        assert plain.code == traced.code
        assert plain.stdout == traced.stdout
    assert tracer.spans


def test_suite_report_is_identical_with_and_without_tracing():
    workload = workloads.SuiteWorkload(hhalf, 2026)
    tracer, [(plain, traced)] = _traced_and_plain(workload, 1)
    assert plain.stdout == traced.stdout
    assert json.loads(plain.stdout)["all_passed"]
    names = {span[0] for span in tracer.spans}
    assert {"suite.c%02d" % k for k in range(1, 12)} <= names
    assert all(value >= 0 for value in tracing.self_times(tracer.spans))


def test_self_times_are_never_negative():
    workload = workloads.CliWorkload(hhalf, 5)
    tracer, _ = _traced_and_plain(workload, 10)
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0
    durations = [end - start for _, start, end, _, _, _ in tracer.spans]
    assert all(o <= d for o, d in zip(own, durations))


def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0, 100, -1, 0, None],
        ["child", 10, 60, 0, 0, None],
        ["grandchild", 20, 30, 1, 0, None],
    ]
    assert tracing.self_times(spans) == [50, 40, 10]


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(module)) for name, module in layers.hhalf_modules().items()}
    tracer = tracing.Tracer(layers.hhalf_modules())
    tracer.install()
    assert hhalf.period.period_matrix is not before["hhalf.period"]["period_matrix"]
    tracer.uninstall()
    for name, module in layers.hhalf_modules().items():
        for key, value in before[name].items():
            assert vars(module)[key] is value


def test_timed_cli_requests_all_pass():
    workload = workloads.CliWorkload(hhalf, 4)
    for index in range(len(workload.requests)):
        prepared = workload.prepare(index)
        workload.record(index, prepared, workload.call(prepared))
    store = reference.ReferenceStore(hhalf, workload.matrix_tol)
    store.prefetch(workload.references())
    labels = workload.verify(store)
    assert {label for label, _ in labels.values()} == {"ok"}


def test_reference_matches_closed_forms():
    ok, lines = reference.validate(reference.ReferenceStore(hhalf, hhalf.RunConfig().matrix_tol))
    assert ok, lines


def test_reference_blocks_agree_with_the_program():
    d = {"type": "compose", "maps": [workloads.WARMUP_FLOW, {"type": "moebius", "a": {"re": 0.2, "im": 0.1}, "beta": 0.3}]}
    store = reference.ReferenceStore(hhalf, hhalf.RunConfig().matrix_tol)
    grid = hhalf.SampleGrid(4096)
    t = hhalf.pullback_matrix(hhalf.make_map(hhalf.descriptor_from_json(d), grid), 16, grid)
    ref = store.blocks(d, 16, 4096)
    assert np.max(np.abs(t.A - ref["A"])) < 1e-12
    assert np.max(np.abs(t.B - ref["B"])) < 1e-12


def test_accel_kernels_agree_with_their_references():
    ok, lines = reference.accel_checks(hhalf)
    assert ok, lines


def test_wrong_z_is_labelled_failed():
    ref = {"Z": np.zeros((2, 2)), "converged": True}
    assert workloads._z_label(np.full((2, 2), 1e-3), ref, 1e-6)[0] == "wrong_z"
    assert workloads._z_label(np.full((2, 2), 1e-9), ref, 1e-6)[0] == "ok"
    ref["converged"] = False
    assert workloads._z_label(np.full((2, 2), 1e-3), ref, 1e-6)[0] == "unreferenced"
    assert "wrong_z" not in workloads.PASSING
