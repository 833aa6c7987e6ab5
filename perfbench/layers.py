"""Per-layer metrics of a traced run, one value per operation.

Times are self times (a span's duration minus its child spans) summed
over the traced run and divided by the number of operations; the
suite criteria are whole-criterion times.  Counts are per operation
too, so runs of different lengths compare directly.  Refusals, wrong
outputs and exit codes are shares of the untimed accuracy pass, whose
FULL-range maps reach the defects the timed inputs stay clear of.
"""

import json
import sys

import numpy as np

import tracing
import workloads

SELF_MS = {
    "cli.self_ms": ("cli.run_command",),
    "maps.make_map_ms": ("maps.make_map",),
    "maps.lift_bandwidth_ms": ("maps.lift_bandwidth",),
    "fourier.evaluate_at_ms": ("fourier.evaluate_at",),
    "pullback.pullback_matrix_ms": ("pullback.pullback_matrix",),
    "period.period_matrix_self_ms": ("period.period_matrix",),
    "period.siegel_ms": ("period.siegel_membership",),
    "period.equivariance_ms": ("period.equivariance_defect",),
    "pullback.pullback_function_ms": ("pullback.pullback_function",),
    "pullback.operator_norm_ms": ("pullback.operator_norm_estimate",),
    "fourier.douglas_energy_ms": ("fourier.douglas_energy",),
    "symplectic.symplectic_form_ms": ("symplectic.symplectic_form",),
    "quantum.kernel_ms": (
        "quantum.kernel_eval",
        "quantum.kernel_eval_line",
        "quantum.diagonal_limit",
        "quantum.diagonal_limit_line",
        "quantum.diagonal_report",
    ),
    "quantum.hs_ms": ("quantum.quantum_derivative_matrix", "quantum.hs_norm", "quantum.hs_bracket_check"),
    "period.integrability_ms": ("period.integrability_residual",),
}
CALLS = {
    "maps.make_map_calls": "maps.make_map",
    "maps.lift_bandwidth_calls": "maps.lift_bandwidth",
}


def hhalf_modules():
    return {name: module for name, module in sys.modules.items() if name == "hhalf" or name.startswith("hhalf.")}


def per_layer(workload, ops, tracer, store, outcomes, codes):
    """name -> (value, unit, sample count) for a traced run.

    outcomes maps each accuracy-pass request to (label, z error or
    None); codes are the exit codes of those requests.
    """
    n = len(ops)
    spans = tracer.spans
    own = tracing.self_times(spans)
    by_name = {}
    for span, self_ns in zip(spans, own):
        entry = by_name.setdefault(span[0], {"self": 0, "total": 0, "calls": 0, "size": 0})
        entry["self"] += self_ns
        entry["total"] += span[2] - span[1]
        entry["calls"] += 1
        extra = span[5] or {}
        entry["size"] += extra.get("points", 0) + extra.get("pairs", 0)
    empty = {"self": 0, "total": 0, "calls": 0, "size": 0}

    def get(name):
        return by_name.get(name, empty)

    metrics = {}
    for metric, names in SELF_MS.items():
        metrics[metric] = (sum(get(name)["self"] for name in names) / 1e6 / n, "ms/op", n)
    for metric, name in CALLS.items():
        metrics[metric] = (get(name)["calls"] / n, "1/op", n)

    pullbacks = get("pullback.pullback_matrix")["calls"] + get("pullback.pullback_function")["calls"]
    lift_evals = get("maps.make_map")["calls"] + sum(tracer.counts.values())
    metrics["maps.lift_evals_per_op"] = (lift_evals / pullbacks if pullbacks else 0.0, "1/pullback", pullbacks)
    metrics["pullback.fft_points"] = (get("pullback.pullback_matrix")["size"] / n, "1/op", n)
    metrics["pullback.block_err_max"] = block_error(tracer.blocks, store)
    metrics["fourier.douglas_pairs"] = (get("fourier.douglas_energy")["size"] / n, "1/op", n)
    for criterion in range(1, 12):
        name = "suite.c%02d" % criterion
        metrics[name + "_s"] = (get(name)["total"] / 1e9 / n, "s/op", n)

    metrics["cli.bytes_out"] = (sum(op["bytes"] for op in ops) / n, "B/op", n)

    labels = [label for label, _ in outcomes.values()]
    checked = len(labels)

    def share(count):
        return (count / checked, "1/op", checked)

    metrics["cli.exit_1"] = share(codes.count(1) if workload.cli else 0)
    metrics["cli.exit_2"] = share(codes.count(2) if workload.cli else 0)
    metrics["period.refused"] = share(labels.count("refused_condition"))
    metrics["pullback.aliasing_refused"] = share(labels.count("refused_aliasing"))
    metrics["period.wrong"] = share(labels.count("wrong_z"))
    failed = sum(label not in workloads.PASSING for label in labels)
    metrics["failed_share"] = (failed / checked, "share", checked)
    errors = [err for _, err in outcomes.values() if err is not None]
    metrics["z_err_max"] = (max(errors) if errors else 0.0, "1", len(errors))
    plain = sum(op["plain"] for op in ops)
    traced = sum(op["traced"] for op in ops)
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%", n)
    return metrics


def block_error(blocks, store):
    """Largest entry error of traced pullback blocks against the reference."""
    worst = 0.0
    for (descriptor, cutoff, grid_size), (a, b) in blocks.items():
        ref = store.blocks(json.loads(descriptor), cutoff, grid_size)
        worst = max(worst, float(np.max(np.abs(a - ref["A"]))), float(np.max(np.abs(b - ref["B"]))))
    return worst, "1", len(blocks)
