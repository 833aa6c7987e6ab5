"""Batch front end: JSON descriptors in, JSON and CSV reports out.

Every subcommand reads its inputs (inline JSON or file paths), runs
one library operation, prints a JSON report to stdout, and optionally
writes it to a file; rauch-check, kernel, and energy also emit a CSV
convergence table next to the report.  Reports are byte identical for
identical config and seed.  Exit codes: 0 success, 1 input validation
failure, 2 numerical failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import re
import sys

from dataclasses import replace

import numpy as np

from .catalog import trial_functions
from .config import config_from_env, json_argument as _json_argument
from .errors import NumericalError, ValidationError
from .fourier import (
    SampleGrid,
    douglas_energy,
    from_modes,
    function_from_json,
    function_to_json,
    h_half_norm,
    hilbert_transform,
    json_real,
    max_bandlimit,
    norm_squared,
)
from .maps import descriptor_from_json, descriptor_to_json, make_map
from .period import (
    equivariance_defect,
    integrability_residual,
    period_from_blocks,
    period_from_json,
    period_matrix,
    period_to_json,
    rauch_derivative,
    rauch_fd_defect,
    siegel_membership,
    siegel_report_to_json,
)
from .pullback import (
    operator_from_json,
    operator_to_json,
    pullback_matrix,
)
from .quantum import (
    default_deltas,
    diagonal_report,
    hs_bracket_check,
    hs_norm,
    kernel_base_points,
)
from .suite import run_all


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything
    # through the validation channel so bad input is always exit 1.
    def error(self, message):
        raise ValidationError(message)


def _function_from_modes(obj):
    if not isinstance(obj, dict) or not obj:
        raise ValidationError(
            '--modes wants a nonempty object like {"1": [0.5, 0.0]}'
        )
    modes = {}
    for key, value in obj.items():
        shown = key if len(key) <= 12 else key[:12] + "…"
        # Only the text JSON writes for an integer: int() alone also
        # takes "1_0", " 2 ", "+2", "01" and non-ASCII digits.
        if not re.fullmatch("-?(0|[1-9][0-9]*)", key):
            raise ValidationError("mode index %r is not an integer" % (shown,))
        if len(key.lstrip("-")) > len(str(max_bandlimit)):
            raise ValidationError(
                "mode index %s exceeds the largest bandlimit %d"
                % (shown, max_bandlimit)
            )
        n = int(key)
        if n in modes:
            raise ValidationError("duplicate mode index %d" % n)
        parts = value if isinstance(value, list) and len(value) == 2 else [value]
        modes[n] = complex(*(json_real(part, "mode %s" % key) for part in parts))
    bandlimit = max(abs(n) for n in modes)
    if bandlimit == 0:
        raise ValidationError("--modes needs at least one nonzero index")
    return from_modes(bandlimit, modes)


def _function_argument(args):
    given_input = getattr(args, "input", None) is not None
    given_modes = getattr(args, "modes", None) is not None
    if given_input == given_modes:
        raise ValidationError("give exactly one of --input or --modes")
    if given_input:
        return function_from_json(_json_argument(args.input, "--input"))
    return _function_from_modes(_json_argument(args.modes, "--modes"))


def _descriptor_argument(value):
    return descriptor_from_json(_json_argument(value, "--map"))


def _map_argument(args, cfg):
    maps = getattr(args, "map", None) or []
    if len(maps) != 1:
        raise ValidationError("this subcommand wants --map exactly once")
    return make_map(_descriptor_argument(maps[0]), _grid(cfg))


def _tolerance(args, default):
    value = getattr(args, "tol", None)
    if value is None:
        return default
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError("--tol must be a positive finite number")
    return float(value)


def _window_argument(args):
    value = getattr(args, "window", None)
    if value is None:
        return default_deltas
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise ValidationError(
            "--window wants comma separated deltas, largest first"
        )


def _resolve_config(args):
    cfg = config_from_env()
    updates = {}
    if getattr(args, "grid", None) is not None:
        updates["grid_size"] = args.grid
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(cfg, **updates) if updates else cfg


def _grid(cfg):
    return SampleGrid(cfg.grid_size)


def _cmd_norm(args, cfg):
    """H^{1/2} norm of a circle function"""
    f = _function_argument(args)
    report = {
        "command": "norm",
        "bandlimit": f.bandlimit,
        "h_half_norm": h_half_norm(f),
        "norm_squared": norm_squared(f),
    }
    return report, None, 0


def _cmd_hilbert(args, cfg):
    """apply the Hilbert transform; emits a function object"""
    f = _function_argument(args)
    return function_to_json(hilbert_transform(f)), None, 0


def _cmd_energy(args, cfg):
    """douglas energy with a grid convergence table"""
    f = _function_argument(args)
    tol = _tolerance(args, cfg.spectral_tol)
    target = norm_squared(f)
    sizes, m = [], 8
    while m < cfg.grid_size:
        sizes.append(m)
        m *= 2
    sizes.append(cfg.grid_size)
    curve = []
    for m in sizes:
        value = douglas_energy(f, SampleGrid(m))
        defect = abs(value - target) / target if target else abs(value)
        curve.append(
            {"grid_size": m, "douglas_energy": value, "relative_defect": defect}
        )
    final = curve[-1]
    report = {
        "command": "energy",
        "bandlimit": f.bandlimit,
        "grid_size": cfg.grid_size,
        "douglas_energy": final["douglas_energy"],
        "h_half_norm_squared": target,
        "relative_defect": final["relative_defect"],
        "tol": tol,
        "within_tol": bool(final["relative_defect"] <= tol),
        "curve": curve,
    }
    rows = [
        (row["grid_size"], row["douglas_energy"], row["relative_defect"])
        for row in curve
    ]
    return report, (("grid_size", "douglas_energy", "relative_defect"), rows), 0


def _cmd_pullback_matrix(args, cfg):
    """block operator of a circle map; emits an operator"""
    m = _map_argument(args, cfg)
    return operator_to_json(pullback_matrix(m, cfg.cutoff, m.grid)), None, 0


def _cmd_period(args, cfg):
    """period matrix of a circle map; emits a period object"""
    m = _map_argument(args, cfg)
    return period_to_json(period_matrix(m, cfg.cutoff, m.grid)), None, 0


def _period_argument(args, cfg):
    given_map = bool(getattr(args, "map", None))
    if given_map == (getattr(args, "matrix", None) is not None):
        raise ValidationError("give exactly one of --map or --matrix")
    if given_map:
        m = _map_argument(args, cfg)
        return period_matrix(m, cfg.cutoff, m.grid)
    obj = _json_argument(args.matrix, "--matrix")
    if isinstance(obj, dict) and "Z" in obj:
        return period_from_json(obj)
    if isinstance(obj, dict) and "A" in obj and "B" in obj:
        return period_from_blocks(operator_from_json(obj))
    raise ValidationError(
        "--matrix wants a period matrix or a block operator object"
    )


def _cmd_siegel_check(args, cfg):
    """siegel disc membership of a period matrix"""
    tol = _tolerance(args, cfg.matrix_tol)
    p = _period_argument(args, cfg)
    report = siegel_membership(p)
    # An emitted Z is exactly symmetric; its truncation shows in the
    # estimate it carries.
    defect = max(report.symmetry_defect, p.truncation_estimate)
    symmetric = defect <= tol * (1.0 + report.sigma_max)
    out = {
        "command": "siegel-check",
        "cutoff": p.cutoff,
        "inner_width": p.inner_width,
        "truncation_estimate": p.truncation_estimate,
        "tol": tol,
        "member": bool(report.member),
        "symmetric": bool(symmetric),
        "passed": bool(report.member and symmetric),
        "report": siegel_report_to_json(report),
    }
    return out, None, 0


def _cmd_rauch_check(args, cfg):
    """finite-difference check of the derivative formula"""
    if args.m is None:
        raise ValidationError("rauch-check needs --m")
    eps = 1e-3 if args.eps is None else args.eps
    if not eps > 0.0:
        raise ValidationError("--eps must be positive")
    grid = _grid(cfg)
    # The defect comes first: it refuses an index outside its window.
    steps = [eps / 2.0**k for k in range(3)]
    defects = [rauch_fd_defect(args.m, step, cfg.cutoff, grid) for step in steps]
    ratios = [None] + [b / a for a, b in zip(defects, defects[1:])]
    curve = [
        {"eps": step, "defect": defect, "ratio": ratio}
        for step, defect, ratio in zip(steps, defects, ratios)
    ]
    derivative = rauch_derivative(args.m, cfg.cutoff)
    entries = [
        [int(r) + 1, int(s) + 1, float(derivative[r, s].real)]
        for r, s in zip(*np.nonzero(derivative))
    ]
    bound = 0.05 * float(np.max(np.abs(derivative)))
    report = {
        "command": "rauch-check",
        "m": args.m,
        "eps": eps,
        "cutoff": cfg.cutoff,
        "grid_size": cfg.grid_size,
        "defect": defects[0],
        "bound": bound,
        "within_bound": bool(defects[0] <= bound),
        "derivative_entries": entries,
        "curve": curve,
    }
    rows = list(zip(steps, defects, [""] + ratios[1:]))
    return report, (("eps", "defect", "ratio"), rows), 0


def _cmd_equivariance(args, cfg):
    """composition equivariance of the period map"""
    maps = getattr(args, "map", None) or []
    if len(maps) != 2:
        raise ValidationError("equivariance wants --map twice: outer, inner")
    outer_d = _descriptor_argument(maps[0])
    inner_d = _descriptor_argument(maps[1])
    grid = _grid(cfg)
    defect = equivariance_defect(
        make_map(outer_d, grid), make_map(inner_d, grid), cfg.cutoff
    )
    tol = _tolerance(args, cfg.matrix_tol)
    report = {
        "command": "equivariance",
        "cutoff": cfg.cutoff,
        "grid_size": cfg.grid_size,
        "outer": descriptor_to_json(outer_d),
        "inner": descriptor_to_json(inner_d),
        "defect": defect,
        "tol": tol,
        "within_tol": bool(defect <= tol),
    }
    return report, None, 0


def _cmd_integrability(args, cfg):
    """multiplication-closure residual of a structure"""
    tol = _tolerance(args, cfg.matrix_tol)
    p = _period_argument(args, cfg)
    # Products of trials of bandlimit K reach 2K, which must fit the
    # cutoff; at cutoff 1 none fits, and integrability_residual says so.
    bandlimit = max(1, min(8, p.cutoff // 2))
    trials = trial_functions(4, bandlimit, cfg.seed)
    residual = integrability_residual(p, trials)
    report = {
        "command": "integrability",
        "cutoff": p.cutoff,
        "grid_size": cfg.grid_size,
        "seed": cfg.seed,
        "trial_count": len(trials),
        "trial_bandlimit": bandlimit,
        "residual": residual,
        "tol": tol,
        "within_tol": bool(residual <= tol),
    }
    return report, None, 0


def _cmd_quantum_hs(args, cfg):
    """hilbert-schmidt norm of the quantum derivative"""
    f = _function_argument(args)
    value = hs_norm(f)
    squared_norm = norm_squared(f)
    report = {
        "command": "quantum-hs",
        "bandlimit": f.bandlimit,
        "cutoff": f.bandlimit,
        "hs_norm": value,
        "hs_norm_squared": value * value,
        "h_half_norm_squared": squared_norm,
        "lower_bound": 2.0 * squared_norm,
        "upper_bound": 4.0 * squared_norm,
    }
    if f.real:
        low, high = hs_bracket_check(f)
        report["bracket_holds"] = [bool(low), bool(high)]
    else:
        report["bracket_holds"] = None
    return report, None, 0


def _cmd_kernel(args, cfg):
    """welding kernel diagonal limits with a value table"""
    if args.order is None:
        raise ValidationError("kernel needs --order 0, 1, or 2")
    h = _map_argument(args, cfg)
    deltas = _window_argument(args)
    tol = _tolerance(args, cfg.spectral_tol)
    points = [
        diagonal_report(h, args.order, x, deltas) for x in kernel_base_points
    ]
    worst = max(point["defect"] for point in points)
    rows = [
        (point["x"], delta, value)
        for point in points
        for delta, value in zip(point["deltas"], point["values"])
    ]
    report = {
        "command": "kernel",
        "order": args.order,
        "map": descriptor_to_json(h.descriptor),
        "deltas": [float(delta) for delta in deltas],
        "base_points": list(kernel_base_points),
        "points": points,
        "worst_defect": worst,
        "tol": tol,
        "within_tol": bool(worst <= tol),
    }
    return report, (("x", "delta", "kernel_value"), rows), 0


def _cmd_invariance_suite(args, cfg):
    """run the full property catalog"""
    results = run_all(cfg.seed)
    rows = [
        {
            "criterion": result.criterion,
            "name": result.name,
            "passed": result.passed,
            "detail": result.detail,
        }
        for result in results
    ]
    all_passed = all(result.passed for result in results)
    report = {
        "command": "invariance-suite",
        "seed": cfg.seed,
        "all_passed": bool(all_passed),
        "criteria": rows,
    }
    return report, None, 0 if all_passed else 2


_flags = {
    "--out": {"help": "report path; .csv selects the table"},
    "--grid": {"type": int, "help": "sample count M"},
    "--tol": {"type": float, "help": "pass tolerance"},
    "--seed": {"type": int, "help": "seed for randomized trials"},
    "--input": {"help": "circle function JSON"},
    "--modes": {"help": 'inline modes {"n": value}'},
    "--map": {
        "action": "append",
        "help": "map descriptor JSON (twice for equivariance: outer, inner)",
    },
    "--matrix": {"help": "period matrix or block operator JSON"},
    "--m": {"type": int, "help": "monomial direction degree"},
    "--eps": {"type": float, "help": "finite difference step (default 1e-3)"},
    "--order": {"type": int, "choices": (0, 1, 2), "help": "kernel order"},
    "--window": {"help": "comma separated deltas, largest first"},
}
_function = ("--input", "--modes")
# Each subcommand's handler (whose docstring is its help line) and the
# flags it reads besides --out, which every subcommand takes, in --help
# order.
_commands = {
    "norm": (_cmd_norm, _function),
    "hilbert": (_cmd_hilbert, _function),
    "energy": (_cmd_energy, ("--grid", "--tol") + _function),
    "pullback-matrix": (_cmd_pullback_matrix, ("--grid", "--map")),
    "period": (_cmd_period, ("--grid", "--map")),
    "siegel-check": (_cmd_siegel_check, ("--grid", "--tol", "--map", "--matrix")),
    "rauch-check": (_cmd_rauch_check, ("--grid", "--m", "--eps")),
    "equivariance": (_cmd_equivariance, ("--grid", "--tol", "--map")),
    "integrability": (
        _cmd_integrability,
        ("--grid", "--tol", "--seed", "--map", "--matrix"),
    ),
    "quantum-hs": (_cmd_quantum_hs, _function),
    "kernel": (_cmd_kernel, ("--grid", "--tol", "--map", "--order", "--window")),
    "invariance-suite": (_cmd_invariance_suite, ("--seed",)),
}


@functools.cache
def _build_parser():
    # Built on first use, then reused: parse_args leaves no state in it.
    parser = _Parser(
        prog="hhalf",
        description="Half-order circle calculus: norms, pullbacks, periods.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    for name, (handler, reads) in _commands.items():
        command = sub.add_parser(name, help=handler.__doc__)
        for flag in ("--out",) + reads:
            command.add_argument(flag, **_flags[flag])
    return parser


def _write_csv(path, header, rows):
    def cell(value):
        if isinstance(value, float):
            return repr(float(value))
        return value

    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([cell(value) for value in row])
    except OSError as exc:
        raise ValidationError("cannot write %s: %s" % (path, exc))


def _json_text(value, depth=0, name=""):
    """json.dumps(value, indent=2, sort_keys=True) at indent level `depth`.

    A 2-D complex ndarray is written as rows of {"im", "re"} objects, at
    one float repr per number.  A NaN or infinite float is a
    NumericalError naming its path in the report, `name`.
    """
    matrix = isinstance(value, np.ndarray)
    if (matrix or isinstance(value, float)) and not np.isfinite(value).all():
        raise NumericalError("report value %s is not finite" % name)
    if isinstance(value, float):
        return float.__repr__(value)
    if not (matrix or isinstance(value, (dict, list, tuple)) and value):
        return json.dumps(value)
    p0, p1, p2, p3 = ("\n" + "  " * (depth + k) for k in range(4))
    if matrix:
        # %r of a float is float.__repr__, the text json writes.
        entry = p2 + "{" + p3 + '"im": %r,' + p3 + '"re": %r' + p2 + "}"
        row = p1 + "[" + ",".join([entry] * value.shape[1]) + p1 + "]"
        numbers = np.stack([value.imag, value.real], -1).ravel().tolist()
        return ("[" + ",".join([row] * len(value)) + p0 + "]") % tuple(numbers)
    if isinstance(value, dict):
        items = (
            json.dumps(key) + ": "
            + _json_text(item, depth + 1, name + "." + key if name else key)
            for key, item in sorted(value.items())
        )
        return "{" + ",".join(p1 + item for item in items) + p0 + "}"
    items = (
        _json_text(item, depth + 1, "%s[%d]" % (name, i))
        for i, item in enumerate(value)
    )
    return "[" + ",".join(p1 + item for item in items) + p0 + "]"


def _emit(report, curve, out):
    """Print the report; write the --out file and CSV table if asked.

    The text is json.dumps(report, indent=2, sort_keys=True), with each
    complex array written as the rows of {"im", "re"} objects that
    fourier.matrix_from_json reads.  It is built before anything is
    written, so a non-finite value leaves no output, and files go
    before stdout so a closed pipe cannot lose them.
    """
    text = _json_text(report)
    if out is not None:
        if out.endswith(".csv"):
            if curve is None:
                raise ValidationError(
                    "this subcommand has no CSV table; use a .json output path"
                )
            _write_csv(out, *curve)
        else:
            try:
                with open(out, "w") as handle:
                    handle.write(text + "\n")
            except OSError as exc:
                raise ValidationError("cannot write %s: %s" % (out, exc))
            if curve is not None:
                _write_csv(os.path.splitext(out)[0] + ".csv", *curve)
    print(text)


def run_command(argv):
    """Parse argv, run one subcommand, emit reports; returns exit code."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        report, curve, code = _commands[args.command][0](args, cfg)
        _emit(report, curve, args.out)
        return code
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer closed stdout early (e.g. head); park stdout on
        # devnull so interpreter shutdown does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main(argv=None):
    return run_command(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
