"""Spans around the public functions of each hhalf module.

The package is not edited: a Tracer replaces each listed function
wherever a module of the package has bound it, and puts the originals
back on uninstall.  Spans are kept in memory as (name, start, end,
parent, op id) and written out only at the end.  Self time is a span's
duration minus the durations of its direct child spans.
"""

import json
import time

# Span name -> (module the function is defined in, function name).
SPANS = {
    "cli.run_command": ("hhalf.cli", "run_command"),
    "maps.make_map": ("hhalf.maps", "make_map"),
    "maps.lift_bandwidth": ("hhalf.maps", "lift_bandwidth"),
    "fourier.evaluate_at": ("hhalf.fourier", "evaluate_at"),
    "fourier.douglas_energy": ("hhalf.fourier", "douglas_energy"),
    "pullback.pullback_matrix": ("hhalf.pullback", "pullback_matrix"),
    "pullback.pullback_function": ("hhalf.pullback", "pullback_function"),
    "pullback.operator_norm_estimate": ("hhalf.pullback", "operator_norm_estimate"),
    "period.period_matrix": ("hhalf.period", "period_matrix"),
    "period.siegel_membership": ("hhalf.period", "siegel_membership"),
    "period.equivariance_defect": ("hhalf.period", "equivariance_defect"),
    "period.integrability_residual": ("hhalf.period", "integrability_residual"),
    "symplectic.symplectic_form": ("hhalf.symplectic", "symplectic_form"),
    "quantum.kernel_eval": ("hhalf.quantum", "kernel_eval"),
    "quantum.kernel_eval_line": ("hhalf.quantum", "kernel_eval_line"),
    "quantum.diagonal_limit": ("hhalf.quantum", "diagonal_limit"),
    "quantum.diagonal_limit_line": ("hhalf.quantum", "diagonal_limit_line"),
    "quantum.diagonal_report": ("hhalf.quantum", "diagonal_report"),
    "quantum.quantum_derivative_matrix": ("hhalf.quantum", "quantum_derivative_matrix"),
    "quantum.hs_norm": ("hhalf.quantum", "hs_norm"),
    "quantum.hs_bracket_check": ("hhalf.quantum", "hs_bracket_check"),
    "suite.c01": ("hhalf.suite", "check_hilbert_transform"),
    "suite.c02": ("hhalf.suite", "check_douglas_energy"),
    "suite.c03": ("hhalf.suite", "check_symplectic_invariance"),
    "suite.c04": ("hhalf.suite", "check_moebius_basepoint"),
    "suite.c05": ("hhalf.suite", "check_siegel_catalog"),
    "suite.c06": ("hhalf.suite", "check_rauch_derivative"),
    "suite.c07": ("hhalf.suite", "check_norm_bound"),
    "suite.c08": ("hhalf.suite", "check_quantum_hs"),
    "suite.c09": ("hhalf.suite", "check_kernel_limits"),
    "suite.c10": ("hhalf.suite", "check_integrability"),
    "suite.c11": ("hhalf.suite", "check_equivariance"),
}

# Functions that are counted but get no span: each evaluates a lift.
COUNTERS = {
    "maps.compose": ("hhalf.maps", "compose"),
    "maps.evaluate_lift": ("hhalf.maps", "evaluate_lift"),
}

# Spans whose arguments or results feed a per-layer metric.
CAPTURE = {"pullback.pullback_matrix", "fourier.douglas_energy"}


class Tracer:
    """Installs span wrappers into a loaded hhalf package."""

    def __init__(self, modules):
        self.modules = modules  # name -> module, every hhalf module loaded
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, extra]
        self.counts = {name: 0 for name in COUNTERS}
        self.stack = []
        self.op = None
        self.blocks = {}  # (descriptor JSON, cutoff, grid size) -> (A, B)
        self.patches = []  # (module, attribute, original, wrapper)
        for name, (home, attr) in list(SPANS.items()) + list(COUNTERS.items()):
            original = getattr(modules[home], attr)
            if name in SPANS:
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        self.patches.append((module, key, original, wrapper))

    def install(self):
        for module, key, _, wrapper in self.patches:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self.patches:
            setattr(module, key, original)

    def _count_wrapper(self, name, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _span_wrapper(self, name, original):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        capture = name in CAPTURE

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[5] = {"raised": type(exc).__name__}
                raise
            span[2] = clock()
            stack.pop()
            if capture:
                span[5] = {"args": args, "result": result}
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def release(self, first_span):
        """Reduce captured arguments and results of spans from first_span on.

        Pullback blocks are kept once per (descriptor, cutoff, grid) for
        the block accuracy check; everything else keeps only a size.
        """
        to_json = self.modules["hhalf.maps"].descriptor_to_json
        for span in self.spans[first_span:]:
            extra = span[5]
            if not extra or "args" not in extra:
                continue
            args = extra["args"]
            if span[0] == "pullback.pullback_matrix":
                m, cutoff, grid = args[:3]
                span[5] = {"points": 2 * cutoff * grid.size}
                key = (json.dumps(to_json(m.descriptor), sort_keys=True), cutoff, grid.size)
                if key not in self.blocks:
                    self.blocks[key] = (extra["result"].A, extra["result"].B)
            else:
                span[5] = {"pairs": args[1].size ** 2}

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as handle:
            for name, start, end, parent, op, extra in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if extra and "raised" in extra:
                    row["raised"] = extra["raised"]
                handle.write(json.dumps(row) + "\n")


def self_times(spans):
    """Self time of each span in ns: duration minus direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
