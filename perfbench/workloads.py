"""The three workloads: how one operation runs and how its output is checked.

Each workload has a fixed warm-up input, a seeded request list, a
call (the only timed part), a record step that keeps what the checks
need, and a verify step that labels every request once the timed loop
is over.  A label other than "ok" or "unreferenced" is a failed
operation: a nonzero exit or an exception, or an output further than
matrix_tol from the reference, or a suite pass that is not all_passed.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

import inputs

WIDE_CUTOFF = 256
WIDE_GRID = 16384
REPORT_TOL = 1e-9  # Siegel diagnostics recomputed from the same Z
PASSING = ("ok", "unreferenced")

WARMUP_FLOW = {
    "type": "flow",
    "v": {"bandlimit": 1, "real": True, "coeffs": [{"n": -1, "re": 0.0, "im": 0.5}, {"n": 1, "re": 0.0, "im": -0.5}]},
    "eps": 0.1,
}


class Execution:
    """One run of one request: exit code (-1 if it raised) and output."""

    __slots__ = ("code", "stdout", "stderr", "value")

    def __init__(self, code, stdout="", stderr="", value=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.value = value

    def digest(self):
        if self.value is not None:
            z, report = self.value
            text = z.tobytes() + repr(report).encode()
        else:
            text = self.stdout.encode()
        return hashlib.sha256(str(self.code).encode() + b"\0" + text).hexdigest()


def _matrix(rows):
    return np.array([[complex(v["re"], v["im"]) for v in row] for row in rows], np.complex128)


def siegel_values(z):
    """symmetry defect, sigma_max, min eig(I - Z conj Z), as hhalf defines them."""
    defect = float(np.max(np.abs(z - z.T)))
    sigma = float(np.linalg.svd(z, compute_uv=False)[0])
    gram = np.eye(z.shape[0]) - z @ np.conj(z)
    gram = 0.5 * (gram + np.conj(gram.T))
    return defect, sigma, float(np.min(np.linalg.eigvalsh(gram)))


def _report_matches(report, z, tol):
    expected = siegel_values(z)
    got = (report["symmetry_defect"], report["sigma_max"], report["min_eig_I_minus_ZZbar"])
    return all(abs(a - b) <= tol * (1.0 + abs(b)) for a, b in zip(got, expected))


def _exit_label(parsed):
    """Label of an operation that exited nonzero or raised."""
    if parsed["code"] == 1:
        return "input_error"
    if parsed["code"] != 2:
        return "raised"
    if "cannot resolve" in parsed["stderr"]:
        return "refused_aliasing"
    if "numerically singular" in parsed["stderr"]:
        return "refused_condition"
    return "refused_other"


def _z_label(z, ref, tol):
    """Label a returned Z against its reference; returns (label, error)."""
    if not ref["converged"]:
        return "unreferenced", None
    err = float(np.max(np.abs(z - ref["Z"])))
    return ("ok" if err <= tol else "wrong_z"), err


class Workload:
    """Shared loop bookkeeping: first output per request, repeat digests.

    The request list is the seeded timed list, or `requests` when given
    (the accuracy pass).  Tolerance, cutoff and grid of the CLI default
    come from hhalf's own RunConfig.
    """

    cli = True

    def __init__(self, hh, seed=None, requests=None):
        self.hh = hh
        config = hh.RunConfig()
        self.matrix_tol = config.matrix_tol
        self.cutoff, self.grid_size = config.cutoff, config.grid_size
        if requests is None:
            requests = [] if seed is None else self.make_requests(seed)
        self.requests = requests
        self.first = {}  # request index -> parsed output of its first run
        self.digests = {}
        self.nondeterministic = 0

    def keep_artifact(self, index, execution):
        """Keep an output that a later request reads."""

    def record(self, index, prepared, execution):
        """Keep what verify needs; returns the output digest."""
        self.keep_artifact(index, execution)
        digest = execution.digest()
        if index in self.digests:
            self.nondeterministic += digest != self.digests[index]
        else:
            self.digests[index] = digest
            self.first[index] = self.parse(index, prepared, execution)
        return digest

    def call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.hh.cli.run_command(argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            return Execution(-1, out.getvalue(), "%s: %s" % (type(exc).__name__, exc))
        return Execution(code, out.getvalue(), err.getvalue())

    def families(self):
        return inputs.family_shares(self.requests)


class CliWorkload(Workload):
    """cli-n32: in-process hhalf.cli.run_command at the default config."""

    name = "cli-n32"
    warmup = ["period", "--map", json.dumps(WARMUP_FLOW)]

    def __init__(self, hh, seed=None, requests=None):
        super().__init__(hh, seed, requests)
        self.artifacts = {}
        self.sources = {r["source"] for r in self.requests if r["op"] == "siegel-check"}

    make_requests = staticmethod(inputs.cli_requests)

    def keep_artifact(self, index, execution):
        if index in self.sources and execution.code == 0:
            self.artifacts[index] = execution.stdout

    def prepare(self, index):
        request = self.requests[index]
        if request["op"] != "siegel-check":
            return request["argv"]
        source = request["source"]
        if source in self.artifacts:
            return ["siegel-check", "--matrix", self.artifacts[source]]
        return ["siegel-check"] + self.requests[source]["argv"][1:]

    def call(self, argv):
        return self.call_cli(argv)

    def parse(self, index, argv, execution):
        op = argv[0]
        parsed = {"op": op, "code": execution.code, "stderr": execution.stderr}
        if execution.code != 0:
            return parsed
        report = json.loads(execution.stdout)
        if op == "period":
            parsed["Z"] = _matrix(report["Z"])
        elif op == "pullback-matrix":
            parsed["A"], parsed["B"] = _matrix(report["A"]), _matrix(report["B"])
        elif op == "equivariance":
            parsed["report"] = report
        else:
            parsed["report"] = report
            if argv[1] == "--matrix":
                parsed["Z"] = _matrix(json.loads(argv[2])["Z"])
            else:
                parsed["map"] = json.loads(argv[2])
        return parsed

    def references(self):
        """(kind, descriptor, N, M) of every reference verify will read."""
        wanted = []
        for index, parsed in self.first.items():
            if parsed["code"] != 0:
                continue
            if parsed["op"] in ("period", "pullback-matrix"):
                kind = "period" if parsed["op"] == "period" else "blocks"
                wanted.append((kind, json.loads(self.requests[index]["argv"][2]), self.cutoff, self.grid_size))
            elif "map" in parsed:
                wanted.append(("period", parsed["map"], self.cutoff, self.grid_size))
        return wanted

    def verify(self, store):
        """Label per request index: {index: (label, z error or None)}."""
        labels = {}
        cutoff, grid = self.cutoff, self.grid_size
        for index, parsed in self.first.items():
            if parsed["code"] != 0:
                labels[index] = (_exit_label(parsed), None)
                continue
            op = parsed["op"]
            argv = self.requests[index].get("argv")
            if op == "period":
                ref = store.period(json.loads(argv[2]), cutoff, grid)
                labels[index] = _z_label(parsed["Z"], ref, self.matrix_tol)
            elif op == "pullback-matrix":
                ref = store.blocks(json.loads(argv[2]), cutoff, grid)
                err = max(float(np.max(np.abs(parsed[k] - ref[k]))) for k in ("A", "B"))
                labels[index] = ("ok" if err <= self.matrix_tol else "wrong_blocks", None)
            elif op == "equivariance":
                report = parsed["report"]
                consistent = report["within_tol"] == (report["defect"] <= report["tol"])
                good = consistent and report["defect"] <= self.matrix_tol
                labels[index] = ("ok" if good else "wrong_equivariance", None)
            else:
                labels[index] = self._siegel_label(parsed, store)
        return labels

    def _siegel_label(self, parsed, store):
        report = parsed["report"]
        values = report["report"]
        consistent = report["member"] == (
            values["sigma_max"] < 1.0 and values["min_eig_I_minus_ZZbar"] > 0.0
        ) and report["passed"] == (report["member"] and report["symmetric"])
        if "Z" in parsed:
            good = _report_matches(values, parsed["Z"], REPORT_TOL)
        else:
            ref = store.period(parsed["map"], self.cutoff, self.grid_size)
            if not ref["converged"]:
                return "unreferenced", None
            good = _report_matches(values, ref["Z"], self.matrix_tol)
        return ("ok" if good and consistent else "wrong_report"), None


class WideWorkload(Workload):
    """wide-256: make_map -> period_matrix(N = 256, M = 16384) -> siegel_membership."""

    name = "wide-256"
    cli = False
    warmup = WARMUP_FLOW

    make_requests = staticmethod(inputs.wide_requests)

    def __init__(self, hh, seed=None, requests=None):
        super().__init__(hh, seed, requests)
        self.cutoff, self.grid_size = WIDE_CUTOFF, WIDE_GRID
        self.grid = hh.SampleGrid(WIDE_GRID)
        self.descriptors = {}

    def prepare(self, index):
        if index not in self.descriptors:
            self.descriptors[index] = self.hh.descriptor_from_json(self.requests[index]["map"])
        return self.descriptors[index]

    def call(self, descriptor):
        hh = self.hh
        if isinstance(descriptor, dict):
            descriptor = hh.descriptor_from_json(descriptor)
        try:
            m = hh.make_map(descriptor, self.grid)
            p = hh.period_matrix(m, self.cutoff, self.grid)
            report = hh.siegel_membership(p)
        except hh.ValidationError as exc:
            return Execution(1, stderr=str(exc))
        except hh.NumericalError as exc:
            return Execution(2, stderr=str(exc))
        except Exception as exc:  # a crash is a failed operation, not a harness error
            return Execution(-1, stderr="%s: %s" % (type(exc).__name__, exc))
        return Execution(0, value=(p.Z, report))

    def parse(self, index, descriptor, execution):
        parsed = {"code": execution.code, "stderr": execution.stderr}
        if execution.code == 0:
            parsed["Z"], parsed["report"] = execution.value
        return parsed

    def references(self):
        return [
            ("period", self.requests[index]["map"], self.cutoff, self.grid_size)
            for index, parsed in self.first.items()
            if parsed["code"] == 0
        ]

    def verify(self, store):
        labels = {}
        for index, parsed in self.first.items():
            if parsed["code"] != 0:
                labels[index] = (_exit_label(parsed), None)
                continue
            if not _report_matches(vars(parsed["report"]), parsed["Z"], REPORT_TOL):
                labels[index] = ("wrong_report", None)
                continue
            ref = store.period(self.requests[index]["map"], self.cutoff, self.grid_size)
            labels[index] = _z_label(parsed["Z"], ref, self.matrix_tol)
        return labels


class SuiteWorkload(Workload):
    """suite: repeated invariance-suite passes through run_command."""

    name = "suite"
    warmup = ["invariance-suite", "--seed", "0"]

    make_requests = staticmethod(inputs.suite_requests)

    def prepare(self, index):
        return self.requests[index]["argv"]

    def call(self, argv):
        return self.call_cli(argv)

    def parse(self, index, argv, execution):
        parsed = {"code": execution.code, "stderr": execution.stderr}
        if execution.stdout:
            parsed["report"] = json.loads(execution.stdout)
        return parsed

    def references(self):
        return []

    def verify(self, store):
        labels = {}
        for index, parsed in self.first.items():
            report = parsed.get("report") or {}
            seed = int(self.requests[index]["argv"][2])
            good = (
                parsed["code"] == 0
                and report.get("all_passed") is True
                and report.get("seed") == seed
                and len(report.get("criteria", [])) == 11
                and all(row["passed"] for row in report["criteria"])
            )
            labels[index] = ("ok" if good else "suite_failed", None)
        return labels


WORKLOADS = {w.name: w for w in (CliWorkload, WideWorkload, SuiteWorkload)}
