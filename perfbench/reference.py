"""Reference period matrices and pullback blocks, computed apart from the
code under test.

The only thing taken from hhalf is the lift, through the public
evaluate_lift, on a grid of at least 2**15 points.  Blocks are
assembled here by FFT, one transform per column: c_p(w^-q) is the
conjugate of c_-p(w^q), so each transform gives an A and a B column.

The reference Z uses the symplectic block identity A A* - B B* = I
(Nag-Sullivan), so Z = conj(B) A^-1 = conj(B) A* (I + B B*)^-1, where
the matrix inverted is Hermitian with eigenvalues >= 1.  It is the
N x N corner of that product for W x W blocks, with W doubled from 4N
until the corner stops moving.  The first-N-rows variant (N x W
blocks) converges to a matrix that is not symmetric, so it is not
used.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REF_GRID = 2**15
MAX_WIDTH = 2048
# Rotations and Moebius maps get the closed form Z = 0; validate() checks
# that the general construction agrees on members of both families.
ZERO_Z_TYPES = ("rotation", "moebius")
DRIFT_SHARE = 1e-2  # converged: corner drift below this share of matrix_tol
COLUMN_ELEMENTS = 2**21  # complex samples transformed at once


def _grid_for(width, slope):
    """Grid size that resolves every power w^q with q <= width.

    The spectrum of w^q sits below q times the largest lift slope, so
    coefficients up to width stay clear of aliases with room to spare.
    """
    size = REF_GRID
    while size < 2 * width * (1.0 + slope):
        size *= 2
    return size


class ReferenceStore:
    """Reference Z and blocks, cached in memory by descriptor JSON, N and M.

    hhalf is passed in so the store evaluates lifts of the code being
    measured.  The grid size M of the program run is part of the key
    only; the reference itself is always computed on its own fine grid.
    """

    def __init__(self, hhalf, matrix_tol):
        self.hhalf = hhalf
        self.matrix_tol = matrix_tol
        self.memory = {}

    def _get(self, key):
        if key not in self.memory:
            kind, descriptor, cutoff, _ = key
            descriptor = json.loads(descriptor)
            if kind == "blocks":
                a, b = self._assemble(descriptor, cutoff, REF_GRID)
                self.memory[key] = {"A": a, "B": b}
            elif kind == "period" and descriptor["type"] in ZERO_Z_TYPES:
                self.memory[key] = _zero_period(cutoff)
            else:
                self.memory[key] = self._corner_period(descriptor, cutoff)
        return self.memory[key]

    def blocks(self, descriptor, cutoff, grid_size):
        """Reference A and B (N x N) for a program run at cutoff N on M points."""
        return self._get(("blocks", json.dumps(descriptor, sort_keys=True), cutoff, grid_size))

    def period(self, descriptor, cutoff, grid_size):
        """Reference Z with its width W, grid, drift and symmetry defect.

        'converged' is False when the drift at MAX_WIDTH is still not
        far below matrix_tol; such maps are reported as unreferenced.
        """
        return self._get(("period", json.dumps(descriptor, sort_keys=True), cutoff, grid_size))

    def general_period(self, descriptor, cutoff):
        """Reference Z by the W x W construction even where a closed form exists."""
        return self._get(("general", json.dumps(descriptor, sort_keys=True), cutoff, 0))

    def prefetch(self, wanted, workers=2):
        """Compute (kind, descriptor, N, M) references on worker threads.

        numpy's FFTs and BLAS calls release the interpreter lock, so
        the threads overlap; this only ever runs after the timed loop.
        """
        keys = {(kind, json.dumps(d, sort_keys=True), n, m) for kind, d, n, m in wanted}
        with ThreadPoolExecutor(workers) as pool:
            for key, value in zip(keys, pool.map(self._get, keys)):
                self.memory[key] = value

    def summary(self):
        """One line on the period references this run needed."""
        refs = [v for k, v in self.memory.items() if k[0] == "period" and v["width"]]
        if not refs:
            return "0 period references"
        return "%d period references, %d unconverged; widths %s; max drift %.1e; max symmetry defect %.1e" % (
            len(refs),
            sum(not r["converged"] for r in refs),
            sorted({r["width"] for r in refs}),
            max(r["drift"] for r in refs),
            max(r["symmetry"] for r in refs),
        )

    def _lift(self, descriptor, size):
        hh = self.hhalf
        m = hh.make_map(hh.descriptor_from_json(descriptor), hh.SampleGrid(64))
        return hh.evaluate_lift(m, 2.0 * np.pi * np.arange(size) / size)

    def _assemble(self, descriptor, width, size, lift=None):
        """W x W blocks.  An inverse map takes the symplectic inverse
        [[A*, -B^T], [-B*, A^T]] of its forward blocks, which needs no
        lift bisection and shares no code with the program's inverse."""
        inverted = descriptor["type"] == "inverse"
        forward = descriptor["of"] if inverted else descriptor
        a, b = assemble(self._lift(forward, size) if lift is None else lift, width)
        if inverted:
            return np.conj(a.T), -b.T
        return a, b

    def _corner_period(self, descriptor, cutoff):
        drift_limit = DRIFT_SHARE * self.matrix_tol
        forward = descriptor["of"] if descriptor["type"] == "inverse" else descriptor
        lift = self._lift(forward, REF_GRID)
        steps = np.diff(np.concatenate([lift, [lift[0] + 2.0 * np.pi]]))
        slope = float(np.max(steps)) * lift.size / (2.0 * np.pi)
        width = 8 * cutoff
        previous = None
        while True:
            size = _grid_for(width, slope)
            a, b = self._assemble(descriptor, width, size, lift if size == REF_GRID else None)
            if previous is None:
                half = width // 2
                previous = corner(a[:half, :half], b[:half, :half], cutoff)
            z = corner(a, b, cutoff)
            drift = float(np.max(np.abs(z - previous)))
            if drift <= drift_limit or 2 * width > MAX_WIDTH:
                break
            previous = z
            width *= 2
        return {
            "Z": z,
            "A": a[:cutoff, :cutoff],
            "B": b[:cutoff, :cutoff],
            "width": width,
            "grid": size,
            "drift": drift,
            "symmetry": float(np.max(np.abs(z - z.T))),
            "converged": drift <= drift_limit,
        }


def _zero_period(cutoff):
    """Closed form: rotations and Moebius maps fix the basepoint, Z = 0."""
    z = np.zeros((cutoff, cutoff), np.complex128)
    return {"Z": z, "width": 0, "grid": 0, "drift": 0.0, "symmetry": 0.0, "converged": True}


def assemble(lift, width):
    """W x W blocks A[p, q] = sqrt(p/q) c_p(w^q), B[p, q] = sqrt(p/q) c_p(w^-q)."""
    size = lift.size
    ps = np.arange(1, width + 1)
    roots = np.sqrt(ps.astype(float))
    a = np.empty((width, width), np.complex128)
    b = np.empty((width, width), np.complex128)
    w = np.exp(1j * lift)
    chunk = max(1, COLUMN_ELEMENTS // size)
    for start in range(0, width, chunk):
        qs = np.arange(start + 1, min(start + chunk, width) + 1)
        # Each chunk starts from an exact exponential and steps by w,
        # so rounding grows over at most one chunk of multiplications.
        powers = np.empty((qs.size, size), np.complex128)
        powers[0] = np.exp(1j * qs[0] * lift)
        for row in range(1, qs.size):
            np.multiply(powers[row - 1], w, out=powers[row])
        spectra = np.fft.fft(powers, axis=1)
        scale = roots[:, None] / (size * roots[qs - 1][None, :])
        a[:, qs - 1] = spectra[:, 1 : width + 1].T * scale
        b[:, qs - 1] = np.conj(spectra[:, size - width :][:, ::-1]).T * scale
    return a, b


def corner(a, b, cutoff):
    """N x N corner of conj(B) A* (I + B B*)^-1."""
    width = a.shape[0]
    gram = np.eye(width) + b @ np.conj(b.T)
    unit = np.zeros((width, cutoff), np.complex128)
    unit[:cutoff, :cutoff] = np.eye(cutoff)
    solved = np.linalg.solve(gram, unit)
    return np.conj(b[:cutoff, :]) @ (np.conj(a.T) @ solved)


ZERO_Z_MAPS = (
    {"type": "rotation", "alpha": 0.7},
    {"type": "moebius", "a": {"re": 0.3, "im": -0.2}, "beta": 1.0},
    {"type": "moebius", "a": {"re": 0.5, "im": 0.0}, "beta": 0.5},
)
RAUCH_STEPS = (1e-3, 5e-4)
VALIDATION_CUTOFF = 16


def validation_references():
    """The (kind, descriptor, N, M) references validate reads."""
    wanted = [("general", d, VALIDATION_CUTOFF, 0) for d in ZERO_Z_MAPS]
    for m in (0, 1, 2):
        for eps in RAUCH_STEPS:
            wanted.append(("period", {"type": "rauch_flow", "m": m, "eps": eps}, VALIDATION_CUTOFF, 4096))
    return wanted


def validate(store):
    """Closed-form checks of the reference: returns (ok, detail lines).

    Z vanishes for rotations and Moebius maps; Z(rauch_flow(m, eps))/eps
    matches rauch_derivative to first order in eps.
    """
    n = VALIDATION_CUTOFF
    lines = []
    ok = True
    for descriptor in ZERO_Z_MAPS:
        ref = store.general_period(descriptor, n)
        size = float(np.max(np.abs(ref["Z"])))
        ok = ok and size <= 1e-14 and ref["converged"]
        lines.append("%s: max|Z_ref| %.1e (limit 1e-14)" % (descriptor["type"], size))
    indices = np.arange(1, n + 1)
    window = indices[:, None] + indices[None, :] <= 10
    for m in (0, 1, 2):
        derivative = store.hhalf.rauch_derivative(m, n)
        defects = []
        for eps in RAUCH_STEPS:
            z = store.period({"type": "rauch_flow", "m": m, "eps": eps}, n, 4096)["Z"]
            defects.append(float(np.max(np.abs(z / eps - derivative)[window])))
        bound = 0.05 * float(np.max(np.abs(derivative)))
        ratio = defects[1] / defects[0]
        ok = ok and defects[0] <= bound and 0.3 <= ratio <= 0.7
        lines.append(
            "rauch_flow m=%d: first-order defect %.2e (bound %.2e), halving ratio %.3f"
            % (m, defects[0], bound, ratio)
        )
    return ok, lines


def accel_checks(hh):
    """The compiled kernels agree with their numpy references to rounding."""
    accel = hh._accel
    rng = np.random.default_rng(0)
    n = 64
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    x = rng.uniform(0.0, 2.0 * np.pi, 20000)
    value = accel.synth_at(c, n, x)
    expected = accel.synth_at_reference(c, n, x)
    synth_err = float(np.max(np.abs(value - expected)) / np.max(np.abs(expected)))
    rng = np.random.default_rng(1)
    m = 2048
    fx = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    fy = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    tx = 2.0 * np.pi * np.arange(m) / m + 1e-3
    ty = tx + np.pi / m
    value = accel.douglas_pair_sum(fx, fy, tx, ty)
    expected = accel.douglas_pair_reference(fx, fy, tx, ty)
    pair_err = abs(value - expected) / abs(expected)
    ok = synth_err < 1e-12 and pair_err < 1e-12
    lines = [
        "synth_at vs synth_at_reference: relative disagreement %.2e (limit 1e-12)" % synth_err,
        "douglas_pair_sum vs douglas_pair_reference: relative disagreement %.2e (limit 1e-12)" % pair_err,
    ]
    return ok, lines
