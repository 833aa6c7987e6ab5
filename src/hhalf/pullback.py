"""Composition operators and their truncated block matrices.

The operator V_phi f = f o phi - mean acts on the real Hilbert space;
its complexification has the block form (w+, w-) -> (A w+ + B w-,
conj(B) w+ + conj(A) w-) in the normalized basis e^{ik theta}/sqrt(k),
k = 1..cutoff, and conjugates.  Matrix entries are Fourier integrals
of powers of w = e^{i lift}, evaluated by FFT of the map's own lift
samples; c_r(conj(w)^q) = conj(c_{-r}(w^q)) gives B from A's FFTs.
A result is refused as aliased when the highest mode its input
reaches before any spread (bandlimit x degree, or the cutoff for a
block matrix) is past Nyquist, or when the spectrum it was read from,
above that mode and within size/8 of Nyquist, has not decayed to
1e-12.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ValidationError
from .fourier import (
    CircleFunction,
    analyze,
    evaluate_at,
    json_integer,
    matrix_from_json,
)
from .symplectic import symplectic_form


def _own_lift(m, grid):
    if grid != m.grid:
        raise ValidationError("pullback needs the map's own sample grid")
    return m.lift_samples


def _refuse_past_nyquist(reach, bandlimit, grid):
    # reach is the highest mode of the result before any spread.  Past
    # Nyquist it folds onto low modes and leaves no tail to measure.
    if reach > (grid.size - 1) // 2:
        raise AliasingError(
            "grid size %d cannot resolve bandlimit %d under this map "
            "(mode %d is past Nyquist)" % (grid.size, bandlimit, reach)
        )


def _refuse_tail(magnitudes, modes, reach, bandlimit, grid):
    # magnitudes are relative to the result, at the given |modes|.
    # Spread above reach and within size/8 of Nyquist must have
    # decayed to 1e-12, or what lies past Nyquist folds back.
    band = modes >= max(3 * grid.size / 8, reach + 1)
    tail = np.max(magnitudes[band], initial=0.0)
    if tail > 1e-12:
        raise AliasingError(
            "grid size %d cannot resolve bandlimit %d under this map "
            "(spectral tail %.1e near Nyquist)" % (grid.size, bandlimit, tail)
        )


def pullback_function(m, f, grid):
    """V_phi f: compose with the map, drop the mean, reanalyze.

    The result carries every mode the grid resolves, so downstream
    identities see the full spread spectrum of the composition.
    """
    lift = _own_lift(m, grid)
    reach = f.bandlimit * m.degree
    _refuse_past_nyquist(reach, f.bandlimit, grid)
    vf = analyze(evaluate_at(f, lift), grid, (grid.size - 1) // 2)
    magnitudes = np.abs(vf.coeffs)
    magnitudes /= np.max(magnitudes) or 1.0
    modes = np.abs(np.arange(-vf.bandlimit, vf.bandlimit + 1))
    _refuse_tail(magnitudes, modes, reach, f.bandlimit, grid)
    return vf


@dataclass(frozen=True)
class BlockOperator:
    """Truncated pullback operator: A (W+ -> W+) and B (W- -> W+)."""

    cutoff: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        n = json_integer(self.cutoff, "cutoff")
        if n < 1:
            raise ValidationError("cutoff must be an integer >= 1")
        object.__setattr__(self, "cutoff", n)
        for name in ("A", "B"):
            block = np.array(getattr(self, name), dtype=np.complex128)
            if block.shape != (self.cutoff, self.cutoff):
                raise ValidationError("%s block must be %d x %d" % (name, n, n))
            if not np.all(np.isfinite(block)):
                raise ValidationError("%s block entries must be finite" % name)
            block.flags.writeable = False
            object.__setattr__(self, name, block)

    def full(self):
        """Dense 2N x 2N complexified matrix."""
        return np.block(
            [[self.A, self.B], [np.conj(self.B), np.conj(self.A)]]
        )

    def __matmul__(self, other):
        if self.cutoff != other.cutoff:
            raise ValidationError("cutoff mismatch in operator product")
        a = self.A @ other.A + self.B @ np.conj(other.B)
        b = self.A @ other.B + self.B @ np.conj(other.A)
        return BlockOperator(self.cutoff, a, b)


def sub_operator(t, cutoff):
    """Leading corner of a larger block operator."""
    if cutoff > t.cutoff:
        raise ValidationError("corner cutoff exceeds the operator cutoff")
    return BlockOperator(cutoff, t.A[:cutoff, :cutoff], t.B[:cutoff, :cutoff])


def pullback_matrix(m, cutoff, grid):
    """Assemble the truncated block matrix of V_phi.

    A[p-1, q-1] = sqrt(p/q) c_p(w^q) and B[r-1, s-1] = sqrt(r/s)
    c_r(w^{-s}), with w = e^{i lift} on the map's grid.  Column q of
    both blocks comes from one FFT of w^q: c_p(w^q) is read at bin p
    and c_r(w^{-q}) = conj(c_{-r}(w^q)) at bin size - r.
    """
    if m.degree != 1:
        raise ValidationError("block matrices are defined for degree-1 maps")
    size = grid.size
    w = np.exp(1j * _own_lift(m, grid))
    _refuse_past_nyquist(cutoff, cutoff, grid)
    ps = np.arange(1, cutoff + 1)
    phases = np.exp(-1j * ps * grid.offset)
    roots = np.sqrt(ps.astype(float))
    a = np.empty((cutoff, cutoff), np.complex128)
    b = np.empty((cutoff, cutoff), np.complex128)
    wq = w.copy()
    for q in range(1, cutoff + 1):
        spectrum = np.fft.fft(wq)
        coeffs = spectrum[1 : cutoff + 1] / size * phases
        a[:, q - 1] = (roots / roots[q - 1]) * coeffs
        coeffs = np.conj(spectrum[size - ps]) / size * phases
        b[:, q - 1] = (roots / roots[q - 1]) * coeffs
        if q < cutoff:
            wq *= w
    # spectrum is now that of w^cutoff, the widest power read.
    modes = np.abs(np.fft.fftfreq(size, 1.0 / size))
    _refuse_tail(np.abs(spectrum) / size, modes, cutoff, cutoff, grid)
    return BlockOperator(cutoff, a, b)


def apply_operator(t, f):
    """Apply the block matrix to a function in normalized coordinates.

    Coordinates are x+[q] = c_q sqrt(q) and x-[q] = c_{-q} sqrt(q) for
    q = 1..cutoff.  The block-conjugate structure sends real functions
    to real functions, and the real branch enforces that exactly.
    """
    n = t.cutoff
    if f.bandlimit > n:
        raise ValidationError("function bandlimit exceeds the operator cutoff")
    k = f.bandlimit
    roots = np.sqrt(np.arange(1.0, n + 1.0))
    plus = np.zeros(n, np.complex128)
    minus = np.zeros(n, np.complex128)
    plus[:k] = f.coeffs[k + 1 :] * roots[:k]
    minus[:k] = f.coeffs[k - 1 :: -1] * roots[:k]
    out_plus = t.A @ plus + t.B @ minus
    if f.real:
        out_minus = np.conj(out_plus)
    else:
        out_minus = np.conj(t.B) @ plus + np.conj(t.A) @ minus
    coeffs = np.zeros(2 * n + 1, np.complex128)
    coeffs[n + 1 :] = out_plus / roots
    coeffs[:n] = (out_minus / roots)[::-1]
    return CircleFunction(n, coeffs, real=True if f.real else None)


def operator_norm_estimate(t):
    """Largest singular value of the full 2N x 2N matrix."""
    return float(np.linalg.norm(t.full(), 2))


def invariance_defect(m, f, g, grid):
    """|S(V f, V g) - degree * S(f, g)| for real f and g."""
    if not (f.real and g.real):
        raise ValidationError("invariance defect is stated for real functions")
    vf = pullback_function(m, f, grid)
    vg = pullback_function(m, g, grid)
    return abs(
        symplectic_form(vf, vg) - float(m.degree) * symplectic_form(f, g)
    )


def operator_to_json(t):
    """Record of a block operator; A and B stay complex arrays."""
    return {"cutoff": t.cutoff, "A": t.A, "B": t.B}


def operator_from_json(obj):
    try:
        a, b = matrix_from_json(obj["A"], "A"), matrix_from_json(obj["B"], "B")
        return BlockOperator(obj["cutoff"], a, b)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed BlockOperator object: %s" % exc)
