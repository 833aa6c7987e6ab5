"""Composition operators and their truncated block matrices.

The operator V_phi f = f o phi - mean acts on the real Hilbert space;
its complexification has the block form (w+, w-) -> (A w+ + B w-,
conj(B) w+ + conj(A) w-) in the normalized basis e^{ik theta}/sqrt(k),
k = 1..cutoff, and conjugates.  Matrix entries are Fourier integrals
of powers of w = e^{i lift}, evaluated by FFT of the map's own lift
samples; c_r(conj(w)^q) = conj(c_{-r}(w^q)) gives B from A's FFTs.
Block matrices are assembled on the coarsest power-of-two sub-grid
of the map's grid, at least 4 x cutoff, whose tail band the spectrum
of w^cutoff leaves empty; the map's grid is the ceiling.  The powers
are transformed a chunk of rows at a time, in place, in one buffer
of 2**16 samples (1 MiB) or one row if that is larger, so the
working set does not grow with the cutoff.
A grid below 4 x the reach of a result, the highest mode its input
reaches before any spread (bandlimit x degree, or the cutoff for a
block matrix), is refused before any FFT.  On a grid that holds it,
a result is refused as aliased when the spectrum it is read from
(of w^cutoff on the map's grid, for a block matrix), above the reach
and within size/8 of Nyquist, has not decayed to 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, GridError, ValidationError
from .fourier import (
    CircleFunction,
    SampleGrid,
    analyze,
    evaluate_at,
    json_fields,
    json_integer,
    matrix_from_json,
)
from .symplectic import symplectic_form


def read_cutoff(value):
    """A truncation order: an integer >= 1, not a bool or fraction."""
    return json_integer(value, "cutoff", 1)


def _own_lift(m, grid):
    if grid != m.grid:
        raise ValidationError("pullback needs the map's own sample grid")
    return m.lift_samples


def _refuse_coarse_grid(reach, grid, name="cutoff"):
    # Below 2 x reach modes fold past Nyquist with no tail; just above
    # it the tail band that _refuse_tail reads is too narrow to show
    # spread, and moebius(0.3) at N = 32, M = 65 is off by 0.26.
    if grid.size < 4 * reach:
        raise GridError(
            "grid size %d is below 4 * %s = %d" % (grid.size, name, 4 * reach)
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
    _refuse_coarse_grid(reach, grid, "bandlimit x degree")
    vf = analyze(evaluate_at(f, lift), grid, (grid.size - 1) // 2)
    magnitudes = np.abs(vf.coeffs)
    magnitudes /= np.max(magnitudes) or 1.0
    modes = np.abs(np.arange(-vf.bandlimit, vf.bandlimit + 1))
    _refuse_tail(magnitudes, modes, reach, f.bandlimit, grid)
    return vf


@dataclass(frozen=True)
class BlockOperator:
    """Truncated pullback operator: A (W+ -> W+) and B (W- -> W+).

    A complex128 array given for a block is kept, not copied, and
    becomes read-only.
    """

    cutoff: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        n = read_cutoff(self.cutoff)
        object.__setattr__(self, "cutoff", n)
        for name in ("A", "B"):
            block = np.asarray(getattr(self, name), np.complex128)
            if block.shape != (self.cutoff, self.cutoff):
                raise ValidationError("%s block must be %d x %d" % (name, n, n))
            if not np.all(np.isfinite(block)):
                raise ValidationError("%s block entries must be finite" % name)
            object.__setattr__(self, name, block)
        # Only once both pass, so a refusal leaves the caller's arrays
        # as they were.
        self.A.flags.writeable = False
        self.B.flags.writeable = False

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


def assembly_grid(m, cutoff, grid):
    """Coarsest grid on which the blocks of V_phi resolve to 1e-12.

    The reach K of w^cutoff = e^{i cutoff lift} is its largest mode
    above 1e-12 on the map's grid.  The result is the smallest
    M' = M / 2^j with M' >= 4 cutoff and 3 M' / 8 > K, so every
    resolved mode lies below the tail band that the assembly checks.
    Every 2^j-th sample of the map's grid is, bit for bit, the point
    of SampleGrid(M').  An odd size keeps the map's grid; a grid
    below 4 cutoff, or a spectrum that fills the map's own tail band,
    is refused, as a sub-grid cannot show the modes folding past it.
    """
    cutoff = read_cutoff(cutoff)
    size = grid.size
    lift = _own_lift(m, grid)
    _refuse_coarse_grid(cutoff, grid)
    magnitudes = np.abs(np.fft.fft(np.exp(1j * cutoff * lift))) / size
    modes = np.abs(np.fft.fftfreq(size, 1.0 / size))
    _refuse_tail(magnitudes, modes, cutoff, cutoff, grid)
    reach = np.max(modes[magnitudes > 1e-12], initial=0.0)
    while size % 2 == 0 and size // 2 >= 4 * cutoff and 3 * size / 16 > reach:
        size //= 2
    return SampleGrid(size)


def pullback_matrix(m, cutoff, grid):
    """Assemble the truncated block matrix of V_phi.

    A[p-1, q-1] = sqrt(p/q) c_p(w^q) and B[r-1, s-1] = sqrt(r/s)
    c_r(w^{-s}), with w = e^{i lift} on assembly_grid(m, cutoff, grid),
    the map's grid or a power-of-two sub-grid of it, which also makes
    the grid and aliasing refusals.  Column q of both blocks comes from
    the FFT of w^q: c_p(w^q) is read at bin p and c_r(w^{-q}) =
    conj(c_{-r}(w^q)) at bin size - r.

    The powers w^q are written as rows of one reused buffer of
    max(1, min(cutoff, 2**16 // size)) rows, at most 1 MiB unless a
    single row is larger, and each chunk of rows is transformed in
    place by one batched FFT.  Each w^q is the same running product
    w^{q-1} w, and a batched FFT row equals the single transform, so
    the blocks are those of one FFT per column, bit for bit.
    """
    cutoff = read_cutoff(cutoff)
    if m.degree != 1:
        raise ValidationError("block matrices are defined for degree-1 maps")
    size = assembly_grid(m, cutoff, grid).size
    w = np.exp(1j * m.lift_samples[:: grid.size // size])
    ps = np.arange(1, cutoff + 1)
    roots = np.sqrt(ps.astype(float))
    a = np.empty((cutoff, cutoff), np.complex128)
    b = np.empty((cutoff, cutoff), np.complex128)
    block = np.empty((max(1, min(cutoff, 2**16 // size)), size), np.complex128)
    carry = w.copy()  # w^(start + 1), the first power of the next chunk
    for start in range(0, cutoff, len(block)):
        chunk = block[: min(len(block), cutoff - start)]
        chunk[0] = carry
        for row in range(1, len(chunk)):
            np.multiply(chunk[row - 1], w, out=chunk[row])
        np.multiply(chunk[-1], w, out=carry)
        np.fft.fft(chunk, axis=1, out=chunk)
        qs = slice(start, start + len(chunk))
        ratios = roots / roots[qs, None]
        a[:, qs] = (ratios * (chunk[:, 1 : cutoff + 1] / size)).T
        b[:, qs] = (ratios * (np.conj(chunk[:, size - ps]) / size)).T
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
        json_fields(obj, ("cutoff", "A", "B"), "BlockOperator")
        a, b = matrix_from_json(obj["A"], "A"), matrix_from_json(obj["B"], "B")
        return BlockOperator(obj["cutoff"], a, b)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed BlockOperator object: %s" % exc)
