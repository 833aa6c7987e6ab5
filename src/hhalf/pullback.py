"""Composition operators and their truncated block matrices.

The operator V_phi f = f o phi - mean acts on the real Hilbert space;
its complexification has the block form (w+, w-) -> (A w+ + B w-,
conj(B) w+ + conj(A) w-) in the normalized basis e^{ik theta}/sqrt(k),
k = 1..cutoff, and conjugates.  Matrix entries are Fourier integrals
of powers of w = e^{i lift}, evaluated by FFT of the map's own lift
samples; c_r(conj(w)^q) = conj(c_{-r}(w^q)) gives B from A's FFTs.
Block matrices, and functions pulled back, are read on the coarsest
power-of-two sub-grid of the grid the map keeps (pullback_matrix is also
passed it), at least 4 x the reach, whose tail band the spectrum of w^K
leaves empty, K the cutoff or the function's bandlimit.  Each call
probes w^K on that grid and computes e^{i lift} on the sub-grid.
Functions are pulled back as stacked coefficient rows of one
bandlimit, one Horner chain and one batched FFT per stack;
pullback_function is the one-row case.  The block powers are
transformed a chunk of rows at a time, in place, in one buffer of
2**16 samples (1 MiB) or one row if that is larger, so the working
set does not grow with the cutoff.
A grid below 4 x the reach of a result, the highest mode its input
reaches before any spread (bandlimit x degree, or the cutoff for a
block matrix), is refused before any FFT.  On a grid that holds it,
the spectrum of w^K on the map's grid, and a pulled-back function's
own spectrum on its sub-grid, must pass fourier.resolved_band.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError
from .fourier import (
    CircleFunction,
    SampleGrid,
    _analyzed,
    _extended,
    _finite,
    _unit,
    json_fields,
    json_integer,
    matrix_from_json,
    resolved_band,
    unit_horner_sum,
)
from .symplectic import _form_rows, symplectic_form


def read_cutoff(value):
    """A truncation order: an integer >= 1, not a bool or fraction."""
    return json_integer(value, "cutoff", 1)


def pullback_function(m, f):
    """V_phi f: compose with the map, drop the mean, reanalyze.

    f o phi = sum c_k w^k is read on assembly_grid(m, K), K the
    bandlimit of f: a power-of-two sub-grid of M' points, or the map's
    grid.  It is summed on e^{i lift} at every (M / M')-th lift sample
    and analyzed there.  The result carries every mode the sub-grid
    resolves, bandlimit (M' - 1) // 2, so downstream identities see
    the full spread spectrum of the composition.  A function whose top
    power w^K does not resolve on the map's grid is refused, however
    small its c_K.  This is the one-row case of _pullback_rows.
    """
    rows = _pullback_rows(m, f.coeffs[None], f.bandlimit, f.real)
    return CircleFunction(rows.shape[1] // 2, rows[0])


def _pullback_rows(m, rows, k, real):
    """V_phi of each row of 2k+1 coefficients, as pullback_function reads it.

    One Horner chain over the stacked rows and one batched FFT along the
    rows, on pullback_function's sub-grid of m.grid; real rows must be
    Hermitian and take analyze's conjugate rule.  Each row of the result
    holds the 2 n' + 1 coefficients of its pullback, n' = (M' - 1) // 2,
    the bits of its own pullback_function.  The rows must be finite, and
    each row's spectrum, relative to its own peak, passes resolved_band.
    """
    reach = k * m.degree
    sub = _coarsest_grid(m, k, "bandlimit x degree")
    z = _unit(m.lift_samples[:: m.grid.size // sub.size])
    n = (sub.size - 1) // 2
    out = _finite(_analyzed(unit_horner_sum(rows, k, z, real), n))
    magnitudes = np.abs(out)
    peaks = np.max(magnitudes, axis=1, keepdims=True)
    magnitudes /= np.where(peaks == 0.0, 1.0, peaks)
    modes = np.abs(np.arange(-n, n + 1))
    resolved_band(np.max(magnitudes, axis=0), modes, reach, sub)
    return out


def _coarsest_grid(m, k, name):
    # The one sub-grid rule, assembly_grid's at reach k x degree on
    # m.grid.  Below 2 x reach modes fold past Nyquist with no tail;
    # just above it the tail band that resolved_band reads is too narrow
    # to show spread, and moebius(0.3) at N = 32, M = 65 is off by 0.26.
    reach = k * m.degree
    size = m.grid.size
    if size < 4 * reach:
        raise GridError(
            "grid size %d is below 4 * %s = %d" % (size, name, 4 * reach)
        )
    magnitudes = np.abs(np.fft.fft(np.exp(1j * k * m.lift_samples))) / size
    modes = np.abs(np.fft.fftfreq(size, 1.0 / size))
    band = resolved_band(magnitudes, modes, reach, m.grid)
    while size % 2 == 0 and size // 2 >= 4 * reach and 3 * size / 16 > band:
        size //= 2
    return SampleGrid(size)


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
    cutoff = read_cutoff(cutoff)
    if cutoff > t.cutoff:
        raise ValidationError("corner cutoff exceeds the operator cutoff")
    return BlockOperator(cutoff, t.A[:cutoff, :cutoff], t.B[:cutoff, :cutoff])


def assembly_grid(m, cutoff):
    """Coarsest grid on which the blocks of V_phi resolve to 1e-12.

    The reach K of w^cutoff = e^{i cutoff lift} is its resolved_band on
    the map's grid m.grid, probed on each call; pullback_function reads
    the same rule with its bandlimit for the cutoff.  The result is the
    smallest M' = M / 2^j with M' >= 4 cutoff d and 3 M' / 8 > K, d the
    degree, so every resolved mode lies below the tail band that the
    assembly checks.  Every 2^j-th sample of the map's grid is, bit for
    bit, the point of SampleGrid(M').  An odd size keeps the map's grid;
    a grid below 4 cutoff d, or a spectrum that fills the map's own tail
    band, is refused, as a sub-grid cannot show the modes folding past
    it.
    """
    name = "cutoff" if m.degree == 1 else "cutoff x degree"
    return _coarsest_grid(m, read_cutoff(cutoff), name)


def pullback_matrix(m, cutoff, grid):
    """Assemble the truncated block matrix of V_phi.

    A[p-1, q-1] = sqrt(p/q) c_p(w^q) and B[r-1, s-1] = sqrt(r/s)
    c_r(w^{-s}), with w = e^{i lift} on assembly_grid(m, cutoff), the
    map's grid or a power-of-two sub-grid of it, which also makes the
    grid and aliasing refusals; grid must be that map's grid.  Column q
    of both blocks comes from the FFT of w^q: c_p(w^q) is read at bin p
    and c_r(w^{-q}) = conj(c_{-r}(w^q)) at bin size - r.

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
    if grid != m.grid:
        raise ValidationError("pullback needs the map's own sample grid")
    size = assembly_grid(m, cutoff).size
    w = _unit(m.lift_samples[:: grid.size // size])
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

    The block-conjugate structure sends real functions to real
    functions, and the real branch of _apply_rows enforces that exactly.
    """
    n = t.cutoff
    if f.bandlimit > n:
        raise ValidationError("function bandlimit exceeds the operator cutoff")
    return CircleFunction(n, _apply_rows(t, _extended(f, n)[None], f.real)[0])


def _apply_rows(t, rows, real):
    """The block matrix applied to each row of 2N+1 coefficients, N the cutoff.

    Coordinates are x+[q] = c_q sqrt(q) and x-[q] = c_{-q} sqrt(q) for
    q = 1..N, and each row takes one matrix-vector product per block.
    With real set, the rows are Hermitian and the negative half of each
    result is the conjugate of its positive half; otherwise it is
    conj(B) x+ + conj(A) x-.  The mean slot is zero.
    """
    n = t.cutoff
    roots = np.sqrt(np.arange(1.0, n + 1.0))
    plus, minus = rows[:, n + 1 :] * roots, rows[:, n - 1 :: -1] * roots
    out = np.empty(rows.shape, np.complex128)
    for c, x, y in zip(out, plus, minus):
        top = t.A @ x + t.B @ y
        bottom = np.conj(top) if real else np.conj(t.B) @ x + np.conj(t.A) @ y
        c[n + 1 :] = top / roots
        c[:n] = (bottom / roots)[::-1]
    out[:, n] = 0.0
    return out


def operator_norm_estimate(t):
    """Largest singular value of the full 2N x 2N matrix."""
    return float(np.linalg.norm(t.full(), 2))


def invariance_defect(m, f, g):
    """|S(V f, V g) - degree * S(f, g)| for real f and g."""
    if not (f.real and g.real):
        raise ValidationError("invariance defect is stated for real functions")
    vf = pullback_function(m, f)
    vg = pullback_function(m, g)
    return abs(
        symplectic_form(vf, vg) - float(m.degree) * symplectic_form(f, g)
    )


def _invariance_rows(m, f_rows, g_rows, k):
    """invariance_defect of each pair of real rows of bandlimit k, as a list.

    Both stacks are pulled back by one _pullback_rows call and paired
    by _form_rows, so each defect is the bits of its invariance_defect.
    """
    v = _pullback_rows(m, np.concatenate((f_rows, g_rows)), k, True)
    n, r = v.shape[1] // 2, len(f_rows)
    pulled = _form_rows(v[:r], v[r:], n).tolist()
    plain = _form_rows(f_rows, g_rows, k).tolist()
    degree = float(m.degree)
    return [abs(s - degree * t) for s, t in zip(pulled, plain)]


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
