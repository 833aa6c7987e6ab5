"""Truncated Fourier model of the half-order Sobolev space on the circle.

A function is stored through its Fourier coefficients c_n for
0 < |n| <= N in an array of length 2N+1, with c_n at slot N+n and the
mean slot pinned to zero.  The squared norm is sum |n| |c_n|^2, which
for real functions equals the classical 2 sum_{n>=1} n |c_n|^2.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError

eps = np.finfo(float).eps
# Largest bandlimit from_modes allocates: 32 MB of coefficients.
max_bandlimit = 2**20


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid theta_j = offset + 2 pi j / size, j = 0..size-1."""

    size: int
    offset: float = 0.0

    def __post_init__(self):
        message = "grid size must be an integer >= 4"
        try:
            size = json_integer(self.size, "grid size")
        except ValidationError:
            raise GridError(message) from None
        if size < 4:
            raise GridError(message)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "offset", float(self.offset))
        cell = 2.0 * np.pi / self.size
        if not 0.0 <= self.offset < cell:
            raise GridError("grid offset must lie in [0, 2*pi/size)")

    def points(self):
        return self.offset + 2.0 * np.pi * np.arange(self.size) / self.size


@dataclass(frozen=True)
class CircleFunction:
    """Bandlimited mean-zero function on the circle.

    coeffs holds c_n at slot bandlimit+n.  real=None asks the
    constructor to detect Hermitian symmetry; real=True asserts it and
    enforces it exactly, rejecting input whose symmetry defect is not
    small.
    """

    bandlimit: int
    coeffs: np.ndarray
    real: bool = None

    def __post_init__(self):
        n = json_integer(self.bandlimit, "bandlimit")
        if n < 1:
            raise ValidationError("bandlimit must be an integer >= 1")
        object.__setattr__(self, "bandlimit", n)
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.bandlimit + 1,):
            raise ValidationError("coeffs must have length 2*bandlimit+1")
        if c[self.bandlimit] != 0:
            raise ValidationError("mean coefficient must be zero")
        mirror = np.conj(c[::-1])
        if self.real is None:
            object.__setattr__(self, "real", bool(np.array_equal(c, mirror)))
        elif self.real:
            scale = 1.0 + float(np.max(np.abs(c)))
            defect = float(np.max(np.abs(c - mirror)))
            if defect > 1e-9 * scale:
                raise ValidationError(
                    "real flag set but coefficients are not Hermitian "
                    "symmetric (defect %.3e)" % defect
                )
            # Exact symmetrization; a no-op when already symmetric.
            c = 0.5 * (c + mirror)
            c[self.bandlimit] = 0.0
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "real", bool(self.real))

    def coefficient(self, n):
        """Return c_n, zero outside the stored band."""
        if n == 0 or abs(n) > self.bandlimit:
            return 0j
        return complex(self.coeffs[self.bandlimit + n])

    def __add__(self, other):
        a, b, n = _aligned(self, other)
        return CircleFunction(n, a + b)

    def __sub__(self, other):
        a, b, n = _aligned(self, other)
        return CircleFunction(n, a - b)

    def __neg__(self):
        return CircleFunction(self.bandlimit, -self.coeffs)

    def __mul__(self, scalar):
        return CircleFunction(self.bandlimit, self.coeffs * scalar)

    __rmul__ = __mul__


def from_modes(bandlimit, modes, real=None):
    """Build a CircleFunction from a {mode: coefficient} mapping."""
    if not 1 <= bandlimit <= max_bandlimit:
        raise ValidationError("bandlimit must lie in 1..%d" % max_bandlimit)
    c = np.zeros(2 * bandlimit + 1, np.complex128)
    for n, value in modes.items():
        if n == 0:
            raise ValidationError("mode 0 is not part of the space")
        if abs(n) > bandlimit:
            raise ValidationError("mode %d exceeds bandlimit %d" % (n, bandlimit))
        c[bandlimit + n] = value
    return CircleFunction(bandlimit, c, real)


def zero_function(bandlimit):
    return CircleFunction(bandlimit, np.zeros(2 * bandlimit + 1, np.complex128))


def _aligned(f, g):
    """Zero-extend two coefficient arrays to a common bandlimit."""
    n = max(f.bandlimit, g.bandlimit)
    return _extended(f, n), _extended(g, n), n


def _extended(f, n):
    if f.bandlimit == n:
        return f.coeffs
    pad = n - f.bandlimit
    return np.pad(f.coeffs, (pad, pad))


def analyze(samples, grid, bandlimit):
    """Fourier coefficients of the trigonometric interpolant.

    Exact (to rounding) for input that is bandlimited below the
    requested bandlimit, which needs grid.size >= 2*bandlimit+1.  The
    mean is discarded.  Real sample arrays produce a real function
    with the Hermitian symmetry enforced exactly.
    """
    samples = np.asarray(samples)
    m = grid.size
    if samples.shape != (m,):
        raise GridError("sample array does not match the grid size")
    if m < 2 * bandlimit + 1:
        raise GridError("grid size %d cannot resolve bandlimit %d" % (m, bandlimit))
    was_real = bool(np.isrealobj(samples))
    raw = np.fft.fft(np.asarray(samples, np.complex128)) / m
    c = np.zeros(2 * bandlimit + 1, np.complex128)
    ns = np.arange(1, bandlimit + 1)
    phase = np.exp(-1j * ns * grid.offset)
    c[bandlimit + ns] = raw[ns] * phase
    if was_real:
        c[bandlimit - ns] = np.conj(c[bandlimit + ns])
    else:
        c[bandlimit - ns] = raw[m - ns] * np.conj(phase)
    return CircleFunction(bandlimit, c, True if was_real else None)


def synthesize(f, grid):
    """Evaluate the function on a grid; real array when f.real."""
    m = grid.size
    buf = np.zeros(m, np.complex128)
    n = f.bandlimit
    for k in range(-n, n + 1):
        buf[k % m] += f.coeffs[n + k] * np.exp(1j * k * grid.offset)
    values = np.fft.ifft(buf) * m
    if f.real:
        return values.real
    return values


def horner_sum(c, n, x, real=False):
    """Sum of c[n+k] e^{ikx} over |k| <= n, by Horner's rule in z = e^{ix}.

    One complex exponential per point, then n multiply-adds per chain:
    c_0 + 2 Re sum_{k>=1} c_k z^k when real (c Hermitian symmetric,
    so the result is the real float64 value), otherwise a second chain
    over the negative modes in conj(z).  Working memory is a few arrays
    of the size of x; the result has the shape of x.
    """
    x = np.asarray(x, np.float64)
    z = _unit(x)
    values = _horner_chain(c[n + 1 :], z)
    if real:
        values = 2.0 * values.real
        values += c[n].real
    else:
        np.conjugate(z, out=z)
        values += _horner_chain(c[:n][::-1], z)
        values += c[n]
    return values.reshape(x.shape)


def value_and_slope(f, points):
    """A real function and its derivative at arbitrary angles.

    One complex exponential per point feeds two Horner chains: the
    value chain is the one evaluate_at runs, so the values are
    bit-identical to it, and the slope chain runs over i k c_k.  Both
    results are real float64 arrays of the shape of points.
    """
    if not f.real:
        raise ValidationError("value_and_slope needs a real function")
    x = np.asarray(points, np.float64)
    z = _unit(x)
    n = f.bandlimit
    c = f.coeffs[n + 1 :]
    values = 2.0 * _horner_chain(c, z).real
    values += f.coeffs[n].real
    slopes = 2.0 * _horner_chain(c * (1j * np.arange(1, n + 1)), z).real
    return values.reshape(x.shape), slopes.reshape(x.shape)


def _unit(x):
    # z = e^{ix} for the flattened angles, in a fresh complex array.
    z = np.multiply(x.ravel(), 1j)
    np.exp(z, out=z)
    return z


def _horner_chain(c, z):
    # sum_{k>=1} c[k-1] z^k, innermost coefficient first.
    acc = np.zeros_like(z)
    for ck in c[::-1]:
        acc += ck
        acc *= z
    return acc


def evaluate_at(f, points):
    """Evaluate the function at arbitrary angles.

    Costs one complex exponential and bandlimit complex multiply-adds
    per point (two chains when f is not real), with memory linear in
    the number of points.  The result has the shape of points and is
    real float64 when f.real.
    """
    return horner_sum(f.coeffs, f.bandlimit, points, f.real)


def derivative(f):
    """Spectral derivative; coefficient c_n scales by i n."""
    n = f.bandlimit
    ns = np.arange(-n, n + 1)
    return CircleFunction(n, f.coeffs * (1j * ns))


def norm_squared(f):
    """Squared norm sum |n| |c_n|^2, computed without a square root."""
    n = f.bandlimit
    weights = np.abs(np.arange(-n, n + 1)).astype(float)
    c = f.coeffs
    return float(np.sum(weights * (c.real * c.real + c.imag * c.imag)))


def h_half_norm(f):
    """Norm sqrt(sum |n| |c_n|^2)."""
    return float(np.sqrt(norm_squared(f)))


def inner_product(f, g):
    """Hermitian pairing sum |n| c_n(f) conj(c_n(g))."""
    a, b, n = _aligned(f, g)
    weights = np.abs(np.arange(-n, n + 1)).astype(float)
    return complex(np.sum(weights * a * np.conj(b)))


def hilbert_transform(f):
    """Conjugation operator c_n -> -i sgn(n) c_n.

    Exact isometry and exact involution in coefficient arithmetic: the
    multipliers only swap and negate real and imaginary parts.
    """
    n = f.bandlimit
    ns = np.arange(-n, n + 1)
    mult = np.where(ns > 0, -1j, np.where(ns < 0, 1j, 0j))
    return CircleFunction(n, f.coeffs * mult, f.real if f.real else None)


def douglas_energy(f, grid):
    """Product-grid quadrature of the Douglas energy integral.

    Approximates (1/16 pi^2) times the double integral of
    |f(theta)-f(phi)|^2 / sin^2((theta-phi)/2).  The second axis is the
    given grid shifted by half a cell so the two axes never meet and
    the removable diagonal singularity is dodged.  The squared
    integrand is a trig polynomial of degree below 2N per axis, so the
    rule is exact to rounding once grid.size exceeds 2*bandlimit.
    """
    if grid.offset <= 0.0:
        raise GridError("douglas quadrature needs a strictly positive offset")
    m = grid.size
    cell = 2.0 * np.pi / m
    shifted = SampleGrid(m, (grid.offset + 0.5 * cell) % cell)
    fx = np.ascontiguousarray(synthesize(f, grid), np.complex128)
    fy = np.ascontiguousarray(synthesize(f, shifted), np.complex128)
    tx = np.ascontiguousarray(grid.points())
    ty = np.ascontiguousarray(shifted.points())
    total = douglas_pair_sum(fx, fy, tx, ty)
    return total / (4.0 * m * m)


def douglas_pair_sum(fx, fy, tx, ty):
    """Sum of |fx_i - fy_j|^2 / sin^2((tx_i - ty_j)/2) over the product grid.

    Rows go in blocks of 256, so the temporaries stay 256 x len(fy).
    """
    total = 0.0
    m = fx.shape[0]
    block = 256
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d = fx[i0:i1, None] - fy[None, :]
        s = np.sin(0.5 * (tx[i0:i1, None] - ty[None, :]))
        total += float(np.sum((d.real * d.real + d.imag * d.imag) / (s * s)))
    return total


def function_to_json(f):
    """JSON-ready dict; zero coefficients are omitted."""
    entries = []
    for n in range(-f.bandlimit, f.bandlimit + 1):
        if n == 0:
            continue
        value = f.coeffs[f.bandlimit + n]
        if value != 0:
            entries.append({"n": n, "re": float(value.real), "im": float(value.imag)})
    return {"bandlimit": f.bandlimit, "real": bool(f.real), "coeffs": entries}


def json_integer(value, name):
    """int(value), refusing by name a bool, string or fraction."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer())
    ):
        raise ValidationError("%s must be an integer, not %r" % (name, value))
    return int(value)


def json_real(value, name):
    """float(value), refusing by name a bool, a string or a NaN or infinity."""
    # float and int come first: they skip the slow abstract-class check.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValidationError("%s must be a number, not %r" % (name, value))
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError("%s must be finite" % name)
    return value


def function_from_json(obj):
    """Inverse of function_to_json, with validation."""
    try:
        bandlimit = json_integer(obj["bandlimit"], "bandlimit")
        entries = obj["coeffs"]
        real = bool(obj.get("real", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed CircleFunction object: %s" % exc)
    modes = {}
    for entry in entries:
        try:
            n = json_integer(entry["n"], "coefficient index n")
            re, im = entry["re"], entry.get("im", 0.0)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("malformed coefficient entry: %s" % exc)
        name = "coefficient %d" % n
        value = complex(json_real(re, name), json_real(im, name))
        if n in modes:
            raise ValidationError("duplicate coefficient index %d" % n)
        modes[n] = value
    return from_modes(bandlimit, modes, True if real else None)


def matrix_from_json(rows, name):
    """Complex matrix from rows of {"re": x, "im": y} objects.

    The one reader of the form in which reports carry Z, A and B: the
    command line writes each complex array of a report as such rows.
    Entries must be JSON numbers; `name` names the matrix in refusals.
    """
    name += " entry"
    return np.array(
        [
            [complex(json_real(v["re"], name), json_real(v["im"], name)) for v in row]
            for row in rows
        ],
        dtype=np.complex128,
    )
