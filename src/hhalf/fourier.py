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

from .errors import AliasingError, GridError, ValidationError

eps = np.finfo(float).eps
# Largest bandlimit from_modes allocates: 32 MB of coefficients.
max_bandlimit = 2**20


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid theta_j = 2 pi j / size, j = 0..size-1, of size >= 4."""

    size: int

    def __post_init__(self):
        message = "grid size must be an integer >= 4"
        try:
            size = json_integer(self.size, "grid size")
        except ValidationError:
            raise GridError(message) from None
        if size < 4:
            raise GridError(message)
        object.__setattr__(self, "size", size)

    def points(self):
        return 2.0 * np.pi * np.arange(self.size) / self.size


@dataclass(frozen=True)
class CircleFunction:
    """Bandlimited mean-zero function on the circle.

    coeffs holds c_n at slot bandlimit+n, a complex128 array kept as
    given and made read-only; every coefficient must be finite.
    real=True asserts Hermitian symmetry, refusing a defect that is
    not small, and enforces it exactly; otherwise the constructor
    detects it exactly.
    """

    bandlimit: int
    coeffs: np.ndarray
    real: bool = False

    def __post_init__(self):
        n = json_integer(self.bandlimit, "bandlimit", 1)
        object.__setattr__(self, "bandlimit", n)
        c = np.asarray(self.coeffs, np.complex128)
        if c.shape != (2 * n + 1,):
            raise ValidationError("coeffs must have length 2*bandlimit+1")
        if c[n] != 0:
            raise ValidationError("mean coefficient must be zero")
        if self.real:
            c = c if c.flags.writeable else c.copy()
            _hermitian(c[None], n)
        else:
            _finite(c)
        real = bool(self.real) or np.array_equal(c[n + 1 :], np.conj(c[n - 1 :: -1]))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "real", real)

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


def _average(a, b):
    """0.5 a + 0.5 b, part by part, so no finite pair overflows.

    Halving is exact above the subnormal range, so these are the bits
    of the complex product 0.5 (a + b) wherever that sum is finite; the
    closing complex product by 1.0 gives each zero part the sign that
    product gives it.
    """
    out = np.empty(a.shape, np.complex128)
    out.real = 0.5 * a.real + 0.5 * b.real
    out.imag = 0.5 * a.imag + 0.5 * b.imag
    return out * 1.0


def _finite(c, peak=math.inf):
    """c, refused unless every coefficient is finite.

    A finite peak, max |c| of each row, vouches for every entry, so the
    full test runs only without one; a finite coefficient whose modulus
    overflows still passes.
    """
    if not (np.isfinite(peak).all() or np.isfinite(c).all()):
        raise ValidationError("coeffs must be finite")
    return c


def _hermitian(rows, n):
    """Rows of 2n+1 coefficients made Hermitian symmetric, in place.

    The rule of CircleFunction(real=True): a row that is not finite, or
    whose defect max |c_k - conj(c_-k)| exceeds 1e-9 (1 + max |c|), is
    refused, the first such row naming its defect.  Otherwise each half
    is averaged with the other's conjugate, the bits of
    0.5 (c + conj(c[::-1])) without a full mirrored copy, and the mean
    slot is zeroed.
    """
    peak = np.max(np.abs(rows), axis=1)
    _finite(rows, peak)
    upper, mirror = rows[:, n + 1 :], np.conj(rows[:, n - 1 :: -1])
    defect = np.max(np.abs(upper - mirror), axis=1)
    loose = defect > 1e-9 * (1.0 + peak)
    if loose.any():
        raise ValidationError(
            "real flag set but coefficients are not Hermitian "
            "symmetric (defect %.3e)" % defect[loose][0]
        )
    lower = _average(rows[:, :n], np.conj(rows[:, :n:-1]))
    rows[:, n + 1 :], rows[:, :n], rows[:, n] = _average(upper, mirror), lower, 0.0
    return rows


def from_modes(bandlimit, modes, real=False):
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
    c = np.zeros(2 * n + 1, np.complex128)
    c[n - f.bandlimit : n + f.bandlimit + 1] = f.coeffs
    return c


def analyze(samples, bandlimit):
    """Fourier coefficients of the trigonometric interpolant.

    Exact (to rounding) for one row of M samples on the grid of size M
    that is bandlimited below bandlimit, which needs M >= 2*bandlimit+1.
    The mean is discarded.  Real sample arrays produce a real function,
    its negative modes the exact conjugates of its positive ones.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise GridError("sample array must be one-dimensional")
    m = samples.size
    if m < 2 * bandlimit + 1:
        raise GridError("grid size %d cannot resolve bandlimit %d" % (m, bandlimit))
    return CircleFunction(bandlimit, _analyzed(samples, bandlimit))


def _analyzed(samples, n):
    """analyze's coefficients, 2n+1 per row of samples along the last axis.

    One batched FFT, whose rows are the single transforms bit for bit;
    real samples take the conjugate rule for the negative modes.
    """
    m = samples.shape[-1]
    raw = np.fft.fft(np.asarray(samples, np.complex128), axis=-1) / m
    c = np.empty(raw.shape[:-1] + (2 * n + 1,), np.complex128)
    c[..., n + 1 :], c[..., n] = raw[..., 1 : n + 1], 0.0
    if np.isrealobj(samples):
        c[..., :n] = np.conj(c[..., :n:-1])
    else:
        c[..., :n] = raw[..., m - n :]
    return c


def resolved_band(magnitudes, modes, reach, grid):
    """Largest of the |modes| whose relative magnitude exceeds 1e-12.

    The one test of a spectrum read on grid, whose modes reach the top
    mode (size - 1) // 2.  A tail above 1e-12 beyond reach, from 3 size / 8
    or the top mode if lower, folds past Nyquist: AliasingError names it.
    """
    start = max(min(3 * grid.size / 8, (grid.size - 1) // 2), reach + 1)
    tail = np.max(magnitudes[modes >= start], initial=0.0)
    if tail > 1e-12:
        raise AliasingError(
            "grid size %d cannot resolve bandlimit %d under this map "
            "(spectral tail %.1e near Nyquist)" % (grid.size, reach, tail)
        )
    return int(np.max(modes[magnitudes > 1e-12], initial=0))


def synthesize(f, grid):
    """Evaluate the function on a grid; real array when f.real."""
    m = grid.size
    buf = np.zeros(m, np.complex128)
    n = f.bandlimit
    # Modes past Nyquist fold onto their aliases, added in mode order.
    np.add.at(buf, np.arange(-n, n + 1) % m, f.coeffs)
    values = np.fft.ifft(buf) * m
    if f.real:
        return values.real
    return values


def horner_sum(c, n, x, real=False):
    """Sum of c[n+k] e^{ikx} over |k| <= n, by Horner's rule in z = e^{ix}.

    One complex exponential per point, then unit_horner_sum on z.
    Working memory is a few arrays of the size of x; the result has
    the shape of x.
    """
    x = np.asarray(x, np.float64)
    return unit_horner_sum(c, n, _unit(x), real).reshape(x.shape)


def unit_horner_sum(c, n, z, real=False):
    """Sum of c[n+k] z^k over |k| <= n for a 1-D array z on the unit circle.

    n multiply-adds per chain: c_0 + 2 Re sum_{k>=1} c_k z^k when real
    (c Hermitian symmetric, so the result is the real float64 value),
    otherwise a second chain over the negative modes in conj(z), a
    copy, so z itself is only read.  c may be a 2-D stack of coefficient
    rows; each gives one row of values, the bits of its own call.
    """
    values = _horner_chain(c[..., n + 1 :], z)
    if real:
        values = 2.0 * values.real
        values += c[..., n, None].real
    else:
        values += _horner_chain(c[..., :n][..., ::-1], np.conj(z))
        values += c[..., n, None]
    return values


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
    values = unit_horner_sum(f.coeffs, n, z, True)
    c = f.coeffs[n + 1 :]
    slopes = 2.0 * _horner_chain(c * (1j * np.arange(1, n + 1)), z).real
    return values.reshape(x.shape), slopes.reshape(x.shape)


def _unit(x):
    # z = e^{ix} for the flattened angles, in a fresh complex array.
    z = np.multiply(x.ravel(), 1j)
    np.exp(z, out=z)
    return z


def _horner_chain(c, z):
    # sum_{k>=1} c[..., k-1] z^k, innermost coefficient first.  A stack
    # of rows adds a column per step; a single row adds Python scalars,
    # which numpy adds faster than its own.
    acc = np.zeros(c.shape[:-1] + z.shape, z.dtype)
    steps = c[..., ::-1].T
    for ck in steps[..., None] if c.ndim == 2 else steps.tolist():
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
    return float(_energy(f.coeffs, f.bandlimit))


def _energy(c, n):
    # sum |k| |c[n+k]|^2 along the last axis, one pairwise sum per row.
    weights = np.abs(np.arange(-n, n + 1)).astype(float)
    return np.sum(weights * (c.real * c.real + c.imag * c.imag), axis=-1)


def h_half_norm(f):
    """Norm sqrt(sum |n| |c_n|^2)."""
    return float(np.sqrt(norm_squared(f)))


def inner_product(f, g):
    """Hermitian pairing sum |n| c_n(f) conj(c_n(g))."""
    a, b, n = _aligned(f, g)
    return complex(_inner_rows(a, b, n))


def _inner_rows(a, b, n):
    # inner_product of rows of 2n+1 coefficients, one pairwise sum per row.
    weights = np.abs(np.arange(-n, n + 1)).astype(float)
    return np.sum(weights * a * np.conj(b), axis=-1)


def hilbert_transform(f):
    """Conjugation operator c_n -> -i sgn(n) c_n.

    Exact isometry and exact involution in coefficient arithmetic: the
    multipliers only swap and negate real and imaginary parts.  real=True
    for real f fixes the sign of zero parts, which function_to_json prints.
    """
    n = f.bandlimit
    return CircleFunction(n, _hilbert_rows(f.coeffs, n), f.real)


def _hilbert_rows(c, n):
    """The J multiplier -i sgn(k) on rows of 2n+1 coefficients.

    Rows of real functions still need _hermitian, as hilbert_transform's
    CircleFunction(real=True) applies it, for the bits of its result.
    """
    ns = np.arange(-n, n + 1)
    return c * np.where(ns > 0, -1j, np.where(ns < 0, 1j, 0j))


def douglas_energy(f, grid):
    """Product-grid quadrature of the Douglas energy integral.

    Approximates (1/16 pi^2) times the double integral of
    |f(theta)-f(phi)|^2 / sin^2((theta-phi)/2) on the grid and the grid
    turned by half a cell, where f is the synthesis of its turned
    coefficients c_k e^{ik pi/M}: the two axes never meet, so the
    removable diagonal singularity is dodged.  The squared integrand
    is a trig polynomial of degree below 2N per axis, so the rule is
    exact to rounding once grid.size exceeds 2*bandlimit.  The axes
    sit an odd number of half cells apart, so douglas_pair_sum sums
    the M^2 pairs in closed form from two FFTs.
    """
    m, n, c = grid.size, f.bandlimit, f.coeffs
    half = np.pi / m
    phase = np.exp(1j * (np.arange(-n, n + 1) * half))
    # Split products: a vectorized complex product may fuse multiply-adds.
    turned = np.empty_like(c)
    turned.real = c.real * phase.real - c.imag * phase.imag
    turned.imag = c.real * phase.imag + c.imag * phase.real
    fx = synthesize(CircleFunction(n, turned, f.real), grid)
    fy = synthesize(f, grid)
    points = grid.points()
    total = douglas_pair_sum(fx, fy, half + points, points)
    return total / (4.0 * m * m)


def douglas_pair_sum(fx, fy, tx, ty):
    """Sum of |fx_i - fy_j|^2 / sin^2((tx_i - ty_j)/2) over the product grid.

    tx and ty must each be a uniform grid t_0 + 2 pi j / M, the four
    arrays all of length M, and tx - ty an odd number of half cells
    d = (2s + 1) pi / M; anything else raises ValidationError.  The
    weight then depends only on k = i - j, and its DFT is exactly
    M (M - 2|w|) e^{-iwd} at each signed mode |w| <= M/2.  With F the
    FFT of each sample array and G = e^{iwd} F_y, the sum is
    sum_w M |F_x - G|^2 + 4|w| Re(F_x conj G): two FFTs, no cancellation.
    """
    fx = np.asarray(fx, np.complex128)
    fy = np.asarray(fy, np.complex128)
    m = fx.shape[0] if fx.ndim == 1 else 0
    if m < 1 or any(np.shape(a) != (m,) for a in (fy, tx, ty)):
        raise ValidationError(
            "douglas_pair_sum wants four 1-D arrays of one length M >= 1"
        )
    steps = 2.0 * np.pi * np.arange(m) / m
    sx = _grid_start(tx, steps, "tx")
    sy = _grid_start(ty, steps, "ty")
    delta = sx - sy
    cells = np.rint(delta * m / np.pi)
    slack = 64.0 * eps * (2.0 * np.pi + abs(sx) + abs(sy))
    if not (cells % 2.0 == 1.0 and abs(delta - cells * np.pi / m) <= slack):
        raise ValidationError(
            "douglas_pair_sum wants tx - ty an odd number of half cells "
            "(2s + 1) pi / M, not %r" % float(delta)
        )
    w = (np.arange(m) + m // 2) % m - m // 2  # signed modes
    turn = np.exp(1j * np.pi * ((int(cells) % (2 * m)) * w % (2 * m)) / m)
    spectra = np.fft.fft(np.stack((fx, fy)))
    g = turn * spectra[1]
    diff = spectra[0] - g
    cross = spectra[0].real * g.real + spectra[0].imag * g.imag
    return float(np.sum(m * (diff.real**2 + diff.imag**2) + 4.0 * np.abs(w) * cross))


def _grid_start(t, steps, name):
    """t[0], after checking t = t[0] + steps to rounding."""
    t = np.asarray(t, np.float64)
    start = float(t[0])
    deviation = float(np.max(np.abs(t - start - steps)))
    if not deviation <= 64.0 * eps * (2.0 * np.pi + abs(start)):
        raise ValidationError(
            "douglas_pair_sum wants %s on a uniform grid t_0 + 2 pi j / M "
            "(deviation %.3e)" % (name, deviation)
        )
    return start


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


def json_integer(value, name, least=None):
    """int(value), refusing by name a bool, string, fraction or one below least."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer())
    ):
        raise ValidationError("%s must be an integer, not %r" % (name, value))
    value = int(value)
    if least is not None and value < least:
        raise ValidationError("%s must be an integer >= %d" % (name, least))
    return value


def json_fields(obj, fields, name):
    """Refuse a JSON object's fields outside `fields`, naming each."""
    unknown = set(obj) - set(fields)
    if unknown:
        raise ValidationError(
            "unknown %s fields: %s" % (name, ", ".join(sorted(map(str, unknown))))
        )


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
        entries = iter(obj["coeffs"])  # a number or null is malformed
        real = obj.get("real", False)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed CircleFunction object: %s" % exc)
    json_fields(obj, ("bandlimit", "real", "coeffs"), "CircleFunction")
    if not isinstance(real, bool):
        raise ValidationError(
            "CircleFunction real must be true or false, not %r" % (real,)
        )
    modes = {}
    for entry in entries:
        try:
            n = json_integer(entry["n"], "coefficient index n")
            re, im = entry["re"], entry.get("im", 0.0)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("malformed coefficient entry: %s" % exc)
        json_fields(entry, ("n", "re", "im"), "coefficient entry")
        name = "coefficient %d" % n
        value = complex(json_real(re, name), json_real(im, name))
        if n in modes:
            raise ValidationError("duplicate coefficient index %d" % n)
        modes[n] = value
    return from_modes(bandlimit, modes, real)


def matrix_from_json(rows, name):
    """Complex matrix from rows of {"re": x, "im": y} objects.

    The one reader of the form in which reports carry Z, A and B: the
    command line writes each complex array of a report as such rows.
    Entries must be JSON numbers and have no other fields; `name`
    names the matrix in refusals.
    """
    name += " entry"
    for row in rows:
        for v in row:
            if len(v) != 2:  # cheaper than a set per entry
                json_fields(v, ("re", "im"), name)
    return np.array(
        [
            [complex(json_real(v["re"], name), json_real(v["im"], name)) for v in row]
            for row in rows
        ],
        dtype=np.complex128,
    )
