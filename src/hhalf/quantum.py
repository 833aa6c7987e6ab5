"""Quantum derivative operators, their Hilbert-Schmidt size, and the
welding kernel with its classical diagonal limits.

The quantum derivative of a function f is the commutator [J, M_f] of
the conjugation operator with multiplication by f.  In the exponential
basis its matrix couples only modes of opposite sign, which makes it
Hilbert-Schmidt exactly when f lies in the half-order Sobolev space.
The kernel side of the same story evaluates log[(h(x)-h(y))/(x-y)] and
its first two derivative kernels near the diagonal, where they recover
log h', h''/(2h'), and the Schwarzian derivative over six.
"""

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .fourier import derivative, evaluate_at, json_integer, norm_squared
from .maps import Compose, Moebius, periodic_part, periodic_values

eps = np.finfo(float).eps
two_pi = 2.0 * np.pi

# Half-widths for diagonal extrapolation, small enough that every
# smooth catalog map is in its asymptotic regime.
default_deltas = (0.02, 0.01, 0.005)

# Base angles at which `kernel` reports and suite criterion 9 take
# diagonal limits.
kernel_base_points = (0.0, np.pi / 3.0, 1.0)

# Largest bandlimit whose quantum derivative is built: the (2K + 1)^2
# matrix peaks near 160 MiB to build at K = 1024.
max_quantum_bandlimit = 1024


def quantum_derivative_matrix(f):
    """Matrix of [J, M_f] on the modes -K..K, K the bandlimit of f.

    Entry (m, n) is -i(sgn m - sgn n) c_{m-n}(f) with sgn 0 = 0.  It
    vanishes unless m and n have opposite signs or one of them is 0,
    and then |m| and |n| are at most |m - n| <= K, so this block holds
    every nonzero entry of the commutator.  The array is read-only.
    A bandlimit above max_quantum_bandlimit is refused before anything
    is allocated.
    """
    k = f.bandlimit
    if k > max_quantum_bandlimit:
        raise ValidationError(
            "quantum derivative needs a bandlimit of at most %d, not %d"
            % (max_quantum_bandlimit, k)
        )
    idx = np.arange(-k, k + 1)
    signs = np.sign(idx).astype(float)
    padded = np.zeros(4 * k + 1, np.complex128)
    padded[k : 3 * k + 1] = f.coeffs
    lookup = padded[2 * k + (idx[:, None] - idx[None, :])]
    entries = -1j * (signs[:, None] - signs[None, :]) * lookup
    entries.flags.writeable = False
    return entries


def hs_norm(f):
    """Hilbert-Schmidt (Frobenius) norm of the quantum derivative of f.

    Exact for a bandlimited f: quantum_derivative_matrix holds every
    nonzero entry.
    """
    return float(np.linalg.norm(quantum_derivative_matrix(f)))


def hs_bracket_check(f):
    """Check 2 norm(f)^2 <= HS^2 <= 4 norm(f)^2 for a real function.

    The lower constant is attained by first-mode functions and the
    upper one is approached by high single modes; both flags carry a
    few-ulp slack so the attained case does not flap.
    """
    if not f.real:
        raise ValidationError("the bracket is stated for real functions")
    hs2 = hs_norm(f) ** 2
    n2 = norm_squared(f)
    slack = 32.0 * eps * max(1.0, hs2, 4.0 * n2)
    lower_ok = 2.0 * n2 <= hs2 + slack
    upper_ok = hs2 <= 4.0 * n2 + slack
    return bool(lower_ok), bool(upper_ok)


def _kernel(order, dx, dh, slope_x, slope_y):
    """Kernel of the given order from x - y, h(x) - h(y), h'(x), h'(y)."""
    try:
        if order == 0:
            value = math.log(dh / dx)
        elif order == 1:
            value = slope_x / dh - 1.0 / dx
        else:
            value = slope_x * slope_y / dh**2 - 1.0 / dx**2
    except (ArithmeticError, ValueError):  # underflow to 0, or overflow
        value = math.nan
    if not math.isfinite(value):
        raise NumericalError(
            "order %d kernel is not finite at offset x - y = %r" % (order, dx)
        )
    return value


def _kernel_values(m, d1, order, x, ys):
    """Kernel values of a circle map at (x, y) for each y, and h'(x).

    d1 is the derivative of the map's resolved periodic part.  One lift
    walk and one derivative evaluation serve x and every y; the
    per-pair arithmetic stays scalar.
    """
    if not all(math.isfinite(t) for t in (x, *ys)):
        raise ValidationError("kernel angles must be finite")
    if any(math.remainder(x - y, two_pi) == 0.0 for y in ys):
        raise ValidationError("kernel requires x != y (mod 2 pi)")
    points = np.array([x, *ys])
    # dh formed from the periodic parts keeps the exact multiple of
    # x - y; differencing raw lift values would shift the kernels by
    # cancellation noise of size eps*|lift|/(x - y).
    parts = periodic_values(m.descriptor, points)
    slopes = m.degree + evaluate_at(d1, points)
    slope_x = float(slopes[0])
    values = []
    for j, y in enumerate(ys, 1):
        dx = x - y
        dh = m.degree * dx + float(parts[0] - parts[j])
        values.append(_kernel(order, dx, dh, slope_x, float(slopes[j])))
    return values, slope_x


def _check_order(order):
    order = json_integer(order, "kernel order")
    if order not in (0, 1, 2):
        raise ValidationError("kernel order must be 0, 1, or 2")
    return order


def kernel_eval(h, order, x, y):
    """Welding kernel of a circle map, evaluated on its lift.

    Parameters
    ----------
    h : CircleMap
        Map whose lift is used as a real function near the diagonal.
    order : int
        0 for log[(h(x)-h(y))/(x-y)], 1 for h'(x)/(h(x)-h(y)) -
        1/(x-y), 2 for h'(x)h'(y)/(h(x)-h(y))^2 - 1/(x-y)^2.
    x, y : float
        Distinct angles (mod 2 pi); lift derivatives come from
        spectral differentiation of the resolved periodic part.
    """
    order = _check_order(order)
    d1 = derivative(periodic_part(h))
    return _kernel_values(h, d1, order, float(x), [float(y)])[0][0]


def kernel_eval_line(h, hp, order, x, y):
    """Same kernels for a real map given as callables h and h'."""
    order = _check_order(order)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError("kernel angles must be finite")
    if x == y:
        raise ValidationError("kernel requires x != y")
    dh = float(h(x) - h(y))  # a numpy scalar would warn, not raise
    return _kernel(order, x - y, dh, float(hp(x)), float(hp(y)))


def _checked_deltas(deltas):
    out = [float(d) for d in deltas]
    if len(out) < 2:
        raise ValidationError("extrapolation needs at least two deltas")
    if not all(math.isfinite(d) for d in out):
        raise ValidationError("deltas must be finite")
    if out[-1] <= 0.0 or any(b >= a for a, b in zip(out, out[1:])):
        raise ValidationError("deltas must be positive and strictly decreasing")
    return out


def _extrapolate(deltas, values):
    # Neville's scheme evaluated at zero; the values follow a power
    # series in delta, so polynomial extrapolation through the sampled
    # half-widths converges at the product of the node sizes.
    work = [float(v) for v in values]
    n = len(work)
    for level in range(1, n):
        for i in range(n - level):
            a, b = deltas[i], deltas[i + level]
            work[i] = (a * work[i + 1] - b * work[i]) / (a - b)
    return work[0]


def _guard_monotone(values):
    diffs = np.diff(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    significant = diffs[np.abs(diffs) > 1e-8 * scale]
    if significant.size and np.any(np.sign(significant) != np.sign(significant[0])):
        raise NumericalError(
            "deltas too large: kernel values do not approach the "
            "diagonal monotonically"
        )


def diagonal_limit(h, order, x, deltas=default_deltas):
    """Extrapolated diagonal limit of the kernel and its classical value.

    Parameters
    ----------
    h : CircleMap
    order : int
        Kernel order; the classical values are log h'(x) for order 0,
        h''(x)/(2 h'(x)) for order 1, and S(h)(x)/6 for order 2 with
        S(h) = h'''/h' - (3/2)(h''/h')^2.
    x : float
        Base angle; the kernel is sampled at y = x + delta.
    deltas : sequence of float
        Strictly decreasing positive half-widths.

    Returns
    -------
    (limit_estimate, classical_value, defect)
    """
    report = diagonal_report(h, order, x, deltas)
    return report["limit"], report["classical"], report["defect"]


def diagonal_report(h, order, x, deltas=default_deltas):
    """The diagonal_limit of one kernel as a JSON-ready record.

    `values` holds the kernel at each x + delta, the samples the limit
    is extrapolated from.
    """
    order = _check_order(order)
    x = float(x)
    deltas = _checked_deltas(deltas)
    d1 = derivative(periodic_part(h))
    values, slope = _kernel_values(h, d1, order, x, [x + d for d in deltas])
    _guard_monotone(values)
    limit = _extrapolate(deltas, values)

    if slope <= 0.0:
        raise NumericalError("lift derivative is not positive at the point")
    if order == 0:
        classical = math.log(slope)
    elif order == 1:
        classical = float(evaluate_at(derivative(d1), x)) / (2.0 * slope)
    else:
        d2 = derivative(d1)
        curv = float(evaluate_at(d2, x)) / slope
        third = float(evaluate_at(derivative(d2), x)) / slope
        classical = (third - 1.5 * curv * curv) / 6.0
    return {
        "order": order,
        "x": x,
        "deltas": deltas,
        "values": values,
        "limit": limit,
        "classical": classical,
        "defect": abs(limit - classical),
    }


def diagonal_limit_line(h, hp, order, x, deltas=default_deltas):
    """Extrapolated diagonal limit for a real map given as callables."""
    order = _check_order(order)
    x = float(x)
    deltas = _checked_deltas(deltas)
    values = [kernel_eval_line(h, hp, order, x, x + d) for d in deltas]
    _guard_monotone(values)
    return _extrapolate(deltas, values)


def _disk_matrix(d):
    if isinstance(d, Moebius):
        scale = 1.0 / math.sqrt(1.0 - abs(d.a) ** 2)
        half = np.exp(0.5j * d.beta)
        return scale * np.array(
            [[half, -d.a * half], [-np.conj(d.a * half), np.conj(half)]]
        )
    if isinstance(d, Compose):
        out = np.eye(2, dtype=np.complex128)
        for item in d.maps:
            out = out @ _disk_matrix(item)
        return out
    raise ValidationError(
        "line realization exists only for moebius-type descriptors"
    )


def moebius_line_coefficients(d):
    """Boundary action of a disk moebius map on the real line.

    The disk automorphism is conjugated by the Cayley transform into
    an automorphism of the upper half plane; its boundary action is a
    real fractional linear map x -> (p x + q)/(r x + s), returned as a
    2 x 2 coefficient matrix with unit determinant.  The order-2
    kernel of such a map vanishes identically; this is the law the
    circle lift cannot see, because lifting through the exponential
    adds (1 - (h')^2)/2 to the Schwarzian.
    """
    disk = _disk_matrix(d)
    cayley = np.array([[1.0, -1j], [1.0, 1j]])
    inverse_cayley = np.array([[1j, 1j], [-1.0, 1.0]])
    raw = inverse_cayley @ disk @ cayley
    pivot = raw.flat[int(np.argmax(np.abs(raw)))]
    aligned = raw / (pivot / abs(pivot))
    if np.max(np.abs(aligned.imag)) > 1e-9 * np.max(np.abs(aligned.real)):
        raise NumericalError(
            "conjugated coefficient matrix is not real; the descriptor "
            "does not act on the line"
        )
    real = aligned.real
    det = real[0, 0] * real[1, 1] - real[0, 1] * real[1, 0]
    if det <= 0.0:
        raise NumericalError("line realization lost orientation")
    return real / math.sqrt(det)


def fractional_linear(coefficients):
    """Callables (h, h') for x -> (p x + q)/(r x + s), det = 1."""
    mat = np.asarray(coefficients, float)
    if mat.shape != (2, 2):
        raise ValidationError("coefficients must form a 2 x 2 matrix")
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if det <= 0.0:
        raise ValidationError("coefficient determinant must be positive")
    p, q, r, s = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]

    def value(x):
        return (p * x + q) / (r * x + s)

    def slope(x):
        return det / (r * x + s) ** 2

    return value, slope
