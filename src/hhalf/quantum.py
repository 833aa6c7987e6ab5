"""Quantum derivative operators, their Hilbert-Schmidt size, and the
welding kernel with its classical diagonal limits.

The quantum derivative of a function f is the commutator [J, M_f] of
the conjugation operator with multiplication by f.  In the exponential
basis its matrix couples only modes of opposite sign, which makes it
Hilbert-Schmidt exactly when f lies in the half-order Sobolev space.
The kernel side of the same story evaluates log[(h(x)-h(y))/(x-y)] and
its first two derivative kernels near the diagonal, where they recover
log h', h''/(2h'), and the Schwarzian derivative over six.  Taken on
the circle, the order-2 kernel vanishes for every disc Moebius map.
"""

import contextlib
import math

import numpy as np

from .errors import NumericalError, ValidationError
from .fourier import json_integer, norm_squared

eps = np.finfo(float).eps
tiny = np.finfo(float).tiny
two_pi = 2.0 * np.pi

# Half-widths for diagonal extrapolation.  Map kernels keep every digit
# at any offset; kernels of callables subtract two large terms and need
# wider offsets to keep theirs.
default_deltas = (1e-3, 5e-4, 2.5e-4)
line_deltas = (0.04, 0.02, 0.01)

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
    """Kernel of the given order from x - y, h(x) - h(y), h'(x), h'(y).

    Callables have no spectrum to sum, so the kernel is formed as a - b
    (b = 0 for order 0).  A value that is not finite, an offset below
    the smallest normal float, or rounding 4 eps (|a| + |b|) above
    1e-6 max(1, |a - b|) leaves no reliable digits, and the kernel is
    refused rather than returned.
    """
    a = b = math.inf  # kept by an overflow or a division by zero
    with contextlib.suppress(ArithmeticError, ValueError):
        if order == 0:
            a, b = math.log(dh / dx), 0.0
        elif order == 1:
            a, b = slope_x / dh, 1.0 / dx
        else:
            a, b = slope_x * slope_y / dh**2, 1.0 / dx**2
    value = a - b
    noise = 4.0 * eps * (abs(a) + abs(b))
    floor = 1e-6 * max(1.0, abs(value))
    if not (math.isfinite(value) and abs(dx) >= tiny and noise <= floor):
        raise NumericalError(
            "order %d kernel has no reliable digits at offset x - y = %r"
            % (order, dx)
        )
    return value


# s2(t) = (cos t - sinc t)/t^2 = sum_{k>=1} (-1)^k 2k t^(2k-2)/(2k+1)!,
# highest power first; below |t| = 1 the terms past k = 10 are < 1e-24.
_s2_series = [
    (-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1)
]

# g(u) = 1/(4 sin^2(u/2)) - 1/u^2 is P(u^2)/sinc^2(u/2) with
# P(v) = sum_{k>=2} (-1)^k 2 v^(k-2)/(2k)!, highest power first; below
# |u| = 0.5 the terms past k = 8 are < 1e-19.  g(0) = 1/12.
_g_series = [(-1) ** k * 2 / math.factorial(2 * k) for k in range(8, 1, -1)]


def _g(u):
    small = np.abs(u) < 0.5
    near = np.where(small, u, 0.0)
    wide = np.where(small, 1.0, u)
    series = np.polyval(_g_series, near * near) / np.sinc(near / two_pi) ** 2
    direct = 0.25 / np.sin(0.5 * wide) ** 2 - 1.0 / (wide * wide)
    return np.where(small, series, direct)


def _kernel_values(m, order, xs, ys, circle=False):
    """Kernel values of a circle map at (x, x) and at (x, y) for each y.

    xs holds k base points and ys one row of angles per base point; the
    result has one row per base point, the value at (x, x) first.
    With c_n the spectrum of the resolved periodic part, d = x - y,
    t = nd/2, w_n = c_n e^{in(x + y)/2} and s2 as above, the sums
    D = (h(x) - h(y))/d = deg + sum w_n in sinc t,
    alpha = (h'(x) - D)/d = sum w_n (in^2/2)(t s2 + i sinc t), beta
    (alpha with t -> -t) and (alpha - beta)/d = sum w_n (in^3/2) s2
    give order 0 as log D, order 1 as alpha/D and order 2 as
    [D (alpha - beta)/d - alpha beta]/D^2.  No two large terms cancel,
    so every offset keeps full precision, and at y = x the values are
    the classical log h', h''/(2h') and S(h)/6.  With circle, order 2
    is circle_kernel's: the lift kernel plus h'(x)h'(y) g(Dd) - g(d),
    with h'(x) = D + alpha d and h'(y) = D - beta d.
    """
    xs = np.atleast_1d(np.asarray(xs, float))
    points = np.column_stack([xs, np.reshape(ys, (xs.size, -1))])
    if not np.all(np.isfinite(points)):
        raise ValidationError("kernel angles must be finite")
    if np.any(np.fmod(points[:, 1:] - xs[:, None], two_pi) == 0.0):
        raise ValidationError("kernel requires x != y (mod 2 pi)")
    part = m.periodic_part
    n = np.arange(-part.bandlimit, part.bandlimit + 1)
    d = xs[:, None] - points
    mid = 0.5 * (xs[:, None] + points)
    if circle:
        # The circle form is 2 pi-periodic in y.  An offset past pi goes
        # back by whole turns, exactly near +-2 pi, so 1/(4 sin^2(d/2))
        # cancels no huge terms; offsets within pi keep their bits.
        turns = np.round(d / two_pi)
        far = np.abs(d) > np.pi
        d = np.where(far, d - two_pi * turns, d)
        mid = np.where(far, mid + np.pi * turns, mid)
    t = (0.5 * d)[..., None] * n
    w = part.coeffs * np.exp(1j * (mid[..., None] * n))
    sinc = np.sinc(t / np.pi)
    slope = m.degree + np.sum(w * (1j * n) * sinc, axis=-1).real
    if not np.all(slope > 0.0):
        raise NumericalError("lift derivative is not positive at the point")
    if order == 0:
        return np.log(slope)
    small = np.abs(t) < 1.0
    wide = np.where(small, 1.0, t)
    direct = (np.cos(wide) - np.sinc(wide / np.pi)) / (wide * wide)
    s2 = np.where(small, np.polyval(_s2_series, t * t), direct)
    alpha = np.sum(w * (0.5j * n * n) * (t * s2 + 1j * sinc), axis=-1).real
    if order == 1:
        return alpha / slope
    beta = np.sum(w * (0.5j * n * n) * (1j * sinc - t * s2), axis=-1).real
    bend = np.sum(w * (0.5j * n**3) * s2, axis=-1).real
    value = (slope * bend - alpha * beta) / slope**2
    if circle:
        both = (slope + alpha * d) * (slope - beta * d)
        value += both * _g(slope * d) - _g(d)
    return value


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
        Distinct angles (mod 2 pi).  The kernel is summed over the
        spectrum of the resolved periodic part, exact to rounding at
        every offset, however small.
    """
    order = _check_order(order)
    return float(_kernel_values(h, order, float(x), [float(y)])[0, 1])


def circle_kernel(h, xs, ys):
    """Order-2 welding kernel on the circle, one row per base point in xs.

    h'(x)h'(y)/(4 sin^2((h(x) - h(y))/2)) - 1/(4 sin^2((x - y)/2)) at
    (x, x) and then at (x, y) for each y in that point's row of ys; it
    vanishes for disc Moebius maps and is [S(h) + (h'^2 - 1)/2]/6 at y = x.
    """
    return _kernel_values(h, 2, xs, ys, circle=True)


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
    is extrapolated from.  `error_estimate` is the last Neville
    correction: |limit - the extrapolant through every delta but the
    first|.  It is reported, not enforced; a window too wide for the
    kernel shows in it.
    """
    order = _check_order(order)
    x = float(x)
    deltas = _checked_deltas(deltas)
    ys = [x + d for d in deltas]
    classical, *values = _kernel_values(h, order, x, ys)[0].tolist()
    limit = _extrapolate(deltas, values)
    return {
        "order": order,
        "x": x,
        "deltas": deltas,
        "values": values,
        "limit": limit,
        "classical": classical,
        "defect": abs(limit - classical),
        "error_estimate": abs(limit - _extrapolate(deltas[1:], values[1:])),
    }


def diagonal_limit_line(h, hp, order, x, deltas=line_deltas):
    """Extrapolated diagonal limit for a real map given as callables."""
    order = _check_order(order)
    x = float(x)
    deltas = _checked_deltas(deltas)
    values = [kernel_eval_line(h, hp, order, x, x + d) for d in deltas]
    return _extrapolate(deltas, values)
