"""Orientation-preserving circle maps through monotone lifts.

Every map carries an analytic descriptor and dense lift samples on its
sample grid.  Lift evaluation goes through the descriptor, so values at
arbitrary angles are exact up to rounding; the samples are that same
evaluation on the grid, done once, and they certify monotonicity, feed
spectral work on the periodic part and are the lift pullbacks read.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, MonotonicityError, ValidationError
from .fourier import (
    CircleFunction,
    SampleGrid,
    analyze,
    derivative,
    evaluate_at,
    from_modes,
    function_from_json,
    function_to_json,
    json_fields,
    json_integer,
    json_real,
    synthesize,
    value_and_slope,
    zero_function,
)

two_pi = 2.0 * np.pi


@dataclass(frozen=True)
class Power:
    k: int


@dataclass(frozen=True)
class Moebius:
    a: complex
    beta: float = 0.0


@dataclass(frozen=True)
class Flow:
    v: CircleFunction
    eps: float


@dataclass(frozen=True)
class Compose:
    maps: tuple  # outermost first, applied right to left


@dataclass(frozen=True)
class Inverse:
    of: Flow

    def __post_init__(self):
        # _invert_lift brackets roots by the flow's coefficients.
        if not isinstance(self.of, Flow):
            raise ValidationError(
                "Inverse wraps only a flow; inverse_descriptor gives the rest"
            )


def identity():
    return Moebius(0j)


def rotation(alpha):
    return Moebius(0j, json_real(alpha, "rotation alpha"))


def power(k):
    k = json_integer(k, "power degree k")
    if k < 1:
        raise ValidationError("power descriptor needs a positive integer degree")
    return Power(k)


def moebius(a, beta=0.0):
    if isinstance(a, bool) or not isinstance(a, numbers.Number):
        raise ValidationError("moebius a must be a number, not %r" % (a,))
    a = complex(a)
    if not cmath.isfinite(a):
        raise ValidationError("moebius a must be finite")
    if abs(a) >= 1.0:
        raise ValidationError("moebius parameter must satisfy |a| < 1")
    return Moebius(a, json_real(beta, "moebius beta"))


def flow(v, eps):
    if not isinstance(v, CircleFunction) or not v.real:
        raise ValidationError("flow field must be a real CircleFunction")
    return Flow(v, json_real(eps, "flow eps"))


def rauch_flow(m, eps):
    """Flow along v_m = -2/(m+1) sin((m+2) theta): +-i/(m+1) at +-(m+2)."""
    m = json_integer(m, "rauch_flow index m")
    if m < 0:
        raise ValidationError("rauch_flow index must be a nonnegative integer")
    k = m + 2
    v = from_modes(k, {k: 1j / (k - 1), -k: -1j / (k - 1)}, real=True)
    return flow(v, json_real(eps, "rauch_flow eps"))


def compose_descriptors(maps):
    maps = tuple(maps)
    if not maps:
        raise ValidationError("compose needs at least one descriptor")
    return Compose(maps)


def inverse_descriptor(of):
    """Inverse in normal form: only a flow is left wrapped in Inverse.

    Moebius maps invert in closed form, compositions factor by factor
    in reverse order, an inverse unwraps and power(1) is its own
    inverse.
    """
    if descriptor_degree(of) != 1:
        raise ValidationError("only degree-1 maps are invertible")
    if isinstance(of, Moebius):
        # Adding zero drops the signed zeros that a = 0 or beta = 0 would
        # otherwise echo.
        return moebius(-of.a * cmath.exp(1j * of.beta) + 0j, 0.0 - of.beta)
    if isinstance(of, Compose):
        return Compose(tuple(inverse_descriptor(d) for d in reversed(of.maps)))
    if isinstance(of, Inverse):
        return of.of
    if isinstance(of, Power):
        return of
    return Inverse(of)


def descriptor_degree(d):
    if isinstance(d, Power):
        return d.k
    if isinstance(d, Compose):
        deg = 1
        for item in d.maps:
            deg *= descriptor_degree(item)
        return deg
    return 1


def _walk(d, x):
    """Lift of the descriptor at arbitrary angles and its periodic part.

    The periodic part lift(x) - degree*x is walked, not formed from lift
    values, which would lose its low bits where |x| dominates; rotations
    stay exact, which matters for kernels built from lift differences.
    """
    if isinstance(d, Power):
        return float(d.k) * x, np.zeros(x.shape)
    if isinstance(d, Moebius):
        # w = e^{i beta} (z - a)/(1 - conj(a) z) on |z| = 1 factors as
        # e^{i(theta+beta)} conj(D)/D with D = 1 - conj(a) e^{i theta};
        # Re D > 0, so the angle never wraps and the lift is smooth.
        # At a = 0 the turn is zero: rotations and the identity are exact.
        # Any lift will do, and beta mod 2 pi keeps a large angle from
        # rounding away the low bits of x.
        beta = math.remainder(d.beta, two_pi)
        turn = 2.0 * np.angle(1.0 - np.conj(d.a) * np.exp(1j * x))
        return x + beta - turn, beta - turn
    if isinstance(d, Flow):
        part = d.eps * evaluate_at(d.v, x)
        return x + part, part
    if isinstance(d, Compose):
        lift, part = x, np.zeros(x.shape)
        for item in reversed(d.maps):
            lift, step = _walk(item, lift)
            part = descriptor_degree(item) * part + step
        return lift, part
    if isinstance(d, Inverse):
        return _invert_lift(d.of, x)
    raise ValidationError("unknown map descriptor %r" % (d,))


def _lift_values(d, x):
    return _walk(d, x)[0]


def periodic_values(d, x):
    """Periodic part lift(x) - degree*x, evaluated without cancellation."""
    return _walk(d, np.asarray(x, float))[1]


def _invert_lift(d, targets):
    """Solve x + eps*v(x) = target for a flow d by safeguarded Newton.

    Returns the roots and the inverse's periodic part, root - target.

    |eps*v| <= |eps| sum |c_n| brackets every root.  Newton starts at
    target - eps*v(target), inside that bracket, and takes the exact
    slope 1 + eps*v'.  Each residual's sign narrows that point's
    bracket, and a step that leaves the bracket is replaced by its
    midpoint.  Once every step is below 1e-13 per unit of
    max(1, |target|), one more step polishes the roots.  The pass count
    is capped by the bisection steps that take the bracket down to a
    width of 2 pi 2^-60.
    """
    radius = abs(d.eps) * float(np.sum(np.abs(d.v.coeffs)))
    # Rounding margin, so lift(lo) <= target <= lift(hi) in floating point.
    radius += 64.0 * np.finfo(float).eps * (
        1.0 + radius + float(np.max(np.abs(targets), initial=0.0))
    )
    lo = targets - radius
    hi = targets + radius
    tol = 1e-13 * np.maximum(1.0, np.abs(targets))
    # Within about eps^2 |v v'| of the root.
    x = targets - d.eps * evaluate_at(d.v, targets)
    polish = False
    passes = max(1, math.ceil(math.log2(radius / np.pi)) + 60)
    for count in range(1, passes + 1):
        values, slopes = value_and_slope(d.v, x)
        lift = x + d.eps * values
        high_side = lift > targets
        hi = np.where(high_side, x, hi)
        lo = np.where(high_side, lo, x)
        # A flat point between grid samples gives an infinite or NaN
        # step, which fails the bracket test below.
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - (lift - targets) / (1.0 + d.eps * slopes)
        # Inclusive ends: a converged point may land on its own bracket end.
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        if polish or count == passes:
            # The periodic part -eps*v(new) from the values and slopes
            # just read; the remainder eps*v''*(new - x)**2/2 is of
            # order 1e-26 after a converged step.
            return new, -d.eps * (values + slopes * (new - x))
        polish = bool(np.all(np.abs(new - x) <= tol))
        x = new


@dataclass(frozen=True)
class CircleMap:
    """A constructed map: descriptor, sample grid, lift on that grid."""

    descriptor: object
    grid: SampleGrid
    lift_samples: np.ndarray

    @property
    def degree(self):
        return descriptor_degree(self.descriptor)

    def __post_init__(self):
        samples = np.asarray(self.lift_samples, float)
        closing = samples[0] + two_pi * self.degree - samples[-1]
        steps = np.concatenate([np.diff(samples), [closing]])
        if not np.all(steps > 0):
            raise MonotonicityError(
                "lift is not strictly increasing on the sample grid"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "lift_samples", samples)


def make_map(d, grid):
    """Construct a CircleMap after validating the descriptor.

    Flow descriptors additionally require a field below the grid's
    Nyquist mode and 1 + eps * v' > 0 at the grid points; the derivative
    is evaluated from the exact coefficients of the field, not from
    resampled values.
    """
    _validate_descriptor(d, grid)
    points = grid.points()
    samples = _lift_values(d, points)
    return CircleMap(d, grid, samples)


def _validate_descriptor(d, grid):
    if isinstance(d, Flow):
        # Refused before any evaluation, which costs the field's bandlimit
        # times the grid size.
        nyquist = (grid.size - 1) // 2
        if d.v.bandlimit > nyquist:
            raise AliasingError(
                "grid size %d cannot resolve a flow field of bandlimit %d, "
                "past Nyquist mode %d" % (grid.size, d.v.bandlimit, nyquist)
            )
        slope = 1.0 + d.eps * evaluate_at(derivative(d.v), grid.points())
        if not np.all(slope > 0):
            raise MonotonicityError(
                "flow field violates 1 + eps*v' > 0 on the grid"
            )
    elif isinstance(d, Compose):
        for item in d.maps:
            _validate_descriptor(item, grid)
    elif isinstance(d, Inverse):
        _validate_descriptor(d.of, grid)


def evaluate_lift(m, theta):
    """Lift value at a scalar angle or an array of angles."""
    arr = np.asarray(theta, float)
    values = _lift_values(m.descriptor, np.atleast_1d(arr.ravel()))
    values = values.reshape(np.atleast_1d(arr).shape)
    if arr.ndim == 0:
        return float(values[0])
    return values


def compose(outer, inner):
    """Composition outer after inner, on their common grid."""
    if outer.grid != inner.grid:
        raise ValidationError("composition needs a common sample grid")
    d = Compose((outer.descriptor, inner.descriptor))
    samples = _lift_values(outer.descriptor, inner.lift_samples)
    return CircleMap(d, outer.grid, samples)


def periodic_part(m):
    """Resolved Fourier model of lift(theta) - degree*theta, mean dropped.

    The grid spectrum is cut a little above its active band before any
    derivative is taken; keeping it whole would amplify the rounding
    floor by a power of the top mode.  A lift whose band reaches the
    grid's Nyquist mode is refused, and a constant periodic part
    (rotations) is the zero function, since its spectrum is rounding.
    """
    nyquist = (m.grid.size - 1) // 2
    points = m.grid.points()
    part = analyze(m.lift_samples - m.degree * points, m.grid, nyquist)
    band = active_band(part)
    if band >= nyquist:
        raise ValidationError(
            "lift spectrum does not resolve on the map grid; derivatives "
            "of the lift need a smooth, resolved descriptor"
        )
    if band == 0:
        return zero_function(1)
    # Slicing the full analysis equals re-analyzing at the kept band.
    keep = min(2 * band + 8, nyquist)
    coeffs = part.coeffs[nyquist - keep : nyquist + keep + 1]
    return CircleFunction(keep, coeffs, part.real)


def active_band(part):
    """Largest mode of a periodic part above 1e-12 of max(1, its peak)."""
    mags = np.abs(part.coeffs)
    floor = 1e-12 * max(1.0, float(mags.max()))
    active = np.nonzero(mags > floor)[0]
    if active.size == 0:
        return 0
    return int(np.max(np.abs(active - part.bandlimit)))


def lift_bandwidth(m):
    """Largest active mode of the periodic part, by coefficient size."""
    return active_band(periodic_part(m))


def qs_ratio(m):
    """Sampled quasisymmetry ratio, a lower bound for the true constant.

    For each grid cell midpoint x and half-length t in (pi/4, pi/8)
    the ratio (lift(x+t)-lift(x))/(lift(x)-lift(x-t)) is formed; the
    report is the maximum of ratio and 1/ratio over all samples.
    """
    if m.degree != 1:
        raise ValidationError("quasisymmetry ratio is defined for degree 1")
    mids = m.grid.points() + np.pi / m.grid.size
    center = _lift_values(m.descriptor, mids)
    worst = 1.0
    for t in (np.pi / 4.0, np.pi / 8.0):
        upper = _lift_values(m.descriptor, mids + t) - center
        lower = center - _lift_values(m.descriptor, mids - t)
        ratio = upper / lower
        worst = max(worst, float(np.max(ratio)), float(np.max(1.0 / ratio)))
    return worst


def radial_dilatation(m):
    """Dilatation K of the radial extension r e^{i theta} -> r e^{i lift}.

    K = max over the grid of max(lift', 1/lift'), with lift' obtained
    by spectral differentiation of the resolved periodic part.
    """
    if m.degree != 1:
        raise ValidationError("radial dilatation is defined for degree 1")
    part = periodic_part(m)
    slope = 1.0 + synthesize(derivative(part), m.grid)
    low = float(np.min(slope))
    high = float(np.max(slope))
    if low <= 0:
        raise MonotonicityError("lift derivative is not positive on the grid")
    return max(high, 1.0 / low)


def descriptor_to_json(d):
    if isinstance(d, Power):
        return {"type": "power", "k": d.k}
    if isinstance(d, Moebius):
        return {
            "type": "moebius",
            "a": {"re": d.a.real, "im": d.a.imag},
            "beta": d.beta,
        }
    if isinstance(d, Flow):
        return {"type": "flow", "v": function_to_json(d.v), "eps": d.eps}
    if isinstance(d, Compose):
        return {"type": "compose", "maps": [descriptor_to_json(x) for x in d.maps]}
    if isinstance(d, Inverse):
        return {"type": "inverse", "of": descriptor_to_json(d.of)}
    raise ValidationError("unknown map descriptor %r" % (d,))


# The fields of each descriptor type besides "type".
_descriptor_fields = {
    "identity": (),
    "rotation": ("alpha",),
    "power": ("k",),
    "moebius": ("a", "beta"),
    "flow": ("v", "eps"),
    "rauch_flow": ("m", "eps"),
    "compose": ("maps",),
    "inverse": ("of",),
}


def descriptor_from_json(obj):
    try:
        kind = obj["type"]
    except (KeyError, TypeError):
        raise ValidationError("map descriptor object needs a 'type' field")
    if not isinstance(kind, str) or kind not in _descriptor_fields:
        raise ValidationError("unknown map descriptor type %r" % (kind,))
    json_fields(obj, ("type",) + _descriptor_fields[kind], "%s descriptor" % kind)
    try:
        if kind == "identity":
            return identity()
        if kind == "rotation":
            return rotation(obj["alpha"])
        if kind == "power":
            return power(obj["k"])
        if kind == "moebius":
            a, name = obj["a"], "moebius a"
            re, im = a["re"], a.get("im", 0.0)
            json_fields(a, ("re", "im"), name)
            a = complex(json_real(re, name), json_real(im, name))
            return moebius(a, obj.get("beta", 0.0))
        if kind == "flow":
            return flow(function_from_json(obj["v"]), obj["eps"])
        if kind == "rauch_flow":
            return rauch_flow(obj["m"], obj["eps"])
        if kind == "compose":
            return compose_descriptors(
                [descriptor_from_json(x) for x in obj["maps"]]
            )
        if kind == "inverse":
            return inverse_descriptor(descriptor_from_json(obj["of"]))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("malformed %s descriptor: %s" % (kind, exc))
