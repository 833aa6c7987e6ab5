"""Orientation-preserving circle maps through monotone lifts.

Every map carries an analytic descriptor and dense lift samples on its
sample grid.  Lift evaluation goes through the descriptor, so values at
arbitrary angles are exact up to rounding; the samples are that same
evaluation on the grid, done once, and they certify monotonicity, feed
spectral work on the periodic part and are the lift pullbacks read.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, NumericalError, ValidationError
from .fourier import (
    CircleFunction,
    SampleGrid,
    analyze,
    derivative,
    evaluate_at,
    function_from_json,
    function_to_json,
    synthesize,
)

two_pi = 2.0 * np.pi


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Rotation:
    alpha: float


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
class RauchFlow:
    m: int
    eps: float


@dataclass(frozen=True)
class Compose:
    maps: tuple  # outermost first, applied right to left


@dataclass(frozen=True)
class Inverse:
    of: object


def identity():
    return Identity()


def _finite(value, name):
    """float(value), refused by name when it is NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError("%s must be finite" % name)
    return value


def rotation(alpha):
    return Rotation(_finite(alpha, "rotation alpha"))


def power(k):
    if int(k) != k or k < 1:
        raise ValidationError("power descriptor needs a positive integer degree")
    return Power(int(k))


def moebius(a, beta=0.0):
    a = complex(a)
    if not cmath.isfinite(a):
        raise ValidationError("moebius a must be finite")
    if abs(a) >= 1.0:
        raise ValidationError("moebius parameter must satisfy |a| < 1")
    return Moebius(a, _finite(beta, "moebius beta"))


def flow(v, eps):
    if not isinstance(v, CircleFunction) or not v.real:
        raise ValidationError("flow field must be a real CircleFunction")
    return Flow(v, _finite(eps, "flow eps"))


def rauch_flow(m, eps):
    if int(m) != m or m < 0:
        raise ValidationError("rauch_flow index must be a nonnegative integer")
    return RauchFlow(int(m), _finite(eps, "rauch_flow eps"))


def compose_descriptors(maps):
    maps = tuple(maps)
    if not maps:
        raise ValidationError("compose needs at least one descriptor")
    return Compose(maps)


def inverse_descriptor(of):
    if descriptor_degree(of) != 1:
        raise ValidationError("only degree-1 maps are invertible")
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
    if isinstance(d, Identity):
        return x.copy(), np.zeros(x.shape)
    if isinstance(d, Rotation):
        return x + d.alpha, np.full(x.shape, d.alpha)
    if isinstance(d, Power):
        return float(d.k) * x, np.zeros(x.shape)
    if isinstance(d, Moebius):
        # w = e^{i beta} (z - a)/(1 - conj(a) z) on |z| = 1 factors as
        # e^{i(theta+beta)} conj(D)/D with D = 1 - conj(a) e^{i theta};
        # Re D > 0, so the angle never wraps and the lift is smooth.
        turn = 2.0 * np.angle(1.0 - np.conj(d.a) * np.exp(1j * x))
        return x + d.beta - turn, d.beta - turn
    if isinstance(d, Flow):
        part = d.eps * evaluate_at(d.v, x)
        return x + part, part
    if isinstance(d, RauchFlow):
        part = -(2.0 * d.eps / (d.m + 1)) * np.sin((d.m + 2) * x)
        return x + part, part
    if isinstance(d, Compose):
        lift, part = x, np.zeros(x.shape)
        for item in reversed(d.maps):
            lift, step = _walk(item, lift)
            part = descriptor_degree(item) * part + step
        return lift, part
    if isinstance(d, Inverse):
        lift = _invert_lift(d.of, x)
        return lift, -_walk(d.of, lift)[1]
    raise ValidationError("unknown map descriptor %r" % (d,))


def _lift_values(d, x):
    return _walk(d, x)[0]


def periodic_values(d, x):
    """Periodic part lift(x) - degree*x, evaluated without cancellation."""
    return _walk(d, np.asarray(x, float))[1]


def _invert_lift(d, targets):
    """Solve lift(x) = target by bisection, vectorized over targets."""
    radius = np.pi
    for _ in range(64):
        lo = targets - radius
        hi = targets + radius
        if np.all(_lift_values(d, lo) <= targets) and np.all(
            _lift_values(d, hi) >= targets
        ):
            break
        radius *= 2.0
    else:
        raise NumericalError("could not bracket the inverse lift")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        high_side = _lift_values(d, mid) > targets
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CircleMap:
    """A constructed map: descriptor, sample grid, lift on that grid."""

    descriptor: object
    grid: SampleGrid
    degree: int
    lift_samples: np.ndarray

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

    Flow descriptors additionally require 1 + eps * v' > 0 at the grid
    points; the derivative is evaluated from the exact coefficients of
    the field, not from resampled values.
    """
    _validate_descriptor(d, grid)
    points = grid.points()
    samples = _lift_values(d, points)
    return CircleMap(d, grid, descriptor_degree(d), samples)


def _validate_descriptor(d, grid):
    if isinstance(d, (Flow, RauchFlow)):
        points = grid.points()
        if isinstance(d, Flow):
            slope = 1.0 + d.eps * evaluate_at(derivative(d.v), points)
        else:
            rate = 2.0 * d.eps * (d.m + 2) / (d.m + 1)
            slope = 1.0 - rate * np.cos((d.m + 2) * points)
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
    return CircleMap(d, outer.grid, outer.degree * inner.degree, samples)


def invert(m):
    """Inverse homeomorphism, evaluated by monotone bisection."""
    if m.degree != 1:
        raise ValidationError("only degree-1 maps are invertible")
    return make_map(Inverse(m.descriptor), m.grid)


def periodic_part(m, bandlimit=None):
    """Fourier model of lift(theta) - degree*theta (mean dropped)."""
    if bandlimit is None:
        bandlimit = (m.grid.size - 1) // 2
    points = m.grid.points()
    return analyze(m.lift_samples - m.degree * points, m.grid, bandlimit)


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
    by spectral differentiation of the periodic part.
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
    if isinstance(d, Identity):
        return {"type": "identity"}
    if isinstance(d, Rotation):
        return {"type": "rotation", "alpha": d.alpha}
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
    if isinstance(d, RauchFlow):
        return {"type": "rauch_flow", "m": d.m, "eps": d.eps}
    if isinstance(d, Compose):
        return {"type": "compose", "maps": [descriptor_to_json(x) for x in d.maps]}
    if isinstance(d, Inverse):
        return {"type": "inverse", "of": descriptor_to_json(d.of)}
    raise ValidationError("unknown map descriptor %r" % (d,))


def descriptor_from_json(obj):
    try:
        kind = obj["type"]
    except (KeyError, TypeError):
        raise ValidationError("map descriptor object needs a 'type' field")
    try:
        if kind == "identity":
            return identity()
        if kind == "rotation":
            return rotation(float(obj["alpha"]))
        if kind == "power":
            return power(obj["k"])
        if kind == "moebius":
            a = obj["a"]
            return moebius(
                complex(float(a["re"]), float(a.get("im", 0.0))),
                float(obj.get("beta", 0.0)),
            )
        if kind == "flow":
            return flow(function_from_json(obj["v"]), float(obj["eps"]))
        if kind == "rauch_flow":
            return rauch_flow(obj["m"], float(obj["eps"]))
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
    raise ValidationError("unknown map descriptor type %r" % (kind,))
