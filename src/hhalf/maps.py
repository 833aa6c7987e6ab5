"""Orientation-preserving circle maps through monotone lifts.

Every map carries an analytic descriptor and dense lift samples on its
sample grid.  Lift evaluation goes through the descriptor, so values at
arbitrary angles are exact up to rounding; the samples are that same
evaluation on the grid, done once, one per grid point, and they
certify monotonicity, feed spectral work on the periodic part and are
the lift pullbacks read, strided to their sub-grid.
The lift is the one thing evaluated: derivatives and welding kernels
read the periodic part lift - degree*theta from the samples' spectrum
(`m.periodic_part`, resolved by fourier.resolved_band as pullbacks
are), never from differences of lift values.  The periodic part is
the one thing a map computes on first use and keeps.
"""

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, MonotonicityError, ValidationError
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
    resolved_band,
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
        # _invert_lift takes Newton steps on the field's exact slope.
        if not isinstance(self.of, Flow):
            raise ValidationError(
                "Inverse wraps only a flow; inverse_descriptor gives the rest"
            )


def identity():
    return Moebius(0j)


def rotation(alpha):
    return Moebius(0j, json_real(alpha, "rotation alpha"))


def power(k):
    return Power(json_integer(k, "power degree k", 1))


def moebius(a, beta=0.0):
    if isinstance(a, bool) or not isinstance(a, numbers.Number):
        raise ValidationError("moebius a must be a number, not %r" % (a,))
    a = complex(a)
    if not cmath.isfinite(a):
        raise ValidationError("moebius a must be finite")
    return _moebius(a, beta)


def _moebius(a, beta):
    # moebius() past its type and finiteness checks on a, which
    # descriptor_from_json has already made on the two parts of a.
    if abs(a) >= 1.0:
        raise ValidationError("moebius parameter must satisfy |a| < 1")
    return Moebius(a, json_real(beta, "moebius beta"))


def flow(v, eps):
    if not isinstance(v, CircleFunction) or not v.real:
        raise ValidationError("flow field must be a real CircleFunction")
    return Flow(v, json_real(eps, "flow eps"))


def rauch_flow(m, eps):
    """Flow along v_m = -2/(m+1) sin((m+2) theta): +-i/(m+1) at +-(m+2)."""
    k = json_integer(m, "rauch_flow index m", 0) + 2
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


def _lift_values(d, x):
    """Lift of the descriptor at an array of angles."""
    if isinstance(d, Power):
        return float(d.k) * x
    if isinstance(d, Moebius):
        # w = e^{i beta} (z - a)/(1 - conj(a) z) on |z| = 1 factors as
        # e^{i(theta+beta)} conj(D)/D with D = 1 - conj(a) e^{i theta};
        # Re D > 0, so the angle never wraps and the lift is smooth.
        # At a = 0 the turn is zero: rotations and the identity are exact.
        # Any lift will do, and beta mod 2 pi keeps a large angle from
        # rounding away the low bits of x.
        beta = math.remainder(d.beta, two_pi)
        turn = 2.0 * np.angle(1.0 - np.conj(d.a) * np.exp(1j * x))
        return x + beta - turn
    if isinstance(d, Flow):
        return x + d.eps * evaluate_at(d.v, x)
    if isinstance(d, Compose):
        lift = x
        for item in reversed(d.maps):
            lift = _lift_values(item, lift)
        return lift
    if isinstance(d, Inverse):
        return _invert_lift(d.of, x)
    raise ValidationError("unknown map descriptor %r" % (d,))


def _invert_lift(d, targets):
    """Solve x + eps*v(x) = target for a flow d by safeguarded Newton.

    The forward lift at L = max(len(targets), 8 * bandlimit, 256) equally
    spaced angles, closed by one turn, is a table whose cells bracket
    every root: with whole turns taken off each target, the cell that
    np.searchsorted finds holds the root, by the same values Newton's
    residuals read.  Newton starts at the cell's linear interpolant and
    takes the exact slope 1 + eps*v'.  Each residual's sign narrows the
    point's bracket, and a step that leaves the bracket is replaced by
    its midpoint.  Once every step is below 1e-13, one more step
    polishes the roots.  The 256-cell floor starts a few scalar targets
    as close to their roots as a 256-point grid call, so strong flows
    take as few passes there.  Halving a cell of width <= 2 pi / 256
    reaches rounding in under 60 passes, which caps the pass count.
    """
    cells = max(targets.size, 8 * d.v.bandlimit, 256)
    angles = two_pi * np.arange(cells + 1) / cells
    table = angles[:-1] + d.eps * evaluate_at(d.v, angles[:-1])
    table = np.append(table, table[0] + two_pi)
    turns = np.floor((targets - table[0]) / two_pi)
    reduced = targets - two_pi * turns
    cell = np.clip(np.searchsorted(table, reduced, side="right"), 1, cells)
    lo, hi = angles[cell - 1], angles[cell]
    x = np.interp(reduced, table, angles)
    polish = False
    for count in range(1, 61):
        values, slopes = value_and_slope(d.v, x)
        lift = x + d.eps * values
        high_side = lift > reduced
        hi = np.where(high_side, x, hi)
        lo = np.where(high_side, lo, x)
        # A flat point between grid samples gives an infinite or NaN
        # step, which fails the bracket test below.
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - (lift - reduced) / (1.0 + d.eps * slopes)
        # Inclusive ends: a converged point may land on its own bracket end.
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        if polish or count == 60:
            return new + two_pi * turns
        polish = bool(np.all(np.abs(new - x) <= 1e-13))
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
        if samples.shape != (self.grid.size,):
            raise GridError("sample array does not match the grid size")
        closing = samples[0] + two_pi * self.degree - samples[-1]
        steps = np.concatenate([np.diff(samples), [closing]])
        if not np.all(steps > 0):
            raise MonotonicityError(
                "lift is not strictly increasing on the sample grid"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "lift_samples", samples)

    @cached_property
    def periodic_part(self):
        """Resolved Fourier model of lift(theta) - degree*theta, mean dropped.

        Computed on first use and kept.  The grid spectrum must pass
        resolved_band, and is cut a little above its band before any
        derivative is taken; keeping it whole would amplify the rounding
        floor by a power of the top mode.  A constant periodic part
        (rotations) is the zero function, since its spectrum is rounding.
        """
        nyquist = (self.grid.size - 1) // 2
        shifted = self.lift_samples - self.degree * self.grid.points()
        part = analyze(shifted, nyquist)
        band = _band(part, self.grid)
        if band == 0:
            return zero_function(1)
        # Slicing the full analysis equals re-analyzing at the kept band.
        keep = min(2 * band + 8, nyquist)
        coeffs = part.coeffs[nyquist - keep : nyquist + keep + 1]
        return CircleFunction(keep, coeffs)


def make_map(d, grid):
    """Construct a CircleMap after validating the descriptor.

    Flow descriptors additionally require a field below the grid's
    Nyquist mode and 1 + eps * v' > 0 on the whole circle, certified by
    _certify_flow from the exact coefficients of the field, not from
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
            raise GridError(
                "grid size %d cannot resolve a flow field of bandlimit %d, "
                "past Nyquist mode %d" % (grid.size, d.v.bandlimit, nyquist)
            )
        _certify_flow(d, grid.size)
    elif isinstance(d, Compose):
        for item in d.maps:
            _validate_descriptor(item, grid)
    elif isinstance(d, Inverse):
        _validate_descriptor(d.of, grid)


def _certify_flow(d, size):
    """Refuse a flow unless its slope 1 + eps v' is positive everywhere.

    The slope changes at rate at most |eps| sum n^2 |c_n|, so within
    half a cell pi/L of the nearest of L points 2 pi j / L it drops at
    most (pi/L) |eps| sum n^2 |c_n| below its value there.  A minimum
    over the points above that drop certifies the circle, and one at or
    below zero refuses.  L starts at the grid size and grows fourfold
    while the result is undecided; undecided at 16 times the grid size,
    the flow is refused.
    """
    slope_field = derivative(d.v)
    modes = np.arange(-d.v.bandlimit, d.v.bandlimit + 1)
    rate = abs(d.eps) * float(np.sum(modes * modes * np.abs(d.v.coeffs)))
    points = size
    while True:
        slope = 1.0 + d.eps * evaluate_at(slope_field, SampleGrid(points).points())
        low = float(np.min(slope))
        if not low > 0:
            raise MonotonicityError("flow field violates 1 + eps*v' > 0")
        if low > np.pi / points * rate:
            return
        if points >= 16 * size:
            raise MonotonicityError(
                "flow field 1 + eps*v' > 0 is not certified between %d "
                "points (minimum %.3e)" % (points, low)
            )
        points *= 4


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


def lift_bandwidth(m):
    """Largest mode of the periodic part above 1e-12 of max(1, its peak)."""
    return _band(m.periodic_part, m.grid)


def _band(part, grid):
    magnitudes = np.abs(part.coeffs)
    magnitudes /= max(1.0, magnitudes.max())
    modes = np.abs(np.arange(-part.bandlimit, part.bandlimit + 1))
    return resolved_band(magnitudes, modes, 0, grid)


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
    part = m.periodic_part
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


# Compose and inverse levels a descriptor object may nest.  Building,
# evaluating and echoing a descriptor recurse once or more per level,
# so a deeper one would reach the interpreter's recursion limit.
max_descriptor_depth = 64


def descriptor_from_json(obj):
    return _descriptor_from_json(obj, max_descriptor_depth)


def _descriptor_from_json(obj, levels):
    # levels: the compose and inverse levels still allowed at obj.
    try:
        kind = obj["type"]
    except (KeyError, TypeError):
        raise ValidationError("map descriptor object needs a 'type' field")
    if not isinstance(kind, str) or kind not in _descriptor_fields:
        raise ValidationError("unknown map descriptor type %r" % (kind,))
    if kind in ("compose", "inverse"):
        if levels == 0:
            raise ValidationError(
                "map descriptor nests compose and inverse past %d levels"
                % max_descriptor_depth
            )
        levels -= 1
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
            return _moebius(a, obj.get("beta", 0.0))
        if kind == "flow":
            return flow(function_from_json(obj["v"]), obj["eps"])
        if kind == "rauch_flow":
            return rauch_flow(obj["m"], obj["eps"])
        if kind == "compose":
            return compose_descriptors(
                [_descriptor_from_json(x, levels) for x in obj["maps"]]
            )
        if kind == "inverse":
            return inverse_descriptor(_descriptor_from_json(obj["of"], levels))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("malformed %s descriptor: %s" % (kind, exc))
