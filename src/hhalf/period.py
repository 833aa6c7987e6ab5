"""Period matrices, the Siegel disc, and deformation diagnostics.

A degree-1 circle map phi sends the holomorphic half W+ to the graph
of the period matrix Z = conj(B) A^{-1} built from the pullback
blocks.  The block operator is symplectic, A A* - B B* = I, so Z is
computed as conj(B) A* (I + B B*)^{-1}, whose inverted matrix is
Hermitian with eigenvalues >= 1 (Nag and Sullivan, Osaka J. Math. 32,
1995).  Z is symmetric and strictly contractive, so it lands in the
Siegel disc.  At a finite width the solved matrix Z0 is not exactly
symmetric; for a forward map its truncation error sits in the upper
triangle, so every Z formed here keeps the lower triangle of Z0,
mirrored, and carries max |Z0 - Z0^T| as its truncation estimate.  The
estimate is not a bound: an inverse flow's error is nearly symmetric,
and the estimate sees only part of it.  period_matrix widens the
blocks until the N x N corner's estimate is at most truncation_limit,
or refuses.  Composition acts on block operators by the group law
T(phi o psi) = T(psi) T(phi), which equivariance_defect compares
through Z, and the first variation of Z along a vector field has a
closed form checked here by finite differences.  Every complex
structure is built from a period matrix; for Z(phi) it is the
pulled-back structure T J0 T^{-1}, and any block operator T enters
through period_from_blocks(T), its image of the origin.
"""

import math

from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    ConditioningError,
    NumericalError,
    ValidationError,
)
from .fourier import (
    CircleFunction,
    _energy,
    _extended,
    _finite,
    _hermitian,
    h_half_norm,
    json_fields,
    json_integer,
    json_real,
    matrix_from_json,
)
from .maps import (
    compose,
    descriptor_from_json,
    descriptor_to_json,
    make_map,
    rauch_flow,
)
from .pullback import BlockOperator, _apply_rows, pullback_matrix, read_cutoff

condition_limit = 1e12
# Largest truncation estimate period_matrix emits.
truncation_limit = 1e-6


def _right_divide(numerator, denominator, name):
    """numerator @ inv(denominator), or a refusal if it is ill conditioned."""
    condition = float(np.linalg.cond(denominator))
    if not condition < condition_limit:
        raise ConditioningError(
            "%s is numerically singular (cond %.3e)" % (name, condition)
        )
    return np.linalg.solve(denominator.T, numerator.T).T


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric contraction Z describing a deformed polarization.

    inner_width is the block width Z was solved at, and
    truncation_estimate estimates how far Z is from the converged
    period matrix; left out, they are the cutoff and Z's own symmetry defect
    max |Z - Z^T|.  A complex128 array given for Z is kept, not copied,
    and becomes read-only.
    """

    cutoff: int
    Z: np.ndarray
    source: object = None
    inner_width: int = None
    truncation_estimate: float = None

    def __post_init__(self):
        n = read_cutoff(self.cutoff)
        object.__setattr__(self, "cutoff", n)
        z = np.asarray(self.Z, np.complex128)
        if z.shape != (self.cutoff, self.cutoff):
            raise ValidationError("Z must be %d x %d" % (n, n))
        if not np.all(np.isfinite(z)):
            raise ValidationError("Z entries must be finite")
        width = self.inner_width
        width = n if width is None else json_integer(width, "inner_width", n)
        estimate = self.truncation_estimate
        if estimate is None:
            estimate = float(np.max(np.abs(z - z.T)))
        elif json_real(estimate, "truncation_estimate") < 0.0:
            raise ValidationError("truncation_estimate must be >= 0")
        z.flags.writeable = False
        object.__setattr__(self, "Z", z)
        object.__setattr__(self, "inner_width", width)
        object.__setattr__(self, "truncation_estimate", float(estimate))


@dataclass(frozen=True)
class SiegelReport:
    """Membership diagnostics for a candidate period matrix."""

    symmetry_defect: float
    sigma_max: float
    min_eig_I_minus_ZZbar: float

    @property
    def member(self):
        return self.sigma_max < 1.0 and self.min_eig_I_minus_ZZbar > 0.0


def period_matrix(m, cutoff, grid):
    """Period matrix of a circle map, converged in the block width.

    The blocks are assembled at width N' = N, the cutoff, and solved;
    while the truncation estimate of the N x N corner exceeds
    truncation_limit, N' doubles, up to min(8 N, M / 4) on the map's M
    grid points.  Past that cap, or where the grid cannot resolve the
    wider blocks, the map is refused with a NumericalError that names
    the estimate and N'.  The mirrored corner is returned with
    inner_width N' and its estimate; at N' = N it is
    period_from_blocks(pullback_matrix(m, N, grid), m.descriptor).
    """
    n = read_cutoff(cutoff)
    z, estimate = _mirrored_corner(pullback_matrix(m, n, grid), n)
    width, cap = n, min(8 * n, grid.size // 4)
    while estimate > truncation_limit:
        unconverged = (
            "Z has not converged: truncation estimate %.3e exceeds %g "
            "at inner width %d" % (estimate, truncation_limit, width)
        )
        if width >= cap:
            raise NumericalError(unconverged + ", the cap min(8 N, M / 4)")
        width = min(2 * width, cap)
        try:
            t = pullback_matrix(m, width, grid)
        except AliasingError as exc:
            raise NumericalError("%s; width %d: %s" % (unconverged, width, exc))
        z, estimate = _mirrored_corner(t, n)
    return PeriodMatrix(n, z, m.descriptor, width, estimate)


def period_from_blocks(t, source=None):
    """Z = conj(B) A* (I + B B*)^{-1} of a block operator at its cutoff.

    This is conj(B) A^{-1}, the image of the origin, through the
    symplectic identity A A* = I + B B*; the solved matrix Z0 is
    Hermitian with eigenvalues >= 1, so no refusal is needed.  Z keeps
    the lower triangle of Z0, tril(Z0) + tril(Z0, -1)^T, so it is
    exactly symmetric, with inner_width the cutoff and truncation
    estimate max |Z0 - Z0^T|, where the truncation error shows.  source
    is the map descriptor behind t, if any.
    """
    z, estimate = _mirrored_corner(t, t.cutoff)
    return PeriodMatrix(t.cutoff, z, source, t.cutoff, estimate)


def _mirrored_corner(t, n):
    """The n x n corner of Z0 = conj(B) A* (I + B B*)^{-1}, mirrored.

    Returns tril(Z0) + tril(Z0, -1)^T on that corner, each entry on or
    below the diagonal and its mirror image taken from Z0 as is, and
    the symmetry defect max |Z0 - Z0^T| before mirroring.  Only the
    first n columns of the solve are formed.
    """
    gram = np.eye(t.cutoff) + t.B @ np.conj(t.B.T)
    z = np.conj(np.linalg.solve(gram, t.A @ t.B[:n].T)[:n]).T
    defect = float(np.max(np.abs(z - z.T)))
    return np.where(np.tri(n, dtype=bool), z, z.T), defect


def siegel_membership(p):
    """Report symmetry and contraction diagnostics for Z.

    An exactly symmetric Z, as every Z formed here is, takes one
    Hermitian eigensolve: Z conj(Z) = Z Z*, so the eigenvalues of
    I - Z conj(Z) are 1 - lambda for lambda those of Z Z*, and
    sigma_max is sqrt(lambda_max).  Any other Z takes an SVD for
    sigma_max and the smallest eigenvalue of the Hermitian part of
    I - Z conj(Z).
    """
    z = p.Z
    if np.array_equal(z, z.T):
        top = float(np.linalg.eigvalsh(z @ np.conj(z.T))[-1])
        return SiegelReport(0.0, math.sqrt(max(top, 0.0)), 1.0 - top)
    defect = float(np.max(np.abs(z - z.T)))
    sigma = float(np.linalg.svd(z, compute_uv=False)[0])
    gram = np.eye(p.cutoff) - z @ np.conj(z)
    gram = 0.5 * (gram + np.conj(gram.T))
    low = float(np.min(np.linalg.eigvalsh(gram)))
    return SiegelReport(defect, sigma, low)


def siegel_action(t, p):
    """Fractional-linear action of a block operator on Z.

    Returns (conj(B) + conj(A) Z)(A + B Z)^{-1}.  Z is user supplied,
    so a denominator too ill conditioned to solve is refused.
    """
    if t.cutoff != p.cutoff:
        raise ValidationError("operator and period matrix cutoffs differ")
    z = p.Z
    denominator = t.A + t.B @ z
    numerator = np.conj(t.B) + np.conj(t.A) @ z
    moved = _right_divide(numerator, denominator, "A + B Z")
    return PeriodMatrix(p.cutoff, moved)


def equivariance_defect(outer, inner, cutoff):
    """max |Z(T(psi) T(phi)) - Z(phi o psi)| for phi outer, psi inner.

    Composition is the group law T(phi o psi) = T(psi) T(phi) on the
    maps' common grid; both period matrices come from period_from_blocks
    at width N, like for like, so neither side is widened.
    """
    composed = period_from_blocks(
        pullback_matrix(compose(outer, inner), cutoff, outer.grid)
    )
    product = pullback_matrix(inner, cutoff, inner.grid) @ pullback_matrix(
        outer, cutoff, outer.grid
    )
    return float(np.max(np.abs(period_from_blocks(product).Z - composed.Z)))


def period_derivative(v, cutoff):
    """First variation of Z along the flow of a real vector field v.

    Entry (r, s) is i sqrt(rs) c_{-(r+s)}(v): symmetric, blind to the
    Moebius modes +-1 (r + s >= 2), and with squared Hilbert-Schmidt
    norm the Weil-Petersson form (1/6) sum_{k>0} (k^3 - k) |c_k|^2 once
    cutoff >= bandlimit - 1 (Nag and Sullivan).
    """
    if not isinstance(v, CircleFunction) or not v.real:
        raise ValidationError("vector field must be a real CircleFunction")
    cutoff = read_cutoff(cutoff)
    r = np.arange(1, cutoff + 1)
    # lower[k] = c_{-k}, zero-padded past the band of v.
    lower = np.append(v.coeffs[v.bandlimit :: -1], np.zeros(2 * cutoff))
    return 1j * np.sqrt(np.outer(r, r)) * lower[r[:, None] + r[None, :]]


def rauch_derivative(m, cutoff):
    """Entry (r, s) is sqrt(rs)/(r+s-1) on r + s = m + 2, zero elsewhere."""
    return period_derivative(rauch_flow(m, 0.0).v, cutoff)


def rauch_fd_defect(m, eps, cutoff, grid):
    """Distance between Z(rauch_flow(m, eps))/eps and the closed form.

    Restricted to entries with r + s <= min(cutoff, 10), where the
    first-order finite-difference error dominates; decays linearly in
    eps.  An index whose antidiagonal r + s = m + 2 lies outside that
    window is refused: the comparison would see only zeros, and so is
    eps = 0, where the quotient is not defined.
    """
    cutoff = read_cutoff(cutoff)
    if eps == 0.0:
        raise ValidationError("rauch_fd_defect needs a nonzero eps")
    window = min(cutoff, 10)
    if not 2 <= m + 2 <= window:
        raise ValidationError(
            "index m puts the derivative on r + s = %s, outside the "
            "compared window 2 <= r + s <= %d" % (m + 2, window)
        )
    descriptor = rauch_flow(m, eps)
    z = period_matrix(make_map(descriptor, grid), cutoff, grid).Z
    derivative = period_derivative(descriptor.v, cutoff)
    indices = np.arange(1, cutoff + 1)
    compared = indices[:, None] + indices[None, :] <= window
    return float(np.max(np.abs(z / eps - derivative)[compared]))


def structure_from_period(p):
    """Complex structure with the graph of Z as its -i eigenspace.

    The conjugate graph is the +i eigenspace.  With S = I - conj(Z) Z,
    P = [[I, conj Z], [Z, I]] has S^{-1} [I, -conj Z] as the first block
    row of its inverse, so P J0 P^{-1} has A = -i (2 S^{-1} - I), B = 2i
    S^{-1} conj(Z) and lower blocks exactly conj(B), conj(A).  For the
    period matrix of a pullback T this is T J0 T^{-1}, the columns
    [A; conj B] spanning graph(Z) and [B; conj A] its conjugate, as far
    as the truncated blocks keep the symplectic identity A A* - B B* = I
    that period_from_blocks assumes: exactly in the limit, and at a
    finite cutoff only where the corner has converged.  Z is user
    supplied here, so an ill conditioned S is refused.
    """
    eye = np.eye(p.cutoff)
    z_bar = np.conj(p.Z)
    s_inv = _right_divide(eye, eye - z_bar @ p.Z, "I - conj(Z) Z")
    return BlockOperator(p.cutoff, -1j * (2 * s_inv - eye), 2j * s_inv @ z_bar)


def integrability_residual(p, trial_functions):
    """Worst multiplicativity defect of the structure built from Z.

    For every pair (f, g) of real trial functions the residual
    ||J[fg - (Jf)(Jg)] - f(Jg) - g(Jf)|| / (||f|| ||g||) measures how
    far the -i eigenspace of J = structure_from_period(p) is from being
    multiplication closed; it vanishes for the period matrix of a
    circle map, whose structure is conjugated from the reference one
    by the composition operator.  Products are exact convolutions of
    coefficients, mean removed and truncated to the cutoff of p.

    The trials and their images under J are stacked as coefficient
    rows, and every pair i <= j is formed at once: one convolution per
    product and no CircleFunction.  The rows go through the helpers the
    function objects use, _hermitian for real=True and _apply_rows for
    apply_operator, so the result is theirs bit for bit, and so are the
    refusals of a non-finite or non-Hermitian intermediate.
    """
    if not isinstance(p, PeriodMatrix):
        raise ValidationError("structure source must be a PeriodMatrix")
    trials = list(trial_functions)
    if not trials:
        raise ValidationError("integrability needs at least one trial function")
    n = p.cutoff
    structure = structure_from_period(p)
    norms = []
    for f in trials:
        if not f.real:
            raise ValidationError("trial functions must be real")
        if 2 * f.bandlimit > n:
            raise ValidationError("trial bandlimit exceeds half the cutoff")
        norms.append(h_half_norm(f))
        if norms[-1] == 0.0:
            raise ValidationError("trial functions must be nonzero")
    rows = np.stack([_extended(f, n) for f in trials])
    turned = _finite(_apply_rows(structure, rows, True))
    i, j = np.triu_indices(len(trials))
    factors = (
        (rows[i], rows[j]),
        (turned[i], turned[j]),
        (rows[i], turned[j]),
        (rows[j], turned[i]),
    )
    products = np.array(
        [np.convolve(a, b, "same") for x, y in factors for a, b in zip(x, y)]
    )
    products[:, n] = 0.0
    plain, twisted, f_jg, g_jf = _hermitian(products, n).reshape(4, len(i), -1)
    left = _finite(_apply_rows(structure, _finite(plain - twisted), True))
    defect = _finite(left - _finite(f_jg + g_jf))
    norms = np.array(norms)
    residuals = np.sqrt(_energy(defect, n)) / (norms[i] * norms[j])
    # Python's max in pair order, as a running maximum: a NaN never wins.
    return max(0.0, *residuals.tolist())


def period_to_json(p):
    """Record of a period matrix; Z stays a complex array."""
    source = None if p.source is None else descriptor_to_json(p.source)
    return {
        "cutoff": p.cutoff,
        "Z": p.Z,
        "source": source,
        "inner_width": p.inner_width,
        "truncation_estimate": p.truncation_estimate,
    }


def period_from_json(obj):
    """Inverse of period_to_json, with validation.

    An artifact without inner_width or truncation_estimate takes the
    cutoff and Z's own symmetry defect, as PeriodMatrix does.
    """
    fields = ("cutoff", "Z", "source", "inner_width", "truncation_estimate")
    try:
        json_fields(obj, fields, "PeriodMatrix")
        z = matrix_from_json(obj["Z"], "Z")
        source = obj.get("source")
        if source is not None:
            source = descriptor_from_json(source)
        return PeriodMatrix(
            obj["cutoff"],
            z,
            source,
            obj.get("inner_width"),
            obj.get("truncation_estimate"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed PeriodMatrix object: %s" % exc)


def siegel_report_to_json(report):
    return {
        "symmetry_defect": report.symmetry_defect,
        "sigma_max": report.sigma_max,
        "min_eig_I_minus_ZZbar": report.min_eig_I_minus_ZZbar,
    }
