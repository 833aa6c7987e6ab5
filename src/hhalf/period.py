"""Period matrices, the Siegel disc, and deformation diagnostics.

A degree-1 circle map phi sends the holomorphic half W+ to the graph
of the period matrix Z = conj(B) A^{-1} built from the pullback
blocks.  The block operator is symplectic, A A* - B B* = I, so Z is
computed as conj(B) A* (I + B B*)^{-1}, whose inverted matrix is
Hermitian with eigenvalues >= 1 (Nag and Sullivan, Osaka J. Math. 32,
1995).  Z is symmetric and strictly contractive, so it lands in the
Siegel disc; at a finite cutoff the symmetry defect is the truncation
signal.  Composition acts on block operators by the group law
T(phi o psi) = T(psi) T(phi), which equivariance_defect compares
through Z, and the first variation of Z along a vector field has a
closed form checked here by finite differences.  Every complex
structure is built from a period matrix; for Z(phi) it is the
pulled-back structure T J0 T^{-1}, and any block operator T enters
through period_from_blocks(T), its image of the origin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ValidationError
from .fourier import (
    CircleFunction,
    _extended,
    h_half_norm,
    json_fields,
    matrix_from_json,
)
from .maps import (
    compose,
    descriptor_from_json,
    descriptor_to_json,
    make_map,
    rauch_flow,
)
from .pullback import BlockOperator, apply_operator, pullback_matrix, read_cutoff

condition_limit = 1e12


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

    A complex128 array given for Z is kept, not copied, and becomes
    read-only.
    """

    cutoff: int
    Z: np.ndarray
    source: object = None

    def __post_init__(self):
        n = read_cutoff(self.cutoff)
        object.__setattr__(self, "cutoff", n)
        z = np.asarray(self.Z, np.complex128)
        if z.shape != (self.cutoff, self.cutoff):
            raise ValidationError("Z must be %d x %d" % (n, n))
        if not np.all(np.isfinite(z)):
            raise ValidationError("Z entries must be finite")
        z.flags.writeable = False
        object.__setattr__(self, "Z", z)


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
    """Period matrix of a circle map from its truncated pullback blocks."""
    return period_from_blocks(pullback_matrix(m, cutoff, grid), m.descriptor)


def period_from_blocks(t, source=None):
    """Z = conj(B) A* (I + B B*)^{-1} of a block operator at its cutoff.

    This is conj(B) A^{-1}, the image of the origin, through the
    symplectic identity A A* = I + B B*; the solved matrix is Hermitian
    with eigenvalues >= 1, so no refusal is needed.  Z is not
    symmetrised: its symmetry defect shows the truncation.  source is
    the map descriptor behind t, if any.
    """
    gram = np.eye(t.cutoff) + t.B @ np.conj(t.B.T)
    z = np.conj(np.linalg.solve(gram, t.A @ t.B.T)).T
    return PeriodMatrix(t.cutoff, z, source)


def siegel_membership(p):
    """Report symmetry and contraction diagnostics for Z.

    The smallest eigenvalue is taken on the Hermitian part of
    I - Z conj(Z), which is the exact matrix when Z is symmetric.
    """
    z = p.Z
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


def equivariance_defect(outer, inner, cutoff, grid):
    """max |Z(T(psi) T(phi)) - Z(phi o psi)| for phi outer, psi inner.

    Composition is the group law T(phi o psi) = T(psi) T(phi) on block
    operators; both period matrices come from period_from_blocks.
    """
    composed = period_matrix(compose(outer, inner), cutoff, grid)
    product = pullback_matrix(inner, cutoff, grid) @ pullback_matrix(
        outer, cutoff, grid
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


def _product(f, g, cutoff):
    """fg, mean removed, for f and g of bandlimit <= cutoff.

    Coefficients convolve, so the product is exact and cannot alias;
    the centred ("same") part of the convolution holds |n| <= cutoff.
    """
    c = np.convolve(_extended(f, cutoff), _extended(g, cutoff), "same")
    c[cutoff] = 0.0
    return CircleFunction(cutoff, c, True if f.real and g.real else None)


def integrability_residual(p, trial_functions):
    """Worst multiplicativity defect of the structure built from Z.

    For every pair (f, g) of real trial functions the residual
    ||J[fg - (Jf)(Jg)] - f(Jg) - g(Jf)|| / (||f|| ||g||) measures how
    far the -i eigenspace of J = structure_from_period(p) is from being
    multiplication closed; it vanishes for the period matrix of a
    circle map, whose structure is conjugated from the reference one
    by the composition operator.  Products are exact convolutions of
    coefficients, mean removed and truncated to the cutoff of p.
    """
    if not isinstance(p, PeriodMatrix):
        raise ValidationError("structure source must be a PeriodMatrix")
    cutoff = p.cutoff
    structure = structure_from_period(p)
    trials = list(trial_functions)
    for f in trials:
        if not f.real:
            raise ValidationError("trial functions must be real")
        if 2 * f.bandlimit > cutoff:
            raise ValidationError("trial bandlimit exceeds half the cutoff")
        if h_half_norm(f) == 0.0:
            raise ValidationError("trial functions must be nonzero")
    rotated = [apply_operator(structure, f) for f in trials]
    norms = [h_half_norm(f) for f in trials]
    worst = 0.0
    for i in range(len(trials)):
        for j in range(i, len(trials)):
            f, g = trials[i], trials[j]
            jf, jg = rotated[i], rotated[j]
            plain = _product(f, g, cutoff)
            twisted = _product(jf, jg, cutoff)
            left = apply_operator(structure, plain - twisted)
            right = _product(f, jg, cutoff) + _product(g, jf, cutoff)
            residual = h_half_norm(left - right) / (norms[i] * norms[j])
            worst = max(worst, residual)
    return worst


def period_to_json(p):
    """Record of a period matrix; Z stays a complex array."""
    source = None if p.source is None else descriptor_to_json(p.source)
    return {"cutoff": p.cutoff, "Z": p.Z, "source": source}


def period_from_json(obj):
    try:
        json_fields(obj, ("cutoff", "Z", "source"), "PeriodMatrix")
        z = matrix_from_json(obj["Z"], "Z")
        source = obj.get("source")
        if source is not None:
            source = descriptor_from_json(source)
        return PeriodMatrix(obj["cutoff"], z, source)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed PeriodMatrix object: %s" % exc)


def siegel_report_to_json(report):
    return {
        "symmetry_defect": report.symmetry_defect,
        "sigma_max": report.sigma_max,
        "min_eig_I_minus_ZZbar": report.min_eig_I_minus_ZZbar,
    }
