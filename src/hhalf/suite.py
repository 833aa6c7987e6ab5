"""Property catalog behind the invariance-suite subcommand.

Each check exercises one advertised identity of the library at desk
scale and returns (passed, detail); run_all collects them into an
ordered pass/fail matrix.  The checks are self contained so a single
failing identity names itself instead of failing a distant assertion;
the five over the twelve catalog maps take them as an argument, so one
pass realizes them once.
"""

import math

from dataclasses import dataclass
from functools import cache

import numpy as np

from .catalog import (
    _trial_rows,
    catalog_maps,
    cos_field,
    equivariance_pairs,
    sin_field,
    trial_functions,
)
from .fourier import (
    SampleGrid,
    _energy,
    _hermitian,
    _hilbert_rows,
    _inner_rows,
    analyze,
    douglas_energy,
    from_modes,
    norm_squared,
    synthesize,
)
from .maps import (
    compose,
    flow,
    make_map,
    moebius,
    power,
    radial_dilatation,
)
from .period import (
    PeriodMatrix,
    equivariance_defect,
    integrability_residual,
    period_from_blocks,
    period_matrix,
    rauch_derivative,
    rauch_fd_defect,
    siegel_membership,
    structure_from_period,
)
from .pullback import (
    _invariance_rows,
    apply_operator,
    invariance_defect,
    operator_norm_estimate,
    pullback_matrix,
)
from .quantum import (
    circle_kernel,
    diagonal_limit,
    hs_bracket_check,
    hs_norm,
    kernel_base_points,
)
from .symplectic import _form_rows

moebius_parameters = tuple(
    (a, beta) for a in (0.1, 0.3, 0.5) for beta in (0.0, 1.0)
)

# Criterion 9 reads these catalog maps: the flows' kernels reach their
# classical values, and the Moebius maps' circle-form order-2 kernel
# vanishes at y = x and at these offsets from each kernel base point.
kernel_flows = ("flow_sin1_0.1", "flow_sin2_0.05", "flow_cos3_0.04")
kernel_moebius = (
    "identity",
    "rotation_0.7",
    "moebius_0.1_0",
    "moebius_0.3_1",
    "moebius_0.5_0.5",
)
circle_offsets = (1e-1, 1e-3, 1e-6, 1e-10, 1e-14, 1.0, 2.5, -2.0)


@dataclass(frozen=True)
class CheckResult:
    """One row of the pass/fail matrix."""

    criterion: int
    name: str
    passed: bool
    detail: str


def check_hilbert_transform(seed):
    """J is an exact isometric involution; S(f, Jg) equals <f, g>.

    The 100 trials are stacked as coefficient rows and go through the
    row rules of hilbert_transform (with _hermitian, as for a real
    function), norm_squared, symplectic_form and inner_product, so each
    value is the bits of its per-function call.
    """
    n = 32
    rows = _trial_rows(100, n, seed)
    turned = _hermitian(_hilbert_rows(rows, n), n)
    if not np.array_equal(_hermitian(_hilbert_rows(turned, n), n), -rows):
        return False, "J(Jf) != -f in coefficient arithmetic"
    energies = _energy(rows, n)
    if not np.array_equal(_energy(turned, n), energies):
        return False, "|Jf| != |f| in coefficient arithmetic"
    f, g = rows[0::2], rows[1::2]
    forms = _form_rows(f, turned[1::2], n).tolist()
    inner = _inner_rows(f, g, n).tolist()
    norms = np.sqrt(energies)
    scales = (norms[0::2] * norms[1::2]).tolist()
    # Python's abs and max, pair by pair: a NaN never wins.
    pairs = zip(forms, inner, scales)
    worst = max(0.0, *(abs(form - dot) / scale for form, dot, scale in pairs))
    detail = (
        "J isometric involution exact on 100 functions; worst relative "
        "compatibility defect %.3e (limit 1e-12)" % worst
    )
    return worst <= 1e-12, detail


def check_douglas_energy(seed):
    """The double-integral energy reproduces the squared norm."""
    grid = SampleGrid(512)
    worst = 0.0
    for f in trial_functions(20, 16, seed + 1):
        target = norm_squared(f)
        worst = max(worst, abs(douglas_energy(f, grid) - target) / target)
    detail = (
        "worst relative error %.3e over 20 trig polynomials at M = 512 "
        "(limit 1e-8)" % worst
    )
    return worst <= 1e-8, detail


def check_symplectic_invariance(seed, catalog):
    """Pullback scales the form by the degree, exactly 1 for diffeos.

    Each diffeo pulls back the 20 trial rows of bandlimit 8 in one
    stack; the power-map pairs mix bandlimits and go one pair at a time.
    """
    grid = SampleGrid(4096)
    diffeos = [m for _, m in catalog][:10]
    rows = _trial_rows(20, 8, seed + 2)
    worst = 0.0
    for m in diffeos:
        worst = max(worst, *_invariance_rows(m, rows[0::2], rows[1::2], 8))
    worst_power = 0.0
    for k in (2, 3):
        pm = make_map(power(k), grid)
        for f, g in ((cos_field(1), sin_field(1)), (cos_field(2), sin_field(3))):
            worst_power = max(worst_power, invariance_defect(pm, f, g))
    detail = (
        "worst defect %.3e over 10 diffeos x 10 pairs (limit 1e-8); "
        "degree 2, 3 scaling defect %.3e (limit 1e-10)" % (worst, worst_power)
    )
    return worst <= 1e-8 and worst_power <= 1e-10, detail


def check_moebius_basepoint():
    """Moebius maps fix the basepoint and pull back unitarily."""
    grid = SampleGrid(4096)
    worst_z = worst_b = worst_gram = 0.0
    for a, beta in moebius_parameters:
        m = make_map(moebius(a, beta), grid)
        t = pullback_matrix(m, 16, grid)
        worst_z = max(worst_z, float(np.max(np.abs(period_from_blocks(t).Z))))
        worst_b = max(worst_b, float(np.max(np.abs(t.B))))
        # The unitarity defect of a bare 16 x 16 block is dominated by
        # the discarded tail, so measure the 16 x 16 corner of a
        # 96 x 96 assembly instead.
        wide = pullback_matrix(m, 96, grid)
        gram = wide.A.conj().T @ wide.A - np.eye(96)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram[:16, :16]))))
    detail = (
        "6 moebius maps at N = 16: max |Z| %.3e, |B| %.3e, "
        "|A*A - I| %.3e (limits 1e-6)" % (worst_z, worst_b, worst_gram)
    )
    return max(worst_z, worst_b, worst_gram) <= 1e-6, detail


def check_siegel_catalog(catalog, blocks):
    """Every catalog period matrix is a symmetric strict contraction.

    Each Z is mirrored exactly symmetric, so its truncation estimate,
    the symmetry defect before mirroring, is the one judged.
    """
    worst_sym = worst_sigma = 0.0
    lowest = np.inf
    for (name, m), t in zip(catalog, blocks):
        p = period_from_blocks(t, m.descriptor)
        report = siegel_membership(p)
        if p.truncation_estimate > 1e-6 * (1.0 + report.sigma_max):
            return False, "%s is not symmetric" % name
        if not report.member:
            return False, "%s left the siegel disc" % name
        worst_sym = max(worst_sym, p.truncation_estimate)
        worst_sigma = max(worst_sigma, report.sigma_max)
        lowest = min(lowest, report.min_eig_I_minus_ZZbar)
    detail = (
        "12 maps: worst truncation estimate %.3e, sigma_max %.6f, "
        "min eig(I - Z conj(Z)) %.6f" % (worst_sym, worst_sigma, lowest)
    )
    return True, detail


def check_rauch_derivative():
    """Finite differences converge first order to the closed form."""
    grid = SampleGrid(4096)
    parts = []
    passed = True
    for m in (0, 1, 2):
        bound = 0.05 * float(np.max(np.abs(rauch_derivative(m, 16))))
        defect = rauch_fd_defect(m, 1e-3, 16, grid)
        ratio = rauch_fd_defect(m, 5e-4, 16, grid) / defect
        passed = passed and defect <= bound and 0.3 <= ratio <= 0.7
        parts.append("m=%d defect %.3e (bound %.3e) halving ratio %.3f" % (
            m, defect, bound, ratio))
    return passed, "; ".join(parts)


def check_norm_bound(catalog, blocks):
    """Pullback norms respect the dilatation bound sqrt(K + 1/K)."""
    slack = np.inf
    for (name, m), t in zip(catalog, blocks):
        k = radial_dilatation(m)
        bound = math.sqrt(k + 1.0 / k) + 1e-6
        estimate = operator_norm_estimate(t)
        if estimate > bound:
            return False, "%s exceeded its dilatation bound" % name
        slack = min(slack, bound - estimate)
    detail = "12 maps at N = 16: smallest bound slack %.3e" % slack
    return True, detail


def check_quantum_hs(seed):
    """Hilbert-Schmidt norms match the closed form and the bracket."""
    worst = 0.0
    for f in trial_functions(20, 8, seed + 3):
        hs2 = hs_norm(f) ** 2
        ks = np.arange(1, f.bandlimit + 1)
        plus = np.abs(f.coeffs[f.bandlimit + 1:]) ** 2
        minus = np.abs(f.coeffs[f.bandlimit - 1:: -1]) ** 2
        closed = float(np.sum((4.0 * ks - 2.0) * (plus + minus)))
        worst = max(worst, abs(hs2 - closed) / closed)
    failures = 0
    for f in trial_functions(100, 6, seed + 4):
        low, high = hs_bracket_check(f)
        failures += not (low and high)
    cos_one = cos_field(1)
    hs2 = hs_norm(cos_one) ** 2
    attained = hs2 == 2.0 * norm_squared(cos_one)
    detail = (
        "worst closed-form mismatch %.3e (limit 1e-10); bracket failures "
        "%d/100; cos lower bound attained exactly: %s"
        % (worst, failures, attained)
    )
    return worst <= 1e-10 and failures == 0 and attained, detail


def check_kernel_limits(catalog):
    """Flow kernels reach classical values; Moebius circle kernels vanish."""
    maps = dict(catalog)
    worst_flow = 0.0
    for name in kernel_flows:
        for order in (0, 1, 2):
            for x in kernel_base_points:
                defect = diagonal_limit(maps[name], order, x)[2]
                worst_flow = max(worst_flow, defect)
    xs = np.array(kernel_base_points)
    ys = xs[:, None] + circle_offsets
    worst_moebius = 0.0
    for name in kernel_moebius:
        circle = circle_kernel(maps[name], xs, ys)
        worst_moebius = max(worst_moebius, float(np.max(np.abs(circle))))
    detail = (
        "flow defects <= %.3e (limit 1e-9); moebius circle-form order-2 "
        "kernel <= %.3e at y = x and %d offsets (limit 1e-10)"
        % (worst_flow, worst_moebius, len(circle_offsets))
    )
    return worst_flow <= 1e-9 and worst_moebius <= 1e-10, detail


def check_integrability(seed, catalog):
    """Map-sourced structures are multiplication closed."""
    grid = SampleGrid(4096)
    trials = [cos_field(1), sin_field(2)] + trial_functions(2, 8, seed + 5)
    worst = 0.0
    for _, m in catalog:
        p = period_matrix(m, 32, grid)
        worst = max(worst, integrability_residual(p, trials))
    j0 = structure_from_period(PeriodMatrix(4, np.zeros((4, 4))))
    f, g = cos_field(1), sin_field(1)
    jf, jg = apply_operator(j0, f), apply_operator(j0, g)

    def product(u, v):
        return analyze(synthesize(u, grid) * synthesize(v, grid), 4)

    left = apply_operator(j0, product(f, g) - product(jf, jg))
    right = product(f, jg) + product(g, jf)
    target = from_modes(2, {2: -0.5, -2: -0.5})
    hand = max(
        abs(side.coefficient(n) - target.coefficient(n))
        for side in (left, right)
        for n in range(-4, 5)
    )
    detail = (
        "12 maps: worst residual %.3e (limit 1e-6); hand case (cos, sin) "
        "-> -cos 2theta within %.3e" % (worst, hand)
    )
    return worst <= 1e-6 and hand <= 1e-12, detail


def check_equivariance():
    """Z(phi o psi) is Z of the block product T(psi) T(phi)."""
    grid = SampleGrid(4096)
    worst = 0.0
    for _, outer_d, inner_d in equivariance_pairs():
        defect = equivariance_defect(
            make_map(outer_d, grid), make_map(inner_d, grid), 16
        )
        worst = max(worst, defect)
    # Pin the composition order: the product T(phi) T(psi) in the wrong
    # order must not give Z(phi o psi).  Both sides are width 16, as in
    # equivariance_defect.
    outer = make_map(flow(sin_field(2), 0.05), grid)
    inner = make_map(moebius(0.2, 0.0), grid)
    composed = period_from_blocks(pullback_matrix(compose(outer, inner), 16, grid))
    t_outer = pullback_matrix(outer, 16, grid)
    product = t_outer @ pullback_matrix(inner, 16, grid)
    wrong = float(np.max(np.abs(period_from_blocks(product).Z - composed.Z)))
    detail = (
        "worst defect %.3e over 6 pairs (limit 1e-5); wrong-order "
        "product defect %.3e (must exceed 1e-4)" % (worst, wrong)
    )
    return worst <= 1e-5 and wrong > 1e-4, detail


def checks(seed=0):
    """The ordered (criterion, name, thunk) catalog.

    Criteria 3, 5, 7, 9 and 10 share one realization of the twelve
    catalog maps on SampleGrid(4096), and criteria 5 and 7 their N = 16
    blocks; each is made when the first reader runs and kept only as
    long as these thunks.
    """
    grid = SampleGrid(4096)
    catalog = cache(lambda: catalog_maps(grid))
    blocks = cache(lambda: [pullback_matrix(m, 16, grid) for _, m in catalog()])
    return (
        (1, "hilbert transform suite", lambda: check_hilbert_transform(seed)),
        (2, "douglas energy oracle", lambda: check_douglas_energy(seed)),
        (
            3,
            "symplectic invariance",
            lambda: check_symplectic_invariance(seed, catalog()),
        ),
        (4, "moebius basepoint", check_moebius_basepoint),
        (
            5,
            "siegel membership catalog",
            lambda: check_siegel_catalog(catalog(), blocks()),
        ),
        (6, "rauch derivative", check_rauch_derivative),
        (
            7,
            "operator norm bound",
            lambda: check_norm_bound(catalog(), blocks()),
        ),
        (8, "quantum hilbert-schmidt", lambda: check_quantum_hs(seed)),
        (
            9,
            "kernel diagonal limits",
            lambda: check_kernel_limits(catalog()),
        ),
        (10, "integrability", lambda: check_integrability(seed, catalog())),
        (11, "equivariance", check_equivariance),
    )


def run_all(seed=0):
    """Run the whole catalog; returns CheckResult rows in order."""
    out = []
    for criterion, name, thunk in checks(seed):
        passed, detail = thunk()
        out.append(CheckResult(criterion, name, bool(passed), str(detail)))
    return out
