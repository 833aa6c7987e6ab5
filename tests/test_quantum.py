"""Tests for quantum derivatives, HS diagnostics, and welding kernels."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import quantum
from hhalf.catalog import catalog_maps, sin_field
from hhalf.errors import (
    AliasingError,
    MonotonicityError,
    NumericalError,
    ValidationError,
)
from hhalf.fourier import (
    SampleGrid,
    evaluate_at,
    from_modes,
    norm_squared,
    zero_function,
)
from hhalf.maps import (
    CircleMap,
    Compose,
    Moebius,
    compose,
    compose_descriptors,
    evaluate_lift,
    flow,
    identity,
    inverse_descriptor,
    make_map,
    moebius,
    power,
    radial_dilatation,
    rotation,
)
from hhalf.period import (
    PeriodMatrix,
    period_matrix,
    siegel_action,
    structure_from_period,
)
from hhalf.pullback import pullback_matrix
from hhalf.quantum import (
    _extrapolate,
    circle_kernel,
    default_deltas,
    diagonal_limit,
    diagonal_limit_line,
    diagonal_report,
    hs_bracket_check,
    hs_norm,
    kernel_base_points,
    kernel_eval,
    kernel_eval_line,
    quantum_derivative_matrix,
)

grid = SampleGrid(4096)

cos_one = from_modes(1, {1: 0.5, -1: 0.5})
sin_one = from_modes(1, {1: -0.5j, -1: 0.5j})

def random_real_modes(band, seed, decay=1.0):
    rng = np.random.default_rng(seed)
    modes = {}
    for k in range(1, band + 1):
        value = complex(rng.standard_normal(), rng.standard_normal())
        value /= k**decay
        modes[k] = value
        modes[-k] = np.conj(value)
    return modes


@st.composite
def real_functions(draw, band=6):
    vals = draw(
        st.lists(
            st.floats(-4.0, 4.0, allow_nan=False),
            min_size=2 * band,
            max_size=2 * band,
        )
    )
    modes = {}
    for k in range(1, band + 1):
        value = complex(vals[2 * k - 2], vals[2 * k - 1])
        modes[k] = value
        modes[-k] = np.conj(value)
    return from_modes(band, modes)


def wide_commutator(f, reach):
    """[J, M_f] on the modes -reach..reach, entry by entry."""
    idx = np.arange(-reach, reach + 1)
    out = np.zeros((idx.size, idx.size), np.complex128)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            out[i, j] = -1j * (np.sign(m) - np.sign(n)) * f.coefficient(m - n)
    return out


@st.composite
def real_or_complex_functions(draw):
    band = draw(st.integers(1, 6))
    real = draw(st.booleans())
    parts = st.floats(-4.0, 4.0, allow_nan=False)
    modes = {}
    for k in range(1, band + 1):
        modes[k] = complex(draw(parts), draw(parts))
        modes[-k] = np.conj(modes[k]) if real else complex(draw(parts), draw(parts))
    return from_modes(band, modes)


@st.composite
def small_flows(draw):
    """Flows theta + eps v(theta), v real of bandlimit 1..6, 1 + eps v' >= 1/2."""
    band = draw(st.integers(1, 6))
    parts = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=2 * band, max_size=2 * band)
    )
    modes = {}
    for k in range(1, band + 1):
        modes[k] = complex(parts[2 * k - 2], parts[2 * k - 1])
        modes[-k] = modes[k].conjugate()
    v = from_modes(band, modes, real=True)
    reach = 2.0 * sum(k * abs(modes[k]) for k in range(1, band + 1))
    return flow(v, draw(st.floats(0.01, 0.5)) / max(1.0, reach))


# A flow whose order-1 samples at x = 0 turn within the default window
# (steps 1.2e-8 and -2.3e-8) while their limit is right: a Hypothesis
# draw of small_flows.
gentle_flow = flow(
    from_modes(
        3,
        {
            1: -0.9609375,
            -1: -0.9609375,
            2: -0.16118388 + 0.484375j,
            -2: -0.16118388 - 0.484375j,
            3: 0.484375 - 0.10068091j,
            -3: 0.484375 + 0.10068091j,
        },
        real=True,
    ),
    0.04808478040259399,
)


def _lift_derivatives(d, t):
    """Lift of the flow d and its first three derivatives at t, in mpmath."""
    k = d.v.bandlimit
    eps = mpmath.mpf(d.eps)
    out = [t, mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)]
    for n in range(-k, k + 1):
        term = mpmath.mpc(d.v.coefficient(n)) * mpmath.expj(n * t)
        for j in range(4):
            out[j] += eps * mpmath.re(term * (1j * n) ** j)
    return out


def reference_kernel(d, order, x, y):
    """Kernel of a flow d at (x, y) with every digit kept, by mpmath.

    The precision grows with 1/|x - y|, so the poles subtracted from
    the order-1 and order-2 kernels cancel exactly.
    """
    digits = 40 + 2 * max(0, math.ceil(-math.log10(abs(x - y))))
    with mpmath.workdps(digits):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        hx, sx = _lift_derivatives(d, x)[:2]
        hy, sy = _lift_derivatives(d, y)[:2]
        dh, dx = hx - hy, x - y
        if order == 0:
            return float(mpmath.log(dh / dx))
        if order == 1:
            return float(sx / dh - 1 / dx)
        return float(sx * sy / dh**2 - 1 / dx**2)


def reference_classical(d, order, x):
    """log h', h''/(2h') or S(h)/6 of a flow d at x, by mpmath."""
    with mpmath.workdps(40):
        _, h1, h2, h3 = _lift_derivatives(d, mpmath.mpf(x))
        if order == 0:
            return float(mpmath.log(h1))
        if order == 1:
            return float(h2 / (2 * h1))
        return float((h3 / h1 - 1.5 * (h2 / h1) ** 2) / 6)


def reference_inverse_classical(d, x, start):
    """S(h)/6 at x of h, the inverse of the flow d, by mpmath.

    g = h^{-1} is the flow; y = h(x) solves g(y) = x from start, and
    S(g o h) = 0 gives S(h)(x) = -S(g)(y) / g'(y)^2.
    """
    with mpmath.workdps(40):
        y = mpmath.findroot(lambda t: _lift_derivatives(d, t)[0] - x, start)
        _, g1, g2, g3 = _lift_derivatives(d, y)
        return float(-(g3 / g1 - 1.5 * (g2 / g1) ** 2) / (6 * g1**2))


def assert_kernel_close(value, reference):
    assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), (
        value,
        reference,
    )


class TestQuantumDerivativeMatrix:
    def test_zero_function_gives_zero_operator(self):
        entries = quantum_derivative_matrix(zero_function(3))
        assert np.all(entries == 0)
        assert entries.shape == (7, 7)

    def test_first_mode_has_exactly_four_entries(self):
        entries = quantum_derivative_matrix(cos_one)
        assert entries.shape == (3, 3)
        rows, cols = np.nonzero(entries)
        positions = sorted(zip((rows - 1).tolist(), (cols - 1).tolist()))
        assert positions == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert np.all(np.abs(entries[rows, cols]) == 0.5)
        # commutator with the conjugation diagonal fixes the phases
        assert entries[2, 1] == -0.5j
        assert entries[0, 1] == 0.5j

    def test_sparsity_law(self):
        f = from_modes(6, random_real_modes(6, seed=5))
        entries = quantum_derivative_matrix(f)
        signs = np.sign(np.arange(-6, 7))
        same = signs[:, None] == signs[None, :]
        assert np.all(entries[same] == 0)

    def test_linearity_is_exact(self):
        a = random_real_modes(6, seed=1)
        b = random_real_modes(6, seed=2)
        both = {k: a[k] + b[k] for k in a}
        op_a = quantum_derivative_matrix(from_modes(6, a))
        op_b = quantum_derivative_matrix(from_modes(6, b))
        op_sum = quantum_derivative_matrix(from_modes(6, both))
        assert np.array_equal(op_sum, op_a + op_b)

    def test_matrix_is_read_only(self):
        entries = quantum_derivative_matrix(cos_one)
        with pytest.raises(ValueError):
            entries[0, 1] = 0.0

    @given(real_or_complex_functions())
    @settings(max_examples=100, deadline=None)
    def test_modes_up_to_the_bandlimit_hold_every_entry(self, f):
        k = f.bandlimit
        wide = wide_commutator(f, 3 * k)
        rows, cols = np.nonzero(wide)
        assert np.all(np.abs(rows - 3 * k) <= k)
        assert np.all(np.abs(cols - 3 * k) <= k)
        inner = wide[2 * k : 4 * k + 1, 2 * k : 4 * k + 1]
        assert np.array_equal(inner, quantum_derivative_matrix(f))
        norm = np.linalg.norm(wide)
        assert abs(hs_norm(f) - norm) <= 2e-15 * norm

    def test_bandlimit_past_the_limit_is_refused_before_allocating(self):
        f = from_modes(20000, {20000: 1.0, -20000: 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(
                ValidationError,
                match="^quantum derivative needs a bandlimit of at most "
                "1024, not 20000$",
            ):
                quantum_derivative_matrix(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ValidationError):
            hs_norm(f)

    def test_the_limit_itself_is_built(self, monkeypatch):
        monkeypatch.setattr(quantum, "max_quantum_bandlimit", 4)
        assert quantum_derivative_matrix(from_modes(4, {4: 1.0})).shape == (9, 9)
        with pytest.raises(ValidationError, match="at most 4, not 5$"):
            quantum_derivative_matrix(from_modes(5, {5: 1.0}))


class TestHilbertSchmidt:
    def test_first_mode_norm_is_exactly_one(self):
        assert hs_norm(cos_one) ** 2 == 1.0

    def test_zero_norm(self):
        assert hs_norm(zero_function(2)) == 0.0

    def test_closed_form_from_entry_enumeration(self):
        # HS^2 = sum over k >= 1 of (4k-2)(|c_k|^2 + |c_-k|^2)
        modes = random_real_modes(8, seed=7, decay=1.5)
        f = from_modes(8, modes)
        hs2 = hs_norm(f) ** 2
        closed = sum(
            (4.0 * k - 2.0) * (abs(modes[k]) ** 2 + abs(modes[-k]) ** 2)
            for k in range(1, 9)
        )
        assert abs(hs2 - closed) <= 1e-13 * closed

    def test_high_mode_ratio_approaches_four(self):
        previous = 0.0
        for k in (1, 5, 25, 100):
            f = from_modes(k, {k: 0.5, -k: 0.5})
            hs2 = hs_norm(f) ** 2
            ratio = hs2 / norm_squared(f)
            assert_allclose(ratio, 4.0 - 2.0 / k, rtol=1e-13)
            assert ratio > previous
            previous = ratio
        assert previous > 3.97

    def test_bracket_on_first_mode_attains_lower_exactly(self):
        f = from_modes(1, {1: complex(0.37, -0.181), -1: complex(0.37, 0.181)})
        hs2 = hs_norm(f) ** 2
        assert hs2 == 2.0 * norm_squared(f)
        assert hs_bracket_check(f) == (True, True)

    def test_bracket_degenerate_zero(self):
        assert hs_bracket_check(zero_function(2)) == (True, True)

    def test_bracket_requires_real_functions(self):
        with pytest.raises(ValidationError):
            hs_bracket_check(from_modes(2, {1: 1.0}))

    @given(real_functions())
    @settings(max_examples=100, deadline=None)
    def test_bracket_holds_for_random_real_functions(self, f):
        assert hs_bracket_check(f) == (True, True)


class TestKernelEval:
    def test_identity_kernels_vanish_exactly(self):
        m = make_map(identity(), grid)
        for order in (0, 1, 2):
            assert kernel_eval(m, order, 0.3, 1.1) == 0.0

    def test_rotation_kernels_vanish_exactly(self):
        m = make_map(rotation(0.7), grid)
        for order in (0, 1, 2):
            assert kernel_eval(m, order, 0.3, 0.5) == 0.0

    def test_power_map_order_zero_is_log_degree(self):
        m = make_map(power(2), grid)
        assert kernel_eval(m, 0, 0.3, 0.5) == math.log(2.0)

    def test_matches_closed_form_lift(self):
        m = make_map(flow(sin_one, 0.1), grid)
        h = lambda t: t + 0.1 * math.sin(t)
        hp = lambda t: 1.0 + 0.1 * math.cos(t)
        for order in (0, 1, 2):
            for x, y in ((0.3, 0.35), (5.0, 4.9), (1.0, 1.4)):
                value = kernel_eval(m, order, x, y)
                reference = kernel_eval_line(h, hp, order, x, y)
                assert abs(value - reference) <= 1e-10

    def test_symmetry_of_orders_zero_and_two_is_exact(self):
        m = make_map(flow(sin_one, 0.1), grid)
        for order in (0, 2):
            assert kernel_eval(m, order, 0.3, 0.9) == kernel_eval(
                m, order, 0.9, 0.3
            )
        one_way = kernel_eval(m, 1, 0.3, 0.9)
        other = kernel_eval(m, 1, 0.9, 0.3)
        assert abs(one_way - other) > 1e-3

    def test_coincident_points_are_rejected(self):
        m = make_map(flow(sin_one, 0.1), grid)
        with pytest.raises(ValidationError):
            kernel_eval(m, 0, 0.3, 0.3)
        with pytest.raises(ValidationError):
            kernel_eval(m, 0, 0.3, 0.3 + 2.0 * math.pi)

    def test_order_validation(self):
        m = make_map(identity(), grid)
        with pytest.raises(ValidationError):
            kernel_eval(m, 3, 0.1, 0.2)

    def test_order_true_is_not_order_one(self):
        m = make_map(moebius(0.3), grid)
        with pytest.raises(ValidationError, match="^kernel order must be an integer"):
            kernel_eval(m, True, 0.1, 0.2)

    def test_unresolved_lift_is_rejected(self):
        # On 4 and 6 points 3 size / 8 lies above the top mode, where the
        # tail then starts: the Nyquist bin of these odd lifts is zero.
        for size in (4, 6, 8):
            for a in (0.1, 0.5):
                coarse = make_map(moebius(a), SampleGrid(size))
                with pytest.raises(AliasingError, match="cannot resolve"):
                    kernel_eval(coarse, 0, 0.1, 0.3)

    @pytest.mark.parametrize(
        "order, offset",
        # The line path's dx**2 underflows to zero at 1e-300 and 1e-320,
        # a ZeroDivisionError; at the others both terms overflow, and
        # inf - inf is NaN.  The map path sums the spectrum and is exact.
        [(2, 1e-300), (2, 1e-320), (2, 1e-160), (2, 1e-155), (1, 1e-320)],
    )
    def test_offsets_without_a_finite_kernel_are_numerical_failures(
        self, order, offset
    ):
        d = flow(sin_field(2), 0.1)
        value = kernel_eval(make_map(d, grid), order, 0.0, offset)
        assert_kernel_close(value, reference_kernel(d, order, 0.0, offset))
        line = fractional_linear(moebius(0.3))
        message = "^order %d kernel has no reliable digits at offset x - y = %r$"
        with pytest.raises(NumericalError, match=message % (order, -offset)):
            kernel_eval_line(*line, order, 0.0, offset)
        with pytest.raises(NumericalError, match="^order %d kernel" % order):
            diagonal_limit_line(*line, order, 0.0, (2.0 * offset, offset))

    @pytest.mark.parametrize(
        "order, offset",
        # Finite but without reliable digits when two large terms are
        # subtracted: order 1 near zero at tiny offsets, order 0 at a
        # subnormal offset, and order 2 as a difference of two 1e20
        # terms.  The line path refuses each; the map path is exact.
        [(1, 1e-300), (1, 1e-160), (0, 1e-320), (2, 1e-10)],
    )
    def test_offsets_without_reliable_digits_are_numerical_failures(
        self, order, offset
    ):
        d = flow(sin_field(2), 0.1)
        value = kernel_eval(make_map(d, grid), order, 0.0, offset)
        assert_kernel_close(value, reference_kernel(d, order, 0.0, offset))
        line = fractional_linear(moebius(0.3))
        message = "^order %d kernel has no reliable digits at offset x - y = %r$"
        with pytest.raises(NumericalError, match=message % (order, -offset)):
            kernel_eval_line(*line, order, 0.0, offset)

    def test_small_offsets_with_reliable_digits_are_kept(self):
        d = flow(sin_field(2), 0.1)
        value = kernel_eval(make_map(d, grid), 2, 0.0, 1e-4)
        assert_kernel_close(value, reference_kernel(d, 2, 0.0, 1e-4))

    @given(small_flows(), st.floats(0.0, 2.0 * math.pi), st.integers(1, 15))
    @example(d=gentle_flow, x=0.0, digits=6)
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_a_high_precision_reference(self, d, x, digits):
        m = make_map(d, grid)
        for order in (0, 1, 2):
            for y in (x + 10.0**-digits, x - 10.0**-digits):
                value = kernel_eval(m, order, x, y)
                assert_kernel_close(value, reference_kernel(d, order, x, y))
            # At offset 0 and 1e-200 the kernel is the classical value.
            classical = reference_classical(d, order, x)
            assert_kernel_close(diagonal_report(m, order, x)["classical"], classical)
            at_zero = reference_classical(d, order, 0.0)
            assert_kernel_close(kernel_eval(m, order, 0.0, 1e-200), at_zero)

    def test_cocycle_property_order_zero(self):
        inner = make_map(flow(sin_one, 0.1), grid)
        outer = make_map(flow(sin_field(2), 0.05), grid)
        both = compose(outer, inner)
        for x, y in ((0.3, 0.31), (0.3, 1.3), (5.9, 6.0)):
            direct = kernel_eval(both, 0, x, y)
            chained = kernel_eval(
                outer, 0, evaluate_lift(inner, x), evaluate_lift(inner, y)
            ) + kernel_eval(inner, 0, x, y)
            assert abs(direct - chained) <= 1e-12


class TestDiagonalLimit:
    def test_report_order_true_is_not_order_one(self):
        m = make_map(moebius(0.3), grid)
        with pytest.raises(ValidationError, match="^kernel order must be an integer"):
            diagonal_report(m, True, 0.3)

    def test_limit_order_true_is_not_order_one(self):
        m = make_map(moebius(0.3), grid)
        with pytest.raises(ValidationError, match="^kernel order must be an integer"):
            diagonal_limit(m, True, 0.3)

    def test_identity_is_exactly_zero(self):
        m = make_map(identity(), grid)
        for order in (0, 1, 2):
            assert diagonal_limit(m, order, 1.0) == (0.0, 0.0, 0.0)

    def test_rotation_is_exactly_zero(self):
        m = make_map(rotation(0.7), grid)
        for order in (0, 1, 2):
            assert diagonal_limit(m, order, 0.3) == (0.0, 0.0, 0.0)

    def test_flow_classical_values_match_closed_forms(self):
        m = make_map(flow(sin_one, 0.1), grid)
        _, classical, _ = diagonal_limit(m, 0, 0.0)
        assert_allclose(classical, math.log(1.1), rtol=1e-14)
        for x in (0.7, 2.1):
            slope = 1.0 + 0.1 * math.cos(x)
            _, classical, _ = diagonal_limit(m, 1, x)
            assert_allclose(classical, -0.1 * math.sin(x) / (2 * slope), rtol=1e-12)
            s = (-0.1 * math.cos(x)) / slope - 1.5 * (
                -0.1 * math.sin(x) / slope
            ) ** 2
            _, classical, _ = diagonal_limit(m, 2, x)
            assert_allclose(classical, s / 6.0, rtol=1e-11)

    def test_steep_inverse_flow_is_refused_on_a_coarse_grid(self):
        # The lift spectrum's tail is 1.9e-12 on 4096 points, and the
        # order-2 classical value there missed S(h)/6 by 7.7e-5.
        m = make_map(inverse_descriptor(flow(sin_field(3), 0.3)), grid)
        with pytest.raises(AliasingError, match="cannot resolve"):
            diagonal_report(m, 2, 1.0)
        with pytest.raises(AliasingError, match="cannot resolve"):
            radial_dilatation(m)

    def test_flow_defects_are_small(self):
        m = make_map(flow(sin_one, 0.1), grid)
        for x in (0.0, math.pi / 3, 1.0):
            for order in (0, 1, 2):
                defect = diagonal_limit(m, order, x)[2]
                assert defect <= 1e-8, (x, order)

    def test_shear_flow_order_two(self):
        m = make_map(flow(sin_field(2), 0.05), grid)
        for x in (0.0, 0.7, 2.5):
            assert diagonal_limit(m, 2, x)[2] <= 1e-7

    def test_batched_kernel_values_match_single_evaluations(self):
        # diagonal_report evaluates x and every x + delta in one batch;
        # each value must be the one kernel_eval gives for that pair.
        deltas = list(default_deltas)
        inverse_flow = make_map(inverse_descriptor(flow(sin_field(2), 0.05)), grid)
        for name, m in catalog_maps(grid) + [("inverse_flow", inverse_flow)]:
            for order in (0, 1, 2):
                for x in (0.3, -1.1, 2.0):
                    single = [kernel_eval(m, order, x, x + d) for d in deltas]
                    report = diagonal_report(m, order, x)
                    assert report["values"] == single, (name, order, x)
                    scale = max(abs(v) for v in single)
                    limit = diagonal_limit(m, order, x)[0]
                    assert limit == report["limit"]
                    assert abs(limit - _extrapolate(deltas, single)) <= 1e-15 * scale

    def test_direction_independence(self):
        m = make_map(flow(sin_one, 0.1), grid)
        for x in (0.3, 1.0):
            forward = diagonal_limit(m, 2, x)[0]
            values = [kernel_eval(m, 2, x, x - d) for d in default_deltas]
            backward = _extrapolate(list(default_deltas), values)
            assert abs(forward - backward) <= 1e-9

    def test_moebius_lift_limit_follows_the_exponential_cocycle(self):
        # Lifting through theta -> e^{i theta} adds (1 - (h')^2)/2 to
        # the Schwarzian, so the lift path must NOT annihilate moebius
        # maps; the vanishing law lives in the circle form
        # (TestCircleKernel) and on the line realization.
        m = make_map(moebius(0.3), grid)
        limit, classical, defect = diagonal_limit(m, 2, 0.3)
        slope = (1.0 - 0.09) / abs(1.0 - 0.3 * np.exp(0.3j)) ** 2
        predicted = (1.0 - slope**2) / 12.0
        assert_allclose(classical, predicted, rtol=1e-10)
        assert abs(limit) > 0.1
        assert defect <= 1e-6

    def test_deltas_validation(self):
        m = make_map(flow(sin_one, 0.1), grid)
        for bad in ((0.02,), (0.01, 0.02), (0.02, -0.01)):
            with pytest.raises(ValidationError):
                diagonal_limit(m, 0, 0.3, bad)
        # x + 4 pi is x on the circle.
        with pytest.raises(ValidationError, match=r"x != y \(mod 2 pi\)"):
            diagonal_limit(m, 0, 0.3, (4.0 * math.pi, 0.1))

    @pytest.mark.parametrize(
        "bad", [(math.inf, 0.1, 0.05), (0.2, math.nan, 0.05), (0.1, 0.05, math.nan)]
    )
    def test_non_finite_deltas_are_refused(self, bad):
        # NaN passes every ordering comparison, and an infinite delta
        # reached math.remainder in kernel_eval.
        m = make_map(rotation(0.3), grid)
        with pytest.raises(ValidationError, match="deltas must be finite"):
            diagonal_limit(m, 0, 0.3, bad)
        with pytest.raises(ValidationError, match="deltas must be finite"):
            diagonal_limit_line(math.exp, math.exp, 0, 0.3, bad)

    def test_non_finite_angles_are_refused(self):
        # math.remainder raised a bare ValueError on an infinite angle,
        # and a NaN angle passed the x != y check into a NaN kernel.
        circle = make_map(moebius(0.3), SampleGrid(256))
        line = fractional_linear(moebius(0.3))
        calls = [
            lambda bad: kernel_eval(circle, 0, 0.3, bad),
            lambda bad: kernel_eval(circle, 0, bad, 0.3),
            lambda bad: diagonal_limit(circle, 2, bad),
            lambda bad: diagonal_report(circle, 1, bad),
            lambda bad: kernel_eval_line(*line, 2, 0.3, bad),
            lambda bad: diagonal_limit_line(*line, 2, bad),
        ]
        refusal = "kernel angles must be finite"
        for call in calls:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValidationError, match=refusal):
                    call(bad)

    def test_lift_that_turns_back_between_grid_points_is_refused(self):
        # 1 + 1.2 cos(21 theta) is at least 0.4 on the 63 grid points,
        # which see only 21 theta = 0, 2pi/3, 4pi/3; at theta = pi/21
        # the lift turns back.  make_map certifies the slope between
        # grid points and refuses the flow.  Built by hand from its
        # increasing grid samples, the map reaches the kernels, which
        # refuse the point.
        coarse = SampleGrid(63)
        v = from_modes(21, {21: -0.5j, -21: 0.5j}, real=True)
        d = flow(v, 1.2 / 21)
        with pytest.raises(MonotonicityError, match="^flow field violates"):
            make_map(d, coarse)
        points = coarse.points()
        m = CircleMap(d, coarse, points + d.eps * evaluate_at(v, points))
        refusal = "^lift derivative is not positive at the point$"
        for order in (0, 1, 2):
            with pytest.raises(NumericalError, match=refusal):
                diagonal_report(m, order, math.pi / 21)
        with pytest.raises(NumericalError, match=refusal):
            kernel_eval(m, 0, math.pi / 21 - 0.01, math.pi / 21 + 0.01)

    def test_oversized_deltas_are_flagged(self):
        # A window far wider than the kernel's power series is flagged by
        # its error estimate, where the default window's is small.
        m = make_map(flow(sin_one, 0.1), grid)
        wide = diagonal_report(m, 2, 1.0, (5.0, 2.5, 1.25))
        assert wide["error_estimate"] >= 1e-3
        assert wide["error_estimate"] >= wide["defect"] / 10.0
        assert diagonal_report(m, 2, 1.0)["error_estimate"] <= 1e-7

    def test_report_record(self):
        m = make_map(flow(sin_one, 0.1), grid)
        record = diagonal_report(m, 2, 1.0)
        assert set(record) == {
            "order",
            "x",
            "deltas",
            "values",
            "limit",
            "classical",
            "defect",
            "error_estimate",
        }
        assert record["deltas"] == list(default_deltas)
        assert record["values"] == [
            kernel_eval(m, 2, 1.0, 1.0 + d) for d in default_deltas
        ]
        assert record["defect"] <= 1e-8
        # The last Neville correction: the limit against the extrapolant
        # through the two smaller deltas.
        finer = _extrapolate(list(default_deltas[1:]), record["values"][1:])
        assert record["error_estimate"] == abs(record["limit"] - finer)

    def test_samples_that_turn_near_the_diagonal_are_not_refused(self):
        # The order-1 samples of gentle_flow at x = 0 step by 1.2e-8 and
        # then -2.3e-8; the kernels are exact, so the limit is right.
        m = make_map(gentle_flow, grid)
        for order in (0, 1, 2):
            report = diagonal_report(m, order, 0.0)
            assert report["defect"] <= 1e-10, order
            assert report["error_estimate"] <= 1e-7, order


class TestLineKernels:
    def test_exponential_map_reaches_minus_one_twelfth(self):
        limit = diagonal_limit_line(math.exp, math.exp, 2, 0.3)
        assert abs(limit + 1.0 / 12.0) <= 1e-9

    def test_exponential_kernel_expansion(self):
        # K2(u) = -1/12 + u^2/240 + O(u^4) for h = exp
        for u in (0.02, 0.01):
            value = kernel_eval_line(math.exp, math.exp, 2, 0.0, -u)
            assert abs(value - (-1.0 / 12.0 + u * u / 240.0)) <= 1e-9

    def test_coincident_points_are_rejected(self):
        with pytest.raises(ValidationError):
            kernel_eval_line(math.exp, math.exp, 2, 0.3, 0.3)


def cayley_line_matrix(d):
    """Line matrix of a moebius-type descriptor by Cayley conjugation.

    Builds each factor's SU(1,1) disk matrix, multiplies them, conjugates
    the product by the Cayley transform, rotates away the common phase
    of the largest entry and rescales to unit determinant.  The matrix
    it returns is fixed only up to sign.
    """

    def disk(d):
        if isinstance(d, Compose):
            out = np.eye(2, dtype=np.complex128)
            for item in d.maps:
                out = out @ disk(item)
            return out
        scale = 1.0 / math.sqrt(1.0 - abs(d.a) ** 2)
        half = np.exp(0.5j * d.beta)
        return scale * np.array(
            [[half, -d.a * half], [-np.conj(d.a * half), np.conj(half)]]
        )

    cayley = np.array([[1.0, -1j], [1.0, 1j]])
    inverse_cayley = np.array([[1j, 1j], [-1.0, 1.0]])
    raw = inverse_cayley @ disk(d) @ cayley
    pivot = raw.flat[int(np.argmax(np.abs(raw)))]
    real = (raw / (pivot / abs(pivot))).real
    return real / math.sqrt(real[0, 0] * real[1, 1] - real[0, 1] * real[1, 0])


def fractional_linear(d):
    """Callables (h, h') of the line map x -> (px + q)/(rx + s) that a
    moebius-type descriptor d realizes, the input of the line kernels."""
    p, q, r, s = cayley_line_matrix(d).ravel().tolist()

    def value(x):
        return (p * x + q) / (r * x + s)

    def slope(x):
        return 1.0 / (r * x + s) ** 2

    return value, slope


@st.composite
def disk_moebius(draw, radius):
    r = draw(st.floats(0.0, radius, exclude_max=True))
    angle = draw(st.floats(-math.pi, math.pi))
    beta = draw(st.floats(-10.0, 10.0))
    return moebius(r * complex(math.cos(angle), math.sin(angle)), beta)


class TestLineRealization:
    """The Cayley line realization that feeds the line kernels."""

    def test_identity_is_the_unit_matrix(self):
        assert np.array_equal(cayley_line_matrix(identity()), np.eye(2))

    def test_rotation_realizes_as_a_circle_of_matrices(self):
        half = 0.35
        expected = np.array(
            [
                [math.cos(half), math.sin(half)],
                [-math.sin(half), math.cos(half)],
            ]
        )
        mat = cayley_line_matrix(rotation(0.7))
        if np.sum(mat * expected) < 0.0:  # fixed only up to sign
            mat = -mat
        assert_allclose(mat, expected, atol=1e-15)

    def test_boundary_action_parity(self):
        # Cayley-conjugating back must reproduce the disk map on the
        # circle: C(g(x)) = w(C(x)) for real x.
        for a, beta in ((0.3, 0.0), (0.3, 0.7), (0.5, 0.5), (0.1, 1.0)):
            value, _ = fractional_linear(moebius(a, beta))
            for x in (-2.0, -0.5, 0.0, 0.4, 1.9):
                z = (x - 1j) / (x + 1j)
                w = np.exp(1j * beta) * (z - a) / (1.0 - a * z)
                g = value(x)
                assert abs((g - 1j) / (g + 1j) - w) <= 1e-12

    def test_composition_and_inverse_act_correctly(self):
        comp = compose_descriptors([moebius(0.2, 0.3), moebius(0.4)])
        hc, _ = fractional_linear(comp)
        h1, _ = fractional_linear(moebius(0.2, 0.3))
        h2, _ = fractional_linear(moebius(0.4))
        for x in (-1.0, 0.0, 0.3, 1.7):
            assert abs(hc(x) - h1(h2(x))) <= 1e-12
        hi, _ = fractional_linear(inverse_descriptor(moebius(0.3, 0.5)))
        h0, _ = fractional_linear(moebius(0.3, 0.5))
        assert abs(hi(h0(0.37)) - 0.37) <= 1e-12

    def test_schwarzian_annihilation_on_the_line(self):
        for a, beta in ((0.1, 0.0), (0.1, 1.0), (0.3, 0.0), (0.3, 0.7), (0.5, 0.5)):
            value, slope = fractional_linear(moebius(a, beta))
            for x in (0.3, -0.5, 1.0):
                limit = diagonal_limit_line(value, slope, 2, x)
                assert abs(limit) <= 1e-8, (a, beta, x)
                raw = kernel_eval_line(value, slope, 2, x, x + 0.04)
                assert abs(raw) <= 1e-9


def circle_row(m, x, ys):
    """Circle-form order-2 kernel of m at (x, x) and at (x, y) for each y."""
    return circle_kernel(m, x, ys)[0]


def reference_circle_kernel(d, x, y):
    """Circle-form order-2 kernel of a flow d at (x, y), by mpmath.

    At y = x it is [S(h) + (h'^2 - 1)/2]/6.
    """
    if x == y:
        with mpmath.workdps(40):
            _, h1, h2, h3 = _lift_derivatives(d, mpmath.mpf(x))
            schwarzian = h3 / h1 - 1.5 * (h2 / h1) ** 2
            return float((schwarzian + (h1**2 - 1) / 2) / 6)
    digits = 40 + 2 * max(0, math.ceil(-math.log10(abs(x - y))))
    with mpmath.workdps(digits):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        hx, sx = _lift_derivatives(d, x)[:2]
        hy, sy = _lift_derivatives(d, y)[:2]
        pole = 4 * mpmath.sin((x - y) / 2) ** 2
        return float(sx * sy / (4 * mpmath.sin((hx - hy) / 2) ** 2) - 1 / pole)


# Offsets 1e-1 ... 1e-15, both ways, and three wide ones.
circle_offsets = [
    sign * 10.0**-k for k in range(1, 16) for sign in (1, -1)
] + [1.0, 2.5, -2.0]


class TestCircleKernel:
    """The order-2 welding kernel on S^1, where Moebius maps annihilate it."""

    def test_identity_and_rotation_vanish_exactly(self):
        for d in (identity(), rotation(0.7)):
            m = make_map(d, grid)
            ys = [0.3 + offset for offset in circle_offsets]
            assert np.all(circle_row(m, 0.3, ys) == 0.0)

    # The kernel sums n^3 c_n over the periodic part, whose FFT noise
    # floor grows with its band: within 1e-10 up to |a| = 0.55 for one
    # factor and 0.3 for each of two (3e-11 at those radii).
    @settings(max_examples=40, deadline=None)
    @given(
        first=disk_moebius(0.55),
        pair=st.tuples(disk_moebius(0.3), disk_moebius(0.3)),
        composed=st.booleans(),
        x=st.floats(-7.0, 7.0),
    )
    def test_moebius_maps_annihilate_it(self, first, pair, composed, x):
        d = compose_descriptors(list(pair)) if composed else first
        m = make_map(d, grid)
        values = circle_row(m, x, [x + offset for offset in circle_offsets])
        assert np.max(np.abs(values)) <= 1e-10

    def test_flow_matches_a_high_precision_reference(self):
        d = flow(sin_field(2), 0.1)
        m = make_map(d, grid)
        for x in (0.0, 1.3, -2.2):
            ys = [x + offset for offset in circle_offsets]
            for y, value in zip([x] + ys, circle_row(m, x, ys)):
                assert_kernel_close(value, reference_circle_kernel(d, x, y))

    def test_one_call_takes_every_base_point(self):
        m = make_map(moebius(0.3, 1.0), grid)
        xs = np.array(kernel_base_points)
        ys = xs[:, None] + np.array(circle_offsets)
        both = circle_kernel(m, xs, ys)
        assert both.shape == (3, len(circle_offsets) + 1)
        for row, x in zip(both, xs):
            single = circle_row(m, x, [x + offset for offset in circle_offsets])
            assert np.array_equal(row, single)

    @pytest.mark.parametrize(
        "offset",
        [
            2 * np.pi - 1e-3,
            2 * np.pi - 1e-9,
            -2 * np.pi + 1e-6,
            2 * np.pi + 1e-12,
            4 * np.pi + 0.5,
        ],
    )
    def test_offsets_near_whole_turns_keep_it_zero(self, offset):
        # The form is 2 pi-periodic in y.  Summed at x - y near +-2 pi,
        # 1/(4 sin^2((x - y)/2)) cancelled against huge terms and read
        # 9.4e-7 to 8.7e20 here; offsets past pi go back by whole turns.
        m = make_map(moebius(0.3, 1.0), grid)
        xs = np.array(kernel_base_points)
        values = circle_kernel(m, xs, xs[:, None] + offset)
        assert np.max(np.abs(values[:, 1:])) <= 1e-10


class TestDeformedStructure:
    """The structure pulled back by a map, T J0 T^{-1}, read from its operator."""

    @staticmethod
    def pulled_back(m, cutoff):
        t = pullback_matrix(m, cutoff, grid)
        origin = PeriodMatrix(cutoff, np.zeros((cutoff, cutoff)))
        return structure_from_period(siegel_action(t, origin))

    def test_identity_gives_the_reference_structure(self):
        j = self.pulled_back(make_map(identity(), grid), 8)
        assert np.max(np.abs(j.A + 1j * np.eye(8))) <= 1e-13
        assert np.max(np.abs(j.B)) <= 1e-13

    def test_moebius_preserves_the_reference_structure(self):
        j = self.pulled_back(make_map(moebius(0.3, 1.0), grid), 16)
        assert np.max(np.abs(j.A + 1j * np.eye(16))) <= 1e-6
        assert np.max(np.abs(j.B)) <= 1e-6
        assert np.max(np.abs(j.A + 1j * np.eye(16))) <= 1e-12
        assert np.max(np.abs(j.B)) <= 1e-12

    def test_flow_structure_squares_to_minus_one(self):
        j = self.pulled_back(make_map(flow(sin_field(2), 0.05), grid), 16)
        defect = np.max(np.abs((j @ j).full() + np.eye(32)))
        assert defect <= 1e-6
        assert defect <= 1e-12

    def test_eigenspace_is_the_period_graph(self):
        m = make_map(flow(sin_field(2), 0.05), grid)
        j = self.pulled_back(m, 32)
        graph = np.vstack([np.eye(32), period_matrix(m, 32, grid).Z])
        assert np.max(np.abs(j.full() @ graph + 1j * graph)) <= 1e-12


class TestJson:
    def test_report_is_json_serializable(self):
        import json

        m = make_map(flow(sin_one, 0.1), grid)
        text = json.dumps(diagonal_report(m, 0, 0.3), sort_keys=True)
        assert "classical" in text
