"""Tests for quantum derivatives, HS diagnostics, and welding kernels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import quantum
from hhalf.catalog import catalog_maps, sin_field
from hhalf.errors import AliasingError, NumericalError, ValidationError
from hhalf.fourier import SampleGrid, from_modes, norm_squared, zero_function
from hhalf.maps import (
    compose,
    compose_descriptors,
    evaluate_lift,
    flow,
    identity,
    inverse_descriptor,
    make_map,
    moebius,
    power,
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
    default_deltas,
    diagonal_limit,
    diagonal_limit_line,
    diagonal_report,
    fractional_linear,
    hs_bracket_check,
    hs_norm,
    kernel_eval,
    kernel_eval_line,
    moebius_line_coefficients,
    quantum_derivative_matrix,
)

grid = SampleGrid(4096)

cos_one = from_modes(1, {1: 0.5, -1: 0.5})
sin_one = from_modes(1, {1: -0.5j, -1: 0.5j})

wide_deltas = (0.04, 0.02, 0.01)


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
        coarse = make_map(moebius(0.5), SampleGrid(8))
        with pytest.raises(AliasingError, match="does not resolve"):
            kernel_eval(coarse, 0, 0.1, 0.3)

    @pytest.mark.parametrize(
        "order, offset",
        # dx**2 underflows to zero at 1e-300 and 1e-320, a
        # ZeroDivisionError; at the others both terms overflow, and
        # inf - inf is NaN.
        [(2, 1e-300), (2, 1e-320), (2, 1e-160), (2, 1e-155), (1, 1e-320)],
    )
    def test_offsets_without_a_finite_kernel_are_numerical_failures(
        self, order, offset
    ):
        circle = make_map(flow(sin_field(2), 0.1), grid)
        line = fractional_linear(moebius_line_coefficients(moebius(0.3)))
        message = "^order %d kernel is not finite at offset x - y = %r$"
        for call in (
            lambda: kernel_eval(circle, order, 0.0, offset),
            lambda: kernel_eval_line(*line, order, 0.0, offset),
        ):
            with pytest.raises(NumericalError, match=message % (order, -offset)):
                call()
        with pytest.raises(NumericalError, match="^order %d kernel" % order):
            diagonal_limit_line(*line, order, 0.0, (2.0 * offset, offset))

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
        # maps; the vanishing law lives on the line realization.
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
        line = fractional_linear(moebius_line_coefficients(moebius(0.3)))
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

    def test_oversized_deltas_are_flagged(self):
        m = make_map(flow(sin_one, 0.1), grid)
        with pytest.raises(NumericalError):
            diagonal_limit(m, 2, 1.0, (5.0, 2.5, 1.25))

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
        }
        assert record["deltas"] == list(default_deltas)
        assert record["values"] == [
            kernel_eval(m, 2, 1.0, 1.0 + d) for d in default_deltas
        ]
        assert record["defect"] <= 1e-8


class TestLineKernels:
    def test_exponential_map_reaches_minus_one_twelfth(self):
        limit = diagonal_limit_line(math.exp, math.exp, 2, 0.3)
        assert abs(limit + 1.0 / 12.0) <= 1e-9
        limit = diagonal_limit_line(math.exp, math.exp, 2, 0.3, wide_deltas)
        assert abs(limit + 1.0 / 12.0) <= 1e-9

    def test_exponential_kernel_expansion(self):
        # K2(u) = -1/12 + u^2/240 + O(u^4) for h = exp
        for u in (0.02, 0.01):
            value = kernel_eval_line(math.exp, math.exp, 2, 0.0, -u)
            assert abs(value - (-1.0 / 12.0 + u * u / 240.0)) <= 1e-9

    def test_coincident_points_are_rejected(self):
        with pytest.raises(ValidationError):
            kernel_eval_line(math.exp, math.exp, 2, 0.3, 0.3)


class TestLineRealization:
    def test_identity_is_the_unit_matrix(self):
        assert np.array_equal(
            moebius_line_coefficients(identity()), np.eye(2)
        )

    def test_rotation_realizes_as_a_circle_of_matrices(self):
        half = 0.35
        expected = np.array(
            [
                [math.cos(half), math.sin(half)],
                [-math.sin(half), math.cos(half)],
            ]
        )
        assert_allclose(
            moebius_line_coefficients(rotation(0.7)), expected, atol=1e-15
        )

    def test_boundary_action_parity(self):
        # Cayley-conjugating back must reproduce the disk map on the
        # circle: C(g(x)) = w(C(x)) for real x.
        for a, beta in ((0.3, 0.0), (0.3, 0.7), (0.5, 0.5), (0.1, 1.0)):
            value, _ = fractional_linear(
                moebius_line_coefficients(moebius(a, beta))
            )
            for x in (-2.0, -0.5, 0.0, 0.4, 1.9):
                z = (x - 1j) / (x + 1j)
                w = np.exp(1j * beta) * (z - a) / (1.0 - a * z)
                g = value(x)
                assert abs((g - 1j) / (g + 1j) - w) <= 1e-12

    def test_unit_determinant(self):
        for d in (
            moebius(0.3, 0.7),
            compose_descriptors([moebius(0.2, 0.3), rotation(0.4)]),
            inverse_descriptor(moebius(0.3, 0.5)),
        ):
            mat = moebius_line_coefficients(d)
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            assert_allclose(det, 1.0, rtol=1e-12)

    def test_composition_and_inverse_act_correctly(self):
        comp = compose_descriptors([moebius(0.2, 0.3), moebius(0.4)])
        hc, _ = fractional_linear(moebius_line_coefficients(comp))
        h1, _ = fractional_linear(moebius_line_coefficients(moebius(0.2, 0.3)))
        h2, _ = fractional_linear(moebius_line_coefficients(moebius(0.4)))
        for x in (-1.0, 0.0, 0.3, 1.7):
            assert abs(hc(x) - h1(h2(x))) <= 1e-12
        hi, _ = fractional_linear(
            moebius_line_coefficients(inverse_descriptor(moebius(0.3, 0.5)))
        )
        h0, _ = fractional_linear(moebius_line_coefficients(moebius(0.3, 0.5)))
        assert abs(hi(h0(0.37)) - 0.37) <= 1e-12

    def test_non_moebius_descriptors_are_rejected(self):
        with pytest.raises(ValidationError):
            moebius_line_coefficients(flow(sin_one, 0.1))

    def test_schwarzian_annihilation_on_the_line(self):
        for a, beta in ((0.1, 0.0), (0.1, 1.0), (0.3, 0.0), (0.3, 0.7), (0.5, 0.5)):
            value, slope = fractional_linear(
                moebius_line_coefficients(moebius(a, beta))
            )
            for x in (0.3, -0.5, 1.0):
                limit = diagonal_limit_line(value, slope, 2, x, wide_deltas)
                assert abs(limit) <= 1e-8, (a, beta, x)
                raw = kernel_eval_line(value, slope, 2, x, x + 0.04)
                assert abs(raw) <= 1e-9

    def test_fractional_linear_validation(self):
        with pytest.raises(ValidationError):
            fractional_linear(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            fractional_linear(np.array([[1.0, 0.0], [0.0, -1.0]]))


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
