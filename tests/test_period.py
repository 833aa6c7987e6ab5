"""Tests for period matrices, Siegel membership, and deformations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import cli
from hhalf.catalog import (
    catalog_maps,
    equivariance_pairs,
    sin_field,
    trial_functions,
)
from hhalf.errors import ConditioningError, ValidationError
from hhalf.fourier import (
    CircleFunction,
    SampleGrid,
    analyze,
    from_modes,
    synthesize,
)
from hhalf.maps import (
    compose,
    flow,
    identity,
    make_map,
    moebius,
    power,
    rotation,
)
from hhalf.period import (
    PeriodMatrix,
    equivariance_defect,
    integrability_residual,
    period_derivative,
    period_from_blocks,
    period_from_json,
    period_matrix,
    period_to_json,
    rauch_derivative,
    rauch_fd_defect,
    siegel_action,
    siegel_membership,
    siegel_report_to_json,
    structure_from_period,
)
from hhalf.period import _product
from hhalf.pullback import (
    BlockOperator,
    apply_operator,
    operator_from_json,
    operator_to_json,
    pullback_matrix,
)

grid = SampleGrid(4096)

cos_theta = from_modes(4, {1: 0.5, -1: 0.5})
sin_theta = from_modes(4, {1: -0.5j, -1: 0.5j})
sin_two_theta = sin_field(2)


def zero_period(cutoff):
    return PeriodMatrix(cutoff, np.zeros((cutoff, cutoff)))


@st.composite
def symmetric_contractions(draw, cutoff=4):
    count = 2 * cutoff * cutoff
    vals = draw(
        st.lists(
            st.floats(-4.0, 4.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    flat = np.array(vals)
    raw = (flat[::2] + 1j * flat[1::2]).reshape(cutoff, cutoff)
    sym = raw + raw.T
    top = np.linalg.svd(sym, compute_uv=False)[0]
    # 0.4 / top overflows for a subnormal top; such a matrix is
    # already a contraction and is kept unscaled.
    if top >= np.finfo(float).tiny:
        sym = sym * (0.4 / top)
    return PeriodMatrix(cutoff, sym)


class TestPeriodMatrix:
    def test_identity_map_sits_at_the_origin(self):
        p = period_matrix(make_map(identity(), grid), 16, grid)
        assert np.max(np.abs(p.Z)) <= 1e-14
        assert p.source == identity()

    def test_moebius_maps_sit_at_the_origin(self):
        for a in (0.1, 0.3, 0.4, 0.5):
            for beta in (0.0, 1.0):
                p = period_matrix(make_map(moebius(a, beta), grid), 16, grid)
                assert np.max(np.abs(p.Z)) <= 1e-6

    def test_sl2_flow_moves_only_at_second_order(self):
        # sin theta generates a Moebius direction, so Z grows like the
        # square of the flow time: quartering under each halving.
        norms = []
        for eps in (4e-3, 2e-3, 1e-3):
            p = period_matrix(make_map(flow(sin_theta, eps), grid), 16, grid)
            norms.append(np.max(np.abs(p.Z)))
        assert 0.2 <= norms[1] / norms[0] <= 0.3
        assert 0.2 <= norms[2] / norms[1] <= 0.3

    def test_period_from_blocks_is_the_period_matrix(self):
        m = compose(
            make_map(flow(sin_two_theta, 0.05), grid),
            make_map(moebius(0.2), grid),
        )
        t = pullback_matrix(m, 16, grid)
        direct = period_matrix(m, 16, grid)
        p = period_from_blocks(t)
        assert np.array_equal(p.Z, direct.Z)
        assert p.source is None and direct.source == m.descriptor

    def test_nearly_singular_plus_block_still_gives_the_origin(self):
        # The truncated A of this map has cond ~1e14; the symplectic
        # form inverts I + B B* instead, whose eigenvalues are >= 1.
        p = period_matrix(make_map(moebius(0.5, 0.5), grid), 32, grid)
        assert np.max(np.abs(p.Z)) <= 1e-14

    @given(
        st.floats(0.0, 0.9),
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_moebius_map_sits_at_the_origin(self, radius, turn, beta):
        # beta ranges over one period, so every rotation factor is drawn.
        a = radius * complex(math.cos(turn), math.sin(turn))
        p = period_matrix(make_map(moebius(a, beta), grid), 32, grid)
        assert np.max(np.abs(p.Z)) <= 1e-14

    def test_large_rotation_angles_sit_at_the_origin(self):
        # A lift is fixed only up to 2 pi, so beta is reduced before it
        # is added to the grid angles, whose low bits it would round off.
        for descriptor in (rotation(10000.0), moebius(0.9, 1000.0)):
            p = period_matrix(make_map(descriptor, grid), 32, grid)
            assert np.max(np.abs(p.Z)) <= 1e-14, descriptor

    def test_covering_map_is_rejected(self):
        with pytest.raises(ValidationError):
            period_matrix(make_map(power(2), grid), 8, grid)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            PeriodMatrix(3, np.zeros((2, 2)))

    def test_cutoff_is_read_as_an_integer(self):
        # int(n) == n passed True as 1.
        for bad in (True, 1.5):
            with pytest.raises(ValidationError, match="^cutoff must be"):
                PeriodMatrix(bad, np.zeros((1, 1)))

    def test_non_finite_entries_are_rejected(self):
        # Refused at construction, before any SVD can see them.
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                siegel_membership(PeriodMatrix(1, [[bad]]))

    def test_complex_z_is_kept_read_only(self):
        z = 0.5 * np.eye(2, dtype=complex)
        p = PeriodMatrix(2, z)
        assert np.shares_memory(p.Z, z)
        assert not p.Z.flags.writeable
        bad = np.full((2, 2), complex(math.nan, 0.0))
        with pytest.raises(ValidationError, match="^Z entries must be finite$"):
            PeriodMatrix(2, bad)
        assert bad.flags.writeable


class TestSiegelMembership:
    def test_origin_report(self):
        report = siegel_membership(zero_period(5))
        assert report.symmetry_defect == 0.0
        assert report.sigma_max == 0.0
        assert report.min_eig_I_minus_ZZbar == 1.0
        assert report.member

    def test_diagonal_contraction(self):
        report = siegel_membership(PeriodMatrix(4, 0.5 * np.eye(4)))
        assert report.symmetry_defect == 0.0
        assert_allclose(report.sigma_max, 0.5, rtol=1e-14)
        assert_allclose(report.min_eig_I_minus_ZZbar, 0.75, rtol=1e-14)
        assert report.member

    def test_expansion_is_not_a_member(self):
        report = siegel_membership(PeriodMatrix(3, 1.5 * np.eye(3)))
        assert not report.member
        assert report.min_eig_I_minus_ZZbar < 0.0

    def test_shear_flow_pinned_diagnostics(self):
        p = period_matrix(make_map(flow(sin_two_theta, 0.05), grid), 32, grid)
        report = siegel_membership(p)
        assert report.symmetry_defect <= 1e-12
        assert_allclose(report.sigma_max, 0.02504318, rtol=1e-5)
        assert_allclose(report.min_eig_I_minus_ZZbar, 0.99937284, rtol=1e-5)
        assert report.member

    def test_whole_catalog_is_inside(self):
        for name, m in catalog_maps(grid):
            p = period_matrix(m, 16, grid)
            report = siegel_membership(p)
            scale = 1.0 + float(np.max(np.abs(p.Z)))
            assert report.symmetry_defect <= 1e-6 * scale, name
            assert report.sigma_max < 1.0, name
            assert report.min_eig_I_minus_ZZbar > 0.0, name

    @given(symmetric_contractions())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_contractions_are_members(self, p):
        report = siegel_membership(p)
        assert report.symmetry_defect == 0.0
        assert report.sigma_max <= 0.4 + 1e-12
        assert report.member


class TestSiegelAction:
    def test_identity_operator_fixes_everything(self):
        p = period_matrix(make_map(flow(sin_two_theta, 0.05), grid), 16, grid)
        eye = BlockOperator(16, np.eye(16), np.zeros((16, 16)))
        moved = siegel_action(eye, p)
        assert np.max(np.abs(moved.Z - p.Z)) <= 1e-14

    def test_action_on_origin_recovers_the_period_matrix(self):
        m = make_map(flow(sin_two_theta, 0.05), grid)
        t = pullback_matrix(m, 32, grid)
        moved = siegel_action(t, zero_period(32))
        direct = period_matrix(m, 32, grid)
        assert np.max(np.abs(moved.Z - direct.Z)) <= 1e-13

    def test_cutoff_mismatch_is_rejected(self):
        eye = BlockOperator(4, np.eye(4), np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            siegel_action(eye, zero_period(5))

    def test_singular_denominator_is_refused(self):
        t = BlockOperator(1, np.eye(1), np.eye(1))
        with pytest.raises(ConditioningError):
            siegel_action(t, PeriodMatrix(1, -np.eye(1)))


class TestEquivariance:
    def test_identity_inner_map(self):
        outer = make_map(flow(sin_two_theta, 0.05), grid)
        inner = make_map(identity(), grid)
        assert equivariance_defect(outer, inner, 16, grid) <= 1e-13

    def test_rotation_pair(self):
        outer = make_map(rotation(0.3), grid)
        inner = make_map(rotation(1.1), grid)
        assert equivariance_defect(outer, inner, 16, grid) <= 1e-10

    def test_catalog_pairs(self):
        for name, outer, inner in equivariance_pairs():
            defect = equivariance_defect(
                make_map(outer, grid), make_map(inner, grid), 32, grid
            )
            assert defect <= 1e-10, name

    def test_frozen_composition_order(self):
        # The defect compares Z(phi o psi) with Z(T_psi T_phi); the
        # product in the other order is off by O(1e-3), so a regression
        # here would flag any order change immediately.
        outer = make_map(flow(sin_two_theta, 0.05), grid)
        inner = make_map(moebius(0.2), grid)
        good = equivariance_defect(outer, inner, 16, grid)
        assert good <= 1e-9

        composed = period_matrix(compose(outer, inner), 16, grid)
        t_outer = pullback_matrix(outer, 16, grid)
        t_inner = pullback_matrix(inner, 16, grid)
        swapped = period_from_blocks(t_outer @ t_inner).Z - composed.Z
        assert np.max(np.abs(swapped)) > 1e-4

    def test_defect_is_the_block_product_difference(self):
        outer = make_map(flow(sin_two_theta, 0.05), grid)
        inner = make_map(moebius(0.2), grid)
        product = pullback_matrix(inner, 16, grid) @ pullback_matrix(
            outer, 16, grid
        )
        composed = period_matrix(compose(outer, inner), 16, grid)
        expected = np.max(np.abs(period_from_blocks(product).Z - composed.Z))
        assert equivariance_defect(outer, inner, 16, grid) == expected


def old_rauch_derivative(m, cutoff):
    # The former entry loop sqrt(rs)/(r+s-1), kept as an oracle.
    out = np.zeros((cutoff, cutoff), dtype=np.complex128)
    for r in range(1, cutoff + 1):
        s = m + 2 - r
        if 1 <= s <= cutoff:
            out[r - 1, s - 1] = np.sqrt(float(r * s)) / (r + s - 1.0)
    return out


def weil_petersson(v):
    # (1/6) sum_{k>0} (k^3 - k) |c_k|^2 over the positive modes of v.
    k = np.arange(1, v.bandlimit + 1)
    c = v.coeffs[v.bandlimit + 1 :]
    return float(np.sum((k**3 - k) * np.abs(c) ** 2)) / 6.0


class TestPeriodDerivative:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_flow_to_first_order(self, seed):
        # Fields with modes 1..6, the Moebius mode included.
        for v in trial_functions(2, 6, seed):
            dz = period_derivative(v, 16)
            errors = []
            for eps in (1e-4, 1e-5):
                z = period_matrix(make_map(flow(v, eps), grid), 16, grid).Z
                errors.append(float(np.max(np.abs(z / eps - dz))))
            assert errors[0] <= 10.0 * 1e-4
            # A wrong entry would leave a defect that does not shrink.
            assert 0.09 <= errors[1] / errors[0] <= 0.11

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bandlimit=st.integers(1, 12),
        extra=st.integers(-1, 8),
    )
    def test_hilbert_schmidt_norm_is_the_weil_petersson_form(
        self, seed, bandlimit, extra
    ):
        (v,) = trial_functions(1, bandlimit, seed)
        dz = period_derivative(v, max(1, bandlimit + extra))
        assert np.array_equal(dz, dz.T)
        hs = float(np.sum(np.abs(dz) ** 2))
        assert_allclose(hs, weil_petersson(v), rtol=1e-14, atol=1e-300)

    def test_moebius_directions_are_annihilated(self):
        for a, b in [(1.0, 0.0), (0.0, 1.0), (0.3, -2.5)]:
            v = from_modes(1, {1: 0.5 * (a - 1j * b), -1: 0.5 * (a + 1j * b)})
            assert np.all(period_derivative(v, 12) == 0.0)
        # Adding a Moebius direction leaves the derivative unchanged.
        (v,) = trial_functions(1, 5, 3)
        moved = v + from_modes(1, {1: 0.7 - 0.2j, -1: 0.7 + 0.2j})
        assert np.array_equal(period_derivative(moved, 9), period_derivative(v, 9))

    def test_validation(self):
        with pytest.raises(ValidationError):
            period_derivative(from_modes(2, {2: 1.0}), 4)
        with pytest.raises(ValidationError):
            period_derivative(np.ones(5), 4)

    @pytest.mark.parametrize("cutoff", [0, True, -2, 2.5])
    def test_cutoff_is_an_integer_of_at_least_one(self, cutoff):
        # Each was read as a matrix size: 0 x 0, 1 x 1, or a numpy error.
        (v,) = trial_functions(1, 4, 0)
        with pytest.raises(ValidationError, match="^cutoff must be an integer"):
            period_derivative(v, cutoff)


class TestRauchDerivative:
    def test_first_direction(self):
        d = rauch_derivative(0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(d.real, expected)
        assert np.all(d.imag == 0.0)

    def test_second_direction(self):
        d = rauch_derivative(1, 5)
        assert_allclose(d[0, 1], math.sqrt(2.0) / 2.0, rtol=1e-15)
        assert_allclose(d[1, 0], math.sqrt(2.0) / 2.0, rtol=1e-15)
        assert np.count_nonzero(d) == 2

    def test_support_and_symmetry(self):
        for m in (0, 1, 2, 5, 11):
            d = rauch_derivative(m, 8)
            assert np.array_equal(d, d.T)
            rows, cols = np.nonzero(d)
            assert np.all(rows + cols == m), m

    def test_matches_the_former_entry_formula(self):
        for m in range(40):
            for cutoff in range(1, 33):
                d = rauch_derivative(m, cutoff)
                assert np.all(d.imag == 0.0)
                worst = np.max(np.abs(d - old_rauch_derivative(m, cutoff)))
                assert worst <= 2.3e-16, (m, cutoff)

    def test_negative_direction_is_rejected(self):
        with pytest.raises(ValidationError):
            rauch_derivative(-1, 4)

    @pytest.mark.parametrize("cutoff", [0, True, -2, 2.5])
    def test_cutoff_is_an_integer_of_at_least_one(self, cutoff):
        with pytest.raises(ValidationError, match="^cutoff must be an integer"):
            rauch_derivative(1, cutoff)


class TestRauchFiniteDifference:
    def test_defect_is_small_against_the_derivative_scale(self):
        pinned = {0: 2.000011e-3, 1: 1.125003e-3, 2: 8.88891e-4}
        for m in (0, 1, 2):
            defect = rauch_fd_defect(m, 1e-3, 16, grid)
            scale = np.max(np.abs(rauch_derivative(m, 16)))
            assert defect <= 0.05 * scale
            assert_allclose(defect, pinned[m], rtol=1e-3)

    def test_first_order_decay(self):
        for m in (0, 1, 2):
            coarse = rauch_fd_defect(m, 2e-3, 16, grid)
            fine = rauch_fd_defect(m, 1e-3, 16, grid)
            assert 0.3 <= fine / coarse <= 0.7

    def test_zero_step_is_refused(self):
        # Z / eps divided by zero and returned inf.
        with pytest.raises(ValidationError, match="nonzero eps"):
            rauch_fd_defect(1, 0.0, 16, grid)

    def test_index_outside_the_compared_window_is_refused(self):
        # The derivative sits on r + s = m + 2; only r + s <= min(N, 10)
        # is compared, so m = 9 at N = 16 would compare zeros.
        refused = [(9, 16), (5, 6), (0, 1), (-1, 16), (10**9, 16), (1e300, 16)]
        for m, cutoff in refused:
            with pytest.raises(ValidationError, match="compared window"):
                rauch_fd_defect(m, 1e-3, cutoff, grid)
        assert rauch_fd_defect(8, 1e-3, 16, grid) > 0.0
        assert rauch_fd_defect(4, 1e-3, 6, grid) > 0.0


class TestStructures:
    def test_reference_structure_from_the_origin(self):
        j = structure_from_period(zero_period(16))
        assert np.array_equal(j.A, -1j * np.eye(16))
        assert np.array_equal(j.B, np.zeros((16, 16)))

    def test_identity_map_gives_the_reference_structure(self):
        for n in (8, 16):
            p = period_matrix(make_map(identity(), grid), n, grid)
            j = structure_from_period(p)
            assert np.max(np.abs(j.A + 1j * np.eye(n))) <= 1e-13
            assert np.max(np.abs(j.B)) <= 1e-13

    def test_moebius_structure_is_the_reference_one(self):
        t = pullback_matrix(make_map(moebius(0.3, 1.0), grid), 16, grid)
        j = structure_from_period(siegel_action(t, zero_period(16)))
        assert np.max(np.abs(j.A + 1j * np.eye(16))) <= 1e-12
        assert np.max(np.abs(j.B)) <= 1e-12

    def test_structures_square_to_minus_one(self):
        m = make_map(flow(sin_two_theta, 0.05), grid)
        t = pullback_matrix(m, 16, grid)
        for p in (period_matrix(m, 16, grid), siegel_action(t, zero_period(16))):
            j = structure_from_period(p)
            square = (j @ j).full() + np.eye(32)
            assert np.max(np.abs(square)) <= 1e-12

    def test_graph_is_the_minus_i_eigenspace(self):
        m = make_map(flow(sin_two_theta, 0.05), grid)
        p = period_matrix(m, 32, grid)
        j = structure_from_period(p).full()
        graph = np.vstack([np.eye(32), p.Z])
        assert np.max(np.abs(j @ graph + 1j * graph)) <= 1e-12
        conjugate_graph = np.vstack([np.conj(p.Z), np.eye(32)])
        assert np.max(np.abs(j @ conjugate_graph - 1j * conjugate_graph)) <= 1e-12
        # The structure is the pulled-back one, T J0 T^{-1}: the columns
        # [A; conj B] and [B; conj A] of T are its -i and +i eigenvectors
        # once the cutoff holds the corner that the flow reaches.
        t = pullback_matrix(m, 32, grid).full()
        j0 = np.diag(np.concatenate([np.full(32, -1j), np.full(32, 1j)]))
        assert np.max(np.abs(j @ t - t @ j0)) <= 1e-12

    def test_closed_form_matches_the_basis_conjugation(self):
        # Oracle: conjugate J0 by the graph basis with a 2N x 2N solve.
        def conjugated(z):
            n = z.shape[0]
            basis = np.block([[np.eye(n), np.conj(z)], [z, np.eye(n)]])
            j0 = np.diag(np.concatenate([np.full(n, -1j), np.full(n, 1j)]))
            return np.linalg.solve(basis.T, (basis @ j0).T).T

        rng = np.random.default_rng(3)
        raw = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        cases = [
            (name, period_matrix(m, 32, grid).Z)
            for name, m in catalog_maps(grid)
        ]
        for name, z in (("symmetric", raw + raw.T), ("non-symmetric", raw)):
            top = np.linalg.svd(z, compute_uv=False)[0]
            cases.append((name, z * (0.7 / top)))
        for name, z in cases:
            j = structure_from_period(PeriodMatrix(32, z)).full()
            assert np.max(np.abs(j - conjugated(z))) <= 1e-13, name

    @given(symmetric_contractions())
    @settings(max_examples=40, deadline=None)
    def test_contractions_give_structures_on_their_graph(self, p):
        j = structure_from_period(p).full()
        assert np.max(np.abs(j @ j + np.eye(8))) <= 1e-12
        graph = np.vstack([np.eye(4), p.Z])
        assert np.max(np.abs(j @ graph + 1j * graph)) <= 1e-12

    def test_boundary_z_is_refused(self):
        p = PeriodMatrix(4, np.diag([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ConditioningError, match="numerically singular"):
            structure_from_period(p)


class TestIntegrability:
    def test_reference_structure_hand_case(self):
        # With the reference structure, fg - (Jf)(Jg) = sin 2theta and
        # both sides of the residual identity equal -cos 2theta.
        j0 = structure_from_period(zero_period(16))
        jf = apply_operator(j0, cos_theta)
        jg = apply_operator(j0, sin_theta)
        assert abs(jf.coefficient(1) - (-0.5j)) == 0.0
        assert abs(jg.coefficient(1) - (-0.5)) == 0.0

        trials = [cos_theta, sin_theta]
        assert integrability_residual(zero_period(16), trials) <= 1e-12

    def test_reference_structure_both_sides_match_minus_cos(self):
        j0 = structure_from_period(zero_period(16))
        f, g = cos_theta, sin_theta
        jf = apply_operator(j0, f)
        jg = apply_operator(j0, g)
        left = apply_operator(j0, _product(f, g, 16) - _product(jf, jg, 16))
        right = _product(f, jg, 16) + _product(g, jf, 16)
        for side in (left, right):
            assert abs(side.coefficient(2) - (-0.5)) <= 1e-13
            assert abs(side.coefficient(-2) - (-0.5)) <= 1e-13
            assert abs(side.coefficient(1)) <= 1e-13

    def test_product_matches_the_grid_oracle(self):
        rng = np.random.default_rng(5)

        def complex_trial(bandlimit):
            c = rng.normal(size=2 * bandlimit + 1) * (1.0 + 1j)
            c[bandlimit] = 0.0
            return CircleFunction(bandlimit, c)

        for cutoff in (8, 32):
            real = trial_functions(2, cutoff // 2, seed=cutoff)
            wide = trial_functions(1, cutoff, seed=cutoff)[0]
            pairs = [
                (real[0], real[1]),
                (real[0], wide),
                (real[0], complex_trial(cutoff // 2)),
                (complex_trial(cutoff), complex_trial(3)),
            ]
            for f, g in pairs:
                exact = _product(f, g, cutoff)
                samples = synthesize(f, grid) * synthesize(g, grid)
                oracle = analyze(samples, grid, cutoff)
                scale = np.sum(np.abs(f.coeffs)) * np.sum(np.abs(g.coeffs))
                assert exact.bandlimit == cutoff
                assert exact.coefficient(0) == 0.0
                error = np.max(np.abs(exact.coeffs - oracle.coeffs))
                assert error <= 1e-15 * scale
                assert exact.real == (f.real and g.real) == oracle.real

    def test_map_sourced_structures_are_integrable(self):
        trials = [cos_theta, sin_two_theta] + trial_functions(2, 8, seed=42)
        for name, m in catalog_maps(grid):
            p = period_matrix(m, 32, grid)
            assert integrability_residual(p, trials) <= 1e-12, name

    def test_operator_source_matches_map_source(self):
        # An operator artifact enters through period_from_blocks, the
        # same formula that period_matrix applies to the map's blocks.
        trials = [cos_theta, sin_two_theta]
        m = make_map(flow(sin_two_theta, 0.05), grid)
        record = cli._json_text(operator_to_json(pullback_matrix(m, 16, grid)))
        t = operator_from_json(json.loads(record))
        from_map = integrability_residual(period_matrix(m, 16, grid), trials)
        from_operator = integrability_residual(period_from_blocks(t), trials)
        assert from_operator == from_map

    def test_singular_operator_is_refused(self):
        # siegel_action solves with A + B Z for a user-supplied Z, so at
        # the origin it still refuses the nearly singular plus block
        # that period_from_blocks never inverts.
        t = pullback_matrix(make_map(moebius(0.5, 0.5), grid), 32, grid)
        with pytest.raises(ConditioningError, match="numerically singular"):
            siegel_action(t, zero_period(32))

    def test_random_z_is_far_from_integrable(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        sym = 0.5 * (raw + raw.T)
        sym *= 0.5 / np.linalg.svd(sym, compute_uv=False)[0]
        trials = [cos_theta, sin_two_theta] + trial_functions(1, 8, seed=42)
        residual = integrability_residual(PeriodMatrix(16, sym), trials)
        assert residual > 0.1

    def test_validation(self):
        complex_trial = from_modes(2, {1: 1.0})
        origin = zero_period(16)
        with pytest.raises(ValidationError):
            integrability_residual(origin, [complex_trial])
        wide_trial = trial_functions(1, 10, seed=1)[0]
        with pytest.raises(ValidationError):
            integrability_residual(origin, [wide_trial])
        m = make_map(identity(), grid)
        for source in (m, pullback_matrix(m, 16, grid)):
            with pytest.raises(ValidationError, match="PeriodMatrix"):
                integrability_residual(source, [cos_theta])


class TestJson:
    def test_roundtrip_with_source(self):
        from hhalf.maps import descriptor_to_json

        p = period_matrix(make_map(flow(sin_two_theta, 0.05), grid), 8, grid)
        back = period_from_json(json.loads(cli._json_text(period_to_json(p))))
        assert back.cutoff == p.cutoff
        assert np.array_equal(back.Z, p.Z)
        assert descriptor_to_json(back.source) == descriptor_to_json(p.source)

    def test_roundtrip_without_source(self):
        p = PeriodMatrix(3, 0.25 * np.eye(3))
        back = period_from_json(json.loads(cli._json_text(period_to_json(p))))
        assert back.source is None
        assert np.array_equal(back.Z, p.Z)

    def test_malformed_objects_are_rejected(self):
        with pytest.raises(ValidationError):
            period_from_json({"cutoff": 2, "Z": [[{"re": 0.0, "im": 0.0}]]})
        with pytest.raises(ValidationError):
            period_from_json({"Z": []})

    def test_unknown_fields_are_refused_by_name(self):
        obj = {"cutoff": 1, "Z": [[{"re": 0.1, "im": 0.0}]], "source": None}
        with pytest.raises(ValidationError, match="unknown PeriodMatrix fields: bogus$"):
            period_from_json(dict(obj, bogus=1))
        # Period matrices no longer record a condition number.
        unknown = "unknown PeriodMatrix fields: condition_of_A$"
        with pytest.raises(ValidationError, match=unknown):
            period_from_json(dict(obj, condition_of_A=1.0))
        obj["Z"][0][0]["imag"] = 5.0
        with pytest.raises(ValidationError, match="unknown Z entry fields: imag$"):
            period_from_json(obj)

    def test_non_finite_entries_are_rejected(self):
        for re, im in ((float("nan"), 0.0), (0.0, float("inf"))):
            obj = {"cutoff": 1, "Z": [[{"re": re, "im": im}]]}
            with pytest.raises(ValidationError, match="finite"):
                period_from_json(obj)

    def test_report_serialization(self):
        report = siegel_membership(PeriodMatrix(2, 0.5 * np.eye(2)))
        record = siegel_report_to_json(report)
        assert set(record) == {
            "symmetry_defect",
            "sigma_max",
            "min_eig_I_minus_ZZbar",
        }
