"""Tests for truncated composition operators and their block matrices."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import cli
from hhalf.catalog import catalog_descriptors, sin_field
from hhalf.errors import AliasingError, ValidationError
from hhalf.fourier import SampleGrid, from_modes
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
    radial_dilatation,
    rauch_flow,
    rotation,
)
from hhalf.period import period_matrix
from hhalf.pullback import (
    BlockOperator,
    invariance_defect,
    operator_from_json,
    operator_norm_estimate,
    operator_to_json,
    pullback_function,
    pullback_matrix,
    sub_operator,
)
from hhalf.symplectic import symplectic_form
from test_fourier import random_real_function

grid = SampleGrid(4096)
# Eight times the default grid, a reference for resolved results.
fine = SampleGrid(32768)

cos_theta = from_modes(4, {1: 0.5, -1: 0.5})
sin_theta = from_modes(4, {1: -0.5j, -1: 0.5j})
sin_two_theta = from_modes(4, {2: -0.5j, -2: 0.5j})


def bessel_j(k, z, terms=60):
    # Ascending series; k may be negative.
    if k < 0:
        return (-1.0) ** (-k) * bessel_j(-k, z, terms)
    total = 0.0
    term = (z / 2.0) ** k / math.factorial(k)
    for m in range(terms):
        total += term
        term *= -(z / 2.0) ** 2 / ((m + 1.0) * (m + 1.0 + k))
    return total


def under_resolved_cases():
    # (descriptor, cutoff, grid): the spectrum of w^cutoff is still
    # 2e-2 (moebius) and 0.36 (flow) within size/8 of Nyquist, and
    # the blocks are off by 1.7e-2 and 1.1e-6 against a fine grid.
    return [
        (moebius(0.9), 32, SampleGrid(512)),
        (flow(sin_field(9), 0.1), 60, SampleGrid(256)),
    ]


def coupling_matrix(n):
    # Matrix of the symplectic form in the normalized block basis.
    zero = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[zero, -1j * eye], [1j * eye, zero]])


@st.composite
def block_operators(draw, cutoff=3):
    count = 4 * cutoff * cutoff
    vals = draw(
        st.lists(
            st.floats(-8.0, 8.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    flat = np.array(vals)
    half = count // 2
    a = (flat[:half:2] + 1j * flat[1:half:2]).reshape(cutoff, cutoff)
    b = (flat[half::2] + 1j * flat[half + 1 :: 2]).reshape(cutoff, cutoff)
    return BlockOperator(cutoff, a, b)


class TestPullbackFunction:
    def test_identity_map_returns_same_coefficients(self):
        rng = np.random.default_rng(11)
        f = random_real_function(8, rng)
        vf = pullback_function(make_map(identity(), grid), f, grid)
        for n in range(-12, 13):
            if n == 0:
                continue
            assert abs(vf.coefficient(n) - f.coefficient(n)) <= 1e-14

    def test_rotation_twists_each_mode(self):
        rng = np.random.default_rng(12)
        f = random_real_function(8, rng)
        vf = pullback_function(make_map(rotation(0.7), grid), f, grid)
        for n in range(-8, 9):
            if n == 0:
                continue
            expected = np.exp(1j * n * 0.7) * f.coefficient(n)
            assert abs(vf.coefficient(n) - expected) <= 1e-14

    def test_squaring_map_doubles_the_frequency(self):
        vf = pullback_function(make_map(power(2), grid), cos_theta, grid)
        assert abs(vf.coefficient(2) - 0.5) <= 1e-14
        assert abs(vf.coefficient(-2) - 0.5) <= 1e-14
        for n in (1, 3, 4, -1, -3, -4):
            assert abs(vf.coefficient(n)) <= 1e-14

    def test_pullback_of_real_function_is_real(self):
        rng = np.random.default_rng(13)
        f = random_real_function(6, rng)
        vf = pullback_function(make_map(moebius(0.3, 1.0), grid), f, grid)
        assert vf.real

    def test_guard_rejects_unresolvable_spread(self):
        # Bandlimit 100 under moebius(0.5) is resolved on 4096 points:
        # it matches a grid eight times finer to rounding.
        f = random_real_function(100, np.random.default_rng(14))
        vf = pullback_function(make_map(moebius(0.5), grid), f, grid)
        ref = pullback_function(make_map(moebius(0.5), fine), f, fine)
        n = vf.bandlimit
        head = ref.coeffs[ref.bandlimit - n : ref.bandlimit + n + 1]
        assert np.max(np.abs(vf.coeffs - head)) <= 1e-14
        # A function as wide as the cutoff of an under-resolved
        # assembly spreads past Nyquist in the same way.
        for descriptor, cutoff, coarse in under_resolved_cases():
            f = random_real_function(cutoff, np.random.default_rng(14))
            phi = make_map(descriptor, coarse)
            with pytest.raises(AliasingError, match="cannot resolve"):
                pullback_function(phi, f, coarse)
        # Modes that land past Nyquist fold onto clean low modes and
        # leave no tail: cos 4000 theta reads as cos 96 theta on 4096.
        past_nyquist = [
            (power(4), from_modes(1000, {1000: 0.5, -1000: 0.5})),
            (identity(), from_modes(3000, {3000: 0.5, -3000: 0.5})),
        ]
        for descriptor, f in past_nyquist:
            phi = make_map(descriptor, grid)
            with pytest.raises(AliasingError, match="past Nyquist"):
                pullback_function(phi, f, grid)

    def test_exact_modes_near_nyquist_are_accepted(self):
        # Modes up to bandlimit x degree are the composition itself,
        # not spread, even within size/8 of Nyquist.
        f = random_real_function(1600, np.random.default_rng(15))
        vf = pullback_function(make_map(identity(), grid), f, grid)
        assert abs(vf.coefficient(1600) - f.coefficient(1600)) <= 1e-14
        vf = pullback_function(make_map(rotation(0.7), grid), f, grid)
        expected = f.coefficient(1555) * np.exp(1j * 1555 * 0.7)
        assert abs(vf.coefficient(1555) - expected) <= 1e-13
        f = random_real_function(800, np.random.default_rng(16))
        vf = pullback_function(make_map(power(2), grid), f, grid)
        assert abs(vf.coefficient(1600) - f.coefficient(800)) <= 1e-14
        assert abs(vf.coefficient(1599)) <= 1e-14


class TestMatrixAssembly:
    def test_identity_map_gives_identity_blocks(self):
        t = pullback_matrix(make_map(identity(), grid), 16, grid)
        assert np.max(np.abs(t.A - np.eye(16))) <= 1e-14
        assert np.max(np.abs(t.B)) <= 1e-14

    def test_rotation_matrix_is_diagonal_phase(self):
        t = pullback_matrix(make_map(rotation(0.7), grid), 16, grid)
        qs = np.arange(1, 17)
        expected = np.diag(np.exp(1j * qs * 0.7))
        assert np.max(np.abs(t.A - expected)) <= 1e-13
        assert np.max(np.abs(t.B)) <= 1e-14

    def test_shear_flow_matches_bessel_series(self):
        # For phi(x) = x + eps sin x the plus-plus block is
        # A[p-1, q-1] = sqrt(p/q) J_{p-q}(q eps) and the minus-plus
        # block is B[r-1, s-1] = sqrt(r/s) J_{r+s}(-s eps).
        eps_flow = 0.1
        t = pullback_matrix(make_map(flow(sin_theta, eps_flow), grid), 16, grid)
        for p in range(1, 17):
            for q in range(1, 17):
                oracle = math.sqrt(p / q) * bessel_j(p - q, q * eps_flow)
                assert abs(t.A[p - 1, q - 1] - oracle) <= 1e-12
                oracle = math.sqrt(p / q) * bessel_j(p + q, -q * eps_flow)
                assert abs(t.B[p - 1, q - 1] - oracle) <= 1e-12

    def test_moebius_minus_block_vanishes(self):
        # Disk automorphisms keep the holomorphic half invariant, so
        # the minus-to-plus block is zero up to quadrature noise.
        for a, beta in ((0.1, 0.0), (0.3, 1.0), (0.5, 0.5)):
            t = pullback_matrix(make_map(moebius(a, beta), grid), 16, grid)
            assert np.max(np.abs(t.B)) <= 1e-13

    def test_degree_two_map_is_rejected(self):
        with pytest.raises(ValidationError):
            pullback_matrix(make_map(power(2), grid), 8, grid)

    def test_guard_rejects_coarse_grid_at_large_cutoff(self):
        # Cutoff 96 under moebius(0.5) is resolved on 4096 points.
        t = pullback_matrix(make_map(moebius(0.5), grid), 96, grid)
        u = pullback_matrix(make_map(moebius(0.5), fine), 96, fine)
        assert np.max(np.abs(t.A - u.A)) <= 1e-14
        assert np.max(np.abs(t.B - u.B)) <= 1e-14
        for descriptor, cutoff, coarse in under_resolved_cases():
            phi = make_map(descriptor, coarse)
            with pytest.raises(AliasingError, match="cannot resolve"):
                pullback_matrix(phi, cutoff, coarse)
        # Past Nyquist, w^3000 = e^{3000 i theta} reads as mode -1096 on
        # 4096 points and would fill B with no tail to show it.
        with pytest.raises(AliasingError, match="past Nyquist"):
            pullback_matrix(make_map(identity(), grid), 3000, grid)

    def test_cutoff_near_nyquist_is_accepted_when_exact(self):
        # w^200 of the identity sits within size/8 of Nyquist on 512
        # points; it is the blocks' own top mode, not spread.
        coarse = SampleGrid(512)
        t = pullback_matrix(make_map(identity(), coarse), 200, coarse)
        assert np.max(np.abs(t.A - np.eye(200))) <= 1e-13
        assert np.max(np.abs(t.B)) <= 1e-13
        with pytest.raises(AliasingError, match="past Nyquist"):
            pullback_matrix(make_map(identity(), coarse), 256, coarse)

    def test_catalog_is_resolved_on_a_coarse_grid(self):
        # At N = 32 every catalog map is exact to rounding on 512
        # points; the refusal must not fire on any of them.
        coarse = SampleGrid(512)
        for name, descriptor in catalog_descriptors():
            t = pullback_matrix(make_map(descriptor, coarse), 32, coarse)
            u = pullback_matrix(make_map(descriptor, grid), 32, grid)
            assert np.max(np.abs(t.A - u.A)) <= 1e-14, name
            assert np.max(np.abs(t.B - u.B)) <= 1e-14, name

    def test_moebius_corner_of_wide_assembly_is_unitary(self):
        # The 16 x 16 corner read from a cutoff-96 assembly is unitary
        # to machine precision, while the direct cutoff-16 Gram matrix
        # misses the identity by O(1) truncation spill.
        for a in (0.1, 0.3, 0.5):
            t96 = pullback_matrix(make_map(moebius(a), grid), 96, grid)
            gram = t96.A.conj().T @ t96.A
            corner = np.max(np.abs(gram[:16, :16] - np.eye(16)))
            assert corner <= 1e-6
            t16 = pullback_matrix(make_map(moebius(a), grid), 16, grid)
            direct = np.max(np.abs(t16.A.conj().T @ t16.A - np.eye(16)))
            assert direct > 0.4

    def test_composition_reverses_operator_order(self):
        # V_{phi o psi} = V_psi V_phi on functions, hence the same
        # order for the truncated matrices; the opposite product is
        # off by O(0.1).
        phi = make_map(flow(sin_two_theta, 0.05), grid)
        psi = make_map(moebius(0.2), grid)
        t_comp = pullback_matrix(compose(phi, psi), 96, grid)
        t_phi = pullback_matrix(phi, 96, grid)
        t_psi = pullback_matrix(psi, 96, grid)
        corner = np.r_[0:16, 96:112]
        good = (t_psi @ t_phi).full() - t_comp.full()
        bad = (t_phi @ t_psi).full() - t_comp.full()
        assert np.max(np.abs(good[np.ix_(corner, corner)])) <= 1e-6
        assert np.max(np.abs(bad[np.ix_(corner, corner)])) > 0.1

    def test_wide_assembly_corner_preserves_the_form(self):
        # T^t S T = S read on the leading corner of the block index.
        corner = np.r_[0:16, 96:112]
        s_full = coupling_matrix(96)
        for descriptor in (flow(sin_two_theta, 0.05), moebius(0.3)):
            t = pullback_matrix(make_map(descriptor, grid), 96, grid)
            m = t.full()
            defect = m.T @ s_full @ m - s_full
            assert np.max(np.abs(defect[np.ix_(corner, corner)])) <= 1e-6


class TestOwnGrid:
    # Pullbacks read the lift samples the map stored on its own grid.

    def test_lift_samples_are_the_lift_on_the_grid(self):
        descriptors = [
            identity(),
            rotation(0.7),
            power(2),
            moebius(0.3 + 0.2j, 1.0),
            flow(sin_two_theta, 0.05),
            rauch_flow(1, 0.01),
            compose_descriptors([flow(sin_two_theta, 0.05), moebius(0.2)]),
            inverse_descriptor(flow(sin_theta, 0.1)),
        ]
        for g in (grid, SampleGrid(1024, 0.7 * 2.0 * np.pi / 1024)):
            for descriptor in descriptors:
                m = make_map(descriptor, g)
                assert np.array_equal(m.lift_samples, evaluate_lift(m, g.points()))

    def test_foreign_grid_is_refused(self):
        m = make_map(flow(sin_theta, 0.1), grid)
        for other in (SampleGrid(2048), SampleGrid(4096, 1e-4)):
            with pytest.raises(ValidationError, match="own sample grid"):
                pullback_function(m, cos_theta, other)
            with pytest.raises(ValidationError, match="own sample grid"):
                pullback_matrix(m, 8, other)
            with pytest.raises(ValidationError, match="own sample grid"):
                period_matrix(m, 8, other)

    def test_offset_grid_gives_the_same_blocks(self):
        # B is read from the negative-frequency bins of the A column's
        # FFT; a wrong grid phase there would miss by about |B| ~ 1e-2.
        offset = SampleGrid(4096, 0.7 * 2.0 * np.pi / 4096)
        descriptors = [
            compose_descriptors(
                [flow(sin_two_theta, 0.05), moebius(0.2 + 0.1j, 0.3)]
            ),
            inverse_descriptor(flow(sin_theta, 0.1)),
        ]
        for descriptor in descriptors:
            t = pullback_matrix(make_map(descriptor, grid), 16, grid)
            u = pullback_matrix(make_map(descriptor, offset), 16, offset)
            assert np.max(np.abs(t.B)) > 1e-3
            assert np.max(np.abs(u.A - t.A)) <= 1e-14
            assert np.max(np.abs(u.B - t.B)) <= 1e-14


class TestBlockOperator:
    def test_full_matrix_layout(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = BlockOperator(3, a, b)
        m = t.full()
        assert np.array_equal(m[:3, :3], t.A)
        assert np.array_equal(m[:3, 3:], t.B)
        assert np.array_equal(m[3:, :3], np.conj(t.B))
        assert np.array_equal(m[3:, 3:], np.conj(t.A))

    @given(block_operators(), block_operators())
    @settings(max_examples=60, deadline=None)
    def test_block_product_matches_dense_product(self, t1, t2):
        dense = t1.full() @ t2.full()
        blocked = (t1 @ t2).full()
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(dense - blocked)) <= 1e-12 * scale

    def test_product_with_identity(self):
        t = pullback_matrix(make_map(moebius(0.3), grid), 8, grid)
        e = BlockOperator(8, np.eye(8), np.zeros((8, 8)))
        assert np.allclose((t @ e).full(), t.full(), rtol=0, atol=0)
        assert np.allclose((e @ t).full(), t.full(), rtol=0, atol=0)

    def test_cutoff_mismatch_is_rejected(self):
        left = BlockOperator(4, np.eye(4), np.zeros((4, 4)))
        right = BlockOperator(5, np.eye(5), np.zeros((5, 5)))
        with pytest.raises(ValidationError):
            left @ right

    def test_bad_block_shape_is_rejected(self):
        with pytest.raises(ValidationError):
            BlockOperator(3, np.eye(3), np.zeros((2, 2)))

    def test_cutoff_is_read_as_an_integer(self):
        # int(n) == n passed True as 1.
        for bad in (True, 1.5):
            with pytest.raises(ValidationError, match="^cutoff must be"):
                BlockOperator(bad, np.eye(1), np.zeros((1, 1)))

    def test_non_finite_entries_are_rejected(self):
        for bad in (math.nan, -math.inf, complex(math.nan, 0.0)):
            with pytest.raises(ValidationError, match="A block"):
                BlockOperator(2, [[1.0, 0.0], [0.0, bad]], np.zeros((2, 2)))
            with pytest.raises(ValidationError, match="B block"):
                BlockOperator(2, np.eye(2), [[bad, 0.0], [0.0, 0.0]])

    def test_sub_operator_reads_the_corner(self):
        t = pullback_matrix(make_map(moebius(0.3), grid), 16, grid)
        s = sub_operator(t, 5)
        assert np.array_equal(s.A, t.A[:5, :5])
        assert np.array_equal(s.B, t.B[:5, :5])
        with pytest.raises(ValidationError):
            sub_operator(t, 17)


class TestOperatorNorm:
    def test_identity_norm_is_exactly_one(self):
        eye = BlockOperator(16, np.eye(16), np.zeros((16, 16)))
        assert operator_norm_estimate(eye) == 1.0

    def test_estimate_agrees_with_dense_svd(self):
        cases = [
            rotation(0.7),
            flow(sin_two_theta, 0.05),
            moebius(0.3, 1.0),
            moebius(0.5, 0.5),
        ]
        for descriptor in cases:
            t = pullback_matrix(make_map(descriptor, grid), 16, grid)
            estimate = operator_norm_estimate(t)
            exact = float(np.linalg.svd(t.full(), compute_uv=False)[0])
            assert abs(estimate - exact) <= 1e-12 * exact

    def test_shear_flow_norm_value(self):
        t = pullback_matrix(make_map(flow(sin_two_theta, 0.05), grid), 16, grid)
        assert_allclose(
            operator_norm_estimate(t), 1.025364759678909, rtol=1e-8
        )

    def test_moebius_norm_is_one(self):
        # The untruncated operator is an isometry; the truncation can
        # only pull the norm below it.
        t = pullback_matrix(make_map(moebius(0.3), grid), 16, grid)
        estimate = operator_norm_estimate(t)
        assert abs(estimate - 1.0) <= 1e-6

    def test_norm_respects_dilatation_bound(self):
        # |V| <= sqrt(K + 1/K) for a map of dilatation K.
        for descriptor in (flow(sin_two_theta, 0.05), moebius(0.3), rotation(0.7)):
            m = make_map(descriptor, grid)
            t = pullback_matrix(m, 16, grid)
            k = radial_dilatation(m)
            bound = math.sqrt(k + 1.0 / k)
            assert operator_norm_estimate(t) <= bound + 1e-6


class TestInvariance:
    def test_identity_defect_vanishes(self):
        assert invariance_defect(
            make_map(identity(), grid), cos_theta, sin_theta, grid
        ) == 0.0

    def test_covering_maps_scale_by_the_degree(self):
        for k in (2, 3):
            defect = invariance_defect(
                make_map(power(k), grid), cos_theta, sin_theta, grid
            )
            assert defect <= 1e-10

    def test_degree_one_maps_preserve_the_form(self):
        rng = np.random.default_rng(31)
        descriptors = [
            moebius(0.3, 1.0),
            moebius(0.5, 0.5),
            flow(sin_two_theta, 0.05),
            rotation(0.7),
        ]
        for descriptor in descriptors:
            m = make_map(descriptor, grid)
            for _ in range(5):
                f = random_real_function(10, rng)
                g = random_real_function(10, rng)
                assert invariance_defect(m, f, g, grid) <= 1e-8

    def test_complex_input_is_rejected(self):
        f = from_modes(2, {1: 1.0})
        with pytest.raises(ValidationError):
            invariance_defect(make_map(identity(), grid), f, f, grid)


class TestJson:
    @given(block_operators())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_exact(self, t):
        back = operator_from_json(json.loads(cli._json_text(operator_to_json(t))))
        assert back.cutoff == t.cutoff
        assert np.array_equal(back.A, t.A)
        assert np.array_equal(back.B, t.B)

    def test_malformed_object_is_rejected(self):
        with pytest.raises(ValidationError):
            operator_from_json({"cutoff": 2, "A": [[1.0]]})
        with pytest.raises(ValidationError):
            operator_from_json({"A": [], "B": []})

    def test_non_finite_entries_are_rejected(self):
        t = BlockOperator(2, np.eye(2), np.zeros((2, 2)))
        t = json.loads(cli._json_text(operator_to_json(t)))
        t["B"][1][0] = {"re": float("nan"), "im": 0.0}
        with pytest.raises(ValidationError, match="finite"):
            operator_from_json(t)
