"""Tests for the symplectic form and its compatibility identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf.errors import ValidationError
from hhalf.fourier import (
    CircleFunction,
    SampleGrid,
    _aligned,
    derivative,
    from_modes,
    h_half_norm,
    inner_product,
    norm_squared,
    synthesize,
    zero_function,
)
from hhalf.symplectic import _form_rows, compatibility_defect, symplectic_form

from test_fourier import (
    coefficient_functions,
    random_real_function,
    same_bits,
    split_modes,
    stacked_rows,
)

cos_theta = from_modes(4, {1: 0.5, -1: 0.5})
sin_theta = from_modes(4, {1: -0.5j, -1: 0.5j})


def indexed_form(f, g):
    """symplectic_form with its halves read through index arrays."""
    a, b, n = _aligned(f, g)
    ns = np.arange(1, n + 1)
    w = ns.astype(float)
    xr, xi = a[n + ns].real, a[n + ns].imag
    yr, yi = a[n - ns].real, a[n - ns].imag
    ur, ui = b[n + ns].real, b[n + ns].imag
    vr, vi = b[n - ns].real, b[n - ns].imag
    pr = xr * vr - xi * vi
    pi = xr * vi + xi * vr
    qr = yr * ur - yi * ui
    qi = yr * ui + yi * ur
    sr = float(np.sum(w * (pr - qr)))
    si = float(np.sum(w * (pi - qi)))
    return complex(si, -sr)


@st.composite
def signed_zero_functions(draw):
    """Complex or real functions with some parts +0 or -0."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    parts = c.view(np.float64)
    parts[rng.random(parts.size) < 0.3] = 0.0
    parts[rng.random(parts.size) < 0.3] = -0.0
    c[n] = 0.0
    if draw(st.booleans()):
        c[:n] = np.conj(c[:n:-1])
    return CircleFunction(n, c)


def quadrature_form(f, g, grid):
    """S(f, g) as the grid mean of f times the spectral derivative of g."""
    return complex(np.mean(synthesize(f, grid) * synthesize(derivative(g), grid)))


def conjugate(f):
    """Pointwise complex conjugate; swaps the n and -n slots."""
    return CircleFunction(f.bandlimit, np.conj(f.coeffs[::-1]))


def positivity(f_plus):
    """i S(f_plus, conj(f_plus)), the squared norm of a positive-mode f_plus."""
    return (1j * symplectic_form(f_plus, conjugate(f_plus))).real


class TestForm:
    def test_cos_sin_pairing(self):
        assert symplectic_form(cos_theta, sin_theta) == 0.5

    def test_cos_sin_quadrature_crosscheck(self):
        # (1/2pi) integral of cos^2 equals 1/2.
        value = quadrature_form(cos_theta, sin_theta, SampleGrid(32))
        assert_allclose(value, 0.5, rtol=1e-14)

    @given(coefficient_functions(), coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_exact(self, f, g):
        assert symplectic_form(f, g) == -symplectic_form(g, f)

    @given(
        st.one_of(coefficient_functions(), signed_zero_functions()),
        st.one_of(coefficient_functions(), signed_zero_functions()),
    )
    @settings(max_examples=200, deadline=None)
    def test_slices_match_the_index_arrays(self, f, g):
        value, expected = symplectic_form(f, g), indexed_form(f, g)
        assert same_bits(np.array([value]), np.array([expected]))

    @given(coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_self_pairing_vanishes(self, f):
        assert symplectic_form(f, f) == 0.0

    @given(coefficient_functions(), coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_positive_modes_isotropic(self, f, g):
        f_plus, _ = split_modes(f)
        g_plus, _ = split_modes(g)
        assert symplectic_form(f_plus, g_plus) == 0.0

    @given(coefficient_functions(), coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz_bound(self, f, g):
        lhs = abs(symplectic_form(f, g))
        rhs = h_half_norm(f) * h_half_norm(g)
        assert lhs <= rhs * (1 + 1e-12) + 1e-300

    def test_realness_on_real_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_real_function(12, rng)
            g = random_real_function(12, rng)
            value = symplectic_form(f, g)
            assert value.imag == 0.0

    def test_mode_agreement(self):
        rng = np.random.default_rng(6)
        quadrature = SampleGrid(128)
        for _ in range(10):
            f = random_real_function(16, rng)
            g = random_real_function(16, rng)
            assert_allclose(
                quadrature_form(f, g, quadrature),
                symplectic_form(f, g),
                rtol=0,
                atol=1e-10 * (1 + h_half_norm(f) * h_half_norm(g)),
            )


class TestFormRows:
    # Each row of _form_rows, and of a strided stack, is the bits of its
    # own symplectic_form, signs of zeros included.

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 255, 2047])
    def test_rows_are_the_form_of_each_pair(self, n):
        rng = np.random.default_rng(n)
        a = np.concatenate([stacked_rows(rng, 4, n, r) for r in (True, False)])
        b = np.concatenate([stacked_rows(rng, 4, n, r) for r in (False, True)])
        for x, y in ((a, b), (a[0::2], b[1::2]), (b, a)):
            got = _form_rows(x, y, n)
            for c, d, value in zip(x, y, got):
                f, g = CircleFunction(n, c.copy()), CircleFunction(n, d.copy())
                assert same_bits(np.array([symplectic_form(f, g)]), value[None])


class TestCompatibility:
    def test_cosine_case(self):
        assert compatibility_defect(cos_theta, cos_theta) == 0.0

    def test_zero_case(self):
        assert compatibility_defect(cos_theta, zero_function(4)) == 0.0

    def test_random_real_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = random_real_function(16, rng)
            g = random_real_function(16, rng)
            scale = h_half_norm(f) * h_half_norm(g)
            assert compatibility_defect(f, g) <= 8 * np.spacing(scale)

    def test_requires_real_input(self):
        h = from_modes(2, {1: 1.0})
        with pytest.raises(ValidationError):
            compatibility_defect(h, h)


class TestPolarization:
    def test_single_mode(self):
        f = from_modes(2, {1: 1.0})
        assert positivity(f) == 1.0

    def test_zero(self):
        assert positivity(zero_function(3)) == 0.0

    def test_matches_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f_plus, _ = split_modes(random_real_function(16, rng))
            value = positivity(f_plus)
            target = norm_squared(f_plus)
            assert abs(value - target) <= 4 * np.spacing(target)

    def test_orthogonal_decomposition_identity(self):
        # <f, g> recovered from the polarized parts through S.
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = random_real_function(12, rng)
            g = random_real_function(12, rng)
            f_plus, f_minus = split_modes(f)
            g_plus, g_minus = split_modes(g)
            lhs = inner_product(f, g)
            rhs = 1j * symplectic_form(f_plus, conjugate(g_plus)) - 1j * (
                symplectic_form(f_minus, conjugate(g_minus))
            )
            scale = h_half_norm(f) * h_half_norm(g)
            assert abs(lhs - rhs) <= 8 * np.spacing(scale)
