"""Tests for the truncated Fourier model."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from hhalf import _accel
from hhalf.catalog import trial_functions
from hhalf.config import RunConfig
from hhalf.errors import AliasingError, GridError, ValidationError
from hhalf.fourier import (
    CircleFunction,
    SampleGrid,
    _extended,
    _hermitian,
    _hilbert_rows,
    _inner_rows,
    analyze,
    douglas_energy,
    douglas_pair_sum,
    evaluate_at,
    derivative,
    from_modes,
    function_from_json,
    function_to_json,
    h_half_norm,
    hilbert_transform,
    inner_product,
    json_integer,
    json_real,
    max_bandlimit,
    norm_squared,
    resolved_band,
    synthesize,
    value_and_slope,
    zero_function,
)
from hhalf.maps import power, rauch_flow
from hhalf.pullback import read_cutoff

cos_theta = from_modes(4, {1: 0.5, -1: 0.5})
sin_theta = from_modes(4, {1: -0.5j, -1: 0.5j})


def random_real_function(bandlimit, rng, decay=1.0):
    c = np.zeros(2 * bandlimit + 1, np.complex128)
    for n in range(1, bandlimit + 1):
        scale = 1.0 / (1.0 + n) ** decay
        c[bandlimit + n] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        c[bandlimit - n] = np.conj(c[bandlimit + n])
    return CircleFunction(bandlimit, c)


def offset_synthesis(f, m, offset):
    """Samples of f at offset + 2 pi j / m, one phase e^{ik offset} per mode.

    This is how synthesize sampled grids that carried an offset: modes
    past Nyquist fold onto their aliases, added in mode order.
    """
    buf = np.zeros(m, np.complex128)
    n = f.bandlimit
    for k in range(-n, n + 1):
        buf[k % m] += f.coeffs[n + k] * np.exp(1j * k * offset)
    values = np.fft.ifft(buf) * m
    return values.real if f.real else values


def offset_douglas(f, m):
    """Douglas quadrature on the axes pi/m + 2 pi j/m and 2 pi j/m."""
    half = np.pi / m
    points = 2.0 * np.pi * np.arange(m) / m
    fx = np.ascontiguousarray(offset_synthesis(f, m, half), np.complex128)
    fy = np.ascontiguousarray(offset_synthesis(f, m, 0.0), np.complex128)
    return douglas_pair_sum(fx, fy, half + points, points) / (4.0 * m * m)


def split_modes(f):
    """Positive-mode and negative-mode parts (f_plus, f_minus) of f."""
    n = f.bandlimit
    plus = np.zeros_like(f.coeffs)
    minus = np.zeros_like(f.coeffs)
    plus[n + 1 :] = f.coeffs[n + 1 :]
    minus[:n] = f.coeffs[:n]
    return CircleFunction(n, plus), CircleFunction(n, minus)


def coefficient_functions(max_bandlimit=8):
    # Strategy producing complex coefficient arrays with the mean slot
    # zeroed, wrapped as CircleFunction.
    def build(values):
        n = len(values) // 4
        c = values[:n] + 1j * values[n : 2 * n]
        d = values[2 * n : 3 * n] + 1j * values[3 * n :]
        coeffs = np.concatenate([c, [0.0], d]).astype(np.complex128)
        return CircleFunction(n, coeffs)

    # Squares of the coefficients must not underflow, otherwise norms
    # vanish while bilinear pairings of mixed scales survive.
    finite = st.floats(min_value=-10, max_value=10, allow_nan=False).map(
        lambda x: 0.0 if abs(x) < 1e-6 else x
    )
    return st.integers(min_value=1, max_value=max_bandlimit).flatmap(
        lambda n: arrays(np.float64, 4 * n, elements=finite).map(build)
    )


class TestConstruction:
    def test_mean_slot_must_be_zero(self):
        c = np.zeros(5, np.complex128)
        c[2] = 1.0
        with pytest.raises(ValidationError):
            CircleFunction(2, c)

    def test_real_flag_autodetected(self):
        assert cos_theta.real
        assert from_modes(3, {2: 1.0 + 1j}).real is False

    def test_negation_flips_every_sign_and_keeps_the_flag(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c[3] = 0.0
        for f in (random_real_function(3, rng), CircleFunction(3, c)):
            g = -f
            assert g.bandlimit == f.bandlimit and g.real == f.real
            assert same_bits(g.coeffs, -f.coeffs)
            assert not np.any((f + g).coeffs)

    def test_real_flag_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            from_modes(3, {2: 1.0 + 1j}, real=True)

    def test_bandlimit_is_read_as_an_integer(self):
        # int(n) == n passed True as 1.
        for bad in (True, 1.5, "1"):
            with pytest.raises(ValidationError, match="^bandlimit must be"):
                CircleFunction(bad, np.zeros(3))
        assert CircleFunction(np.int64(1), np.zeros(3)).bandlimit == 1
        assert CircleFunction(1.0, np.zeros(3)).bandlimit == 1

    def test_grid_validation(self):
        for bad in (3, 4.5, True, "8"):
            with pytest.raises(GridError, match="^grid size must be"):
                SampleGrid(bad)
        assert SampleGrid(8.0).size == 8

    def test_mode_bounds(self):
        with pytest.raises(ValidationError):
            from_modes(2, {3: 1.0})
        with pytest.raises(ValidationError):
            from_modes(2, {0: 1.0})

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]
    )
    def test_non_finite_coefficients_are_refused(self, bad, real):
        c = np.array([np.conj(bad), 0.0, bad], np.complex128)
        with pytest.raises(ValidationError) as info:
            CircleFunction(1, c, real)
        assert str(info.value) == "coeffs must be finite"
        assert c.flags.writeable

    def test_symmetrizing_near_the_float_limit_does_not_overflow(self):
        # Halves are added, not halved sums: 0.5 (1e308 + 1e308) is inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = CircleFunction(1, np.array([1e308, 0.0, 1e308]), True)
            assert same_bits(f.coeffs, np.array([1e308, 0.0, 1e308], np.complex128))
            # |c| overflows here though every part is finite.
            big = np.array([1.5e308 - 1.5e308j, 0.0, 1.5e308 + 1.5e308j])
            g = CircleFunction(1, big.copy(), True)
            assert g.real and same_bits(g.coeffs, big)

    def test_zero_extension_equals_padding(self):
        f = random_real_function(3, np.random.default_rng(8))
        for n in (3, 4, 9):
            assert same_bits(_extended(f, n), np.pad(f.coeffs, n - 3))


def constructed_before(bandlimit, c, real):
    """(real, coeffs), or the refusal, of the constructor that copied.

    It converted every array, tested a full mirrored copy, and took
    real=None to detect and real=True to assert.
    """
    c = np.array(c, dtype=np.complex128)
    mirror = np.conj(c[::-1])
    if real is None:
        return bool(np.array_equal(c, mirror)), c
    scale = 1.0 + float(np.max(np.abs(c)))
    defect = float(np.max(np.abs(c - mirror)))
    if defect > 1e-9 * scale:
        return (
            "real flag set but coefficients are not Hermitian "
            "symmetric (defect %.3e)" % defect
        )
    c = 0.5 * (c + mirror)
    c[bandlimit] = 0.0
    return True, c


def trial_functions_before(count, bandlimit, seed):
    """trial_functions as it was, one dict entry per mode."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        modes = {}
        for k in range(1, bandlimit + 1):
            value = complex(rng.standard_normal(), rng.standard_normal())
            value /= k**1.5
            modes[k] = value
            modes[-k] = np.conj(value)
        out.append(from_modes(bandlimit, modes))
    return out


def indexed_analyze(samples, bandlimit):
    """analyze with its halves read through index arrays."""
    m = len(samples)
    raw = np.fft.fft(np.asarray(samples, np.complex128)) / m
    c = np.zeros(2 * bandlimit + 1, np.complex128)
    ns = np.arange(1, bandlimit + 1)
    c[bandlimit + ns] = raw[ns]
    if np.isrealobj(samples):
        c[bandlimit - ns] = np.conj(c[bandlimit + ns])
    else:
        c[bandlimit - ns] = raw[m - ns]
    return CircleFunction(bandlimit, c)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def stacked_rows(rng, count, n, real):
    """count coefficient rows of bandlimit n, scales 1e-3 to 1e3 by row.

    About a third of the parts are +0 or -0, the mean slots are zero,
    and real rows are exactly Hermitian.
    """
    shape = (count, 2 * n + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= 10.0 ** rng.integers(-3, 4, (count, 1))
    parts = c.view(np.float64)
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    if real:
        c[:, :n] = np.conj(c[:, :n:-1])
    c[:, n] = 0.0
    return c


class TestKeptArray:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        kind=st.sampled_from(["hermitian", "below", "above", "complex"]),
        exponent=st.integers(-300, 300),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_copying_constructor(self, n, kind, exponent, zeros, seed):
        # Exactly Hermitian, Hermitian plus noise below and above the
        # 1e-9 x scale tolerance, and arbitrary complex arrays; with
        # zeros, some parts are +0 or -0, whose signs the symmetrization
        # sets.
        rng = np.random.default_rng(seed)
        mag = 10.0**exponent
        upper = mag * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if zeros:
            parts = upper.view(np.float64)
            parts[rng.random(2 * n) < 0.3] = 0.0
            parts[rng.random(2 * n) < 0.3] = -0.0
        lower = np.conj(upper)
        if kind == "complex":
            lower = mag * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        elif kind != "hermitian":
            size = 1e-12 if kind == "below" else 1e-6
            lower = lower + size * (1.0 + mag) * rng.standard_normal(n)
        c = np.concatenate([lower[::-1], [0.0], upper])
        for real, before in ((True, True), (False, None)):
            expected = constructed_before(n, c, before)
            given_c = c.copy()
            if isinstance(expected, str):
                with pytest.raises(ValidationError) as info:
                    CircleFunction(n, given_c, real)
                assert str(info.value) == expected
                continue
            f = CircleFunction(n, given_c, real)
            assert f.real == expected[0]
            assert same_bits(f.coeffs, expected[1])

    @pytest.mark.parametrize("real", [True, False])
    def test_a_given_array_is_kept_and_frozen(self, real):
        c = np.array([0.5 - 1j, 0.0, 0.5 + 1j])
        f = CircleFunction(1, c, real)
        assert f.coeffs is c and f.real
        assert not c.flags.writeable
        # A frozen array is copied only where real=True must write.
        g = CircleFunction(1, c, True)
        assert g.real and np.array_equal(g.coeffs, c)

    def test_a_refused_array_stays_writeable(self):
        refused = [
            (1, np.array([1.0, 1.0, 1.0], np.complex128), False),
            (2, np.zeros(3, np.complex128), False),
            (1, np.array([1j, 0.0, 1j]), True),
        ]
        for n, c, real in refused:
            with pytest.raises(ValidationError):
                CircleFunction(n, c, real)
            assert c.flags.writeable

    def test_real_false_on_hermitian_coefficients_reads_real(self):
        assert CircleFunction(1, np.array([1j, 0.0, -1j]), real=False).real
        assert from_modes(2, {2: 0.5, -2: 0.5}, real=False).real

    def test_reading_modes_keeps_one_coefficient_array(self):
        # 40001 coefficients take 0.61 MiB; the mirrored half the
        # symmetry test compares takes half that again.
        from hhalf.cli import _function_from_modes

        modes = {"20000": 1, "-20000": 1}
        tracemalloc.start()
        try:
            f = _function_from_modes(modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.real and f.bandlimit == 20000
        assert peak <= 1.2 * 2**20


class TestTrialFunctions:
    # The invariance suite's (count, bandlimit, seed) at seed 2026, and
    # the integrability command's at the default seed 0.
    @pytest.mark.parametrize(
        "count, bandlimit, seed",
        [(100, 32, 2026), (20, 16, 2027), (20, 8, 2028), (20, 8, 2029),
         (100, 6, 2030), (2, 8, 2031), (4, 8, 0)],
    )
    def test_bits_of_the_suite_and_command_draws(self, count, bandlimit, seed):
        self.check(count, bandlimit, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(0, 5),
        bandlimit=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_of_drawn_triples(self, count, bandlimit, seed):
        self.check(count, bandlimit, seed)

    @staticmethod
    def check(count, bandlimit, seed):
        got = trial_functions(count, bandlimit, seed)
        expected = trial_functions_before(count, bandlimit, seed)
        assert len(got) == len(expected) == count
        for f, g in zip(got, expected):
            assert f.real and g.real and f.bandlimit == g.bandlimit
            assert same_bits(f.coeffs, g.coeffs)


class TestAnalyze:
    def test_cosine_modes(self):
        grid = SampleGrid(64)
        f = analyze(np.cos(grid.points()), 4)
        expected = np.zeros(9, np.complex128)
        expected[4 + 1] = 0.5
        expected[4 - 1] = 0.5
        assert_allclose(f.coeffs, expected, atol=1e-15)
        assert f.real

    def test_constant_maps_to_zero(self):
        f = analyze(np.full(32, 5.0), 4)
        assert np.all(f.coeffs == 0)

    def test_sin_three_theta(self):
        # Direct transform of sin 3theta: c_3 = -i/2, c_-3 = i/2.
        grid = SampleGrid(64)
        f = analyze(np.sin(3 * grid.points()), 4)
        assert_allclose(f.coefficient(3), -0.5j, atol=1e-15)
        assert_allclose(f.coefficient(-3), 0.5j, atol=1e-15)
        assert abs(f.coefficient(1)) < 1e-15

    def test_roundtrip_on_random_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_real_function(12, rng)
            grid = SampleGrid(64)
            g = analyze(synthesize(f, grid), 12)
            assert_allclose(g.coeffs, f.coeffs, rtol=1e-13, atol=1e-14)
            assert g.real

    def test_roundtrip_complex(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c[4] = 0.0
        f = CircleFunction(4, c)
        grid = SampleGrid(16)
        g = analyze(synthesize(f, grid), 4)
        assert_allclose(g.coeffs, f.coeffs, rtol=1e-13, atol=1e-14)

    def test_grid_too_small(self):
        with pytest.raises(GridError):
            analyze(np.zeros(8), 4)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(4, 80),
        real=st.booleans(),
        kind=st.sampled_from(["random", "impulse", "signed zeros"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_slices_match_the_index_arrays(self, m, real, kind, seed, data):
        # An impulse has spectra with zero imaginary parts, whose
        # conjugates are -0; signed zero samples give signed zero bins.
        bandlimit = data.draw(st.integers(1, (m - 1) // 2))
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(m)
        if kind == "impulse":
            samples[1:] = 0.0
        elif kind == "signed zeros":
            samples = np.where(samples < 0, -0.0, 0.0)
        if not real:
            samples = samples + 1j * samples[::-1]
        f = analyze(samples, bandlimit)
        g = indexed_analyze(samples, bandlimit)
        assert same_bits(f.coeffs, g.coeffs) and f.real == g.real

    @pytest.mark.parametrize("shape", [(1, 32), (32, 1), (2, 16), ()])
    def test_samples_off_the_grid_are_refused(self, shape):
        # The grid is the sample count of one row.  A stack of rows, or
        # a scalar, has no grid, though _analyzed would take a stack.
        with pytest.raises(GridError, match="^sample array must be one-dim"):
            analyze(np.zeros(shape), 4)

    @pytest.mark.parametrize("size", [31, 33])
    def test_the_sample_count_is_the_grid(self, size):
        # Any count of samples is analyzed on its own grid, and refused
        # only where that grid cannot resolve the bandlimit.
        points = SampleGrid(size).points()
        f = analyze(np.cos(3 * points), 4)
        assert_allclose(f.coefficient(3), 0.5, atol=1e-15)
        n = (size - 1) // 2
        assert analyze(np.cos(3 * points), n).bandlimit == n
        with pytest.raises(GridError) as caught:
            analyze(np.cos(3 * points), n + 1)
        assert str(caught.value) == (
            "grid size %d cannot resolve bandlimit %d" % (size, n + 1)
        )


class TestResolvedBand:
    @pytest.mark.parametrize("size", [8, 64, 4096, 4097])
    def test_spread_at_the_tail_edge(self, size):
        # The tail band starts at ceil(3 size / 8): spread there must be
        # below 1e-12, and the band returned is the largest mode above it.
        grid = SampleGrid(size)
        modes = np.arange(size // 2 + 1)
        edge = math.ceil(3 * size / 8)
        magnitudes = np.where(modes == 1, 1.0, 0.0)
        magnitudes[edge] = 2e-12
        message = (
            "^grid size %d cannot resolve bandlimit 0 under this map "
            r"\(spectral tail 2.0e-12 near Nyquist\)$" % size
        )
        with pytest.raises(AliasingError, match=message):
            resolved_band(magnitudes, modes, 0, grid)
        magnitudes[edge] = 5e-13
        assert resolved_band(magnitudes, modes, 0, grid) == 1
        magnitudes[edge - 1] = 5e-12
        assert resolved_band(magnitudes, modes, 0, grid) == edge - 1

    @pytest.mark.parametrize("size, top", [(4, 1), (5, 2), (6, 2), (7, 3)])
    def test_the_top_mode_is_always_in_the_tail(self, size, top):
        # On 4 and 6 points 3 size / 8 lies above the top mode, and the
        # Nyquist bin of an odd spectrum such as a Moebius lift's is zero.
        grid = SampleGrid(size)
        modes = np.arange(size // 2 + 1)
        magnitudes = np.where(modes == top, 1e-3, 0.0)
        with pytest.raises(AliasingError, match="spectral tail 1.0e-03"):
            resolved_band(magnitudes, modes, 0, grid)
        assert resolved_band(magnitudes, modes, top, grid) == top

    def test_modes_up_to_the_reach_are_not_spread(self):
        grid = SampleGrid(64)
        modes = np.arange(33)
        magnitudes = np.where(modes <= 30, 1.0, 0.0)
        assert resolved_band(magnitudes, modes, 30, grid) == 30
        with pytest.raises(AliasingError, match="bandlimit 29 "):
            resolved_band(magnitudes, modes, 29, grid)


class TestNormAndInner:
    def test_cosine_norm(self):
        assert norm_squared(cos_theta) == 0.5
        assert h_half_norm(cos_theta) == math.sqrt(0.5)

    def test_zero_norm(self):
        assert h_half_norm(zero_function(5)) == 0.0

    def test_two_mode_norm(self):
        f = from_modes(4, {1: 0.5, -1: 0.5, 2: 0.5, -2: 0.5})
        assert norm_squared(f) == 1.5

    def test_orthogonality(self):
        assert inner_product(cos_theta, sin_theta) == 0.0

    def test_single_exponential(self):
        f = from_modes(2, {1: 1.0})
        assert inner_product(f, f) == 1.0

    def test_parseval_coherence(self):
        # Vectorized complex products may carry fused-multiply-add dust
        # in the imaginary part, so only ulp-level agreement is asserted.
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_real_function(16, rng)
            lhs = inner_product(f, f)
            assert abs(lhs.imag) <= 4 * eps_of(lhs.real)
            assert abs(lhs.real - h_half_norm(f) ** 2) <= 4 * eps_of(lhs.real)


def eps_of(x):
    return np.spacing(abs(x))


class TestHilbert:
    def test_cosine_to_sine(self):
        g = hilbert_transform(cos_theta)
        assert np.array_equal(g.coeffs, sin_theta.coeffs)
        assert g.real

    @given(coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_involution_exact(self, f):
        g = hilbert_transform(hilbert_transform(f))
        assert np.array_equal(g.coeffs, -f.coeffs)

    @given(coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_isometry_exact(self, f):
        assert h_half_norm(hilbert_transform(f)) == h_half_norm(f)


class TestRowRules:
    # The row rules behind hilbert_transform and inner_product give each
    # row, and each row of a strided stack, the bits of its own call.

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 255, 2047])
    def test_hilbert_rows_are_the_transform_of_each_row(self, n):
        rng = np.random.default_rng(n)
        for real in (True, False):
            rows = stacked_rows(rng, 8, n, real)
            for stack in (rows, rows[1::2]):
                turned = _hilbert_rows(stack, n)
                if real:
                    turned = _hermitian(turned, n)
                for c, t in zip(stack, turned):
                    f = CircleFunction(n, c.copy())
                    assert f.real == real
                    assert same_bits(hilbert_transform(f).coeffs, t)

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 255, 2047])
    def test_inner_rows_are_the_product_of_each_pair(self, n):
        rng = np.random.default_rng(n + 1)
        a = np.concatenate([stacked_rows(rng, 4, n, r) for r in (True, False)])
        b = np.concatenate([stacked_rows(rng, 4, n, r) for r in (False, True)])
        for x, y in ((a, b), (a[0::2], a[1::2])):
            got = _inner_rows(x, y, n)
            for c, d, value in zip(x, y, got):
                f, g = CircleFunction(n, c.copy()), CircleFunction(n, d.copy())
                assert same_bits(np.array([inner_product(f, g)]), value[None])


class TestPolarize:
    @given(coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_split_is_exact(self, f):
        plus, minus = split_modes(f)
        assert np.array_equal(plus.coeffs + minus.coeffs, f.coeffs)
        assert inner_product(plus, minus) == 0.0

    @given(coefficient_functions())
    @settings(max_examples=40, deadline=None)
    def test_plus_part_is_minus_i_eigenvector(self, f):
        plus, _ = split_modes(f)
        g = hilbert_transform(plus)
        assert np.array_equal(g.coeffs, (-1j * plus).coeffs)

    def test_norm_pythagoras(self):
        rng = np.random.default_rng(5)
        f = random_real_function(10, rng)
        plus, minus = split_modes(f)
        assert_allclose(
            norm_squared(plus) + norm_squared(minus),
            norm_squared(f),
            rtol=1e-15,
        )


class TestSynthesis:
    def test_zero(self):
        grid = SampleGrid(16)
        assert np.all(synthesize(zero_function(3), grid) == 0)

    def test_cosine_at_zero(self):
        assert_allclose(evaluate_at(cos_theta, np.array([0.0]))[0], 1.0, rtol=1e-15)

    def test_real_output_for_real_function(self):
        grid = SampleGrid(32)
        values = synthesize(cos_theta, grid)
        assert values.dtype == np.float64
        assert_allclose(values, np.cos(grid.points()), atol=1e-14)

    def test_evaluate_matches_reference(self):
        # Pointwise synthesis against the independent FFT path.
        rng = np.random.default_rng(3)
        for bandlimit in (1, 8, 20, 64):
            f = random_real_function(bandlimit, rng)
            grid = SampleGrid(256)
            got = evaluate_at(f, grid.points())
            assert_allclose(got, synthesize(f, grid), rtol=0, atol=1e-13)


class TestHorner:
    @pytest.mark.parametrize("bandlimit", [1, 6, 64, 400, 1600])
    def test_agrees_with_outer_product_oracle(self, bandlimit):
        rng = np.random.default_rng(bandlimit)
        x = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 2000)
        c = rng.standard_normal(2 * bandlimit + 1) + 1j * rng.standard_normal(
            2 * bandlimit + 1
        )
        c[bandlimit] = 0.0
        expected = _accel.synth_at_reference(c, bandlimit, x)
        scale = np.max(np.abs(expected))
        got = evaluate_at(CircleFunction(bandlimit, c), x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale
        f = random_real_function(bandlimit, rng, decay=0.0)
        expected = _accel.synth_at_reference(f.coeffs, bandlimit, x)
        got = evaluate_at(f, x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_real_function_gives_real_float64(self):
        f = random_real_function(9, np.random.default_rng(4))
        values = evaluate_at(f, np.linspace(-7.0, 7.0, 33))
        assert values.dtype == np.float64

    def test_complex_function_values(self):
        # 2 e^{2ix} - 3i e^{-ix}, written out term by term.
        f = from_modes(3, {2: 2.0, -1: -3j})
        x = np.linspace(-10.0, 10.0, 41)
        values = evaluate_at(f, x)
        assert values.dtype == np.complex128
        assert_allclose(
            values, 2.0 * np.exp(2j * x) - 3j * np.exp(-1j * x), rtol=0, atol=1e-14
        )
        assert_allclose(
            evaluate_at(sin_theta, x), np.sin(x), rtol=0, atol=1e-15
        )

    def test_output_keeps_the_shape_of_the_points(self):
        f = from_modes(2, {1: 1.0, -2: 0.5j})
        grid = np.linspace(0.0, 6.0, 12).reshape(3, 4)
        assert evaluate_at(f, 0.7).shape == ()
        assert evaluate_at(cos_theta, 0.7).shape == ()
        assert_allclose(float(evaluate_at(cos_theta, 0.7)), math.cos(0.7), rtol=1e-15)
        assert evaluate_at(f, np.zeros(0)).shape == (0,)
        assert evaluate_at(cos_theta, np.zeros((0, 3))).shape == (0, 3)
        values = evaluate_at(f, grid)
        assert values.shape == (3, 4)
        assert np.array_equal(values.ravel(), evaluate_at(f, grid.ravel()))

    def test_memory_is_linear_in_the_points(self):
        # The outer-product formula builds 4096 x 3201 complex
        # temporaries here, 210 MB each; the Horner chains need a few
        # arrays of the size of the points.
        bandlimit = 1600
        f = random_real_function(bandlimit, np.random.default_rng(5))
        x = np.linspace(0.0, 2.0 * np.pi, 4096)
        tracemalloc.start()
        try:
            values = evaluate_at(f, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * values.nbytes


class TestValueAndSlope:
    @pytest.mark.parametrize("bandlimit", [1, 6, 64])
    def test_value_is_evaluate_at_and_slope_is_the_derivative(self, bandlimit):
        f = random_real_function(bandlimit, np.random.default_rng(bandlimit))
        x = np.linspace(-1e3, 1e3, 501).reshape(3, 167)
        values, slopes = value_and_slope(f, x)
        assert values.shape == slopes.shape == x.shape
        assert slopes.dtype == np.float64
        assert np.array_equal(values, evaluate_at(f, x))
        expected = evaluate_at(derivative(f), x)
        assert np.max(np.abs(slopes - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_sine_slope(self):
        x = np.linspace(-10.0, 10.0, 41)
        values, slopes = value_and_slope(sin_theta, x)
        assert_allclose(values, np.sin(x), rtol=0, atol=1e-15)
        assert_allclose(slopes, np.cos(x), rtol=0, atol=1e-15)

    def test_complex_function_is_refused(self):
        with pytest.raises(ValidationError, match="real function"):
            value_and_slope(from_modes(2, {1: 1.0}), np.zeros(3))


class TestDouglas:
    def test_cosine_energy(self):
        grid = SampleGrid(256)
        assert_allclose(douglas_energy(cos_theta, grid), 0.5, atol=1e-10)

    def test_zero(self):
        grid = SampleGrid(64)
        assert douglas_energy(zero_function(4), grid) == 0.0

    def test_matches_norm_on_random_polynomials(self):
        rng = np.random.default_rng(23)
        grid = SampleGrid(512)
        for _ in range(20):
            f = random_real_function(16, rng)
            energy = douglas_energy(f, grid)
            assert_allclose(energy, norm_squared(f), rtol=1e-13)

    def test_fine_grid_keeps_rounding_error_small(self):
        # Next to the singular diagonal the weights reach 4 M^2 / pi^2;
        # a sum that cancels against them loses digits on a fine grid.
        rng = np.random.default_rng(4096)
        grid = SampleGrid(4096)
        for _ in range(10):
            f = random_real_function(40, rng)
            assert_allclose(douglas_energy(f, grid), norm_squared(f), rtol=3e-14)

    @pytest.mark.parametrize(
        "m", [8, 9, 16, 33, 64, 100, 128, 255, 512, 1000, 1024, 4096]
    )
    def test_equals_the_offset_grid_quadrature_bit_for_bit(self, m):
        # Grids once carried an offset, and the quadrature took its first
        # axis as the grid offset by half a cell; the turned coefficients
        # must reproduce those samples to the last bit, aliased modes
        # (bandlimit past m/2) included.
        rng = np.random.default_rng(m)
        for n in range(1, 41) if m <= 512 else (1, 40):
            c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
            c[n] = 0.0
            real = random_real_function(n, rng)
            assert real.real and not CircleFunction(n, c).real
            for f in (real, CircleFunction(n, c)):
                assert douglas_energy(f, SampleGrid(m)) == offset_douglas(f, m)


class TestDouglasPairSum:
    @pytest.mark.parametrize("m", [8, 9, 33, 100, 512, 2048])
    def test_matches_the_direct_pair_sum(self, m):
        # The circulant FFT sum against the all-pairs reference, on noise
        # and on trig polynomials up to bandlimit m, whose samples alias.
        rng = np.random.default_rng(m)
        points = 2.0 * np.pi * np.arange(m) / m
        starts = [(np.pi / m, 0.0), (-np.pi / m, 0.0), (1e-3, 1e-3 + np.pi / m)]
        for x0, y0 in starts:
            tx, ty = x0 + points, y0 + points
            noise = rng.standard_normal((4, m))
            cases = [(noise[0] + 1j * noise[1], noise[2] + 1j * noise[3])]
            for n in (3, m // 2 + 3, m):
                c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
                c[n] = 0.0
                for f in (CircleFunction(n, c), random_real_function(n, rng)):
                    cases.append((evaluate_at(f, tx), evaluate_at(f, ty)))
            for fx, fy in cases:
                value = douglas_pair_sum(fx, fy, tx, ty)
                expected = _accel.douglas_pair_reference(fx, fy, tx, ty)
                assert abs(value - expected) <= 1e-12 * abs(expected), (x0, y0)

    def test_refuses_arrays_of_different_lengths(self):
        m = 16
        points = 2.0 * np.pi * np.arange(m) / m
        arrays = [np.ones(m, complex), np.zeros(m, complex), points + np.pi / m, points]
        for i in range(4):
            short = list(arrays)
            short[i] = short[i][:-1]
            with pytest.raises(ValidationError, match="one length"):
                douglas_pair_sum(*short)
        with pytest.raises(ValidationError, match="one length"):
            douglas_pair_sum(*(a[:0] for a in arrays))

    def test_refuses_points_off_a_uniform_grid(self):
        m = 16
        points = 2.0 * np.pi * np.arange(m) / m
        fx, fy = np.ones(m, complex), np.zeros(m, complex)
        tx, ty = points + np.pi / m, points
        bent = points.copy()
        bent[5] += 1e-9
        short_step = 2.0 * np.pi * np.arange(m) / (m + 1)
        for bad in (bent, short_step, np.full(m, np.nan)):
            with pytest.raises(ValidationError, match="tx on a uniform grid"):
                douglas_pair_sum(fx, fy, bad, ty)
            with pytest.raises(ValidationError, match="ty on a uniform grid"):
                douglas_pair_sum(fx, fy, tx, bad)
        # The reference takes any points; the circulant sum must not
        # return a number for them.
        assert np.isfinite(_accel.douglas_pair_reference(fx, fy, tx, bent))

    def test_refuses_axes_that_meet(self):
        # Meeting axes, a quarter cell and one and a half half cells are
        # none of them an odd number of half cells apart.
        m = 16
        points = 2.0 * np.pi * np.arange(m) / m
        fx = np.ones(m, complex)
        for offset in (0.0, 2.0 * np.pi / m, 0.5 * np.pi / m, 1.5 * np.pi / m):
            with pytest.raises(ValidationError, match="odd number of half cells"):
                douglas_pair_sum(fx, fx, points, points + offset)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 64),
        s=st.integers(-3, 3),
        start=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
        noise=st.booleans(),
        data=st.data(),
    )
    def test_closed_form_matches_the_direct_pair_sum(
        self, m, s, start, seed, noise, data
    ):
        # Complex noise, or samples of a trig polynomial whose bandlimit
        # reaches 2M, so that its samples alias.
        rng = np.random.default_rng(seed)
        points = 2.0 * np.pi * np.arange(m) / m
        ty = start + points
        tx = (start + (2 * s + 1) * np.pi / m) + points
        if noise:
            z = rng.standard_normal((4, m))
            fx, fy = z[0] + 1j * z[1], z[2] + 1j * z[3]
        else:
            n = data.draw(st.integers(1, 2 * m))
            c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
            c[n] = 0.0
            f = CircleFunction(n, c)
            fx, fy = evaluate_at(f, tx), evaluate_at(f, ty)
        value = douglas_pair_sum(fx, fy, tx, ty)
        expected = _accel.douglas_pair_reference(fx, fy, tx, ty)
        assert abs(value - expected) <= 1e-12 * abs(expected)


class TestJson:
    def test_huge_bandlimit_is_refused_before_allocation(self):
        # 2 * 10**9 + 1 coefficients would take 32 GB.
        tracemalloc.start()
        try:
            for build in (
                lambda: from_modes(10**9, {1: 1.0}),
                lambda: from_modes(max_bandlimit + 1, {}),
                lambda: function_from_json({"bandlimit": 1e9, "coeffs": []}),
                # A negative size used to reach numpy as a ValueError.
                lambda: function_from_json({"bandlimit": -5, "coeffs": []}),
            ):
                with pytest.raises(ValidationError, match="^bandlimit must lie in"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        f = random_real_function(7, rng)
        g = function_from_json(function_to_json(f))
        assert g.bandlimit == f.bandlimit
        assert g.real == f.real
        assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=1e-16)

    def test_omitted_modes_are_zero(self):
        obj = {"bandlimit": 3, "real": False, "coeffs": [{"n": 2, "re": 1.0, "im": 0.5}]}
        f = function_from_json(obj)
        assert f.coefficient(2) == 1.0 + 0.5j
        assert f.coefficient(1) == 0.0

    def test_json_integer_floor_follows_the_integer_check(self):
        assert json_integer(4.0, "n", 4) == 4
        assert json_integer(-3, "n") == -3
        with pytest.raises(ValidationError, match="^n must be an integer >= 5$"):
            json_integer(4, "n", 5)
        with pytest.raises(ValidationError, match="^n must be an integer, not 0.5$"):
            json_integer(0.5, "n", 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: read_cutoff(0), "cutoff must be an integer >= 1"),
            (lambda: CircleFunction(0, [0j]), "bandlimit must be an integer >= 1"),
            (lambda: power(0), "power degree k must be an integer >= 1"),
            (lambda: rauch_flow(-1, 0.1), "rauch_flow index m must be an integer >= 0"),
            (lambda: RunConfig(seed=-1), "seed must be an integer >= 0"),
        ],
    )
    def test_integer_floors_name_their_field(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_json_real_reads_numbers_as_floats(self):
        for value in (3, 2.5, np.float64(-0.0), np.int64(7)):
            read = json_real(value, "x")
            assert type(read) is float and read == value
        assert math.copysign(1.0, json_real(-0.0, "x")) == -1.0

    def test_bad_entries_rejected(self):
        for re, im in ((float("nan"), 0.0), (0.0, -float("inf")), (10**400, 0.0)):
            obj = {"bandlimit": 2, "coeffs": [{"n": 1, "re": re, "im": im}]}
            with pytest.raises(ValidationError, match="^coefficient 1 must be finite$"):
                function_from_json(obj)
        for entry, bad in (
            ({"re": "nan"}, "nan"),
            ({"re": 0.0, "im": "-inf"}, "-inf"),
            ({"re": "1"}, "1"),
            ({"re": True}, True),
            ({"re": 1.0, "im": None}, None),
        ):
            obj = {"bandlimit": 2, "coeffs": [dict(entry, n=1)]}
            with pytest.raises(ValidationError) as info:
                function_from_json(obj)
            assert str(info.value) == "coefficient 1 must be a number, not %r" % (bad,)
        with pytest.raises(ValidationError):
            function_from_json({"bandlimit": 2, "coeffs": [{"n": 0, "re": 1.0, "im": 0.0}]})
        with pytest.raises(ValidationError):
            function_from_json({"bandlimit": 2, "coeffs": [{"n": 5, "re": 1.0, "im": 0.0}]})
        with pytest.raises(ValidationError):
            function_from_json(
                {
                    "bandlimit": 2,
                    "coeffs": [
                        {"n": 1, "re": 1.0, "im": 0.0},
                        {"n": 1, "re": 2.0, "im": 0.0},
                    ],
                }
            )

    def test_unknown_fields_are_refused_by_name(self):
        for obj, message in (
            (
                {"bandlimit": 1, "coeffs": [], "Real": True, "mean": 0.0},
                "unknown CircleFunction fields: Real, mean",
            ),
            (
                {"bandlimit": 1, "coeffs": [{"n": 1, "re": 1.0, "imag": 2.0}]},
                "unknown coefficient entry fields: imag",
            ),
        ):
            with pytest.raises(ValidationError) as info:
                function_from_json(obj)
            assert str(info.value) == message

    def test_real_flag_must_be_a_json_boolean(self):
        # bool() read "false" as true: Hermitian coefficients then passed
        # as a real function and others were refused as not Hermitian.
        coeffs = [{"n": 1, "re": 1.0}, {"n": -1, "re": 1.0}]
        for bad in ("false", "true", 0, 1, None, [True]):
            obj = {"bandlimit": 1, "real": bad, "coeffs": coeffs}
            with pytest.raises(ValidationError) as info:
                function_from_json(obj)
            assert str(info.value) == (
                "CircleFunction real must be true or false, not %r" % (bad,)
            )
        for flag in (True, False):
            obj = {"bandlimit": 1, "real": flag, "coeffs": coeffs}
            assert function_from_json(obj).real is True
        obj = {"bandlimit": 1, "real": False, "coeffs": [{"n": 1, "re": 1.0}]}
        assert function_from_json(obj).real is False
