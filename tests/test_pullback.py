"""Tests for truncated composition operators and their block matrices."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import cli
from hhalf.catalog import catalog_descriptors, sin_field
from hhalf.errors import AliasingError, GridError, ValidationError
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
    assembly_grid,
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


def bessel_table(orders, xs):
    # J_n(x) for n = 0..orders (rows) and each x > 0 (columns), by
    # Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from
    # well above max(orders, x), normalized by J_0 + 2 sum J_{2k} = 1.
    xs = np.asarray(xs, float)
    top = orders + int(np.max(xs)) + 40
    table = np.zeros((top + 2, xs.size))
    table[top] = 1e-300
    for n in range(top, 0, -1):
        table[n - 1] = (2.0 * n / xs) * table[n] - table[n + 1]
        table[:, np.abs(table[n - 1]) > 1e250] *= 1e-250
    norm = table[0] + 2.0 * np.sum(table[2::2], axis=0)
    return table[: orders + 1] / norm


def bessel_blocks(k, c, eps, cutoff):
    # Exact blocks of the flow of v = -c sin k theta, from no lift, grid
    # or FFT: e^{iq(theta + eps v)} = sum_n J_n(-q eps c) e^{i(q + nk) theta}
    # (Jacobi-Anger), so A[p-1, q-1] = sqrt(p/q) J_{(p-q)/k}(-q eps c) and
    # B[r-1, s-1] = sqrt(r/s) J_{(r+s)/k}(s eps c), zero off those lattices.
    ps = np.arange(1, cutoff + 1)
    table = bessel_table(2 * cutoff // k, ps * abs(eps * c))
    p, q = np.meshgrid(ps, ps, indexing="ij")

    def entries(offset, sign):
        # J_n(sign |x_q|) from J_|n|(|x_q|): each of n < 0 and a negative
        # argument flips the sign of an odd order.
        n = offset // k
        flips = (n < 0) ^ (sign < 0)
        odd = np.abs(n) % 2 == 1
        values = np.where(flips & odd, -1.0, 1.0) * table[np.abs(n), q - 1]
        return np.where(offset % k == 0, np.sqrt(p / q) * values, 0.0)

    sign = np.sign(eps * c)
    return entries(p - q, -sign), entries(p + q, sign)


def under_resolved_cases():
    # (descriptor, cutoff, grid): the spectrum of w^cutoff is still
    # 2e-2 (moebius) and 0.36 (flow) within size/8 of Nyquist, and
    # the blocks are off by 1.7e-2 and 1.1e-6 against a fine grid.
    return [
        (moebius(0.9), 32, SampleGrid(512)),
        (flow(sin_field(9), 0.1), 60, SampleGrid(256)),
    ]


def column_blocks(lift, cutoff):
    # One FFT per block column of the lift samples, w^q formed by the
    # running product w^{q-1} w: the assembly before batching, kept as
    # the oracle.  Returns A and B; no refusals.
    size = len(lift)
    w = np.exp(1j * lift)
    ps = np.arange(1, cutoff + 1)
    roots = np.sqrt(ps.astype(float))
    a = np.empty((cutoff, cutoff), np.complex128)
    b = np.empty((cutoff, cutoff), np.complex128)
    wq = w.copy()
    for q in range(1, cutoff + 1):
        spectrum = np.fft.fft(wq)
        coeffs = spectrum[1 : cutoff + 1] / size
        a[:, q - 1] = (roots / roots[q - 1]) * coeffs
        coeffs = np.conj(spectrum[size - ps]) / size
        b[:, q - 1] = (roots / roots[q - 1]) * coeffs
        if q < cutoff:
            wq *= w
    return a, b


def peak_traced_mib(call):
    # Peak of the memory numpy and Python allocate during call(), over
    # what was allocated before it.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 2.0**20
    finally:
        if not tracing:
            tracemalloc.stop()


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
        # Such a grid lies below 4 x bandlimit x degree and is refused
        # before the function is evaluated.
        past_nyquist = [
            (power(4), from_modes(1000, {1000: 0.5, -1000: 0.5}), 16000),
            (identity(), from_modes(3000, {3000: 0.5, -3000: 0.5}), 12000),
        ]
        for descriptor, f, floor in past_nyquist:
            phi = make_map(descriptor, grid)
            with pytest.raises(GridError) as caught:
                pullback_function(phi, f, grid)
            assert str(caught.value) == (
                "grid size 4096 is below 4 * bandlimit x degree = %d" % floor
            )

    def test_exact_modes_near_nyquist_are_accepted(self):
        # Modes up to bandlimit x degree are the composition itself,
        # not spread, and are kept exactly on a grid of 4 x that reach.
        # On 4096 points they sit within size/8 of Nyquist, where the
        # tail check is blind, so that grid is refused.
        wide = SampleGrid(8192)
        f = random_real_function(1600, np.random.default_rng(15))
        vf = pullback_function(make_map(identity(), wide), f, wide)
        assert abs(vf.coefficient(1600) - f.coefficient(1600)) <= 1e-14
        vf = pullback_function(make_map(rotation(0.7), wide), f, wide)
        expected = f.coefficient(1555) * np.exp(1j * 1555 * 0.7)
        assert abs(vf.coefficient(1555) - expected) <= 1e-13
        with pytest.raises(GridError, match=r"below 4 \* bandlimit x degree"):
            pullback_function(make_map(identity(), grid), f, grid)
        f = random_real_function(800, np.random.default_rng(16))
        vf = pullback_function(make_map(power(2), wide), f, wide)
        assert abs(vf.coefficient(1600) - f.coefficient(800)) <= 1e-14
        assert abs(vf.coefficient(1599)) <= 1e-14
        with pytest.raises(GridError, match=r"below 4 \* bandlimit x degree"):
            pullback_function(make_map(power(2), grid), f, grid)


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
        # That is v = -c sin k theta with k = 1 and c = -1.
        t = pullback_matrix(make_map(flow(sin_theta, 0.1), grid), 16, grid)
        a, b = bessel_blocks(1, -1.0, 0.1, 16)
        assert np.max(np.abs(t.A - a)) <= 1e-12
        assert np.max(np.abs(t.B - b)) <= 1e-12

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
        # 4096 points and would fill B with no tail to show it; that
        # grid is below 4 x cutoff and refused.
        with pytest.raises(GridError, match=r"below 4 \* cutoff = 12000"):
            pullback_matrix(make_map(identity(), grid), 3000, grid)

    def test_cutoff_near_nyquist_is_accepted_when_exact(self):
        # w^200 of the identity is the blocks' own top mode, not spread,
        # and is exact on 4 x 200 points.  On 512 points it sits within
        # size/8 of Nyquist, where the tail check is blind, and 256 is
        # past Nyquist: both grids are below 4 x cutoff and refused.
        wide = SampleGrid(1024)
        t = pullback_matrix(make_map(identity(), wide), 200, wide)
        assert np.max(np.abs(t.A - np.eye(200))) <= 1e-13
        assert np.max(np.abs(t.B)) <= 1e-13
        coarse = SampleGrid(512)
        for cutoff in (200, 256):
            with pytest.raises(GridError, match=r"below 4 \* cutoff"):
                pullback_matrix(make_map(identity(), coarse), cutoff, coarse)

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


class TestChunkedAssembly:
    # Powers of w are transformed in chunks of max(1, min(N, 2**16 // M'))
    # rows on the assembly grid M'.
    descriptors = [
        flow(sin_two_theta, 0.05),
        compose_descriptors([flow(sin_field(3), 0.2), moebius(0.3)]),
        inverse_descriptor(flow(sin_theta, 0.1)),
        moebius(0.3 + 0.2j, 1.0),
        rotation(0.7),
    ]

    @pytest.mark.parametrize(
        "cutoff, size",
        [
            (33, 4096),
            (97, 4096),
            (33, 4095),  # odd, so M' = M: chunks of 16 rows, the last one row
            (4, 2**17),
            (4, 2**17 + 1),  # odd: one row per chunk
            (40, 3000),  # M' = 375 or 750
            (40, 4097),  # odd: 15 rows
            (256, 16384),
        ],
    )
    def test_blocks_equal_one_fft_per_column_bit_for_bit(self, cutoff, size):
        g = SampleGrid(size)
        for descriptor in self.descriptors:
            m = make_map(descriptor, g)
            t = pullback_matrix(m, cutoff, g)
            stride = size // assembly_grid(m, cutoff, g).size
            a, b = column_blocks(m.lift_samples[::stride], cutoff)
            assert np.array_equal(t.A, a), descriptor
            assert np.array_equal(t.B, b), descriptor

    def test_refusals_keep_their_types_and_messages(self):
        with pytest.raises(ValidationError) as caught:
            pullback_matrix(make_map(power(2), grid), 8, grid)
        assert str(caught.value) == "block matrices are defined for degree-1 maps"
        with pytest.raises(GridError) as caught:
            pullback_matrix(make_map(identity(), grid), 3000, grid)
        assert str(caught.value) == "grid size 4096 is below 4 * cutoff = 12000"
        # One chunk, two chunks with a partial last one, three chunks.
        cases = under_resolved_cases() + [
            (moebius(0.9), 100, SampleGrid(1024)),
            (moebius(0.9), 150, SampleGrid(1000)),
        ]
        for descriptor, cutoff, coarse in cases:
            m = make_map(descriptor, coarse)
            # The tail is read from the probe of w^N on the map's grid,
            # before any FFT of the assembly.
            probe = np.fft.fft(np.exp(1j * cutoff * m.lift_samples))
            modes = np.abs(np.fft.fftfreq(coarse.size, 1.0 / coarse.size))
            band = modes >= max(3 * coarse.size / 8, cutoff + 1)
            tail = np.max(np.abs(probe[band])) / coarse.size
            for assemble in (assembly_grid, pullback_matrix):
                with pytest.raises(AliasingError) as caught:
                    assemble(m, cutoff, coarse)
                assert str(caught.value) == (
                    "grid size %d cannot resolve bandlimit %d under this map "
                    "(spectral tail %.1e near Nyquist)" % (coarse.size, cutoff, tail)
                )

    @pytest.mark.parametrize("cutoff, size, bound", [(256, 16384, 6.0), (32, 4096, 1.5)])
    def test_working_set_is_bounded(self, cutoff, size, bound):
        # The blocks and their validated copies take 4 N^2 * 16 bytes;
        # the chunk buffer adds at most 1 MiB on top of a few rows.
        g = SampleGrid(size)
        m = make_map(flow(sin_two_theta, 0.05), g)
        pullback_matrix(m, cutoff, g)
        assert peak_traced_mib(lambda: pullback_matrix(m, cutoff, g)) <= bound


class TestAssemblyGrid:
    # Blocks are assembled on the coarsest sub-grid M' = M / 2^j with
    # M' >= 4N whose tail band the spectrum of w^N on the map's grid
    # leaves empty; a spectrum that fills the map's own tail band is
    # refused before any halving.
    sizes = [(16, 4096), (32, 4096), (97, 4096), (40, 3000), (256, 16384)]

    def maps(self, g):
        for name, descriptor in catalog_descriptors():
            yield name, make_map(descriptor, g)
        yield "inverse", make_map(inverse_descriptor(flow(sin_theta, 0.1)), g)

    @pytest.mark.parametrize("cutoff, size", sizes)
    def test_grid_is_a_power_of_two_sub_grid_of_at_least_4n(self, cutoff, size):
        g = SampleGrid(size)
        coarser = 0
        for name, m in self.maps(g):
            sub = assembly_grid(m, cutoff, g)
            ratio = size // sub.size
            assert sub.size >= 4 * cutoff, name
            assert size % sub.size == 0 and ratio & (ratio - 1) == 0, name
            coarser += sub.size < size
        assert coarser == len(catalog_descriptors()) + 1

    def test_odd_grids_keep_the_map_grid_and_filled_tails_are_refused(self):
        refused = []
        for cutoff, size in ((32, 4097), (4, 2**17 + 1), (40, 375)):
            g = SampleGrid(size)
            for name, m in self.maps(g):
                try:
                    sub = assembly_grid(m, cutoff, g)
                except AliasingError:
                    refused.append((cutoff, size, name))
                else:
                    assert sub == g, name
        assert refused == [(40, 375, "moebius_0.5_0.5")]
        # w^N already fills the tail band of the map's own grid.
        for descriptor, cutoff, coarse in under_resolved_cases():
            m = make_map(descriptor, coarse)
            with pytest.raises(AliasingError, match="^grid size %d " % coarse.size):
                assembly_grid(m, cutoff, coarse)

    @pytest.mark.parametrize("k", [61, 62, 63, 64])
    @pytest.mark.parametrize("eps, size", [(1e-3, 1024), (1e-2, 2048)])
    def test_modes_that_fold_past_a_sub_grid_are_read_on_the_map_grid(
        self, k, eps, size
    ):
        # w^32 for the flow of sin k theta spreads in steps of k past
        # the 128-point sub-grid.  Judged by its own samples, that grid
        # shows no tail for most of these maps, and its blocks are off
        # by 1.2e-4 to 0.16.  Read on the map's grid, the spectrum
        # keeps every spread mode below the tail band of M'.
        m = make_map(flow(sin_field(k), eps), grid)
        assert assembly_grid(m, 32, grid).size == size
        t = pullback_matrix(m, 32, grid)
        a, b = bessel_blocks(k, -1.0, eps, 32)
        assert np.max(np.abs(t.A - a)) <= 1e-14
        assert np.max(np.abs(t.B - b)) <= 1e-14

    @pytest.mark.parametrize("assemble", [pullback_matrix, assembly_grid])
    @pytest.mark.parametrize("cutoff", [0, True, 2.5, -1])
    def test_cutoff_is_read_before_the_grid(self, assemble, cutoff):
        # 0 halved the grid to one point, -1 reached numpy's "negative
        # dimensions", True and 2.5 a bare TypeError or a grid.
        m = make_map(moebius(0.3), grid)
        with pytest.raises(ValidationError, match="^cutoff must be an integer"):
            assemble(m, cutoff, grid)

    def test_integral_float_cutoff_reads_as_its_integer(self):
        m = make_map(moebius(0.3), grid)
        assert assembly_grid(m, 32.0, grid) == assembly_grid(m, 32, grid)
        t, exact = pullback_matrix(m, 32.0, grid), pullback_matrix(m, 32, grid)
        assert t.cutoff == 32
        assert np.array_equal(t.A, exact.A) and np.array_equal(t.B, exact.B)

    @pytest.mark.parametrize("cutoff, size", sizes)
    def test_blocks_equal_those_of_the_map_rebuilt_on_the_sub_grid(
        self, cutoff, size
    ):
        # Every 2^j-th point of SampleGrid(M) is a point of
        # SampleGrid(M / 2^j), bit for bit, so a pointwise lift gives the
        # same samples.  Inverse flows are left out: Newton stops when
        # every point of the grid has converged, so the roots it returns
        # depend on the grid by an ulp.
        g = SampleGrid(size)
        for name, descriptor in catalog_descriptors():
            m = make_map(descriptor, g)
            sub = assembly_grid(m, cutoff, g)
            rebuilt = make_map(descriptor, sub)
            assert assembly_grid(rebuilt, cutoff, sub) == sub, name
            t = pullback_matrix(m, cutoff, g)
            u = pullback_matrix(rebuilt, cutoff, sub)
            assert np.array_equal(t.A, u.A), name
            assert np.array_equal(t.B, u.B), name

    @pytest.mark.parametrize(
        "index, eps, cutoff, size",
        [(1, 0.05, 32, 4096), (1, 0.2, 64, 4096), (3, 0.1, 128, 4096), (1, 0.02, 256, 16384)],
    )
    def test_rauch_flow_blocks_are_exact(self, index, eps, cutoff, size):
        # rauch_flow(m, eps) is v = -c sin k theta, k = m + 2, c = 2/(m + 1).
        g = SampleGrid(size)
        m = make_map(rauch_flow(index, eps), g)
        assert assembly_grid(m, cutoff, g).size < size
        t = pullback_matrix(m, cutoff, g)
        a, b = bessel_blocks(index + 2, 2.0 / (index + 1), eps, cutoff)
        assert np.max(np.abs(t.A - a)) <= 1e-13
        assert np.max(np.abs(t.B - b)) <= 1e-13

    def test_bessel_table_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.linspace(0.01, 60.0, 300)
        orders = np.arange(201)[:, None]
        table = bessel_table(200, xs)
        assert np.max(np.abs(table - special.jv(orders, xs))) <= 1e-14


class TestGridFloor:
    # A grid below 4 x reach is refused before any FFT.  Just above 2N
    # the tail band is too narrow to show spread, and these were
    # accepted with wrong results before the floor lived here.

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 8),
        strength=st.floats(1e-3, 0.5),
        c=st.floats(0.25, 2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        cutoff=st.sampled_from([8, 16, 32]),
        data=st.data(),
    )
    def test_accepted_blocks_are_exact(self, k, strength, c, sign, cutoff, data):
        # v = -c sin k theta with max |eps v'| = strength, on any grid
        # from 2N + 1 to 8N: what pullback_matrix accepts is exact.  A
        # weak flow is accepted on 8N points when w^N spreads by steps
        # of k <= N/4, so the property is not vacuous; a wider step
        # reaches the tail band 3N and is refused.
        eps = sign * strength / (c * k)
        v = from_modes(k, {k: 0.5j * c, -k: -0.5j * c}, real=True)
        a, b = bessel_blocks(k, c, eps, cutoff)
        size = data.draw(st.integers(2 * cutoff + 1, 8 * cutoff), label="size")
        must_accept = strength <= 0.05 and 4 * k <= cutoff
        for size, must in ((size, False), (8 * cutoff, must_accept)):
            g = SampleGrid(size)
            try:
                t = pullback_matrix(make_map(flow(v, eps), g), cutoff, g)
            except (GridError, AliasingError):
                assert not must
                continue
            assert np.max(np.abs(t.A - a)) <= 1e-13
            assert np.max(np.abs(t.B - b)) <= 1e-13

    def test_blind_grids_just_above_2n_are_refused(self):
        cases = [(moebius(0.3), 65)]
        cases += [(flow(sin_two_theta, 0.05), size) for size in (65, 66)]
        cases += [
            (flow(sin_field(20), 0.002), size)
            for size in (65, 66, 67, 68, 69, 70, 71, 72, 80)
        ]
        for descriptor, size in cases:
            g = SampleGrid(size)
            with pytest.raises(GridError) as caught:
                pullback_matrix(make_map(descriptor, g), 32, g)
            assert str(caught.value) == (
                "grid size %d is below 4 * cutoff = 128" % size
            )
        f = random_real_function(32, np.random.default_rng(17))
        for descriptor in (moebius(0.3), flow(sin_two_theta, 0.05)):
            for size in (65, 66):
                g = SampleGrid(size)
                with pytest.raises(GridError, match=r"below 4 \* bandlimit"):
                    pullback_function(make_map(descriptor, g), f, g)


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
        for g in (grid, SampleGrid(1024)):
            for descriptor in descriptors:
                m = make_map(descriptor, g)
                assert np.array_equal(m.lift_samples, evaluate_lift(m, g.points()))

    def test_foreign_grid_is_refused(self):
        m = make_map(flow(sin_theta, 0.1), grid)
        other = SampleGrid(2048)
        with pytest.raises(ValidationError, match="own sample grid"):
            pullback_function(m, cos_theta, other)
        with pytest.raises(ValidationError, match="own sample grid"):
            pullback_matrix(m, 8, other)
        with pytest.raises(ValidationError, match="own sample grid"):
            period_matrix(m, 8, other)


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

    def test_complex_blocks_are_kept_read_only(self):
        a, b = np.eye(2, dtype=complex), np.zeros((2, 2), complex)
        t = BlockOperator(2, a, b)
        assert np.shares_memory(t.A, a) and np.shares_memory(t.B, b)
        assert not (t.A.flags.writeable or t.B.flags.writeable)
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        # Other dtypes are converted, so the caller's array is untouched.
        real = np.eye(2)
        assert not np.shares_memory(BlockOperator(2, real, real).A, real)
        assert real.flags.writeable

    def test_refused_blocks_stay_writeable(self):
        a = np.eye(2, dtype=complex)
        bad = np.full((2, 2), complex(math.nan, 0.0))
        with pytest.raises(ValidationError, match="^B block entries must be finite$"):
            BlockOperator(2, a, bad)
        with pytest.raises(ValidationError, match="^B block must be 2 x 2$"):
            BlockOperator(2, a, np.zeros((3, 3), complex))
        assert a.flags.writeable and bad.flags.writeable

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

    def test_unknown_fields_are_refused_by_name(self):
        t = json.loads(cli._json_text(operator_to_json(BlockOperator(1, [[1.0]], [[0.0]]))))
        with pytest.raises(ValidationError, match="unknown BlockOperator fields: extra$"):
            operator_from_json(dict(t, extra=1))
        t["B"][0][0]["x"] = 0.0
        with pytest.raises(ValidationError, match="unknown B entry fields: x$"):
            operator_from_json(t)

    def test_non_finite_entries_are_rejected(self):
        t = BlockOperator(2, np.eye(2), np.zeros((2, 2)))
        t = json.loads(cli._json_text(operator_to_json(t)))
        t["B"][1][0] = {"re": float("nan"), "im": 0.0}
        with pytest.raises(ValidationError, match="finite"):
            operator_from_json(t)
