"""Properties over the map descriptor grammar, and the inverse oracle.

`descriptors` draws flows, Moebius maps, rotations, the identity,
compositions of two or three factors and nested inverses.
`bisect_inverse` is the bracket-and-bisect solver that inverted every
map before inverses had a normal form.  It sees only forward lift
values, so it shares nothing with the closed forms and the flow
Newton solver it checks.  `exact_inverse` polishes its roots on a
40-digit forward lift, so that a flat forward lift leaves no error of
the oracle's own in the comparison.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhalf import maps
from hhalf.catalog import catalog_descriptors, equivariance_pairs
from hhalf.errors import ValidationError
from hhalf.fourier import SampleGrid, from_modes
from hhalf.maps import (
    Compose,
    Flow,
    Inverse,
    Moebius,
    Power,
    compose_descriptors,
    descriptor_from_json,
    descriptor_to_json,
    evaluate_lift,
    flow,
    identity,
    inverse_descriptor,
    make_map,
    moebius,
    rotation,
)

grid = SampleGrid(256)
# Grid points and points outside [0, 2 pi), where lifts leave the circle.
probe = np.concatenate([grid.points(), np.linspace(-20.0, 20.0, 61)])


def turns(values):
    """max(1, |value| / 2 pi): rounding of a lift grows with its size."""
    return np.maximum(1.0, np.abs(values) / (2.0 * np.pi))


def bisect_inverse(m, targets):
    """Solve lift(x) = target: double a bracket, then bisect 60 times."""
    radius = np.pi
    for _ in range(64):
        lo = targets - radius
        hi = targets + radius
        if np.all(evaluate_lift(m, lo) <= targets) and np.all(
            evaluate_lift(m, hi) >= targets
        ):
            break
        radius *= 2.0
    else:
        raise AssertionError("could not bracket the inverse lift")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        high_side = evaluate_lift(m, mid) > targets
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
    return 0.5 * (lo + hi)


def exact_lift(d, x):
    """Forward lift of d and its slope at an mpmath angle, to the working
    precision.

    The same lift as the library's: Moebius betas enter mod 2 pi.
    """
    if isinstance(d, Power):
        return d.k * x, d.k
    if isinstance(d, Moebius):
        a = mpmath.mpc(d.a)
        beta = math.remainder(d.beta, 2.0 * np.pi)
        denominator = 1 - mpmath.conj(a) * mpmath.expj(x)
        slope = (1 - abs(a) ** 2) / abs(denominator) ** 2
        return x + beta - 2 * mpmath.arg(denominator), slope
    if isinstance(d, Flow):
        # v is real: v = 2 Re sum_{k > 0} c_k z^k.
        z = zk = mpmath.expj(x)
        value = slope = 0
        for k in range(1, d.v.bandlimit + 1):
            term = mpmath.mpc(d.v.coefficient(k)) * zk
            value += term.real
            slope -= k * term.imag
            zk *= z
        eps = 2 * mpmath.mpf(d.eps)
        return x + eps * value, 1 + eps * slope
    if isinstance(d, Compose):
        slope = 1
        for item in reversed(d.maps):
            x, item_slope = exact_lift(item, x)
            slope *= item_slope
        return x, slope
    if isinstance(d, Inverse):
        # x - eps v(x) starts within about eps^2 |v v'| of the root.
        root = exact_root(d.of, x, 2 * x - exact_lift(d.of, x)[0])
        return root, 1 / exact_lift(d.of, root)[1]
    raise AssertionError("unknown descriptor %r" % (d,))


def exact_root(d, target, guess):
    """x with exact_lift(d, x) = target, by Newton steps from guess.

    Convergence is quadratic, so once a step is below 1e-20 per turn
    the root is good to the 40 digits exact_inverse works at.
    """
    x = mpmath.mpf(guess)
    for _ in range(60):
        value, slope = exact_lift(d, x)
        step = (value - target) / slope
        x -= step
        if abs(step) <= 1e-20 * max(1, abs(x)):
            return x
    raise AssertionError("Newton steps did not converge")


def exact_inverse(d, targets):
    """Inverse lift of d at float targets, rounded once from 40 digits.

    Starts from the bisection roots, which are within rounding / slope.
    """
    with mpmath.workdps(40):
        return np.array(
            [
                float(exact_root(d, mpmath.mpf(t), x))
                for t, x in zip(targets, bisect_inverse(make_map(d, grid), targets))
            ]
        )


@st.composite
def flows(draw, strength):
    """Real fields of bandlimit 1..4 with eps * sum |n c_n| <= strength."""
    bandlimit = draw(st.integers(1, 4))
    part = st.floats(-1.0, 1.0)
    modes = {}
    for n in range(1, bandlimit + 1):
        c = complex(draw(part), draw(part))
        modes[n], modes[-n] = c, c.conjugate()
    spread = sum(abs(n * c) for n, c in modes.items())
    if spread < 1e-3:  # eps = strength / spread would overflow near zero
        modes = {1: 0.5, -1: 0.5}
        spread = 1.0
    eps = draw(st.floats(0.01, strength)) * draw(st.sampled_from((-1.0, 1.0)))
    return flow(from_modes(bandlimit, modes, real=True), eps / spread)


def least_slope(d):
    """1 - |eps| sum |n c_n|, a lower bound on the slope of a flow's lift."""
    n = np.arange(-d.v.bandlimit, d.v.bandlimit + 1)
    return 1.0 - abs(d.eps) * float(np.sum(np.abs(n * d.v.coeffs)))


def newton_passes(monkeypatch):
    """Iterates of every Newton pass the flow inverse makes from now on."""
    passes = []
    value_and_slope = maps.value_and_slope
    monkeypatch.setattr(
        maps,
        "value_and_slope",
        lambda f, x: passes.append(np.copy(x)) or value_and_slope(f, x),
    )
    return passes


def _inverted(d, times):
    for _ in range(times):
        d = inverse_descriptor(d)
    return d


def grammar(strength=0.9, modulus=0.5, turn=20.0):
    """Single factors and compositions of 2-3, each under 0-3 inverses.

    Factors are flows with eps * sum |n c_n| <= strength (< 1, so the
    lift is monotone), Moebius maps with |a| <= modulus, rotations and
    the identity; rotation angles and Moebius betas lie in [-turn, turn].
    """
    angles = st.floats(-turn, turn)
    atoms = st.one_of(
        flows(strength),
        st.builds(
            lambda r, phase, beta: moebius(r * np.exp(1j * phase), beta),
            st.floats(0.0, modulus),
            st.floats(0.0, 2.0 * np.pi),
            angles,
        ),
        angles.map(rotation),
        st.just(identity()),
    )
    factors = st.builds(_inverted, atoms, st.integers(0, 3))
    composites = st.builds(
        _inverted,
        st.lists(factors, min_size=2, max_size=3).map(compose_descriptors),
        st.integers(0, 2),
    )
    return st.one_of(factors, composites)


descriptors = grammar()
# Where a forward lift is flat, bisection finds its root only to
# rounding / slope, so the oracle comparison keeps each factor's slope
# >= 1/3 and lift values near one turn.
well_conditioned = grammar(strength=0.5, turn=np.pi)


def wrapped(d):
    """Every descriptor an Inverse wraps, anywhere in d."""
    if isinstance(d, Inverse):
        return [d.of] + wrapped(d.of)
    if isinstance(d, Compose):
        return [x for item in d.maps for x in wrapped(item)]
    return []


class TestNormalForm:
    @given(descriptors)
    @settings(max_examples=60, deadline=None)
    def test_inverse_wraps_only_flows(self, d):
        for candidate in (d, inverse_descriptor(d)):
            assert all(isinstance(x, Flow) for x in wrapped(candidate))

    @given(descriptors)
    @settings(max_examples=40, deadline=None)
    def test_composition_with_the_inverse_is_the_identity(self, d):
        inverse = inverse_descriptor(d)
        for pair in ((d, inverse), (inverse, d)):
            m = make_map(compose_descriptors(pair), grid)
            assert np.max(np.abs(evaluate_lift(m, probe) - probe)) <= 1e-12

    @given(descriptors)
    @settings(max_examples=40, deadline=None)
    def test_json_echo_rebuilds_the_same_lift(self, d):
        echoed = json.loads(json.dumps(descriptor_to_json(d)))
        rebuilt = make_map(descriptor_from_json(echoed), grid)
        assert np.array_equal(rebuilt.lift_samples, make_map(d, grid).lift_samples)

    def test_inverse_wraps_nothing_but_a_flow(self):
        with pytest.raises(ValidationError, match="wraps only a flow"):
            Inverse(moebius(0.3))

    def test_inverse_of_the_identity_echoes_without_signed_zeros(self):
        echoed = descriptor_to_json(inverse_descriptor(identity()))
        assert echoed == descriptor_to_json(identity())
        assert json.dumps(echoed).count("-") == 0


class TestAgainstBisection:
    @pytest.mark.parametrize(
        "d",
        [d for _, d in catalog_descriptors()]
        + [compose_descriptors([o, i]) for _, o, i in equivariance_pairs()]
        + [
            compose_descriptors([inverse_descriptor(o), i, o])
            for _, o, i in equivariance_pairs()
        ],
    )
    def test_catalog_inverses_match_the_oracle(self, d):
        # Measured: <= 5.2e-15.
        expected = bisect_inverse(make_map(d, grid), probe)
        got = evaluate_lift(make_map(inverse_descriptor(d), grid), probe)
        assert np.all(np.abs(got - expected) <= 1e-14 * turns(expected))

    @given(well_conditioned)
    @settings(max_examples=40, deadline=None)
    def test_inverse_lift_matches_the_oracle(self, d):
        # Per-factor slopes >= 1/3 compose to as little as 1/27, where
        # bisection alone erred by 2.0e-14 per turn, so the oracle is
        # polished.  In 600 draws the normal form erred by <= 4.3e-15.
        expected = exact_inverse(d, probe)
        got = evaluate_lift(make_map(inverse_descriptor(d), grid), probe)
        assert np.all(np.abs(got - expected) <= 2e-14 * turns(expected))

    @pytest.mark.parametrize("modulus", [0.7, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("phase, beta", [(0.0, 0.0), (1.0, 0.5), (4.0, 7.0)])
    def test_strong_moebius_inverse(self, modulus, phase, beta):
        d = moebius(modulus * np.exp(1j * phase), beta)
        expected = bisect_inverse(make_map(d, grid), probe)
        got = evaluate_lift(make_map(inverse_descriptor(d), grid), probe)
        assert np.all(np.abs(got - expected) <= 2e-13 * turns(expected))

    def test_flow_bracket_needs_no_search(self, monkeypatch):
        # The forward lift at 256 angles puts every root in a table cell
        # of width 2 pi / 256 without a search; Newton from the cell's
        # linear interpolant with the exact slope needs 4 passes, and no
        # lift is walked but the inverse's own.
        d = flow(from_modes(2, {2: -0.5j, -2: 0.5j}, real=True), 0.05)
        passes = newton_passes(monkeypatch)
        walks = []
        lift_values = maps._lift_values
        monkeypatch.setattr(
            maps, "_lift_values", lambda d, x: walks.append(d) or lift_values(d, x)
        )
        inverse = make_map(inverse_descriptor(d), grid)
        assert len(walks) == 1
        assert len(passes) == 4
        expected = bisect_inverse(make_map(d, grid), grid.points())
        assert np.max(np.abs(inverse.lift_samples - expected)) <= 1e-14

    @pytest.mark.parametrize("far", [1e3, 1e5])
    def test_far_targets_converge_as_fast(self, far, monkeypatch):
        # Whole turns come off each target before Newton starts, so the
        # absolute step tolerance sits above the residual's rounding here too.
        d = flow(from_modes(2, {2: -0.5j, -2: 0.5j}, real=True), 0.05)
        inverse = make_map(inverse_descriptor(d), grid)
        targets = np.linspace(-far, far, 257)
        passes = newton_passes(monkeypatch)
        got = evaluate_lift(inverse, targets)
        assert len(passes) == 4
        expected = bisect_inverse(make_map(d, grid), targets)
        assert np.all(np.abs(got - expected) <= 1e-14 * turns(expected))

    @given(flows(0.9))
    @settings(max_examples=40, deadline=None)
    def test_strong_flow_inverse_matches_the_oracle(self, d):
        # Both solvers err by rounding / slope.  Measured over 1500 draws:
        # <= 2.8e-15 per turn times the least slope 1 - |eps| sum |n c_n|.
        expected = bisect_inverse(make_map(d, grid), probe)
        got = evaluate_lift(make_map(inverse_descriptor(d), grid), probe)
        bound = 1e-14 * turns(expected) / least_slope(d)
        assert np.all(np.abs(got - expected) <= bound)

    def test_newton_step_outside_the_cell_falls_back(self, monkeypatch):
        # A scalar target's table has 256 cells, 8 per period of
        # sin 32x.  Near pi / 32 the inverse of x + (0.99 / 32) sin 32x
        # is steepest (slope 100), and some Newton steps from inside a
        # cell land outside its narrowed bracket; each is replaced by
        # the bracket's midpoint.  Measured: 64 of 1283 steps over these
        # targets.
        eps, k = 0.99, 32
        d = flow(from_modes(k, {k: -0.5j / k, -k: 0.5j / k}, real=True), eps)
        fine = SampleGrid(1024)  # 256 points cannot certify this flow
        inverse = make_map(inverse_descriptor(d), fine)
        targets = np.linspace(np.pi - 0.05, np.pi + 0.05, 201) / k
        passes = newton_passes(monkeypatch)
        fallbacks = 0
        got = []
        for t in targets:
            passes.clear()
            got.append(evaluate_lift(inverse, t))
            for x, after in zip(passes, passes[1:]):
                lift = x + eps * np.sin(k * x) / k
                newton = x - (lift - t) / (1.0 + eps * np.cos(k * x))
                fallbacks += int(np.abs(after - newton)[0] > 1e-11)
        assert fallbacks > 0
        expected = bisect_inverse(make_map(d, fine), targets)
        error = np.abs(np.array(got) - expected)
        assert np.all(error <= 1e-14 * turns(expected) / (1 - eps))

    def test_scalar_targets_invert_in_as_few_passes_as_a_grid(self, monkeypatch):
        # A table of 8 * bandlimit cells took up to 9 passes for these
        # targets near the steep point of x + 0.99 sin x; the 256-cell
        # floor starts them as close as a 256-point grid call starts.
        d = flow(from_modes(1, {1: -0.5j, -1: 0.5j}, real=True), 0.99)
        inverse = make_map(inverse_descriptor(d), grid)
        passes = newton_passes(monkeypatch)
        for t in np.linspace(np.pi - 0.05, np.pi + 0.05, 201):
            passes.clear()
            evaluate_lift(inverse, t)
            assert len(passes) <= 5, t

    @given(flows(0.99))
    @settings(max_examples=40, deadline=None)
    def test_strong_flows_invert_in_few_passes(self, d):
        # Newton from a table cell's interpolant: over 400 draws the most
        # passes were 5.
        with pytest.MonkeyPatch.context() as patch:
            passes = newton_passes(patch)
            inverse = make_map(inverse_descriptor(d), grid)
            assert len(passes) <= 6
            passes.clear()
            got = evaluate_lift(inverse, probe)
            assert len(passes) <= 6
        forward = make_map(d, grid)
        for targets, roots in ((grid.points(), inverse.lift_samples), (probe, got)):
            residual = evaluate_lift(forward, roots) - targets
            assert np.all(np.abs(residual) <= 1e-13 * turns(targets))

    @pytest.mark.parametrize("k, eps", [(5, 0.15), (1, 0.95)])
    def test_strong_flows_invert_in_few_passes_on_a_fine_grid(
        self, k, eps, monkeypatch
    ):
        # Measured: 4 passes each.
        fine = SampleGrid(4096)
        d = flow(from_modes(k, {k: -0.5j, -k: 0.5j}, real=True), eps)
        passes = newton_passes(monkeypatch)
        inverse = make_map(inverse_descriptor(d), fine)
        assert len(passes) <= 6
        residual = evaluate_lift(make_map(d, fine), inverse.lift_samples)
        assert np.max(np.abs(residual - fine.points())) <= 1e-13
