"""Tests for circle map construction, composition, and estimators."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhalf import fourier, maps
from hhalf.errors import (
    AliasingError,
    GridError,
    MonotonicityError,
    ValidationError,
)
from hhalf.fourier import SampleGrid, from_modes, function_to_json, max_bandlimit
from hhalf.maps import (
    CircleMap,
    Flow,
    compose,
    compose_descriptors,
    descriptor_from_json,
    descriptor_to_json,
    evaluate_lift,
    flow,
    identity,
    inverse_descriptor,
    lift_bandwidth,
    make_map,
    moebius,
    power,
    qs_ratio,
    radial_dilatation,
    rauch_flow,
    rotation,
)

grid = SampleGrid(1024)
sin_theta = from_modes(4, {1: -0.5j, -1: 0.5j})
probe = np.linspace(0.0, 2.0 * np.pi, 257)


def circle_distance(m1, m2, points=probe):
    """Sup distance between the image points on the circle."""
    w1 = np.exp(1j * evaluate_lift(m1, points))
    w2 = np.exp(1j * evaluate_lift(m2, points))
    return float(np.max(np.abs(w1 - w2)))


def moebius_params(max_modulus=0.7):
    return st.tuples(
        st.floats(-max_modulus, max_modulus),
        st.floats(-max_modulus, max_modulus),
        st.floats(-3.0, 3.0),
    ).filter(lambda t: t[0] ** 2 + t[1] ** 2 < max_modulus ** 2)


class TestLifts:
    def test_identity(self):
        m = make_map(identity(), grid)
        assert evaluate_lift(m, np.pi) == np.pi
        assert m.degree == 1

    def test_rotation(self):
        m = make_map(rotation(np.pi / 2), grid)
        assert evaluate_lift(m, 0.0) == np.pi / 2

    def test_power_degree(self):
        m = make_map(power(2), grid)
        assert m.degree == 2
        assert evaluate_lift(m, 0.7) == 1.4

    def test_moebius_zero_parameter_is_rotation(self):
        m = make_map(moebius(0.0, 0.8), grid)
        theta = np.linspace(-5, 5, 17)
        assert_allclose(evaluate_lift(m, theta), theta + 0.8, rtol=1e-15)

    def test_moebius_matches_boundary_value(self):
        # Oracle: the boundary action of the disc automorphism itself.
        for a, beta in [(0.3 + 0.1j, 0.7), (0.5, 0.0), (-0.2 + 0.4j, -1.1)]:
            m = make_map(moebius(a, beta), grid)
            theta = np.linspace(0.0, 7.0, 41)
            lift = evaluate_lift(m, theta)
            z = np.exp(1j * theta)
            w = np.exp(1j * beta) * (z - a) / (1 - np.conj(a) * z)
            assert_allclose(np.exp(1j * lift), w, atol=1e-14)

    def test_rauch_flow_lift(self):
        m = make_map(rauch_flow(0, 0.001), grid)
        theta = np.linspace(0.0, 6.0, 13)
        assert_allclose(
            evaluate_lift(m, theta), theta - 0.002 * np.sin(2 * theta), rtol=1e-15
        )

    def test_rauch_flow_is_a_flow(self):
        for m in (0, 1, 2, 7):
            d = rauch_flow(m, 0.01)
            assert isinstance(d, Flow) and d.eps == 0.01 and d.v.real
            assert d.v.bandlimit == m + 2
            assert d.v.coefficient(m + 2) == 1j / (m + 1)
            assert np.count_nonzero(d.v.coeffs) == 2
        # The former walk: theta - (2 eps / (m+1)) sin((m+2) theta).
        points = grid.points()
        for m in (0, 1, 2):
            former = points - (2.0 * 0.01 / (m + 1)) * np.sin((m + 2) * points)
            lift = evaluate_lift(make_map(rauch_flow(m, 0.01), grid), points)
            assert np.max(np.abs(lift - former)) <= 8.9e-16

    def test_flow_lift(self):
        m = make_map(flow(sin_theta, 0.25), grid)
        theta = np.linspace(0.0, 6.0, 13)
        assert_allclose(
            evaluate_lift(m, theta), theta + 0.25 * np.sin(theta), atol=1e-15
        )

    def test_periodic_extension(self):
        m = make_map(moebius(0.4 + 0.2j, 1.0), grid)
        base = evaluate_lift(m, 1.3)
        assert_allclose(
            evaluate_lift(m, 1.3 + 4 * np.pi), base + 4 * np.pi, rtol=1e-15
        )

    def test_scalar_and_array_evaluation(self):
        m = make_map(rotation(0.5), grid)
        assert isinstance(evaluate_lift(m, 1.0), float)
        values = evaluate_lift(m, np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert values.shape == (2, 2)


class TestValidation:
    def test_moebius_parameter_bound(self):
        with pytest.raises(ValidationError):
            moebius(1.0)
        with pytest.raises(ValidationError):
            moebius(0.8 + 0.7j)

    def test_flow_monotonicity(self):
        with pytest.raises(MonotonicityError):
            make_map(flow(sin_theta, 1.5), grid)

    def test_flow_needs_real_field(self):
        with pytest.raises(ValidationError):
            flow(from_modes(2, {1: 1.0}), 0.1)

    def test_rauch_flow_monotonicity(self):
        with pytest.raises(MonotonicityError):
            make_map(rauch_flow(0, 0.3), grid)

    def test_huge_rauch_index_is_refused_before_allocation(self):
        # The field of index m has bandlimit m + 2; at m = 10**9 its
        # coefficients would take 32 GB.
        tracemalloc.start()
        try:
            for build in (
                lambda: rauch_flow(10**9, 0.001),
                lambda: rauch_flow(1e300, 0.001),
                lambda: rauch_flow(max_bandlimit - 1, 0.001),
                lambda: descriptor_from_json(
                    {"type": "rauch_flow", "m": 1e9, "eps": 0.001}
                ),
                lambda: descriptor_from_json(
                    {"type": "rauch_flow", "m": 1e300, "eps": 0.001}
                ),
            ):
                with pytest.raises(ValidationError, match="^bandlimit must lie"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_flow_past_nyquist_is_refused_before_evaluation(self):
        # Evaluating this field would cost its bandlimit times the grid
        # size, seconds on 4096 points.
        d = rauch_flow(100000, 1e-6)
        fine = SampleGrid(4096)
        start = time.perf_counter()
        with pytest.raises(GridError, match="cannot resolve.*past Nyquist"):
            make_map(d, fine)
        assert time.perf_counter() - start < 0.05
        wrapped = (compose_descriptors([moebius(0.2), d]), inverse_descriptor(d))
        for descriptor in wrapped:
            with pytest.raises(GridError, match="past Nyquist"):
                make_map(descriptor, fine)

    def test_flow_up_to_nyquist_builds(self):
        # The benchmark reference builds bandlimit-6 flows on 64 points.
        v = from_modes(6, {6: -0.5j, -6: 0.5j})
        make_map(flow(v, 0.01), SampleGrid(64))
        make_map(flow(v, 0.01), SampleGrid(13))
        with pytest.raises(GridError, match="past Nyquist mode 5"):
            make_map(flow(v, 0.01), SampleGrid(12))

    def test_unknown_descriptor_is_refused(self):
        # Any object but a descriptor, here a string, reaches no family.
        hand_built = CircleMap("not a map", grid, grid.points())
        refusal = "^unknown map descriptor 'not a map'$"
        for call in (
            lambda: make_map("not a map", grid),
            lambda: evaluate_lift(hand_built, 1.0),
            lambda: descriptor_to_json("not a map"),
        ):
            with pytest.raises(ValidationError, match=refusal):
                call()

    def test_power_validation(self):
        with pytest.raises(ValidationError):
            power(0)

    def test_invert_requires_degree_one(self):
        with pytest.raises(ValidationError, match="degree-1"):
            inverse_descriptor(power(2))

    def test_qs_requires_degree_one(self):
        m = make_map(power(2), grid)
        with pytest.raises(ValidationError):
            qs_ratio(m)

    def test_dilatation_requires_degree_one(self):
        m = make_map(power(3), grid)
        with pytest.raises(ValidationError):
            radial_dilatation(m)

    @pytest.mark.parametrize(
        "a",
        [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)],
    )
    def test_non_finite_moebius_parameter_is_refused(self, a):
        with pytest.raises(ValidationError, match="^moebius a must be finite$"):
            moebius(a)


def slope_field(v, eps, points):
    """1 + eps v' at the given angles, term by term from the modes."""
    n = v.bandlimit
    slope = np.ones_like(points)
    for k in range(1, n + 1):
        c = v.coeffs[n + k]
        slope += eps * 2.0 * (1j * k * c * np.exp(1j * k * points)).real
    return slope


class TestFlowCertificate:
    # 1 + eps v' must be positive on the whole circle, not only at the
    # grid points: between L points the slope drops at most
    # (pi/L) |eps| sum n^2 |c_n| below the nearest one.
    sin21 = from_modes(21, {21: -0.5j, -21: 0.5j}, real=True)

    def test_flow_that_turns_back_between_grid_points_is_refused(self):
        # 1 + 1.2 cos 21 theta is at least 0.4 on the 63 grid points,
        # which see only 21 theta = 0, 2pi/3, 4pi/3, and -0.2 at
        # theta = pi/21.  The 252 refined points reach it.
        coarse = SampleGrid(63)
        d = flow(self.sin21, 1.2 / 21)
        assert np.min(slope_field(d.v, d.eps, coarse.points())) > 0.39
        refusal = "^flow field violates 1 \\+ eps\\*v' > 0$"
        for descriptor in (d, inverse_descriptor(d), compose_descriptors([d])):
            with pytest.raises(MonotonicityError, match=refusal):
                make_map(descriptor, coarse)

    def test_refined_points_certify_a_flow_the_grid_cannot(self):
        # 1 + 0.9 cos 21 theta >= 0.1: undecided on 63 and 252 points,
        # certified on 1008.
        m = make_map(flow(self.sin21, 0.9 / 21), SampleGrid(63))
        assert m.grid.size == 63

    def test_undecided_past_the_cap_is_refused(self):
        # 1 + 0.999 cos 21 theta >= 0.001, under the drop bound 0.065
        # of 1008 points, sixteen times the grid.  Sixteen times 8192
        # points bring the bound to 5e-4, which certifies it.
        refusal = "^flow field 1 \\+ eps\\*v' > 0 is not certified between 1008 points"
        with pytest.raises(MonotonicityError, match=refusal):
            make_map(flow(self.sin21, 0.999 / 21), SampleGrid(63))
        make_map(flow(self.sin21, 0.999 / 21), SampleGrid(8192))

    @settings(max_examples=60, deadline=None)
    @given(
        bandlimit=st.integers(1, 12),
        size=st.sampled_from([32, 63, 128, 257]),
        strength=st.floats(0.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_built_flow_increases_everywhere(self, bandlimit, size, strength, seed):
        # Fields scaled so max |eps v'| is about strength: a built flow
        # has a positive slope at a dense set of points, and a refused
        # one either dips to zero there or sits within the drop bound
        # of sixteen times the grid.
        rng = np.random.default_rng(seed)
        modes = {}
        for k in range(1, bandlimit + 1):
            value = complex(rng.standard_normal(), rng.standard_normal()) / k**2
            modes[k], modes[-k] = value, value.conjugate()
        v = from_modes(bandlimit, modes, real=True)
        dense = SampleGrid(64 * size).points()
        eps = strength / np.max(np.abs(slope_field(v, 1.0, dense) - 1.0))
        slope = slope_field(v, eps, dense)
        try:
            make_map(flow(v, eps), SampleGrid(size))
        except MonotonicityError:
            weights = np.arange(-bandlimit, bandlimit + 1) ** 2
            drop = np.pi / (16 * size) * eps * np.sum(weights * np.abs(v.coeffs))
            assert np.min(slope) <= drop + 1e-12
        else:
            assert np.min(slope) > 0.0


class TestCircleMap:
    def test_periodic_part_is_analyzed_once(self, monkeypatch):
        m = make_map(flow(sin_theta, 0.1), grid)
        assert "periodic_part" not in vars(m)  # computed on first use
        calls = []
        analyze = maps.analyze

        def counted(*args):
            calls.append(args)
            return analyze(*args)

        monkeypatch.setattr(maps, "analyze", counted)
        part = m.periodic_part
        assert m.periodic_part is part
        radial_dilatation(m)
        lift_bandwidth(m)
        assert len(calls) == 1
        assert_allclose(part.coefficient(1), -0.05j, atol=1e-15)

    def test_lift_that_is_not_increasing_is_refused(self):
        points = grid.points()
        # A step back inside the grid, and a closing step lift(0) + 2 pi
        # - lift(last) that is not positive.
        for samples in (points[::-1], 2.0 * points):
            with pytest.raises(MonotonicityError, match="not strictly increasing"):
                CircleMap(identity(), grid, samples)
        assert CircleMap(identity(), grid, points).degree == 1

    def test_samples_that_do_not_fit_the_grid_are_refused(self):
        # Pullbacks stride the samples by grid.size // M', so a sample
        # array of any other shape would be read as a wrong lift.
        small = SampleGrid(64)
        for samples in (
            SampleGrid(128).points(),
            small.points()[:-1],
            small.points()[None],
            np.float64(0.0),
        ):
            with pytest.raises(GridError, match="does not match the grid size"):
                CircleMap(identity(), small, samples)


class TestComposition:
    def test_identity_is_neutral(self):
        phi = make_map(moebius(0.3, 0.4), grid)
        composed = compose(phi, make_map(identity(), grid))
        assert np.array_equal(composed.lift_samples, phi.lift_samples)

    def test_rotations_add(self):
        left = compose(make_map(rotation(0.4), grid), make_map(rotation(0.7), grid))
        right = make_map(rotation(1.1), grid)
        assert_allclose(left.lift_samples, right.lift_samples, rtol=1e-14)

    def test_degrees_multiply(self):
        m = compose(make_map(power(2), grid), make_map(power(3), grid))
        assert m.degree == 6
        assert evaluate_lift(m, 0.5) == 3.0

    def test_associativity(self):
        a = make_map(moebius(0.2, 0.1), grid)
        b = make_map(flow(sin_theta, 0.2), grid)
        c = make_map(rotation(0.9), grid)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert circle_distance(left, right) <= 1e-9

    def test_roundtrip_with_inverse(self):
        d = flow(sin_theta, 0.1)
        phi = make_map(d, grid)
        roundtrip = compose(phi, make_map(inverse_descriptor(d), grid))
        theta = np.linspace(0.0, 2 * np.pi, 101)
        assert np.max(np.abs(evaluate_lift(roundtrip, theta) - theta)) <= 1e-8

    def test_inverse_takes_its_periodic_part_from_newton(self, monkeypatch):
        # evaluate_at runs for the slope check and the Newton start only:
        # the periodic part at the roots comes from the last Newton pass.
        calls = []
        original = fourier.evaluate_at

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (fourier, maps):
            monkeypatch.setattr(module, "evaluate_at", counted)
        make_map(inverse_descriptor(flow(sin_theta, 0.1)), SampleGrid(4096))
        assert len(calls) == 2

    def test_two_sided_inverse(self):
        d = moebius(0.35 + 0.2j, 0.6)
        phi = make_map(d, grid)
        inverse = make_map(inverse_descriptor(d), grid)
        theta = np.linspace(0.0, 2 * np.pi, 101)
        left = compose(inverse, phi)
        right = compose(phi, inverse)
        assert np.max(np.abs(evaluate_lift(left, theta) - theta)) <= 1e-9
        assert np.max(np.abs(evaluate_lift(right, theta) - theta)) <= 1e-9

    @given(moebius_params(), moebius_params())
    @settings(max_examples=15, deadline=None)
    def test_moebius_closure(self, p1, p2):
        # Oracle: 2x2 matrix composition of the disc automorphisms.
        small = SampleGrid(256)

        def matrix(ar, ai, beta):
            e = np.exp(1j * beta)
            a = complex(ar, ai)
            return np.array([[e, -e * a], [-np.conj(a), 1.0]])

        c = matrix(*p1) @ matrix(*p2)
        a_new = -c[0, 1] / c[0, 0]
        beta_new = float(np.angle(c[0, 0] / c[1, 1]))
        composed = make_map(
            compose_descriptors(
                [moebius(complex(p1[0], p1[1]), p1[2]), moebius(complex(p2[0], p2[1]), p2[2])]
            ),
            small,
        )
        single = make_map(moebius(a_new, beta_new), small)
        assert circle_distance(composed, single) <= 1e-9

    @given(moebius_params())
    @settings(max_examples=15, deadline=None)
    def test_moebius_inverse_closed_form(self, params):
        small = SampleGrid(256)
        a = complex(params[0], params[1])
        beta = params[2]
        inverse = make_map(inverse_descriptor(moebius(a, beta)), small)
        oracle = make_map(moebius(-a * np.exp(1j * beta), -beta), small)
        assert circle_distance(inverse, oracle) <= 1e-9

    def test_inverse_of_rotation(self):
        inverse = make_map(inverse_descriptor(rotation(0.8)), grid)
        oracle = make_map(rotation(-0.8), grid)
        assert circle_distance(inverse, oracle) <= 1e-12

    def test_maps_on_two_grids_do_not_compose(self):
        outer = make_map(moebius(0.3), grid)
        inner = make_map(flow(sin_theta, 0.1), SampleGrid(512))
        with pytest.raises(ValidationError, match="^composition needs a common"):
            compose(outer, inner)

    def test_power_one_is_its_own_inverse(self):
        d = power(1)
        assert inverse_descriptor(d) is d


class TestEstimators:
    def test_qs_identity(self):
        assert_allclose(qs_ratio(make_map(identity(), grid)), 1.0, rtol=1e-12)

    def test_qs_rotation(self):
        assert_allclose(qs_ratio(make_map(rotation(0.7), grid)), 1.0, rtol=1e-12)

    def test_qs_flow_pinned(self):
        # Brute-force sampled maximum, frozen after first computation.
        m = make_map(flow(sin_theta, 0.5), SampleGrid(4096))
        assert_allclose(qs_ratio(m), 1.5278555752787797, rtol=1e-9)

    def test_qs_moebius_grows_with_modulus(self):
        values = [
            qs_ratio(make_map(moebius(a, 0.0), grid)) for a in (0.1, 0.3, 0.5)
        ]
        assert values[0] < values[1] < values[2]
        assert all(np.isfinite(values))

    def test_qs_rotation_invariance(self):
        phi = make_map(moebius(0.3, 0.0), grid)
        rot = make_map(rotation(2 * np.pi * 11 / grid.size), grid)
        post = compose(rot, phi)
        pre = compose(phi, rot)
        base = qs_ratio(phi)
        assert_allclose(qs_ratio(post), base, rtol=1e-9)
        assert_allclose(qs_ratio(pre), base, rtol=1e-9)

    def test_dilatation_identity(self):
        assert radial_dilatation(make_map(identity(), grid)) == 1.0

    def test_dilatation_rotation(self):
        assert radial_dilatation(make_map(rotation(1.1), grid)) == 1.0

    def test_dilatation_flow(self):
        m = make_map(flow(sin_theta, 0.1), SampleGrid(4096))
        assert_allclose(radial_dilatation(m), 1.0 / 0.9, rtol=1e-13)

    def test_dilatation_moebius(self):
        for a in (0.1, 0.5, 0.9):
            m = make_map(moebius(a, 0.0), SampleGrid(4096))
            assert_allclose(radial_dilatation(m), (1 + a) / (1 - a), rtol=1e-13)

    def test_dilatation_of_an_unresolved_lift_is_refused(self):
        # Differentiated anyway, this spectrum gives K = 20.856 against 19.
        with pytest.raises(AliasingError, match="cannot resolve"):
            radial_dilatation(make_map(moebius(0.9), SampleGrid(64)))

    def test_dilatation_refuses_a_slope_that_is_not_positive(self):
        # Built by hand, as make_map refuses the flow: the 64 samples of
        # theta + eps sin 16 theta increase, but the spectral slope
        # 1 + 1.05 cos 16 theta is -0.05 at the grid point pi/16.
        g = SampleGrid(64)
        d = flow(from_modes(16, {16: -0.5j, -16: 0.5j}, real=True), 1.05 / 16)
        points = g.points()
        m = CircleMap(d, g, points + d.eps * np.sin(16 * points))
        refusal = "^lift derivative is not positive on the grid$"
        with pytest.raises(MonotonicityError, match=refusal):
            radial_dilatation(m)
        with pytest.raises(MonotonicityError, match="violates"):
            make_map(d, g)

    def test_lift_bandwidth(self):
        assert lift_bandwidth(make_map(identity(), grid)) == 0
        assert lift_bandwidth(make_map(flow(sin_theta, 0.2), grid)) == 1
        assert lift_bandwidth(make_map(rauch_flow(2, 0.01), grid)) == 4


class TestJson:
    def test_roundtrip_all_types(self):
        descriptors = [
            identity(),
            rotation(0.3),
            power(2),
            moebius(0.2 + 0.1j, 0.5),
            flow(sin_theta, 0.1),
            rauch_flow(1, 0.01),
            compose_descriptors([rotation(0.1), moebius(0.1, 0.0)]),
            inverse_descriptor(moebius(0.1, 0.2)),
        ]
        for d in descriptors:
            restored = descriptor_from_json(descriptor_to_json(d))
            m1 = make_map(d, SampleGrid(256))
            m2 = make_map(restored, SampleGrid(256))
            assert m1.degree == m2.degree
            assert circle_distance(m1, m2) <= 1e-12

    def test_rauch_flow_is_input_sugar_for_a_flow(self):
        d = descriptor_from_json({"type": "rauch_flow", "m": 1, "eps": 0.01})
        echoed = descriptor_to_json(d)
        assert echoed["type"] == "flow" and echoed["eps"] == 0.01
        assert echoed == descriptor_to_json(rauch_flow(1, 0.01))
        assert echoed["v"]["coeffs"] == [
            {"n": -3, "re": 0.0, "im": -0.5},
            {"n": 3, "re": 0.0, "im": 0.5},
        ]

    def test_nesting_past_the_limit_is_refused(self):
        # Building, evaluating and echoing a descriptor recurse per
        # level, so depth is capped; compose and inverse levels count
        # alike.
        def nested(levels):
            d = {"type": "flow", "v": function_to_json(sin_theta), "eps": 0.1}
            for level in range(levels):
                if level % 2:
                    d = {"type": "inverse", "of": d}
                else:
                    d = {"type": "compose", "maps": [d]}
            return d

        limit = maps.max_descriptor_depth
        assert limit == 64
        echo = descriptor_to_json(descriptor_from_json(nested(limit)))
        assert descriptor_to_json(descriptor_from_json(echo)) == echo
        assert make_map(descriptor_from_json(echo), grid).degree == 1
        for levels in (limit + 1, 300):
            with pytest.raises(ValidationError) as info:
                descriptor_from_json(nested(levels))
            assert str(info.value) == (
                "map descriptor nests compose and inverse past 64 levels"
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            descriptor_from_json({"type": "affine"})
        with pytest.raises(ValidationError):
            descriptor_from_json({"kind": "identity"})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            descriptor_from_json({"type": "moebius", "a": {"re": 2.0, "im": 0.0}})
        for obj in (
            {"type": "rotation", "alpha": "abc"},
            {"type": "power", "k": "x"},
            {"type": "power", "k": 2.5},
            {"type": "rauch_flow", "m": 1.5, "eps": 0.1},
            {"type": "rauch_flow", "m": 1, "eps": "e"},
            {"type": "compose", "maps": [{"type": "power", "k": 1.5}]},
            # int() read True as 1 and False as 0.
            {"type": "power", "k": True},
            {"type": "rauch_flow", "m": True, "eps": 0.01},
            {"type": "rauch_flow", "m": False, "eps": 0.01},
        ):
            with pytest.raises(ValidationError):
                descriptor_from_json(obj)
        # A constructor's own refusal passes through unwrapped.
        with pytest.raises(ValidationError, match="^power degree k must be an integer >= 1$"):
            descriptor_from_json({"type": "power", "k": 0})

    @pytest.mark.parametrize(
        "obj, name",
        [
            ({"type": "rotation", "alpha": 10**400}, "rotation alpha"),
            ({"type": "rotation", "alpha": float("nan")}, "rotation alpha"),
            ({"type": "moebius", "a": {"re": float("nan"), "im": 0.0}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.0, "im": float("inf")}}, "moebius a"),
            ({"type": "moebius", "a": {"re": 0.1}, "beta": -float("inf")}, "moebius beta"),
            (
                {
                    "type": "flow",
                    "v": function_to_json(from_modes(1, {1: 0.5, -1: 0.5})),
                    "eps": float("inf"),
                },
                "flow eps",
            ),
            ({"type": "rauch_flow", "m": 1, "eps": float("nan")}, "rauch_flow eps"),
            (
                {
                    "type": "flow",
                    "v": {
                        "bandlimit": 1,
                        "real": True,
                        "coeffs": [{"n": 1, "re": float("nan")}, {"n": -1, "re": float("nan")}],
                    },
                    "eps": 0.1,
                },
                "coefficient 1",
            ),
            (
                {"type": "compose", "maps": [{"type": "rotation", "alpha": float("inf")}]},
                "rotation alpha",
            ),
        ],
    )
    def test_non_finite_parameters_are_refused_by_name(self, obj, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^%s must be finite$" % name):
                descriptor_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"type": "rotation", "alpha": "nan"}, "rotation alpha must be a number, not 'nan'"),
            ({"type": "rotation", "alpha": True}, "rotation alpha must be a number, not True"),
            ({"type": "moebius", "a": {"re": "0.1"}}, "moebius a must be a number, not '0.1'"),
            ({"type": "moebius", "a": {"re": 0.1, "im": False}}, "moebius a must be a number, not False"),
            ({"type": "moebius", "a": {"re": 0.1}, "beta": "1"}, "moebius beta must be a number, not '1'"),
            ({"type": "rauch_flow", "m": 1, "eps": True}, "rauch_flow eps must be a number, not True"),
            (
                {
                    "type": "flow",
                    "v": function_to_json(from_modes(1, {1: 0.5, -1: 0.5})),
                    "eps": "0.1",
                },
                "flow eps must be a number, not '0.1'",
            ),
        ],
    )
    def test_real_parameters_take_only_numbers(self, obj, message):
        with pytest.raises(ValidationError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"type": "moebius", "a": {"re": 0.3, "im": 0.0}, "bata": 1.0},
                "unknown moebius descriptor fields: bata",
            ),
            ({"type": "identity", "alpha": 0.1}, "unknown identity descriptor fields: alpha"),
            (
                {"type": "rotation", "alpha": 0.1, "beta": 0.2, "a": 0.0},
                "unknown rotation descriptor fields: a, beta",
            ),
            ({"type": "power", "k": 2, "eps": 0.1}, "unknown power descriptor fields: eps"),
            (
                {
                    "type": "flow",
                    "v": function_to_json(from_modes(1, {1: 0.5, -1: 0.5})),
                    "eps": 0.1,
                    "epsilon": 0.2,
                },
                "unknown flow descriptor fields: epsilon",
            ),
            ({"type": "rauch_flow", "m": 1, "eps": 0.1, "n": 2}, "unknown rauch_flow descriptor fields: n"),
            ({"type": "compose", "maps": [], "of": {}}, "unknown compose descriptor fields: of"),
            (
                {"type": "inverse", "of": {"type": "rotation", "alpha": 0.1, "k": 1}},
                "unknown rotation descriptor fields: k",
            ),
            ({"type": "moebius", "a": {"re": 0.3, "img": 0.1}}, "unknown moebius a fields: img"),
            (
                {
                    "type": "flow",
                    "v": {"bandlimit": 1, "coeffs": [], "real": True, "mean": 0.0},
                    "eps": 0.1,
                },
                "unknown CircleFunction fields: mean",
            ),
        ],
    )
    def test_unknown_fields_are_refused_by_name(self, obj, message):
        with pytest.raises(ValidationError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == message

    def test_moebius_a_must_be_a_number(self):
        # complex() read "0.1" as 0.1 and False as the identity's 0.
        for bad in ("0.1", "0", False, True, None, [0.1]):
            with pytest.raises(ValidationError) as info:
                moebius(bad)
            assert str(info.value) == "moebius a must be a number, not %r" % (bad,)
        for good in (0.1, 0, 0.1j, np.float64(0.1), np.complex128(0.1j)):
            assert moebius(good).a == complex(good)
