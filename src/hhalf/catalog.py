"""Catalog of reference maps and randomized trial functions.

A fixed list of twelve maps exercises every smooth descriptor family
at parameters gentle enough for the default grids; property suites
and the command line front end iterate over it so runs with the same
seed are reproducible.
"""

import numpy as np

from .fourier import CircleFunction, from_modes
from .maps import (
    compose_descriptors,
    flow,
    identity,
    make_map,
    moebius,
    rauch_flow,
    rotation,
)


def sin_field(k):
    return from_modes(k, {k: -0.5j, -k: 0.5j})


def cos_field(k):
    return from_modes(k, {k: 0.5, -k: 0.5})


def catalog_descriptors():
    """The twelve reference maps, as (name, descriptor) pairs."""
    return [
        ("identity", identity()),
        ("rotation_0.7", rotation(0.7)),
        ("moebius_0.1_0", moebius(0.1, 0.0)),
        ("moebius_0.3_1", moebius(0.3, 1.0)),
        ("moebius_0.5_0.5", moebius(0.5, 0.5)),
        ("flow_sin1_0.1", flow(sin_field(1), 0.1)),
        ("flow_sin2_0.05", flow(sin_field(2), 0.05)),
        ("flow_cos3_0.04", flow(cos_field(3), 0.04)),
        ("rauch_0_0.01", rauch_flow(0, 0.01)),
        ("rauch_1_0.01", rauch_flow(1, 0.01)),
        ("rauch_2_0.01", rauch_flow(2, 0.01)),
        (
            "compose_flow_moebius",
            compose_descriptors(
                [flow(sin_field(2), 0.05), moebius(0.2, 0.0)]
            ),
        ),
    ]


def catalog_maps(grid):
    """The catalog realized on a grid, as (name, CircleMap) pairs."""
    return [
        (name, make_map(descriptor, grid))
        for name, descriptor in catalog_descriptors()
    ]


def equivariance_pairs():
    """Six (outer, inner) descriptor pairs for composition checks."""
    return [
        ("flow_sin2+moebius_0.2", flow(sin_field(2), 0.05), moebius(0.2)),
        ("rotation+rotation", rotation(0.3), rotation(1.1)),
        ("moebius_0.3+flow_sin1", moebius(0.3, 1.0), flow(sin_field(1), 0.1)),
        ("flow_cos3+rotation", flow(cos_field(3), 0.04), rotation(0.7)),
        ("rauch_1+moebius_0.1", rauch_flow(1, 0.01), moebius(0.1)),
        (
            "flow_sin1+flow_sin2",
            flow(sin_field(1), 0.1),
            flow(sin_field(2), 0.05),
        ),
    ]


def trial_functions(count, bandlimit, seed):
    """Reproducible random real functions, mode k scaled by k^-1.5."""
    rows = _trial_rows(count, bandlimit, seed)
    return [CircleFunction(bandlimit, c) for c in rows]


def _trial_rows(count, bandlimit, seed):
    """The Hermitian coefficient rows of trial_functions, one per function.

    All normals come from one draw, the stream of one draw per function.
    """
    rng = np.random.default_rng(seed)
    # Python's k**1.5 and a division per part give the bits of Python's
    # complex arithmetic; numpy's power and complex division can differ.
    scales = np.array([[k**1.5] for k in range(1, bandlimit + 1)])
    draws = rng.standard_normal((count, bandlimit, 2)) / scales
    upper = draws.view(np.complex128)[..., 0]
    mean = np.zeros((count, 1))
    return np.concatenate([np.conj(upper[:, ::-1]), mean, upper], axis=1)
