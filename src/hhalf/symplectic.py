"""The canonical symplectic form S and its compatibility identities.

The Fourier realization is assembled from real component arrays with
separate elementwise operations.  Vectorized complex products may be
contracted with fused multiply-adds, which breaks the bitwise
commutativity the exactness contracts below rely on; plain float
ufuncs are never contracted, so antisymmetry, S(f,f) = 0, isotropy of
the polarization, and realness on real pairs all hold exactly.
"""

import numpy as np

from .errors import ValidationError
from .fourier import (
    SampleGrid,
    _aligned,
    derivative,
    inner_product,
    hilbert_transform,
    synthesize,
)


def symplectic_form(f, g, grid=None):
    """Evaluate S(f, g) = -i sum_{n!=0} n c_n(f) c_{-n}(g).

    The sum is folded onto n >= 1 as -i sum n (p_n - q_n) with
    p_n = c_n(f) c_{-n}(g) and q_n = c_{-n}(f) c_n(g).  Given a
    SampleGrid, the form is instead the quadrature mean of f times the
    spectral derivative of g on that grid.
    """
    if grid is not None:
        if not isinstance(grid, SampleGrid):
            raise ValidationError("quadrature needs a SampleGrid")
        fv = synthesize(f, grid)
        gv = synthesize(derivative(g), grid)
        return complex(np.mean(fv * gv))
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
    # Multiply the sum by -i.
    return complex(si, -sr)


def compatibility_defect(f, g):
    """|S(f, J g) - <f, g>| for real f and g.

    Both sides equal the inner product in exact arithmetic; the defect
    is rounding only, on the order of ulps of the norms involved.
    """
    if not (f.real and g.real):
        raise ValidationError("compatibility identity is stated for real functions")
    return abs(symplectic_form(f, hilbert_transform(g)) - inner_product(f, g))


def polarization_positivity(f_plus):
    """i S(f_plus, conj(f_plus)), equal to the squared norm of f_plus."""
    n = f_plus.bandlimit
    if np.any(f_plus.coeffs[:n] != 0):
        raise ValidationError("input must be supported on positive modes")
    value = 1j * symplectic_form(f_plus, f_plus.conjugate())
    return float(value.real)
