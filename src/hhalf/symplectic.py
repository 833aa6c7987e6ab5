"""The canonical symplectic form S and its compatibility identities.

The Fourier realization is assembled from real component arrays with
separate elementwise operations, on stacked coefficient rows; a single
pair is the one-row case.  Vectorized complex products may be
contracted with fused multiply-adds, which breaks the bitwise
commutativity the exactness contracts below rely on; plain float
ufuncs are never contracted, so antisymmetry, S(f,f) = 0, isotropy of
the polarization, and realness on real pairs all hold exactly.
"""

import numpy as np

from .errors import ValidationError
from .fourier import _aligned, inner_product, hilbert_transform


def symplectic_form(f, g):
    """Evaluate S(f, g) = -i sum_{n!=0} n c_n(f) c_{-n}(g).

    The sum is folded onto n >= 1 as -i sum n (p_n - q_n) with
    p_n = c_n(f) c_{-n}(g) and q_n = c_{-n}(f) c_n(g).
    """
    a, b, n = _aligned(f, g)
    return complex(_form_rows(a, b, n))


def _form_rows(a, b, n):
    """S of each pair of rows of 2n+1 coefficients, along the last axis.

    One pairwise sum per row, so every row is the bits of its own
    symplectic_form.
    """
    w = np.arange(1.0, n + 1.0)
    # Slot n + k holds c_k: upper halves run k = 1..n, reversed lower
    # halves k = -1..-n.
    x, y = a[..., n + 1 :], a[..., n - 1 :: -1]
    u, v = b[..., n + 1 :], b[..., n - 1 :: -1]
    xr, xi = x.real, x.imag
    yr, yi = y.real, y.imag
    ur, ui = u.real, u.imag
    vr, vi = v.real, v.imag
    pr = xr * vr - xi * vi
    pi = xr * vi + xi * vr
    qr = yr * ur - yi * ui
    qi = yr * ui + yi * ur
    sr = np.sum(w * (pr - qr), axis=-1)
    si = np.sum(w * (pi - qi), axis=-1)
    # Multiply the sums by -i.
    out = np.empty(np.shape(sr), np.complex128)
    out.real, out.imag = si, -sr
    return out


def compatibility_defect(f, g):
    """|S(f, J g) - <f, g>| for real f and g.

    Both sides equal the inner product in exact arithmetic; the defect
    is rounding only, on the order of ulps of the norms involved.
    """
    if not (f.real and g.real):
        raise ValidationError("compatibility identity is stated for real functions")
    return abs(symplectic_form(f, hilbert_transform(g)) - inner_product(f, g))

