"""Kernel names the benchmark reads, with independent references.

The kernels themselves live in fourier.py.  Each reference computes
the same quantity by the direct formula, kept as an oracle:

- synth_at_reference is the outer-product formula
  exp(1j * outer(x, k)) @ c for the Horner evaluation; it costs memory
  proportional to len(x) times the number of modes.
- douglas_pair_reference sums every pair of the product grid for the
  circulant FFT pair sum, in row blocks of 256 so the temporaries stay
  256 x len(fy).  It takes any points, uniform or not, in O(M^2).
"""

import numpy as np

from .fourier import douglas_pair_sum, horner_sum as synth_at

NUMBA_AVAILABLE = False


def synth_at_reference(c, n, x):
    """Direct sum of c[n+k] e^{ikx} over |k| <= n, one exponential per term."""
    ks = np.arange(-n, n + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(x, float), ks)) @ c


def douglas_pair_reference(fx, fy, tx, ty):
    """Direct sum of |fx_i - fy_j|^2 / sin^2((tx_i - ty_j)/2) over all pairs."""
    total = 0.0
    m = fx.shape[0]
    block = 256
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d = fx[i0:i1, None] - fy[None, :]
        s = np.sin(0.5 * (tx[i0:i1, None] - ty[None, :]))
        total += float(np.sum((d.real * d.real + d.imag * d.imag) / (s * s)))
    return total
