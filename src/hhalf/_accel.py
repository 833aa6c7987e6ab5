"""Hot numerical kernels: pointwise synthesis and the Douglas pair sum."""

import numpy as np


def synth_at(c, n, x):
    """Vectorized evaluation of the trig polynomial, numpy only."""
    ks = np.arange(-n, n + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(x, float), ks)) @ c


def douglas_pair_sum(fx, fy, tx, ty):
    """Blocked numpy version of the product-grid energy sum."""
    total = 0.0
    m = fx.shape[0]
    block = 256
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d = fx[i0:i1, None] - fy[None, :]
        s = np.sin(0.5 * (tx[i0:i1, None] - ty[None, :]))
        total += float(np.sum((d.real * d.real + d.imag * d.imag) / (s * s)))
    return total


# perfbench reads these names; each kernel is its own reference.
NUMBA_AVAILABLE = False
synth_at_reference = synth_at
douglas_pair_reference = douglas_pair_sum
