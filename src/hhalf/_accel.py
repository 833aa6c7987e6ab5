"""Kernel names the benchmark reads, with independent references.

The kernels themselves live in fourier.py.  synth_at_reference is the
outer-product formula exp(1j * outer(x, k)) @ c, kept as an oracle for
the Horner evaluation; it costs memory proportional to len(x) times
the number of modes.
"""

import numpy as np

from .fourier import douglas_pair_sum, horner_sum as synth_at

NUMBA_AVAILABLE = False


def synth_at_reference(c, n, x):
    """Direct sum of c[n+k] e^{ikx} over |k| <= n, one exponential per term."""
    ks = np.arange(-n, n + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(x, float), ks)) @ c


# The Douglas pair sum has no second implementation; it is its own reference.
douglas_pair_reference = douglas_pair_sum
