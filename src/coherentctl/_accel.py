"""Frequency-sweep kernel: ``C (iw I - A)^-1 B + D`` over a grid.

Evaluating a transfer matrix over a grid is the single hottest operation
in the toolkit (every residual check and every descent iteration is one
or more sweeps), so it gets a dedicated kernel: one batched LAPACK solve
per block of frequencies.  Blocking bounds the ``(n_omega, n, n)``
resolvent stack to ``SWEEP_BLOCK_BYTES`` whatever the grid length; each
frequency is still solved on its own, so the result does not depend on
the block size.
"""

import numpy as np

#: Upper bound on the bytes of one block's complex resolvent stack.
SWEEP_BLOCK_BYTES = 16 * 2**20


def freq_sweep(a, b, c, d, omegas):
    """Batched-solve sweep: returns an (n_omega, p, m) response array."""
    n = a.shape[0]
    if n == 0:
        return np.broadcast_to(d, (omegas.size,) + d.shape).copy()
    out = np.empty((omegas.size, c.shape[0], b.shape[1]), dtype=np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    step = max(1, SWEEP_BLOCK_BYTES // (16 * n * n))
    for lo in range(0, omegas.size, step):
        w = omegas[lo : lo + step]
        t = 1j * w[:, None, None] * eye - a
        x = np.linalg.solve(t, np.broadcast_to(b, (w.size,) + b.shape))
        out[lo : lo + step] = c @ x + d
    return out


def backend_name():
    return "numpy"
