"""Frequency-sweep kernel: ``C (iw I - A)^-1 B + D`` over a grid.

Evaluating a transfer matrix over a grid is the single hottest operation
in the toolkit (every sampled residual and every descent iteration is
one or more sweeps), so it gets a dedicated kernel with three routes,
chosen by the shape of A and the size of the sweep.  Models that share
their state matrix A are swept together: one resolvent solve (or one
triangular solve) per frequency serves all of their inputs.

- **Batched LU** (small sweeps): one batched LAPACK solve of the full
  resolvent per block of frequencies, O(n^3) per frequency.  Blocking
  bounds the ``(n_omega, n, n)`` resolvent stack to ``SWEEP_BLOCK_BYTES``
  whatever the grid length; each frequency is still solved on its own,
  so the result does not depend on the block size.
- **Triangular** (A upper triangular, ``n >= SCHUR_MIN_STATES``, any
  grid length): per frequency a single triangular solve
  ``(iw I - A) X = B``, O(n^2 m).  A model already in Schur coordinates,
  such as the weighted loop that H-infinity evaluation samples many
  times over, takes this route on every sweep.
- **Schur-triangular** (``n >= SCHUR_MIN_STATES`` and
  ``n * n_omega >= SCHUR_SWEEP_MIN``): one complex Schur form
  ``A = Z T Z^H``, then the triangular route on ``(T, Z^H B)`` and one
  batched ``C Z X + D`` (Laub 1981, IEEE TAC 26(2)).  Z is unitary, so
  the route is backward-stable; it forms no resolvent stack.

The Schur form costs a few dense factorizations and every frequency a
LAPACK call of its own, so small models and short grids of a general A
stay on the batched path, where they are faster.  The descent sweeps of
H2 synthesis are all below ``SCHUR_MIN_STATES`` states: they stay on the
batched path's roundoff.
"""

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

#: Upper bound on the bytes of one block's complex resolvent stack.
SWEEP_BLOCK_BYTES = 16 * 2**20

#: Sweeps with ``n_states * n_omega`` at least this take the Schur path,
SCHUR_SWEEP_MIN = 8000

#: if the model has at least this many states; a triangular A takes the
#: triangular route from this many on.  Below it, the
#: per-frequency LAPACK call costs more than the batched solve saves:
#: 4 states x 2000 points take 7.1 ms on the Schur path against 2.1 ms
#: batched, 8 x 1000 take 3.4 against 2.7 ms, and 16 x 500 take 2.5
#: against 4.5 ms (Xeon, OpenBLAS on one thread).
SCHUR_MIN_STATES = 16


def freq_sweep(a, systems, omegas):
    """Sweep ``C (iw I - A)^-1 B + D`` for each ``(B, C, D)`` in ``systems``.

    Returns one (n_omega, p, m) array per system.  The systems share A,
    and so one resolvent (or triangular) solve per frequency: their inputs
    are solved for as one right-hand side, and each output map is applied
    to its own columns only, with the shapes a sweep of that system alone
    would use.  Raises ``np.linalg.LinAlgError`` when the resolvent is
    exactly singular at a grid frequency.
    """
    n = a.shape[0]
    if n == 0:
        return [np.broadcast_to(d, (omegas.size,) + d.shape).copy() for _, _, d in systems]
    b = np.hstack([b for b, _, _ in systems])
    if n >= SCHUR_MIN_STATES and not np.any(np.tril(a, -1)):
        return _outputs(_triangular_sweep(a, b, omegas), systems)
    if n >= SCHUR_MIN_STATES and n * omegas.size >= SCHUR_SWEEP_MIN:
        return _schur_sweep(a, b, systems, omegas)
    out = [np.empty((omegas.size, c.shape[0], b.shape[1]), dtype=np.complex128)
           for b, c, _ in systems]
    eye = np.eye(n, dtype=np.complex128)
    step = max(1, SWEEP_BLOCK_BYTES // (16 * n * n))
    for lo in range(0, omegas.size, step):
        w = omegas[lo : lo + step]
        # the resolvent stack is a temporary: freed before the outputs are formed
        x = np.linalg.solve(1j * w[:, None, None] * eye - a,
                            np.broadcast_to(b, (w.size,) + b.shape))
        for block, response in zip(out, _outputs(x, systems)):
            block[lo : lo + step] = response
    return out


def _schur_sweep(a, b, systems, omegas):
    t, z = sla.schur(a, output="complex")
    return _outputs(_triangular_sweep(t, z.conj().T @ b, omegas),
                    [(b, c @ z, d) for b, c, d in systems])


def _triangular_sweep(t, b, omegas):
    """``(iw I - T)^-1 B`` at each frequency for upper-triangular T: one ``ztrtrs`` each."""
    shifted = np.asfortranarray(-t)
    diag = np.diag(t)
    on_diag = np.diag_indices(t.shape[0])
    x = np.empty((omegas.size,) + b.shape, dtype=np.complex128)
    for k, w in enumerate(omegas):
        shifted[on_diag] = 1j * w - diag
        x[k], info = lapack.ztrtrs(shifted, b)
        if info:
            raise np.linalg.LinAlgError(f"resolvent singular at omega={w!r}")
    return x


def _outputs(x, systems):
    """``C x + D`` of each system on its own columns of the solved stack ``x``."""
    out, lo = [], 0
    for b, c, d in systems:
        hi = lo + b.shape[1]
        # a contiguous block takes the BLAS path a sweep of that system alone does
        out.append(c @ np.ascontiguousarray(x[:, :, lo:hi]) + d)
        lo = hi
    return out


def backend_name():
    return "numpy"
