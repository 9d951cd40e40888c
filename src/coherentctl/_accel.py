"""Frequency-sweep kernel: ``C (iw I - A)^-1 B + D`` over a grid.

Evaluating a transfer matrix over a grid is the single hottest operation
in the toolkit (every sampled residual and every descent iteration is
one or more sweeps), so it gets a dedicated kernel with one route (Laub
1981, IEEE TAC 26(2)).  Given a complex Schur form ``A = Z T Z^H`` (Z
unitary, T upper triangular), each frequency is a single triangular
solve ``(iw I - T) X = Z^H B``, O(n^2 m), and the outputs are one
batched ``C Z X + D``.  Z is unitary, so the route is backward-stable;
it forms no resolvent stack.  The caller chooses the form
(:meth:`~.statespace.StateSpace.response`).
"""

import numpy as np
from scipy.linalg import blas


def freq_sweep(form, b, c, d, omegas):
    """Sweep ``C (iw I - A)^-1 B + D``: an ``(n_omega, p, m)`` array.

    ``form`` is a complex Schur form ``(T, Z)`` of the state matrix A.
    Raises ``np.linalg.LinAlgError`` when the resolvent is exactly
    singular at a grid frequency.
    """
    t, z = form
    if t.shape[0] == 0:
        return np.broadcast_to(d, (omegas.size,) + d.shape).copy()
    return (c @ z) @ _triangular_sweep(t, z.conj().T @ b, omegas) + d


def _triangular_sweep(t, b, omegas):
    """``(iw I - T)^-1 B`` at each frequency for upper-triangular T: one ``ztrsm`` each.

    Raises ``np.linalg.LinAlgError`` when ``iw I - T`` has an exactly zero
    diagonal entry, the test ``ztrtrs`` makes.  ``ztrtrs`` itself is not
    called: OpenBLAS's version engages its thread pool even for a 2 x 2
    system, and with unpinned threads on 2 CPUs an H2 descent's small
    solves took about 50 us each that way, against 2 us with ``ztrsm``.
    """
    shifted = np.asfortranarray(-t)
    # a strided view of the diagonal; Fortran-ordered operands spare ztrsm a copy
    on_diag = shifted.reshape(-1, order="F")[:: t.shape[0] + 1]
    diags, b = 1j * omegas[:, None] - np.diag(t), np.asfortranarray(b)
    singular = ~diags.all(axis=1)
    if singular.any():
        raise np.linalg.LinAlgError(f"resolvent singular at omega={omegas[singular.argmax()]!r}")
    x = np.empty((omegas.size,) + b.shape, dtype=np.complex128)
    for k, diag in enumerate(diags):
        on_diag[:] = diag
        x[k] = blas.ztrsm(1.0, shifted, b)
    return x


def backend_name():
    return "numpy"
