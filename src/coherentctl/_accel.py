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

Models that share their state matrix are swept together, their inputs
stacked as one right-hand side.  Each nonzero column of the stacked
``Z^H B`` is solved once, up to sign, and its duplicates, negations and
the zero columns are filled in exactly: the factor families and P22 of
a stable plant, swept together as ``[B2, 0 | -B2, 0 | B2]``, cost one
solve of B2.  ``ztrsm`` solves each column on its own: a model without
repeated columns gets the bits of solving them all.  With repeats,
``C Z X`` over the distinct columns can differ from the product over all
of them in the last bits.
"""

import numpy as np
from scipy.linalg import blas


def freq_sweep(form, systems, omegas):
    """Sweep ``C (iw I - A)^-1 B + D`` for each ``(B, C, D)`` in ``systems``.

    ``form`` is a complex Schur form ``(T, Z)`` of the state matrix A
    that the systems share.  Returns one (n_omega, p, m) array per
    system: their inputs are solved for as one right-hand side, and each
    output map is applied to its own columns only.
    Raises ``np.linalg.LinAlgError`` when the resolvent is exactly
    singular at a grid frequency.
    """
    t, z = form
    if t.shape[0] == 0:
        return [np.broadcast_to(d, (omegas.size,) + d.shape).copy() for _, _, d in systems]
    zb = z.conj().T @ np.hstack([b for b, _, _ in systems])
    lead, parts = _distinct_columns(zb)
    x = _triangular_sweep(t, zb[:, lead], omegas)
    out, lo = [], 0
    for b, c, d in systems:
        hi = lo + b.shape[1]
        # each column of ``parts`` holds at most one entry, +-1: the fill-in is exact
        out.append((c @ z) @ x @ parts[:, lo:hi] + d)
        lo = hi
    return out


def _distinct_columns(b):
    """The distinct nonzero columns of ``b`` up to sign, and every column in terms of them.

    Returns the indices ``lead`` of the first column of each class and a
    ``(lead.size, m)`` matrix ``parts`` with ``b = b[:, lead] @ parts``:
    column j of ``parts`` is +-1 in the row of its class, and zero for a
    zero column.  Columns are compared exactly.
    """
    n, m = b.shape
    # + 0.0 clears negative zeros, so column u equals column v exactly when
    # their bytes in ``same`` agree, and equals -v when u's in ``opposite``
    # agree with v's in ``same``
    step = 16 * n
    same, opposite = (b + 0.0).T.tobytes(), (0.0 - b).T.tobytes()
    classes, lead, rows, cols, signs = {}, [], [], [], []
    for j in range(m):
        key = same[j * step : (j + 1) * step]
        if key == bytes(step):
            continue
        i, sign = classes.get(key), 1.0
        if i is None:
            i, sign = classes.get(opposite[j * step : (j + 1) * step]), -1.0
        if i is None:
            i = classes[key] = len(lead)
            sign = 1.0
            lead.append(j)
        rows.append(i)
        cols.append(j)
        signs.append(sign)
    parts = np.zeros((len(lead), m), dtype=np.complex128)
    parts[rows, cols] = signs
    return np.array(lead, dtype=np.intp), parts


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
