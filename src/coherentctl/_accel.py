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
  the route is backward-stable; it forms no resolvent stack.  The form
  is :func:`~.statespace.schur_form`'s, taken block by block over A's
  independent parts, unless the caller carries one already (the gain
  design's form of a stable plant, for its factorization check).  Each
  nonzero column of the (stacked) B is solved once, up to sign, and its
  duplicates, negations and the zero columns are filled in exactly: the
  factor families and P22 of a stable plant, swept together as
  ``[B2, 0 | -B2, 0 | B2]``, cost one solve of B2.  Columns are compared
  after the change of basis, and ``ztrtrs`` solves each column on its
  own: a model without repeated columns gets the bits of solving them
  all.  With repeats, ``C Z X`` over the distinct columns can differ
  from the product over all of them in the last bits.

The Schur form costs a few dense factorizations and every frequency a
LAPACK call of its own, so small models and short grids of a general A
stay on the batched path, where they are faster.  The descent sweeps of
H2 synthesis are all below ``SCHUR_SWEEP_MIN`` or ``SCHUR_MIN_STATES``:
they stay on the batched path's roundoff.  The 130-point factorization
checks of 16 states and more take the Schur route.
"""

import numpy as np
from scipy.linalg import lapack

# statespace imports this module; the Schur form is looked up when a sweep needs it
from . import statespace

#: Upper bound on the bytes of one block's complex resolvent stack.
SWEEP_BLOCK_BYTES = 16 * 2**20

#: Sweeps with ``n_states * n_omega`` at least this take the Schur path,
SCHUR_SWEEP_MIN = 2000

#: if the model has at least this many states; a triangular A takes the
#: triangular route from this many on.  Below it, the per-frequency
#: LAPACK call costs more than the batched solve saves.  Batched against
#: Schur path, 8 inputs and outputs, best of 15 (Xeon, OpenBLAS on one
#: thread):
#:
#:   states x points    batched    Schur
#:        4 x  500      2.0 ms    4.2 ms
#:       16 x   65      0.9 ms    1.0 ms
#:       16 x  130      2.1 ms    1.7 ms
#:       26 x   33      0.8 ms    1.4 ms   (largest H2 descent sweep of 16+ states)
#:       32 x   65      3.4 ms    2.1 ms
#:       32 x  130      6.4 ms    2.9 ms
#:       64 x   33      5.9 ms    7.0 ms   (misrouted to Schur)
#:
#: The size rule misroutes the last row: 64 x 33 is slower on the Schur
#: path.  No sweep of the benchmark documents or the fixtures has that
#: shape; other inputs near the crossover were not measured.
SCHUR_MIN_STATES = 16


def freq_sweep(a, systems, omegas, form):
    """Sweep ``C (iw I - A)^-1 B + D`` for each ``(B, C, D)`` in ``systems``.

    Returns one (n_omega, p, m) array per system.  The systems share A,
    and so one resolvent (or triangular) solve per frequency: their inputs
    are solved for as one right-hand side, and each output map is applied
    to its own columns only, with the shapes a sweep of that system alone
    would use.  ``form`` is None or a complex Schur form ``(T, Z)`` of A,
    which the Schur route then takes instead of factoring A; the other
    routes ignore it.
    Raises ``np.linalg.LinAlgError`` when the resolvent is exactly
    singular at a grid frequency.
    """
    n = a.shape[0]
    if n == 0:
        return [np.broadcast_to(d, (omegas.size,) + d.shape).copy() for _, _, d in systems]
    b = np.hstack([b for b, _, _ in systems])
    if n >= SCHUR_MIN_STATES and not np.any(np.tril(a, -1)):
        return _outputs(_triangular_sweep(a, b, omegas), systems)
    if n >= SCHUR_MIN_STATES and n * omegas.size >= SCHUR_SWEEP_MIN:
        return _schur_sweep(form or statespace.schur_form(a), b, systems, omegas)
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


def _schur_sweep(form, b, systems, omegas):
    t, z = form
    zb = z.conj().T @ b
    lead, parts = _distinct_columns(zb)
    x = _triangular_sweep(t, zb[:, lead], omegas)
    out, lo = [], 0
    for bk, c, d in systems:
        hi = lo + bk.shape[1]
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
    m = b.shape[1]
    parts = np.zeros((m, m))
    left = b.any(axis=0)
    for j in range(m):
        if left[j]:
            same = left & (b == b[:, j : j + 1]).all(axis=0)
            opposite = left & (b == -b[:, j : j + 1]).all(axis=0)
            parts[j, same], parts[j, opposite] = 1.0, -1.0
            left &= ~(same | opposite)
    lead = np.flatnonzero(parts.any(axis=1))
    return lead, parts[lead].astype(np.complex128)


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
