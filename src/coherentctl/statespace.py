"""Complex state-space models and their frequency-domain algebra.

A model is the quadruple (A, B, C, D) of complex matrices with transfer
matrix ``G(s) = C (sI - A)^{-1} B + D``, continuous time throughout.  No
realness is assumed anywhere: quantum input-output models in doubled-up
(annihilation/creation) coordinates have genuinely complex coefficient
matrices, so every operation here is written for ``complex128``.

Alongside the composition algebra (series products, block-diagonal
stacking, feedback interconnection) the module carries the
structural helpers used by the quantum layers: doubled-up matrices
``[[R1, R2], [conj(R2), conj(R1)]]``, the signature (Krein) matrix
``diag(I_r, -I_r)`` and the J-form ``G(iw)* J G(iw)`` of sampled
responses, which evaluates the feasibility form and the
(J, J)-unitarity residual without realizing an adjoint system.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import _accel
from .errors import DimensionMismatch, IllPosedInterconnection, NonFiniteData, SingularResolvent

__all__ = [
    "StateSpace",
    "static_gain",
    "identity_system",
    "blockdiag_systems",
    "compose_lft",
    "minimal_realization",
    "schur_form",
    "doubled",
    "signature_matrix",
    "j_form",
    "log_grid",
    "validate_grid",
]


def _as_complex_matrix(m, rows=None, cols=None, name="matrix"):
    arr = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatch(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatch(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteData(f"{name} contains non-finite entries")
    return arr


class StateSpace:
    """Complex continuous-time state-space model.

    Parameters
    ----------
    a : (n, n) array_like
        State matrix.
    b : (n, m) array_like
        Input matrix.  For a static model pass a ``(0, m)`` array.
    c : (p, n) array_like
        Output matrix.
    d : (p, m) array_like
        Feedthrough.

    Notes
    -----
    Instances are immutable by convention; all algebra returns new
    objects.  ``@`` composes transfer matrices in written order, i.e.
    ``(G @ H)(s) = G(s) H(s)``, and unary ``-`` negates the response.
    """

    def __init__(self, a, b, c, d):
        a = _as_complex_matrix(a, name="a")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"a must be square, got {a.shape}")
        n = a.shape[0]
        b = _as_complex_matrix(b, rows=n, name="b")
        c = _as_complex_matrix(c, cols=n, name="c")
        d = _as_complex_matrix(d, rows=c.shape[0], cols=b.shape[1], name="d")
        self.a, self.b, self.c, self.d = a, b, c, d

    # -- basic queries -------------------------------------------------

    @property
    def n_states(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]

    @property
    def shape(self):
        return (self.n_outputs, self.n_inputs)

    # -- evaluation ----------------------------------------------------

    def response(self, omegas, *shared, form=None):
        """Responses stacked over a grid: an ``(n_omega, p, m)`` array.

        Every sweep is one complex Schur form ``A = Z T Z*`` and then one
        triangular solve per frequency (:func:`~._accel.freq_sweep`).  The
        form is ``form`` when the caller carries one, as :func:`schur_form`
        gives; A itself with Z = I when A is upper triangular, as for a
        model in Schur coordinates; and :func:`schur_form` of A otherwise.
        Models in ``shared`` must have this model's state matrix.  They are
        swept with it, one triangular solve per frequency serving all, and
        a list of the responses is returned, this model's first.
        """
        omegas = np.asarray(omegas, dtype=np.float64).ravel()
        if any(not np.array_equal(other.a, self.a) for other in shared):
            raise DimensionMismatch("models swept together must share their state matrix")
        if form is None:
            a = self.a
            triangular = not np.tril(a, -1).any()
            form = (a, np.eye(len(a), dtype=np.complex128)) if triangular else schur_form(a)
        try:
            out = _accel.freq_sweep(
                form, [(g.b, g.c, g.d) for g in (self, *shared)], omegas
            )
        except np.linalg.LinAlgError as exc:
            raise SingularResolvent(
                "resolvent singular at a grid frequency"
            ) from exc
        if any(r.size and not np.all(np.isfinite(r)) for r in out):
            raise SingularResolvent("non-finite response on grid (near-singular resolvent)")
        return out if shared else out[0]

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other):
        """Series composition in written order: ``(G @ H)(s) = G(s) H(s)``."""
        if not isinstance(other, StateSpace):
            return NotImplemented
        if self.n_inputs != other.n_outputs:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        ng, nh = self.n_states, other.n_states
        a = np.block(
            [
                [self.a, self.b @ other.c],
                [np.zeros((nh, ng), dtype=np.complex128), other.a],
            ]
        )
        b = np.vstack([self.b @ other.d, other.b])
        c = np.hstack([self.c, self.d @ other.c])
        d = self.d @ other.d
        return StateSpace(a, b, c, d)

    def __neg__(self):
        return StateSpace(self.a, self.b, -self.c, -self.d)

    def select(self, rows=None, cols=None):
        """Subsystem keeping the given output rows / input columns."""
        rows = slice(None) if rows is None else rows
        cols = slice(None) if cols is None else cols
        return StateSpace(self.a, self.b[:, cols], self.c[rows], self.d[rows][:, cols])


def static_gain(d):
    """Model with no states: ``G(s) = D`` identically."""
    d = _as_complex_matrix(d, name="d")
    z = np.zeros((0, 0), dtype=np.complex128)
    return StateSpace(
        z,
        np.zeros((0, d.shape[1]), dtype=np.complex128),
        np.zeros((d.shape[0], 0), dtype=np.complex128),
        d,
    )


def identity_system(k):
    return static_gain(np.eye(k))


def _block_diag(blocks):
    """Complex block-diagonal matrix of 2-D blocks, as scipy's ``block_diag``.

    A block with no rows or no columns still takes its columns or rows.
    """
    rows, cols = (sum(shape) for shape in zip(*(m.shape for m in blocks)))
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in blocks:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def blockdiag_systems(systems):
    """Diagonal concatenation ``diag(G1, G2, ...)`` of responses."""
    systems = list(systems)
    return StateSpace(*(_block_diag([getattr(g, m) for g in systems]) for m in "abcd"))


def compose_lft(plant, controller, n_meas, n_ctrl):
    """Close the lower loop of a partitioned plant with a controller.

    The last ``n_meas`` plant outputs feed the controller, whose output
    drives the last ``n_ctrl`` plant inputs.  Returns the map from the
    remaining (exogenous) inputs to the remaining (performance) outputs:

        ``G = P11 + P12 K (I - P22 K)^{-1} P21``

    Raises
    ------
    IllPosedInterconnection
        If ``I - D22 DK`` is singular (algebraic loop).
    """
    p, m = plant.shape
    if not (0 <= n_meas <= p and 0 <= n_ctrl <= m):
        raise DimensionMismatch("partition exceeds plant dimensions")
    if controller.shape != (n_ctrl, n_meas):
        raise DimensionMismatch(
            f"controller must be ({n_ctrl}, {n_meas}), got {controller.shape}"
        )
    nz, nw = p - n_meas, m - n_ctrl
    a, bmat, cmat, dmat = plant.a, plant.b, plant.c, plant.d
    b1, b2 = bmat[:, :nw], bmat[:, nw:]
    c1, c2 = cmat[:nz], cmat[nz:]
    d11, d12 = dmat[:nz, :nw], dmat[:nz, nw:]
    d21, d22 = dmat[nz:, :nw], dmat[nz:, nw:]
    ak, bk, ck, dk = controller.a, controller.b, controller.c, controller.d

    loop = np.eye(n_meas) - d22 @ dk
    sv = np.linalg.svd(loop, compute_uv=False) if loop.size else np.array([1.0])
    if loop.size and sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise IllPosedInterconnection(
            "algebraic loop: I - D22*DK is singular"
        )
    x = np.linalg.inv(loop) if loop.size else loop
    y = np.eye(n_ctrl) - dk @ d22
    yinv = np.linalg.inv(y) if y.size else y

    acl = np.block(
        [
            [a + b2 @ dk @ x @ c2, b2 @ yinv @ ck],
            [bk @ x @ c2, ak + bk @ x @ d22 @ ck],
        ]
    )
    bcl = np.vstack([b1 + b2 @ dk @ x @ d21, bk @ x @ d21])
    ccl = np.hstack([c1 + d12 @ dk @ x @ c2, d12 @ yinv @ ck])
    dcl = d11 + d12 @ dk @ x @ d21
    return StateSpace(acl, bcl, ccl, dcl)


# -- independent parts ------------------------------------------------


def _closure(drives, seed):
    """The states ``seed`` leads to along ``drives[i, j]`` (from j to i)."""
    reached, frontier = seed.copy(), seed
    while frontier.any():
        frontier = drives[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return reached


def _components(linked):
    """Connected components of the symmetric boolean pattern ``linked``.

    Ascending index arrays, in the order of their first index.
    """
    parts, left = [], np.ones(len(linked), dtype=bool)
    while left.any():
        seed = np.zeros_like(left)
        seed[left.argmax()] = True
        part = _closure(linked, seed)
        parts.append(np.flatnonzero(part))
        left &= ~part
    return parts


def _parts(sys):
    """The states of each independent part of ``sys``, by the exact nonzero pattern.

    Two states are linked when A couples them in either direction or
    when they share an input (a column of B) or an output (a row of C);
    D couples no state.  So A is block diagonal over the parts, each
    input drives one part at most and each output sees one at most: the
    model is their direct sum, and no rank is decided.
    """
    b, c = (sys.b != 0).astype(float), (sys.c != 0).astype(float)
    linked = (sys.a != 0) | (b @ b.T != 0) | (c.T @ c != 0)
    return _components(linked | linked.T)


def _mirrors(parts):
    """The index of the earlier part each part is the exact conjugate of, or None.

    A part is a tuple of arrays, looked up in a dict keyed on their shapes
    and bytes (``+ 0.0`` clears negative zeros): k parts make k lookups.
    """
    def key(arrays):
        return tuple((m.shape, (m + 0.0).tobytes()) for m in arrays)

    seen, found = {}, []
    for i, arrays in enumerate(parts):
        found.append(seen.get(key([m.conj() for m in arrays])) if seen else None)
        if i + 1 < len(parts):
            seen.setdefault(key(arrays), i)
    return found


def _schur_forms(blocks):
    """Complex Schur forms ``(T, Z)`` of square blocks, and their :func:`_mirrors`.

    A block that mirrors an earlier one takes that block's form conjugated,
    a Schur form of conj(A) since conj(Z T Z*) = conj(Z) conj(T) conj(Z)*.
    """
    mirrors = _mirrors([(block,) for block in blocks])
    forms = []
    for block, mirror in zip(blocks, mirrors):
        forms.append(sla.schur(block, output="complex") if mirror is None
                     else tuple(m.conj() for m in forms[mirror]))
    return forms, mirrors


def schur_form(a):
    """Complex Schur form ``A = Z T Z*`` (Z unitary, T upper triangular), block by block.

    A is split into its connected blocks by its exact nonzero pattern,
    and each block takes its own complex Schur form (:func:`_schur_forms`):
    T holds them on its diagonal in the order of the blocks' first states,
    and Z has each block's Schur vectors on that block's states.  An A of
    one block gets the bits of ``scipy.linalg.schur(a, output="complex")``,
    in its (Fortran) order.
    """
    n = len(a)
    t = np.zeros((n, n), dtype=np.complex128, order="F")
    z = np.zeros((n, n), dtype=np.complex128, order="F")
    linked = a != 0
    parts = _components(linked | linked.T)
    lo = 0
    for part, (t_part, z_part) in zip(parts, _schur_forms([a[np.ix_(p, p)] for p in parts])[0]):
        hi = lo + part.size
        t[lo:hi, lo:hi], z[part, lo:hi] = t_part, z_part
        lo = hi
    return t, z


# -- minimal realization ----------------------------------------------


def _reachable_part(a, b, bound):
    """Orthogonal staircase on (A, B): ``(Q* A Q, Q)`` for the reachable basis Q.

    Each step takes the SVD of the newest block only (B, then the block
    of A below the last kept directions) and rotates A's trailing rows
    and columns by its left singular vectors.  It keeps the directions
    whose singular values exceed ``bound``; a step that keeps none ends it.
    """
    n = a.shape[0]
    a, q = a.copy(), np.eye(n, dtype=np.complex128)
    k, block = 0, b
    while k < n:
        u, s, _ = np.linalg.svd(block)
        rank = int(np.sum(s > bound))
        if rank == 0:
            break
        a[k:] = u.conj().T @ a[k:]
        a[:, k:] = a[:, k:] @ u
        q[:, k:] = q[:, k:] @ u
        k, block = k + rank, a[k + rank:, k:k + rank]
    return a[:k, :k], q[:, :k]


def minimal_realization(sys, tol=1e-9):
    """Remove unreachable and unobservable states in one pass.

    An orthogonal staircase (Van Dooren 1981) on (A, B) keeps the
    reachable part, and one on the dual pair (A*, C*) its observable
    part.  Singular values at or below ``tol * max(||A||, ||B||)``, and
    ``tol * max(||A||, ||C||)`` in the dual, count as zero: spectral
    norms of ``sys``, which no unitary change of basis alters.  So the
    order does not depend on the orthonormal basis ``sys`` is given in,
    and reducing the result again keeps it.  The transfer matrix is kept
    up to the rank decisions.

    Each independent part of ``sys`` (:func:`_parts`) gets its own
    staircases, with the whole model's bounds: its blocks of A, B and C
    are those of a direct sum, so their largest spectral norms are the
    model's.  A part whose A, nonzero columns of B and nonzero rows of C
    mirror an earlier part's (:func:`_mirrors`) takes the conjugates of
    its reduced A and bases: the conjugate of a reachable basis spans the
    conjugate's reachable space.  The reduced parts are returned
    block-diagonally, in the order of their first states; a model of one
    part is reduced whole.
    """
    parts = [(sys.a[np.ix_(p, p)], sys.b[p], sys.c[:, p]) for p in _parts(sys)]
    mirrors = _mirrors([(a, b[:, b.any(axis=0)], c[c.any(axis=1)]) for a, b, c in parts])
    # a mirror's norms are those of the part it mirrors
    norm_a, norm_b, norm_c = np.reshape(
        [[np.linalg.svd(x, compute_uv=False).max(initial=0.0) for x in part]
         for part, mirror in zip(parts, mirrors) if mirror is None],
        (-1, 3),
    ).max(axis=0, initial=0.0)
    p, m = sys.shape
    blocks = [(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)))]
    bases = []
    for (a, b, c), mirror in zip(parts, mirrors):
        if mirror is None:
            a, q = _reachable_part(a, b, tol * max(norm_a, norm_b))
            a, w = _reachable_part(a.conj().T, (c @ q).conj().T, tol * max(norm_a, norm_c))
            a = a.conj().T
        else:
            a, q, w = (x.conj() for x in bases[mirror])
        bases.append((a, q, w))
        blocks.append((a, w.conj().T @ (q.conj().T @ b), (c @ q) @ w))
    a, b, c = zip(*blocks)
    return StateSpace(_block_diag(a), np.vstack(b), np.hstack(c), sys.d)


# -- doubled-up structure ----------------------------------------------


def doubled(r1, r2):
    """Doubled-up matrix ``[[R1, R2], [conj(R2), conj(R1)]]``."""
    r1 = np.atleast_2d(np.asarray(r1, dtype=np.complex128))
    r2 = np.atleast_2d(np.asarray(r2, dtype=np.complex128))
    if r1.shape != r2.shape:
        raise DimensionMismatch("doubled-up blocks must share a shape")
    return np.block([[r1, r2], [r2.conj(), r1.conj()]])


def signature_matrix(r):
    """Krein-space signature ``diag(I_r, -I_r)`` of order ``2r``."""
    j = np.eye(2 * r, dtype=np.complex128)
    j[r:, r:] *= -1.0
    return j


def j_form(samples, sign):
    """Pointwise J-form ``G(iw)* J G(iw)`` of an ``(n_omega, p, m)`` stack.

    ``J = diag(sign)`` is given by its real diagonal of length p, so the
    product is one contraction over the p rows of the signed stack.  On
    the imaginary axis the adjoint ``G~(iw)`` is ``G(iw)*``, so this
    samples the para-Hermitian product ``G~ J G`` from the stable
    factor's responses alone; the result is ``(n_omega, m, m)``.
    """
    return np.einsum("kij,kim->kjm", samples.conj(), sign[:, None] * samples)


# -- frequency grids ---------------------------------------------------


def log_grid(lo, hi, points):
    """Logarithmically spaced positive frequency grid."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi for a log grid")
    return np.logspace(np.log10(lo), np.log10(hi), int(points))


def validate_grid(omegas):
    """Validate a frequency grid: 1-D, finite, strictly increasing."""
    omegas = np.asarray(omegas, dtype=np.float64).ravel()
    if omegas.size == 0:
        raise ValueError("frequency grid is empty")
    if not np.all(np.isfinite(omegas)):
        raise ValueError("frequency grid contains non-finite points")
    if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    return omegas
