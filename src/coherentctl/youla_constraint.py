"""Feasibility structure of the stable controller parameter.

A doubled-up controller is physically meaningful only when its transfer
matrix is (J, J)-unitary on the imaginary axis.  Pulled back through the
controller parameterization K = (U + M Q)(V + N Q)^{-1}, that condition
becomes a quadratic equation in the stable parameter Q,

    Phi + Q~ Lambda + Lambda~ Q + Q~ Pi Q = 0,

whose coefficients depend only on the coprime factor family.  The
condition is only ever needed on the imaginary axis, where the adjoint
of a factor is its pointwise conjugate transpose, so the coefficients
are sampled as one J-form of the factor family's responses and never
realized as systems.  This module samples those coefficients, evaluates
the residual, classifies parameters (stabilizing vs. physically
realizable), projects descent directions onto the tangent subspace of
the feasible set, and restores feasibility with a Gauss-Newton
refinement.

Parameters live in the fixed rational basis {1, (s+b)^-1, ..., (s+b)^-K}
with matrix coefficients, so every subspace computation is a finite
real-linear least-squares problem over stacked coefficient unknowns.
The tangent map of the form at Q is X -> X* W + W* X with
W = Lambda + Pi Q.  The unknown ``b_k E_pq`` (times 1 or i) puts
``conj(b_k) W[p, :]`` into row q of X* W and nothing anywhere else, so
the sampled Jacobian is filled from the basis matrix and the samples of
W through a fixed index pattern.  Projection and restoration take the
(phi, lam, pi) samples of the caller's grid and a :class:`SampledBasis`:
the basis matrix on that grid, with the objective matrix and the fill
pattern that depend on nothing else.  A descent builds it once; neither
sweeps the factor family nor rebuilds the basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, FeedthroughSingular, RankDeficientProjection
from .norms import peak_frobenius
from .physreal import PrVerdict, check_physical_realizability
from .stabilization import controller_from_parameter, default_verification_grid
from .statespace import (
    StateSpace,
    j_form,
    minimal_realization,
    signature_matrix,
    static_gain,
    validate_grid,
)

__all__ = [
    "ConstraintData",
    "YoulaParameter",
    "SampledBasis",
    "MembershipVerdict",
    "build_constraint_data",
    "quadratic_form",
    "constraint_samples",
    "constraint_residual",
    "membership_qhat",
    "tangent_subspace",
    "project_direction",
    "restore_feasibility",
]

DEFAULT_BASIS_POLE = 1.0
DEFAULT_BASIS_ORDER = 8

#: Bound on the Gauss-Newton steps of :func:`restore_feasibility`.
RESTORE_MAX_STEPS = 12

#: Default bound on the quadratic residual :func:`membership_qhat` accepts.
MEMBERSHIP_TOL = 1e-6


# -- parameter basis -------------------------------------------------------


@dataclass
class YoulaParameter:
    """Stable transfer matrix in the basis {1, (s+b)^-1, ..., (s+b)^-K}.

    ``coeffs`` has shape (K+1, rows, cols); entry 0 is the feedthrough
    coefficient.  The basis pole ``b`` must be positive so that every
    basis function (and hence the parameter itself) is stable and
    proper by construction.
    """

    basis_pole: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.basis_pole = float(self.basis_pole)
        if not self.basis_pole > 0.0:
            raise ValueError(f"basis pole must be positive, got {self.basis_pole}")
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise ValueError(
                f"coefficients must be a (order+1, rows, cols) stack, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.coeffs = arr

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    @classmethod
    def zero(cls, shape, basis_pole=DEFAULT_BASIS_POLE, order=DEFAULT_BASIS_ORDER):
        if np.isscalar(shape):
            shape = (int(shape), int(shape))
        return cls(basis_pole, np.zeros((order + 1, *shape), dtype=np.complex128))

    def basis(self, omegas):
        """Basis values (n_omega, order+1): column k is (i w + b)^-k."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        decay = 1.0 / (1j * omegas + self.basis_pole)
        return decay[:, None] ** np.arange(self.order + 1)[None, :]

    def evaluate(self, omegas):
        """Pointwise values on the imaginary axis, shape (n_omega, rows, cols)."""
        return self.sample(self.basis(omegas))

    def sample(self, basis_mat):
        """Values at the points of a :meth:`basis` matrix, shape (n_omega, rows, cols)."""
        return np.einsum("wk,kab->wab", basis_mat, self.coeffs)

    def to_statespace(self):
        """Exact realization: one chain of ``order`` integrator blocks.

        The state blocks hold u/(s+b), u/(s+b)^2, ... so A is block
        lower-bidiagonal with -b on the diagonal and identity couplings
        below it.
        """
        k, (rows, cols) = self.order, self.shape
        if k == 0:
            return static_gain(self.coeffs[0])
        eye = np.eye(cols)
        blocks = np.arange(k)
        a = np.zeros((k, cols, k, cols), dtype=np.complex128)
        a[blocks, :, blocks] = -self.basis_pole * eye  # -b * I: -0 off the diagonal
        a[blocks[1:], :, blocks[:-1]] = eye
        b = np.zeros((k * cols, cols), dtype=np.complex128)
        b[:cols] = eye
        c = self.coeffs[1:].transpose(1, 0, 2).reshape(rows, k * cols)
        return StateSpace(a.reshape(k * cols, k * cols), b, c, self.coeffs[0])

    @classmethod
    def fit(
        cls,
        values,
        omegas,
        basis_pole=DEFAULT_BASIS_POLE,
        order=DEFAULT_BASIS_ORDER,
    ):
        """Least-squares fit of samples on a frequency grid.

        ``values`` has shape (n_omega, rows, cols).  The fit is linear in
        the coefficients and solved per matrix entry.
        """
        omegas = validate_grid(omegas)
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[0] != omegas.size:
            raise DimensionMismatch(
                f"sample block {values.shape} does not match grid of {omegas.size}"
            )
        template = cls.zero(values.shape[1:], basis_pole=basis_pole, order=order)
        basis = template.basis(omegas)
        flat, *_ = np.linalg.lstsq(basis, values.reshape(omegas.size, -1), rcond=None)
        return cls(basis_pole, flat.reshape(order + 1, *values.shape[1:]))


# -- constraint coefficients ----------------------------------------------


@dataclass
class ConstraintData:
    """The factor family whose J-form holds the quadratic feasibility form.

    With the right factor family G = [[M, U], [N, V]] and the split
    signature diag(J, -J), held as its diagonal ``signature``, the
    para-Hermitian product G~ diag(J, -J) G
    holds the quadratic block ``pi`` (top-left), the linear block ``lam``
    (top-right) and the constant block ``phi`` (bottom-right), each
    square of the loop width.  Only axis samples are needed, so the
    product is formed pointwise by :func:`~.statespace.j_form`; ``phi``
    and ``pi`` are Hermitian at every point by construction.
    """

    family: StateSpace
    signature: np.ndarray

    @property
    def width(self):
        """Loop width d; every block is d x d."""
        return self.family.n_inputs // 2

    def samples(self, omegas):
        """Blocks (phi, lam, pi) on a grid, each (n_omega, d, d)."""
        omegas = validate_grid(omegas)
        d = self.width
        form = j_form(self.family.response(omegas), self.signature)
        return form[:, d:, d:], form[:, :d, d:], form[:, :d, :d]


def build_constraint_data(cf):
    """The right factor family of ``cf`` with the diagonal of diag(J, -J).

    The loop must be square and doubled up: its width is twice the
    number of channel pairs, which sets the order of J.
    """
    d = cf.ctrl
    if cf.meas != d:
        raise DimensionMismatch(
            f"square controller loop required, got {cf.ctrl} x {cf.meas}"
        )
    if d % 2:
        raise DimensionMismatch(f"loop width {d} is not doubled")
    sign = np.diag(signature_matrix(d // 2)).real
    return ConstraintData(family=cf.right_family, signature=np.concatenate([sign, -sign]))


def quadratic_form(samples, q_w):
    """``Phi + Q~ Lambda + Lambda~ Q + Q~ Pi Q`` at every grid point.

    ``samples`` is the ``(phi, lam, pi)`` triple of
    :meth:`ConstraintData.samples` and ``q_w`` the parameter's values on
    the same grid; the result has shape (n_omega, d, d).
    """
    phi_w, lam_w, pi_w = samples
    qh = q_w.conj().swapaxes(1, 2)
    cross = qh @ lam_w
    return phi_w + cross + cross.conj().swapaxes(1, 2) + qh @ pi_w @ q_w


def constraint_samples(cd, q, omegas):
    """Pointwise residual matrices of the quadratic form at ``q``, (n_omega, d, d)."""
    omegas = validate_grid(omegas)
    return quadratic_form(cd.samples(omegas), q.evaluate(omegas))


def constraint_residual(cd, q, omegas):
    """Worst-case Frobenius norm of the quadratic form over the grid."""
    return peak_frobenius(constraint_samples(cd, q, omegas))


# -- membership -----------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    """Itemized classification of a candidate parameter.

    ``in_q`` collects the stabilizing-parameter requirements (stable,
    invertible feedthrough, quadratic residual within tolerance).
    ``stable_ok`` is true by construction: the parameter lives in the
    basis, whose pole is positive; the item stays in the report.  The
    feedthrough of V + N Q counts as invertible when
    :func:`~.stabilization.controller_from_parameter` assembles the
    controller: its smallest singular value must exceed
    1e-9 * max(sigma_max, 1).
    ``in_qhat`` additionally demands that the assembled controller is
    itself physically realizable.  ``controller`` is that controller in
    minimal form and ``controller_pr`` its
    :func:`~.physreal.check_physical_realizability` verdict at the
    default tolerance; both are
    None when V + N Q has no invertible feedthrough.
    """

    stable_ok: bool
    feedthrough_ok: bool
    residual: float
    residual_ok: bool
    controller: StateSpace | None
    controller_pr: PrVerdict | None

    @property
    def in_q(self):
        return self.stable_ok and self.feedthrough_ok and self.residual_ok

    @property
    def in_qhat(self):
        return self.in_q and self.controller_pr.is_physically_realizable


def membership_qhat(cf, q, tol=MEMBERSHIP_TOL):
    """Classify a parameter: stabilizing only, or physically realizable.

    ``q`` is stable by construction; its quadratic residual is checked
    on :func:`~.stabilization.default_verification_grid` (within
    ``tol``).  The controller is then assembled once; the assembly
    decides feedthrough invertibility.  An assembled controller is
    reduced to minimal form and graded by
    :func:`~.physreal.check_physical_realizability` at its default
    tolerance.
    """
    residual = constraint_residual(build_constraint_data(cf), q, default_verification_grid())

    controller = controller_pr = None
    try:
        controller = minimal_realization(controller_from_parameter(cf, q))
    except FeedthroughSingular:
        ft_ok = False
    else:
        ft_ok = True
        controller_pr = check_physical_realizability(controller)

    return MembershipVerdict(
        stable_ok=True,
        feedthrough_ok=ft_ok,
        residual=residual,
        residual_ok=residual <= tol,
        controller=controller,
        controller_pr=controller_pr,
    )


# -- tangent subspace and projection ---------------------------------------


@dataclass
class SampledBasis:
    """The parameter basis on a grid, with what its Jacobians reuse.

    ``matrix`` is :meth:`YoulaParameter.basis` on ``grid`` for one basis
    pole and order; the parameters it serves all have ``shape``.  The
    objective matrix, and the scaled basis, index map and fill pattern
    that the constraint Jacobian and the Hermitian stack take, depend on
    nothing else, so each is built on first use and kept.  A descent
    builds one, and its samples, projections and restores reuse it.
    """

    basis_pole: float
    order: int
    shape: tuple
    grid: np.ndarray
    matrix: np.ndarray

    @classmethod
    def of(cls, q, grid):
        """The basis of parameter ``q`` (its pole, order and shape) on ``grid``."""
        grid = validate_grid(grid)
        return cls(q.basis_pole, q.order, q.shape, grid, q.basis(grid))

    def parameter(self, x):
        """The parameter whose :func:`_real_stack` is ``x``."""
        return YoulaParameter(self.basis_pole, _unpack(x, self.order, self.shape))

    @cached_property
    def objective(self):
        """:func:`_objective_matrix` on this basis."""
        return _objective_matrix(self.matrix, *self.shape)

    @cached_property
    def _conj_parts(self):
        """``conj(part * B)`` for the real (part 1) and imaginary (part i) unknowns."""
        return tuple((part * self.matrix).conj() for part in (1.0, 1j))

    @cached_property
    def _stack_index(self):
        """:func:`_hermitian_index` of the parameter's width."""
        return _hermitian_index(self.shape[1])

    @cached_property
    def _constraint_pattern(self):
        """Where :func:`_constraint_matrix` puts each value, and what value.

        Returns (unknown_col, comp, source, scale): the value goes to the
        unknowns of column q = ``unknown_col`` and to the Hermitian
        component ``comp`` (diagonal, real upper, imaginary upper).  It is
        ``scale`` times float ``source`` of a row of cross products, whose
        column b holds Re at 2b and Im at 2b + 1.
        """
        d = self.shape[1]
        diag = np.arange(d)
        iu, ju = np.triu_indices(d, 1)
        up_re = d + np.arange(iu.size)
        up_im = up_re + iu.size
        unknown_col = np.concatenate([diag, iu, iu, ju, ju])
        comp = np.concatenate([diag, up_re, up_im, up_re, up_im])
        source = np.concatenate([2 * diag, 2 * ju, 2 * ju + 1, 2 * iu, 2 * iu + 1])
        scale = np.concatenate([np.full(d, 2.0), np.ones(3 * iu.size), np.full(iu.size, -1.0)])
        return unknown_col, comp, source, scale[:, None, None, None]


def tangent_subspace(samples, q, basis):
    """Linearize the quadratic form at ``q`` over the grid of ``basis``.

    ``samples`` is the ``(phi, lam, pi)`` triple of
    :meth:`ConstraintData.samples` and ``basis`` the
    :class:`SampledBasis` of ``q`` on the same grid.  Returns the
    ``(n_omega, d, d)`` samples of ``W = lam + pi Q``: a direction X is
    tangent when the Hermitian product ``X* W + W* X`` vanishes at every
    grid point.
    """
    _, lam_w, pi_w = samples
    return lam_w + pi_w @ q.sample(basis.matrix)


def _real_stack(block):
    """Flatten complex values to one real vector (Frobenius-faithful).

    Real parts come first, then imaginary parts; :func:`_unpack` takes a
    stack of basis coefficients back.
    """
    return np.concatenate([block.real.ravel(), block.imag.ravel()])


def _unpack(vec, order, shape):
    half = vec.size // 2
    re = vec[:half].reshape(order + 1, *shape)
    im = vec[half:].reshape(order + 1, *shape)
    return re + 1j * im


def _hermitian_index(d):
    """Flat positions in a d x d block: the diagonal, then the strict upper triangle."""
    iu, ju = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), iu * d + ju


def _hermitian_stack(blocks, index):
    """Independent real components of Hermitian-valued samples.

    ``blocks`` has shape (..., d, d) and ``index`` is
    :func:`_hermitian_index` of d; the result flattens the real diagonal
    plus the real and imaginary upper-triangle entries, d*d real numbers
    per matrix.
    """
    diag, upper = index
    flat = blocks.reshape(*blocks.shape[:-2], -1)
    up = flat[..., upper]
    return np.concatenate([flat[..., diag].real, up.real, up.imag], axis=-1)


# The two matrices below match, bit for bit and signed zeros included, a
# dense contraction of zero-padded unit samples (the tests keep that
# reference).  While the tangent rank cut sits in roundoff, descent paths
# depend on those bits, and two conditions keep them.  Every complex
# product comes from einsum (or a factor of 1 or i): numpy's vectorized
# complex multiply rounds differently from einsum's scalar loop, by up to
# 4.6e-16 on the mixing descents.  And both matrices are filled as
# (n_vars, n_rows) C-order arrays and returned transposed, so they reach
# LAPACK and BLAS in Fortran order: a C-ordered ``a_obj`` sends
# ``a_obj @ null`` down another BLAS path.


def _constraint_matrix(w_samples, basis):
    """Real matrix of the sampled tangent constraints, (n_rows, n_vars).

    ``basis`` is the :class:`SampledBasis` of the grid of ``w_samples``.
    Column v is the :func:`_hermitian_stack` of X* W + W* X for the unit
    unknown v of :func:`_real_stack` (real parts, then imaginary parts, each
    in (k, row, col) C-order); rows run over (omega, component).  That
    unknown is ``part * b_k E_pq``, whose product X* W is
    ``conj(part * b_k) W[p, :]`` in row q and zero elsewhere.
    """
    nw, nb = basis.matrix.shape
    rows, cols = w_samples.shape[1:]
    unknown_col, comp, source, scale = basis._constraint_pattern
    out = np.zeros((2, nb, rows, cols, nw, cols * cols))
    for i, conj_part in enumerate(basis._conj_parts):
        # cross[k, p, w, b]: row q of X* W for the unknown (part, k, p, q)
        cross = np.einsum("wk,wpb->kpwb", conj_part, w_samples)
        values = cross.view(np.float64).transpose(3, 0, 1, 2)[source]
        values *= scale
        values += 0.0  # -0 -> +0: a zero-padded contraction sums from +0
        out[i, :, :, unknown_col, :, comp] = values
    return out.reshape(2 * nb * rows * cols, -1).T


def _objective_matrix(basis_mat, rows, cols):
    """Real matrix taking unknowns to :func:`_real_stack` samples.

    With B the basis matrix and I of order rows*cols this is the block
    ``[[Re B (x) I, -Im B (x) I], [Im B (x) I, Re B (x) I]]``.
    """
    nw, nb = basis_mat.shape
    m = rows * cols
    out = np.zeros((2, nb, m, 2, nw, m))
    diag = np.arange(m)
    for i, part in enumerate((1.0, 1j)):
        col = (part * basis_mat).T
        out[i, :, diag, 0, :, diag] = col.real
        out[i, :, diag, 1, :, diag] = col.imag
    return out.reshape(2 * nb * m, -1).T


def _nullspace(mat):
    """Orthonormal basis of the null space, from the rows of Vt past the rank.

    With at least as many rows as columns the thin SVD holds all of Vt.
    """
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    if s.size == 0:
        return vt.T
    tol = s[0] * max(mat.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(s > tol))
    return vt[rank:].T


def project_direction(w_samples, basis, direction_samples):
    """Closest tangent direction to sampled gradient values, in the basis.

    ``w_samples`` are the :func:`tangent_subspace` samples and ``basis``
    the :class:`SampledBasis` of their grid: its basis matrix and
    objective matrix are reused, not rebuilt.
    Minimizes the summed pointwise Frobenius distance to
    ``direction_samples`` over the rational basis span, subject to the
    tangent constraints of ``w_samples`` at every grid point — a real
    equality-constrained least-squares problem in the stacked
    coefficient unknowns, solved by restricting to the constraint
    nullspace.  A rank-deficient restricted system is reported via
    :class:`RankDeficientProjection` and resolved minimum-norm.
    """
    if basis.order < 1:
        raise ValueError("projection basis needs order >= 1")
    direction_samples = np.asarray(direction_samples, dtype=np.complex128)
    nw = basis.grid.size
    rows, cols = basis.shape
    if direction_samples.shape != (nw, rows, cols):
        raise DimensionMismatch(
            f"direction block {direction_samples.shape} does not match "
            f"grid/basis ({nw}, {rows}, {cols})"
        )

    a_con = _constraint_matrix(w_samples, basis)
    target = _real_stack(direction_samples)

    null = _nullspace(a_con)
    if null.shape[1] == 0:
        return YoulaParameter.zero(
            (rows, cols), basis_pole=basis.basis_pole, order=basis.order
        )
    restricted = basis.objective @ null
    y, _, rank, _ = np.linalg.lstsq(restricted, target, rcond=None)
    if rank < null.shape[1]:
        warnings.warn(
            RankDeficientProjection(
                f"projection normal system rank {rank} < {null.shape[1]} "
                "unknowns; returning the minimum-norm solution"
            ),
            stacklevel=2,
        )
    return basis.parameter(null @ y)


def restore_feasibility(samples, q, basis, tol=1e-10):
    """Gauss-Newton refinement of the quadratic residual over coefficients.

    ``samples`` is the ``(phi, lam, pi)`` triple of
    :meth:`ConstraintData.samples` on a grid and ``basis`` the
    :class:`SampledBasis` of ``q`` on it, so a descent that holds both
    restores without sweeping the factor family or rebuilding the basis
    matrix.  Each step solves the Hermitian linearization of the
    quadratic form for a minimum-norm coefficient correction.  Because the residual is
    exactly quadratic in the parameter, each step drops it roughly to
    the square of its previous size near a feasible point.  After at
    most ``RESTORE_MAX_STEPS`` steps it returns the best iterate seen and
    its residual; the caller decides whether that is good enough.
    """
    if not isinstance(q, YoulaParameter):
        raise TypeError("feasibility restoration operates on basis coefficients")
    if (q.basis_pole, q.order, q.shape) != (basis.basis_pole, basis.order, basis.shape):
        raise DimensionMismatch("parameter is not in the sampled basis (pole, order, shape)")
    _, lam_w, pi_w = samples

    x = _real_stack(q.coeffs)
    best, best_res = q, np.inf
    for _ in range(RESTORE_MAX_STEPS + 1):
        cand = basis.parameter(x)
        q_w = cand.sample(basis.matrix)
        resid = quadratic_form(samples, q_w)
        res = peak_frobenius(resid)
        if res < best_res:
            best, best_res = cand, res
        if res <= tol:
            break
        a_con = _constraint_matrix(lam_w + pi_w @ q_w, basis)
        rvec = _hermitian_stack(resid, basis._stack_index).ravel()
        step, *_ = np.linalg.lstsq(a_con, -rvec, rcond=None)
        x = x + step
    return best, best_res
