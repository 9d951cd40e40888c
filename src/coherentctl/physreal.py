"""Open quantum harmonic networks: SLH data, transfer models, realizability.

A linear quantum network with ``n`` modes and ``m`` field channels is
specified by a scattering unitary S, coupling coefficients (L1, L2) and
Hamiltonian coefficients (H1, H2), all taken in doubled-up
annihilation/creation coordinates.  The induced input-output model is

    A = -i*Theta*H - (1/2)*Theta*L#*J*L
    B = -Theta*L#*J*[[S, 0], [0, conj(S)]]
    C = L
    D = [[S, 0], [0, conj(S)]]

with ``L = [[L1, L2], [conj(L2), conj(L1)]]``, ``H`` doubled likewise,
``J = diag(I_m, -I_m)`` and the commutation kernel ``Theta = F J_n F#``.

Such models are exactly the (J, J)-unitary transfer matrices whose
feedthrough is a doubled-up scattering unitary; ``check_physical_
realizability`` measures how far an arbitrary model is from that class.
It decides (J, J)-unitarity algebraically, with no frequency grid: on a
minimal realization with a spectrally generic A, G is (J, J)-unitary
exactly when the unique Hermitian solution X of
``A X + X A* + B J B* = 0`` satisfies ``X C* + B J D* = 0`` and
``D J D* = J`` (Gough, James and Nurdin 2010, Phys. Rev. A 81; Shaiju
and Petersen 2012, IEEE TAC 57(8)).  For SLH data in its own
coordinates X is the commutation kernel Theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidSlh
from .norms import is_spectrally_generic
from .statespace import (
    StateSpace,
    _parts,
    _schur_forms,
    doubled,
    minimal_realization,
    signature_matrix,
)

__all__ = [
    "SlhModel",
    "slh_to_statespace",
    "PrVerdict",
    "check_physical_realizability",
]

DEFAULT_PR_TOL = 1e-7


@dataclass
class SlhModel:
    """Doubled-up SLH description of a linear quantum network.

    Parameters
    ----------
    s : (m, m) array_like
        Scattering unitary among the field channels.
    l1, l2 : (m, n) array_like
        Coupling coefficients (annihilation / creation parts).
    h1, h2 : (n, n) array_like, optional
        Hamiltonian coefficients; ``h1`` must be Hermitian and ``h2``
        symmetric so the doubled Hamiltonian is Hermitian.  Default zero.
    f1, f2 : (n, n) array_like, optional
        Mode-basis coefficients entering the commutation kernel
        ``Theta = F J F#``; defaults give canonical modes (Theta = J).
    """

    s: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    h1: np.ndarray | None = None
    h2: np.ndarray | None = None
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    unitarity_tol: float = field(default=1e-10, repr=False)

    def __post_init__(self):
        self.s = np.atleast_2d(np.asarray(self.s, dtype=np.complex128))
        self.l1 = np.atleast_2d(np.asarray(self.l1, dtype=np.complex128))
        self.l2 = np.atleast_2d(np.asarray(self.l2, dtype=np.complex128))
        m = self.s.shape[0]
        n = self.l1.shape[1]
        canonical = self.f1 is None and self.f2 is None  # F = I, whose cond is exactly 1
        if self.s.shape != (m, m):
            raise InvalidSlh(f"scattering matrix must be square, got {self.s.shape}")
        if self.l1.shape != (m, n) or self.l2.shape != (m, n):
            raise InvalidSlh("coupling blocks must both be (m, n)")
        for name in ("h1", "h2", "f1", "f2"):
            val = getattr(self, name)
            if val is None:
                if name in ("h1", "h2"):
                    val = np.zeros((n, n), dtype=np.complex128)
                else:
                    val = (
                        np.eye(n, dtype=np.complex128)
                        if name == "f1"
                        else np.zeros((n, n), dtype=np.complex128)
                    )
            else:
                val = np.atleast_2d(np.asarray(val, dtype=np.complex128))
                if val.shape != (n, n):
                    raise InvalidSlh(f"{name} must be (n, n) = ({n}, {n})")
            setattr(self, name, val)
        gap = np.abs(self.s.conj().T @ self.s - np.eye(m)).max() if m else 0.0
        if gap > self.unitarity_tol:
            raise InvalidSlh(f"scattering matrix not unitary: |S#S - I| = {gap:.2e}")
        hd = doubled(self.h1, self.h2)
        herm_gap = np.abs(hd - hd.conj().T).max() if hd.size else 0.0
        if herm_gap > self.unitarity_tol * max(1.0, np.abs(hd).max(initial=0.0)):
            raise InvalidSlh(
                f"doubled Hamiltonian not Hermitian: residual {herm_gap:.2e}"
            )
        if n and not canonical and np.linalg.cond(self.mode_basis()) > 1e12:
            raise InvalidSlh("mode-basis matrix F is (near-)singular")

    @property
    def n_modes(self):
        return self.l1.shape[1]

    @property
    def n_fields(self):
        return self.s.shape[0]

    def coupling(self):
        return doubled(self.l1, self.l2)

    def hamiltonian(self):
        return doubled(self.h1, self.h2)

    def mode_basis(self):
        return doubled(self.f1, self.f2)

    def commutation_kernel(self):
        """Theta = F J F# (Hermitian; equals J for canonical modes)."""
        f = self.mode_basis()
        return f @ signature_matrix(self.n_modes) @ f.conj().T

    def scattering_feedthrough(self):
        return doubled(self.s, np.zeros_like(self.s))


def slh_to_statespace(model):
    """Input-output state-space model of an SLH network (doubled-up)."""
    n, m = model.n_modes, model.n_fields
    jm = signature_matrix(m)
    lmat = model.coupling()
    hmat = model.hamiltonian()
    theta = model.commutation_kernel()
    dmat = model.scattering_feedthrough()
    with np.errstate(all="ignore"):
        lh = lmat.conj().T @ jm
        a = -1j * theta @ hmat - 0.5 * theta @ lh @ lmat
        b = -theta @ lh @ dmat
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidSlh("SLH data too large: the network model overflows double precision")
    if n == 0:
        a = np.zeros((0, 0), dtype=np.complex128)
        b = np.zeros((0, 2 * m), dtype=np.complex128)
    return StateSpace(a, b, lmat, dmat)


def _lyapunov_residual(parts, forms, mirrors, b, c, d, sign):
    """``||X C* + B J D*||_F / (||X|| ||C|| + ||B|| ||D||)``, part by part.

    Each of ``parts`` is a part's states, with ``(T, Z)`` in ``forms``
    and ``A_i = Z T Z*`` its block of A.  X solves ``A X + X A* + B J B*
    = 0``; a generic spectrum makes X unique.  The parts share no state,
    input or output, so X is block diagonal over them and each block of
    ``X C* + B J D*`` is its part's rows: every Frobenius norm is the
    root sum of squares of the parts' norms.  Each part's equation is
    solved in its Schur coordinates and its norms are taken there, so X
    itself is never formed; a model of one part gets the norms of one
    solve.  A part q whose A mirrors an earlier part p's (``mirrors``)
    takes p's four norms when the channel swap P carries the rest over
    exactly, ``B_q = conj(B_p) P``, ``C_q = P conj(C_p)``, ``D = P conj(D) P``:
    as ``P J P = -J``, X_q = -conj(X_p).  The scale is floored at the
    smallest normal float: a model with X = 0 and D = 0 gives 0, not NaN.
    """
    norm = np.linalg.norm
    swap = np.roll(np.arange(len(sign)), len(sign) // 2)
    swapped = np.array_equal(d, d.conj()[np.ix_(swap, swap)])
    terms = []
    for states, (t, z), mirror in zip(parts, forms, mirrors):
        first = None if mirror is None else parts[mirror]
        if (first is not None and swapped and np.array_equal(b[states], b[first].conj()[:, swap])
                and np.array_equal(c[:, states], c[np.ix_(swap, first)].conj())):
            terms.append(terms[mirror])
            continue
        bz = z.conj().T @ b[states]
        cz = c[:, states] @ z
        bj = bz * sign
        y, scale, _ = lapack.ztrsyl(t, t, -(bj @ bz.conj().T), tranb="C")
        y = y / scale
        terms.append((norm(y @ cz.conj().T + bj @ d.conj().T), norm(y), norm(cz), norm(bz)))
    gap, norm_x, norm_c, norm_b = (np.hypot.reduce(column) for column in zip(*terms))
    size = norm_x * norm_c + norm_b * norm(d)
    return gap / max(size, np.finfo(float).tiny)


@dataclass
class PrVerdict:
    """Outcome of a physical-realizability check.

    ``is_physically_realizable`` requires all four flags; the measured
    quantities are kept so callers can report how close a failure was.
    """

    residual: float
    residual_ok: bool
    feedthrough_gap: float
    feedthrough_ok: bool
    generic_ok: bool
    minimal_ok: bool
    n_states_minimal: int

    @property
    def is_physically_realizable(self):
        return bool(
            self.residual_ok and self.feedthrough_ok and self.generic_ok and self.minimal_ok
        )


def check_physical_realizability(sys, tol=DEFAULT_PR_TOL):
    """Decide whether a model is realizable as a quantum network.

    Tests, on a minimal realization: (i) the (J, J)-unitarity residual
    ``max(||X C* + B J D*||_F / (||X|| ||C|| + ||B|| ||D||),
    ||D J D* - J||_F)`` of the module docstring's conditions, (ii) that
    the feedthrough is a doubled-up scattering unitary, (iii) spectral
    genericity of the minimal A, and (iv) that the supplied realization
    was already minimal.  Non-generic or non-minimal inputs are reported
    as such, never repaired.  A non-generic A has no unique X, so its
    residual is the feedthrough term alone; such a model fails on (iii).

    The minimal realization is taken, and the Lyapunov equation solved,
    on each independent part of the model by the exact nonzero pattern
    (:func:`~.statespace.minimal_realization`): a passive network
    (L2 = H2 = 0) in doubled-up coordinates is the direct sum of its
    annihilation model and that model's conjugate: where the latter is
    exact, its factorizations are taken as the conjugates of the first
    half's (:func:`~.statespace._mirrors`).  Genericity is tested on the
    union of the parts' spectra, since a pair mirrored across the axis
    may straddle two parts.
    """
    p, m = sys.shape
    if p != m or p % 2:
        raise ValueError(f"need a square doubled-up model, got shape {(p, m)}")
    half = m // 2
    reduced = minimal_realization(sys)
    minimal_ok = reduced.n_states == sys.n_states

    d = reduced.d
    sign = np.diag(signature_matrix(half)).real
    parts = _parts(reduced)
    forms, mirrors = _schur_forms([reduced.a[np.ix_(part, part)] for part in parts])
    # each T is unitarily similar to its block of A, and its eigenvalues are its diagonal
    generic_ok = is_spectrally_generic(
        np.concatenate([np.zeros(0, dtype=np.complex128)] + [np.diag(t) for t, _ in forms])
    )
    residual = np.linalg.norm((d * sign) @ d.conj().T - np.diag(sign))
    if generic_ok and reduced.n_states:
        # np.maximum, not max: a NaN from an overflowed solve must fail the check
        residual = np.maximum(
            residual, _lyapunov_residual(parts, forms, mirrors, reduced.b, reduced.c, d, sign)
        )
    residual = float(residual)
    residual_ok = residual <= tol

    s_block = d[:half, :half]
    target = doubled(s_block, np.zeros_like(s_block))
    gap_structure = np.abs(d - target).max() if d.size else 0.0
    gap_unitary = np.abs(s_block.conj().T @ s_block - np.eye(half)).max() if half else 0.0
    feedthrough_gap = float(max(gap_structure, gap_unitary))
    feedthrough_ok = feedthrough_gap <= tol

    return PrVerdict(
        residual=residual,
        residual_ok=residual_ok,
        feedthrough_gap=feedthrough_gap,
        feedthrough_ok=feedthrough_ok,
        generic_ok=generic_ok,
        minimal_ok=minimal_ok,
        n_states_minimal=reduced.n_states,
    )
