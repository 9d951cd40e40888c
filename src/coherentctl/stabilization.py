"""Plant regrouping, stabilizing gains, and coprime factor families.

The synthesis pipeline starts from a doubled-up plant whose inputs are
ordered (exogenous, control, exogenous-conjugate, control-conjugate) and
outputs (performance, measured, and their conjugates).  ``modify_plant``
regroups both sides so each conjugate block sits next to its partner,
which makes the controller-facing channels a trailing square block.

On the regrouped plant the classical machinery applies verbatim:
feedback and injection gains, whose design decides stabilizability,
and a doubly-coprime factor family for the controller-facing block

    P22 = N M^{-1} = Mhat^{-1} Nhat

with the eight factors realized from one (A + B2 F) core and one
(A + L C2) core.  Every factorization is verified on a frequency grid
before it is returned.

The Youla loop is block triangular over the two cores and Q, so its
poles are theirs: :class:`GainPair` carries the cores' spectra and
:func:`parameter_poles` gives Q's, and no assembled loop is decomposed.

A stable plant has the trivial factorization F = L = 0, M = I, N = P22,
U = 0, V = I (Youla, Jabr and Bongiorno 1976; Vidyasagar 1985), and it
is found from one complex Schur form of A
(:func:`~.statespace.schur_form`, one per independent block of A up to
conjugation): the gain design reads the spectrum off its diagonal
throughout, and :class:`GainPair` carries the form on.  Systems that
share a core (with zero gains: both families and P22) are swept as one
system: the 130-point check takes that carried form and then, per
frequency, one triangular solve of B2's columns alone, which the
stacked inputs ``[B2, 0 | -B2, 0 | B2]`` repeat up to sign.

The maps between a stable parameter Q and its controller
K = (U + M Q)(V + N Q)^{-1}, in both directions, are each one
``compose_lft`` on an observer-form generator built from the gains, as
the weighted closed loop is on :func:`closed_loop_triple`.  So every
result has structural order: no factor sums, products or system
inverses are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BezoutResidualTooLarge,
    DimensionMismatch,
    FactorUnstable,
    FeedthroughSingular,
    NotDetectable,
    NotInYoulaRange,
    NotStabilizable,
    PlacementFailed,
)
from .norms import is_hurwitz, peak_frobenius
from .statespace import (StateSpace, _reachable_part, compose_lft, log_grid,
                         minimal_realization, schur_form)

__all__ = [
    "PartitionSpec",
    "ModifiedPlant",
    "GainPair",
    "CoprimeFactorization",
    "default_verification_grid",
    "modify_plant",
    "stabilizing_gains",
    "coprime_factorization",
    "bezout_residual",
    "parameter_statespace",
    "parameter_poles",
    "loop_abscissa",
    "controller_from_parameter",
    "parameter_from_controller",
    "closed_loop_triple",
]

#: Re(lambda) bound under which :func:`stabilizing_gains` keeps a mode.
PLACEMENT_MARGIN = 1e-9

#: Bound on the Bezout and factor-quotient residuals that
#: :func:`coprime_factorization` accepts.
BEZOUT_TOL = 1e-8


def default_verification_grid(points=129):
    """omega = 0 plus ``points`` log-spaced points over [1e-3, 1e3].

    ``points + 1`` frequencies in all: ``factorize`` without a ``grid``
    section checks on this grid, so ``--grid-points 9`` reports 10.
    """
    return np.concatenate([[0.0], log_grid(1e-3, 1e3, points)])


@dataclass(frozen=True)
class PartitionSpec:
    """Channel-pair counts of a doubled-up plant.

    ``n_r``/``n_u`` count exogenous and control input pairs, ``n_z``/
    ``n_y`` performance and measured output pairs.  The loop is square
    (``n_y == n_u``): the controller is a ``2*n_u``-channel doubled model.
    """

    n_r: int
    n_u: int
    n_z: int
    n_y: int

    def __post_init__(self):
        if min(self.n_r, self.n_u, self.n_z, self.n_y) < 0:
            raise ValueError("partition counts must be nonnegative")
        if self.n_y != self.n_u:
            raise ValueError(
                f"square loop required: n_y = {self.n_y} != n_u = {self.n_u}"
            )
        if self.n_r < self.n_y:
            raise ValueError(
                "unsupported partition: fewer exogenous than measured pairs "
                f"(n_r = {self.n_r} < n_y = {self.n_y})"
            )


@dataclass
class ModifiedPlant:
    """Plant with conjugate channels regrouped next to their partners.

    ``full`` maps (exogenous, control) inputs to (performance, measured)
    outputs where each group interleaves its conjugates; the widths are
    plain column/row counts, so classical (non-doubled) plants fit too.
    """

    full: StateSpace
    in_exo: int
    in_ctrl: int
    out_perf: int
    out_meas: int

    def __post_init__(self):
        p, m = self.full.shape
        if self.in_exo + self.in_ctrl != m or self.out_perf + self.out_meas != p:
            raise DimensionMismatch(
                f"partition widths {(self.out_perf, self.out_meas)} x "
                f"{(self.in_exo, self.in_ctrl)} do not tile shape {(p, m)}"
            )

    # block accessors (shared A; rectangular slices of B, C, D)

    @property
    def b1(self):
        return self.full.b[:, : self.in_exo]

    @property
    def b2(self):
        return self.full.b[:, self.in_exo :]

    @property
    def c1(self):
        return self.full.c[: self.out_perf]

    @property
    def c2(self):
        return self.full.c[self.out_perf :]

    @property
    def d11(self):
        return self.full.d[: self.out_perf, : self.in_exo]

    @property
    def d12(self):
        return self.full.d[: self.out_perf, self.in_exo :]

    @property
    def d21(self):
        return self.full.d[self.out_perf :, : self.in_exo]

    @property
    def d22(self):
        return self.full.d[self.out_perf :, self.in_exo :]

    def p22(self):
        return self.full.select(rows=slice(self.out_perf, None), cols=slice(self.in_exo, None))


def _regroup_permutations(part):
    """Column/row orders taking (r, u, r#, u#) to (r, r#, u, u#) etc."""
    nr, nu, nz, ny = part.n_r, part.n_u, part.n_z, part.n_y
    blocks_in = [
        np.arange(0, nr),
        np.arange(nr + nu, 2 * nr + nu),
        np.arange(nr, nr + nu),
        np.arange(2 * nr + nu, 2 * (nr + nu)),
    ]
    blocks_out = [
        np.arange(0, nz),
        np.arange(nz + ny, 2 * nz + ny),
        np.arange(nz, nz + ny),
        np.arange(2 * nz + ny, 2 * (nz + ny)),
    ]
    return np.concatenate(blocks_out), np.concatenate(blocks_in)


def modify_plant(plant, part):
    """Regroup a doubled-up plant so controller channels trail.

    The input plant must have ``2*(n_r + n_u)`` inputs ordered
    (exogenous, control, exogenous-conjugate, control-conjugate) and
    ``2*(n_z + n_y)`` outputs ordered analogously.  Only channel
    permutations are applied and the state dynamics are untouched, so
    the inverse permutations recover the plant entrywise.
    """
    p, m = plant.shape
    if m != 2 * (part.n_r + part.n_u) or p != 2 * (part.n_z + part.n_y):
        raise DimensionMismatch(
            f"plant shape {(p, m)} does not match doubled partition "
            f"{2 * (part.n_z + part.n_y), 2 * (part.n_r + part.n_u)}"
        )
    rows, cols = _regroup_permutations(part)
    reordered = StateSpace(
        plant.a, plant.b[:, cols], plant.c[rows], plant.d[rows][:, cols]
    )
    return ModifiedPlant(
        full=reordered,
        in_exo=2 * part.n_r,
        in_ctrl=2 * part.n_u,
        out_perf=2 * part.n_z,
        out_meas=2 * part.n_y,
    )


# -- gain design ----------------------------------------------------------


@dataclass
class GainPair:
    """Feedback F (ctrl x states), injection L (states x meas), spectra of A + B2 F, A + L C2.

    ``schur`` is the complex Schur form ``(T, Z)`` of A when no mode
    moved, so that both cores are A, and None otherwise.
    """

    f: np.ndarray
    l: np.ndarray
    f_poles: np.ndarray
    l_poles: np.ndarray
    schur: tuple | None = None


def _unreachable_modes(a, b, eig):
    """A's modes at Re >= 0 that B cannot reach, as their entries of A's spectrum ``eig``.

    One staircase (:func:`~.statespace._reachable_part`) finds the reachable
    part of the block T of modes at Re >= -margin in an ordered Schur form,
    counting singular values <= 1e-8 max(||T||, ||Z* B||) as zero.  Each of
    its eigenvalues claims the nearest mode of T; the unclaimed are unreachable.
    """
    t, z, k = sla.schur(a, output="complex", sort=lambda lam: lam.real < -PLACEMENT_MARGIN)
    t, b = t[k:, k:], z[:, k:].conj().T @ b
    lost = list(np.diag(t))
    bound = 1e-8 * max(np.linalg.norm(t, 2), np.linalg.norm(b, 2))
    for lam in np.linalg.eigvals(_reachable_part(t, b, bound)[0]):
        del lost[int(np.argmin(np.abs(np.subtract(lost, lam))))]
    lost = [complex(eig[np.argmin(np.abs(eig - lam))]) for lam in lost]
    return [lam for lam in lost if lam.real >= 0.0]


def _lyapunov_gain(t, b, modes):
    """-B* Y^-1 with Y solving T Y + Y T* = B B* for upper-triangular T.

    T is anti-stable, so Y is positive definite exactly when every mode
    of T is controllable.  A Y that LAPACK had to perturb or scale, that
    is not finite, or that is singular to working precision raises
    ``PlacementFailed`` naming ``modes``.
    """
    q = b @ b.conj().T
    trsyl = sla.get_lapack_funcs("trsyl", (t, q))
    y, scale, info = trsyl(t, t, q, tranb="C")
    if info == 0 and scale == 1.0 and np.isfinite(y).all():
        w = np.linalg.eigvalsh(y)
        if w[0] > w.size * np.finfo(float).eps * w[-1]:
            gain = -np.linalg.solve(y.conj().T, b).conj().T
            if np.isfinite(gain).all():
                return gain
    raise PlacementFailed(
        f"cannot move the modes at {[complex(lam) for lam in modes]}: "
        "singular Lyapunov solution"
    )


def _mirror_feedback(a, b, eig):
    """F with A + B F moving every mode at Re >= -margin and keeping the rest.

    ``margin`` is ``PLACEMENT_MARGIN`` and ``eig`` is A's spectrum.  When
    no mode needs moving, F = 0 without a Schur form.  Otherwise each
    pass puts the modes it keeps first in an ordered complex Schur form
    of A + B F, so a gain on the trailing Schur vectors leaves them in
    place.  The first pass mirrors the strictly unstable modes (s = 0);
    the second, run only when modes near the axis remain, moves them to
    -1 + i Im(lam) (s = 1/2).  See :func:`stabilizing_gains`.
    """
    n, m, margin = a.shape[0], b.shape[1], PLACEMENT_MARGIN
    f = np.zeros((m, n), dtype=np.complex128)
    if np.all(eig.real < -margin):
        return f
    axis = max(margin, 1e-12)
    for sigma, keep in ((0.0, lambda lam: lam.real <= axis),
                        (0.5, lambda lam: lam.real < -margin)):
        t, z, k = sla.schur(a + b @ f, output="complex", sort=keep)
        if k < n:
            z2 = z[:, k:]
            t22 = t[k:, k:] + sigma * np.eye(n - k)
            f = f + _lyapunov_gain(t22, z2.conj().T @ b, np.diag(t)[k:]) @ z2.conj().T
        if np.all(np.diag(t)[:k].real < -margin):
            break
    return f


def stabilizing_gains(mp):
    """Design (F, L) making A + B2 F and A + L C2 Hurwitz.

    Keeps eigenvalues with Re < -margin (``PLACEMENT_MARGIN``), mirrors
    strictly unstable ones across the imaginary axis (lam -> -conj(lam)),
    and pushes near-axis modes to -1 + i Im(lam).  The plant's spectrum
    is read once, off the diagonal of its complex Schur form
    (:func:`~.statespace.schur_form`, one per independent block of A up
    to conjugation), and both gains read it (the adjoint pair its
    conjugate).  A stable plant therefore gets F = 0,
    L = 0 and costs that one form: no other is taken and no core
    re-tested when every mode already has Re < -margin, and the returned
    pair carries the form, which the factorization check and the
    H-infinity evaluation reuse.  The moved modes get Bass's
    minimum-energy gain (Armstrong 1975, IEEE TAC 20(1)): on the
    trailing block T of an ordered Schur form, one Lyapunov solve of
    (T + s I) Y + Y (T + s I)* = B2 B2*
    gives F2 = -B2* Y^-1, which lands each mode on -conj(lam) - 2 s; it
    also decides stabilizability (:func:`_lyapunov_gain`).  Strictly
    unstable modes take s = 0, near-axis modes s = 1/2.  L is the same
    design on the adjoint pair (A*, C2*).  The cores' spectra are A's
    when nothing moved, else those their final Hurwitz test takes.

    Raises
    ------
    NotStabilizable / NotDetectable
        On failed placement, naming the modes at Re >= 0 B2 cannot reach (C2 cannot see).
    PlacementFailed
        When a moved mode cannot be moved (its Lyapunov solution is
        singular or not finite; the modes are named, for L as
        eigenvalues of A*), or when a core is not Hurwitz afterwards.
    """
    a, b2, c2 = mp.full.a, mp.b2, mp.c2
    t, z = schur_form(a)
    eig = np.diag(t)
    try:
        # The mirror map commutes with conjugation, so the adjoint problem gives L.
        f = _mirror_feedback(a, b2, eig)
        l = _mirror_feedback(a.conj().T, c2.conj().T, eig.conj()).conj().T
        if np.all(eig.real < -PLACEMENT_MARGIN):
            # nothing moved: both cores are A, whose spectrum passed already
            return GainPair(f=f, l=l, f_poles=eig, l_poles=eig, schur=(t, z))
        poles = [np.linalg.eigvals(a + b2 @ f), np.linalg.eigvals(a + l @ c2)]
        for label, core in zip(("A + B2*F", "A + L*C2"), poles):
            if not is_hurwitz(core, 1e-12):
                raise PlacementFailed(f"{label} not Hurwitz after placement "
                                      f"(abscissa {core.real.max():.3e})")
    except PlacementFailed:
        # a mode B2 cannot reach fails the Lyapunov test, or passes it in roundoff and stays
        if lost := _unreachable_modes(a, b2, eig):
            raise NotStabilizable(f"unstabilizable modes at {lost}") from None
        if lost := _unreachable_modes(a.conj().T, c2.conj().T, eig.conj()):
            raise NotDetectable(f"undetectable modes at {np.conj(lost).tolist()}") from None
        raise
    return GainPair(f, l, *poles)


# -- coprime factor families ----------------------------------------------


@dataclass
class CoprimeFactorization:
    """Doubly-coprime factor family of the controller-facing block.

    ``right_family`` realizes the block transfer ``[[M, U], [N, V]]``
    and ``left_family`` realizes ``[[Vhat, -Uhat], [-Nhat, Mhat]]``;
    the named accessors slice out individual factors.  ``ctrl`` and
    ``meas`` are the loop widths (both equal ``2*mu`` for quantum
    plants).
    """

    right_family: StateSpace
    left_family: StateSpace
    gains: GainPair
    ctrl: int
    meas: int

    def m_factor(self):
        return self.right_family.select(rows=slice(0, self.ctrl), cols=slice(0, self.ctrl))

    def u_factor(self):
        return self.right_family.select(rows=slice(0, self.ctrl), cols=slice(self.ctrl, None))

    def n_factor(self):
        return self.right_family.select(rows=slice(self.ctrl, None), cols=slice(0, self.ctrl))

    def v_factor(self):
        return self.right_family.select(rows=slice(self.ctrl, None), cols=slice(self.ctrl, None))

    def vhat_factor(self):
        return self.left_family.select(rows=slice(0, self.ctrl), cols=slice(0, self.ctrl))

    def uhat_factor(self):
        return -self.left_family.select(rows=slice(0, self.ctrl), cols=slice(self.ctrl, None))

    def nhat_factor(self):
        return -self.left_family.select(rows=slice(self.ctrl, None), cols=slice(0, self.ctrl))

    def mhat_factor(self):
        return self.left_family.select(rows=slice(self.ctrl, None), cols=slice(self.ctrl, None))


def coprime_factorization(mp, gains, check=True):
    """Assemble and verify the eight coprime factors for P22.

    Right family ``[[M, U], [N, V]]`` from the state-feedback core and
    left family ``[[Vhat, -Uhat], [-Nhat, Mhat]]`` from the injection
    core.  With ``check=True`` (default) both factor cores must be
    Hurwitz, read from the spectra ``gains`` carries, and on
    :func:`default_verification_grid` the product of the two families
    must match the identity and ``N M^{-1}``/``Mhat^{-1} Nhat`` must
    reproduce P22, each within ``BEZOUT_TOL``.  Systems with the same
    core are swept once (see :func:`_shared_core_responses`): with zero
    gains, both families and P22 take one triangular solve of B2 per
    frequency, in the Schur form that ``gains`` carries.
    """
    a, b2, c2, d22 = mp.full.a, mp.b2, mp.c2, mp.d22
    f, l = gains.f, gains.l
    nc, nm = mp.in_ctrl, mp.out_meas
    eye_c, eye_m = np.eye(nc), np.eye(nm)

    right = StateSpace(
        a + b2 @ f,
        np.hstack([b2, -l]),
        np.vstack([f, c2 + d22 @ f]),
        np.block([[eye_c, np.zeros((nc, nm))], [d22, eye_m]]),
    )
    left = StateSpace(
        a + l @ c2,
        np.hstack([-(b2 + l @ d22), l]),
        np.vstack([f, c2]),
        np.block([[eye_c, np.zeros((nc, nm))], [-d22, eye_m]]),
    )
    cf = CoprimeFactorization(
        right_family=right, left_family=left, gains=gains, ctrl=nc, meas=nm
    )
    if not check:
        return cf

    for label, poles in (("right", gains.f_poles), ("left", gains.l_poles)):
        if not is_hurwitz(poles, 1e-12):
            raise FactorUnstable(
                f"{label} factor family core not Hurwitz "
                f"(abscissa {poles.real.max():.3e})"
            )

    grid = default_verification_grid()
    rw, lw, p22w = _shared_core_responses([right, left, mp.p22()], grid, gains.schur)
    residual = peak_frobenius(lw @ rw - np.eye(nc + nm))
    if residual > BEZOUT_TOL:
        raise BezoutResidualTooLarge(
            f"factor-family identity residual {residual:.3e} > {BEZOUT_TOL:.1e}"
        )

    m_w = rw[:, :nc, :nc]
    n_w = rw[:, nc:, :nc]
    nhat_w = -lw[:, nc:, :nc]
    mhat_w = lw[:, nc:, nc:]
    res_right = np.abs(
        np.linalg.solve(m_w.swapaxes(1, 2), n_w.swapaxes(1, 2)).swapaxes(1, 2) - p22w
    ).max(initial=0.0)
    res_left = np.abs(np.linalg.solve(mhat_w, nhat_w) - p22w).max(initial=0.0)
    if max(res_right, res_left) > BEZOUT_TOL * max(1.0, np.abs(p22w).max(initial=0.0)):
        raise BezoutResidualTooLarge(
            f"factor quotients deviate from P22 by {max(res_right, res_left):.3e}"
        )
    return cf


def bezout_residual(cf, grid):
    """Peak Frobenius deviation of ``left_family * right_family`` from I.

    The residual is taken over ``grid``.  When the two families share
    their core (zero gains, as for every stable plant), they are swept as
    one system, in the Schur form the gains carry.
    """
    rw, lw = _shared_core_responses([cf.right_family, cf.left_family], grid, cf.gains.schur)
    return peak_frobenius(lw @ rw - np.eye(cf.ctrl + cf.meas))


def _shared_core_responses(systems, grid, form=None):
    """Responses of ``systems`` over ``grid``, one sweep per distinct core.

    Systems whose state matrices are equal are swept together, one
    triangular solve per frequency serving all, and each distinct input
    column is solved once, up to sign.  The others are swept on their
    own.  ``form``, when given, is a complex Schur form of every system's
    state matrix (a stable plant's A, which :class:`GainPair` carries),
    and the sweep takes it instead of factoring A again.
    """
    out = [None] * len(systems)
    for k, lead in enumerate(systems):
        if out[k] is not None:
            continue
        group = [j for j in range(k + 1, len(systems))
                 if out[j] is None and np.array_equal(systems[j].a, lead.a)]
        swept = lead.response(grid, *(systems[j] for j in group), form=form)
        for j, resp in zip([k, *group], swept if group else [swept]):
            out[j] = resp
    return out


def parameter_statespace(q):
    """A parameter as a realization: basis coefficients are realized exactly."""
    if isinstance(q, StateSpace):
        return q
    return q.to_statespace()


def parameter_poles(q):
    """A parameter's poles: -b once per chain state, or a realization's eigenvalues."""
    if isinstance(q, StateSpace):
        return np.linalg.eigvals(q.a)
    return np.full(q.order * q.shape[1], -q.basis_pole, dtype=np.complex128)


def loop_abscissa(cf, q_poles):
    """Abscissa of the plant closed by a parameter's controller: A + B2 F, A + L C2 and Q.

    ``q_poles`` is the parameter's spectrum, from :func:`parameter_poles`
    or :func:`parameter_from_controller`.
    """
    poles = np.concatenate([cf.gains.f_poles, cf.gains.l_poles, q_poles])
    return float(poles.real.max(initial=-np.inf))


def _observer_generator(cf, a, b_ctrl, c_ctrl, c_meas, d22):
    """``(a, [-L, b_ctrl], [c_ctrl; c_meas], [[0, I], [I, d22]])`` for one LFT.

    Inputs are (exogenous, loop) and outputs (exogenous, loop), so
    ``compose_lft(G, X, cf.meas, cf.ctrl)`` feeds the last ``cf.meas``
    outputs to X and X's ``cf.ctrl`` outputs back to the last inputs.
    """
    nc, nm = cf.ctrl, cf.meas
    return StateSpace(
        a,
        np.hstack([-cf.gains.l, b_ctrl]),
        np.vstack([c_ctrl, c_meas]),
        np.block([[np.zeros((nc, nm)), np.eye(nc)], [np.eye(nm), d22]]),
    )


def _feedback_blocks(cf):
    """A_F = A + B2 F, B2, C_F = C2 + D22 F and D22 of the right family."""
    r, nc = cf.right_family, cf.ctrl
    return r.a, r.b[:, :nc], r.c[nc:], r.d[nc:, :nc]


def controller_from_parameter(cf, q):
    """Controller ``K = (U + M Q)(V + N Q)^{-1}`` for a stable parameter.

    K is one LFT of Q on the observer-form generator (Zhou, Doyle and
    Glover 1996, ch. 12)

        J = (A_F + L C_F, [-L, B2 + L D22], [F; -C_F], [[0, I], [I, -D22]])

    with A_F = A + B2 F and C_F = C2 + D22 F, so K has the plant's
    states plus Q's and no others.

    Raises
    ------
    FeedthroughSingular
        When ``(V + N Q)`` has a singular feedthrough, i.e. the
        candidate controller would be improper.
    """
    qss = parameter_statespace(q)
    if qss.shape != (cf.ctrl, cf.meas):
        raise DimensionMismatch(
            f"parameter shape {qss.shape} != loop shape {(cf.ctrl, cf.meas)}"
        )
    a_f, b2, c_f, d22 = _feedback_blocks(cf)
    sv = np.linalg.svd(np.eye(cf.meas) + d22 @ qss.d, compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1.0):
        raise FeedthroughSingular(
            f"(V + N Q) feedthrough singular (sigma_min = {sv[-1]:.3e})"
        )
    l = cf.gains.l
    gen = _observer_generator(cf, a_f + l @ c_f, b2 + l @ d22, cf.gains.f, -c_f, -d22)
    return compose_lft(gen, qss, n_meas=cf.meas, n_ctrl=cf.ctrl)


def parameter_from_controller(cf, k):
    """Invert the controller map: ``Q = (M - K N)^{-1} (K V - U)``.

    Q is one LFT of K on the inverse generator

        P_a = (A, [-L, B2], [-F; C2], [[0, I], [I, D22]])

    with A = A_F - B2 F and C2 = C_F - D22 F; the loop has the plant's
    states plus K's.  Returns a minimal realization of Q and its poles,
    which the range test takes and the loop's stability reads.  Raises
    ``NotInYoulaRange`` when the resulting parameter is unstable (the
    controller is not a stabilizing one for this factorization) and
    ``FeedthroughSingular`` when ``M - K N`` is improper-invertible.
    """
    if k.shape != (cf.ctrl, cf.meas):
        raise DimensionMismatch(
            f"controller shape {k.shape} != loop shape {(cf.ctrl, cf.meas)}"
        )
    a_f, b2, c_f, d22 = _feedback_blocks(cf)
    sv = np.linalg.svd(np.eye(cf.ctrl) - k.d @ d22, compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1.0):
        raise FeedthroughSingular(
            f"(M - K N) feedthrough singular (sigma_min = {sv[-1]:.3e})"
        )
    f = cf.gains.f
    gen = _observer_generator(cf, a_f - b2 @ f, b2, -f, c_f - d22 @ f, d22)
    q = minimal_realization(compose_lft(gen, k, n_meas=cf.meas, n_ctrl=cf.ctrl), tol=1e-8)
    poles = parameter_poles(q)
    if not is_hurwitz(poles):
        raise NotInYoulaRange(
            f"recovered parameter unstable (abscissa {poles.real.max():.3e})"
        )
    return q, poles


def closed_loop_triple(mp, cf):
    """The Youla generator ``G = [[T0, T1], [T2, 0]]`` of the closed loop.

    Every stabilizing closed loop is ``T0 + T1 Q T2 = compose_lft(G, Q)``
    for a stable Q.  Inputs are (exogenous, q), outputs (performance,
    innovation), and the states are the plant state x and the estimation
    error e = x - xhat of the observer-form central controller; T1 lives
    on x alone, T2 on e alone, D22 drops out and no rank decision is made:

        A = [[A + B2 F, -B2 F], [0, A + L C2]]    B = [[B1, B2], [B1 + L D21, 0]]
        C = [[C1 + D12 F, -D12 F], [0, C2]]       D = [[D11, D12], [D21, 0]]
    """
    a, b1, b2, c1, c2 = mp.full.a, mp.b1, mp.b2, mp.c1, mp.c2
    d12, d21 = mp.d12, mp.d21
    f, l = cf.gains.f, cf.gains.l
    n = a.shape[0]
    return StateSpace(
        np.block([[a + b2 @ f, -b2 @ f], [np.zeros((n, n)), a + l @ c2]]),
        np.block([[b1, b2], [b1 + l @ d21, np.zeros((n, mp.in_ctrl))]]),
        np.block([[c1 + d12 @ f, -d12 @ f], [np.zeros((mp.out_meas, n)), c2]]),
        np.block([[mp.d11, d12], [d21, np.zeros((mp.out_meas, mp.in_ctrl))]]),
    )
