"""Weighted H2 model matching over the constrained parameter family.

The closed loop is the Youla generator closed by the stable parameter,
so it is affine in that parameter, and wrapping the generator in stable
frequency weights gives an exactly quadratic squared-H2 cost.  This
module builds that weighted generator (H-infinity evaluation reuses it),
the gradient sampled on a frequency grid from the generator's responses,
and a projected-gradient descent that walks the rational coefficient
basis while a Gauss-Newton pull-back keeps the iterates on the quadratic
constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateWeights,
    DimensionMismatch,
    IllPosedInterconnection,
    InfeasibleStart,
    NotStable,
    NotStrictlyProper,
    StalledLineSearch,
)
from .norms import (
    h2_norm_sq,
    is_certified_stable,
    is_hurwitz,
    peak_frobenius,
    sigma_max_profile,
)
from .stabilization import closed_loop_triple, loop_abscissa, parameter_poles, parameter_statespace
from .stabilization import controller_from_parameter  # noqa: F401  (traced per layer by pipebench)
from .statespace import (
    StateSpace,
    blockdiag_systems,
    compose_lft,
    identity_system,
    log_grid,
    validate_grid,
)
from .youla_constraint import (
    MEMBERSHIP_TOL,
    SampledBasis,
    YoulaParameter,
    membership_qhat,
    project_direction,
    quadratic_form,
    restore_feasibility,
    tangent_subspace,
)

#: Number of step halvings the line search tries before giving up.
MAX_LINE_SEARCH_HALVINGS = 30

#: Default number of points in the automatically chosen descent grid.
DEFAULT_GRID_POINTS = 33

#: Amplitude ratio (-40 dB) defining the weight bandwidth for that grid.
BANDWIDTH_DROP = 1e-2


# -- problem assembly --------------------------------------------------------


@dataclass
class SynthesisProblem:
    """The weighted closed loop ``bold_t0 + bold_t1 Q bold_t2`` on a grid.

    ``generator`` is the weighted Youla generator
    ``diag(W_out, I) [[T0, T1], [T2, 0]] diag(W_in, I)``; :meth:`loop`
    closes its lower port with a parameter of ``parameter_shape``.  Of
    its states [w_out, x, e, w_in], those before ``split`` realize
    ``bold_t1 = W_out T1`` exactly and the rest ``bold_t2 = T2 W_in``.
    ``poles`` is the generator's spectrum (W_out, A + B2 F, A + L C2,
    W_in); Q is the only path from the later states to the earlier, so
    the loop's is that and Q's (:meth:`loop_poles`).  The cost is the
    squared H2 norm of the loop.  The hatted samples, taken on first use,
    fold the outer factors into its quadratic expansion: ``T1* T0 T2*``
    drives the linear term, ``T1* T1`` and ``T2 T2*`` the quadratic one,
    and the gradient is ``2(T1* T0 T2* + T1* T1 Q T2 T2*)`` on ``grid``.
    Only descent reads ``cd``; validation reads ``mp``/``cf``, and the
    H-infinity evaluation the Schur form their gains carry.
    """

    generator: StateSpace
    parameter_shape: tuple
    split: int
    grid: np.ndarray
    poles: np.ndarray
    mp: object = None
    cf: object = None
    cd: object = None

    @property
    def _outer(self):
        """Outer widths of the weighted generator: W_out outputs, W_in inputs."""
        rows, cols = self.parameter_shape
        return self.generator.n_outputs - cols, self.generator.n_inputs - rows

    @property
    def bold_t0(self):
        nz, nw = self._outer
        return self.generator.select(rows=slice(0, nz), cols=slice(0, nw))

    @property
    def bold_t1(self):
        g, k, (nz, nw) = self.generator, self.split, self._outer
        return StateSpace(g.a[:k, :k], g.b[:k, nw:], g.c[:nz, :k], g.d[:nz, nw:])

    @property
    def bold_t2(self):
        g, k, (nz, nw) = self.generator, self.split, self._outer
        return StateSpace(g.a[k:, k:], g.b[k:, :nw], g.c[nz:, k:], g.d[nz:, :nw])

    def loop(self, q):
        """The weighted loop at ``q``: the generator's lower port closed by it."""
        qss, (rows, cols) = parameter_statespace(q), self.parameter_shape
        if qss.shape != (rows, cols):
            raise DimensionMismatch(
                f"parameter block {qss.shape} does not fit slots {(rows, cols)}"
            )
        return compose_lft(self.generator, qss, n_meas=cols, n_ctrl=rows)

    def loop_poles(self, q_poles):
        """The spectrum of :meth:`loop` at a parameter with spectrum ``q_poles``."""
        return np.concatenate([self.poles, q_poles])

    @cached_property
    def hat_samples(self):
        """Samples of ``T1* T0 T2*``, ``T1* T1`` and ``T2 T2*`` on ``grid``.

        T0, T1 and T2 are the weighted blocks ``bold_t0/1/2``.  On the
        axis the adjoint is the pointwise conjugate transpose, so all
        three come from those blocks' responses.
        """
        t0, t1, t2 = (t.response(self.grid) for t in (self.bold_t0, self.bold_t1, self.bold_t2))
        t1h, t2h = t1.conj().swapaxes(1, 2), t2.conj().swapaxes(1, 2)
        return t1h @ t0 @ t2h, t1h @ t1, t2 @ t2h

    @cached_property
    def cd_samples(self):
        """Grid responses of the constraint coefficients."""
        return self.cd.samples(self.grid)


def _prepare_weight(w, width, name):
    """Normalize one weight (default/scalar tiling, stability); return it and its poles."""
    if w is None:
        return identity_system(width), np.zeros(0, dtype=np.complex128)
    if not isinstance(w, StateSpace):
        raise TypeError(f"{name} must be a StateSpace (or None for identity)")
    poles = np.linalg.eigvals(w.a)
    if not is_hurwitz(poles):
        raise NotStable(f"{name} must be a stable weight")
    if w.shape == (1, 1) and width != 1:
        return blockdiag_systems([w] * width), np.tile(poles, width)
    return w, poles


def default_descent_grid(w_out, w_in):
    """Log grid of ``DEFAULT_GRID_POINTS`` over the -40 dB bandwidth of the weights.

    The bandwidth is measured on the scalar profile
    ``sigma_max(w_out) * sigma_max(w_in)`` over a wide probe range; flat
    (e.g. static) weights therefore fall back to the full probe span.
    """
    probe = log_grid(1e-4, 1e4, 241)
    prof = sigma_max_profile(w_out, probe) * sigma_max_profile(w_in, probe)
    peak = prof.max()
    if peak <= 0.0:
        raise DegenerateWeights(
            "weights w_out and w_in have identically zero response; "
            "no default grid spans their bandwidth"
        )
    keep = np.flatnonzero(prof >= peak * BANDWIDTH_DROP)
    lo, hi = probe[keep[0]], probe[keep[-1]]
    if hi <= lo:
        hi = lo * 10.0
    return log_grid(lo, hi, DEFAULT_GRID_POINTS)


def evaluation_problem(mp, cf, w_in=None, w_out=None, grid=None, cd=None):
    """Wrap the Youla generator of ``(mp, cf)`` in stable weights.

    A missing weight is the identity and a scalar one is tiled across
    the channels; a missing grid spans the weights' bandwidth.  No
    strict-properness gate applies: a supremum norm tolerates
    feedthrough, so static (including identity) weights are legitimate
    for norm evaluation.  The quadratic cost adds its gate in
    :func:`assemble_problem`.
    """
    w_out, out_poles = _prepare_weight(w_out, mp.out_perf, "w_out")
    w_in, in_poles = _prepare_weight(w_in, mp.in_exo, "w_in")
    if w_out.n_inputs != mp.out_perf:
        raise DimensionMismatch(
            f"w_out acts on {w_out.n_inputs} channels, loop emits {mp.out_perf}"
        )
    if w_in.n_outputs != mp.in_exo:
        raise DimensionMismatch(
            f"w_in feeds {w_in.n_outputs} channels, loop accepts {mp.in_exo}"
        )

    generator = (
        blockdiag_systems([w_out, identity_system(mp.out_meas)])
        @ closed_loop_triple(mp, cf)
        @ blockdiag_systems([w_in, identity_system(mp.in_ctrl)])
    )
    if grid is None:
        empty = "n_z" if not mp.out_perf else "n_r" if not mp.in_exo else None
        if empty:
            raise DegenerateWeights(f"partition block {empty} is empty, so no default grid "
                                    "spans the loop's response; give the document a grid section")
        grid = default_descent_grid(w_out, w_in)
    return SynthesisProblem(
        generator=generator,
        parameter_shape=(mp.in_ctrl, mp.out_meas),
        split=w_out.n_states + mp.full.n_states,
        grid=validate_grid(np.asarray(grid, dtype=np.float64)),
        poles=np.concatenate([out_poles, cf.gains.f_poles, cf.gains.l_poles, in_poles]),
        mp=mp,
        cf=cf,
        cd=cd,
    )


def assemble_problem(mp, cf, cd, w_in=None, w_out=None, grid=None):
    """The weighted loop of :func:`evaluation_problem`, gated for the H2 cost.

    The cost is finite only when the weighted loop is strictly proper for
    every parameter in the basis family, which requires the constant term
    of the weighted map itself to vanish and at least one of the two
    affine factors to lose its feedthrough.  Violations raise
    :class:`NotStrictlyProper` here, at assembly, rather than deep inside
    a norm computation.  Feedthrough blocks no larger than 1e-9 are
    stripped from the generator, and the constraint data must fit the
    parameter slots.
    """
    sp = evaluation_problem(mp, cf, w_in=w_in, w_out=w_out, grid=grid, cd=cd)
    nz, nw = sp._outer
    d = sp.generator.d.copy()
    blocks = (np.s_[:nz, :nw], np.s_[:nz, nw:], np.s_[nz:, :nw])
    d0, d1, d2 = (float(np.abs(d[blk]).max(initial=0.0)) for blk in blocks)
    if d0 > 1e-9:
        raise NotStrictlyProper(
            f"weighted map keeps feedthrough |D| = {d0:.3e}; "
            "use strictly proper weights"
        )
    if min(d1, d2) > 1e-9:
        raise NotStrictlyProper(
            "both affine factors keep feedthrough "
            f"({d1:.3e}, {d2:.3e}); parameter directions would not stay H2"
        )
    if (cd.width, cd.width) != sp.parameter_shape:
        raise DimensionMismatch(
            f"constraint blocks are {(cd.width, cd.width)}, "
            f"parameter slots are {sp.parameter_shape}"
        )
    for blk, size in zip(blocks, (d0, d1, d2)):
        if size <= 1e-9:
            d[blk] = 0.0
    g = sp.generator
    return replace(sp, generator=StateSpace(g.a, g.b, g.c, d))


# -- cost and gradient -------------------------------------------------------


def cost(sp, q):
    """Squared H2 norm of the weighted loop at parameter ``q`` (Gramian).

    Closes the weighted generator with ``q`` (:meth:`SynthesisProblem.loop`,
    a basis parameter or a realization) and solves one Lyapunov
    equation; exact up to linear-algebra roundoff.
    """
    return h2_norm_sq(sp.loop(q), sp.loop_poles(parameter_poles(q)))


def gradient(sp, q_w):
    """Cost-gradient samples ``2(T1* T0 T2* + T1* T1 Q T2 T2*)`` on ``sp.grid``.

    ``q_w`` holds the parameter's values on ``sp.grid``.  Returned as an
    ``(n_omega, rows, cols)`` array; pairing a coefficient direction
    against these samples (real trace inner product per point, summed
    over the grid) gives the directional derivative of the grid-sampled
    quadratic cost.
    """
    hat0_w, hat1_w, hat2_w = sp.hat_samples
    return 2.0 * (hat0_w + hat1_w @ q_w @ hat2_w)


# -- descent -----------------------------------------------------------------


@dataclass(frozen=True)
class DescentConfig:
    """Knobs for the projected-gradient loop.

    ``correction_period`` sets how often (in iterations) the candidate is
    pulled back onto the constraint set before being scored; ``0``
    disables scheduled pull-backs, leaving only the safety pull-back that
    fires when a trial drifts past ten times ``constraint_tol``.
    """

    alpha0: float = 1.0
    backtrack_ratio: float = 0.5
    max_iters: int = 200
    grad_tol: float = 1e-8
    constraint_tol: float = 1e-6
    correction_period: int = 5

    def __post_init__(self):
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")
        if not 0.0 < self.backtrack_ratio < 1.0:
            raise ValueError("backtrack_ratio must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol < 0.0 or self.constraint_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.correction_period < 0:
            raise ValueError("correction_period must be nonnegative")


@dataclass(frozen=True)
class DescentTrace:
    """Per-iteration history of the descent, as parallel arrays.

    Each row describes one completed iteration: the accepted cost, the
    RMS gradient and projected-step magnitudes over the grid, the
    constraint residual of the accepted iterate, and the accepted step
    size.  A terminating row (gradient below tolerance, nothing stepped)
    carries ``alpha = 0``.
    """

    iteration: np.ndarray
    cost: np.ndarray
    grad_norm: np.ndarray
    step_norm: np.ndarray
    constraint_residual: np.ndarray
    alpha: np.ndarray

    def __len__(self):
        return int(self.iteration.size)

    @classmethod
    def from_records(cls, records):
        cols = list(zip(*records)) if records else [[]] * 6
        return cls(
            iteration=np.asarray(cols[0], dtype=np.int64),
            cost=np.asarray(cols[1], dtype=np.float64),
            grad_norm=np.asarray(cols[2], dtype=np.float64),
            step_norm=np.asarray(cols[3], dtype=np.float64),
            constraint_residual=np.asarray(cols[4], dtype=np.float64),
            alpha=np.asarray(cols[5], dtype=np.float64),
        )

    def rows(self):
        """Yield plain-tuple rows (iter, E, grad, step, residual, alpha)."""
        for k in range(len(self)):
            yield (
                int(self.iteration[k]),
                float(self.cost[k]),
                float(self.grad_norm[k]),
                float(self.step_norm[k]),
                float(self.constraint_residual[k]),
                float(self.alpha[k]),
            )


def _rms(samples):
    """Root-mean-square Frobenius magnitude over the grid axis."""
    return float(np.sqrt(np.mean(np.sum(np.abs(samples) ** 2, axis=(1, 2)))))


def descend(sp, q_init, cfg):
    """Projected-gradient descent of the weighted H2 cost.

    Each iteration projects the gradient samples onto the tangent
    subspace of the quadratic constraint at the current iterate, then
    backtracks (Armijo with plain decrease) along the negative projected
    direction.  Feasibility is maintained two ways: any trial whose
    residual drifts past ten times the constraint tolerance is pulled
    back before being scored, and every ``correction_period`` iterations
    the accepted point is tightened by a Gauss-Newton pull-back — adopted
    only when it does not raise the cost, so the recorded sequence stays
    non-increasing while the residual stays inside the hard bound.

    What no iteration changes is built once: the basis matrix on the grid
    with its Jacobian pieces (:class:`~.youla_constraint.SampledBasis`)
    and the constraint samples.  Each trial's loop is the generator
    closed by it (:meth:`SynthesisProblem.loop`).

    Returns the final parameter and a :class:`DescentTrace`.

    Raises
    ------
    InfeasibleStart
        When ``q_init`` violates the constraint beyond tolerance.
    StalledLineSearch
        When thirty halvings produce no decrease.
    """
    if not isinstance(q_init, YoulaParameter):
        raise TypeError("descent iterates over basis coefficients")
    if q_init.shape != sp.parameter_shape:
        raise DimensionMismatch(
            f"parameter block {q_init.shape} does not fit slots {sp.parameter_shape}"
        )

    cd_samples = sp.cd_samples
    basis = SampledBasis.of(q_init, sp.grid)
    restore_tol = max(1e-12, 1e-2 * cfg.constraint_tol)
    safety = 10.0 * cfg.constraint_tol

    q_cur = q_init
    res_cur = peak_frobenius(quadratic_form(cd_samples, q_cur.sample(basis.matrix)))
    if res_cur > cfg.constraint_tol:
        raise InfeasibleStart(
            f"initial constraint residual {res_cur:.3e} exceeds "
            f"tolerance {cfg.constraint_tol:.3e}"
        )
    e_cur = cost(sp, q_cur)

    records = []
    alpha_seed = cfg.alpha0
    for k in range(cfg.max_iters):
        grad_w = gradient(sp, q_cur.sample(basis.matrix))
        grad_norm = _rms(grad_w)
        w_samples = tangent_subspace(cd_samples, q_cur, basis)
        direction = project_direction(w_samples, basis, grad_w)
        proj_norm = _rms(direction.sample(basis.matrix))
        if proj_norm <= cfg.grad_tol:
            records.append((k, e_cur, grad_norm, 0.0, res_cur, 0.0))
            break

        alpha = alpha_seed
        accepted = None
        for _ in range(MAX_LINE_SEARCH_HALVINGS + 1):
            cand = YoulaParameter(
                q_cur.basis_pole, q_cur.coeffs - alpha * direction.coeffs
            )
            cand_res = peak_frobenius(quadratic_form(cd_samples, cand.sample(basis.matrix)))
            if cand_res > safety:
                cand, cand_res = restore_feasibility(
                    cd_samples, cand, basis, tol=restore_tol
                )
            e_cand = cost(sp, cand)
            if e_cand < e_cur:
                accepted = (cand, cand_res, e_cand, alpha)
                break
            alpha *= cfg.backtrack_ratio
        if accepted is None:
            raise StalledLineSearch(
                f"no cost decrease after {MAX_LINE_SEARCH_HALVINGS} halvings "
                f"at iteration {k} (E = {e_cur:.6e})"
            )
        q_cur, res_cur, e_cur, alpha = accepted
        due = cfg.correction_period > 0 and (k + 1) % cfg.correction_period == 0
        if due and res_cur > restore_tol:
            q_tight, res_tight = restore_feasibility(
                cd_samples, q_cur, basis, tol=restore_tol
            )
            e_tight = cost(sp, q_tight)
            if e_tight <= e_cur:
                q_cur, res_cur, e_cur = q_tight, res_tight, e_tight
        records.append((k, e_cur, grad_norm, alpha * proj_norm, res_cur, alpha))
        alpha_seed = min(cfg.alpha0, alpha / cfg.backtrack_ratio)

    return q_cur, DescentTrace.from_records(records)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisVerdict:
    """Outcome of post-descent validation.

    Bundles the full membership verdict for the final parameter, whose
    ``controller`` is the emitted controller, with an independent
    internal-stability certificate (margin 1e-9) of the physical loop that
    controller closes.  The abscissa is the parts' (exact at structural
    order, a bound for the minimal controller); no controller: False, inf.
    """

    membership: object
    closed_loop_stable: bool
    closed_loop_abscissa: float

    @property
    def ok(self):
        return bool(self.membership.in_qhat and self.closed_loop_stable)


def validate_result(sp, q_final, tol=MEMBERSHIP_TOL):
    """Re-verify a descent result from scratch.

    Runs the full membership battery on ``q_final`` and, independently,
    closes the physical loop with the controller it assembled and
    certifies the interconnection matrix Hurwitz with margin 1e-9.
    """
    verdict = membership_qhat(sp.cf, q_final, tol=tol)
    stable, abscissa = False, np.inf
    if verdict.controller is not None:
        try:
            loop = compose_lft(
                sp.mp.full, verdict.controller, n_meas=sp.mp.out_meas, n_ctrl=sp.mp.in_ctrl
            )
        except IllPosedInterconnection:
            pass
        else:
            stable = is_certified_stable(loop.a, 1e-9)
            abscissa = loop_abscissa(sp.cf, parameter_poles(q_final))
    return SynthesisVerdict(
        membership=verdict,
        closed_loop_stable=stable,
        closed_loop_abscissa=float(abscissa),
    )
