"""Global incremental 4D-Var: cost, gradient, analyses, outer loop.

The quadratic subproblem at a fixed linearization is

    J(dz) = 1/2 dz^T B^-1 dz + 1/2 (G dz - d)^T R^-1 (G dz - d)

over the control vector dz (initial state, per-window forcing, per-window
boundary increments).  G composes the tangent-linear model sweep with the
observation sampler; its exact transpose is one adjoint sweep.  Two
closed-form routes to the minimizer are kept side by side,

    primal:  (B^-1 + G^T R^-1 G) dz = G^T R^-1 d
    dual:    dz = B G^T w,  (G B G^T + R) w = d

and must agree; acceptance checks hold them to 1e-8 of each other.
SOLVERS names the two Krylov routes of the paper: is4dvar runs
B-preconditioned CG on the primal system (krylov.pcg), and rbl4dvar runs
the same pcg recurrence carried in observation space, the restricted
B-preconditioned CG (krylov.rpcg: pcg with R^-1 as the operator and
G B G^T as B), whose iterate converges to w.  The Kalman-gain applies
solve the dual system by R^-1-preconditioned CG (krylov.dual_cg_rhalf),
pcg once more.  All three share pcg's stopping and breakdown rules.

The incremental outer loop relinearizes about the accumulated increment,
recomputes innovations, and minimizes again.  The primal route solves for
the correction dz with the background term shifted by the accumulated
increment; rbl4dvar solves for the total increment against the shifted
innovation d + G z_accum.  Both report the same total cost, so history
rows are comparable across solver choices.

History rows (outer, inner, J, Jb, Jo) come from the Krylov recurrences,
not from extra sweeps or covariance applies: both routes run
krylov.pcg, which carries the residual r = b - A x and B^-1 x by the same
axpys as its iterate x and hands them to a cost callable at every
iterate.  rbl4dvar takes its (Jb, Jo) rows from rpcg's callable.  J is
pcg's quadratic -1/2 x^T (b + r) plus the constant
1/2 d^T R^-1 d + 1/2 z_accum^T B^-1 z_accum,
Jb = 1/2 z_accum^T B^-1 z_accum + x^T B^-1 z_accum + 1/2 x^T B^-1 x takes
B^-1 z_accum from the right-hand-side shift, and Jo = J - Jb.  The shift
is the sum of the B^-1 x that pcg carried in the earlier outer loops, so
no route applies B^-1.  A primal outer loop therefore costs one TL and
one AD sweep and one B apply per inner iteration, plus one AD sweep and
one B apply; any outer loop costs at most two sweeps of each kind beyond
its inner iterations.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .krylov import LinearOperator, _obs_hessian, dual_cg_rhalf, pcg, rpcg
from .model import ModelDivergedError
from .observations import innovations

__all__ = [
    "AnalysisNotConverged",
    "AnalysisResult",
    "AssimilationProblem",
    "CostBreakdown",
    "TangentObsOperator",
    "cost",
    "dual_analysis",
    "gradient",
    "kalman_gain_adjoint_apply",
    "kalman_gain_apply",
    "primal_analysis",
]

SOLVERS = ("is4dvar", "rbl4dvar")


class AnalysisNotConverged(RuntimeError):
    pass


@dataclass(frozen=True)
class CostBreakdown:
    J: float
    Jb: float
    Jo: float

    def __post_init__(self):
        if self.Jb < 0 or self.Jo < 0:
            raise ValueError(f"negative cost terms Jb={self.Jb} Jo={self.Jo}")
        if abs(self.J - (self.Jb + self.Jo)) > 1e-12 * max(self.J, 1.0):
            raise ValueError("J must equal Jb + Jo")


class TangentObsOperator:
    """G: control increments -> observation space, about a fixed trajectory.

    tl_states runs the tangent-linear sweep into one array of levels,
    adding at each step the forcing and boundary increments that
    ControlLayout.views assigns to it; forward samples those levels at
    the observations.  adjoint_levels is the exact transpose of
    tl_states: one backward sweep that adds seeds[l] at level l and
    accumulates into the window segments of one control vector through
    the same views.  adjoint seeds it with the observation
    weights scattered onto the levels, and the impact sensitivity seeds
    it with a functional's weights.  Both sweeps use one step operator per
    level, built once from the trajectory, and one model step call per
    step.
    """

    def __init__(self, model, traj, windows, obs, layout):
        self.model = model
        self.traj = getattr(traj, "states", traj)
        self.obs = obs
        self.layout = layout
        if len(self.traj) != windows.n_steps + 1:
            raise ValueError("trajectory does not cover the windows")
        self.steps = [model.linearize(x) for x in self.traj[:-1]]

    @property
    def shape(self):
        return (self.obs.n_obs, self.layout.n_z)

    def tl_states(self, dz_flat):
        """The tangent-linear levels, an array (n_steps + 1, nf, nx, ny)."""
        x0, forcing, boundary = self.layout.views(dz_flat)
        levels = np.empty((len(self.steps) + 1,) + x0.shape)
        levels[0] = x0
        for l, (op, df, db) in enumerate(
                zip(self.steps, forcing, boundary or repeat(None)), start=1):
            levels[l] = self.model.step_tl(op, levels[l - 1], df=df, db=db)
        return levels

    def forward(self, dz_flat):
        return self.obs.sample(self.tl_states(dz_flat))

    def adjoint_levels(self, seeds):
        """The transpose of tl_states applied to seeds, an array shaped like
        its levels: one backward sweep adding seeds[l] at level l."""
        out = np.zeros(self.layout.n_z)
        x0, forcing, boundary = self.layout.views(out)
        p = seeds[len(self.steps)]
        for l in range(len(self.steps), 0, -1):
            p, df_star, db_star = self.model.step_ad(self.steps[l - 1], p)
            forcing[l - 1] += df_star
            if db_star is not None:
                boundary[l - 1] += db_star
            p += seeds[l - 1]
        x0 += p
        return out

    def adjoint(self, w):
        return self.adjoint_levels(self.obs.scatter(
            w, len(self.steps) + 1, self.model.n_fields))

    def as_linear_operator(self):
        return LinearOperator(self.shape, self.forward, self.adjoint)


def cost(dz, d, b_cov, r_cov, g_op):
    """Quadratic cost of a (total) increment against innovations d."""
    dz = np.asarray(dz, dtype=float)
    if dz.shape != (g_op.shape[1],):
        raise ValueError(f"control vector must have length {g_op.shape[1]}, "
                         f"got shape {dz.shape}")
    jb = 0.5 * np.vdot(dz, b_cov.apply_inv(dz))
    misfit = g_op.apply(dz) - d
    jo = 0.5 * np.vdot(misfit, r_cov.apply_inv(misfit))
    return CostBreakdown(J=jb + jo, Jb=jb, Jo=jo)


def gradient(dz, d, b_cov, r_cov, g_op):
    """grad J = B^-1 dz + G^T R^-1 (G dz - d): one TL and one AD sweep."""
    dz = np.asarray(dz, dtype=float)
    misfit = g_op.apply(dz) - d
    return b_cov.apply_inv(dz) + g_op.apply_t(r_cov.apply_inv(misfit))


def _gauss_newton(g_op, r_cov):
    """G^T R^-1 G: one TL and one AD sweep per apply."""
    n = g_op.shape[1]
    return LinearOperator(
        (n, n), lambda v: g_op.apply_t(r_cov.apply_inv(g_op.apply(v))))


def _check_converged(rep, require):
    if require and not rep.converged:
        raise AnalysisNotConverged(
            f"{rep.solver} stopped after {rep.iterations} iterations with "
            f"relative residual {rep.residual_norms[-1] / rep.residual_norms[0]:.3e}")
    return rep


def primal_analysis(g_op, b_cov, r_cov, d, tol=1e-10, maxit=None,
                    require_convergence=True):
    """Solve (B^-1 + G^T R^-1 G) dz = G^T R^-1 d by pcg (no B^-1 apply)."""
    rhs = g_op.apply_t(r_cov.apply_inv(np.asarray(d, dtype=float)))
    rep = pcg(_gauss_newton(g_op, r_cov), rhs, b_cov, tol=tol, maxit=maxit,
              name="is4dvar")
    return _check_converged(rep, require_convergence)


def _primal_rows(rhs, jo0, z_bar, shift):
    """pcg cost callable for the rows (Jb, Jo) of J(z_bar + x).

    With shift = -B^-1 z_bar, jo0 = 1/2 d^T R^-1 d and pcg's quadratic
    q(x) = 1/2 x^T A x - rhs^T x = -1/2 x^T (rhs + r), r = rhs - A x,

        J  = q + jo0 + 1/2 z_bar^T B^-1 z_bar
        Jb = 1/2 z_bar^T B^-1 z_bar - x^T shift + 1/2 x^T B^-1 x
    """
    jb0 = -0.5 * np.vdot(z_bar, shift)

    def row(x, r, binv_x):
        jb = jb0 - np.vdot(x, shift) + 0.5 * np.vdot(x, binv_x)
        q = -0.5 * np.vdot(x, rhs + r)
        return jb, q + jo0 + jb0 - jb
    return row


def dual_analysis(g_op, b_cov, r_cov, d, tol=1e-10, maxit=None,
                  require_convergence=True):
    """Observation-space analysis dz = B G^T (G B G^T + R)^-1 d by rpcg;
    report.x_control holds dz."""
    rep = rpcg(g_op, b_cov, r_cov, d, tol=tol, maxit=maxit)
    return _check_converged(rep, require_convergence)


def kalman_gain_apply(g_op, b_cov, r_cov, d, tol=1e-10):
    """K d with K = B G^T (G B G^T + R)^-1."""
    rep = dual_cg_rhalf(_obs_hessian(g_op, b_cov), d, r_cov, tol=tol,
                        name="kalman")
    return b_cov.apply(g_op.apply_t(_check_converged(rep, True).x))


def kalman_gain_adjoint_apply(g_op, b_cov, r_cov, v, tol=1e-10):
    """K^T v = (G B G^T + R)^-1 G B v, an observation-space vector."""
    rhs = g_op.apply(b_cov.apply(np.asarray(v, dtype=float)))
    rep = dual_cg_rhalf(_obs_hessian(g_op, b_cov), rhs, r_cov, tol=tol,
                        name="kalman_adjoint")
    return _check_converged(rep, True).x


@dataclass
class AnalysisResult:
    delta_z: np.ndarray
    history: list
    reports: list
    n_outer: int

    @property
    def final_cost(self):
        return self.history[-1][2]


class AssimilationProblem:
    """Model, covariances and observations bound into one 4D-Var problem."""

    def __init__(self, model, windows, layout, b_cov, r_cov, obs, x_b):
        theirs = b_cov.layout
        if (theirs.names, theirs.sizes) != (layout.names, layout.sizes):
            raise ValueError(
                f"control covariance segments {theirs.names} of sizes "
                f"{theirs.sizes} do not match the layout's {layout.names} "
                f"of sizes {layout.sizes}")
        if r_cov.n != obs.n_obs:
            raise ValueError("observation covariance order does not match set")
        self.model = model
        self.windows = windows
        self.layout = layout
        self.b_cov = b_cov
        self.r_cov = r_cov
        self.obs = obs
        self.x_b = np.asarray(x_b, dtype=float)
        self.background_traj = self.run_with_increment(np.zeros(layout.n_z))

    def run_with_increment(self, z_flat):
        """Nonlinear run from x_b with the increment's forcing/boundary."""
        x0, forcing, boundary = self.layout.views(z_flat)
        traj = self.model.run_nl(self.x_b + x0, forcing=forcing,
                                 boundary=boundary,
                                 n_steps=self.windows.n_steps)
        return traj.states

    def operator_about(self, traj):
        return TangentObsOperator(self.model, traj, self.windows, self.obs,
                                  self.layout).as_linear_operator()

    @cached_property
    def background_tangent(self):
        """The TangentObsOperator about the background trajectory, built on
        first use and shared by every later caller."""
        return TangentObsOperator(self.model, self.background_traj,
                                  self.windows, self.obs, self.layout)

    def background_operator(self):
        return self.background_tangent.as_linear_operator()

    def background_innovations(self):
        return innovations(self.background_traj, self.obs)

    def cost(self, dz, d=None, g_op=None):
        g_op = g_op if g_op is not None else self.background_operator()
        d = d if d is not None else self.background_innovations()
        return cost(dz, d, self.b_cov, self.r_cov, g_op)

    def gradient(self, dz, d=None, g_op=None):
        g_op = g_op if g_op is not None else self.background_operator()
        d = d if d is not None else self.background_innovations()
        return gradient(dz, d, self.b_cov, self.r_cov, g_op)

    def primal_analysis(self, d=None, **kw):
        g_op = self.background_operator()
        d = d if d is not None else self.background_innovations()
        return primal_analysis(g_op, self.b_cov, self.r_cov, d, **kw)

    def incremental_outer_loop(self, n_outer, n_inner, solver="is4dvar",
                               tol=1e-10):
        """Relinearize, re-innovate, minimize; repeat n_outer times."""
        if n_outer < 1 or n_inner < 1:
            raise ValueError("n_outer and n_inner must be >= 1")
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}, pick from {SOLVERS}")
        z_bar = np.zeros(self.layout.n_z)
        binv_bar = np.zeros(self.layout.n_z)  # B^-1 z_bar, from pcg
        history = []
        reports = []
        for outer in range(1, n_outer + 1):
            # the first outer loop linearizes about the background
            if outer == 1:
                traj = self.background_traj
                gop = self.background_operator()
            else:
                try:
                    traj = self.run_with_increment(z_bar)
                except ModelDivergedError as exc:
                    raise RuntimeError(
                        f"model diverged while relinearizing outer iteration "
                        f"{outer}") from exc
                gop = self.operator_about(traj)
            d = innovations(traj, self.obs)
            if solver == "is4dvar":
                # the background term about z_bar shifts the right-hand side
                shift = -binv_bar
                rinv_d = self.r_cov.apply_inv(d)
                rhs = gop.apply_t(rinv_d) + shift
                jo0 = 0.5 * np.vdot(d, rinv_d)
                rep = pcg(_gauss_newton(gop, self.r_cov), rhs, self.b_cov,
                          tol=tol, maxit=n_inner,
                          cost=_primal_rows(rhs, jo0, z_bar, shift),
                          name="is4dvar")
                rows = rep.costs
                z_new = z_bar + rep.x
                binv_bar = binv_bar + rep.binv_x
            else:
                d_tilde = d + gop.apply(z_bar) if z_bar.any() else d
                rep = dual_analysis(gop, self.b_cov, self.r_cov, d_tilde,
                                    tol=tol, maxit=n_inner,
                                    require_convergence=False)
                rows = rep.costs
                z_new = rep.x_control
            for m, (jb, jo) in enumerate(rows):
                history.append((outer, m, jb + jo, jb, jo))
            reports.append(rep)
            z_bar = z_new
        return AnalysisResult(delta_z=z_bar, history=history,
                              reports=reports, n_outer=n_outer)
