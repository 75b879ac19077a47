"""Matrix-free Krylov solvers for the quadratic inner loop.

Six solvers share one reporting contract:

* pcg             preconditioned conjugate gradient on an SPD system
* bpcg            B-preconditioned CG on the primal system (B^-1 + S) x = b,
                  S SPD (S = G^T R^-1 G in 4D-Var), that never applies
                  B^-1 (derivation below)
* fcg             flexible CG (Notay 2000) on an SPD system whose
                  preconditioner may change from one iteration to the next
                  (an inexact inner solve): every new direction is
                  A-orthogonalized against all earlier ones
* dual_cg_rhalf   CG on the observation-space system (GBG^T + R) w = d,
                  preconditioned by R^{-1} (the R^{-1/2}-scaled CG)
* minres / minres_dual   Paige-Saunders MINRES, same preconditioning
* rpcg            the restricted B-preconditioned CG: the primal
                  B-preconditioned iteration carried entirely in
                  observation space

All solvers but fcg stop on the preconditioned residual norm relative to
its initial value, so iteration-count comparisons between them are
meaningful.  A changing preconditioner defines no fixed norm, so fcg stops
on the Euclidean residual norm relative to its initial value.
pcg's norm is sqrt(r^T M r) and bpcg's sqrt(r^T B r); rpcg's is
sqrt(rho^T G B G^T rho), which is algebraically the same number as the
primal B-preconditioned norm, so rpcg, bpcg and B-preconditioned pcg stop
at the same iteration in exact arithmetic.

Costs: report.costs has one entry per stored iterate, taken from the
recurrences (A x is updated with the same axpys as x), never from extra
operator applications.  pcg and minres record the quadratic
1/2 x^T A x - b^T x unless given another cost callable; fcg records it
through its step decrements, q_k = q_{k-1} - (p^T r)^2 / (2 p^T A p), so
its record never rises, not even by a rounding error.  bpcg carries A x
and B^-1 x by the same axpys as x and hands all three to its cost
callable, so a primal cost row needs no B^-1 apply.  The dual routes
(dual_cg_rhalf, minres_dual, rpcg) record rows (Jb, Jo) of the primal cost
J(B G^T w) = Jb + Jo at the observation-space iterate w, with
Jb = 1/2 w^T H w and Jo = 1/2 (H w - d)^T R^-1 (H w - d), H = G B G^T.

rpcg derivation sketch: with x_k = B G^T chi_k, r_k = G^T rho_k and
p_k = B G^T pi_k, the B-preconditioned CG update collapses onto
observation-space vectors with H = G B G^T,

    alpha = (rho, H rho) / [(pi, H pi) + (H pi, R^-1 H pi)]
    chi   <- chi + alpha pi
    rho   <- rho - alpha (pi + R^-1 q),    q = H pi
    z     <- z - alpha (q + H R^-1 q),     z = H rho
    pi    <- rho + beta pi,  q <- z + beta q

so one H application per iteration (on R^-1 q) sustains the whole
iteration, and H chi follows by the same recurrence as chi, giving the
cost rows for free.

bpcg derivation sketch (Derber & Rosati, J. Phys. Oceanogr. 1989;
Gurol et al., QJRMS 2014): B-preconditioned CG on A = B^-1 + S starts
from p_0 = z_0 = B r_0, so q_0 = B^-1 p_0 = r_0, and every later direction
p <- z + beta p with z = B r has B^-1 p = r + beta q.  Carrying q that way,

    A p   = q + S p
    x     <- x + alpha p,   B^-1 x <- B^-1 x + alpha q

so an iteration costs one S apply (one TL and one AD sweep) and one B
apply, iterations + 1 B applies per solve in all, and no B^-1 apply.
With reorthogonalization the residual is reorthogonalized as in pcg
before z = B r is formed, which keeps B^-1 p = r + beta q exact.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearOperator",
    "SolveReport",
    "SolverBreakdownError",
    "bpcg",
    "dual_cg_rhalf",
    "fcg",
    "minres",
    "minres_dual",
    "pcg",
    "rpcg",
]


class SolverBreakdownError(RuntimeError):
    """Nonpositive curvature or indefinite preconditioner mid-solve."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


class LinearOperator:
    """Shape-checked wrapper around matvec callables."""

    def __init__(self, shape, matvec, rmatvec=None):
        self.shape = (int(shape[0]), int(shape[1]))
        self._matvec = matvec
        self._rmatvec = rmatvec

    @classmethod
    def from_matrix(cls, a):
        a = np.asarray(a, dtype=float)
        return cls(a.shape, lambda v: a @ v, lambda w: a.T @ w)

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise ValueError(f"operator expects length {self.shape[1]}, "
                             f"got shape {v.shape}")
        return self._matvec(v)

    def apply_t(self, w):
        if self._rmatvec is None:
            raise ValueError("operator has no transpose apply")
        w = np.asarray(w, dtype=float)
        if w.shape != (self.shape[0],):
            raise ValueError(f"transpose expects length {self.shape[0]}, "
                             f"got shape {w.shape}")
        return self._rmatvec(w)


def _as_operator(a):
    if isinstance(a, LinearOperator):
        return a
    if isinstance(a, np.ndarray):
        return LinearOperator.from_matrix(a)
    raise TypeError(f"expected LinearOperator or ndarray, got {type(a)}")


@dataclass
class SolveReport:
    solver: str
    x: np.ndarray
    iterates: list
    residual_norms: np.ndarray
    costs: np.ndarray
    iterations: int
    converged: bool
    x_control: np.ndarray = None

    def __post_init__(self):
        self.residual_norms = np.asarray(self.residual_norms, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if len(self.iterates) != self.iterations + 1:
            raise ValueError("iterate history length must be iterations+1")
        if not np.all(np.isfinite(self.residual_norms)):
            raise ValueError("non-finite residual norms in solve report")


def _default_maxit(n, maxit):
    return 10 * n if maxit is None else int(maxit)


def _quadratic(b):
    def q(x, ax):
        return 0.5 * np.vdot(x, ax) - np.vdot(b, x)
    return q


def pcg(a, b, precond=None, tol=1e-10, maxit=None, reorthogonalize=False,
        cost=None, name="pcg"):
    """Preconditioned CG for SPD a; stops on sqrt(r^T M r) relative drop."""
    a = _as_operator(a)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = _default_maxit(n, maxit)
    apply_m = (lambda v: v.copy()) if precond is None else precond.apply
    if cost is None:
        cost = _quadratic(b)

    x = np.zeros(n)
    ax = np.zeros(n)
    r = b.copy()
    z = apply_m(r)
    rz = np.vdot(r, z)
    if rz < 0:
        raise SolverBreakdownError("indefinite preconditioner", 0)
    pre0 = np.sqrt(rz)
    pre_norms = [pre0]
    costs = [cost(x, ax)]
    iterates = [x.copy()]
    if pre0 == 0.0:
        return SolveReport(name, x, iterates, pre_norms, costs, 0, True)

    p = z.copy()
    basis = []
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        if reorthogonalize:
            basis.append((r.copy(), z.copy(), rz))
        ap = a.apply(p)
        pap = np.vdot(p, ap)
        if pap <= 0:
            raise SolverBreakdownError("nonpositive curvature p^T A p", k)
        alpha = rz / pap
        x += alpha * p
        ax += alpha * ap
        r -= alpha * ap
        if reorthogonalize:
            for rj, zj, rzj in basis:
                r -= (np.vdot(zj, r) / rzj) * rj
        z = apply_m(r)
        rz_new = np.vdot(r, z)
        if rz_new < 0:
            raise SolverBreakdownError("indefinite preconditioner", k)
        pre = np.sqrt(rz_new)
        pre_norms.append(pre)
        costs.append(cost(x, ax))
        iterates.append(x.copy())
        if pre <= tol * pre0:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return SolveReport(name, x, iterates, pre_norms, costs, k, converged)


def bpcg(h, b, b_cov, tol=1e-10, maxit=None, reorthogonalize=False,
         cost=None, name="bpcg"):
    """B-preconditioned CG on (B^-1 + h) x = b with no B^-1 apply.

    h is the SPD operator S of the derivation above; b_cov needs only
    apply.  Stops on sqrt(r^T B r) relative drop, like pcg with
    precond=b_cov.  cost, when given, is called as cost(x, A x, B^-1 x) at
    every stored iterate; the default records the quadratic
    1/2 x^T A x - b^T x.
    """
    h = _as_operator(h)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = _default_maxit(n, maxit)
    if cost is None:
        quadratic = _quadratic(b)

        def cost(x, ax, binv_x):
            return quadratic(x, ax)

    x = np.zeros(n)
    ax = np.zeros(n)
    binv_x = np.zeros(n)
    r = b.copy()
    z = b_cov.apply(r)
    rz = np.vdot(r, z)
    if rz < 0:
        raise SolverBreakdownError("indefinite preconditioner", 0)
    pre0 = np.sqrt(rz)
    pre_norms = [pre0]
    costs = [cost(x, ax, binv_x)]
    iterates = [x.copy()]
    if pre0 == 0.0:
        return SolveReport(name, x, iterates, pre_norms, costs, 0, True)

    p = z.copy()
    q = r.copy()  # B^-1 p, since p_0 = B r_0
    basis = []
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        if reorthogonalize:
            basis.append((r.copy(), z.copy(), rz))
        ap = q + h.apply(p)
        pap = np.vdot(p, ap)
        if pap <= 0:
            raise SolverBreakdownError("nonpositive curvature p^T A p", k)
        alpha = rz / pap
        x += alpha * p
        ax += alpha * ap
        binv_x += alpha * q
        r -= alpha * ap
        if reorthogonalize:
            for rj, zj, rzj in basis:
                r -= (np.vdot(zj, r) / rzj) * rj
        z = b_cov.apply(r)
        rz_new = np.vdot(r, z)
        if rz_new < 0:
            raise SolverBreakdownError("indefinite preconditioner", k)
        pre = np.sqrt(rz_new)
        pre_norms.append(pre)
        costs.append(cost(x, ax, binv_x))
        iterates.append(x.copy())
        if pre <= tol * pre0:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        q = r + beta * q
        rz = rz_new
    return SolveReport(name, x, iterates, pre_norms, costs, k, converged)


def fcg(a, b, precond=None, tol=1e-10, maxit=None, name="fcg"):
    """Flexible CG for SPD a with a variable preconditioner.

    Each direction is the preconditioned residual A-orthogonalized against
    every earlier direction (no truncation), so each step minimizes the
    quadratic over all directions so far and the cost falls monotonically.
    One a apply and one preconditioner apply per iteration; stops on
    ||r_k|| <= tol ||r_0||.
    """
    a = _as_operator(a)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = _default_maxit(n, maxit)
    apply_m = (lambda v: v.copy()) if precond is None else precond.apply

    x = np.zeros(n)
    r = b.copy()
    res0 = np.linalg.norm(r)
    norms = [res0]
    costs = [0.0]
    iterates = [x.copy()]
    if res0 == 0.0:
        return SolveReport(name, x, iterates, norms, costs, 0, True)

    dirs = []
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        p = apply_m(r)
        for pj, apj, papj in dirs:
            p -= (np.vdot(apj, p) / papj) * pj
        ap = a.apply(p)
        pap = np.vdot(p, ap)
        if pap <= 0:
            raise SolverBreakdownError("nonpositive curvature p^T A p", k)
        pr = np.vdot(p, r)
        alpha = pr / pap
        x += alpha * p
        r -= alpha * ap
        dirs.append((p, ap, pap))
        res = np.linalg.norm(r)
        norms.append(res)
        costs.append(costs[-1] - 0.5 * pr * pr / pap)
        iterates.append(x.copy())
        if res <= tol * res0:
            converged = True
            break
    return SolveReport(name, x, iterates, norms, costs, k, converged)


def _jb_jo(r_cov, d, w, hw):
    """(Jb, Jo) of the primal cost at B G^T w, given H w."""
    misfit = hw - d
    return (0.5 * np.vdot(w, hw),
            0.5 * np.vdot(misfit, r_cov.apply_inv(misfit)))


def _dual_cost(r_cov, d):
    """(Jb, Jo) from the dual iterate, via Hw = Aw - Rw."""
    def jval(w, aw):
        return _jb_jo(r_cov, d, w, aw - r_cov.apply(w))
    return jval


def dual_cg_rhalf(dual_op, d, r_cov, tol=1e-10, maxit=None,
                  reorthogonalize=False, bg_t=None):
    """CG on (GBG^T + R) w = d with R^{-1} preconditioning.

    Costs record the primal (Jb, Jo) at B G^T w_k.  bg_t, when given, maps
    the final w to control space (B G^T w) and fills report.x_control.
    """
    n = np.asarray(d).size
    precond = LinearOperator((n, n), r_cov.apply_inv)
    rep = pcg(dual_op, d, precond=precond, tol=tol, maxit=maxit,
              reorthogonalize=reorthogonalize, cost=_dual_cost(r_cov, d),
              name="rbl4dvar")
    if bg_t is not None:
        rep.x_control = bg_t(rep.x)
    return rep


def minres(a, b, precond=None, tol=1e-10, maxit=None, cost=None, name="minres"):
    """Preconditioned MINRES (Paige-Saunders) for symmetric a.

    The preconditioner must be SPD; a may be indefinite.  Stops on the
    preconditioned residual estimate phibar relative to its initial value,
    which is monotone by construction.
    """
    a = _as_operator(a)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = _default_maxit(n, maxit)
    apply_m = (lambda v: v) if precond is None else precond.apply
    if cost is None:
        cost = _quadratic(b)

    x = np.zeros(n)
    ax = np.zeros(n)
    r1 = b.copy()
    y = apply_m(r1)
    beta1 = np.vdot(r1, y)
    if beta1 < 0:
        raise SolverBreakdownError("indefinite preconditioner", 0)
    beta1 = np.sqrt(beta1)
    pre_norms = [beta1]
    costs = [cost(x, ax)]
    iterates = [x.copy()]
    if beta1 == 0.0:
        return SolveReport(name, x, iterates, pre_norms, costs, 0, True)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    aw = np.zeros(n)
    aw2 = np.zeros(n)
    r2 = r1.copy()
    converged = False
    itn = 0
    for itn in range(1, maxit + 1):
        v = y / beta
        av = a.apply(v)
        y = av.copy()
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = np.vdot(v, y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = apply_m(r2)
        oldb = beta
        beta = np.vdot(r2, y)
        if beta < 0:
            raise SolverBreakdownError("indefinite preconditioner", itn)
        beta = np.sqrt(beta)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar**2 + beta**2), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        aw1 = aw2
        aw2 = aw
        w = (v - oldeps * w1 - delta * w2) / gamma
        aw = (av - oldeps * aw1 - delta * aw2) / gamma
        x = x + phi * w
        ax = ax + phi * aw
        pre_norms.append(abs(phibar))
        costs.append(cost(x, ax))
        iterates.append(x.copy())
        if abs(phibar) <= tol * beta1:
            converged = True
            break
    return SolveReport(name, x, iterates, pre_norms, costs, itn, converged)


def minres_dual(dual_op, d, r_cov, tol=1e-10, maxit=None, bg_t=None):
    """MINRES on the dual system with R^{-1} preconditioning."""
    n = np.asarray(d).size
    precond = LinearOperator((n, n), r_cov.apply_inv)
    rep = minres(dual_op, d, precond=precond, tol=tol, maxit=maxit,
                 cost=_dual_cost(r_cov, d), name="minres")
    if bg_t is not None:
        rep.x_control = bg_t(rep.x)
    return rep


def rpcg(g_op, b_cov, r_cov, d, tol=1e-10, maxit=None, reorthogonalize=False):
    """Restricted B-preconditioned CG, carried in observation space.

    g_op maps control space to observation space (apply) and back
    (apply_t).  The report's native vectors are the chi iterates with
    x_k = B G^T chi_k; report.x_control holds the final control-space
    solution.
    """
    g_op = _as_operator(g_op)
    d = np.asarray(d, dtype=float)
    n = d.size
    maxit = _default_maxit(n, maxit)

    def h_apply(v):
        return g_op.apply(b_cov.apply(g_op.apply_t(v)))

    chi = np.zeros(n)
    h_chi = np.zeros(n)
    rho = r_cov.apply_inv(d)
    z = h_apply(rho)
    rz = np.vdot(rho, z)
    if rz < 0:
        raise SolverBreakdownError("indefinite G B G^T", 0)
    pre0 = np.sqrt(rz)
    pre_norms = [pre0]
    costs = [_jb_jo(r_cov, d, chi, h_chi)]
    iterates = [chi.copy()]
    if pre0 == 0.0:
        return SolveReport("rpcg", chi, iterates, pre_norms, costs,
                           0, True, x_control=np.zeros(g_op.shape[1]))

    pi = rho.copy()
    q = z.copy()
    basis = []
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        rinv_q = r_cov.apply_inv(q)
        s = h_apply(rinv_q)
        curv = np.vdot(pi, q) + np.vdot(q, rinv_q)
        if curv <= 0:
            raise SolverBreakdownError("nonpositive curvature", k)
        alpha = rz / curv
        chi += alpha * pi
        h_chi += alpha * q
        rho_prev, z_prev = rho, z
        rho = rho - alpha * (pi + rinv_q)
        z = z - alpha * (q + s)
        if reorthogonalize:
            basis.append((rho_prev, z_prev, rz))
            for rj, zj, rzj in basis:
                c = np.vdot(zj, rho) / rzj
                rho -= c * rj
                z -= c * zj
        rz_new = np.vdot(rho, z)
        # once the Krylov space is exhausted rz_new is rounding noise and
        # may come out negative: within the convergence threshold it is zero
        if rz_new < -(tol * pre0) ** 2:
            raise SolverBreakdownError("indefinite G B G^T", k)
        pre = np.sqrt(max(rz_new, 0.0))
        pre_norms.append(pre)
        costs.append(_jb_jo(r_cov, d, chi, h_chi))
        iterates.append(chi.copy())
        if pre <= tol * pre0:
            converged = True
            break
        beta = rz_new / rz
        pi = rho + beta * pi
        q = z + beta * q
        rz = rz_new
    x_control = b_cov.apply(g_op.apply_t(chi))
    return SolveReport("rpcg", chi, iterates, pre_norms, costs,
                       k, converged, x_control=x_control)
