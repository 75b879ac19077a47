"""Matrix-free Krylov solvers for the quadratic inner loop.

Two iteration loops share one reporting contract:

* pcg     B-preconditioned CG on (B^-1 + S) x = b, S SPD, that never
          applies B^-1 (derivation below).  In 4D-Var it runs the primal
          system, S = G^T R^-1 G (IS4D-Var); through rpcg the restricted
          B-preconditioned CG (RBL4D-Var); and, through dual_cg_rhalf, the
          Kalman-gain solves on (G B G^T + R) w = d preconditioned by R^-1
* fcg     flexible CG (Notay 2000) on the primal system whose
          preconditioner may change from one iteration to the next (an
          inexact inner solve): every new direction is A-orthogonalized
          against all earlier ones, and no B^-1 is applied

pcg stops on the preconditioned residual norm sqrt(r^T B r) relative to
its initial value, so iteration-count comparisons between its routes are
meaningful.  A changing preconditioner defines no fixed norm, so fcg stops
on the Euclidean residual norm relative to its initial value.  Once the
Krylov space is exhausted r^T B r is rounding noise and may come out
negative: pcg reads a value within the convergence threshold,
r^T B r >= -(tol pre_0)^2, as zero, and raises below it.

Reports: a SolveReport holds the solution and one cost row and one
residual norm per iterate, the initial one included; no solver keeps its
iterates.  Costs come from the recurrences (A x is updated with the same
axpys as x), never from extra operator applications.  pcg records the
quadratic 1/2 x^T A x - b^T x unless given another cost callable, which
it hands A x, B^-1 x and B r beside x: that callable is how a caller sees
each iterate.  A solve truncated at maxit = k ends bitwise on the k-th
iterate (fcg: given the same preconditioner).  fcg records the quadratic through its step decrements,
q_k = q_{k-1} - (p^T r)^2 / (2 p^T A p), so its record never rises, not
even by a rounding error.  rpcg records rows (Jb, Jo) of the primal cost
J(B G^T chi) = Jb + Jo at the observation-space iterate chi, with
Jb = 1/2 chi^T H chi and Jo = 1/2 (H chi - d)^T R^-1 (H chi - d),
H = G B G^T.

pcg derivation sketch (Derber & Rosati, J. Phys. Oceanogr. 1989;
Gurol et al., QJRMS 2014): B-preconditioned CG on A = B^-1 + S starts
from p_0 = z_0 = B r_0, so q_0 = B^-1 p_0 = r_0, and every later direction
p <- z + beta p with z = B r has B^-1 p = r + beta q.  Carrying q that way,

    A p   = q + S p
    x     <- x + alpha p,   B^-1 x <- B^-1 x + alpha q

so an iteration costs one S apply (one TL and one AD sweep) and one B
apply, iterations + 1 B applies per solve in all, and no B^-1 apply.
With reorthogonalization the residual is reorthogonalized before z = B r
is formed, which keeps B^-1 p = r + beta q exact.  The dual system is the
same iteration with B := R^-1 and S := H: R^-1 preconditions, R w is
carried, and an iteration costs one H apply and one R^-1 apply.

rpcg is pcg in observation space (Gurol et al., QJRMS 2014).  With
H = G B G^T the roles are

    S := R^-1,   B := H (one AD sweep, one B apply, one TL sweep),
    b := R^-1 d,

so pcg solves (H^-1 + R^-1) x = R^-1 d, whose solution is x = H chi with
(H + R) chi = d, and the B^-1 x it carries is chi itself.  An iteration
costs one H apply and one R^-1 apply, and the solve one more of each for
the initial residual plus one AD sweep and one B apply for
x_control = B G^T chi.  The cost rows need no further apply:
Jb = 1/2 chi^T (H chi), and b - A x + chi = R^-1 (d - H chi) gives
Jo = -1/2 (H chi - d)^T (b - A x + chi).

fcg derivation sketch: pcg's bookkeeping without a fixed
preconditioner.  The preconditioner hands back B^-1 z with every
z = M_k r_k; the domain-decomposed one computes M r = B s, so B^-1 z = s
costs nothing.  The direction

    p = z - sum_j c_j p_j,    c_j = (A p_j, z) / (p_j, A p_j),

is a combination of z and the earlier directions, so with q_j = B^-1 p_j

    q     = B^-1 z - sum_j c_j q_j,    A p = q + S p,
    x     <- x + alpha p,   B^-1 x <- B^-1 x + alpha q,

and an iteration costs one S apply and one preconditioner apply, with no
B^-1 apply.  The final Jb = 1/2 x^T B^-1 x needs none either.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearOperator",
    "SolveReport",
    "SolverBreakdownError",
    "dual_cg_rhalf",
    "fcg",
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
    """The solution, and one cost row and one residual norm per iterate
    (iterations + 1 of each); x_control is rpcg's B G^T chi."""

    solver: str
    x: np.ndarray
    residual_norms: np.ndarray
    costs: np.ndarray
    iterations: int
    converged: bool
    x_control: np.ndarray = None
    binv_x: np.ndarray = None  # pcg, fcg: B^-1 x, carried by the recurrence

    def __post_init__(self):
        self.residual_norms = np.asarray(self.residual_norms, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if not (len(self.costs) == len(self.residual_norms)
                == self.iterations + 1):
            raise ValueError("want one cost row and one norm per iterate")
        if not np.all(np.isfinite(self.residual_norms)):
            raise ValueError("non-finite residual norms in solve report")


def _quadratic(b):
    def q(x, ax, *carried):
        return 0.5 * np.vdot(x, ax) - np.vdot(b, x)
    return q


def pcg(h, b, b_cov, tol=1e-10, maxit=None, reorthogonalize=False,
        cost=None, name="pcg"):
    """B-preconditioned CG on (B^-1 + h) x = b with no B^-1 apply.

    h is the SPD operator S of the derivation above; b_cov needs only
    apply.  Stops on sqrt(r^T B r) relative drop.  cost, when given, is
    called as cost(x, A x, B^-1 x, B r) at every iterate; the
    default records the quadratic 1/2 x^T A x - b^T x.  report.binv_x
    holds B^-1 x.
    """
    h = _as_operator(h)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = 10 * n if maxit is None else int(maxit)
    if cost is None:
        cost = _quadratic(b)

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
    costs = [cost(x, ax, binv_x, z)]
    if pre0 == 0.0:
        return SolveReport(name, x, pre_norms, costs, 0, True,
                           binv_x=binv_x)

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
        # within the convergence threshold a negative r'Br is rounding
        # noise of an exhausted Krylov space, and reads as zero
        if rz_new < -(tol * pre0) ** 2:
            raise SolverBreakdownError("indefinite preconditioner", k)
        pre = np.sqrt(max(rz_new, 0.0))
        pre_norms.append(pre)
        costs.append(cost(x, ax, binv_x, z))
        if pre <= tol * pre0:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        q = r + beta * q
        rz = rz_new
    return SolveReport(name, x, pre_norms, costs, k, converged,
                       binv_x=binv_x)


def fcg(h, b, precond, tol=1e-10, maxit=None, name="fcg"):
    """Flexible CG on (B^-1 + h) x = b with a variable preconditioner and
    no B^-1 apply.

    h is the SPD operator S of the derivations above.  precond(r) returns
    (z, B^-1 z) for its approximation z of A^-1 r, and may change from one
    call to the next.  Each direction is the preconditioned residual
    A-orthogonalized against every earlier direction (no truncation), so
    each step minimizes the quadratic over all directions so far and the
    cost falls monotonically.  One h apply and one preconditioner apply
    per iteration; stops on ||r_k|| <= tol ||r_0||, or unconverged at a
    direction whose computed curvature p'Ap is nonpositive.  That happens
    only at rounding level: the carried B^-1 p is exact only up to the
    rounding of the preconditioner's B apply, so once the residual has
    stalled at rounding level the A-orthogonalized direction can be all
    rounding error, and a tol below that level ends there.  report.binv_x
    holds B^-1 x.
    """
    h = _as_operator(h)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = 10 * n if maxit is None else int(maxit)

    x = np.zeros(n)
    binv_x = np.zeros(n)
    r = b.copy()
    res0 = np.linalg.norm(r)
    norms = [res0]
    costs = [0.0]
    if res0 == 0.0:
        return SolveReport(name, x, norms, costs, 0, True,
                           binv_x=binv_x)

    dirs = []
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        p, q = precond(r)  # q = B^-1 p
        for pj, qj, apj, papj in dirs:
            c = np.vdot(apj, p) / papj
            p -= c * pj
            q -= c * qj
        ap = q + h.apply(p)
        pap = np.vdot(p, ap)
        if pap <= 0:
            # every exact direction has p'Ap > 0: this one has sunk below
            # the accuracy of the carried B^-1 p, and no step along it
            # lowers the quadratic
            k -= 1
            break
        pr = np.vdot(p, r)
        alpha = pr / pap
        x += alpha * p
        binv_x += alpha * q
        r -= alpha * ap
        dirs.append((p, q, ap, pap))
        res = np.linalg.norm(r)
        norms.append(res)
        costs.append(costs[-1] - 0.5 * pr * pr / pap)
        if res <= tol * res0:
            converged = True
            break
    return SolveReport(name, x, norms, costs, k, converged,
                       binv_x=binv_x)


def dual_cg_rhalf(gbg_t, d, r_cov, tol=1e-10, maxit=None,
                  name="dual_cg_rhalf"):
    """CG on (G B G^T + R) w = d with R^-1 preconditioning: pcg with
    h = G B G^T and B := R^-1, so R w is carried and R never applied.
    Records pcg's default quadratic; report.x holds w.
    """
    d = np.asarray(d, dtype=float)
    r_inv = LinearOperator((d.size, d.size), r_cov.apply_inv)
    return pcg(gbg_t, d, r_inv, tol=tol, maxit=maxit, name=name)


def _obs_hessian(g_op, b_cov):
    """H = G B G^T: one AD and one TL sweep per apply."""
    m = g_op.shape[0]
    return LinearOperator(
        (m, m), lambda w: g_op.apply(b_cov.apply(g_op.apply_t(w))))


def rpcg(g_op, b_cov, r_cov, d, tol=1e-10, maxit=None, reorthogonalize=False):
    """Restricted B-preconditioned CG, carried in observation space: pcg
    with S := R^-1, B := G B G^T and right-hand side R^-1 d.

    g_op maps control space to observation space (apply) and back
    (apply_t).  The report is pcg's relabelled: x holds chi and
    x_control the control-space solution B G^T chi.
    """
    g_op = _as_operator(g_op)
    d = np.asarray(d, dtype=float)
    m = d.size
    rinv_d = r_cov.apply_inv(d)

    def rows(h_chi, ax, chi, z):
        # pcg's iterate is H chi and the B^-1 x it carries is chi
        return (0.5 * np.vdot(chi, h_chi),
                -0.5 * np.vdot(h_chi - d, rinv_d - ax + chi))

    rep = pcg(LinearOperator((m, m), r_cov.apply_inv), rinv_d,
              _obs_hessian(g_op, b_cov), tol=tol, maxit=maxit,
              reorthogonalize=reorthogonalize, cost=rows)
    chi = rep.binv_x
    return SolveReport("rpcg", chi, rep.residual_norms, rep.costs,
                       rep.iterations, rep.converged,
                       x_control=b_cov.apply(g_op.apply_t(chi)))
