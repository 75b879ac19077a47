"""Matrix-free Krylov solvers for the quadratic inner loop.

One iteration, pcg, runs every solve: preconditioned CG on
(B^-1 + S) x = b, S SPD, that never applies B^-1 (derivation below).  In
4D-Var it runs the primal system, S = G^T R^-1 G (IS4D-Var); through rpcg
the restricted B-preconditioned CG (RBL4D-Var); through dual_cg_rhalf the
Kalman-gain solves on (G B G^T + R) w = d preconditioned by R^-1; and,
with the domain-decomposed preconditioner, the DD solve.

Each new direction is the preconditioned residual z A-orthogonalized
against the kept earlier directions.  The depth says how many are kept:

* depth 1     the last one, with constant memory: CG with a fixed SPD
              preconditioner, for which z is A-orthogonal to the earlier
              directions in exact arithmetic.  The preconditioner is applied
              after every step, and the solve stops once the
              preconditioned residual norm sqrt(r^T z) has fallen to tol
              times its initial value, so iteration-count comparisons
              between the routes are meaningful.  Once the Krylov space
              is exhausted r^T z is rounding noise and may come out
              negative: a value within the convergence threshold,
              r^T z >= -(tol pre_0)^2, reads as zero, and one below it
              raises SolverBreakdownError, as does p^T A p <= 0.
* depth None  all of them: flexible CG (Notay, SISC 2000), whose
              preconditioner may change from one iteration to the next
              (an inexact inner solve) and so defines no fixed norm.  The
              solve stops on the Euclidean residual norm ||r|| relative to
              its initial value, taken before the preconditioner, so
              convergence costs no extra apply.  A direction whose
              computed p^T A p is nonpositive ends the solve unconverged:
              that happens only at rounding level, once the residual has
              stalled below the accuracy of the carried B^-1 p.

Reports: a SolveReport holds the solution and one cost row and one
residual norm per iterate, the initial one included; no solver keeps its
iterates.  A solve truncated at maxit = k ends bitwise on the k-th
iterate (a changing preconditioner given the same sequence).  The
default cost record is the quadratic 1/2 x^T A x - b^T x, taken from the
step decrements q_k = q_{k-1} - (p^T r)^2 / (2 p^T A p), so it never
rises, not even by a rounding error.  A cost callable, cost(x, r, B^-1 x),
sees each iterate with its residual r = b - A x and the B^-1 x the loop
carries, so rows come from the recurrence, never from extra operator
applications: the quadratic is -1/2 x^T (b + r).  rpcg records rows
(Jb, Jo) of the primal cost J(B G^T chi) = Jb + Jo at the
observation-space iterate chi, with Jb = 1/2 chi^T H chi and
Jo = 1/2 (H chi - d)^T R^-1 (H chi - d), H = G B G^T.

Derivation sketch (Derber & Rosati, J. Phys. Oceanogr. 1989; Gurol et
al., QJRMS 2014): the preconditioner hands back B^-1 z with every z.  For
the fixed B-preconditioner z = B r, so B^-1 z = r costs nothing; the
domain-decomposed one computes z = M r = B s, so B^-1 z = s.  The
direction

    p = z - sum_j c_j p_j,    c_j = (A p_j, z) / (p_j, A p_j),

is a combination of z and the kept directions, so with q_j = B^-1 p_j

    q     = B^-1 z - sum_j c_j q_j,    A p = q + S p,
    alpha = p^T r / p^T A p,
    x     <- x + alpha p,   B^-1 x <- B^-1 x + alpha q,   r <- r - alpha A p

and an iteration costs one S apply (one TL and one AD sweep) and one
preconditioner apply, with no B^-1 apply; a fixed-preconditioner solve
costs iterations + 1 B applies in all.  The dual system is the same
iteration with B := R^-1 and S := H: R^-1 preconditions, R w is carried,
and an iteration costs one H apply and one R^-1 apply.

rpcg is pcg in observation space (Gurol et al., QJRMS 2014).  With
H = G B G^T the roles are

    S := R^-1,   B := H (one AD sweep, one B apply, one TL sweep),
    b := R^-1 d,

so pcg solves (H^-1 + R^-1) x = R^-1 d, whose solution is x = H chi with
(H + R) chi = d, and the B^-1 x it carries is chi itself.  An iteration
costs one H apply and one R^-1 apply, and the solve one more of each for
the initial residual plus one AD sweep and one B apply for
x_control = B G^T chi.  The cost rows need no further apply:
Jb = 1/2 chi^T (H chi), and r + chi = R^-1 (d - H chi) gives
Jo = -1/2 (H chi - d)^T (r + chi).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearOperator",
    "SolveReport",
    "SolverBreakdownError",
    "dual_cg_rhalf",
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
    binv_x: np.ndarray = None  # pcg: B^-1 x, carried by the recurrence

    def __post_init__(self):
        self.residual_norms = np.asarray(self.residual_norms, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if not (len(self.costs) == len(self.residual_norms)
                == self.iterations + 1):
            raise ValueError("want one cost row and one norm per iterate")
        if not np.all(np.isfinite(self.residual_norms)):
            raise ValueError("non-finite residual norms in solve report")


def pcg(h, b, precond, tol=1e-10, maxit=None, depth=1, cost=None,
        name="pcg"):
    """B-preconditioned CG on (B^-1 + h) x = b with no B^-1 apply.

    h is the SPD operator S of the derivation above.  precond(r) returns
    (z, B^-1 z) for its approximation z of A^-1 r; a covariance B given in
    its place stands for the fixed r -> (B r, r).  Each direction is z
    A-orthogonalized against the last `depth` directions, all of them for
    depth None, which a preconditioner that changes from one call to the
    next needs.  The stopping and breakdown rules follow the depth (module
    docstring).  cost, when given, is called as cost(x, r, B^-1 x) at every
    iterate; the default records the quadratic 1/2 x^T A x - b^T x.
    report.binv_x holds B^-1 x.
    """
    h = _as_operator(h)
    b = np.asarray(b, dtype=float)
    n = b.size
    maxit = 10 * n if maxit is None else int(maxit)
    if not callable(precond):
        b_cov = precond
        precond = lambda r: (b_cov.apply(r), r)  # noqa: E731
    fixed = depth is not None

    x = np.zeros(n)
    binv_x = np.zeros(n)
    r = b.copy()
    costs = [0.0 if cost is None else cost(x, r, binv_x)]
    if fixed:
        z, binv_z = precond(r)
        rz = np.vdot(r, z)
        if rz < 0:
            raise SolverBreakdownError("indefinite preconditioner", 0)
        norm0 = np.sqrt(rz)
    else:
        norm0 = np.linalg.norm(r)
    norms = [norm0]
    if norm0 == 0.0:
        return SolveReport(name, x, norms, costs, 0, True, binv_x=binv_x)

    dirs = deque(maxlen=depth)  # (p, B^-1 p, A p, p^T A p)
    converged = False
    k = 0
    for k in range(1, maxit + 1):
        if not fixed:
            z, binv_z = precond(r)
        p, q = z, binv_z
        for pj, qj, apj, papj in dirs:
            c = np.vdot(apj, p) / papj
            p = p - c * pj
            q = q - c * qj
        ap = q + h.apply(p)
        pap = np.vdot(p, ap)
        if pap <= 0:
            if fixed:
                raise SolverBreakdownError("nonpositive curvature p^T A p", k)
            # every exact direction has p'Ap > 0: this one has sunk below
            # the accuracy of the carried B^-1 p, and no step along it
            # lowers the quadratic
            k -= 1
            break
        pr = np.vdot(p, r)
        alpha = pr / pap
        x += alpha * p
        binv_x += alpha * q
        # a new array, not an update in place: q may be the last r itself
        r = r - alpha * ap
        dirs.append((p, q, ap, pap))
        costs.append(costs[-1] - 0.5 * pr * pr / pap if cost is None
                     else cost(x, r, binv_x))
        if fixed:
            z, binv_z = precond(r)
            rz = np.vdot(r, z)
            # within the convergence threshold a negative r'Br is rounding
            # noise of an exhausted Krylov space, and reads as zero
            if rz < -(tol * norm0) ** 2:
                raise SolverBreakdownError("indefinite preconditioner", k)
            norm = np.sqrt(max(rz, 0.0))
        else:
            norm = np.linalg.norm(r)
        norms.append(norm)
        if norm <= tol * norm0:
            converged = True
            break
    return SolveReport(name, x, norms, costs, k, converged, binv_x=binv_x)


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


def rpcg(g_op, b_cov, r_cov, d, tol=1e-10, maxit=None):
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

    def rows(h_chi, r, chi):
        # pcg's iterate is H chi and the B^-1 x it carries is chi
        return (0.5 * np.vdot(chi, h_chi),
                -0.5 * np.vdot(h_chi - d, r + chi))

    rep = pcg(LinearOperator((m, m), r_cov.apply_inv), rinv_d,
              _obs_hessian(g_op, b_cov), tol=tol, maxit=maxit, cost=rows)
    chi = rep.binv_x
    return SolveReport("rpcg", chi, rep.residual_norms, rep.costs,
                       rep.iterations, rep.converged,
                       x_control=b_cov.apply(g_op.apply_t(chi)))
