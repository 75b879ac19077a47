import numpy as np
import pytest

from ddvar.covariance import CovarianceR
from ddvar.krylov import (
    LinearOperator,
    SolverBreakdownError,
    bpcg,
    dual_cg_rhalf,
    fcg,
    minres,
    minres_dual,
    pcg,
    rpcg,
)


class DenseSpd:
    """Covariance-style wrapper over an explicit SPD matrix."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)

    @property
    def n(self):
        return self.mat.shape[0]

    def apply(self, v):
        return self.mat @ v

    def apply_inv(self, v):
        return np.linalg.solve(self.mat, v)


def random_spd(n, rng, spread=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(spread * rng.uniform(-1, 1, n))
    return (q * ev) @ q.T


def make_instance(n_z, n_obs, seed):
    rng = np.random.default_rng(seed)
    b = random_spd(n_z, rng)
    g = rng.standard_normal((n_obs, n_z))
    rvar = rng.uniform(0.2, 1.5, n_obs)
    d = rng.standard_normal(n_obs)
    return b, g, rvar, d


def primal_solution(b, g, rvar, d):
    a = np.linalg.inv(b) + g.T @ (g / rvar[:, None])
    return np.linalg.solve(a, g.T @ (d / rvar))


def test_pcg_identity_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    rep = pcg(np.eye(3), b)
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x, b, rtol=1e-14)


def test_pcg_diagonal_two_iterations():
    rep = pcg(np.diag([2.0, 1.0]), np.array([2.0, 1.0]), tol=1e-13)
    assert rep.iterations <= 2
    np.testing.assert_allclose(rep.x, [1.0, 1.0], rtol=1e-12)


def test_pcg_matches_direct_solve():
    rng = np.random.default_rng(20)
    a = random_spd(30, rng, spread=2.0)
    b = rng.standard_normal(30)
    rep = pcg(a, b, tol=1e-12)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(rep.x - ref) / np.linalg.norm(ref) <= 1e-9
    assert rep.converged
    # quadratic cost history nonincreasing (1e-12 slack)
    assert np.all(np.diff(rep.costs) <= 1e-12 * max(1.0, abs(rep.costs[0])))
    assert len(rep.iterates) == rep.iterations + 1


def test_pcg_zero_rhs():
    rep = pcg(np.eye(4), np.zeros(4))
    assert rep.iterations == 0 and rep.converged
    assert np.all(rep.x == 0.0)


def test_pcg_breakdown_on_indefinite():
    with pytest.raises(SolverBreakdownError, match="iteration 1"):
        pcg(np.diag([1.0, -1.0]), np.array([0.0, 1.0]))


class ApplyOnlySpd(DenseSpd):
    """A covariance stub that counts its applies and cannot apply its
    inverse."""

    applies = 0

    def apply(self, v):
        self.applies += 1
        return super().apply(v)

    def apply_inv(self, v):
        raise AssertionError("bpcg applied B^-1")


@pytest.mark.parametrize("reorthogonalize", [False, True])
def test_bpcg_matches_dense_solve_and_pcg_without_b_inverse(reorthogonalize):
    """bpcg on (B^-1 + S) x = b equals the dense solve and B-preconditioned
    pcg on the assembled matrix; it applies B once per iteration plus once,
    and never B^-1.  Its carried A x and B^-1 x are the true products."""
    rng = np.random.default_rng(29)
    b_mat = random_spd(24, rng, spread=2.0)
    g = rng.standard_normal((9, 24))
    s_mat = g.T @ g
    rhs = rng.standard_normal(24)
    b_cov = ApplyOnlySpd(b_mat)
    seen = []

    def cost(x, ax, binv_x):
        seen.append((x.copy(), ax.copy(), binv_x.copy()))
        return 0.5 * np.vdot(x, ax) - np.vdot(rhs, x)

    rep = bpcg(LinearOperator.from_matrix(s_mat), rhs, b_cov, tol=1e-12,
               reorthogonalize=reorthogonalize, cost=cost)
    a = np.linalg.inv(b_mat) + s_mat
    ref = np.linalg.solve(a, rhs)
    assert rep.converged
    assert np.linalg.norm(rep.x - ref) <= 1e-9 * np.linalg.norm(ref)
    assert b_cov.applies == rep.iterations + 1
    rep_p = pcg(a, rhs, precond=DenseSpd(b_mat), tol=1e-12,
                reorthogonalize=reorthogonalize)
    assert np.linalg.norm(rep.x - rep_p.x) <= 1e-9 * np.linalg.norm(ref)
    assert abs(rep.iterations - rep_p.iterations) <= 1
    # the preconditioned residual norms agree above the rounding floor
    m = min(rep.iterations, rep_p.iterations) + 1
    above = rep_p.residual_norms[:m] > 1e-8 * rep_p.residual_norms[0]
    np.testing.assert_allclose(rep.residual_norms[:m][above],
                               rep_p.residual_norms[:m][above], rtol=1e-6)
    for x, ax, binv_x in seen:
        assert np.linalg.norm(binv_x - np.linalg.solve(b_mat, x)) \
            <= 1e-9 * np.linalg.norm(np.linalg.solve(b_mat, ref))
        assert np.linalg.norm(ax - a @ x) <= 1e-9 * np.linalg.norm(a @ ref)
    # the default record is the quadratic, as in pcg
    default = bpcg(LinearOperator.from_matrix(s_mat), rhs, b_cov, tol=1e-12,
                   reorthogonalize=reorthogonalize)
    np.testing.assert_array_equal(default.costs, rep.costs)


def test_bpcg_zero_rhs_and_breakdown():
    rep = bpcg(np.eye(3), np.zeros(3), ApplyOnlySpd(np.eye(3)))
    assert rep.iterations == 0 and rep.converged
    assert np.all(rep.x == 0.0)
    with pytest.raises(SolverBreakdownError, match="iteration 1"):
        bpcg(np.diag([-4.0, 0.0]), np.array([1.0, 0.0]),
             ApplyOnlySpd(np.eye(2)))


def test_operator_linearity_probe():
    rng = np.random.default_rng(21)
    op = LinearOperator.from_matrix(rng.standard_normal((7, 5)))
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    lhs = op.apply(2.0 * u - 3.0 * v)
    rhs = 2.0 * op.apply(u) - 3.0 * op.apply(v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        op.apply(np.zeros(7))


def test_dual_cg_scalar_case():
    r = CovarianceR([1.0])
    dual = LinearOperator((1, 1), lambda w: 3.0 * w)  # GBG^T + R = 2 + 1
    rep = dual_cg_rhalf(dual, np.array([3.0]), r, bg_t=lambda w: 2.0 * w)
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x, [1.0], rtol=1e-14)
    np.testing.assert_allclose(rep.x_control, [2.0], rtol=1e-14)
    # (Jb, Jo) rows: J at w=0 is 0.5 d^T R^-1 d; at the solution
    # Jb = 0.5 w H w = 1 and Jo = 0.5 (H w - d)^2 = 0.5
    assert rep.costs.shape == (2, 2)
    assert rep.costs[0, 0] == 0.0
    assert rep.costs[0, 1] == pytest.approx(4.5, rel=1e-14)
    assert rep.costs[-1, 0] == pytest.approx(1.0, rel=1e-13)
    assert rep.costs[-1, 1] == pytest.approx(0.5, rel=1e-13)
    assert rep.costs[-1].sum() == pytest.approx(1.5, rel=1e-13)


def test_dual_cg_matches_primal_direct():
    b, g, rvar, d = make_instance(24, 9, seed=22)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    hmat = g @ b @ g.T + np.diag(rvar)
    rep = dual_cg_rhalf(LinearOperator.from_matrix(hmat), d, rc, tol=1e-12,
                        bg_t=lambda w: b @ (g.T @ w))
    ref = primal_solution(b, g, rvar, d)
    assert np.linalg.norm(rep.x_control - ref) / np.linalg.norm(ref) <= 1e-8


def test_minres_identity_and_zero():
    rep = minres(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x, [1.0, 2.0, 3.0], rtol=1e-12)
    rep0 = minres(np.eye(3), np.zeros(3))
    assert rep0.iterations == 0 and rep0.converged


def test_minres_indefinite_system():
    a = np.diag([1.0, -1.0, 2.0])
    b = np.array([1.0, 3.0, 4.0])
    rep = minres(a, b, tol=1e-12)
    np.testing.assert_allclose(rep.x, [1.0, -3.0, 2.0], rtol=1e-10)
    assert np.all(np.diff(rep.residual_norms) <= 1e-12 * rep.residual_norms[0])


def test_minres_dual_matches_cg():
    b, g, rvar, d = make_instance(20, 7, seed=23)
    rc = CovarianceR(rvar)
    hmat = g @ b @ g.T + np.diag(rvar)
    op = LinearOperator.from_matrix(hmat)
    bg_t = lambda w: b @ (g.T @ w)
    rep_m = minres_dual(op, d, rc, tol=1e-12, bg_t=bg_t)
    rep_c = dual_cg_rhalf(op, d, rc, tol=1e-12, bg_t=bg_t)
    assert np.linalg.norm(rep_m.x_control - rep_c.x_control) \
        <= 1e-8 * np.linalg.norm(rep_c.x_control)
    assert np.all(np.diff(rep_m.residual_norms)
                  <= 1e-12 * rep_m.residual_norms[0])


def test_rpcg_scalar_case():
    bc, rc = DenseSpd(np.array([[2.0]])), CovarianceR([1.0])
    g = LinearOperator.from_matrix(np.array([[1.0]]))
    rep = rpcg(g, bc, rc, np.array([3.0]))
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x_control, [2.0], rtol=1e-14)
    assert rep.costs[-1].sum() == pytest.approx(1.5, rel=1e-13)


def test_rpcg_tracks_primal_bpcg_exactly():
    b, g, rvar, d = make_instance(28, 10, seed=24)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    binv = np.linalg.inv(b)
    a_primal = binv + g.T @ (g / rvar[:, None])
    rhs = g.T @ (d / rvar)
    rep_p = pcg(LinearOperator.from_matrix(a_primal), rhs, precond=bc, tol=1e-10)
    rep_r = rpcg(LinearOperator.from_matrix(g), bc, rc, d, tol=1e-10)
    assert rep_p.iterations == rep_r.iterations
    jconst = 0.5 * np.vdot(d, d / rvar)
    jp = rep_p.costs + jconst
    scale = np.maximum(np.abs(jp), 1e-12)
    assert np.max(np.abs(jp - rep_r.costs.sum(axis=1)) / scale) <= 1e-8
    # the preconditioned residual norms agree until both hit rounding floor
    np.testing.assert_allclose(rep_r.residual_norms[:-1],
                               rep_p.residual_norms[:-1], rtol=1e-6)
    assert rep_r.residual_norms[-1] <= 1e-10 * rep_r.residual_norms[0]
    assert rep_p.residual_norms[-1] <= 1e-10 * rep_p.residual_norms[0]
    ref = primal_solution(b, g, rvar, d)
    assert np.linalg.norm(rep_r.x_control - ref) <= 1e-8 * np.linalg.norm(ref)


def test_rpcg_single_obs_converges_in_one():
    b, g, rvar, d = make_instance(16, 1, seed=25)
    rep = rpcg(LinearOperator.from_matrix(g), DenseSpd(b), CovarianceR(rvar),
               d, tol=1e-10)
    assert rep.iterations == 1 and rep.converged


def test_rpcg_zero_innovation():
    b, g, rvar, _ = make_instance(12, 4, seed=26)
    rep = rpcg(LinearOperator.from_matrix(g), DenseSpd(b), CovarianceR(rvar),
               np.zeros(4))
    assert rep.iterations == 0 and rep.converged
    assert np.all(rep.x_control == 0.0)


def test_rpcg_breakdown_on_indefinite_g_b_gt():
    """r'z = -0.18 of r0'z0 after one step: beyond the rounding band that
    counts as convergence, so it still raises."""
    g = LinearOperator.from_matrix(np.eye(2))
    with pytest.raises(SolverBreakdownError, match="indefinite.*iteration 1"):
        rpcg(g, DenseSpd(np.diag([1.0, -0.5])), CovarianceR([1.0, 1.0]),
             np.array([1.0, 1.0]))


def test_reorthogonalization_still_correct():
    rng = np.random.default_rng(27)
    a = random_spd(40, rng, spread=3.0)
    b = rng.standard_normal(40)
    rep = pcg(a, b, tol=1e-12, reorthogonalize=True)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(rep.x - ref) / np.linalg.norm(ref) <= 1e-9


def test_all_solvers_agree_on_one_instance():
    b, g, rvar, d = make_instance(32, 12, seed=28)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    hmat = g @ b @ g.T + np.diag(rvar)
    op = LinearOperator.from_matrix(hmat)
    bg_t = lambda w: b @ (g.T @ w)
    ref = primal_solution(b, g, rvar, d)
    sols = {
        "pcg": pcg(LinearOperator.from_matrix(
            np.linalg.inv(b) + g.T @ (g / rvar[:, None])),
            g.T @ (d / rvar), precond=bc, tol=1e-12).x,
        "rbl4dvar": dual_cg_rhalf(op, d, rc, tol=1e-12, bg_t=bg_t).x_control,
        "minres": minres_dual(op, d, rc, tol=1e-12, bg_t=bg_t).x_control,
        "rpcg": rpcg(LinearOperator.from_matrix(g), bc, rc, d, tol=1e-12).x_control,
    }
    for name, x in sols.items():
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-8, f"{name}: {err}"


def test_fcg_cost_record_is_the_quadratic_and_never_rises():
    """fcg's J comes from its step decrements: it equals 1/2 x'Ax - b'x at
    every iterate and never rises, also under a changing preconditioner
    and through the rounding-level steps at the end."""
    rng = np.random.default_rng(17)
    a = random_spd(30, rng, spread=3.0)
    b = rng.standard_normal(30)
    scales = iter(rng.uniform(0.5, 2.0, 200))
    precond = LinearOperator((30, 30), lambda v: next(scales) * v)
    rep = fcg(a, b, precond=precond, tol=1e-15, maxit=60)
    for x, j in zip(rep.iterates, rep.costs):
        q = 0.5 * x @ a @ x - b @ x
        assert abs(j - q) <= 1e-12 * abs(rep.costs[-1])
    assert all(j1 <= j0 for j0, j1 in zip(rep.costs, rep.costs[1:]))
    np.testing.assert_allclose(rep.x, np.linalg.solve(a, b), rtol=1e-10)
