import dataclasses
import tracemalloc

import numpy as np
import pytest

from ddvar.covariance import CovarianceR
from ddvar.krylov import (
    LinearOperator,
    SolverBreakdownError,
    dual_cg_rhalf,
    pcg,
    rpcg,
)
from util import record_pcg_iterates


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


class ApplyOnlySpd(DenseSpd):
    """A covariance stub that counts its applies and cannot apply its
    inverse."""

    applies = 0

    def apply(self, v):
        self.applies += 1
        return super().apply(v)

    def apply_inv(self, v):
        raise AssertionError("pcg applied B^-1")


def identity_cov(n):
    return DenseSpd(np.eye(n))


def test_pcg_identity_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    rep = pcg(np.zeros((3, 3)), b, identity_cov(3))
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x, b, rtol=1e-14)


def test_pcg_diagonal_two_iterations():
    # B^-1 + h = diag(2, 1)
    rep = pcg(np.diag([1.0, 0.0]), np.array([2.0, 1.0]), identity_cov(2),
              tol=1e-13)
    assert rep.iterations <= 2
    np.testing.assert_allclose(rep.x, [1.0, 1.0], rtol=1e-12)


def test_pcg_matches_direct_solve():
    rng = np.random.default_rng(20)
    a = random_spd(30, rng, spread=2.0)
    b = rng.standard_normal(30)
    # B = I: plain CG on a = B^-1 + (a - I)
    rep = pcg(a - np.eye(30), b, identity_cov(30), tol=1e-12)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(rep.x - ref) / np.linalg.norm(ref) <= 1e-9
    assert rep.converged
    # quadratic cost history nonincreasing (1e-12 slack)
    assert np.all(np.diff(rep.costs) <= 1e-12 * max(1.0, abs(rep.costs[0])))
    assert len(rep.costs) == len(rep.residual_norms) == rep.iterations + 1


def test_pcg_zero_rhs():
    rep = pcg(np.eye(4), np.zeros(4), ApplyOnlySpd(np.eye(4)))
    assert rep.iterations == 0 and rep.converged
    assert np.all(rep.x == 0.0) and np.all(rep.binv_x == 0.0)


def test_pcg_breakdown_on_indefinite():
    # B^-1 + h = diag(1, -1)
    with pytest.raises(SolverBreakdownError, match="iteration 1"):
        pcg(np.diag([0.0, -2.0]), np.array([0.0, 1.0]), identity_cov(2))
    with pytest.raises(SolverBreakdownError, match="iteration 1"):
        pcg(np.diag([-4.0, 0.0]), np.array([1.0, 0.0]),
            ApplyOnlySpd(np.eye(2)))


class BandedPreconditioner:
    """B = I on the first apply; every later apply returns a z with
    r'z = frac r0'z0, whatever r is."""

    def __init__(self, frac):
        self.frac = frac
        self.rz0 = None

    def apply(self, r):
        if self.rz0 is None:
            self.rz0 = r @ r
            return r.copy()
        return (self.frac * self.rz0 / (r @ r)) * r


def test_pcg_negative_r_b_r_band():
    """One breakdown rule for every pcg route: an r'Br a rounding step
    below zero (eps^2 of r0'z0, within (tol pre0)^2) is an exhausted
    Krylov space and stops converged with a zero norm; -0.18 r0'z0 raises."""
    h, b = np.diag([1.0, 3.0]), np.array([1.0, 1.0])
    eps = np.finfo(float).eps
    rep = pcg(h, b, BandedPreconditioner(-eps ** 2), tol=1e-10)
    assert rep.iterations == 1 and rep.converged
    assert rep.residual_norms[-1] == 0.0
    with pytest.raises(SolverBreakdownError,
                       match="indefinite preconditioner at iteration 1"):
        pcg(h, b, BandedPreconditioner(-0.18), tol=1e-10)


@pytest.mark.parametrize("depth", [1, None])
def test_pcg_matches_dense_solve_without_b_inverse(depth):
    """pcg on (B^-1 + S) x = b equals the dense solve at either depth; it
    applies B once per iteration, plus once for the initial residual at
    depth 1, and never B^-1.  The r and B^-1 x its cost callable sees are
    the true b - A x and B^-1 x, its norms are sqrt(r^T B r) (depth 1) or
    ||r|| (depth None) of the true residuals, and its default record is
    the quadratic 1/2 x^T A x - b^T x and never rises."""
    rng = np.random.default_rng(29)
    b_mat = random_spd(24, rng, spread=2.0)
    g = rng.standard_normal((9, 24))
    s_mat = g.T @ g
    a = np.linalg.inv(b_mat) + s_mat
    rhs = rng.standard_normal(24)
    b_cov = ApplyOnlySpd(b_mat)
    seen = []

    def cost(x, r, binv_x):
        seen.append((x.copy(), r.copy(), binv_x.copy()))
        return 0.5 * x @ a @ x - rhs @ x

    rep = pcg(LinearOperator.from_matrix(s_mat), rhs, b_cov, tol=1e-12,
              depth=depth, cost=cost)
    ref = np.linalg.solve(a, rhs)
    assert rep.converged
    assert np.linalg.norm(rep.x - ref) <= 1e-9 * np.linalg.norm(ref)
    assert b_cov.applies == rep.iterations + (depth == 1)
    np.testing.assert_array_equal(rep.binv_x, seen[-1][2])
    true_norms = []
    for x, r, binv_x in seen:
        assert np.linalg.norm(binv_x - np.linalg.solve(b_mat, x)) \
            <= 1e-9 * np.linalg.norm(np.linalg.solve(b_mat, ref))
        true_r = rhs - a @ x
        assert np.linalg.norm(r - true_r) <= 1e-9 * np.linalg.norm(rhs)
        true_norms.append(np.sqrt(true_r @ b_mat @ true_r) if depth == 1
                          else np.linalg.norm(true_r))
    # the residual norms agree above the rounding floor
    true_norms = np.array(true_norms)
    above = true_norms > 1e-8 * true_norms[0]
    np.testing.assert_allclose(rep.residual_norms[above], true_norms[above],
                               rtol=1e-6)
    # the default record is the quadratic, to rounding, and never rises
    default = pcg(LinearOperator.from_matrix(s_mat), rhs, b_cov, tol=1e-12,
                  depth=depth)
    np.testing.assert_allclose(default.costs, rep.costs, rtol=0,
                               atol=1e-12 * abs(rep.costs[-1]))
    assert np.all(np.diff(default.costs) <= 0)


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
    h = LinearOperator((1, 1), lambda w: 2.0 * w)  # GBG^T = 2, R = 1
    rep = dual_cg_rhalf(h, np.array([3.0]), r)
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x, [1.0], rtol=1e-14)
    # the quadratic 1/2 w (H + R) w - d w: 0 at w = 0, -1.5 at w = 1
    np.testing.assert_allclose(rep.costs, [0.0, -1.5], rtol=1e-14)


def test_dual_cg_matches_primal_direct():
    b, g, rvar, d = make_instance(24, 9, seed=22)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    hmat = g @ b @ g.T
    rep = dual_cg_rhalf(LinearOperator.from_matrix(hmat), d, rc, tol=1e-12)
    ref = primal_solution(b, g, rvar, d)
    x = b @ (g.T @ rep.x)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-8


def test_rpcg_scalar_case():
    bc, rc = DenseSpd(np.array([[2.0]])), CovarianceR([1.0])
    g = LinearOperator.from_matrix(np.array([[1.0]]))
    rep = rpcg(g, bc, rc, np.array([3.0]))
    assert rep.iterations == 1 and rep.converged
    np.testing.assert_allclose(rep.x_control, [2.0], rtol=1e-14)
    assert rep.costs[-1].sum() == pytest.approx(1.5, rel=1e-13)


def test_rpcg_tracks_primal_pcg_exactly():
    b, g, rvar, d = make_instance(28, 10, seed=24)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    rhs = g.T @ (d / rvar)
    rep_p = pcg(LinearOperator.from_matrix(g.T @ (g / rvar[:, None])), rhs,
                bc, tol=1e-10)
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


def test_rpcg_rows_from_the_recurrence_match_direct_evaluation(
        monkeypatch):
    """The (Jb, Jo) rows rpcg takes from pcg's recurrence, with
    R^-1 (d - H chi) = r + chi, match the rows evaluated from each
    iterate chi, seen through pcg's cost hook, with a fresh H chi and
    R^-1 apply to 1e-10 relative."""
    b, g, rvar, d = make_instance(40, 24, seed=27)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    solves = record_pcg_iterates(monkeypatch)
    rep = rpcg(LinearOperator.from_matrix(g), bc, rc, d, tol=1e-12)
    assert rep.iterations > 10
    [seen] = solves
    assert len(seen) == len(rep.costs)
    h = g @ b @ g.T
    for (_, chi), row in zip(seen, rep.costs):
        misfit = h @ chi - d
        want = np.array([0.5 * chi @ h @ chi, 0.5 * misfit @ (misfit / rvar)])
        assert np.all(np.abs(row - want) <= 1e-10 * np.abs(want))


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
    """A full-depth solve with a fixed preconditioner, every direction
    A-orthogonalized against all earlier ones, solves a spread-out SPD
    system."""
    rng = np.random.default_rng(27)
    a = random_spd(40, rng, spread=3.0)
    b = rng.standard_normal(40)
    rep = pcg(a - np.eye(40), b, identity_cov(40), tol=1e-12, depth=None)
    assert rep.converged
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(rep.x - ref) / np.linalg.norm(ref) <= 1e-9


def test_all_solvers_agree_on_one_instance():
    b, g, rvar, d = make_instance(32, 12, seed=28)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    hmat = g @ b @ g.T
    ref = primal_solution(b, g, rvar, d)
    sols = {
        "pcg": pcg(LinearOperator.from_matrix(g.T @ (g / rvar[:, None])),
                   g.T @ (d / rvar), bc, tol=1e-12).x,
        "dual_cg_rhalf": b @ (g.T @ dual_cg_rhalf(
            LinearOperator.from_matrix(hmat), d, rc, tol=1e-12).x),
        "rpcg": rpcg(LinearOperator.from_matrix(g), bc, rc, d, tol=1e-12).x_control,
    }
    for name, x in sols.items():
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-8, f"{name}: {err}"


@pytest.mark.parametrize("depth", [1, None])
def test_pcg_cost_record_is_the_quadratic_and_never_rises(depth):
    """pcg on (B^-1 + S) x = b at either depth: its J comes from its step
    decrements and equals 1/2 x'Ax - b'x at every iterate and never rises,
    also under a preconditioner rescaled at every call and through the
    rounding-level steps at the end; the B^-1 x it carries is B^-1 of its
    solution, and it never applies B^-1.  The k-th iterate is the solve
    truncated at maxit = k, with the preconditioner's scale sequence
    restarted."""
    rng = np.random.default_rng(17)
    b_mat = random_spd(30, rng, spread=3.0)
    g = rng.standard_normal((12, 30))
    s_mat = g.T @ g
    a = np.linalg.inv(b_mat) + s_mat
    b = rng.standard_normal(30)
    scale_seq = rng.uniform(0.5, 2.0, 200)

    def solve(maxit):
        scales = iter(scale_seq)

        def precond(r):
            c = next(scales)
            return c * (b_mat @ r), c * r
        return pcg(s_mat, b, precond, tol=1e-15, maxit=maxit, depth=depth)

    rep = solve(60)
    for k, j in enumerate(rep.costs):
        x = solve(k).x
        q = 0.5 * x @ a @ x - b @ x
        assert abs(j - q) <= 1e-12 * abs(rep.costs[-1])
    assert all(j1 <= j0 for j0, j1 in zip(rep.costs, rep.costs[1:]))
    np.testing.assert_allclose(rep.x, np.linalg.solve(a, b), rtol=1e-10)
    np.testing.assert_allclose(b_mat @ rep.binv_x, rep.x, rtol=1e-10)


def test_fcg_stalled_direction_ends_with_a_row_per_iterate():
    """A preconditioner that hands back the same vector twice leaves a
    zero direction after A-orthogonalization: flexible CG (depth None)
    ends unconverged at p'Ap = 0, after one iteration, with two cost rows
    and two norms."""
    rng = np.random.default_rng(32)
    b_mat = random_spd(12, rng)
    v = rng.standard_normal(12)
    rep = pcg(np.eye(12), rng.standard_normal(12),
              lambda r: (b_mat @ v, v.copy()), depth=None)
    assert rep.iterations == 1 and not rep.converged
    assert len(rep.costs) == len(rep.residual_norms) == 2


@pytest.mark.parametrize("route", ["pcg", "fcg", "rpcg", "gain"])
def test_report_without_a_row_per_iterate_is_rejected(route):
    """Every route reports iterations + 1 cost rows and residual norms;
    a report one row short, or one iteration long, is rejected."""
    b, g, rvar, d = make_instance(20, 8, seed=30)
    bc, rc = DenseSpd(b), CovarianceR(rvar)
    s_mat = g.T @ (g / rvar[:, None])
    rhs = g.T @ (d / rvar)
    solve = {
        "pcg": lambda: pcg(s_mat, rhs, bc, tol=1e-12),
        "fcg": lambda: pcg(s_mat, rhs, lambda r: (b @ r, r), tol=1e-12,
                           depth=None),
        "rpcg": lambda: rpcg(LinearOperator.from_matrix(g), bc, rc, d,
                             tol=1e-12),
        "gain": lambda: dual_cg_rhalf(LinearOperator.from_matrix(g @ b @ g.T),
                                      d, rc, tol=1e-12),
    }[route]
    rep = solve()
    assert rep.converged and rep.iterations > 1
    assert len(rep.costs) == len(rep.residual_norms) == rep.iterations + 1
    for bad in ({"costs": rep.costs[:-1]},
                {"residual_norms": rep.residual_norms[:-1]},
                {"iterations": rep.iterations + 1}):
        with pytest.raises(ValueError, match="one cost row"):
            dataclasses.replace(rep, **bad)


def _diagonal(v):
    return LinearOperator((v.size, v.size), lambda u: v * u, lambda u: v * u)


@pytest.mark.parametrize("route", ["pcg", "rpcg"])
def test_solve_memory_does_not_grow_with_the_iterations(route):
    """A 60-iteration solve on 2,000 unknowns (rpcg: 2,000 observations)
    peaks below 16 vectors of that length under tracemalloc, a bound that
    does not grow with the iteration count: no report keeps an iterate
    history."""
    n, its = 2000, 60
    rng = np.random.default_rng(33)
    spread = CovarianceR(np.geomspace(1e-2, 1e4, n))
    ones = CovarianceR(np.ones(n))
    rhs = rng.standard_normal(n)
    if route == "pcg":
        def solve():
            return pcg(_diagonal(spread.variances), rhs, ones, tol=1e-14,
                       maxit=its)
    else:
        def solve():
            return rpcg(_diagonal(np.ones(n)), spread, ones, rhs, tol=1e-14,
                        maxit=its)
    tracemalloc.start()
    try:
        rep = solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == its and not rep.converged
    assert peak < 16 * n * 8, peak / (n * 8)
