from importlib import resources

import numpy as np
import pytest

from ddvar.assim import (
    AnalysisNotConverged,
    AssimilationProblem,
    CostBreakdown,
    TangentObsOperator,
    cost,
    dual_analysis,
    gradient,
    kalman_gain_adjoint_apply,
    kalman_gain_apply,
    primal_analysis,
)
from ddvar.config import parse_config
from ddvar.covariance import CovarianceR
from ddvar.experiment import build_problem
from ddvar.krylov import LinearOperator
from ddvar.model import SurrogateModel
from ddvar.observations import ObservationSet, innovations
from util import make_problem, record_pcg_iterates


class ScalarSpd:
    def __init__(self, val):
        self.val = val
        self.n = 1

    def apply(self, v):
        return self.val * v

    def apply_inv(self, v):
        return v / self.val


def scalar_g():
    return LinearOperator((1, 1), lambda v: v.copy(), lambda w: w.copy())


def test_cost_breakdown_validation():
    with pytest.raises(ValueError):
        CostBreakdown(J=1.0, Jb=0.7, Jo=0.2)
    with pytest.raises(ValueError):
        CostBreakdown(J=-1.0, Jb=-1.0, Jo=0.0)


def test_cost_at_zero_increment():
    p = make_problem(seed=1)
    d = p.background_innovations()
    cb = p.cost(np.zeros(p.layout.n_z))
    assert cb.Jb == 0.0
    assert cb.Jo == pytest.approx(0.5 * np.sum(d**2 / p.obs.variances), rel=1e-13)
    cb0 = p.cost(np.zeros(p.layout.n_z), d=np.zeros(p.obs.n_obs))
    assert cb0.J == 0.0


def test_cost_and_gradient_vs_dense_oracle():
    p = make_problem(nx=4, ny=4, n_steps=2, n_t=1, n_obs=5, seed=2)
    gop = p.background_operator()
    n_z = p.layout.n_z
    gm = np.zeros((p.obs.n_obs, n_z))
    for c in range(n_z):
        e = np.zeros(n_z)
        e[c] = 1.0
        gm[:, c] = gop.apply(e)
    rng = np.random.default_rng(3)
    dz = rng.standard_normal(n_z)
    d = p.background_innovations()
    binv = np.linalg.inv(p.b_cov.matrix)
    rinv = np.diag(1.0 / p.obs.variances)
    jb_ref = 0.5 * dz @ binv @ dz
    mis = gm @ dz - d
    jo_ref = 0.5 * mis @ rinv @ mis
    cb = p.cost(dz)
    assert cb.Jb == pytest.approx(jb_ref, rel=1e-10)
    assert cb.Jo == pytest.approx(jo_ref, rel=1e-12)
    grad_ref = binv @ dz + gm.T @ rinv @ mis
    np.testing.assert_allclose(p.gradient(dz), grad_ref, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("kind,boundary", [("linear", "prescribed"),
                                           ("burgers", "periodic"),
                                           ("burgers", "prescribed")])
def test_g_operator_adjoint_identity(kind, boundary):
    p = make_problem(kind=kind, boundary=boundary, seed=4)
    gop = p.background_operator()
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(p.layout.n_z)
        w = rng.standard_normal(p.obs.n_obs)
        lhs = np.vdot(gop.apply(v), w)
        rhs = np.vdot(v, gop.apply_t(w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
@pytest.mark.parametrize("boundary", ["prescribed", "periodic"])
def test_adjoint_levels_is_transpose_of_tl_states(kind, boundary):
    """<seeds, tl_states(dz)> = <adjoint_levels(seeds), dz> with every
    level (level 0 too) and every field seeded, which adjoint's scattered
    observation weights never do on a one-field network."""
    p = make_problem(kind=kind, boundary=boundary, n_t=3, seed=6)
    tan = p.background_tangent
    rng = np.random.default_rng(6)
    shape = (p.windows.n_steps + 1,) + p.model.state_shape
    for _ in range(3):
        dz = rng.standard_normal(p.layout.n_z)
        seeds = rng.standard_normal(shape)
        kept = seeds.copy()
        lhs = np.vdot(seeds, tan.tl_states(dz))
        rhs = np.vdot(tan.adjoint_levels(seeds), dz)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
        np.testing.assert_array_equal(seeds, kept)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_tangent_obs_operator_window_adjoint_on_every_node(kind):
    """Composed two-window TL/AD pair, observed at every node and level, so
    the identity covers the whole field-0 state space, not a few points."""
    p = make_problem(kind=kind, boundary="prescribed", seed=5)
    grid = p.model.grid
    i, j, lev = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny),
                            np.arange(1, grid.n_steps + 1), indexing="ij")
    n = lev.size
    obs = ObservationSet(grid, lev.ravel(), grid.dx * i.ravel(),
                         grid.dy * j.ravel(), ["gridded"] * n, np.zeros(n),
                         np.ones(n))
    top = TangentObsOperator(p.model, p.background_traj, p.windows, obs,
                             p.layout)
    assert p.windows.n_t == 2
    rng = np.random.default_rng(5)
    for _ in range(3):
        dz = rng.standard_normal(p.layout.n_z)
        w = rng.standard_normal(n)
        lhs = np.vdot(top.forward(dz), w)
        rhs = np.vdot(dz, top.adjoint(w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_gradient_matches_central_differences(kind):
    p = make_problem(kind=kind, seed=6)
    rng = np.random.default_rng(7)
    d = p.background_innovations()
    gop = p.background_operator()
    dz = 0.1 * rng.standard_normal(p.layout.n_z)
    g = gradient(dz, d, p.b_cov, p.r_cov, gop)
    eps = 1e-5
    for _ in range(10):
        v = rng.standard_normal(p.layout.n_z)
        v /= np.linalg.norm(v)
        jp = cost(dz + eps * v, d, p.b_cov, p.r_cov, gop).J
        jm = cost(dz - eps * v, d, p.b_cov, p.r_cov, gop).J
        fd = (jp - jm) / (2 * eps)
        an = np.vdot(g, v)
        assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-8)


def test_gradient_zero_case():
    p = make_problem(seed=8)
    g = p.gradient(np.zeros(p.layout.n_z), d=np.zeros(p.obs.n_obs))
    assert np.all(g == 0.0)


def test_primal_analysis_scalar_cases():
    r1 = CovarianceR([1.0])
    rep = primal_analysis(scalar_g(), ScalarSpd(1.0), r1, np.array([2.0]))
    np.testing.assert_allclose(rep.x, [1.0], rtol=1e-12)
    rep = primal_analysis(scalar_g(), ScalarSpd(2.0), r1, np.array([3.0]))
    np.testing.assert_allclose(rep.x, [2.0], rtol=1e-12)
    rep = primal_analysis(scalar_g(), ScalarSpd(2.0), r1, np.array([0.0]))
    assert np.all(rep.x == 0.0)


def test_dual_analysis_scalar_cases():
    r1 = CovarianceR([1.0])
    rep = dual_analysis(scalar_g(), ScalarSpd(2.0), r1, np.array([3.0]))
    np.testing.assert_allclose(rep.x_control, [2.0], rtol=1e-11)


def test_stationarity_at_analysis():
    p = make_problem(seed=9)
    d = p.background_innovations()
    rep = p.primal_analysis(tol=1e-12)
    g_at_a = p.gradient(rep.x)
    g_at_0 = p.gradient(np.zeros(p.layout.n_z))
    assert np.linalg.norm(g_at_a) <= 1e-9 * np.linalg.norm(g_at_0)


def test_primal_equals_dual_on_model_problem():
    p = make_problem(kind="burgers", boundary="prescribed", seed=10)
    ref = p.primal_analysis(tol=1e-12).x
    x = dual_analysis(p.background_operator(), p.b_cov, p.r_cov,
                      p.background_innovations(), tol=1e-12).x_control
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_kalman_gain_scalar_and_transpose():
    r1 = CovarianceR([1.0])
    kd = kalman_gain_apply(scalar_g(), ScalarSpd(2.0), r1, np.array([1.0]))
    np.testing.assert_allclose(kd, [2.0 / 3.0], rtol=1e-12)
    assert np.all(kalman_gain_apply(scalar_g(), ScalarSpd(2.0), r1,
                                    np.array([0.0])) == 0.0)

    p = make_problem(seed=11)
    gop = p.background_operator()
    rng = np.random.default_rng(12)
    d = rng.standard_normal(p.obs.n_obs)
    v = rng.standard_normal(p.layout.n_z)
    kd = kalman_gain_apply(gop, p.b_cov, p.r_cov, d, tol=1e-12)
    ktv = kalman_gain_adjoint_apply(gop, p.b_cov, p.r_cov, v, tol=1e-12)
    lhs = np.vdot(kd, v)
    rhs = np.vdot(d, ktv)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_dual_routes_carry_r_and_apply_r_inverse_once_per_iteration(
        monkeypatch):
    """The R^-1-preconditioned dual CG of both Kalman-gain solves is pcg
    with B := R^-1: one TL and one AD sweep and one R^-1 apply per
    iteration, R^-1 once more for the initial residual, and R never, since
    R w is carried.  Outside the iterations K d maps w back with one AD
    sweep, and K' v forms G B v with one TL.  The rbl4dvar analysis
    (rpcg) is pcg with S := R^-1 and B := G B G^T, counted here through
    its one inner pcg call: it applies R^-1 as often and R never, since
    its cost rows come from the recurrence; its initial H r costs one TL
    and one AD sweep and its final B G^T chi one more AD sweep."""
    import ddvar.krylov as krylov

    calls = {"tl": 0, "ad": 0, "r": 0, "r_inv": 0, "its": []}
    for cls, meth, key in ((TangentObsOperator, "forward", "tl"),
                           (TangentObsOperator, "adjoint", "ad"),
                           (CovarianceR, "apply", "r"),
                           (CovarianceR, "apply_inv", "r_inv")):
        def counted(self, v, real=getattr(cls, meth), key=key):
            calls[key] += 1
            return real(self, v)
        monkeypatch.setattr(cls, meth, counted)

    def counting(real):
        def run(*args, **kw):
            rep = real(*args, **kw)
            calls["its"].append(rep.iterations)
            return rep
        return run
    monkeypatch.setattr(krylov, "pcg", counting(krylov.pcg))

    p = make_problem(seed=11)
    gop = p.background_operator()
    rng = np.random.default_rng(12)
    d = rng.standard_normal(p.obs.n_obs)
    v = rng.standard_normal(p.layout.n_z)
    runs = (("analysis", lambda: dual_analysis(gop, p.b_cov, p.r_cov, d)),
            ("gain", lambda: kalman_gain_apply(gop, p.b_cov, p.r_cov, d)),
            ("gain_adjoint", lambda: kalman_gain_adjoint_apply(
                gop, p.b_cov, p.r_cov, v)))
    sweeps = {"analysis": (1, 2), "gain": (0, 1), "gain_adjoint": (1, 0)}
    for name, run in runs:
        for key in ("tl", "ad", "r", "r_inv"):
            calls[key] = 0
        calls["its"] = []
        run()
        [k] = calls["its"]
        assert k > 0
        tl, ad = (k + n for n in sweeps[name])
        assert (calls["tl"], calls["ad"], calls["r_inv"], calls["r"]) \
            == (tl, ad, k + 1, 0), name


def test_outer_loop_second_increment_vanishes():
    p = make_problem(kind="linear", seed=13)
    res = p.incremental_outer_loop(n_outer=2, n_inner=400, tol=1e-13)
    assert res.n_outer == 2
    first = np.linalg.norm(res.reports[0].x)
    second = np.linalg.norm(res.reports[1].x)
    assert second <= 1e-10 * first


def test_outer_loop_history_and_monotonicity():
    p = make_problem(kind="burgers", seed=14)
    res = p.incremental_outer_loop(n_outer=2, n_inner=25)
    outers = sorted({row[0] for row in res.history})
    assert outers == [1, 2]
    for outer in outers:
        js = [row[2] for row in res.history if row[0] == outer]
        inners = [row[1] for row in res.history if row[0] == outer]
        assert inners == list(range(len(js)))
        assert np.all(np.diff(js) <= 1e-10 * max(js[0], 1.0))
    for _, _, j, jb, jo in res.history:
        assert j == jb + jo
        assert jb >= 0 and jo >= 0
    # final cost no larger than the background cost
    assert res.final_cost <= res.history[0][2]


def shipped_problem(name):
    text = (resources.files("ddvar") / "configs" / f"{name}.cfg").read_text()
    cfg = parse_config(text)
    return build_problem(cfg), cfg


# (TL sweeps, AD sweeps, inner iterations per outer loop).  Each inner
# iteration costs one TL and one AD sweep; the rest is the primal
# right-hand side (one AD), and for rbl4dvar the shifted innovation
# d + G z_bar (one TL, outer loops after the first), the initial H r
# (one TL, one AD) and the final B G^T chi (one AD).
SWEEPS = {
    ("case2", "is4dvar"): (43, 44, [43]),
    ("case2", "rbl4dvar"): (43, 44, [42]),
    ("case4", "is4dvar"): (92, 94, [43, 49]),
    ("case4", "rbl4dvar"): (88, 89, [42, 43]),
}


@pytest.mark.parametrize("case,solver", sorted(SWEEPS))
def test_outer_loop_sweep_counts(case, solver, monkeypatch):
    """Exact TL/AD sweep counts: one of each per iteration, plus at most
    two of each per outer loop; one nonlinear run per relinearization,
    none for the first outer loop or after the last.  Every sweep makes
    exactly n_steps model step calls.  is4dvar applies B iterations + 1
    times per outer loop and never applies B^-1: the background shift of
    the later outer loops comes from the B^-1 x pcg carries."""
    calls = {"tl": 0, "ad": 0, "nl": 0, "b": 0, "b_inv": 0,
             "step_tl": 0, "step_ad": 0}
    per_sweep = {"step_tl": [], "step_ad": []}
    forward, adjoint = TangentObsOperator.forward, TangentObsOperator.adjoint

    def counted_forward(self, dz):
        calls["tl"] += 1
        before = calls["step_tl"]
        out = forward(self, dz)
        per_sweep["step_tl"].append(calls["step_tl"] - before)
        return out

    def counted_adjoint(self, w):
        calls["ad"] += 1
        before = calls["step_ad"]
        out = adjoint(self, w)
        per_sweep["step_ad"].append(calls["step_ad"] - before)
        return out

    for name in ("step_tl", "step_ad"):
        real_step = getattr(SurrogateModel, name)

        def counted_step(self, *args, real_step=real_step, name=name,
                         **kw):
            calls[name] += 1
            return real_step(self, *args, **kw)
        monkeypatch.setattr(SurrogateModel, name, counted_step)

    p, cfg = shipped_problem(case)
    run_nl = p.run_with_increment

    def counted_run(z):
        calls["nl"] += 1
        return run_nl(z)

    monkeypatch.setattr(TangentObsOperator, "forward", counted_forward)
    monkeypatch.setattr(TangentObsOperator, "adjoint", counted_adjoint)
    monkeypatch.setattr(p, "run_with_increment", counted_run)
    for op, key in (("apply", "b"), ("apply_inv", "b_inv")):
        real = getattr(p.b_cov, op)

        def counted_cov(v, real=real, key=key):
            calls[key] += 1
            return real(v)
        monkeypatch.setattr(p.b_cov, op, counted_cov)
    res = p.incremental_outer_loop(cfg.n_outer, cfg.n_inner, solver=solver,
                                   tol=cfg.solver_tol)
    its = [rep.iterations for rep in res.reports]
    assert (calls["tl"], calls["ad"], its) == SWEEPS[(case, solver)]
    assert calls["nl"] == cfg.n_outer - 1
    assert per_sweep["step_tl"] == [cfg.n_steps] * calls["tl"]
    assert per_sweep["step_ad"] == [cfg.n_steps] * calls["ad"]
    if solver == "is4dvar":
        assert calls["b_inv"] == 0
        assert calls["b"] == sum(its) + len(its)
    assert calls["tl"] <= sum(its) + 2 * len(its)
    assert calls["ad"] <= sum(its) + 2 * len(its)


def recomputed_history(p, res, solver, solves):
    """History rows from a fresh cost() of every iterate, as pcg's cost
    hook saw them (solves, from record_pcg_iterates)."""
    assert len(solves) == len(res.reports)
    z_bar = np.zeros(p.layout.n_z)
    rows = []
    for outer, (rep, seen) in enumerate(zip(res.reports, solves), start=1):
        traj = p.run_with_increment(z_bar)
        gop = p.operator_about(traj)
        d_tilde = innovations(traj, p.obs) + gop.apply(z_bar)
        if solver == "is4dvar":
            totals = [z_bar + x for x, _ in seen]
            z_bar = z_bar + rep.x
        else:
            totals = [p.b_cov.apply(gop.apply_t(chi)) for _, chi in seen]
            z_bar = rep.x_control
        for m, z in enumerate(totals):
            cb = cost(z, d_tilde, p.b_cov, p.r_cov, gop)
            rows.append((outer, m, cb.J, cb.Jb, cb.Jo))
    return rows


@pytest.mark.parametrize("solver", ["is4dvar", "rbl4dvar"])
@pytest.mark.parametrize("case", ["case4", "burgers"])
def test_outer_loop_history_matches_recomputed_cost(case, solver,
                                                   monkeypatch):
    """Recurrence-carried history rows equal an independent cost() of
    every iterate to 1e-10 max(1, |J|)."""
    solves = record_pcg_iterates(monkeypatch)
    if case == "burgers":
        p = make_problem(kind="burgers", seed=14)
        res = p.incremental_outer_loop(n_outer=2, n_inner=25, solver=solver)
    else:
        p, cfg = shipped_problem(case)
        res = p.incremental_outer_loop(cfg.n_outer, cfg.n_inner,
                                       solver=solver, tol=cfg.solver_tol)
    ref = recomputed_history(p, res, solver, solves)
    assert len(res.history) == len(ref)
    for row, want in zip(res.history, ref):
        assert row[:2] == want[:2]
        scale = 1e-10 * max(1.0, abs(want[2]))
        for got, exp in zip(row[2:], want[2:]):
            assert abs(got - exp) <= scale, (row, want)


@pytest.mark.parametrize("route", ["rbl4dvar"])
def test_outer_loop_dual_matches_primal(route):
    p = make_problem(kind="linear", seed=15)
    ref = p.incremental_outer_loop(n_outer=1, n_inner=400, tol=1e-12)
    res = p.incremental_outer_loop(n_outer=1, n_inner=400, tol=1e-12,
                                   solver=route)
    err = np.linalg.norm(res.delta_z - ref.delta_z) / np.linalg.norm(ref.delta_z)
    assert err <= 1e-8, f"{route}: {err}"


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_outer_loop_divergence_names_iteration():
    p = make_problem(kind="burgers", boundary="periodic", seed=16,
                     viscosity=0.2, advect=(0.2, 0.2), dt=0.4)
    p.obs.values[:] = 1e7
    with pytest.raises(RuntimeError, match="outer iteration 2"):
        p.incremental_outer_loop(n_outer=2, n_inner=50)


def test_outer_loop_rejects_bad_config():
    p = make_problem(seed=17)
    with pytest.raises(ValueError):
        p.incremental_outer_loop(n_outer=0, n_inner=5)
    for solver in ("gauss", "rpcg"):
        with pytest.raises(ValueError, match="unknown solver"):
            p.incremental_outer_loop(n_outer=1, n_inner=5, solver=solver)


def test_analysis_not_converged_raises():
    p = make_problem(seed=18)
    with pytest.raises(AnalysisNotConverged):
        p.primal_analysis(tol=1e-14, maxit=1)


def test_problem_rejects_a_covariance_of_another_layout():
    """The control covariance must have the problem's segments, not only
    its order: a periodic burgers layout with one window and a periodic
    linear layout with three both have n_z = 4 nx ny."""
    from ddvar.control import ControlLayout
    from ddvar.covariance import build_control_covariance
    from ddvar.grid import build_time_windows

    p = make_problem(kind="burgers", boundary="periodic", n_t=1)
    other = ControlLayout(p.layout.grid, build_time_windows(6, 3), 1, False)
    b_cov = build_control_covariance(other, 0.5, 2.0, 0.05, 2.0)
    assert b_cov.n == p.layout.n_z
    with pytest.raises(ValueError, match="segments"):
        AssimilationProblem(p.model, p.windows, p.layout, b_cov, p.r_cov,
                            p.obs, p.x_b)
