"""Observation-impact and sensitivity diagnostics.

Oracle values are frozen from hand calculations noted next to each test.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ddvar.assim import (TangentObsOperator, kalman_gain_adjoint_apply,
                         kalman_gain_apply)
from ddvar.grid import Grid
from ddvar.impact import (
    TransportFunctional,
    adjoint_sensitivity,
    column_section,
    evaluate_functional,
    observation_impact,
    observation_sensitivity,
)
from ddvar.model import ModelConfig, SurrogateModel
from ddvar.observations import PlatformSpec
from ddvar.krylov import LinearOperator

from util import count_gain_solves, make_problem


class ScalarSpd:
    def __init__(self, val):
        self.val = val
        self.n = 1

    def apply(self, v):
        return self.val * v

    def apply_inv(self, v):
        return v / self.val


def identity_problem(**kw):
    """Twin problem whose model step is the identity map on the state."""
    kw.setdefault("kind", "linear")
    kw.setdefault("boundary", "periodic")
    kw.setdefault("advect", (0.0, 0.0))
    kw.setdefault("viscosity", 0.0)
    return make_problem(**kw)


# ---------------------------------------------------------------- functional


def test_transport_functional_validation():
    h = np.zeros((1, 6, 6))
    with pytest.raises(ValueError, match="nonzero"):
        TransportFunctional(h, n_avg=2)
    h[0, 2, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TransportFunctional(h, n_avg=2)
    h[0, 2, 3] = 1.0
    with pytest.raises(ValueError, match="n_avg"):
        TransportFunctional(h, n_avg=0)
    F = TransportFunctional(h, n_avg=3)
    assert F.n_avg == 3
    assert F.weights.shape == (1, 6, 6)


def test_column_section_supported_on_one_column():
    grid = Grid(nx=8, ny=5, dt=0.1, n_steps=4)
    F = column_section(grid, col=3, n_avg=2)
    assert F.weights.shape == (1, 8, 5)
    assert np.all(F.weights[0, 3, :] == 1.0)
    mask = np.ones(8, dtype=bool)
    mask[3] = False
    assert np.all(F.weights[0, mask, :] == 0.0)
    with pytest.raises(ValueError):
        column_section(grid, col=8, n_avg=2)
    with pytest.raises(ValueError):
        column_section(grid, col=-9, n_avg=2)


def test_evaluate_functional_matches_double_loop_6x6():
    # independent oracle: plain python double loop over cells and levels
    rng = np.random.default_rng(42)
    states = rng.standard_normal((5, 1, 6, 6))
    h = rng.standard_normal((1, 6, 6))
    n_avg = 3
    expected = 0.0
    for lev in range(1, n_avg + 1):
        for i in range(6):
            for j in range(6):
                expected += h[0, i, j] * states[lev, 0, i, j]
    expected /= n_avg
    F = TransportFunctional(h, n_avg=n_avg)
    got = evaluate_functional(states, F)
    assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_evaluate_functional_requires_enough_levels():
    h = np.ones((1, 4, 4))
    F = TransportFunctional(h, n_avg=4)
    states = np.zeros((4, 1, 4, 4))  # levels 0..3 only
    with pytest.raises(ValueError, match="levels"):
        evaluate_functional(states, F)


def test_evaluate_functional_accepts_trajectory_object():
    prob = make_problem(nx=8, ny=6, n_steps=4, n_t=1, seed=3)
    F = column_section(prob.model.grid, col=2, n_avg=4)
    traj = prob.model.run_nl(prob.x_b)
    a = evaluate_functional(traj, F)
    b = evaluate_functional(traj.states, F)
    assert a == b


# -------------------------------------------------------------- sensitivity


def test_adjoint_sensitivity_identity_step():
    # zero velocity, zero viscosity, periodic: one step is x + dt*f, so the
    # initial-condition sensitivity is h itself and the forcing segment dt*h
    prob = identity_problem(nx=6, ny=5, n_steps=1, n_t=1, seed=1,
                            obs_levels=(1,))
    rng = np.random.default_rng(7)
    h = rng.standard_normal((1, 6, 5))
    F = TransportFunctional(h, n_avg=1)
    s = adjoint_sensitivity(prob.background_tangent, F)
    x0, forcing, _ = prob.layout.views(s)
    assert np.max(np.abs(x0 - h)) <= 1e-15
    assert np.max(np.abs(forcing[0] - prob.model.grid.dt * h)) <= 1e-15


def test_adjoint_sensitivity_accumulated_equals_per_level_sum():
    prob = make_problem(kind="burgers", boundary="prescribed", nx=10, ny=8,
                        n_steps=6, n_t=2, seed=4)
    rng = np.random.default_rng(11)
    h = rng.standard_normal((prob.model.n_fields, 10, 8))
    n_avg = 4
    F = TransportFunctional(h, n_avg=n_avg)
    traj = prob.background_traj
    s = adjoint_sensitivity(prob.background_tangent, F)

    # oracle: one full reverse sweep per averaging level, then sum
    lay = prob.layout
    total = np.zeros(lay.n_z)
    for lev in range(1, n_avg + 1):
        out = np.zeros(lay.n_z)
        p = h / n_avg
        for step in range(lev, 0, -1):
            k = prob.windows.window_of_level(step)
            p, df, db = prob.model.step_ad(
                prob.model.linearize(traj[step - 1]), p)
            out[lay.slice_of(f"f{k}")] += df.ravel()
            if lay.has_boundary:
                out[lay.slice_of(f"b{k}")] += db.ravel()
        out[lay.slice_of("x0")] += p.ravel()
        total += out
    scale = max(1.0, float(np.max(np.abs(total))))
    assert np.max(np.abs(s - total)) <= 1e-12 * scale


def test_adjoint_sensitivity_is_transpose_of_tangent_average():
    prob = make_problem(kind="burgers", boundary="prescribed", nx=10, ny=8,
                        n_steps=6, n_t=2, seed=9)
    rng = np.random.default_rng(13)
    h = rng.standard_normal((prob.model.n_fields, 10, 8))
    F = TransportFunctional(h, n_avg=5)
    s = adjoint_sensitivity(prob.background_tangent, F)
    top = TangentObsOperator(prob.model, prob.background_traj, prob.windows,
                             prob.obs, prob.layout)
    for trial in range(3):
        dz = rng.standard_normal(prob.layout.n_z)
        tl = top.tl_states(dz)
        lhs = float(np.vdot(s, dz))
        rhs = sum(float(np.vdot(h, tl[lev])) for lev in range(1, 6)) / 5.0
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_adjoint_sensitivity_rejects_horizon_past_window():
    prob = make_problem(nx=8, ny=6, n_steps=3, n_t=1, seed=2,
                        obs_levels=(1, 2, 3))
    h = np.ones((1, 8, 6))
    F = TransportFunctional(h, n_avg=4)
    with pytest.raises(ValueError, match="n_avg"):
        adjoint_sensitivity(prob.background_tangent, F)


# -------------------------------------------------------- observation impact


def impact_problem(seed=6, **kw):
    kw.setdefault("kind", "linear")
    kw.setdefault("boundary", "prescribed")
    kw.setdefault("nx", 10)
    kw.setdefault("ny", 8)
    kw.setdefault("n_steps", 6)
    kw.setdefault("n_t", 2)
    kw.setdefault("sigma_o", 0.3)
    spec = [PlatformSpec("gridded", 8, 0.3, levels=(1, 2, 3)),
            PlatformSpec("track", 5, 0.2, levels=(2,)),
            PlatformSpec("profile", 4, 0.4, levels=(4, 5))]
    kw.setdefault("platforms", spec)
    return make_problem(seed=seed, **kw)


def test_observation_impact_totals_and_identity():
    prob = impact_problem()
    F = column_section(prob.model.grid, col=4, n_avg=6)
    rep = observation_impact(prob, F)
    assert rep.n_obs == prob.obs.n_obs

    # headline is the sum of per-observation contributions by construction
    assert rep.total_tl == float(np.sum(rep.per_obs))

    # linear dynamics and an exact gain: the summed contributions reproduce
    # the nonlinear functional change across the analysis
    scale = max(1.0, abs(rep.total_nl))
    assert abs(rep.total_tl - rep.total_nl) <= 1e-8 * scale

    # segment route reaches the same total through the control space
    assert abs(rep.ic + rep.fc + rep.bc - rep.total_tl) <= 1e-8 * scale


def test_observation_impact_nl_matches_direct_runs():
    prob = impact_problem(seed=8)
    F = column_section(prob.model.grid, col=3, n_avg=6)
    rep = observation_impact(prob, F)
    d = prob.background_innovations()
    za = kalman_gain_apply(prob.background_operator(), prob.b_cov, prob.r_cov,
                           d, tol=1e-12)
    ia = evaluate_functional(prob.run_with_increment(za), F)
    ib = evaluate_functional(prob.background_traj, F)
    assert abs(rep.total_nl - (ia - ib)) <= 1e-9 * max(1.0, abs(ia - ib))


def test_impact_segments_reassemble_bit_exactly():
    prob = impact_problem(seed=12)
    F = column_section(prob.model.grid, col=5, n_avg=6)
    rep = observation_impact(prob, F)
    assert np.array_equal(rep.g_x + rep.g_f + rep.g_b, rep.density)
    # supports are disjoint control segments
    assert not np.any((rep.g_x != 0) & (rep.g_f != 0))
    assert not np.any((rep.g_x != 0) & (rep.g_b != 0))
    assert not np.any((rep.g_f != 0) & (rep.g_b != 0))
    sl = prob.layout.slice_of("x0")
    assert np.array_equal(rep.g_x[sl], rep.density[sl])


def test_impact_platform_rows():
    prob = impact_problem(seed=5)
    F = column_section(prob.model.grid, col=4, n_avg=6)
    rep = observation_impact(prob, F)
    names = [row.platform for row in rep.platform_rows]
    assert names == ["gridded", "track", "profile"]
    counts = {row.platform: row.count for row in rep.platform_rows}
    assert counts == {"gridded": 8, "track": 5, "profile": 4}
    tl_sum = sum(row.tl for row in rep.platform_rows)
    assert abs(tl_sum - rep.total_tl) <= 1e-12 * max(1.0, abs(rep.total_tl))
    for row in rep.platform_rows:
        mask = np.array([p == row.platform for p in prob.obs.platforms])
        assert abs(row.tl - float(np.sum(rep.per_obs[mask]))) <= 1e-14 * max(
            1.0, abs(row.tl))

    rows = rep.rows()
    assert rows[-1][0] == "all"
    assert rows[-1][1] == prob.obs.n_obs
    assert len(rows) == 4
    for r in rows:
        assert len(r) == 7


def test_impact_permutation_invariance():
    prob = impact_problem(seed=14)
    F = column_section(prob.model.grid, col=4, n_avg=6)
    rep = observation_impact(prob, F)

    rng = np.random.default_rng(0)
    perm = rng.permutation(prob.obs.n_obs)
    from ddvar.assim import AssimilationProblem
    from ddvar.covariance import CovarianceR
    obs_p = prob.obs.subset(perm)
    prob_p = AssimilationProblem(prob.model, prob.windows, prob.layout,
                                 prob.b_cov, CovarianceR(obs_p.variances),
                                 obs_p, prob.x_b)
    rep_p = observation_impact(prob_p, F)

    scale = max(1.0, abs(rep.total_tl))
    assert abs(rep_p.total_tl - rep.total_tl) <= 1e-8 * scale
    assert abs(rep_p.total_nl - rep.total_nl) <= 1e-10 * scale
    assert np.max(np.abs(rep_p.per_obs[np.argsort(perm)]
                         - rep.per_obs[np.argsort(np.arange(prob.obs.n_obs))]
                         )) <= 1e-8 * max(1.0, np.max(np.abs(rep.per_obs)))
    got = {r.platform: r for r in rep_p.platform_rows}
    for row in rep.platform_rows:
        assert got[row.platform].count == row.count
        assert abs(got[row.platform].tl - row.tl) <= 1e-8 * scale


def test_impact_runs_one_adjoint_and_one_forward_solve_per_platform(
        monkeypatch):
    prob = impact_problem(seed=9)
    F = column_section(prob.model.grid, col=4, n_avg=6)
    calls = count_gain_solves(monkeypatch)
    rep = observation_impact(prob, F)
    assert calls == {"adjoint": 1, "forward": 3}
    assert (rep.adjoint_solves, rep.forward_solves) == (1, 3)
    # the analysis is the sum of the platform increments
    za = kalman_gain_apply(prob.background_operator(), prob.b_cov, prob.r_cov,
                           prob.background_innovations(), tol=1e-12)
    assert np.linalg.norm(rep.z_a - za) <= 1e-9 * np.linalg.norm(za)
    assert np.array_equal(rep.density, rep.z_a * rep.sensitivity)


def test_report_fed_sensitivity_check_matches_standalone(monkeypatch):
    """The check reads the report and solves nothing; its recomputed
    response equals a standalone s . (K (2d) - K d) from two fresh gain
    solves."""
    prob = impact_problem(seed=23)
    F = column_section(prob.model.grid, col=5, n_avg=6)
    rep = observation_impact(prob, F)
    calls = count_gain_solves(monkeypatch)
    chk = observation_sensitivity(rep)
    assert calls == {"adjoint": 0, "forward": 0}

    args = (prob.background_operator(), prob.b_cov, prob.r_cov)
    d = prob.background_innovations()
    shift = (kalman_gain_apply(*args, 2.0 * d, tol=1e-12)
             - kalman_gain_apply(*args, d, tol=1e-12))
    want = float(np.vdot(rep.sensitivity, shift))
    assert abs(chk.actual - want) <= 1e-8 * abs(want)
    assert chk.linearized == rep.total_tl
    scale = max(1.0, abs(chk.actual), abs(chk.linearized))
    assert abs(chk.actual - chk.linearized) <= 1e-8 * scale


# ----------------------------------------------------- observation sensitivity


def test_observation_sensitivity_scalar_oracle():
    # B=2, R=1, G=1: K = BG(GBG+R)^-1 = 2/3.  With d = 3 the analysis is
    # z_a = 2, and doubling the observation shifts it by K*3 = 2, so with
    # s = 1 the recomputed response is 2; the linearized prediction g*d
    # with g = K^T*1 = 2/3 gives the same 2.
    g_op = LinearOperator((1, 1), lambda v: v.copy(), lambda w: w.copy())
    args = (g_op, ScalarSpd(2.0), ScalarSpd(1.0))
    d = np.array([3.0])
    s = np.array([1.0])
    g = kalman_gain_adjoint_apply(*args, s, tol=1e-13)
    report = SimpleNamespace(sensitivity=s,
                             z_a=kalman_gain_apply(*args, d, tol=1e-13),
                             total_tl=float(np.sum(d * g)))
    chk = observation_sensitivity(report)
    assert abs(chk.actual - 2.0) <= 1e-10
    assert abs(chk.linearized - 2.0) <= 1e-10

def test_observation_sensitivity_linear_twin_agrees():
    prob = impact_problem(seed=21)
    F = column_section(prob.model.grid, col=6, n_avg=6)
    chk = observation_sensitivity(observation_impact(prob, F))
    scale = max(1.0, abs(chk.actual), abs(chk.linearized))
    assert abs(chk.actual - chk.linearized) <= 1e-8 * scale
