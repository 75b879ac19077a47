"""Shared builders for desk-scale assimilation test problems."""

import numpy as np

from ddvar import impact
from ddvar.assim import AssimilationProblem
from ddvar.control import ControlLayout, ControlVector
from ddvar.covariance import CovarianceR, build_control_covariance
from ddvar.grid import Grid, build_time_windows
from ddvar.model import ModelConfig, SurrogateModel
from ddvar.observations import PlatformSpec, synthesize
from ddvar.schwarz import NeighborTrace


def make_problem(kind="linear", boundary="prescribed", nx=10, ny=8, dt=0.2,
                 n_steps=6, n_t=2, seed=0, n_obs=12, sigma_o=0.1,
                 sigma_x=0.5, length_x=2.0, sigma_f=0.05, length_f=2.0,
                 sigma_b=0.1, length_b=2.0, obs_levels=None,
                 truth_from_prior=True, advect=(0.7, -0.4), viscosity=0.15,
                 platforms=None):
    """Twin-experiment problem: truth = background + B^(1/2) draw."""
    grid = Grid(nx=nx, ny=ny, dt=dt, n_steps=n_steps)
    model = SurrogateModel(grid, ModelConfig(kind=kind, advect=advect,
                                             viscosity=viscosity,
                                             boundary=boundary))
    windows = build_time_windows(n_steps, n_t)
    has_boundary = boundary == "prescribed"
    layout = ControlLayout(grid, windows, model.n_fields, has_boundary)
    b_cov = build_control_covariance(grid, windows, model.n_fields,
                                     has_boundary, sigma_x, length_x,
                                     sigma_f, length_f, sigma_b, length_b)
    rng = np.random.default_rng(seed)
    x_b = ControlVector(layout,
                        b_cov.apply_sqrt(rng.standard_normal(layout.n_z))).x0.copy()

    if truth_from_prior:
        z_truth = b_cov.apply_sqrt(rng.standard_normal(layout.n_z))
    else:
        z_truth = np.zeros(layout.n_z)
    vt = ControlVector(layout, z_truth)
    forcing = [vt.f(windows.window_of_step(s)) for s in range(1, n_steps + 1)]
    bnd = ([vt.b(windows.window_of_step(s)) for s in range(1, n_steps + 1)]
           if has_boundary else None)
    truth_traj = model.run_nl(x_b + vt.x0, forcing=forcing, boundary=bnd)

    if obs_levels is None:
        obs_levels = tuple(range(1, n_steps + 1))
    if platforms is None:
        platforms = [PlatformSpec("gridded", n_obs, sigma_o, levels=obs_levels)]
    obs = synthesize(truth_traj, grid, platforms, seed=seed + 1)
    r_cov = CovarianceR(obs.variances)
    problem = AssimilationProblem(model, windows, layout, b_cov, r_cov, obs, x_b)
    problem.z_truth = z_truth
    return problem


# -- references for one DD block's local operator ---------------------------


def zero_trace(p):
    """All-zero halo traces for block p's local sweeps."""
    tl = {}
    ad = {}
    for side, sl in p.strips.items():
        si = sl[0].stop - sl[0].start
        sj = sl[1].stop - sl[1].start
        tl[side] = np.zeros((p.n_levels, p.n_fields, si, sj))
        ad[side] = np.zeros((p.n_levels, p.n_fields, si, sj))
    return NeighborTrace(tl_halo=tl, ad_halo=ad)


def restrict_control(problem, z, p):
    """Block p's part of the control z: box "f" (and window-0 "x0")
    fields, and owned-ring "b" values on prescribed boundaries."""
    v = ControlVector(problem.layout, z)
    bi, bj = p.tile.box_slices
    ctl = {"f": v.f(p.window)[:, bi, bj].copy()}
    if p.has_x0:
        ctl["x0"] = v.x0[:, bi, bj].copy()
    if problem.layout.has_boundary:
        ctl["b"] = v.b(p.window)[:, p.ring_pos].copy()
    return ctl


def reference_weight(p, y):
    """R_pp^-1 of the block's observation term applied to sample values
    y."""
    return y / p.q_var


def reference_prior(p, s):
    """alpha B_p^-1 s through the restricted covariances' own inverses."""
    out = np.zeros_like(s)
    parts, outp = p.split_local(s), p.split_local(out)
    covs = {"x0": p.cov_x, "f": p.cov_f, "b": p.cov_b}
    for name, v in parts.items():
        if covs[name] is not None:
            outp[name][:] = p.alpha * covs[name].apply_inv(
                v.ravel()).reshape(v.shape)
    return out


def count_gain_solves(monkeypatch):
    """Wrap the Kalman-gain functions the impact module calls; returns the
    {"adjoint": n, "forward": n} call counts, updated as they run."""
    calls = {"adjoint": 0, "forward": 0}
    for key, name in (("adjoint", "kalman_gain_adjoint_apply"),
                      ("forward", "kalman_gain_apply")):
        def counted(*args, _key=key, _fn=getattr(impact, name), **kw):
            calls[_key] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(impact, name, counted)
    return calls
