"""Shared builders for desk-scale assimilation test problems."""

from dataclasses import replace

import numpy as np

from ddvar import assim, impact, krylov
from ddvar.assim import AssimilationProblem
from ddvar.control import ControlLayout
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
    layout = ControlLayout(grid, windows, model.n_fields,
                           boundary == "prescribed")
    b_cov = build_control_covariance(layout, sigma_x, length_x, sigma_f,
                                     length_f, sigma_b, length_b)
    rng = np.random.default_rng(seed)
    x_b = layout.views(
        b_cov.apply_sqrt(rng.standard_normal(layout.n_z)))[0].copy()

    if truth_from_prior:
        z_truth = b_cov.apply_sqrt(rng.standard_normal(layout.n_z))
    else:
        z_truth = np.zeros(layout.n_z)
    dx0, forcing, bnd = layout.views(z_truth)
    truth_traj = model.run_nl(x_b + dx0, forcing=forcing, boundary=bnd)

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


def box_model(model, rows, cols):
    """A periodic model on the box rows x cols (slices) of model's grid,
    with its spacings, time step and parameters: the reference for
    StepOperator.restrict, whose operators agree with it wherever the box
    edges carry zeros."""
    g = model.grid
    grid = Grid(nx=rows.stop - rows.start, ny=cols.stop - cols.start,
                dx=g.dx, dy=g.dy, dt=g.dt, n_steps=1)
    return SurrogateModel(grid, replace(model.config, boundary="periodic"))


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
    x0, forcing, boundary = problem.layout.views(z)
    # the window's first step views its f and b segments
    first = problem.windows.starts[p.window]
    bi, bj = p.tile.box_slices
    ctl = {"f": forcing[first][:, bi, bj].copy()}
    if p.has_x0:
        ctl["x0"] = x0[:, bi, bj].copy()
    if boundary is not None:
        ctl["b"] = boundary[first][:, p.ring_pos].copy()
    return ctl


def split_local(p, s):
    """Views of block p's flat local control s as its (x0), f, (b)
    segments."""
    box = (p.n_fields,) + p.tile.box_shape
    n = p.n_fields * p.n_box_nodes
    out = {}
    ofs = 0
    if p.has_x0:
        out["x0"] = s[:n].reshape(box)
        ofs = n
    out["f"] = s[ofs:ofs + n].reshape(box)
    if p.layout_ctl.has_boundary:
        out["b"] = s[ofs + n:].reshape(p.n_fields, p.ring_pos.size)
    return out


def project_live(p, field):
    """field with the box cells outside p.rho_keep zeroed, in place."""
    field[:, ~p.rho_keep] = 0.0
    return field


def local_control(problem, z, p):
    """Block p's local control u_p of the global vector z, with the box
    cells its solve drops zeroed."""
    ctl = restrict_control(problem, z, p)
    out = np.zeros(p.n_local)
    parts = split_local(p, out)
    for name, v in ctl.items():
        parts[name][:] = v if name == "b" else project_live(p, v)
    return out


def reference_weight(p, y):
    """R_pp^-1 of the block's observation term applied to sample values
    y."""
    return y / p.q_var


def _segment_map(p, s, method, scale=1.0):
    """scale times the restricted covariances' own method (apply or
    apply_inv) on every segment of block p's local control s."""
    out = np.zeros_like(s)
    parts, outp = split_local(p, s), split_local(p, out)
    covs = {"x0": p.cov_x, "f": p.cov_f, "b": p.cov_b}
    for name, v in parts.items():
        if covs[name] is not None:
            outp[name][:] = scale * getattr(covs[name], method)(
                v.reshape(p.n_fields, -1)).reshape(v.shape)
    return out


def reference_cov(p, s):
    """B_p s through the restricted covariances' own applies."""
    return _segment_map(p, s, "apply")


def reference_prior(p, s):
    """alpha B_p^-1 s through the restricted covariances' own inverses."""
    return _segment_map(p, s, "apply_inv", p.alpha)


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


# -- iterates, seen through pcg's cost hook ----------------------------------


def record_pcg_iterates(monkeypatch):
    """Wrap pcg where is4dvar (assim) and rpcg (krylov) call it with a
    cost callable, so that every call of that callable also records the
    iterate x and the B^-1 x pcg carries.  The returned list gains one
    list of (x, B^-1 x) pairs per solve; under rpcg, B^-1 x is the
    observation-space iterate chi."""
    solves = []
    real = krylov.pcg

    def recording_pcg(h, b, precond, *, cost, **kw):
        seen = []
        solves.append(seen)

        def hook(x, r, binv_x):
            seen.append((x.copy(), binv_x.copy()))
            return cost(x, r, binv_x)
        return real(h, b, precond, cost=hook, **kw)
    monkeypatch.setattr(krylov, "pcg", recording_pcg)
    monkeypatch.setattr(assim, "pcg", recording_pcg)
    return solves
