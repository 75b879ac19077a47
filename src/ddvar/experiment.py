"""Batch driver: build a twin problem from a config, run one formulation,
write the result CSVs and a manifest.

The formulations are the paper's two single-rank Krylov routes, is4dvar
(B-preconditioned CG on the primal system) and rbl4dvar (the restricted
B-preconditioned CG, carried in observation space), and dd4dvar, the
space-time decomposed solve.

All CSVs print floats through repr, so identical runs produce byte-identical
files; timing.csv is the one machine-dependent exception.  It holds one
`block` row per simulated rank (the compute seconds of that rank's block:
for the DD the restriction of B r to its box and its observation-space
solves, plus its share of building them: each tile's build is charged to
its ranks in proportion to their k_p, equally when the tile has no
observations, and the batched inverses and the products C_p^-1 X_p to
all ranks the same way, so the rows sum to at most the solve phase; the
whole solve for the single-rank Krylov runs) and `setup`, `solve`,
`impact` and `total` rows with rank -1.  manifest.json records whether the solve converged
and its iteration counts per outer loop (DD: the outer flexible-CG
iterations); for the DD also each rank's capacitance size k_p, the
number of observations its block carries; with impact = true, the
Kalman-gain solves the impact report ran (adjoint and forward; its
sensitivity check solves nothing).  A run whose solve converged in one
outer loop about the background hands its increment to the report, which
with one platform then runs no forward solve.  Decomposed runs also write
dd_trace.csv (one row per outer iteration and block: the 2-norm of the
block's restriction of B r and the relative global residual) and
messages.csv (the simulated communicator's message log).
"""

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assim import AssimilationProblem
from .config import emit_config
from .control import ControlLayout
from .covariance import CovarianceR, build_control_covariance
from .grid import Grid, build_tiles, build_time_windows
from .impact import (column_section, observation_impact,
                     observation_sensitivity)
from .model import ModelConfig, SurrogateModel
from .observations import PlatformSpec, read_observations, synthesize
from .schwarz import DDConfig, DDSolver


def build_problem(cfg):
    """Twin-experiment assimilation problem for an ExperimentConfig.

    The background x_b is a prior draw of the initial state.  Observations
    come from obs_file, or are synthesized: they sample a truth, the
    background run with a second prior draw z_truth as its increment,
    with noise at their stored error level.  The truth exists only for
    synthesized observations; a file-driven problem has z_truth = None.
    """
    grid = Grid(nx=cfg.nx, ny=cfg.ny, dt=cfg.dt, n_steps=cfg.n_steps)
    model = SurrogateModel(grid, ModelConfig(kind=cfg.model,
                                             advect=(cfg.advect_u,
                                                     cfg.advect_v),
                                             viscosity=cfg.viscosity,
                                             boundary=cfg.boundary))
    windows = build_time_windows(cfg.n_steps, cfg.n_t)
    layout = ControlLayout(grid, windows, model.n_fields,
                           cfg.boundary == "prescribed")
    b_cov = build_control_covariance(layout, cfg.sigma_x, cfg.length_x,
                                     cfg.sigma_f, cfg.length_f, cfg.sigma_b,
                                     cfg.length_b)
    rng = np.random.default_rng(cfg.seed)
    # x_b is the x0 segment of B^1/2 of a whole-control draw: the x0
    # block's root of that segment of the draw
    draw = rng.standard_normal(layout.n_z)
    x0 = draw[layout.slice_of("x0")].reshape(model.n_fields, -1)
    x_b = b_cov.blocks["x0"].apply_sqrt(x0).reshape(model.n_fields, grid.nx,
                                                    grid.ny)

    z_truth = None
    if cfg.obs_file:
        obs = read_observations(cfg.obs_file, grid)
    else:
        z_truth = b_cov.apply_sqrt(rng.standard_normal(layout.n_z))
        dx0, forcing, bnd = layout.views(z_truth)
        truth_traj = model.run_nl(x_b + dx0, forcing=forcing, boundary=bnd)
        levels = tuple(range(1, cfg.n_steps + 1))
        obs = synthesize(truth_traj, grid,
                         [PlatformSpec("gridded", cfg.n_obs, cfg.sigma_o,
                                       levels=levels)],
                         seed=cfg.seed + 1)
    r_cov = CovarianceR(obs.variances)
    problem = AssimilationProblem(model, windows, layout, b_cov, r_cov, obs,
                                  x_b)
    problem.z_truth = z_truth
    return problem


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c)
                              for c in row) + "\n")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ExperimentResult:
    """Paths and headline numbers of one driver run."""

    def __init__(self, out_dir, files, final_cost, history, n_ranks,
                 converged):
        self.out_dir = Path(out_dir)
        self.files = files
        self.final_cost = final_cost
        self.history = history
        self.n_ranks = n_ranks
        self.converged = converged


@dataclass
class _Solved:
    """What a formulation's solve hands to the writers."""
    history: list
    trace: list
    converged: bool
    iterations: list          # per outer loop; DD: [outer iterations]
    block_seconds: list       # compute seconds per simulated rank
    setup_s: float = 0.0      # solver set-up after build_problem
    dd_rows: list = None
    messages: list = None     # the simulated world's message log
    capacitance_sizes: list = None  # DD: k_p per simulated rank
    # the increment K d, when the solve converged in one outer loop about
    # the background
    analysis: np.ndarray = None


def _run_krylov(problem, cfg):
    t0 = time.perf_counter()
    res = problem.incremental_outer_loop(cfg.n_outer, cfg.n_inner,
                                         solver=cfg.formulation,
                                         tol=cfg.solver_tol)
    solve_s = time.perf_counter() - t0
    history = res.history
    # one trace row per history row: the residual of that iterate
    trace = [(cfg.formulation, m,
              float(res.reports[outer - 1].residual_norms[m]), j)
             for outer, m, j, _, _ in history]
    converged = all(rep.converged for rep in res.reports)
    return _Solved(history=history, trace=trace, converged=converged,
                   iterations=[rep.iterations for rep in res.reports],
                   block_seconds=[solve_s],
                   analysis=(res.delta_z if converged and cfg.n_outer == 1
                             else None))


def _run_dd(problem, cfg):
    t0 = time.perf_counter()
    tiles = build_tiles(problem.model.grid, cfg.ntile_i, cfg.ntile_j,
                        cfg.halo)
    dd_cfg = DDConfig(n_bar=cfg.n_bar, tau_dd=cfg.tau_dd,
                      n_inner=cfg.n_inner, inner_tol=cfg.inner_tol,
                      alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma,
                      omega=cfg.omega)
    solver = DDSolver(problem, tiles, dd_cfg)
    setup_s = time.perf_counter() - t0
    res = solver.solve()
    cb = res.cost
    history = [(1, res.n_iterations, cb.J, cb.Jb, cb.Jo)]
    # per outer iteration: relative global residual and recurrence J
    trace = [(cfg.formulation, m, float(r), float(j))
             for m, (r, j) in enumerate(zip(res.residuals, res.costs))]
    seconds = [0.0] * res.world.n_ranks
    for (tid, k), sec in res.block_seconds.items():
        seconds[res.world.rank_of(tid, k)] = sec
    # each exchange logs one tag per side: convert each distinct tag once
    texts = {tag: _tag_text(tag) for tag in {row[3] for row in res.world.log}}
    messages = [(step, src, dst, texts[tag], nbytes)
                for step, src, dst, tag, nbytes in res.world.log]
    return _Solved(history=history, trace=trace, converged=res.converged,
                   iterations=[res.n_iterations], block_seconds=seconds,
                   setup_s=setup_s, dd_rows=res.trace_rows,
                   messages=messages,
                   capacitance_sizes=res.capacitance_sizes,
                   analysis=res.delta_z if res.converged else None)


def _tag_text(tag):
    """A message tag as one CSV cell: nested tuples joined by '/'."""
    if isinstance(tag, tuple):
        return "/".join(_tag_text(t) for t in tag)
    return str(tag)


def run_experiment(cfg, out_dir=None):
    """Run the configured formulation and write the artifact files."""
    clock = time.perf_counter
    t0 = clock()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    t_built = clock()

    if cfg.formulation == "dd4dvar":
        solved = _run_dd(problem, cfg)
    else:
        solved = _run_krylov(problem, cfg)
    t_solved = clock()
    history = solved.history

    files = {}

    def emit(name, header, rows):
        path = out / name
        _write_csv(path, header, rows)
        files[name] = path

    emit("cost_history.csv", "outer,inner,J,Jb,Jo",
         [(o, m, j, jb, jo) for o, m, j, jb, jo in history])
    emit("solver_trace.csv", "solver,iteration,residual,J", solved.trace)
    if solved.dd_rows is not None:
        emit("dd_trace.csv", "dd_iter,tile,window,rhs_norm,residual",
             solved.dd_rows)
        emit("messages.csv", "step,sender,receiver,tag,bytes",
             solved.messages)

    impact_s = 0.0
    gain_solves = None
    if cfg.impact:
        t_impact = clock()
        grid = problem.model.grid
        col = cfg.impact_col if cfg.impact_col != -1 else grid.nx // 2
        n_avg = cfg.impact_n_avg if cfg.impact_n_avg != -1 else cfg.n_steps
        functional = column_section(grid, col, n_avg,
                                    n_fields=problem.model.n_fields)
        rep = observation_impact(problem, functional,
                                 analysis=solved.analysis)
        emit("impact.csv", "platform,count,NL,TL,IC,FC,BC", rep.rows())
        chk = observation_sensitivity(rep)
        emit("sensitivity.csv", "actual,linearized,gap",
             [(chk.actual, chk.linearized,
               abs(chk.actual - chk.linearized))])
        impact_s = clock() - t_impact
        gain_solves = {"adjoint": rep.adjoint_solves,
                       "forward": rep.forward_solves}

    t_end = clock()
    setup_s = t_built - t0 + solved.setup_s
    emit("timing.csv", "phase,rank,seconds",
         [("block", r, sec) for r, sec in enumerate(solved.block_seconds)]
         + [("setup", -1, setup_s),
            ("solve", -1, t_solved - t_built - solved.setup_s),
            ("impact", -1, impact_s),
            ("total", -1, t_end - t0)])

    config_text = emit_config(cfg)
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": cfg.seed,
        "converged": solved.converged,
        "iterations": solved.iterations,
        "files": {name: {"size": files[name].stat().st_size,
                         "sha256": _sha256(files[name])}
                  for name in sorted(files)},
    }
    if solved.capacitance_sizes is not None:
        manifest["capacitance_sizes"] = solved.capacitance_sizes
    if gain_solves is not None:
        manifest["impact_gain_solves"] = gain_solves
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["manifest.json"] = out / "manifest.json"

    return ExperimentResult(out, files, history[-1][2], history,
                            len(solved.block_seconds), solved.converged)
