"""Acceptance criteria for the whole package, runnable as suites.

Each criterion builds its own fixed-seed instances, measures the quantity
its statement names, and returns a CriterionResult.  The CLI `verify`
command and tests/test_acceptance.py both run these.
"""

import time
from dataclasses import dataclass

import numpy as np

from .assim import (TangentObsOperator, dual_analysis, cost as assim_cost,
                    primal_analysis)
from .comm import World, create_inter, halo_exchange, split
from .config import ExperimentConfig
from .grid import SIDES, build_tiles, restrict
from .impact import column_section, observation_impact
from .krylov import LinearOperator
from .schwarz import DDConfig, DDSolver
from .experiment import build_problem, run_experiment


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    measured: str
    runtime: float
    limit_s: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.cid} {status} {self.name}: {self.measured} "
                f"[{self.runtime:.1f}s / limit {self.limit_s:.0f}s]")


def _twin(**kw):
    kw.setdefault("formulation", "is4dvar")
    kw.setdefault("seed", 0)
    return build_problem(ExperimentConfig(**kw).validate())


def c1_adjoint():
    """100 random dot-product triples, single step and composed window."""
    t0 = time.perf_counter()
    worst = 0.0
    setups = [_twin(nx=16, ny=12, model="linear", boundary="periodic",
                    seed=1),
              _twin(nx=16, ny=12, model="burgers", boundary="prescribed",
                    seed=2)]
    rng = np.random.default_rng(3)
    for prob in setups:
        model = prob.model
        lin = model.linearize(prob.x_b)
        # single steps about a reference state
        for _ in range(25):
            dx = rng.standard_normal(model.state_shape)
            df = rng.standard_normal(model.state_shape)
            p = rng.standard_normal(model.state_shape)
            tl = model.step_tl(lin, dx, df)
            pr, df_star, _ = model.step_ad(lin, p)
            lhs = float(np.vdot(p, tl))
            rhs = float(np.vdot(pr, dx) + np.vdot(df_star, df))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        # composed window operator
        top = TangentObsOperator(model, prob.background_traj, prob.windows,
                                 prob.obs, prob.layout)
        for _ in range(25):
            dz = rng.standard_normal(prob.layout.n_z)
            w = rng.standard_normal(prob.obs.n_obs)
            lhs = float(np.vdot(w, top.forward(dz)))
            rhs = float(np.vdot(top.adjoint(w), dz))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    dt = time.perf_counter() - t0
    return CriterionResult("C1", "adjoint identity", worst <= 1e-12,
                           f"max rel discrepancy {worst:.2e} <= 1e-12",
                           dt, 10.0)


def c2_gradient():
    """Gradient against central finite differences, 10 directions."""
    t0 = time.perf_counter()
    prob = _twin(nx=10, ny=8, model="burgers", boundary="prescribed", seed=4)
    d = prob.background_innovations()
    g_op = prob.background_operator()
    rng = np.random.default_rng(5)
    dz = rng.standard_normal(prob.layout.n_z) * 0.1
    grad = prob.gradient(dz, d=d, g_op=g_op)
    worst = 0.0
    eps = 1e-4
    for _ in range(10):
        v = rng.standard_normal(prob.layout.n_z)
        v /= np.linalg.norm(v)
        jp = prob.cost(dz + eps * v, d=d, g_op=g_op).J
        jm = prob.cost(dz - eps * v, d=d, g_op=g_op).J
        fd = (jp - jm) / (2 * eps)
        an = float(np.vdot(grad, v))
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    dt = time.perf_counter() - t0
    return CriterionResult("C2", "gradient check", worst <= 1e-6,
                           f"max rel error {worst:.2e} <= 1e-6", dt, 30.0)


class _DenseSpd:
    def __init__(self, mat):
        self.mat = mat
        self.n = mat.shape[0]

    def apply(self, v):
        return self.mat @ v

    def apply_inv(self, v):
        return np.linalg.solve(self.mat, v)


def c3_primal_dual():
    """25 random synthetic instances, primal vs dual increments."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(25):
        n_z = int(rng.integers(8, 65))
        n_obs = int(rng.integers(2, 17))
        a = rng.standard_normal((n_z, n_z))
        b = _DenseSpd(a @ a.T + n_z * np.eye(n_z))
        r = _DenseSpd(np.diag(rng.uniform(0.5, 2.0, n_obs)))
        gm = rng.standard_normal((n_obs, n_z))
        g_op = LinearOperator((n_obs, n_z), lambda v, gm=gm: gm @ v,
                              lambda w, gm=gm: gm.T @ w)
        d = rng.standard_normal(n_obs)
        zp = primal_analysis(g_op, b, r, d, tol=1e-12).x
        zd = dual_analysis(g_op, b, r, d, tol=1e-12).x_control
        worst = max(worst, float(np.linalg.norm(zp - zd)
                                 / np.linalg.norm(zp)))
    dt = time.perf_counter() - t0
    return CriterionResult("C3", "primal/dual equivalence", worst <= 1e-8,
                           f"max rel gap {worst:.2e} <= 1e-8", dt, 10.0)


def c4_solver_agreement():
    """All dual solvers against the dense direct solve; RPCG J vs primal."""
    t0 = time.perf_counter()
    prob = _twin(nx=12, ny=10, model="linear", boundary="prescribed",
                 seed=7, n_obs=16, sigma_o=0.3)
    d = prob.background_innovations()
    g_op = prob.background_operator()
    m = prob.obs.n_obs

    # dense dual matrix, one column per unit vector
    dmat = np.empty((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        dmat[:, k] = g_op.apply(prob.b_cov.apply(g_op.apply_t(e))) \
            + prob.r_cov.apply(e)
    w = np.linalg.solve(dmat, d)
    z_direct = prob.b_cov.apply(g_op.apply_t(w))

    worst = 0.0
    for solver in ("rbl4dvar", "minres", "rpcg"):
        z = dual_analysis(g_op, prob.b_cov, prob.r_cov, d, solver=solver,
                          tol=1e-12).x_control
        worst = max(worst, float(np.linalg.norm(z - z_direct)
                                 / np.linalg.norm(z_direct)))

    rep_p = primal_analysis(g_op, prob.b_cov, prob.r_cov, d, tol=1e-12)
    rep_r = dual_analysis(g_op, prob.b_cov, prob.r_cov, d, solver="rpcg",
                          tol=1e-12)
    j_p = [assim_cost(z, d, prob.b_cov, prob.r_cov, g_op).J
           for z in rep_p.iterates]
    bg_t = lambda v: prob.b_cov.apply(g_op.apply_t(v))
    j_r = [assim_cost(bg_t(chi), d, prob.b_cov, prob.r_cov, g_op).J
           for chi in rep_r.iterates]
    worst_j = 0.0
    for a, b in zip(j_p, j_r):
        worst_j = max(worst_j, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-8 and worst_j <= 1e-8
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C4", "solver agreement", ok,
        f"max rel gap to direct {worst:.2e} <= 1e-8, "
        f"per-iteration J gap {worst_j:.2e} <= 1e-8", dt, 30.0)


def _c5_config(n_t):
    return ExperimentConfig(nx=40, ny=32, model="linear",
                            boundary="prescribed", n_steps=6, n_t=n_t,
                            seed=11, n_obs=40, sigma_o=1.0,
                            length_x=0.5, length_f=0.5, length_b=0.5,
                            formulation="dd4dvar", ntile_i=2, ntile_j=4,
                            halo=2, n_bar=50, tau_dd=1e-10).validate()


def c5_dd_oracle():
    """Assembled DD increments against the global primal analysis."""
    t0 = time.perf_counter()
    worst = 0.0
    its = []
    all_ok = True
    for n_t in (1, 2, 3):
        cfg = _c5_config(n_t)
        prob = build_problem(cfg)
        za = prob.primal_analysis(tol=1e-12).x
        tiles = build_tiles(prob.model.grid, cfg.ntile_i, cfg.ntile_j,
                            cfg.halo)
        res = DDSolver(prob, tiles, DDConfig(n_bar=cfg.n_bar,
                                             tau_dd=cfg.tau_dd)).solve()
        gap = float(np.linalg.norm(res.delta_z - za) / np.linalg.norm(za))
        worst = max(worst, gap)
        its.append(res.n_iterations)
        all_ok = all_ok and res.converged and res.n_iterations <= 50

    cfg1 = _c5_config(1)
    prob = build_problem(cfg1)
    za = prob.primal_analysis(tol=1e-13).x
    tiles = build_tiles(prob.model.grid, 1, 1, cfg1.halo)
    res = DDSolver(prob, tiles, DDConfig(n_bar=50, tau_dd=1e-10)).solve()
    degen = float(np.linalg.norm(res.delta_z - za) / np.linalg.norm(za))
    ok = all_ok and worst <= 1e-6 and degen <= 1e-10
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C5", "DD-vs-global oracle", ok,
        f"max rel gap {worst:.2e} <= 1e-6 over N_t in (1,2,3) "
        f"(iterations {its}), degenerate gap {degen:.2e} <= 1e-10",
        dt, 300.0)


def c6_theoretical_minimum():
    """Mean minimized J over 20 consistent twins against n_obs / 2."""
    t0 = time.perf_counter()
    n_obs = 32
    finals = []
    for seed in range(20):
        prob = _twin(nx=20, ny=16, model="linear", boundary="prescribed",
                     seed=100 + seed, n_obs=n_obs, sigma_o=0.3)
        rep = prob.primal_analysis(tol=1e-10)
        finals.append(prob.cost(rep.x).J)
    mean_j = float(np.mean(finals))
    j_min = n_obs / 2.0
    ok = abs(mean_j - j_min) <= 0.25 * j_min
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C6", "theoretical minimum", ok,
        f"mean final J {mean_j:.2f} within 25% of {j_min:.1f}", dt, 300.0)


def c7_impact_identity():
    """Summed impact contributions against the nonlinear change."""
    t0 = time.perf_counter()
    prob = _twin(nx=10, ny=8, model="linear", boundary="prescribed",
                 seed=8, n_obs=15, sigma_o=0.3)
    functional = column_section(prob.model.grid, 4, 6)
    rep = observation_impact(prob, functional)
    gap = abs(rep.total_tl - rep.total_nl) / max(1.0, abs(rep.total_nl))
    exact = bool(np.array_equal(rep.g_x + rep.g_f + rep.g_b, rep.density))
    ok = gap <= 1e-8 and exact
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C7", "impact identity", ok,
        f"rel gap {gap:.2e} <= 1e-8, segment reassembly exact: {exact}",
        dt, 60.0)


def c8_communicators(dd_cfg=None):
    """Rank partitions, halo restriction, byte-identical DD pipeline CSVs."""
    import tempfile
    from .grid import Grid
    t0 = time.perf_counter()
    part_ok = True
    for n_sub in range(1, 9):
        for n_t in range(1, 5):
            w = World(n_sub, n_t)
            intra = [split(w, t).members for t in range(n_sub)]
            inter = [create_inter(w, k).members for k in range(n_t)]
            for groups in (intra, inter):
                flat = sorted(r for g in groups for r in g)
                part_ok = part_ok and flat == list(range(w.n_ranks))
                lens = sum(len(g) for g in groups)
                part_ok = part_ok and lens == w.n_ranks

    grid = Grid(nx=16, ny=12, dt=0.2, n_steps=4)
    layout = build_tiles(grid, 2, 2, 2)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2, grid.nx, grid.ny))
    fields = {}
    for tile in layout.tiles:
        lf = restrict(g, tile)
        for side in SIDES:
            if tile.neighbors.get(side) is not None:
                sl_i, sl_j = tile.halo_slices_local(side)
                lf.data[..., sl_i, sl_j] = 0.0
        fields[tile.id] = lf.data
    halo_exchange(create_inter(World(layout.n_tiles, 1), 0), layout, fields)
    halo_ok = all(np.array_equal(fields[t.id], restrict(g, t).data)
                  for t in layout.tiles)

    if dd_cfg is None:
        dd_cfg = shipped_config("dd")
    digests = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as td:
            res = run_experiment(dd_cfg, out_dir=td)
            digests.append({
                name: path.read_bytes()
                for name, path in res.files.items()
                if name.endswith(".csv") and name != "timing.csv"})
    csv_ok = digests[0] == digests[1] and len(digests[0]) >= 2
    ok = part_ok and halo_ok and csv_ok
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C8", "communicator topology", ok,
        f"partitions ok: {part_ok}, halo restriction exact: {halo_ok}, "
        f"byte-identical CSVs: {csv_ok}", dt, 60.0)


def c9_convergence_cases():
    """Shipped case1 drops J by two orders; case2 finishes at or below."""
    import tempfile
    t0 = time.perf_counter()
    finals = {}
    first = {}
    for case in ("case1", "case2"):
        cfg = shipped_config(case)
        with tempfile.TemporaryDirectory() as td:
            res = run_experiment(cfg, out_dir=td)
        first[case] = res.history[0][2]
        finals[case] = res.final_cost
    drop = first["case1"] / finals["case1"]
    ok = drop >= 100.0 and finals["case2"] <= finals["case1"]
    dt = time.perf_counter() - t0
    return CriterionResult(
        "C9", "convergence-by-25 analog", ok,
        f"case1 J drop factor {drop:.1f} >= 100, case2 final "
        f"{finals['case2']:.3f} <= case1 final {finals['case1']:.3f}",
        dt, 120.0)


def shipped_config(name):
    """Parse one of the packaged .cfg files (case1..case4, dd)."""
    from importlib import resources
    from .config import parse_config
    text = (resources.files("ddvar") / "configs" / f"{name}.cfg").read_text()
    return parse_config(text)


SUITES = {
    "adjoint": (c1_adjoint,),
    "gradient": (c2_gradient,),
    "duality": (c3_primal_dual, c4_solver_agreement),
    "dd": (c5_dd_oracle, c8_communicators),
    "all": (c1_adjoint, c2_gradient, c3_primal_dual, c4_solver_agreement,
            c5_dd_oracle, c6_theoretical_minimum, c7_impact_identity,
            c8_communicators, c9_convergence_cases),
}


def run_suite(name):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, pick from "
                         f"{sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
