from collections import Counter

import numpy as np
import pytest

from ddvar.assim import TangentObsOperator
from ddvar.grid import build_tiles
from ddvar.krylov import LinearOperator, pcg
from ddvar.schwarz import (
    DDConfig,
    DDSolver,
    GaussNewtonTerm,
    LocalSolve,
    local_ad_step,
    local_tl_step,
)
from util import (
    make_problem,
    reference_prior,
    reference_weight,
    restrict_control,
    zero_trace,
)


def dd_setup(nx=16, ny=12, ti=2, tj=2, n_t=2, n_steps=6, seed=5, n_obs=18,
             halo=2, kind="linear", sigma_o=1.0, length=0.5, **cfg_kw):
    prob = make_problem(kind, "prescribed", nx=nx, ny=ny, n_steps=n_steps,
                        n_t=n_t, seed=seed, n_obs=n_obs, sigma_o=sigma_o,
                        length_x=length, length_f=length, length_b=length)
    tiles = build_tiles(prob.model.grid, ti, tj, halo)
    cfg = DDConfig(**cfg_kw)
    return prob, tiles, DDSolver(prob, tiles, cfg)


# -- local model runs -----------------------------------------------------


def test_local_model_solve_matches_global_restriction():
    """Every block linearizes about the restriction of the global
    background, and the box model fed with traces from the global run
    reproduces that restriction on every live cell, so the set-up may
    take the restriction without running the box model."""
    from ddvar.grid import restrict

    for kind in ("linear", "burgers"):
        prob, tiles, solver = dd_setup(kind=kind, n_t=2)
        bg = prob.background_traj
        for key, p in solver.blocks.items():
            lin = [restrict(bg[l], p.tile).data for l in p.levels]
            assert all(np.array_equal(a, b)
                       for a, b in zip(p.lin_states, lin, strict=True))
            # step the box model from the restricted start; after every
            # step the owned ring takes the (zero) boundary values, the
            # halo strips the global run's values, and corners are zeroed
            state = lin[0]
            for l in range(1, p.n_levels):
                state = p.box_model.step_nl(state)
                p._apply_ring(state, None)
                for sl in p.strips.values():
                    state[:, sl[0], sl[1]] = lin[l][:, sl[0], sl[1]]
                p._zero_corners(state)
                gap = np.abs(state - lin[l])[:, p.live_mask]
                assert gap.max() <= 1e-13


# -- local TL/AD pair -----------------------------------------------------


def _pair_states(states, forcings):
    tot = 0.0
    for s, f in zip(states, forcings):
        if f is not None:
            tot += float(np.vdot(s, f))
    return tot


def _pair_control(p, dx0, df, db, p_start, df_star, db_star):
    tot = float(np.vdot(df, df_star))
    if p.has_x0:
        tot += float(np.vdot(dx0, p_start))
    if db is not None and db_star is not None:
        tot += float(np.vdot(db, db_star))
    return tot


# the correction propagator of the local solve is assembled, not swept;
# tests/test_dd_geometry.py checks it against a plain-loop reference
@pytest.mark.parametrize("mode", ["residual"])
def test_local_adjoint_identity_frozen_traces(mode):
    """<M u, w> == <u, M^T w> for the residual sweeps, theta included."""
    prob, tiles, solver = dd_setup(n_t=2)
    rng = np.random.default_rng(11)
    for key, p in solver.blocks.items():
        tr = zero_trace(p)
        for _ in range(2):
            dx0 = rng.standard_normal((p.n_fields,) + p.tile.box_shape)
            df = rng.standard_normal((p.n_fields,) + p.tile.box_shape)
            db = (rng.standard_normal((p.n_fields, p.ring_pos.size))
                  if p.ring_pos.size else None)
            forcings = [rng.standard_normal((p.n_fields,) + p.tile.box_shape)
                        for _ in range(p.n_levels)]
            start = dx0 if p.has_x0 else p.zero_box()
            states, _ = local_tl_step(p, start, df, db, p.lin_ops,
                                      trace=tr)
            p_start, df_star, db_star, _ = local_ad_step(
                p, forcings, p.lin_ops, trace=tr)
            lhs = _pair_states(states, forcings)
            rhs = _pair_control(p, dx0, df, db, p_start, df_star, db_star)
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1e-30)


def test_local_ad_zero_input_zero_output():
    prob, tiles, solver = dd_setup(n_t=1)
    p = solver.blocks[(0, 0)]
    tr = zero_trace(p)
    forcings = [None] * p.n_levels
    p_start, df_star, db_star, _ = local_ad_step(p, forcings, p.lin_ops,
                                                 trace=tr)
    assert np.all(p_start == 0.0)
    assert np.all(df_star == 0.0)
    if db_star is not None:
        assert np.all(db_star == 0.0)


# -- owned precision block -----------------------------------------------


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_owned_jb_matches_padded_precision(kind):
    """The owned principal block of each segment's B^-1, applied by
    zero-padding into the whole segment (owned_prec_apply), equals the
    same block of the dense inverse, on every block and segment."""
    prob, tiles, solver = dd_setup(kind=kind, ti=2, tj=2, n_t=2)
    rng = np.random.default_rng(23)
    dense = {}
    checked = Counter()
    for p in solver.blocks.values():
        segs = (["x0"] if p.has_x0 else []) + ["f"]
        if p.ring_pos.size:
            segs.append("b")
        for seg in segs:
            cov = p.full_cov[seg]
            if seg not in dense:
                dense[seg] = np.linalg.inv(cov.matrix)
            idx = p.ring_pos if seg == "b" else p.owned_node_idx
            rows = (np.arange(p.n_fields)[:, None] * cov.block.n
                    + idx[None, :]).ravel()
            v = rng.standard_normal(rows.size)
            want = dense[seg][np.ix_(rows, rows)] @ v
            got = p.owned_prec_apply(seg, v)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            checked[seg] += 1
    assert checked == {"x0": 4, "f": 8, "b": 8}


# -- observation bookkeeping ----------------------------------------------


def test_observation_ownership_partitions_the_set():
    for ti, tj, n_t in ((2, 2, 2), (2, 1, 3), (1, 1, 1)):
        prob, tiles, solver = dd_setup(ti=ti, tj=tj, n_t=n_t)
        total = sum(p.own_obs_idx.size for p in solver.blocks.values())
        assert total == prob.obs.n_obs
        seen = sorted(int(k) for p in solver.blocks.values()
                      for k in p.own_obs_idx)
        assert seen == list(range(prob.obs.n_obs))


def test_junction_observation_reaches_global_analysis():
    """C5 at N_t = 2 with config seed 1: observation 35 sits in the cell
    at the junction of tiles 2, 3, 4 and 5, and its owner's box holds the
    diagonal node only as a zeroed corner cell.  The local operators see
    it approximately, the global residual exactly."""
    from ddvar.acceptance import _c5_config
    from ddvar.experiment import build_problem

    cfg = _c5_config(2)
    cfg.seed = 1
    prob = build_problem(cfg)
    tiles = build_tiles(prob.model.grid, cfg.ntile_i, cfg.ntile_j, cfg.halo)
    obs = prob.obs
    nodes = [(int(obs.i0[35]) + di, int(obs.j0[35]) + dj)
             for di in (0, 1) for dj in (0, 1)]
    assert sorted({t.id for t in tiles.tiles for i, j in nodes
                   if t.i0 <= i < t.i1 and t.j0 <= j < t.j1}) == [2, 3, 4, 5]
    res = DDSolver(prob, tiles, DDConfig(n_bar=cfg.n_bar,
                                         tau_dd=cfg.tau_dd)).solve()
    assert res.converged
    ref = prob.primal_analysis(tol=1e-12).x
    assert np.linalg.norm(res.delta_z - ref) <= 1e-6 * np.linalg.norm(ref)


def test_dd_setup_networks_have_no_junction_observation():
    """The networks the DD tests run on (seeds 0-11) are all accepted."""
    for seed in range(12):
        prob, tiles, solver = dd_setup(seed=seed)
        assert len(solver.blocks) == 8


def test_shared_endpoint_levels_go_to_earlier_window():
    prob = make_problem("linear", "prescribed", nx=16, ny=12, n_steps=6,
                        n_t=2, seed=5, n_obs=10)
    shared = prob.windows.starts[1]
    assert prob.windows.end(0) == shared
    assert prob.windows.window_of_level(shared) == 0
    prob2 = make_problem("linear", "prescribed", nx=16, ny=12, n_steps=6,
                         n_t=2, seed=5, n_obs=10, obs_levels=(shared,))
    tiles = build_tiles(prob2.model.grid, 2, 2, 2)
    solver = DDSolver(prob2, tiles, DDConfig())
    for (tid, k), p in solver.blocks.items():
        if k == 1:
            assert p.own_obs_idx.size == 0


# -- fixed-point consistency ----------------------------------------------


def _precond_apply(solver, r, n=1):
    return solver._precond(r, dict.fromkeys(solver.blocks, 0.0), n)


def test_local_gradients_vanish_at_global_analysis():
    """At the global analysis every block's restricted B r, and with it
    the preconditioned residual, vanishes; at zero it does not."""
    prob, tiles, solver = dd_setup()
    z = prob.primal_analysis(tol=1e-13).x
    r0 = -prob.gradient(np.zeros_like(z), d=solver.d)
    r = -prob.gradient(z, d=solver.d)
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(r0)
    out0, norms0 = _precond_apply(solver, r0, 1)
    out, norms = _precond_apply(solver, r, 2)
    assert set(norms) == set(solver.blocks)
    assert np.max(np.abs(out)) <= 1e-8 * np.max(np.abs(out0))


def test_ras_blocks_see_the_restricted_residual(monkeypatch):
    """The halo strips a block receives through the exchange equal the
    direct restriction of B r: each block's observation-space solve sees
    project_live of the box restriction of B r, and its norm is the one
    the apply reports."""
    prob, tiles, solver = dd_setup()
    r = np.random.default_rng(12).standard_normal(prob.layout.n_z)
    calls = []
    real_apply = LocalSolve.apply

    def spy(self, rhs):
        calls.append((self, rhs.copy()))
        return real_apply(self, rhs)

    monkeypatch.setattr(LocalSolve, "apply", spy)
    _, norms = _precond_apply(solver, r)
    assert len(calls) == len(solver.blocks)
    seen = {key: rhs for key, p in solver.blocks.items()
            for solve, rhs in calls if solve is p.local_solve}
    assert set(seen) == set(solver.blocks)
    u = prob.b_cov.apply(r)
    for key, p in solver.blocks.items():
        ctl = restrict_control(prob, u, p)
        want = np.zeros(p.n_local)
        parts = p.split_local(want)
        if p.has_x0:
            parts["x0"][:] = p.project_live(ctl["x0"])
        parts["f"][:] = p.project_live(ctl["f"])
        if "b" in parts:
            parts["b"][:] = ctl["b"]
        assert np.array_equal(seen[key], want)
        assert norms[key] == np.linalg.norm(want)


def _c5_solver(n_t, sigma_o=1.0):
    from ddvar.acceptance import _c5_config
    from ddvar.experiment import build_problem

    cfg = _c5_config(n_t)
    cfg.sigma_o = sigma_o
    prob = build_problem(cfg)
    tiles = build_tiles(prob.model.grid, cfg.ntile_i, cfg.ntile_j, cfg.halo)
    return prob, DDSolver(prob, tiles, DDConfig(n_bar=cfg.n_bar,
                                                tau_dd=cfg.tau_dd))


def test_local_solve_matches_pcg_on_the_local_operator():
    """Through the Woodbury identity every block's factorized solve
    inverts alpha B_p^-1 + X' R_pp^-1 X as CG run to 1e-14 does, and its
    capacitance solve matches a dense solve of C = R_pp + X B_p X' / alpha
    to 1e-12; the 3x3-tile, halo-1 case has blocks with k_p = 0 and a
    block that owns no ring cells."""
    solvers = [dd_setup()[2], _c5_solver(2)[1],
               dd_setup(nx=12, ny=12, ti=3, tj=3, halo=1, n_obs=6)[2]]
    rng = np.random.default_rng(31)
    ranks, rings = [], []
    for solver in solvers:
        for key in sorted(solver.blocks):
            p = solver.blocks[key]
            x = GaussNewtonTerm(p).x
            a_p = LinearOperator(
                (p.n_local,) * 2, lambda v, p=p, x=x: reference_prior(p, v)
                + x.T @ reference_weight(p, x @ v))
            ls = p.local_solve
            b_p = LinearOperator((p.n_local,) * 2, ls.prior)
            rhs = rng.standard_normal(p.n_local)
            if ls.k:
                cap = x @ ls.prior(x).T / p.alpha + np.diag(p.q_var)
                want = x.T @ np.linalg.solve(cap, x @ rhs)
                assert np.linalg.norm(ls.apply(rhs) - want) \
                    <= 1e-12 * np.linalg.norm(want)
            ref = pcg(a_p, rhs, precond=b_p, tol=1e-14, maxit=2000)
            assert ref.converged
            u = ls.prior(rhs)
            got = (u - ls.prior(ls.apply(u)) / p.alpha) / p.alpha
            assert np.linalg.norm(got - ref.x) <= 1e-10 * np.linalg.norm(
                ref.x)
            ranks.append(ls.k)
            rings.append(p.ring_pos.size)
    assert min(ranks) == 0 and min(rings) == 0


def test_each_block_is_factorized_once_per_solve(monkeypatch):
    """The first preconditioner apply factorizes every block, later
    applies reuse the factors, no inner Krylov solve runs, and each
    block's capacitance size is its observation count."""
    import ddvar.krylov as krylov
    import ddvar.schwarz as schwarz

    built = []
    init = LocalSolve.__init__

    def counted(self, p):
        built.append((p.tile.id, p.window))
        init(self, p)

    def no_pcg(*args, **kw):
        raise AssertionError("the preconditioner ran pcg")

    monkeypatch.setattr(LocalSolve, "__init__", counted)
    monkeypatch.setattr(krylov, "pcg", no_pcg)
    monkeypatch.setattr(schwarz, "pcg", no_pcg)
    sizes = []
    # the 3x3-tile network leaves some blocks without observations
    for kw in ({}, dict(nx=12, ny=12, ti=3, tj=3, halo=1, n_obs=6)):
        built.clear()
        prob, tiles, solver = dd_setup(**kw)
        assert built == []
        res = solver.solve()
        assert res.converged and res.n_iterations > 1
        assert sorted(built) == sorted(solver.blocks)
        assert len(res.capacitance_sizes) == len(solver.blocks)
        for (tid, k), p in solver.blocks.items():
            assert res.capacitance_sizes[tid + tiles.n_tiles * k] \
                == p.local_solve.k == p.q_obs_idx.size
        sizes += res.capacitance_sizes
    assert min(sizes) == 0 < max(sizes)


def test_local_tl_matches_global_tl_at_fixed_point():
    """Traces restricted from the global TL run make the local TL sweep
    the global TL's restriction on the owned cells."""
    prob, tiles, solver = dd_setup()
    z = prob.primal_analysis(tol=1e-13).x
    glob = prob.background_tangent.tl_states(z)
    for key in sorted(solver.blocks):
        p = solver.blocks[key]
        bsl = p.tile.box_slices
        box = [glob[lvl][:, bsl[0], bsl[1]] for lvl in p.levels]
        trace = zero_trace(p)
        for side, sl in p.strips.items():
            trace.tl_halo[side] = np.stack([b[:, sl[0], sl[1]] for b in box])
        ctl = restrict_control(prob, z, p)
        states, _ = local_tl_step(p, ctl["x0"] if p.has_x0 else box[0],
                                  ctl["f"], ctl.get("b"), p.lin_ops, trace)
        oi, oj = p.owned_local
        for mine, ref in zip(states, box):
            assert np.max(np.abs(mine[:, oi, oj] - ref[:, oi, oj])) <= 1e-10


# -- outer loop -----------------------------------------------------------


def test_degenerate_decomposition_equals_global():
    """One tile, one window: the DD answer is the global analysis."""
    prob, tiles, solver = dd_setup(ti=1, tj=1, n_t=1, tau_dd=1e-10,
                                   n_bar=5)
    p = solver.blocks[(0, 0)]
    assert not p.strips          # no neighbors: no halo strips
    res = solver.solve()
    ref = prob.primal_analysis(tol=1e-13)
    gap = np.linalg.norm(res.delta_z - ref.x) / np.linalg.norm(ref.x)
    assert gap <= 1e-10
    assert res.converged


def test_dd_matches_global_analysis_2x2():
    """2x2 tiles, two windows: assembled increment hits the analysis."""
    prob, tiles, solver = dd_setup(tau_dd=1e-10, n_bar=50)
    res = solver.solve()
    assert res.converged
    assert res.n_iterations <= 50
    ref = prob.primal_analysis(tol=1e-12)
    gap = np.linalg.norm(res.delta_z - ref.x) / np.linalg.norm(ref.x)
    assert gap <= 1e-6
    # every direction is A-orthogonal to all earlier ones, so J falls at
    # every iteration; the last relative residual met the stopping rule
    j = res.costs
    assert all(j[k + 1] <= j[k] for k in range(len(j) - 1))
    assert res.residuals[0] == 1.0 and res.residuals[-1] <= 1e-10
    assert j[-1] == pytest.approx(res.final_cost, rel=1e-10)


@pytest.mark.slow
@pytest.mark.parametrize("n_t", [1, 2])
def test_burgers_dd_matches_global_analysis(n_t):
    """Two-field model, 2x2 tiles: the DD reaches the global analysis."""
    prob, tiles, solver = dd_setup(kind="burgers", n_t=n_t,
                                   tau_dd=1e-10, n_bar=50)
    assert prob.model.n_fields == 2
    res = solver.solve()
    assert res.converged
    ref = prob.primal_analysis(tol=1e-12)
    gap = np.linalg.norm(res.delta_z - ref.x) / np.linalg.norm(ref.x)
    assert gap <= 1e-6


def test_dd_trace_rows_schema_and_determinism():
    prob, tiles, solver = dd_setup(n_bar=6)
    res1 = solver.solve()
    prob2, tiles2, solver2 = dd_setup(n_bar=6)
    res2 = solver2.solve()
    assert len(res1.trace_rows) == len(res2.trace_rows)
    n_blocks = len(solver.blocks)
    assert len(res1.trace_rows) == res1.n_iterations * n_blocks
    for r1, r2 in zip(res1.trace_rows, res2.trace_rows):
        assert len(r1) == 5
        it, tid, win, rhs_norm, residual = r1
        assert it >= 1 and rhs_norm >= 0.0
        assert residual == res1.residuals[it] >= 0.0
        assert r1 == r2


def test_blocks_with_equal_box_shapes_share_one_box_model():
    prob, tiles, solver = dd_setup(ti=2, tj=2, n_t=2)
    by_shape = {}
    for p in solver.blocks.values():
        assert p.box_model is by_shape.setdefault(p.tile.box_shape,
                                                  p.box_model)
    assert len({id(p.box_model) for p in solver.blocks.values()}) \
        == len(by_shape) < len(solver.blocks)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_dd_solve_assembles_each_step_operator_once(kind, monkeypatch):
    """Linear: one operator per box model.  Burgers: one per (block,
    level), reused by every local solve."""
    from ddvar.model import SurrogateModel

    prob, tiles, solver = dd_setup(kind=kind, ti=2, tj=2, n_t=2, n_bar=2)
    built = []
    assemble = SurrogateModel._assemble

    def counted(self, state):
        built.append(self)
        return assemble(self, state)

    monkeypatch.setattr(SurrogateModel, "_assemble", counted)
    solver.solve()
    boxes = [m for m in built if m is not prob.model]
    models = {id(p.box_model) for p in solver.blocks.values()}
    if kind == "linear":
        assert len(boxes) == len(models)
    else:
        assert len(boxes) == sum(p.n_levels - 1
                                 for p in solver.blocks.values())
    for p in solver.blocks.values():
        assert len(p.lin_ops) == p.n_levels - 1


def test_dd_not_converged_is_flagged_not_raised():
    prob, tiles, solver = dd_setup(n_bar=2)
    res = solver.solve()
    assert not res.converged
    assert res.n_iterations == 2
    assert len(res.residuals) == len(res.costs) == 3


def test_dd_solve_runs_one_tl_and_ad_sweep_per_iteration(monkeypatch):
    """One global forward and adjoint per outer iteration, plus the right
    hand side's adjoint and the final cost's forward."""
    calls = {"forward": 0, "adjoint": 0}
    for name in calls:
        orig = getattr(TangentObsOperator, name)

        def counted(self, v, name=name, orig=orig):
            calls[name] += 1
            return orig(self, v)

        monkeypatch.setattr(TangentObsOperator, name, counted)
    prob, tiles, solver = dd_setup()
    res = solver.solve()
    assert res.converged
    assert calls == {"forward": res.n_iterations + 1,
                     "adjoint": res.n_iterations + 1}


def test_dd_solve_work_counts(monkeypatch):
    """Exact work of one solve on the 2x2-tile, two-window problem: each
    preconditioner apply runs two global B applies and no B^-1 apply,
    each block is factorized once, one TL and one AD sweep run per outer
    iteration, no nonlinear model run, and each apply sends one halo
    strip per tile side with a neighbor and window (16 messages)."""
    prob, tiles, solver = dd_setup()
    calls = Counter()

    def counting(obj, name, key):
        orig = getattr(obj, name)

        def counted(*args):
            calls[key] += 1
            return orig(*args)
        monkeypatch.setattr(obj, name, counted)

    counting(prob.b_cov, "apply", "B")
    counting(prob.b_cov, "apply_inv", "B^-1")
    counting(TangentObsOperator, "forward", "tl")
    counting(TangentObsOperator, "adjoint", "ad")
    counting(LocalSolve, "__init__", "factorized")
    counting(prob, "run_with_increment", "nl")
    precond = solver._precond

    def counted_precond(*args):
        before = calls.copy()
        out = precond(*args)
        calls["applies"] += 1
        calls["B in precond"] += calls["B"] - before["B"]
        calls["B^-1 in precond"] += calls["B^-1"] - before["B^-1"]
        return out
    monkeypatch.setattr(solver, "_precond", counted_precond)

    res = solver.solve()
    n = res.n_iterations
    assert res.converged and n == 6
    assert calls["applies"] == n
    assert calls["B in precond"] == calls["B"] == 2 * n
    assert calls["B^-1 in precond"] == 0
    # B^-1 once per Hessian apply and once in the final cost
    assert calls["B^-1"] == n + 1
    assert calls["factorized"] == len(solver.blocks) == 8
    # plus the right-hand side's adjoint and the final cost's forward
    assert calls["tl"] == calls["ad"] == n + 1
    # the blocks linearize about the problem's background run: no NL run
    assert calls["nl"] == 0
    assert len(res.world.log) == 16 * n == 96
    assert sum(entry[-1] for entry in res.world.log) == 16128


def test_dd_iterations_do_not_depend_on_the_innovation_scale():
    counts = []
    for scale in (1.0, 1e-6, 1e6):
        prob, tiles, solver = dd_setup()
        solver.d = scale * solver.d
        res = solver.solve()
        assert res.converged
        counts.append(res.n_iterations)
    assert counts[0] == counts[1] == counts[2]


# outer flexible-CG iterations on the C5 network, by sigma_o and N_t
C5_ITERATIONS = {1.0: (4, 6, 7), 0.3: (6, 12, 12), 0.1: (9, 19, 22)}


@pytest.mark.slow
@pytest.mark.parametrize("sigma_o", [1.0, 0.3, 0.1])
@pytest.mark.parametrize("n_t", [1, 2, 3])
def test_c5_network_dd_matches_global_analysis(sigma_o, n_t):
    """The C5 decomposition and network across observation error levels:
    every case converges to a 1e-12 primal analysis in exactly the
    tabulated number of outer iterations."""
    prob, solver = _c5_solver(n_t, sigma_o)
    res = solver.solve()
    assert res.converged
    assert res.n_iterations == C5_ITERATIONS[sigma_o][n_t - 1]
    ref = prob.primal_analysis(tol=1e-12).x
    assert np.linalg.norm(res.delta_z - ref) <= 1e-6 * np.linalg.norm(ref)


def test_periodic_multi_tile_rejected():
    prob = make_problem("linear", "periodic", nx=16, ny=12, n_steps=4,
                        n_t=1, seed=5, n_obs=10)
    tiles = build_tiles(prob.model.grid, 2, 1, 2)
    with pytest.raises(ValueError, match="periodic"):
        DDSolver(prob, tiles, DDConfig())


def test_dd_config_validation():
    with pytest.raises(ValueError, match="n_bar"):
        DDConfig(n_bar=0)
    with pytest.raises(ValueError, match="tau_dd"):
        DDConfig(tau_dd=0.0)
    with pytest.raises(ValueError, match="omega"):
        DDConfig(omega=0.0)
    with pytest.raises(ValueError, match="omega"):
        DDConfig(omega=2.0)
    with pytest.raises(ValueError, match="n_inner"):
        DDConfig(n_inner=0)
