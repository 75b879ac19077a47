from collections import Counter

import numpy as np
import pytest

from ddvar.assim import TangentObsOperator
from ddvar.grid import build_tiles
from ddvar.krylov import LinearOperator, pcg
from ddvar.schwarz import (
    DDConfig,
    DDSolver,
    LocalSolve,
    build_local_solves,
    gauss_newton_rows,
    local_ad_step,
    local_tl_step,
)
from util import (
    local_control,
    make_problem,
    reference_cov,
    reference_prior,
    reference_weight,
    restrict_control,
    split_local,
    zero_trace,
)


def dd_problem(nx=16, ny=12, ti=2, tj=2, n_t=2, n_steps=6, seed=5,
               n_obs=18, halo=2, kind="linear", sigma_o=1.0, length=0.5):
    prob = make_problem(kind, "prescribed", nx=nx, ny=ny, n_steps=n_steps,
                        n_t=n_t, seed=seed, n_obs=n_obs, sigma_o=sigma_o,
                        length_x=length, length_f=length, length_b=length)
    return prob, build_tiles(prob.model.grid, ti, tj, halo)


def dd_setup(n_bar=50, tau_dd=1e-10, **kw):
    prob, tiles = dd_problem(**kw)
    return prob, tiles, DDSolver(prob, tiles, DDConfig(n_bar=n_bar,
                                                       tau_dd=tau_dd))


# -- set-up work ------------------------------------------------------------


def test_dd_run_builds_no_model_and_restricts_no_field(monkeypatch):
    """The blocks step with the problem's background tangent restricted to
    their boxes: a DD set-up and solve build no SurrogateModel and make no
    grid.restrict call, for either model kind."""
    import ddvar.grid as grid
    import ddvar.schwarz as schwarz
    from ddvar.model import SurrogateModel

    calls = Counter()
    init, restrict = SurrogateModel.__init__, grid.restrict

    def counted_init(self, *args):
        calls["model"] += 1
        init(self, *args)

    def counted_restrict(*args):
        calls["restrict"] += 1
        return restrict(*args)

    for kind in ("linear", "burgers"):
        prob, tiles = dd_problem(kind=kind)
        with monkeypatch.context() as m:
            m.setattr(SurrogateModel, "__init__", counted_init)
            m.setattr(grid, "restrict", counted_restrict)
            m.setattr(schwarz, "restrict", counted_restrict, raising=False)
            res = DDSolver(prob, tiles, DDConfig()).solve()
        assert res.converged
        assert calls == {}


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
    zero-padding every field into the whole grid or ring
    (owned_prec_apply), equals the same block of the spatial block's
    dense inverse, field by field, on every block and segment."""
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
            v = rng.standard_normal((p.n_fields, idx.size))
            want = (dense[seg][np.ix_(idx, idx)] @ v.T).T.ravel()
            got = p.owned_prec_apply(seg, v.ravel())
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


@pytest.mark.parametrize("n_t", [2, 3])
def test_tile_geometry_is_built_once_and_shared_by_the_windows(monkeypatch,
                                                               n_t):
    """On the C5 decomposition (2 x 4 tiles) the set-up builds each
    tile's geometry once and finds the boundary ring once, whatever N_t,
    and the blocks of one tile hold the same geometry arrays and
    restricted covariances, not copies."""
    import ddvar.schwarz as schwarz
    from ddvar.acceptance import _c5_config
    from ddvar.experiment import build_problem

    prob = build_problem(_c5_config(n_t))
    grid = prob.model.grid
    tiles = build_tiles(grid, 2, 4, 2)
    calls = Counter()

    def counting(name, real):
        def run(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return run
    monkeypatch.setattr(schwarz, "boundary_ring_indices", counting(
        "ring", schwarz.boundary_ring_indices))
    monkeypatch.setattr(schwarz.TileGeometry, "__init__", counting(
        "tile", schwarz.TileGeometry.__init__))
    blocks = schwarz.build_local_problems(prob, tiles, DDConfig())
    assert calls == {"ring": 1, "tile": 8}
    assert len(blocks) == 8 * n_t
    shared = ("strips", "own_valid", "corner", "rho_keep", "d_mask",
              "ring_halo", "ring_pos", "ring_ii", "ring_jj", "owned_node_idx",
              "cov_x", "cov_f", "cov_b", "full_cov")
    for t in tiles.tiles:
        first = blocks[(t.id, 0)]
        assert first.cov_b is not None
        for k in range(1, n_t):
            p = blocks[(t.id, k)]
            for name in shared:
                assert getattr(p, name) is getattr(first, name), name
            for side, valid in first.own_valid.items():
                assert p.own_valid[side] is valid


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
    the preconditioned residual and its B^-1, vanishes; at zero it does
    not."""
    prob, tiles, solver = dd_setup()
    z = prob.primal_analysis(tol=1e-13).x
    r0 = -prob.gradient(np.zeros_like(z), d=solver.d)
    r = -prob.gradient(z, d=solver.d)
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(r0)
    out0, binv0, norms0 = _precond_apply(solver, r0, 1)
    out, binv, norms = _precond_apply(solver, r, 2)
    assert set(norms) == set(solver.blocks)
    assert np.max(np.abs(out)) <= 1e-8 * np.max(np.abs(out0))
    assert np.max(np.abs(binv)) <= 1e-8 * np.max(np.abs(binv0))


def _periodic_single_tile():
    prob = make_problem("linear", "periodic", nx=12, ny=10, n_steps=4,
                        n_t=2, seed=5, n_obs=10)
    tiles = build_tiles(prob.model.grid, 1, 1, 2)
    return prob, tiles, DDSolver(prob, tiles, DDConfig())


RAS_CASES = {
    "linear-nt1": lambda: dd_setup(kind="linear", n_t=1),
    "linear-nt3": lambda: dd_setup(kind="linear", n_t=3),
    "burgers-nt1": lambda: dd_setup(kind="burgers", n_t=1),
    "burgers-nt3": lambda: dd_setup(kind="burgers", n_t=3),
    "periodic-1x1": _periodic_single_tile,
}


def test_ras_blocks_see_the_restricted_residual(monkeypatch):
    """The halo strips a block receives through the exchange equal the
    direct restriction of B r: each block's solve gathers the kept
    entries of project_live of the box restriction of B r (every other
    entry of it is zero), and the norm the apply reports is theirs.  The
    block's apply is the dense X' C^-1 X on that input, read on the owned
    entries, to 1e-12; the maps put those entries where the global
    vector holds them, and the apply returns the assembled M r and
    B^-1 M r.  Every block of the linear and burgers 2x2-tile problems at
    N_t 1 and 3, and of a periodic single tile."""
    calls = []
    real_apply = LocalSolve.apply

    def spy(self, v):
        calls.append((self, v.copy()))
        return real_apply(self, v)

    monkeypatch.setattr(LocalSolve, "apply", spy)
    for case in RAS_CASES.values():
        _check_restricted_residual(*case(), calls, real_apply)


def _check_restricted_residual(prob, tiles, solver, calls, real_apply):
    calls.clear()
    r = np.random.default_rng(12).standard_normal(prob.layout.n_z)
    z, binv_z, norms = _precond_apply(solver, r)
    solves = solver.local_solves
    with_obs = [key for key, ls in solves.items() if ls.k]
    assert with_obs and len(calls) == len(with_obs)
    seen = {key: v for key, ls in solves.items()
            for solve, v in calls if solve is ls}
    assert set(seen) == set(with_obs)
    u = prob.b_cov.apply(r)
    index = np.arange(prob.layout.n_z, dtype=float)
    e = np.zeros(prob.layout.n_z)
    for key, p in solver.blocks.items():
        ls = solves[key]
        keep_cols, own_cols, own_idx = ls.keep_cols, ls.own_cols, ls.own_idx
        want = local_control(prob, u, p)
        gathered = want[keep_cols]
        assert not np.delete(want, keep_cols).any()
        assert norms[key] == np.linalg.norm(gathered)
        assert norms[key] == pytest.approx(np.linalg.norm(want), rel=1e-14)
        # the owned entries of u_p sit at own_idx in the global vector
        ctl = restrict_control(prob, index, p)
        loc = np.zeros(p.n_local)
        for name, part in split_local(p, loc).items():
            part[:] = ctl[name]
        assert np.array_equal(loc[own_cols], own_idx)
        if key not in seen:
            continue
        assert np.array_equal(seen[key], gathered)
        x = gauss_newton_rows([p])
        cap = x @ _prior_rows(p, x).T / p.alpha + np.diag(p.q_var)
        dense = x.T @ np.linalg.solve(cap, x @ want)
        got = real_apply(ls, gathered)
        assert np.linalg.norm(got - dense[own_cols]) \
            <= 1e-12 * np.linalg.norm(dense)
        e[own_idx] = got
    alpha = solver.config.alpha
    s = (r - e / alpha) / alpha
    assert np.linalg.norm(binv_z - s) <= 1e-12 * np.linalg.norm(s)
    assert np.array_equal(z, prob.b_cov.apply(binv_z))


def _prior_rows(p, x):
    """B_p applied to every row of x (k x n_local), through the
    restricted covariances' own applies."""
    return np.array([reference_cov(p, row) for row in x]).reshape(x.shape)


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
    """Through the Woodbury identity the block's capacitance matrix
    C = R_pp + X B_p X' / alpha inverts alpha B_p^-1 + X' R_pp^-1 X as CG
    run to 1e-14 does, and the factorized solve, given the kept entries
    of u_p, returns the owned entries of X' C^-1 X u_p to 1e-12; the
    3x3-tile, halo-1 case has blocks with k_p = 0 and a block that owns
    no ring cells."""
    solvers = [dd_setup()[2], _c5_solver(2)[1],
               dd_setup(nx=12, ny=12, ti=3, tj=3, halo=1, n_obs=6)[2]]
    rng = np.random.default_rng(31)
    ranks, rings = [], []
    for solver in solvers:
        solves = build_local_solves(solver.blocks, solver.config.alpha)
        for key in sorted(solver.blocks):
            p = solver.blocks[key]
            x = gauss_newton_rows([p])
            a_p = LinearOperator(
                (p.n_local,) * 2, lambda v, p=p, x=x: reference_prior(p, v)
                + x.T @ reference_weight(p, x @ v))
            ls = solves[key]
            b_p = LinearOperator((p.n_local,) * 2,
                                 lambda v, p=p: reference_cov(p, v))
            rhs = rng.standard_normal(p.n_local)

            def correction(u):
                if not ls.k:
                    return np.zeros_like(u)
                cap = x @ _prior_rows(p, x).T / p.alpha + np.diag(p.q_var)
                return x.T @ np.linalg.solve(cap, x @ u)

            if ls.k:
                keep_cols, own_cols = ls.keep_cols, ls.own_cols
                u = np.zeros(p.n_local)
                u[keep_cols] = rhs[keep_cols]
                want = correction(u)[own_cols]
                assert np.linalg.norm(ls.apply(u[keep_cols]) - want) \
                    <= 1e-12 * np.linalg.norm(want)
            # pcg runs (B_p^-1 + X' R_pp^-1 X / alpha) y = rhs / alpha; its
            # y must also solve a_p y = rhs, built from the restricted
            # covariances' own inverses
            h_p = LinearOperator(
                (p.n_local,) * 2,
                lambda v, p=p, x=x: x.T @ reference_weight(p, x @ v) / p.alpha)
            ref = pcg(h_p, rhs / p.alpha, b_p, tol=1e-14, maxit=2000)
            assert ref.converged
            assert np.linalg.norm(a_p.apply(ref.x) - rhs) \
                <= 1e-12 * np.linalg.norm(rhs)
            u = reference_cov(p, rhs)
            got = (u - reference_cov(p, correction(u)) / p.alpha) / p.alpha
            assert np.linalg.norm(got - ref.x) <= 1e-10 * np.linalg.norm(
                ref.x)
            ranks.append(ls.k)
            rings.append(p.ring_pos.size)
    assert min(ranks) == 0 and min(rings) == 0


def test_each_block_is_factorized_once_per_solve(monkeypatch):
    """The first preconditioner apply factorizes every block in one
    build_local_solves call, later applies reuse the factors, the solve
    runs pcg once and the preconditioner never runs an inner Krylov
    solve, and each block's capacitance size is its observation count."""
    import ddvar.krylov as krylov
    import ddvar.schwarz as schwarz

    built = []
    build = schwarz.build_local_solves
    precond = schwarz.DDSolver._precond
    pcg_calls = {"solve": 0, "precond": 0}
    in_precond = []

    def counted(blocks, alpha, seconds=None):
        built.append(sorted(blocks))
        return build(blocks, alpha, seconds)

    def counted_pcg(*args, **kw):
        pcg_calls["precond" if in_precond else "solve"] += 1
        return pcg(*args, **kw)

    def marked_precond(self, *args):
        in_precond.append(True)
        try:
            return precond(self, *args)
        finally:
            in_precond.pop()

    monkeypatch.setattr(schwarz, "build_local_solves", counted)
    monkeypatch.setattr(krylov, "pcg", counted_pcg)
    monkeypatch.setattr(schwarz, "pcg", counted_pcg)
    monkeypatch.setattr(schwarz.DDSolver, "_precond", marked_precond)
    sizes = []
    # the 3x3-tile network leaves some blocks without observations
    for solves, kw in enumerate(
            ({}, dict(nx=12, ny=12, ti=3, tj=3, halo=1, n_obs=6)), start=1):
        built.clear()
        prob, tiles, solver = dd_setup(**kw)
        assert built == [] and solver.local_solves is None
        res = solver.solve()
        assert res.converged and res.n_iterations > 1
        assert pcg_calls == {"solve": solves, "precond": 0}
        assert built == [sorted(solver.blocks)]
        assert len(res.capacitance_sizes) == len(solver.blocks)
        for (tid, k), p in solver.blocks.items():
            assert res.capacitance_sizes[tid + tiles.n_tiles * k] \
                == solver.local_solves[(tid, k)].k == p.q_obs_idx.size
        sizes += res.capacitance_sizes
    assert min(sizes) == 0 < max(sizes)


def test_zero_residual_solve_factorizes_no_block(monkeypatch):
    """With zero innovations the initial residual is zero and pcg stops
    before any preconditioner apply: the solve converges at iteration 0,
    reports every block's capacitance size from its observation count,
    and builds no block solve."""
    def no_build(*args, **kw):
        raise AssertionError("a block solve was built")

    monkeypatch.setattr(LocalSolve, "__init__", no_build)
    prob, tiles, solver = dd_setup()
    solver.d = np.zeros_like(solver.d)
    res = solver.solve()
    assert res.converged and res.n_iterations == 0
    assert res.capacitance_sizes == [3, 4, 4, 2, 5, 5, 4, 4]
    assert solver.local_solves is None
    assert not np.any(res.delta_z)


def _layout(name, kind, n_t):
    if name == "periodic-1x1":
        prob = make_problem(kind, "periodic", nx=12, ny=10, n_steps=4,
                            n_t=n_t, seed=5, n_obs=10)
        tiles = build_tiles(prob.model.grid, 1, 1, 2)
        return prob, tiles, DDSolver(prob, tiles, DDConfig())
    kw = {} if name == "2x2" else dict(nx=12, ny=12, ti=3, tj=3, halo=1,
                                       n_obs=6)
    return dd_setup(kind=kind, n_t=n_t, **kw)


@pytest.mark.parametrize("n_t", [1, 2, 3])
@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_tile_build_equals_lone_block_build(kind, n_t):
    """Built with its tile (stacked reverse sweep, one prior apply per
    part, batched inverses, every window's maps at once) each block gets
    bit for bit the solve it gets built as a group of one: cx, xt,
    keep_cols, own_cols and own_idx.  Layouts: the 2x2 problem, the
    3x3 halo-1 network (blocks with k_p = 0 and a block that owns no
    ring cells) and a periodic single tile."""
    for name in ("2x2", "3x3-halo1", "periodic-1x1"):
        prob, tiles, solver = _layout(name, kind, n_t)
        alpha = solver.config.alpha
        tiled = build_local_solves(solver.blocks, alpha)
        assert set(tiled) == set(solver.blocks)
        ranks, rings = [], []
        for key, p in solver.blocks.items():
            lone = build_local_solves({key: p}, alpha)[key]
            got = tiled[key]
            assert got.k == lone.k == p.q_obs_idx.size
            for attr in ("keep_cols", "own_cols", "own_idx"):
                assert np.array_equal(getattr(got, attr), getattr(lone, attr))
            if lone.k:
                assert np.array_equal(got.cx, lone.cx)
                assert np.array_equal(got.xt, lone.xt)
            else:
                assert got.cx is got.xt is lone.cx is lone.xt is None
            ranks.append(lone.k)
            rings.append(p.ring_pos.size)
        if name == "3x3-halo1":
            assert min(ranks) == 0 and min(rings) == 0


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_block_build_work_counts(kind, monkeypatch):
    """Exact work of the block build on the 2x2-tile, two-window problem.
    The first preconditioner apply builds the rows of each tile once, in
    sweeps that start at the highest observation level of their rows: on
    the linear model one reverse sweep of the tile's stacked seeds, each
    tile has rows at level 3, so 4 x 3 = 12 apply_t; on burgers, whose
    steps each have their own operator, one sweep per block, and blocks
    (0, 0) and (3, 0) have rows up to level 2 only, so 6 x 3 + 2 x 2 =
    22.  It applies each tile's restricted covariances once per part
    (x0, f, b) and inverts the capacitance matrices in one batched call
    per size k_p, each matrix once; a whole solve builds nothing more."""
    from ddvar.covariance import GaussianCovariance, KroneckerCovariance
    from ddvar.model import StepOperator

    prob, tiles, solver = dd_setup(kind=kind)
    calls = Counter()
    stacks = []

    def counting(obj, name, key):
        orig = getattr(obj, name)

        def counted(*args):
            calls[key] += 1
            return orig(*args)
        monkeypatch.setattr(obj, name, counted)

    counting(StepOperator, "apply_t", "apply_t")
    counting(KroneckerCovariance, "apply", "box prior")
    counting(GaussianCovariance, "apply", "ring prior")
    inv = np.linalg.inv

    def batched_inv(a):
        stacks.append(a.shape)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", batched_inv)
    r = np.random.default_rng(3).standard_normal(prob.layout.n_z)
    _precond_apply(solver, r)
    first = calls.copy()
    calls.clear()
    # a later apply builds nothing: its counts are the two global B
    # applies alone
    _precond_apply(solver, r, 2)
    build = first - calls
    sizes = Counter(p.q_obs_idx.size for p in solver.blocks.values())
    assert sorted(sizes.elements()) == [2, 3, 4, 4, 4, 4, 5, 5]
    assert calls["apply_t"] == 0
    assert build == {"apply_t": 12 if kind == "linear" else 22,
                     # per tile: x0 on the window-0 rows, f on every row
                     "box prior": 2 * tiles.n_tiles,
                     # per tile: b on every row
                     "ring prior": tiles.n_tiles}
    assert sorted(stacks, key=lambda shape: shape[1]) == [
        (n, k, k) for k, n in sorted(sizes.items())]
    # a whole solve builds nothing more: its apply_t are the Hessian's
    # adjoint sweeps, one per iteration plus the right-hand side's
    stacks.clear()
    calls.clear()
    res = solver.solve()
    assert res.converged
    assert calls["apply_t"] == (res.n_iterations + 1) * prob.windows.n_steps
    assert stacks == []


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
    # the reported J, Jb and Jo come from pcg's recurrence; evaluated
    # directly at the assembled increment they agree
    direct = prob.cost(res.delta_z)
    assert res.final_cost == j[-1]
    for got, want in zip((res.cost.J, res.cost.Jb, res.cost.Jo),
                         (direct.J, direct.Jb, direct.Jo), strict=True):
        assert got == pytest.approx(want, rel=1e-10)


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
    """The box model of a block is its window's step operators restricted
    to its box.  On the linear model (one constant-coefficient operator)
    blocks with equal box shapes step with equal box operators, and the
    window blocks of one tile hold one and the same object, so there are
    fewer box operators than blocks."""
    prob, tiles, solver = dd_setup(ti=2, tj=2, n_t=2)
    by_shape, by_tile = {}, {}
    for (tid, k), p in solver.blocks.items():
        op = p.lin_ops[0]
        assert all(o is op for o in p.lin_ops)
        assert op is by_tile.setdefault(tid, op)
        first = by_shape.setdefault(p.tile.box_shape, op)
        assert np.array_equal(op.ax, first.ax)
        assert np.array_equal(op.ay, first.ay)
    assert len({id(p.lin_ops[0]) for p in solver.blocks.values()}) \
        == len(by_tile) == tiles.n_tiles < len(solver.blocks)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
def test_dd_solve_assembles_each_step_operator_once(kind, monkeypatch):
    """The problem's background tangent assembles each step operator once
    (the linear model's one operator is built with the model), and the
    blocks restrict each distinct operator once per tile: linear, one
    restricted operator per tile, held by every step of its window
    blocks; burgers, one per tile and step, whichever window holds it."""
    from ddvar.model import StepOperator, SurrogateModel

    prob, tiles = dd_problem(kind=kind)
    built, restricted = [], []
    assemble, restrict = SurrogateModel._assemble, StepOperator.restrict

    def counted(self, state):
        built.append(self)
        return assemble(self, state)

    def counted_restrict(self, rows, cols):
        restricted.append(self)
        return restrict(self, rows, cols)

    monkeypatch.setattr(SurrogateModel, "_assemble", counted)
    monkeypatch.setattr(StepOperator, "restrict", counted_restrict)
    solver = DDSolver(prob, tiles, DDConfig(n_bar=2))
    solver.solve()
    n_steps, n_tiles = prob.windows.n_steps, tiles.n_tiles
    steps = prob.background_tangent.steps
    assert len(steps) == n_steps
    assert all(m is prob.model for m in built)
    by_tile = {}
    for (tid, k), p in solver.blocks.items():
        assert len(p.lin_ops) == p.n_levels - 1
        by_tile.setdefault(tid, []).extend(p.lin_ops)
    if kind == "linear":
        assert built == []
        assert len({id(op) for op in steps}) == 1
        assert len(restricted) == n_tiles
        for ops in by_tile.values():
            assert len({id(op) for op in ops}) == 1
    else:
        assert len(built) == n_steps
        assert len(restricted) == n_tiles * n_steps
        assert Counter(id(op) for op in restricted) \
            == dict.fromkeys(map(id, steps), n_tiles)
        for ops in by_tile.values():
            assert len(ops) == len({id(op) for op in ops}) == n_steps


def test_dd_not_converged_is_flagged_not_raised():
    prob, tiles, solver = dd_setup(n_bar=2)
    res = solver.solve()
    assert not res.converged
    assert res.n_iterations == 2
    assert len(res.residuals) == len(res.costs) == 3


@pytest.mark.parametrize("kw", [dict(ti=1, tj=1, n_t=1),
                                dict(kind="burgers")])
def test_dd_tolerance_below_rounding_level_stops_without_raising(kw):
    """The recurrence residual stalls at rounding level, where the
    A-orthogonalized directions turn into rounding error; a tau_dd below
    that level ends the solve at the first nonpositive curvature, before
    n_bar, unconverged and at the global analysis."""
    prob, tiles, solver = dd_setup(tau_dd=1e-17, **kw)
    res = solver.solve()
    assert not res.converged and res.residuals[-1] > 1e-17
    assert res.n_iterations < solver.config.n_bar
    assert len(res.trace_rows) == res.n_iterations * len(solver.blocks)
    ref = prob.primal_analysis(tol=1e-14).x
    assert np.linalg.norm(res.delta_z - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dd_solve_runs_one_tl_and_ad_sweep_per_iteration(monkeypatch):
    """One global forward and adjoint per outer iteration, plus the right
    hand side's adjoint; the final cost comes from the recurrence."""
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
    assert calls == {"forward": res.n_iterations,
                     "adjoint": res.n_iterations + 1}


def test_dd_solve_work_counts(monkeypatch):
    """Exact work of one solve on the 2x2-tile, two-window problem: each
    preconditioner apply runs two global B applies, the solve no B^-1
    apply, each block is factorized once, one TL and one AD sweep run per outer
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
        return out
    monkeypatch.setattr(solver, "_precond", counted_precond)

    res = solver.solve()
    n = res.n_iterations
    assert res.converged and n == 6
    assert calls["applies"] == n
    assert calls["B in precond"] == calls["B"] == 2 * n
    # pcg carries B^-1 of its directions and iterate, so neither the
    # Hessian applies nor the final cost apply B^-1, and the ring
    # block's precision is never built
    assert calls["B^-1"] == 0
    assert "precision" not in vars(prob.b_cov.blocks["b"])
    assert calls["factorized"] == len(solver.blocks) == 8
    # plus the right-hand side's adjoint; the final cost comes from pcg's
    # recurrence and runs no sweep
    assert (calls["tl"], calls["ad"]) == (n, n + 1)
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
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            DDConfig(alpha=alpha)
