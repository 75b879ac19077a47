"""Property tests of the space-time decomposition geometry.

Random tile counts, halo widths, window splits, observation error levels,
correlation lengths and observing networks with points on tile seams and
junctions: ownership must partition the observations, every network must
be accepted and its decomposed solve must reach the global B-PCG
analysis, every cell mask of a tile must equal the one decided cell by
cell from the tile's owned ranges, the blocks' owned control entries
must partition the control vector, and every block's observation rows X
must equal the ones built by plain loops from those cells, with its
factorized solve applying X' C^-1 X of those rows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddvar.assim import AssimilationProblem
from ddvar.covariance import CovarianceR
from ddvar.grid import Grid, boundary_ring_indices, build_tiles
from ddvar.observations import ObservationSet
from ddvar.schwarz import (DDConfig, DDSolver, build_local_problems,
                           build_local_solves, gauss_newton_rows)
from util import make_problem, reference_cov, split_local


@st.composite
def decompositions(draw):
    ti = draw(st.integers(1, 3))
    tj = draw(st.integers(1, 3))
    nx = draw(st.integers(max(4, 2 * ti), 12))
    ny = draw(st.integers(max(4, 2 * tj), 12))
    widest = min(3, nx // ti if ti > 1 else 3, ny // tj if tj > 1 else 3)
    halo = draw(st.integers(1, widest))
    n_steps = draw(st.integers(2, 4))
    n_t = draw(st.integers(1, min(3, n_steps)))
    kind = draw(st.sampled_from(["linear", "burgers"]))
    tiles = build_tiles(Grid(nx=nx, ny=ny), ti, tj, halo).tiles
    return dict(ti=ti, tj=tj, nx=nx, ny=ny, halo=halo, n_steps=n_steps,
                n_t=n_t, kind=kind,
                seams_x=sorted({t.i0 for t in tiles} - {0}) or [nx // 2],
                seams_y=sorted({t.j0 for t in tiles} - {0}) or [ny // 2])


@st.composite
def networks(draw, geo):
    """Points anywhere, on seams (between or on nodes) and in the cells
    around four-tile junctions."""
    nx, ny = geo["nx"], geo["ny"]
    offsets = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5])

    def coordinate(on_seam, seams, n):
        if on_seam:
            return draw(st.sampled_from(seams)) + draw(offsets)
        return draw(st.floats(0.0, n - 1.0))

    pts = []
    for _ in range(draw(st.integers(1, 8))):
        where = draw(st.sampled_from(["any", "seam_x", "seam_y",
                                      "junction"]))
        x = coordinate(where in ("seam_x", "junction"), geo["seams_x"], nx)
        y = coordinate(where in ("seam_y", "junction"), geo["seams_y"], ny)
        level = draw(st.integers(0, geo["n_steps"]))
        pts.append((level, min(max(x, 0.0), nx - 1.0),
                    min(max(y, 0.0), ny - 1.0)))
    return pts


def build_case(geo, pts, sigma_o=1.0, length=0.5):
    base = make_problem(geo["kind"], "prescribed", nx=geo["nx"],
                        ny=geo["ny"], n_steps=geo["n_steps"],
                        n_t=geo["n_t"], seed=3, n_obs=4, length_x=length,
                        length_f=length, length_b=length)
    grid = base.model.grid
    levels, xs, ys = zip(*pts)
    obs = ObservationSet(grid, levels, xs, ys, ["p"] * len(pts),
                         np.zeros(len(pts)),
                         np.full(len(pts), sigma_o ** 2))
    obs.values[:] = obs.sample(base.background_traj) + 0.1
    prob = AssimilationProblem(base.model, base.windows, base.layout,
                               base.b_cov, CovarianceR(obs.variances), obs,
                               base.x_b)
    tiles = build_tiles(grid, geo["ti"], geo["tj"], geo["halo"])
    return prob, tiles


# -- plain-loop reference of the local solve's operator ---------------------


def reference_cells(p, grid):
    """The cell classes of block p's box, decided cell by cell from the
    tile: rho_keep (owned cells, and live cells off the ring, not on a
    strip's box-edge line and with no corner cell beside them), D (the
    live cells whose step output the correction propagator keeps), the
    ring halo (ring cells the tile does not own), and the owned ring
    cells in b order."""
    t = p.tile
    bnx, bny = t.box_shape

    def in_i(i):
        return t.i0 <= i + t.bi0 < t.i1

    def in_j(j):
        return t.j0 <= j + t.bj0 < t.j1

    def corner(i, j):
        return (0 <= i < bnx and 0 <= j < bny
                and not in_i(i) and not in_j(j))

    rho_keep = np.zeros(t.box_shape, dtype=bool)
    keep = np.zeros(t.box_shape, dtype=bool)
    ring_halo = np.zeros(t.box_shape, dtype=bool)
    for i in range(bnx):
        for j in range(bny):
            gi, gj = i + t.bi0, j + t.bj0
            owned = in_i(i) and in_j(j)
            live = in_i(i) or in_j(j)
            on_ring = p.prescribed and (gi in (0, grid.nx - 1)
                                        or gj in (0, grid.ny - 1))
            on_edge = ((i in (0, bnx - 1) and not in_i(i))
                       or (j in (0, bny - 1) and not in_j(j)))
            near = any(corner(i + di, j + dj) for di, dj in
                       ((1, 0), (-1, 0), (0, 1), (0, -1)))
            keep[i, j] = live and not on_ring and not on_edge
            rho_keep[i, j] = owned or (keep[i, j] and not near)
            ring_halo[i, j] = on_ring and not owned
    ring = []
    if p.prescribed:
        for gi, gj in zip(*boundary_ring_indices(grid.nx, grid.ny)):
            if t.i0 <= gi < t.i1 and t.j0 <= gj < t.j1:
                ring.append((gi - t.bi0, gj - t.bj0))
    ring = tuple(np.array(ring, dtype=int).reshape(-1, 2).T)
    return rho_keep, keep, ring_halo, ring


def assert_cells_match_reference(p, grid):
    """Every cell mask of the block's tile equals the cell-by-cell
    reference; each strip's own_valid is rho_keep on the strip."""
    rho_keep, keep, ring_halo, ring = reference_cells(p, grid)
    assert np.array_equal(p.rho_keep, rho_keep)
    assert np.array_equal(p.d_mask, keep)
    assert np.array_equal(p.ring_halo, ring_halo)
    assert np.array_equal(p.ring_ii, ring[0])
    assert np.array_equal(p.ring_jj, ring[1])
    assert set(p.own_valid) == set(p.strips)
    for side, sl in p.strips.items():
        assert np.array_equal(p.own_valid[side], rho_keep[sl])


def reference_readout(p, s, rho_keep, keep, ring):
    """Zero-inflow correction sweep of the local control s, read at the
    block's observation samples: every step applies the global step
    operator to the state padded with zeros outside the box."""
    parts = split_local(p, s)
    state = (np.where(rho_keep, parts["x0"], 0.0) if p.has_x0
             else p.zero_box())
    states = [state]
    bi, bj = p.tile.box_slices
    padded = np.zeros((p.n_fields, p.grid.nx, p.grid.ny))
    for l in range(1, p.n_levels):
        padded[:, bi, bj] = states[-1]
        raw = (p.steps[l - 1].apply(padded)[:, bi, bj]
               + p.grid.dt * parts["f"])
        nxt = np.where(keep, raw, 0.0)
        if ring[0].size:
            nxt[:, ring[0], ring[1]] = parts["b"]
        states.append(nxt)
    return p.obs.sample(states, p.q_stencil)


# -- properties -------------------------------------------------------------


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_ownership_partitions_and_every_network_reaches_the_analysis(data):
    geo = data.draw(decompositions())
    pts = data.draw(networks(geo))
    sigma_o = data.draw(st.sampled_from([1.0, 0.3, 0.1]))
    length = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    prob, tiles = build_case(geo, pts, sigma_o, length)
    obs, grid = prob.obs, prob.model.grid

    owners = []
    for _, x, y in pts:
        mine = [t for t in tiles.tiles if t.contains_point(x, y, grid)]
        assert len(mine) == 1
        owners.append(mine[0])
    blocks = build_local_problems(prob, tiles, DDConfig())
    for p in blocks.values():
        assert_cells_match_reference(p, grid)
    owned = sorted(int(n) for p in blocks.values() for n in p.own_obs_idx)
    assert owned == list(range(obs.n_obs))
    for p in blocks.values():
        for n in p.own_obs_idx:
            assert owners[n].id == p.tile.id
            assert prob.windows.window_of_level(int(obs.levels[n])) \
                == p.window

    # junction and seam points included: the decomposed solve works on
    # the global residual, so it reaches the global analysis
    res = DDSolver(prob, tiles, DDConfig()).solve()
    assert res.converged
    ref = prob.primal_analysis(tol=1e-12).x
    assert np.linalg.norm(res.delta_z - ref) <= 1e-6 * np.linalg.norm(ref)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_owned_control_indices_partition_the_control_vector(data):
    geo = data.draw(decompositions())
    prob, tiles = build_case(geo, data.draw(networks(geo)))
    solves = build_local_solves(build_local_problems(prob, tiles, DDConfig()),
                                DDConfig().alpha)
    owned = np.sort(np.concatenate([ls.own_idx for ls in solves.values()]))
    np.testing.assert_array_equal(owned, np.arange(prob.layout.n_z))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_assembled_local_operator_matches_plain_loop_reference(data):
    geo = data.draw(decompositions())
    pts = data.draw(networks(geo))
    prob, tiles = build_case(geo, pts)
    grid = prob.model.grid
    solver = DDSolver(prob, tiles, DDConfig())
    solves = build_local_solves(solver.blocks, solver.config.alpha)
    rng = np.random.default_rng(len(pts))
    for key in sorted(solver.blocks):
        p = solver.blocks[key]
        assert_cells_match_reference(p, grid)
        rho_keep, keep, _, ring = reference_cells(p, grid)
        cols = [reference_readout(p, e, rho_keep, keep, ring)
                for e in np.eye(p.n_local)]
        x_ref = np.array(cols).reshape(p.n_local, -1).T
        ls = solves[key]
        assert ls.k == p.q_obs_idx.size == x_ref.shape[0]
        x = gauss_newton_rows([p])
        assert np.linalg.norm(x - x_ref) <= 1e-12 * max(
            np.linalg.norm(x_ref), 1.0)
        if not ls.k:
            continue
        # on the kept entries of u_p the solve returns the owned entries
        # of X' C^-1 X u_p, C = R_pp + X B_p X' / alpha
        keep_cols, own_cols = ls.keep_cols, ls.own_cols
        u = np.zeros(p.n_local)
        u[keep_cols] = rng.standard_normal(keep_cols.size)
        b_x = np.array([reference_cov(p, row) for row in x_ref])
        cap = x_ref @ b_x.T / p.alpha + np.diag(p.q_var)
        want = (x_ref.T @ np.linalg.solve(cap, x_ref @ u))[own_cols]
        assert np.linalg.norm(ls.apply(u[keep_cols]) - want) \
            <= 1e-10 * np.linalg.norm(want)
