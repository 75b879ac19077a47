"""Space-time domain-decomposed incremental assimilation.

DDSolver.solve minimizes the global quadratic by flexible CG (krylov.pcg
at depth None) on the primal system

    (B^-1 + G' R^-1 G) z = G' R^-1 d,

one Hessian apply (one TL and one AD sweep of the problem's background
TangentObsOperator) per iteration, and stops once the global residual has
fallen to tau_dd times its initial norm.  The preconditioner applies the
prior globally and splits only the low-rank observation term over the
(tile i, window k) blocks, the observation-space (dual) form of the
Gauss-Newton inverse (Courtier, QJRMS 1997) applied block by block as in
restricted additive Schwarz (Cai & Sarkis, SIAM J. Sci. Comput. 1999):

    M r = B s,    s = (r - E(sum_p X_p' y_p) / alpha) / alpha,
    y_p = C_p^-1 X_p u_p,    u = B r,    C_p = R_pp + X_p B_p X_p' / alpha.

B is one global covariance apply, so M needs two of them, and B^-1 M r
is s itself: pcg carries B^-1 of its directions from it and never
applies B^-1.  With no observations M = B / alpha, B-preconditioned CG,
which does not degrade at long correlation lengths.  Window-0 blocks own
their tile's initial-state nodes, and every block owns its tile's forcing
nodes and physical-boundary ring nodes for its window.  The set-up follows
the space-time split: each tile's spatial geometry (TileGeometry: halo
strips, one mask per cell class, D of the propagator among them, ring
cells, node indices and the covariances restricted to the box) is built
once and shared, array for array, by the tile's N_t window blocks, and
each window's observations are found once; a block adds only its
window's levels, control segments and the observations its box
carries.  A window's blocks share one flat buffer that holds each
block's local control u_p (its box, x0 and f stacked, then its owned
ring values).  Each apply, per window,

  1. one gather fills the owned cells and ring values of every block from
     u, and one halo_exchange on the window's inter communicator fills
     the halo strips of the boxes,
  2. every block gathers its kept inputs (the rho_keep cells: owned
     cells and the trusted strip cells, and its ring values) and solves
     in the space of its k_p observations, the ones whose bilinear
     stencil lies inside its box.  X_p (k_p x n_local) maps the local
     control through the zero-inflow local propagator, the window's
     background tangent steps restricted to the box, to those samples;
     R_pp is their error variance and B_p the covariance restricted to
     the box.  The first apply builds every block's solve in one pass
     (build_local_solves), tile by tile: the rows X_p of the tile's
     window blocks from reverse sweeps of their stacked seeds, one sweep
     for the blocks that share their step operators (gauss_newton_rows),
     B_p X_p' by one apply per covariance part to the stacked rows, each
     C_p, and the column maps of every window at once; then one batched
     inverse per size k_p of the k_p x k_p matrices C_p.  A block keeps
     only C_p^-1 X_p on the kept columns and X_p' on the owned ones
     (LocalSolve); every later solve is two small dense products,
  3. scatters X_p' y_p on its owned entries into the flat vector E
     assembles (the owned entries of the blocks are disjoint).

The outer iteration works on the exact global residual, so its solution is
the global analysis whatever the blocks drop; they only shape the
convergence rate.  In particular an observation in the cell at a
four-tile junction, whose diagonal node is a zeroed corner of its owner's
box, is seen exactly by the Hessian and approximately by the blocks.

Two local sweeps remain, which the solve does not run: local_tl_step and
local_ad_step describe one block's part of the global sweeps with frozen
neighbor traces (halo strips overwritten from the trace after every step
plus the theta seam correction, box corners zeroed) with the same
restricted steps.  They stay, with LocalProblem.owned_prec_apply, because the benchmark's layer table
(perfbench/layers.py) names them; tests check them against the global
sweeps and B^-1.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assim import CostBreakdown, _gauss_newton
from .comm import World, create_inter, halo_exchange
from .grid import SIDES, boundary_ring_indices
from .krylov import pcg

__all__ = [
    "DDConfig",
    "DDResult",
    "DDSolver",
    "LocalProblem",
    "LocalSolve",
    "NeighborTrace",
    "TileGeometry",
    "build_local_problems",
    "build_local_solves",
    "gauss_newton_rows",
    "local_ad_step",
    "local_tl_step",
]

@dataclass(frozen=True)
class DDConfig:
    """Settings of the decomposed solve.

    n_bar caps the outer flexible-CG iterations and tau_dd stops them once
    the global residual norm has fallen to tau_dd times its initial value.
    alpha > 0 weights the prior in the preconditioner.

    Inert keys, kept (n_inner and omega validated) so that existing
    configs still load: n_inner and inner_tol bounded the former local
    PCG solves, beta weighted the former strip overlap term and now has no
    reader, gamma weights the theta seam correction of
    local_tl_step/local_ad_step, and omega damped the corrections of the
    former trace iteration.  None of them affects the solve.
    """
    # every field stays: perfbench's _dd_config passes n_inner, inner_tol,
    # beta, gamma and omega, and its dd_c5 config sets omega and n_inner
    n_bar: int = 50
    tau_dd: float = 1e-10
    n_inner: int = 30
    inner_tol: float = 1e-4
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.n_bar < 1:
            raise ValueError("n_bar must be >= 1")
        if self.tau_dd <= 0:
            raise ValueError("tau_dd must be > 0")
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")


@dataclass
class NeighborTrace:
    """Frozen neighbor data one block reads during its sweeps.

    tl_halo / ad_halo map side -> (n_levels, n_fields, si, sj) halo strip
    values per local window level.
    """
    tl_halo: dict
    ad_halo: dict


class TileGeometry:
    """The spatial part of a tile's blocks, which no window changes: strip
    geometry, cell masks, ring cells, node indices, the covariances
    restricted to the box, and which observations the tile owns and its
    box carries.  build_local_problems builds one per tile, and the tile's
    N_t window blocks share its arrays.  ring is the boundary ring's
    (ii, jj) (None for periodic models) and full_cov the spatial blocks of
    the control covariance (ControlCovariance.blocks: x0 and f over the
    grid, b over the ring, None without boundary segments).

    Every cell class of the box is one boolean mask, from the tile's
    owned rows (in_i) and columns (in_j), the box edge and, on prescribed
    boundaries, the physical ring:

    - owned = in_i & in_j, live = in_i | in_j (the owned interior and the
      halo strips); the other cells are corners, kept at zero;
    - strip edge: the live cells off the owned rows on the first or last
      box row, or off the owned columns on the first or last box column;
    - trusted: off the ring, not a corner nor next to one (the stencil
      reads its zeroed input), and not a strip edge;
    - rho_keep = owned | (live & trusted), the inputs the solve trusts;
    - d_mask = live & ~ring & ~strip edge, D of gauss_newton_rows;
    - ring_halo = ring & ~owned, the ring cells of neighbor territory.
    """

    def __init__(self, tile, model, grid, ring, full_cov, obs):
        self.tile = tile
        self.grid = grid
        self.n_fields = model.n_fields
        self.prescribed = prescribed = model.config.boundary == "prescribed"
        bnx, bny = tile.box_shape
        self.strips = {side: tile.halo_slices_local(side) for side in SIDES
                       if tile.neighbors.get(side) is not None}

        gi = np.arange(tile.bi0, tile.bi1)
        gj = np.arange(tile.bj0, tile.bj1)
        in_i = ((gi >= tile.i0) & (gi < tile.i1))[:, None]
        in_j = ((gj >= tile.j0) & (gj < tile.j1))[None, :]
        owned = in_i & in_j
        live = in_i | in_j
        on_ring = np.zeros(tile.box_shape, dtype=bool)
        if prescribed:
            on_ring |= ((gi == 0) | (gi == grid.nx - 1))[:, None]
            on_ring |= ((gj == 0) | (gj == grid.ny - 1))[None, :]
        rows = np.arange(bnx)[:, None]
        cols = np.arange(bny)[None, :]
        strip_edge = live & ((((rows == 0) | (rows == bnx - 1)) & ~in_i)
                             | (((cols == 0) | (cols == bny - 1)) & ~in_j))
        self.corner = corner = ~live
        near = corner.copy()
        near[1:, :] |= corner[:-1, :]
        near[:-1, :] |= corner[1:, :]
        near[:, 1:] |= corner[:, :-1]
        near[:, :-1] |= corner[:, 1:]
        trusted = ~(on_ring | near | strip_edge)
        self.rho_keep = owned | (live & trusted)
        self.d_mask = live & ~(on_ring | strip_edge)
        self.ring_halo = on_ring & ~owned
        # the trusted cells of each strip, read by the local sweeps
        self.own_valid = {side: trusted[sl] for side, sl in self.strips.items()}

        # the owned ring cells, in b order: they carry the block's boundary
        # increments
        if prescribed:
            ii, jj = ring
            own = ((ii >= tile.i0) & (ii < tile.i1)
                   & (jj >= tile.j0) & (jj < tile.j1))
            self.ring_pos = np.flatnonzero(own)
            self.ring_ii = ii[own] - tile.bi0
            self.ring_jj = jj[own] - tile.bj0
        else:
            self.ring_pos = np.zeros(0, dtype=int)
            self.ring_ii = self.ring_jj = np.zeros(0, dtype=int)

        # node bookkeeping: flat global indices of the owned nodes
        self.owned_local = oi, oj = tile.owned_slices_local()
        self.n_box_nodes = bnx * bny
        nodes = gi[:, None] * grid.ny + gj[None, :]
        self.owned_node_idx = nodes[oi, oj].ravel()

        # covariances: the spatial blocks restricted to the box (x0, f)
        # and the owned ring (b, None without one) for the capacitance
        # matrix, the full blocks for the owned block of the precision
        bb = full_cov["b"]
        self.cov_x = full_cov["x0"].restrict_grid(gi, gj)
        self.cov_f = full_cov["f"].restrict_grid(gi, gj)
        self.cov_b = (bb.restrict(self.ring_pos)
                      if bb is not None and self.ring_pos.size else None)
        self.full_cov = full_cov

        # masks over the observation set: the observations the tile owns,
        # and those whose bilinear stencil lies inside the box, which the
        # block solves carry even when a neighbor owns them
        self.obs_owned = tile.contains_point(obs.x, obs.y, grid)
        self.obs_in_box = ((obs.i0 >= tile.bi0) & (obs.i0 + 1 < tile.bi1)
                           & (obs.j0 >= tile.bj0) & (obs.j0 + 1 < tile.bj1))
        self._restricted = {}

    def restricted(self, op):
        """The step operator op restricted to the box (StepOperator.restrict),
        built on first use and shared by the tile's window blocks."""
        box = self._restricted.get(op)
        if box is None:
            box = self._restricted[op] = op.restrict(*self.tile.box_slices)
        return box


class LocalProblem:
    """Everything one (tile, window) block needs for its observation-space
    solve and its local sweeps: its tile's shared geometry, and the
    window's levels, control segments, observations and background
    tangent steps."""

    def __init__(self, geometry, window, steps, windows, layout_ctl,
                 obs, window_obs, weights):
        # the tile's geometry and restricted covariances: the same
        # objects, not copies, in every window's block of the tile
        vars(self).update(vars(geometry))
        self.geometry = geometry
        self.window = window
        self.windows = windows
        self.layout_ctl = layout_ctl
        self.alpha, self.gamma = weights
        self.steps = steps
        tile = self.tile

        self.n_levels = windows.sizes[window]
        self.levels = list(range(windows.starts[window],
                                 windows.end(window) + 1))

        # the window's observations (window_obs, a mask over the set) that
        # the tile owns, and those its block solve carries
        self.obs = obs
        self.own_obs_idx = np.flatnonzero(self.obs_owned & window_obs)
        self.q_obs_idx = np.flatnonzero(self.obs_in_box & window_obs)
        # bilinear stencils on the box (nodes outside it dropped) of the
        # observations the local quadratic carries
        self.q_stencil = obs.stencil(self.q_obs_idx, (tile.bi0, tile.bj0),
                                     tile.box_shape, self.levels[0])
        self.q_var = obs.variances[self.q_obs_idx]

        # u_p is (x0), f, (b): x0 (window 0) and f live on the whole box,
        # so the propagator reads the halo strips of u, and b holds the
        # owned ring values; only the owned part of a correction is ever
        # assembled
        self.has_x0 = window == 0
        self.n_ring_vals = (self.n_fields * self.ring_pos.size
                            if layout_ctl.has_boundary else 0)
        self.n_local = (self.n_fields * self.n_box_nodes * (1 + self.has_x0)
                        + self.n_ring_vals)

    def owned_prec_apply(self, seg, v):
        """Owned principal block of the segment precision applied to v, by
        zero-padding every field into the whole grid (or ring) and
        applying the spatial block's full B^-1."""
        cov = self.full_cov[seg]
        idx = self.ring_pos if seg == "b" else self.owned_node_idx
        full = np.zeros((self.n_fields, cov.n))
        full[:, idx] = v.reshape(self.n_fields, -1)
        return cov.apply_inv(full)[:, idx].ravel()

    @cached_property
    def lin_ops(self):
        """The window's step operators (steps, the problem's background
        tangent steps) restricted to the box; built on the block's first
        use."""
        return [self.geometry.restricted(op) for op in self.steps]

    def zero_box(self):
        return np.zeros((self.n_fields,) + self.tile.box_shape)

    # -- per-cell policies ----------------------------------------------

    def _apply_ring(self, state, b_own):
        if self.ring_pos.size:
            state[:, self.ring_ii, self.ring_jj] = \
                0.0 if b_own is None else b_own

    def _zero_ring_halo(self, state):
        state[:, self.ring_halo] = 0.0

    def _zero_corners(self, state):
        state[:, self.corner] = 0.0


def gauss_newton_rows(blocks):
    """The rows X_p of the Gauss-Newton terms X_p' R_pp^-1 X_p of blocks,
    a group of blocks of one tile in window order (a lone block is a
    group of one).

    X_p (dense, k_p x n_local) maps the block's local control u_p (x0, f,
    b) through the zero-inflow correction propagator

        x_0 = P x0,    x_l = D (M_l x_{l-1} + dt f) + R b

    to its k_p observation samples (q_stencil, the observations whose
    bilinear stencil lies inside the box).  P zeroes the box cells outside
    rho_keep, M_l is the step operator onto level l, D the tile's d_mask,
    which zeroes ring cells, strip lines on the box edge and box corners,
    and R injects b into the owned ring cells.

    The rows come from reverse sweeps of the sample seeds through the
    transposed masked step operators, one apply_t per level on a stack of
    (nf, bnx, bny) seeds.  Blocks whose window steps all use one operator
    (the linear model's) share one sweep over their stacked seeds; on a
    model with an operator per step (burgers) each block sweeps alone.  A
    sweep starts at the highest observation level of its rows and carries
    only the rows whose level it has reached.

    Returns the rows stacked block after block, shape (sum k_p, width),
    laid out as the widest block's u_p: the x0 columns when a block has
    them, then f and b.  Block p's X_p is its rows' last n_local columns;
    the x0 columns of the other rows are zero.
    """
    p = blocks[0]
    nf, ncell = p.n_fields, p.n_box_nodes
    box = (nf,) + p.tile.box_shape
    n = nf * ncell
    width = max(b.n_local for b in blocks)
    x = np.zeros((sum(b.q_obs_idx.size for b in blocks), width))
    f0 = width - n - p.n_ring_vals
    op = p.lin_ops[0] if p.lin_ops else None
    if all(o is op for b in blocks for o in b.lin_ops):
        groups = [blocks]
    else:
        groups = [[b] for b in blocks]
    r0 = 0
    for group in groups:
        m = sum(b.q_obs_idx.size for b in group)
        rows = slice(r0, r0 + m)
        r0 += m
        if not m:
            continue
        ops = max((b.lin_ops for b in group), key=len)
        # one seed per sample, its bilinear weights on field 0 of its
        # level (every stencil lies inside the box, so no two weights
        # share a slot), stacked by level, highest first: the rows a step
        # carries lead the stack, and row back[i] holds sample i
        level, cell = np.divmod(np.concatenate(
            [b.q_stencil.nodes for b in group], axis=1), ncell)
        back = np.argsort(np.argsort(-level[0], kind="stable"))
        adj = np.zeros((m, n))
        adj[back, cell] = np.concatenate(
            [b.q_stencil.weights for b in group], axis=1)
        adj = adj.reshape((m,) + box)
        levels = sorted(level[0].tolist(), reverse=True)
        # acc sums the adjoint states of the levels above 0: the f rows are
        # D acc (dt f enters every step through D), the b rows acc on the
        # owned ring cells
        acc = np.zeros_like(adj)
        carried = 0
        for lvl in range(levels[0], 0, -1):
            while carried < m and levels[carried] >= lvl:
                carried += 1
            live = adj[:carried]
            acc[:carried] += live
            live *= p.d_mask
            adj[:carried] = ops[lvl - 1].apply_t(live)
        acc = acc[back]
        x[rows, f0:f0 + n] = (acc * (p.d_mask * p.grid.dt)).reshape(m, n)
        x[rows, f0 + n:] = acc[..., p.ring_ii, p.ring_jj].reshape(
            m, p.n_ring_vals)
        if group[0].has_x0:
            k = group[0].q_obs_idx.size
            x[rows.start:rows.start + k, :n] = (
                adj[back[:k]] * p.rho_keep).reshape(k, n)
    return x


class LocalSolve:
    """One block's observation-space solve, factorized once.

    With X the block's sample rows (gauss_newton_rows), B_p the control
    covariance's spatial blocks restricted to the box (x0 and f) and to
    the owned ring (b), each applied to every field, and R_pp the
    samples' error variances,

        C = R_pp + X B_p X' / alpha    (k x k, inverted once),

    and X' C^-1 X u_p is the block's correction.  By the Woodbury identity
    (u - B_p X' C^-1 X u / alpha) / alpha with u = B_p r is the inverse of
    the local operator alpha B_p^-1 + X' R_pp^-1 X applied to r; the
    preconditioner uses the global B in place of B_p outside C.

    build_local_solves builds every block's solve, tile by tile, from the
    tile's D and rho_keep masks.  A solve keeps only what its apply reads:
    cx = C^-1 X on the keep_cols columns of u_p (the rho_keep cells and
    the ring values; the others carry zeros in u_p) and xt = X' on the
    owned columns own_cols, the only ones assembled, which sit at own_idx
    in the global control vector.  k = 0 (a block without observations)
    keeps neither, and its correction is 0.
    """

    def __init__(self, k, maps, cx=None, xt=None):
        self.k = k
        self.keep_cols, self.own_cols, self.own_idx = maps
        self.cx, self.xt = cx, xt

    def apply(self, v):
        """The owned entries of X' C^-1 X u_p, given the kept entries v
        of u_p; the block must have observations (k > 0)."""
        return self.xt @ (self.cx @ v)


def _control_maps(blocks):
    """(keep_cols, own_cols, own_idx) of each of blocks, blocks of one
    tile, from the tile's cells: every window at once.

    The local control u_p is the box of every x0 (window 0) and f field,
    row-major, then the owned ring values of b.  keep_cols indexes in u_p
    the inputs the block's solve reads: the owned and trusted strip cells
    (rho_keep) and the ring values; the other box cells carry either
    truncated stencil output or a neighbor's territory.  own_cols indexes
    the owned cells and ring values, and own_idx the same entries in the
    global control vector (ControlLayout.indices of the block's
    segments).  The columns depend only on whether the block has x0.
    """
    p = blocks[0]
    nf, ncell, ctl = p.n_fields, p.n_box_nodes, p.layout_ctl
    n = nf * ncell
    bny = p.tile.box_shape[1]
    oi, oj = p.owned_local
    keep_cells = np.flatnonzero(p.rho_keep)
    owned_cells = (np.arange(oi.start * bny, oi.stop * bny, bny)[:, None]
                   + np.arange(oj.start, oj.stop)).ravel()
    # the columns of a u_p with x0 (its box channels, then the ring
    # values); without x0, the same entries past the x0 channels, n
    # columns earlier
    channels = np.arange(0, 2 * n, ncell)[:, None]
    ring = np.arange(2 * n, 2 * n + p.n_ring_vals)
    keep = np.concatenate(((channels + keep_cells).ravel(), ring))
    own = np.concatenate(((channels + owned_cells).ravel(), ring))
    cols = {True: (keep, own),
            False: (keep[nf * keep_cells.size:] - n,
                    own[nf * owned_cells.size:] - n)}
    # own_idx: the owned nodes of the x0 and f segments, then the owned
    # ring values of the b segment, each field by field
    maps = []
    for b in blocks:
        segs = [("x0", p.owned_node_idx)] if b.has_x0 else []
        segs.append((f"f{b.window}", p.owned_node_idx))
        if ctl.has_boundary:
            segs.append((f"b{b.window}", p.ring_pos))
        idx = np.concatenate([ctl.indices(name, pts) for name, pts in segs])
        maps.append(cols[b.has_x0] + (idx,))
    return maps


def _tile_factors(members, alpha, slots):
    """One tile's part of build_local_solves.  members are the tile's
    (key, block) pairs in window order; each block's capacitance matrix
    C_p = R_pp + X_p B_p X_p' / alpha is written into the next slot of
    slots[k_p].  Returns (key, k_p, maps, X_p on keep_cols, X_p' on
    own_cols) per block."""
    blocks = [p for _, p in members]
    p = blocks[0]
    maps = _control_maps(blocks)
    x = gauss_newton_rows(blocks)
    width = x.shape[1]
    n = p.n_fields * p.n_box_nodes
    f0 = width - n - p.n_ring_vals
    first = [0]
    for b in blocks:
        first.append(first[-1] + b.q_obs_idx.size)
    # in window order, only the first block can have x0
    x0_rows = slice(0, first[1] if p.has_x0 else 0)
    # B_p on the stacked rows, one apply per covariance part: x0 on the
    # window-0 rows, f and b on every row
    bx = np.zeros_like(x)
    for cov, rows, cols in ((p.cov_x, x0_rows, slice(0, n)),
                            (p.cov_f, slice(None), slice(f0, f0 + n)),
                            (p.cov_b, slice(None), slice(f0 + n, width))):
        seg = x[rows, cols]
        if cov is not None and seg.size:
            bx[rows, cols] = cov.apply(
                seg.reshape(seg.shape[0], p.n_fields, -1)).reshape(seg.shape)
    # the first block is the widest, and its columns hold every other
    # block's as their tail; C_p^-1 multiplies the column-major copy
    # fancy indexing makes of the kept columns
    keep, own = x[:, maps[0][0]], np.take(x, maps[0][1], axis=1)
    out = []
    for (key, b), m, r0, r1 in zip(members, maps, first, first[1:]):
        k = r1 - r0
        if k:
            c0 = width - b.n_local
            cap = next(slots[k])
            np.matmul(x[r0:r1, c0:], bx[r0:r1, c0:].T, out=cap)
            cap /= alpha
            diag = cap.reshape(-1)[::k + 1]
            diag += b.q_var
            out.append((key, k, m, keep[r0:r1, keep.shape[1] - m[0].size:],
                        np.ascontiguousarray(
                            own[r0:r1, own.shape[1] - m[1].size:].T)))
        else:
            out.append((key, 0, m, None, None))
    return out


def build_local_solves(blocks, alpha, seconds=None):
    """Every block's LocalSolve, built tile by tile in one pass.

    blocks maps keys to LocalProblems (a lone block is a map of one).  Per
    tile: the rows of its blocks (gauss_newton_rows), one apply per
    covariance part of its restricted covariances to the stacked rows,
    its blocks' capacitance matrices and their column maps, every window
    at once.  Then one batched inverse per capacitance size k_p: every
    block's C_p goes into the stack of its size, and LAPACK inverts each
    matrix of a stack as it would alone.

    With seconds (key -> float) given, the build time is charged to the
    blocks: each tile's share in proportion to its blocks' k_p, equally
    when the tile has no rows, and the batched inverses and the products
    C_p^-1 X_p to every block the same way.
    """
    clock = time.perf_counter
    tiles = {}
    for key, p in blocks.items():
        tiles.setdefault(p.geometry, []).append((key, p))
    sizes = Counter(p.q_obs_idx.size for p in blocks.values())
    stacks = {k: np.empty((count, k, k)) for k, count in sizes.items() if k}
    slots = {k: iter(stack) for k, stack in stacks.items()}
    spent, factors = {}, []
    for geometry, members in tiles.items():
        t0 = clock()
        members.sort(key=lambda kp: kp[1].window)
        factors += _tile_factors(members, alpha, slots)
        spent[geometry] = clock() - t0

    t0 = clock()
    # a k x k inverse and one product: several times faster than
    # np.linalg.solve with the n_keep right-hand sides
    inverses = {k: iter(np.linalg.inv(stack)) for k, stack in stacks.items()}
    solves = {key: LocalSolve(k, maps, next(inverses[k]) @ keep, xt) if k
              else LocalSolve(0, maps)
              for key, k, maps, keep, xt in factors}
    spent[None] = clock() - t0
    if seconds is not None:
        for share, members in [(spent[g], m) for g, m in tiles.items()] + [
                (spent[None], list(blocks.items()))]:
            rows = sum(p.q_obs_idx.size for _, p in members)
            for key, p in members:
                seconds[key] += share * (p.q_obs_idx.size / rows if rows
                                         else 1.0 / len(members))
    return solves


def _own_strip(p, side, raw, trace_vals):
    """Locally evolved strip values, trace-filled where not meaningful."""
    sl = p.strips[side]
    own = raw[:, sl[0], sl[1]].copy()
    bad = ~p.own_valid[side]
    if bad.any():
        own[:, bad] = trace_vals[:, bad]
    return own


def _strip_diff_field(p, own, trace_halo, level):
    """Box field carrying own-minus-trace on the meaningful strip cells."""
    if not p.strips or p.gamma == 0.0:
        return None
    d = p.zero_box()
    for side, sl in p.strips.items():
        d[:, sl[0], sl[1]] = own[side] - trace_halo[side][level]
    return d


def local_tl_step(p, dx_start, df, db, lin_ops, trace):
    """Tangent-linear sweep of the block's residual over the window.

    Halo strips are overwritten from trace.tl_halo after every step and
    the theta seam correction is added.  Returns (states, own_strips)
    where own_strips[l][side] holds the locally evolved strip values (the
    "own" halo data of the theta correction).  lin_ops[l] is the
    restricted step operator of the step from window level l
    (LocalProblem.lin_ops).  The block solve does not run sweeps: its
    zero-inflow correction propagator is read at the observation samples
    once per block (gauss_newton_rows).
    """
    states = [np.array(dx_start, dtype=float)]
    own0 = {side: _own_strip(p, side, states[0], trace.tl_halo[side][0])
            for side in p.strips}
    own_strips = [own0]
    d_prev = _strip_diff_field(p, own0, trace.tl_halo, 0)
    for step in range(1, p.n_levels):
        op = lin_ops[step - 1]
        raw = op.apply(states[-1])
        if df is not None:
            raw += p.grid.dt * df
        if p.prescribed:
            p._apply_ring(raw, db)
        own = {side: _own_strip(p, side, raw, trace.tl_halo[side][step])
               for side in p.strips}
        own_strips.append(own)
        theta = None
        if p.gamma != 0.0 and d_prev is not None:
            theta = op.apply(d_prev)
        for side, sl in p.strips.items():
            raw[:, sl[0], sl[1]] = trace.tl_halo[side][step]
            if theta is not None:
                raw[:, sl[0], sl[1]] += p.gamma * np.where(
                    p.own_valid[side], theta[:, sl[0], sl[1]], 0.0)
        d_prev = _strip_diff_field(p, own, trace.tl_halo, step)
        p._zero_corners(raw)
        states.append(raw)
    return states, own_strips


def local_ad_step(p, forcings, lin_ops, trace, terminal=None):
    """Adjoint sweep of the block's residual: transpose of local_tl_step.

    forcings[l] is the adjoint seed added at window level l (observation
    scatter in the solver), terminal an extra seed at the last level.
    Strip values are overwritten from trace.ad_halo and the transposed
    theta channel is driven by the difference to them.  Returns
    (p_start, df_star, db_star, stored) with stored[l] the per-level
    adjoint states.  With zero traces this is the exact transpose of
    local_tl_step, theta channels included.
    """
    pad = p.zero_box() if terminal is None else np.array(terminal, dtype=float)
    if forcings[p.n_levels - 1] is not None:
        pad = pad + forcings[p.n_levels - 1]
    df_star = p.zero_box()
    db_star = (np.zeros((p.n_fields, p.ring_pos.size))
               if p.prescribed and p.layout_ctl.has_boundary else None)
    q = None
    stored = [None] * p.n_levels
    for step in range(p.n_levels - 1, 0, -1):
        stored[step] = pad.copy()
        s_pre = {side: pad[:, sl[0], sl[1]].copy()
                 for side, sl in p.strips.items()}
        for side, sl in p.strips.items():
            pad[:, sl[0], sl[1]] = trace.ad_halo[side][step]
        q_next = None
        if p.gamma != 0.0 and p.strips:
            diff = p.zero_box()
            for side, sl in p.strips.items():
                diff[:, sl[0], sl[1]] = np.where(
                    p.own_valid[side],
                    s_pre[side] - trace.ad_halo[side][step], 0.0)
            feed = lin_ops[step - 1].apply_t(diff)
            q_next = p.zero_box()
            for side, sl in p.strips.items():
                vals = feed[:, sl[0], sl[1]]
                q_next[:, sl[0], sl[1]] = np.where(p.own_valid[side],
                                                   vals, 0.0)
        p._zero_ring_halo(pad)
        p._zero_corners(pad)
        if db_star is not None:
            db_star += pad[:, p.ring_ii, p.ring_jj]
        if p.prescribed:
            p._apply_ring(pad, None)
        raw_bar = pad if q is None else pad + p.gamma * q
        df_star += p.grid.dt * raw_bar
        pad = lin_ops[step - 1].apply_t(raw_bar)
        if forcings[step - 1] is not None:
            pad = pad + forcings[step - 1]
        q = q_next
    if q is not None:
        pad = pad + p.gamma * q
    stored[0] = pad.copy()
    return pad, df_star, db_star, stored


def build_local_problems(problem, layout_tiles, config):
    """All (tile, window) blocks of the problem, with the spatial blocks of
    the control covariance (b_cov.blocks) restricted to each tile's box.

    Each tile's geometry (TileGeometry) is built once and shared by its
    windows' blocks, and each window's observations are found once and
    handed to its blocks.  As in the paper's DD-4DVar, a block's local
    model is a restriction of the global one: it steps with its window's
    operators of problem.background_tangent restricted to its box
    (StepOperator.restrict, as restrict_grid is for B), once per tile and
    distinct operator, on first use.
    """
    model, grid, windows = problem.model, problem.layout.grid, problem.windows
    layout_ctl, obs, b_cov = problem.layout, problem.obs, problem.b_cov
    steps = problem.background_tangent.steps
    weights = (config.alpha, config.gamma)
    ring = (boundary_ring_indices(grid.nx, grid.ny)
            if model.config.boundary == "prescribed" else None)
    tiles = [TileGeometry(tile, model, grid, ring, b_cov.blocks, obs)
             for tile in layout_tiles.tiles]
    obs_window = windows.window_of_level(obs.levels)
    blocks = {}
    for k in range(windows.n_t):
        window_obs = obs_window == k
        window_steps = steps[windows.starts[k]:windows.end(k)]
        for geometry in tiles:
            blocks[(geometry.tile.id, k)] = LocalProblem(
                geometry, k, window_steps, windows, layout_ctl, obs,
                window_obs, weights)
    owned_total = sum(p.own_obs_idx.size for p in blocks.values())
    if owned_total != obs.n_obs:
        raise RuntimeError(f"observation ownership does not partition the "
                           f"set: {owned_total} != {obs.n_obs}")
    return blocks


@dataclass
class DDResult:
    delta_z: np.ndarray
    converged: bool
    n_iterations: int          # outer flexible-CG iterations
    residuals: np.ndarray      # ||r_k|| / ||r_0||, k = 0..n_iterations
    costs: np.ndarray          # J at every iterate, from the recurrence
    trace_rows: list           # (dd_iter, tile, window, rhs_norm, residual)
    world: World
    cost: CostBreakdown = None
    # compute seconds each (tile, window) block spent restricting B r and
    # applying its observation-space solve, plus its share of building the
    # solves (build_local_solves)
    block_seconds: dict = field(default_factory=dict)
    # k_p, the size of each block's capacitance matrix (its observation
    # count), in rank order
    capacitance_sizes: list = field(default_factory=list)

    @property
    def final_cost(self):
        return self.cost.J


class DDSolver:
    """Driver for the space-time decomposed quadratic minimization."""

    def __init__(self, problem, layout_tiles, config):
        self.problem = problem
        self.layout = layout_tiles
        self.config = config
        model = problem.model
        if model.config.boundary == "periodic" and layout_tiles.n_tiles > 1:
            raise ValueError("periodic boundaries would need seam exchange "
                             "across the domain edge; decompose "
                             "prescribed-boundary models only, or use a "
                             "single tile")
        self.windows = problem.windows
        self.world = World(layout_tiles.n_tiles, self.windows.n_t)
        self.inter = [create_inter(self.world, k)
                      for k in range(self.windows.n_t)]
        self.blocks = build_local_problems(problem, layout_tiles, config)
        self.d = problem.background_innovations()
        # key -> LocalSolve, built on the first preconditioner apply
        self.local_solves = None

    @cached_property
    def _window_buffers(self):
        """Per window: the flat buffer of its blocks' local controls u_p,
        the box views halo_exchange fills, the (buffer, u) index pair of
        the owned entries, and (key, solve, u_p view) in tile order.
        Built on the first preconditioner apply, after the solves."""
        out = []
        for k in range(self.windows.n_t):
            keys = [(t.id, k) for t in self.layout.tiles]
            blocks = [self.blocks[key] for key in keys]
            offsets = np.cumsum([0] + [p.n_local for p in blocks])
            buf = np.zeros(offsets[-1])
            boxes, dst, src, views = {}, [], [], []
            for key, p, ofs in zip(keys, blocks, offsets):
                solve = self.local_solves[key]
                view = buf[ofs:ofs + p.n_local]
                boxes[key[0]] = view[:p.n_local - p.n_ring_vals].reshape(
                    (-1,) + p.tile.box_shape)
                dst.append(ofs + solve.own_cols)
                src.append(solve.own_idx)
                views.append((key, solve, view))
            out.append((buf, boxes, np.concatenate(dst), np.concatenate(src),
                        views))
        return out

    def _precond(self, r, block_s, n):
        """The preconditioner applied to the residual r,

            M r = B s,    s = (r - E(sum_p X_p' y_p) / alpha) / alpha,

        with y_p = C_p^-1 X_p u_p every block's observation-space solve on
        the kept entries of its local control u_p, the restriction of
        u = B r.  Returns M r, B^-1 M r = s and the 2-norm of the kept
        entries of each u_p."""
        b_cov = self.problem.b_cov
        alpha = self.config.alpha
        u = b_cov.apply(r)
        e = np.zeros_like(r)
        norms = {}
        clock = time.perf_counter
        if self.local_solves is None:
            self.local_solves = build_local_solves(self.blocks, alpha,
                                                   block_s)
        for k, (buf, boxes, dst, src, views) in enumerate(
                self._window_buffers):
            buf[dst] = u[src]
            halo_exchange(self.inter[k], self.layout, boxes, window=k,
                          tag=("ras", n))
            for key, solve, view in views:
                t0 = clock()
                v = view[solve.keep_cols]
                norms[key] = math.sqrt(v @ v)
                if solve.k:
                    e[solve.own_idx] = solve.apply(v)
                block_s[key] += clock() - t0
        s = (r - e / alpha) / alpha
        return b_cov.apply(s), s, norms

    def solve(self):
        """Flexible CG on the global primal system, one preconditioner
        apply per iteration; at most n_bar iterations."""
        problem = self.problem
        g_op = problem.background_operator()
        rinv_d = problem.r_cov.apply_inv(self.d)
        rhs = g_op.apply_t(rinv_d)
        order = sorted(self.blocks)
        block_s = dict.fromkeys(order, 0.0)
        applies = []

        def precond(r):
            z, binv_z, norms = self._precond(r, block_s, len(applies) + 1)
            applies.append(norms)
            return z, binv_z

        rep = pcg(_gauss_newton(g_op, problem.r_cov), rhs, precond,
                  tol=self.config.tau_dd, maxit=self.config.n_bar,
                  depth=None, name="dd4dvar")
        res0 = rep.residual_norms[0]
        residuals = rep.residual_norms / res0 if res0 else rep.residual_norms
        rows = [(m, tid, k, norms[(tid, k)], float(residuals[m]))
                # an apply whose direction pcg discarded has no iterate
                for m, norms in enumerate(applies[:rep.iterations], start=1)
                for tid, k in order]
        # J(z) = q(z) + 1/2 d' R^-1 d, q the quadratic pcg records, and
        # Jb = 1/2 z' B^-1 z from the B^-1 z it carries
        costs = rep.costs + 0.5 * float(np.vdot(self.d, rinv_d))
        j = float(costs[-1])
        jb = 0.5 * np.vdot(rep.x, rep.binv_x)
        return DDResult(delta_z=rep.x, converged=rep.converged,
                        n_iterations=rep.iterations, residuals=residuals,
                        costs=costs, trace_rows=rows, world=self.world,
                        cost=CostBreakdown(J=j, Jb=jb, Jo=j - jb),
                        block_seconds=block_s,
                        capacitance_sizes=[
                            self.blocks[key].q_obs_idx.size for key in sorted(
                                order, key=lambda b: self.world.rank_of(*b))])
