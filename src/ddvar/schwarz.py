"""Space-time domain-decomposed incremental assimilation.

DDSolver.solve minimizes the global quadratic by flexible CG (krylov.fcg)
on the primal system

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
is s itself: fcg carries B^-1 of its directions from it and never
applies B^-1.  With no observations M = B / alpha, B-preconditioned CG,
which does not degrade at long correlation lengths.  Window-0 blocks own
their tile's initial-state nodes, and every block owns its tile's forcing
nodes and physical-boundary ring nodes for its window.  The set-up follows
the space-time split: each tile's spatial geometry (TileGeometry: halo
strips, cell masks, ring cells, node indices and the covariances
restricted to the box) is built once and shared, array for array, by the
tile's N_t window blocks, and each window's observations are found once;
a block adds only its window's levels, control segments and the
observations its box carries.  A window's blocks share one flat buffer
that holds each block's local control u_p (its box, x0 and f stacked,
then its owned ring values).  Each apply, per window,

  1. one gather fills the owned cells and ring values of every block from
     u, and one halo_exchange on the window's inter communicator fills
     the halo strips of the boxes,
  2. every block gathers its kept inputs (owned cells, the strip cells
     whose locally evolved values are meaningful, and its ring values)
     and solves in the space of its k_p observations, the ones whose
     bilinear stencil lies inside its box.  X_p (k_p x n_local) maps the
     local control through the zero-inflow local propagator, the
     window's background tangent steps restricted to the box, to those
     samples; R_pp is their error variance and B_p the covariance
     restricted to the box.  The block's first apply builds X_p, inverts the k_p x k_p matrix C_p and keeps only C_p^-1 X_p on
     the kept columns and X_p' on the owned ones (LocalSolve); every
     later solve is two small dense products,
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assim import CostBreakdown, _gauss_newton
from .comm import World, create_inter, halo_exchange
from .grid import SIDES, boundary_ring_indices, ring_size
# pcg stays importable from here: perfbench's self-test patches schwarz.pcg
from .krylov import fcg, pcg  # noqa: F401
from .observations import innovations

__all__ = [
    "DDConfig",
    "DDResult",
    "DDSolver",
    "GaussNewtonTerm",
    "LocalProblem",
    "LocalSolve",
    "NeighborTrace",
    "TileGeometry",
    "build_local_problems",
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
    (ii, jj) (None for periodic models) and covs the x0, f and b segment
    covariances (b None without boundary segments)."""

    def __init__(self, tile, model, grid, ring, covs, obs):
        self.tile = tile
        self.grid = grid
        self.n_fields = model.n_fields
        self.prescribed = prescribed = model.config.boundary == "prescribed"
        bnx, bny = tile.box_shape

        # halo strips (local slices) and the box cells they and the owned
        # interior cover; the rest are corner cells, kept at zero
        self.strips = {side: tile.halo_slices_local(side) for side in SIDES
                       if tile.neighbors.get(side) is not None}
        oi, oj = tile.owned_slices_local()
        owned = np.zeros(tile.box_shape, dtype=bool)
        owned[oi, oj] = True
        live = owned.copy()
        for sl in self.strips.values():
            live[sl] = True
        self.live_mask = live
        self.corner_cells = np.nonzero(~live)

        # box cells where a locally evolved value is meaningful: off the
        # physical ring, and not next to a corner cell, whose zeroed input
        # the stencil reads
        gi = np.arange(tile.bi0, tile.bi1)
        gj = np.arange(tile.bj0, tile.bj1)
        meaningful = np.ones(tile.box_shape, dtype=bool)
        if prescribed:
            meaningful[(gi == 0) | (gi == grid.nx - 1)] = False
            meaningful[:, (gj == 0) | (gj == grid.ny - 1)] = False
        if self.corner_cells[0].size:
            near = ~live
            meaningful[1:, :] &= ~near[:-1, :]
            meaningful[:-1, :] &= ~near[1:, :]
            meaningful[:, 1:] &= ~near[:, :-1]
            meaningful[:, :-1] &= ~near[:, 1:]

        # per strip: its box-edge line, and its meaningful cells off that
        # line (own_valid)
        self.outer_rel = {}
        self.own_valid = {}
        for side, sl in self.strips.items():
            ilen = sl[0].stop - sl[0].start
            jlen = sl[1].stop - sl[1].start
            if side == "west":
                outer = (slice(0, 1), slice(None))
            elif side == "east":
                outer = (slice(ilen - 1, ilen), slice(None))
            elif side == "south":
                outer = (slice(None), slice(0, 1))
            else:
                outer = (slice(None), slice(jlen - 1, jlen))
            valid = meaningful[sl].copy()
            valid[outer] = False
            self.outer_rel[side] = outer
            self.own_valid[side] = valid

        # cells whose gradient components the block solve may trust: owned
        # cells plus meaningful strip cells
        keep = owned
        for side, sl in self.strips.items():
            keep[sl] |= self.own_valid[side]
        self.rho_keep = keep

        # physical-ring cells of the box: owned ones carry the block's
        # boundary increments, the rest are neighbor territory
        if prescribed:
            ii, jj = ring
            own = ((ii >= tile.i0) & (ii < tile.i1)
                   & (jj >= tile.j0) & (jj < tile.j1))
            self.ring_pos = np.flatnonzero(own)
            self.ring_ii = ii[own] - tile.bi0
            self.ring_jj = jj[own] - tile.bj0
            inbox = ((ii >= tile.bi0) & (ii < tile.bi1)
                     & (jj >= tile.bj0) & (jj < tile.bj1) & ~own)
            self.ring_halo_ii = ii[inbox] - tile.bi0
            self.ring_halo_jj = jj[inbox] - tile.bj0
        else:
            self.ring_pos = np.zeros(0, dtype=int)
            self.ring_ii = self.ring_jj = np.zeros(0, dtype=int)
            self.ring_halo_ii = self.ring_halo_jj = np.zeros(0, dtype=int)

        # node bookkeeping: flat global indices of the owned nodes
        self.owned_local = (oi, oj)
        self.n_box_nodes = bnx * bny
        nodes = gi[:, None] * grid.ny + gj[None, :]
        self.owned_node_idx = nodes[oi, oj].ravel()

        # covariances: restricted to the box (x0, f) and the owned ring
        # (b, None without one) for the capacitance matrix, the full
        # segment ones for the owned block of the precision
        bx, bf, bb = covs
        self.cov_x = bx.restrict_grid(gi, gj)
        self.cov_f = bf.restrict_grid(gi, gj)
        self.cov_b = (bb.restrict(self.ring_pos)
                      if bb is not None and self.ring_pos.size else None)
        self.full_cov = {"x0": bx, "f": bf, "b": bb}

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

    @cached_property
    def control_cells(self):
        """(keep, owned, ring): the flat box cells of rho_keep and of the
        owned interior, and the offsets of the owned ring values, field
        by field, in a boundary segment.  Built for the first block of
        the tile that needs them (LocalProblem.control_maps)."""
        cells = np.arange(self.n_box_nodes).reshape(self.tile.box_shape)
        n_ring = ring_size(self.grid.nx, self.grid.ny)
        ring = (np.arange(self.n_fields)[:, None] * n_ring
                + self.ring_pos).ravel()
        return (np.flatnonzero(self.rho_keep), cells[self.owned_local].ravel(),
                ring)


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

        # control segments of the block: x0 (window 0) and f live on the
        # whole box, so the propagator reads the halo strips of u; only the
        # owned part of a correction is ever assembled
        self.has_x0 = window == 0
        sizes = []
        if self.has_x0:
            sizes.append(self.n_fields * self.n_box_nodes)
        sizes.append(self.n_fields * self.n_box_nodes)
        if layout_ctl.has_boundary:
            sizes.append(self.n_fields * self.ring_pos.size)
        self.seg_sizes = sizes
        self.n_local = int(sum(sizes))

    def owned_prec_apply(self, seg, v):
        """Owned principal block of the segment precision applied to v, by
        zero-padding into the whole segment and applying its full B^-1."""
        cov = self.full_cov[seg]
        idx = self.ring_pos if seg == "b" else self.owned_node_idx
        full = np.zeros((self.n_fields, cov.block.n))
        full[:, idx] = v.reshape(self.n_fields, -1)
        out = cov.apply_inv(full.ravel()).reshape(self.n_fields, -1)
        return out[:, idx].ravel()

    @cached_property
    def lin_ops(self):
        """The window's step operators (steps, the problem's background
        tangent steps) restricted to the box; built on the block's first
        use."""
        return [self.geometry.restricted(op) for op in self.steps]

    @cached_property
    def local_solve(self):
        """The factorized observation-space solve (LocalSolve); built on
        the block's first preconditioner apply."""
        return LocalSolve(self)

    @cached_property
    def control_maps(self):
        """(keep_cols, own_cols, own_idx), built on the block's first
        preconditioner apply.

        The local control u_p is the box of every x0 (window 0) and f
        field, row-major, then the owned ring values of b.  keep_cols
        indexes in u_p the inputs the block's solve reads: the owned and
        meaningful strip cells (rho_keep) and the ring values; the other
        box cells carry either truncated stencil output or a neighbor's
        territory.  own_cols indexes the owned cells and ring values,
        and own_idx the same entries in the global control vector.  The
        cell lists are the tile's (TileGeometry.control_cells); only the
        segment offsets are the block's.
        """
        nf, ncell = self.n_fields, self.n_box_nodes
        ctl = self.layout_ctl
        keep_cells, owned_cells, ring_ofs = self.geometry.control_cells
        segs = (["x0"] if self.has_x0 else []) + [f"f{self.window}"]
        # offset in u_p and in the global vector of every box channel
        # (segment, field)
        local = np.arange(len(segs) * nf)[:, None] * ncell
        start = np.array([ctl.slice_of(seg).start + f * self.grid.n_points
                          for seg in segs for f in range(nf)])[:, None]
        keep = [(local + keep_cells).ravel()]
        own_cols = [(local + owned_cells).ravel()]
        own_idx = [(start + self.owned_node_idx).ravel()]
        if ctl.has_boundary:
            ring = local.size * ncell + np.arange(ring_ofs.size)
            keep.append(ring)
            own_cols.append(ring)
            own_idx.append(ctl.slice_of(f"b{self.window}").start + ring_ofs)
        return tuple(np.concatenate(m) for m in (keep, own_cols, own_idx))

    def zero_box(self):
        return np.zeros((self.n_fields,) + self.tile.box_shape)

    # -- per-cell policies ----------------------------------------------

    def _apply_ring(self, state, b_own):
        if self.ring_pos.size:
            state[:, self.ring_ii, self.ring_jj] = \
                0.0 if b_own is None else b_own

    def _zero_ring_halo(self, state):
        if self.ring_halo_ii.size:
            state[:, self.ring_halo_ii, self.ring_halo_jj] = 0.0

    def _zero_corners(self, state):
        if self.corner_cells[0].size:
            state[:, self.corner_cells[0], self.corner_cells[1]] = 0.0


class GaussNewtonTerm:
    """The rows X of the Gauss-Newton term X' R_pp^-1 X of one block.

    X (dense, k x n_local) maps the local control u_p (x0, f, b) through the
    zero-inflow correction propagator

        x_0 = P x0,    x_l = D (M_l x_{l-1} + dt f) + R b

    to the block's k observation samples (q_stencil, the observations
    whose bilinear stencil lies inside the box); R_pp = diag(q_var).  P
    zeroes the box cells outside rho_keep, M_l is the step operator onto
    level l, D the 0/1 mask that zeroes owned ring cells, strip lines on
    the box edge, ring cells in the halo and box corners, and R injects b
    into the owned ring cells.  All k rows come from one reverse sweep of the sample seeds
    through the transposed masked step operators: one apply_t per level
    on the (k, nf, bnx, bny) stack of seeds.
    """

    def __init__(self, p):
        nf = p.n_fields
        bnx, bny = p.tile.box_shape
        n = nf * bnx * bny
        st = p.q_stencil
        k = st.nodes.shape[1]

        # D as a 0/1 factor on the box cells
        keep = p.live_mask.astype(float)
        keep[p.ring_ii, p.ring_jj] = 0.0
        keep[p.ring_halo_ii, p.ring_halo_jj] = 0.0
        for side, sl in p.strips.items():
            keep[sl][p.outer_rel[side]] = 0.0

        # the samples' bilinear weights on field 0 of every level, one
        # (nf, bnx, bny) seed per sample; every stencil lies inside the
        # box, so no two weights share a slot
        level, cell = np.divmod(st.nodes, bnx * bny)
        seeds = np.zeros((p.n_levels, k, n))
        seeds[level, np.arange(k), cell] = st.weights
        seeds = seeds.reshape(p.n_levels, k, nf, bnx, bny)

        # acc sums the adjoint states of levels n_levels-1 .. 1: the f
        # rows are D acc (dt f enters every step through D), the b rows
        # acc on the owned ring cells
        acc = np.zeros((k, nf, bnx, bny))
        adj = seeds[-1]
        for l in range(p.n_levels - 1, 0, -1):
            acc += adj
            adj *= keep
            adj = p.lin_ops[l - 1].apply_t(adj)
            adj += seeds[l - 1]

        # the rows, laid out as u_p: (x0), f, (b)
        x = np.empty((k, p.n_local))
        ofs = 0
        if p.has_x0:
            x[:, :n] = (adj * p.rho_keep).reshape(k, n)
            ofs = n
        x[:, ofs:ofs + n] = (acc * (keep * p.grid.dt)).reshape(k, n)
        x[:, ofs + n:] = acc[..., p.ring_ii, p.ring_jj].reshape(
            k, nf * p.ring_ii.size)
        self.x = x
        self.q_var = p.q_var


class LocalSolve:
    """One block's observation-space solve, factorized once.

    With X the block's sample rows (GaussNewtonTerm), B_p the covariance
    restricted to the box (Kronecker blocks for x0 and f, the owned ring
    block for b) and R_pp the samples' error variances,

        C = R_pp + X B_p X' / alpha    (k x k, inverted once),

    and X' C^-1 X u_p is the block's correction.  By the Woodbury identity
    (u - B_p X' C^-1 X u / alpha) / alpha with u = B_p r is the inverse of
    the local operator alpha B_p^-1 + X' R_pp^-1 X applied to r; the
    preconditioner uses the global B in place of B_p outside C.

    The solve keeps only what its apply reads: cx = C^-1 X on the columns
    LocalProblem.control_maps keeps (the others carry zeros in u_p) and
    xt = X' on the owned columns, the only ones assembled.  k = 0 (a
    block without observations) keeps neither, and its correction is 0.
    """

    def __init__(self, p):
        self.covs = ([p.cov_x] if p.has_x0 else []) + [p.cov_f]
        if p.layout_ctl.has_boundary:
            self.covs.append(p.cov_b)  # None when the block owns no ring
        self.seg_sizes = p.seg_sizes
        self.n_fields = p.n_fields
        self.keep_cols, own_cols, self.own_idx = p.control_maps
        gn = GaussNewtonTerm(p)
        x = gn.x
        self.k = x.shape[0]
        self.cx = self.xt = None
        if self.k:
            cap = x @ self.prior(x).T / p.alpha
            cap[np.diag_indices(self.k)] += gn.q_var
            # a k x k inverse and one product: several times faster than
            # np.linalg.solve with the n_keep right-hand sides
            self.cx = np.linalg.inv(cap) @ x[:, self.keep_cols]
            self.xt = np.ascontiguousarray(x[:, own_cols].T)

    def prior(self, v):
        """B_p applied to v (n_local,), or to every row of v (m, n_local)."""
        out = v.copy()
        ofs = 0
        for cov, n in zip(self.covs, self.seg_sizes):
            if cov is not None:
                seg = v[..., ofs:ofs + n]
                out[..., ofs:ofs + n] = cov.block.apply(
                    seg.reshape(seg.shape[:-1] + (self.n_fields, -1))
                ).reshape(seg.shape)
            ofs += n
        return out

    def apply(self, v):
        """The owned entries of X' C^-1 X u_p, given the kept entries v
        of u_p; the block must have observations (k > 0)."""
        return self.xt @ (self.cx @ v)


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
    once per block (GaussNewtonTerm).
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
    """All (tile, window) blocks of the problem, with restricted covariances
    attached.

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
    covs = (b_cov.segment_cov("x0"), b_cov.segment_cov("f0"),
            b_cov.segment_cov("b0") if layout_ctl.has_boundary else None)
    ring = (boundary_ring_indices(grid.nx, grid.ny)
            if model.config.boundary == "prescribed" else None)
    tiles = [TileGeometry(tile, model, grid, ring, covs, obs)
             for tile in layout_tiles.tiles]
    # the window of every observation: levels shared by two windows go to
    # the earlier one
    obs_window = np.searchsorted([windows.end(k) for k in range(windows.n_t)],
                                 obs.levels)
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
    # compute seconds each (tile, window) block spent restricting B r,
    # factorizing its observation-space solve and applying it
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
        self.d = innovations(problem.background_traj, problem.obs)

    @cached_property
    def _window_buffers(self):
        """Per window: the flat buffer of its blocks' local controls u_p,
        the box views halo_exchange fills, the (buffer, u) index pair of
        the owned entries, and (key, block, u_p view) in tile order.
        Built on the first preconditioner apply."""
        out = []
        for k in range(self.windows.n_t):
            blocks = [((t.id, k), self.blocks[(t.id, k)])
                      for t in self.layout.tiles]
            offsets = np.cumsum([0] + [p.n_local for _, p in blocks])
            buf = np.zeros(offsets[-1])
            boxes, dst, src, views = {}, [], [], []
            for (key, p), ofs in zip(blocks, offsets):
                view = buf[ofs:ofs + p.n_local]
                n_box = p.n_local - p.n_fields * p.ring_pos.size
                boxes[key[0]] = view[:n_box].reshape(
                    (-1,) + p.tile.box_shape)
                _, own_cols, own_idx = p.control_maps
                dst.append(ofs + own_cols)
                src.append(own_idx)
                views.append((key, p, view))
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
        for k, (buf, boxes, dst, src, views) in enumerate(
                self._window_buffers):
            buf[dst] = u[src]
            halo_exchange(self.inter[k], self.layout, boxes, window=k,
                          tag=("ras", n))
            for key, p, view in views:
                t0 = clock()
                solve = p.local_solve
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

        rep = fcg(_gauss_newton(g_op, problem.r_cov), rhs, precond,
                  tol=self.config.tau_dd, maxit=self.config.n_bar,
                  name="dd4dvar")
        res0 = rep.residual_norms[0]
        residuals = rep.residual_norms / res0 if res0 else rep.residual_norms
        rows = [(m, tid, k, norms[(tid, k)], float(residuals[m]))
                # an apply whose direction fcg discarded has no iterate
                for m, norms in enumerate(applies[:rep.iterations], start=1)
                for tid, k in order]
        # J(z) = q(z) + 1/2 d' R^-1 d, q the quadratic fcg records, and
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
                            self.blocks[key].local_solve.k for key in sorted(
                                order, key=lambda b: self.world.rank_of(*b))])
