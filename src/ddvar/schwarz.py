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

    M r = (u - B E(sum_p X_p' y_p) / alpha) / alpha,    u = B r,
    y_p = C_p^-1 X_p u_p,    C_p = R_pp + X_p B_p X_p' / alpha.

B is one global covariance apply, so M needs two of them and no B^-1,
and with no observations M = B / alpha, B-preconditioned CG, which does
not degrade at long correlation lengths.  Window-0 blocks own their tile's
initial-state nodes, and every block owns its tile's forcing nodes and
physical-boundary ring nodes for its window.  Each apply, every block

  1. takes u restricted to its box: owned cells directly, halo strips
     through one halo_exchange per window on the window's inter
     communicator (x0 and f stacked), then zeroes the cells project_live
     drops; its owned ring cells carry the b part of u,
  2. solves in the space of its k_p observations, the ones whose bilinear
     stencil lies inside its box.  X_p (k_p x n_local) maps the local
     control through the truncated (zero-inflow) local propagator to
     those samples, R_pp is their error variance and B_p the covariance
     restricted to the box.  The block's first apply builds X_p and
     inverts the k_p x k_p matrix C_p through the inverse of its
     Cholesky factor (LocalSolve); every later solve is three small dense
     products,
  3. adds the owned part of X_p' y_p to the vector E assembles.

The outer iteration works on the exact global residual, so its solution is
the global analysis whatever the blocks drop; they only shape the
convergence rate.  In particular an observation in the cell at a
four-tile junction, whose diagonal node is a zeroed corner of its owner's
box, is seen exactly by the Hessian and approximately by the blocks.

Two local sweeps remain, which the solve does not run: local_tl_step and
local_ad_step describe one block's part of the global sweeps with frozen
neighbor traces (halo strips overwritten from the trace after every step
plus the theta seam correction, box corners zeroed).  They stay, with
LocalProblem.owned_prec_apply, because the benchmark's layer table
(perfbench/layers.py) names them; tests check them against the global
sweeps and B^-1.
"""

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .assim import CostBreakdown, primal_operator
from .comm import World, create_inter, halo_exchange
from .control import ControlVector
from .grid import SIDES, Grid, boundary_ring_indices, restrict
# pcg stays importable from here: perfbench's self-test patches schwarz.pcg
from .krylov import LinearOperator, fcg, pcg  # noqa: F401
from .model import SurrogateModel
from .observations import innovations

__all__ = [
    "DDConfig",
    "DDResult",
    "DDSolver",
    "GaussNewtonTerm",
    "LocalProblem",
    "LocalSolve",
    "NeighborTrace",
    "build_local_problems",
    "local_ad_step",
    "local_tl_step",
]

@dataclass(frozen=True)
class DDConfig:
    """Settings of the decomposed solve.

    n_bar caps the outer flexible-CG iterations and tau_dd stops them once
    the global residual norm has fallen to tau_dd times its initial value.
    alpha weights the prior in the preconditioner.

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


class LocalProblem:
    """Everything one (tile, window) block needs for its observation-space
    solve and its local sweeps."""

    def __init__(self, tile, window, model, box_model, grid, windows,
                 layout_ctl, obs, weights):
        self.tile = tile
        self.window = window
        self.grid = grid
        self.windows = windows
        self.layout_ctl = layout_ctl
        self.alpha, self.gamma = weights
        self.n_fields = model.n_fields
        self.prescribed = model.config.boundary == "prescribed"
        self.lin_states = None  # set once the linearization is known
        self.box_model = box_model

        bnx, bny = tile.box_shape
        self.n_levels = windows.sizes[window]
        self.levels = list(range(windows.starts[window],
                                 windows.end(window) + 1))

        # strip geometry: local slices, the box-edge line of each strip,
        # and the cells where a locally evolved value is meaningful
        # (inside the strip, off the box edge, off the physical ring)
        self.strips = {}
        self.outer_rel = {}
        self.own_valid = {}
        for side in SIDES:
            if tile.neighbors.get(side) is None:
                continue
            sl = tile.halo_slices_local(side)
            self.strips[side] = sl
            ilen = sl[0].stop - sl[0].start
            jlen = sl[1].stop - sl[1].start
            gi = np.arange(sl[0].start, sl[0].stop) + tile.bi0
            gj = np.arange(sl[1].start, sl[1].stop) + tile.bj0
            valid = np.ones((ilen, jlen), dtype=bool)
            if self.prescribed:
                on_ring = ((gi[:, None] == 0) | (gi[:, None] == grid.nx - 1)
                           | (gj[None, :] == 0) | (gj[None, :] == grid.ny - 1))
                valid &= ~on_ring
            if side == "west":
                outer = (slice(0, 1), slice(None))
            elif side == "east":
                outer = (slice(ilen - 1, ilen), slice(None))
            elif side == "south":
                outer = (slice(None), slice(0, 1))
            else:
                outer = (slice(None), slice(jlen - 1, jlen))
            valid[outer] = False
            self.outer_rel[side] = outer
            self.own_valid[side] = valid

        # corner cells: box minus owned minus strips (kept at zero)
        live = np.zeros(tile.box_shape, dtype=bool)
        oi, oj = tile.owned_slices_local()
        live[oi, oj] = True
        for sl in self.strips.values():
            live[sl] = True
        self.live_mask = live
        self.corner_cells = np.nonzero(~live)

        # strip cells whose stencil reads a corner compute with zeroed
        # input, so their locally evolved values are not meaningful either
        if self.corner_cells[0].size:
            near = ~live
            shifted = np.zeros_like(near)
            shifted[1:, :] |= near[:-1, :]
            shifted[:-1, :] |= near[1:, :]
            shifted[:, 1:] |= near[:, :-1]
            shifted[:, :-1] |= near[:, 1:]
            for side, sl in self.strips.items():
                self.own_valid[side] &= ~shifted[sl]

        # box-edge lines on sides without a neighbor sit on the physical
        # boundary; the periodic box stencil wraps them onto the opposite
        # edge, so their adjoint values need a zero-inflow recomputation
        # (the full model wraps them onto chopped ring lines instead)
        self.phys_lines = []
        if self.prescribed:
            if tile.neighbors.get("west") is None:
                self.phys_lines.append((slice(0, 1), slice(None)))
            if tile.neighbors.get("east") is None:
                self.phys_lines.append((slice(bnx - 1, bnx), slice(None)))
            if tile.neighbors.get("south") is None:
                self.phys_lines.append((slice(None), slice(0, 1)))
            if tile.neighbors.get("north") is None:
                self.phys_lines.append((slice(None), slice(bny - 1, bny)))

        # cells whose gradient components the block solve may trust: owned
        # cells plus meaningful strip cells
        keep = np.zeros(tile.box_shape, dtype=bool)
        keep[oi, oj] = True
        for side, sl in self.strips.items():
            sub = keep[sl]
            sub[self.own_valid[side]] = True
        self.rho_keep = keep

        # physical-ring cells of the box: owned ones carry the block's
        # boundary increments, the rest are neighbor territory
        if self.prescribed:
            ii, jj = boundary_ring_indices(grid.nx, grid.ny)
            own = ((ii >= tile.i0) & (ii < tile.i1)
                   & (jj >= tile.j0) & (jj < tile.j1))
            self.ring_pos = np.nonzero(own)[0]
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

        # node bookkeeping: flat global indices of owned and box nodes
        self.owned_local = tile.owned_slices_local()
        self.n_box_nodes = bnx * bny
        gi = np.arange(tile.i0, tile.i1)
        gj = np.arange(tile.j0, tile.j1)
        self.owned_node_idx = (gi[:, None] * grid.ny + gj[None, :]).ravel()
        gi = np.arange(tile.bi0, tile.bi1)
        gj = np.arange(tile.bj0, tile.bj1)
        self.box_node_idx = (gi[:, None] * grid.ny + gj[None, :]).ravel()

        # observations of the window, and the subset this tile owns; levels
        # shared by two windows go to the earlier one
        self.obs = obs
        ends = [windows.end(k) for k in range(windows.n_t)]
        w_idx = np.flatnonzero(np.searchsorted(ends, obs.levels) == window)
        self.own_obs_idx = w_idx[tile.contains_point(obs.x[w_idx],
                                                     obs.y[w_idx], grid)]
        # observations whose stencil lies inside the box: the block's
        # observation-space solve carries them even when a neighbor owns
        # them
        i0, j0 = obs.i0[w_idx], obs.j0[w_idx]
        self.q_obs_idx = w_idx[(i0 >= tile.bi0) & (i0 + 1 < tile.bi1)
                               & (j0 >= tile.bj0) & (j0 + 1 < tile.bj1)]
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

        # covariances, attached by build_local_problems: restricted ones
        # for the capacitance matrix, full segment ones for the owned
        # block of the precision
        self.cov_x = None
        self.cov_f = None
        self.cov_b = None
        self.full_cov = {}

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
        """Box-model step operators about the linearization, one per step
        of the window; assembled on the block's first use."""
        return [self.box_model.linearize(x) for x in self.lin_states[:-1]]

    @cached_property
    def local_solve(self):
        """The factorized observation-space solve (LocalSolve); built on
        the block's first preconditioner apply."""
        return LocalSolve(self)

    # -- local control packing ------------------------------------------

    def split_local(self, s):
        """Views of a flat local vector as (x0), f, (b) segments."""
        out = {}
        ofs = 0
        bnx, bny = self.tile.box_shape
        if self.has_x0:
            n = self.seg_sizes[0]
            out["x0"] = s[ofs:ofs + n].reshape(self.n_fields, bnx, bny)
            ofs += n
        n = self.n_fields * self.n_box_nodes
        out["f"] = s[ofs:ofs + n].reshape(self.n_fields, bnx, bny)
        ofs += n
        if self.layout_ctl.has_boundary:
            out["b"] = s[ofs:].reshape(self.n_fields, self.ring_pos.size)
        return out

    def project_live(self, field):
        """Zero box cells outside the owned and meaningful strip cells.

        Everything else carries either wrapped stencil output or a
        neighbor's territory, so those components of u are dropped before
        the block's solve, and the correction propagator starts from the
        projected initial increment.
        """
        field[:, ~self.rho_keep] = 0.0
        return field

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

    X (dense, k x n_local) maps the local control (x0, f, b) through the
    zero-inflow correction propagator

        x_0 = P x0,    x_l = D (M_l x_{l-1} + dt f) + R b

    to the block's k observation samples (q_stencil, the observations
    whose bilinear stencil lies inside the box); R_pp = diag(q_var).  P
    is project_live, M_l the step operator onto level l, D the 0/1 mask
    that zeroes owned ring cells, strip lines on the box edge, ring cells
    in the halo and box corners, and R injects b into the owned ring
    cells.  All k rows come from one reverse sweep of the sample seeds
    through the transposed masked step operators: one apply_t per level
    on the (k, nf, bnx, bny) stack of seeds.
    """

    def __init__(self, p):
        nf = p.n_fields
        bnx, bny = p.tile.box_shape
        st = p.q_stencil
        k = st.nodes.shape[1]

        keep = p.live_mask.copy()
        keep[p.ring_ii, p.ring_jj] = False
        keep[p.ring_halo_ii, p.ring_halo_jj] = False
        for side, sl in p.strips.items():
            keep[sl][p.outer_rel[side]] = False

        # the samples' bilinear weights on field 0 of every level, one
        # (nf, bnx, bny) seed per sample
        level, node = np.divmod(st.nodes, bnx * bny)
        col = np.broadcast_to(np.arange(k), st.nodes.shape)
        on = st.weights != 0.0
        seeds = np.zeros((p.n_levels, k, nf, bnx, bny))
        n = nf * bnx * bny
        seeds.reshape(p.n_levels, k, n)[level[on], col[on], node[on]] = \
            st.weights[on]

        adj = seeds[-1]
        adj_f = np.zeros((k, nf, bnx, bny))
        adj_b = np.zeros((k, nf, p.ring_ii.size))
        for l in range(p.n_levels - 1, 0, -1):
            adj_b += adj[..., p.ring_ii, p.ring_jj]
            adj = np.where(keep, adj, 0.0)
            adj_f += adj
            adj = seeds[l - 1] + p.lin_ops[l - 1].apply_t(adj)
        parts = [(adj_f * p.box_model.grid.dt).reshape(k, n)]
        if p.has_x0:
            parts.insert(0, (adj * p.rho_keep).reshape(k, n))
        if p.layout_ctl.has_boundary:
            parts.append(adj_b.reshape(k, nf * p.ring_ii.size))
        self.x = np.concatenate(parts, axis=1)
        self.q_var = p.q_var


class LocalSolve:
    """One block's observation-space solve, factorized once.

    With X the block's sample rows (GaussNewtonTerm), B_p the covariance
    restricted to the box (Kronecker blocks for x0 and f, the owned ring
    block for b) and R_pp the samples' error variances,

        C = R_pp + X B_p X' / alpha    (k x k, inverted once),

    and apply(u) = X' C^-1 X u.  C^-1 = L^-T L^-1 comes from the inverse
    of C's Cholesky factor L, built once.  By the Woodbury identity
    (u - B_p apply(u) / alpha) / alpha with u = B_p r is the inverse of
    the local operator alpha B_p^-1 + X' R_pp^-1 X applied to r; the
    preconditioner uses the global B in place of B_p outside C.  k = 0
    (a block without observations) leaves apply(u) = 0.
    """

    def __init__(self, p):
        self.alpha = p.alpha
        self.covs = ([p.cov_x] if p.has_x0 else []) + [p.cov_f]
        if p.layout_ctl.has_boundary:
            self.covs.append(p.cov_b)  # None when the block owns no ring
        self.seg_sizes = p.seg_sizes
        self.n_fields = p.n_fields
        gn = GaussNewtonTerm(p)
        self.x = gn.x
        self.k = self.x.shape[0]
        self.cap_inv = None
        if self.k:
            cap = self.x @ self.prior(self.x).T / self.alpha
            cap[np.diag_indices(self.k)] += gn.q_var
            factor_inv = np.linalg.inv(np.linalg.cholesky(cap))
            self.cap_inv = factor_inv.T @ factor_inv

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

    def apply(self, u):
        """X' C^-1 X u."""
        if not self.k:
            return np.zeros_like(u)
        return self.x.T @ (self.cap_inv @ (self.x @ u))


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
    box-model step operator of the step from window level l
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
        raw = p.box_model.step_tl(lin_ops[step - 1], states[-1], df=df)
        if p.prescribed:
            p._apply_ring(raw, db)
        own = {side: _own_strip(p, side, raw, trace.tl_halo[side][step])
               for side in p.strips}
        own_strips.append(own)
        theta = None
        if p.gamma != 0.0 and d_prev is not None:
            theta = p.box_model.step_tl(lin_ops[step - 1], d_prev)
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
            feed, _, _ = p.box_model.step_ad(lin_ops[step - 1], diff)
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
        prev, dfs, _ = p.box_model.step_ad(lin_ops[step - 1], raw_bar)
        if p.phys_lines and p.strips:
            # physical-edge outputs must not see the trace values sitting
            # on the opposite box edge through the periodic wrap
            nb = raw_bar.copy()
            nb[:, 0, :] = 0.0
            nb[:, -1, :] = 0.0
            nb[:, :, 0] = 0.0
            nb[:, :, -1] = 0.0
            prev2, _, _ = p.box_model.step_ad(lin_ops[step - 1], nb)
            for li, lj in p.phys_lines:
                prev[:, li, lj] = prev2[:, li, lj]
        df_star += dfs
        pad = prev
        if forcings[step - 1] is not None:
            pad = pad + forcings[step - 1]
        q = q_next
    if q is not None:
        pad = pad + p.gamma * q
    stored[0] = pad.copy()
    return pad, df_star, db_star, stored


def build_local_problems(model, grid, windows, layout_ctl, layout_tiles,
                         obs, b_cov, config):
    """All (tile, window) blocks, with restricted covariances attached.

    Blocks whose boxes have the same shape share one periodic box model,
    and with it the linear model's step operator.
    """
    weights = (config.alpha, config.gamma)
    bx = b_cov.segment_cov("x0")
    bf = b_cov.segment_cov("f0")
    bb = b_cov.segment_cov("b0") if layout_ctl.has_boundary else None
    box_models = {}
    blocks = {}
    per_tile = {}
    for k in range(windows.n_t):
        for tile in layout_tiles.tiles:
            shape = tile.box_shape
            if shape not in box_models:
                box_grid = Grid(nx=shape[0], ny=shape[1], dx=grid.dx,
                                dy=grid.dy, dt=grid.dt, n_steps=1)
                box_models[shape] = SurrogateModel(
                    box_grid, replace(model.config, boundary="periodic"))
            p = LocalProblem(tile, k, model, box_models[shape], grid,
                             windows, layout_ctl, obs, weights)
            if tile.id not in per_tile:
                cb = (bb.restrict(p.ring_pos)
                      if bb is not None and p.ring_pos.size else None)
                per_tile[tile.id] = (bx.restrict(p.box_node_idx),
                                     bf.restrict(p.box_node_idx), cb)
            p.cov_x, p.cov_f, p.cov_b = per_tile[tile.id]
            p.full_cov = {"x0": bx, "f": bf, "b": bb}
            blocks[(tile.id, k)] = p
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
        grid = problem.layout.grid
        self.world = World(layout_tiles.n_tiles, self.windows.n_t)
        self.inter = [create_inter(self.world, k)
                      for k in range(self.windows.n_t)]
        self.blocks = build_local_problems(
            model, grid, self.windows, problem.layout, layout_tiles,
            problem.obs, problem.b_cov, config)
        self.d = innovations(problem.background_traj, problem.obs)
        self._link_background()

    def _link_background(self):
        """Every block linearizes about the global background trajectory
        restricted to its box."""
        bg = self.problem.background_traj
        for (tid, k), p in self.blocks.items():
            tile = self.layout.tile(tid)
            p.lin_states = [restrict(bg[l], tile).data for l in p.levels]

    def _precond(self, r, block_s, n):
        """The preconditioner applied to the residual r,

            M r = (u - B E(sum_p X_p' y_p) / alpha) / alpha,    u = B r,

        with y_p = C_p^-1 X_p u_p every block's observation-space solve on
        the box restriction u_p of u.  Returns M r and the 2-norm of each
        u_p."""
        problem = self.problem
        b_cov = problem.b_cov
        alpha = self.config.alpha
        nf = problem.model.n_fields
        u = b_cov.apply(r)
        v = ControlVector(problem.layout, u)
        out = ControlVector(problem.layout)
        norms = {}
        clock = time.perf_counter
        for k in range(self.windows.n_t):
            # owned cells from u, halo strips from the neighbors
            boxes = {}
            for tile in self.layout.tiles:
                p = self.blocks[(tile.id, k)]
                segs = [v.x0, v.f(k)] if p.has_x0 else [v.f(k)]
                osl = tile.owned_slices
                oi, oj = p.owned_local
                box = np.zeros((len(segs) * nf,) + tile.box_shape)
                for c, seg in enumerate(segs):
                    box[c * nf:(c + 1) * nf, oi, oj] = seg[:, osl[0], osl[1]]
                boxes[tile.id] = box
            halo_exchange(self.inter[k], self.layout, boxes, window=k,
                          tag=("ras", n))
            for tile in self.layout.tiles:
                key = (tile.id, k)
                t0 = clock()
                p = self.blocks[key]
                box = p.project_live(boxes[tile.id])
                u_p = np.zeros(p.n_local)
                parts = p.split_local(u_p)
                if p.has_x0:
                    parts["x0"][:] = box[:nf]
                parts["f"][:] = box[-nf:]
                if "b" in parts:
                    parts["b"][:] = v.b(k)[:, p.ring_pos]
                norms[key] = float(np.linalg.norm(u_p))
                s = p.split_local(p.local_solve.apply(u_p))
                osl = tile.owned_slices
                oi, oj = p.owned_local
                if p.has_x0:
                    out.x0[:, osl[0], osl[1]] += s["x0"][:, oi, oj]
                out.f(k)[:, osl[0], osl[1]] += s["f"][:, oi, oj]
                if "b" in s:
                    out.b(k)[:, p.ring_pos] += s["b"]
                block_s[key] += clock() - t0
        return (u - b_cov.apply(out.data) / alpha) / alpha, norms

    def solve(self):
        """Flexible CG on the global primal system, one preconditioner
        apply per iteration; at most n_bar iterations."""
        problem = self.problem
        g_op = problem.background_operator()
        rinv_d = problem.r_cov.apply_inv(self.d)
        rhs = g_op.apply_t(rinv_d)
        n_z = problem.layout.n_z
        order = sorted(self.blocks)
        block_s = dict.fromkeys(order, 0.0)
        applies = []

        def precond(r):
            out, norms = self._precond(r, block_s, len(applies) + 1)
            applies.append(norms)
            return out

        rep = fcg(primal_operator(g_op, problem.b_cov, problem.r_cov), rhs,
                  precond=LinearOperator((n_z, n_z), precond),
                  tol=self.config.tau_dd, maxit=self.config.n_bar,
                  name="dd4dvar")
        res0 = rep.residual_norms[0]
        residuals = rep.residual_norms / res0 if res0 else rep.residual_norms
        rows = [(m, tid, k, norms[(tid, k)], float(residuals[m]))
                for m, norms in enumerate(applies, start=1)
                for tid, k in order]
        # J(z) = q(z) + 1/2 d' R^-1 d, q the quadratic fcg records
        costs = rep.costs + 0.5 * float(np.vdot(self.d, rinv_d))
        z = rep.x
        return DDResult(delta_z=z, converged=rep.converged,
                        n_iterations=rep.iterations, residuals=residuals,
                        costs=costs, trace_rows=rows, world=self.world,
                        cost=problem.cost(z, d=self.d),
                        block_seconds=block_s,
                        capacitance_sizes=[
                            self.blocks[key].local_solve.k for key in sorted(
                                order, key=lambda b: self.world.rank_of(*b))])

