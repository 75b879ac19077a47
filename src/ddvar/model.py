"""Explicit 2D surrogate dynamics with exact tangent-linear and adjoint steps.

Two model kinds share one discretization (second-order centered differences
in space, forward Euler in time, collocated grid):

``linear``   advection-diffusion of a tracer c:
             dc/dt + cx dc/dx + cy dc/dy = nu lap(c) + f

``burgers``  coupled momentum-like pair (u, v):
             du/dt + u du/dx + v du/dy = nu lap(u) + fu
             dv/dt + u dv/dx + v dv/dy = nu lap(v) + fv

Boundary treatment is either ``periodic`` (wrap-around differences) or
``prescribed`` (the update is computed everywhere, then the physical
boundary ring is overwritten with supplied values; the interior update
next to the ring reads the ring values of the previous level, so the
overwrite acts as a Dirichlet condition one step delayed).

The discretization is written once, as axis matrices the model builds on
construction.  Every term acts along one grid axis at a time or
pointwise, so on a field X (nx, ny) a step is two small dense products
plus pointwise products.  The nonlinear step is

    linear:   N(X) = ax X + X ay'
              ax = I + dt (nu Lx - cx Dx),   ay = dt (nu Ly - cy Dy)
    burgers:  N(X) = ax X + X ay' - dt u o (Dx X) - dt v o (X Dy')
              ax = I + dt nu Lx,   ay = dt nu Ly,   (u, v) = X,

plus dt f and the ring write.  The tangent-linear and adjoint steps share
one object per linearization state, a `StepOperator` from `linearize`,
the Jacobian of N on the same matrices:

    linear:   M X = N(X)
    burgers:  M X = ax X + X ay' - dt u o (Dx X) - dt v o (X Dy') - dt C X
              C (du, dv) = (ux du + uy dv, vx du + vy dv),

where Dx, Dy are the periodic centered-difference matrices of the axes
(nx x nx, ny x ny), Lx, Ly the periodic second differences, o the
pointwise product and ux, uy, vx, vy the centered differences of the
state.  The tangent-linear step is M dx + dt df followed by the ring
write, and the adjoint step applies

    M' P = ax' P + P ay - dt Dx' (u o P) - dt (v o P) Dy - dt C' P

to the ring-masked adjoint state.  M' is M with every axis matrix
transposed and every pointwise factor moved to the other side of its
product, term by term, so the adjoint is exact by construction: the
dense matrices of the two maps are transposes of each other up to the
order of a few additions.  Both maps take a stack (..., n_fields, nx, ny)
of states.  No automatic or finite-difference differentiation is
involved anywhere.

StepOperator.restrict is the principal block of M on a box of the grid,
with no inflow across the box edges: the step of one decomposition tile.

The two products cost about 2 (nx + ny) flops per node, against 10 for
a five-point sparse matvec, but run through BLAS in two calls with no
sparse-format dispatch.  On one core of a 2-core x86 VM (one BLAS
thread) a linear 40 x 32 apply takes 7-12 us where the
compressed-sparse-row matvec it replaced took 10-16 us, the two break
even near 64 x 64, and at 128 x 128 the separable apply takes 250-270 us
against 95-110 us.  The shipped configs and the decomposition boxes
stay at or below 40 x 32.  A nonlinear step costs a tangent-linear
step without the burgers coupling term: a 6-step nonlinear run on
40 x 32 takes about 160 us (linear) and 390 us (burgers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddvar.grid import Grid, boundary_ring_indices


class ModelDivergedError(RuntimeError):
    """Raised when a nonlinear step produces non-finite values."""


FIELDS = {"linear": ("c",), "burgers": ("u", "v")}


@dataclass(frozen=True)
class ModelConfig:
    """Surrogate model parameters.

    ``advect`` is the constant advection velocity of the linear model and
    doubles as the nominal speed bound used in the CFL check for the
    burgers model.
    """

    kind: str = "linear"
    advect: tuple = (0.8, -0.5)
    viscosity: float = 0.1
    boundary: str = "prescribed"

    def __post_init__(self) -> None:
        if self.kind not in FIELDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.boundary not in ("periodic", "prescribed"):
            raise ValueError(f"unknown boundary treatment {self.boundary!r}")
        if self.viscosity < 0:
            raise ValueError("viscosity must be >= 0")

    @property
    def n_fields(self) -> int:
        return len(FIELDS[self.kind])


@dataclass
class Trajectory:
    """States at time levels 0..n_steps: array (n_steps+1, n_fields, nx, ny)."""

    states: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1


class StepOperator:
    """One model step's linear map M about a fixed state.

    `apply` and `apply_t` map a stack (..., n_fields, nx, ny) to M X and
    M' X.  ax, ay act along the two grid axes (ay_t is ay' stored
    contiguous); the burgers operator also carries the advection matrices
    dx, dy (dy_t likewise), the velocity factors a = -dt u, b = -dt v
    (nx, ny) and the gradient coupling c = -dt C (n_fields, n_fields, nx,
    ny).  The axis matrices are the model's, shared by all its operators;
    a restriction (`restrict`) holds its own copies of their box blocks.
    """

    def __init__(self, ax, ay, ay_t, advection=None):
        self.ax, self.ay, self.ay_t = ax, ay, ay_t
        self.pointwise = advection is not None
        if self.pointwise:
            self.dx, self.dy, self.dy_t, self.a, self.b, self.c = advection

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.ax @ x
        out += x @ self.ay_t
        if self.pointwise:
            out += self.a * (self.dx @ x)
            out += self.b * (x @ self.dy_t)
            # out[r] += sum_s c[r, s] x[s]
            out += np.sum(self.c * x[..., None, :, :, :], axis=-3)
        return out

    def apply_t(self, p: np.ndarray) -> np.ndarray:
        out = self.ax.T @ p
        out += p @ self.ay
        if self.pointwise:
            out += self.dx.T @ (self.a * p)
            out += (self.b * p) @ self.dy
            # out[s] += sum_r c[r, s] p[r]
            out += np.sum(self.c * p[..., :, None, :, :], axis=-4)
        return out

    def restrict(self, rows: slice, cols: slice) -> StepOperator:
        """The principal block of M on the box rows x cols: it maps a box
        field, zero outside the box, to the box cells of its image, so
        nothing flows in across the box edges (a periodic wrap survives
        only along an axis the box spans whole)."""
        def block(m, s):
            return np.ascontiguousarray(m[s, s])

        ay = block(self.ay, cols)
        advection = None
        if self.pointwise:
            dy = block(self.dy, cols)
            advection = (block(self.dx, rows), dy, dy.T.copy()) + tuple(
                np.ascontiguousarray(f[..., rows, cols])
                for f in (self.a, self.b, self.c))
        return StepOperator(block(self.ax, rows), ay, ay.T.copy(), advection)


def _axis_differences(n: int, h: float) -> tuple:
    """Periodic centered first and second difference matrices (n x n)
    along one axis: rows (f[i+1] - f[i-1]) / 2h and
    (f[i+1] - 2 f[i] + f[i-1]) / h^2."""
    eye = np.eye(n)
    up = np.roll(eye, 1, axis=1)  # row i picks f[i+1]
    down = np.roll(eye, -1, axis=1)  # row i picks f[i-1]
    return (up - down) / (2.0 * h), (up - 2.0 * eye + down) / (h * h)


def check_stability(grid: Grid, viscosity: float, advect: tuple) -> None:
    """Raise ValueError unless grid.dt keeps the explicit step stable: the
    diffusive bound dt <= min(dx, dy)^2 / (4 nu) and the advective CFL
    max|c| dt / min(dx, dy) <= 0.5.  The model checks itself on
    construction, and ExperimentConfig.validate checks a config with the
    same bounds."""
    hmin = min(grid.dx, grid.dy)
    if viscosity > 0:
        dt_max = hmin * hmin / (4.0 * viscosity)
        if grid.dt > dt_max:
            raise ValueError(
                f"dt={grid.dt} violates the diffusive bound dt <= "
                f"min(dx,dy)^2/(4 nu) = {dt_max:.6g}"
            )
    speed = max(abs(advect[0]), abs(advect[1]))
    if speed > 0:
        cfl = speed * grid.dt / hmin
        if cfl > 0.5:
            raise ValueError(
                f"advective CFL {cfl:.3f} exceeds 0.5; reduce dt or velocity"
            )


class SurrogateModel:
    """Nonlinear / tangent-linear / adjoint stepping on one grid."""

    def __init__(self, grid: Grid, config: ModelConfig):
        self.grid = grid
        self.config = config
        check_stability(grid, config.viscosity, config.advect)
        ii, jj = boundary_ring_indices(grid.nx, grid.ny)
        self.n_ring = ii.size
        # flat indices of the ring in a contiguous (n_fields, nx, ny) state
        self._ring = (np.arange(self.n_fields)[:, None] * grid.n_points
                      + ii * grid.ny + jj)
        # the state-independent axis matrices of M = I + dt (-A + nu L),
        # built once; the products from the right take contiguous
        # transposes: through a transposed view the matmul of a stack runs
        # up to 2x slower
        dt, nu = grid.dt, config.viscosity
        dx, lx = _axis_differences(grid.nx, grid.dx)
        dy, ly = _axis_differences(grid.ny, grid.dy)
        ax = np.eye(grid.nx) + dt * nu * lx
        ay = dt * nu * ly
        if config.kind == "linear":
            ax -= dt * config.advect[0] * dx
            ay -= dt * config.advect[1] * dy
        self._axes = (ax, ay, np.ascontiguousarray(ay.T))
        self._diffs = (dx, dy, np.ascontiguousarray(dy.T))
        # the linear model's step operator; the burgers model's axis part
        self._axis_step = StepOperator(*self._axes)

    @property
    def n_fields(self) -> int:
        return self.config.n_fields

    @property
    def state_shape(self) -> tuple:
        return (self.n_fields, self.grid.nx, self.grid.ny)

    # -- linearization -------------------------------------------------

    def linearize(self, state: np.ndarray) -> StepOperator:
        """The step operator of step_tl/step_ad about `state`.

        The linear model's operator does not depend on the state: every
        call returns the one built with the model.
        """
        if self.config.kind == "linear":
            return self._axis_step
        return self._assemble(state)

    def _assemble(self, state: np.ndarray) -> StepOperator:
        """The burgers step operator about `state`: the model's axis
        matrices plus the pointwise factors, the coupling's gradients
        (ux, uy; vx, vy) taken with the same difference matrices."""
        dt = self.grid.dt
        dx, _, dy_t = self._diffs
        coupling = np.stack([dx @ state, state @ dy_t], axis=1)
        return StepOperator(*self._axes, self._diffs + (
            -dt * state[0], -dt * state[1], -dt * coupling))

    # -- single steps --------------------------------------------------

    def step_nl(self, x: np.ndarray, f: np.ndarray | None = None,
                b: np.ndarray | None = None) -> np.ndarray:
        """One nonlinear step.  `f` is a full forcing field, `b` the ring
        values imposed after the update (prescribed boundaries only).

        The linear model's step is its tangent-linear step of x; the
        burgers model's takes the axis part and subtracts
        dt (u o (Dx x) + v o (x Dy')) with the forcing."""
        if self.config.kind == "burgers":
            dx, _, dy_t = self._diffs
            adv = x[0] * (dx @ x) + x[1] * (x @ dy_t)
            f = -adv if f is None else f - adv
        out = self._step(self._axis_step, x, f, b)
        if not np.all(np.isfinite(out)):
            raise ModelDivergedError("nonlinear step produced non-finite values")
        return out

    def step_tl(self, op: StepOperator, dx: np.ndarray,
                df: np.ndarray | None = None,
                db: np.ndarray | None = None) -> np.ndarray:
        """Tangent-linear step with the step operator `op`."""
        return self._step(op, dx, df, db)

    def _step(self, op, x, f, b):
        """op x + dt f, then the ring write: the update both step_nl and
        step_tl make (a private method, so that a profile of step_tl
        counts tangent-linear steps only)."""
        out = op.apply(x)
        if f is not None:
            out += self.grid.dt * f
        if self.config.boundary == "prescribed":
            out.reshape(-1)[self._ring] = 0.0 if b is None else b
        return out

    def step_ad(self, op: StepOperator, p: np.ndarray):
        """Adjoint step: exact transpose of step_tl with `op`.

        Returns (p_prev, df_star, db_star): the adjoint state at the
        previous level and the adjoint forcing / boundary increments
        accumulated by this step.  db_star is None for periodic runs.
        """
        if self.config.boundary == "prescribed":
            q = p.copy()
            flat = q.reshape(-1)
            db_star = flat[self._ring]
            flat[self._ring] = 0.0
        else:
            db_star = None
            q = p
        return op.apply_t(q), self.grid.dt * q, db_star

    # -- whole-interval runs -------------------------------------------

    def run_nl(self, x0: np.ndarray, forcing: np.ndarray | None = None,
               boundary: np.ndarray | None = None,
               n_steps: int | None = None) -> Trajectory:
        """Integrate n_steps forward.  forcing has shape (n_steps, nf, nx, ny)
        and boundary (n_steps, nf, n_ring); entry l-1 applies to the step
        onto level l."""
        n = self.grid.n_steps if n_steps is None else n_steps
        states = np.empty((n + 1,) + self.state_shape)
        states[0] = x0
        for l in range(1, n + 1):
            f = forcing[l - 1] if forcing is not None else None
            b = boundary[l - 1] if boundary is not None else None
            states[l] = self.step_nl(states[l - 1], f=f, b=b)
        return Trajectory(states=states)
