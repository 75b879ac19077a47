"""Explicit 2D surrogate dynamics with exact tangent-linear and adjoint steps.

Two model kinds share one discretization (second-order centered differences
in space, forward Euler in time, collocated grid):

``linear``   advection-diffusion of a tracer c:
             dc/dt + cx dc/dx + cy dc/dy = nu lap(c) + f

``burgers``  coupled momentum-like pair (u, v):
             du/dt + u du/dx + v du/dy = nu lap(u) + fu
             dv/dt + u dv/dx + v dv/dy = nu lap(v) + fv

Boundary treatment is either ``periodic`` (wrap-around stencils) or
``prescribed`` (the stencil update is computed everywhere, then the
physical boundary ring is overwritten with supplied values; the interior
update next to the ring reads the ring values of the previous level, so
the overwrite acts as a Dirichlet condition one step delayed).

The nonlinear step runs the stencils.  The tangent-linear and adjoint steps
share one object per linearization state, a `StepOperator` from
`linearize`: the Jacobian of the stencil update.  Every term of it acts
along one grid axis at a time or pointwise, so on a field X (nx, ny) it
is two small dense products plus pointwise products,

    linear:   M X = ax X + X ay'
              ax = I + dt (nu Lx - cx Dx),   ay = dt (nu Ly - cy Dy)
    burgers:  M X = ax X + X ay' - dt u o (Dx X) - dt v o (X Dy') - dt C X
              ax = I + dt nu Lx,   ay = dt nu Ly,
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

The two products cost about 2 (nx + ny) flops per node, against 10 for
a five-point sparse matvec, but run through BLAS in two calls with no
sparse-format dispatch.  On one core of a 2-core x86 VM (one BLAS
thread) a linear 40 x 32 apply takes 7-12 us where the
compressed-sparse-row matvec it replaced took 10-16 us, the two break
even near 64 x 64, and at 128 x 128 the separable apply takes 250-270 us
against 95-110 us.  The shipped configs and the decomposition boxes
stay at or below 40 x 32.
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

    @property
    def field_names(self) -> tuple:
        return FIELDS[self.kind]


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
    M' X.  ax, ay act along the two grid axes; the burgers operator also
    carries the advection matrices dx, dy, the velocity factors
    a = -dt u, b = -dt v (nx, ny) and the gradient coupling
    c = -dt C (n_fields, n_fields, nx, ny).
    """

    def __init__(self, ax, ay, advection=None):
        # the products from the right take contiguous matrices: through a
        # transposed view the matmul of a stack runs up to 2x slower
        self.ax, self.ay, self.ay_t = ax, ay, np.ascontiguousarray(ay.T)
        self.pointwise = advection is not None
        if self.pointwise:
            self.dx, self.dy, self.a, self.b, self.c = advection
            self.dy_t = np.ascontiguousarray(self.dy.T)

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


def _axis_differences(n: int, h: float) -> tuple:
    """Periodic centered first and second difference matrices (n x n)
    along one axis: rows (f[i+1] - f[i-1]) / 2h and
    (f[i+1] - 2 f[i] + f[i-1]) / h^2."""
    eye = np.eye(n)
    up = np.roll(eye, 1, axis=1)  # row i picks f[i+1]
    down = np.roll(eye, -1, axis=1)  # row i picks f[i-1]
    return (up - down) / (2.0 * h), (up - 2.0 * eye + down) / (h * h)


class _Shifts:
    """Index tuples along one of the two grid axes (-2 or -1) of an array
    of any rank, for the periodic stencils."""

    def __init__(self, axis: int):
        rest = (slice(None),) * (-1 - axis)

        def at(a, b):
            return (Ellipsis, slice(a, b)) + rest

        self.up, self.down, self.mid = at(2, None), at(None, -2), at(1, -1)
        self.head, self.tail = at(None, -1), at(1, None)
        self.first, self.second = at(None, 1), at(1, 2)
        self.penult, self.last = at(-2, -1), at(-1, None)


_SHIFTS = {-2: _Shifts(-2), -1: _Shifts(-1)}


def _central(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f[i+1] - f[i-1]) / h along axis, periodic wrap."""
    s = _SHIFTS[axis]
    out = np.empty_like(f)
    np.subtract(f[s.up], f[s.down], out=out[s.mid])
    np.subtract(f[s.second], f[s.last], out=out[s.first])
    np.subtract(f[s.first], f[s.penult], out=out[s.last])
    out /= h
    return out


def _second(f: np.ndarray, two_f: np.ndarray, axis: int,
            h2: float) -> np.ndarray:
    """(f[i+1] - 2 f[i] + f[i-1]) / h2 along axis, periodic wrap."""
    s = _SHIFTS[axis]
    out = np.empty_like(f)
    np.subtract(f[s.tail], two_f[s.head], out=out[s.head])
    np.subtract(f[s.first], two_f[s.last], out=out[s.last])
    out[s.tail] += f[s.head]
    out[s.first] += f[s.last]
    out /= h2
    return out


class SurrogateModel:
    """Nonlinear / tangent-linear / adjoint stepping on one grid."""

    def __init__(self, grid: Grid, config: ModelConfig):
        self.grid = grid
        self.config = config
        self._check_stability()
        ii, jj = boundary_ring_indices(grid.nx, grid.ny)
        self.n_ring = ii.size
        # flat indices of the ring in a contiguous (n_fields, nx, ny) state
        self._ring = (np.arange(self.n_fields)[:, None] * grid.n_points
                      + ii * grid.ny + jj)
        self._linear_step = None

    # -- setup ---------------------------------------------------------

    def _check_stability(self) -> None:
        g, c = self.grid, self.config
        hmin = min(g.dx, g.dy)
        if c.viscosity > 0:
            dt_max = hmin * hmin / (4.0 * c.viscosity)
            if g.dt > dt_max:
                raise ValueError(
                    f"dt={g.dt} violates the diffusive bound dt <= "
                    f"min(dx,dy)^2/(4 nu) = {dt_max:.6g}"
                )
        speed = max(abs(c.advect[0]), abs(c.advect[1]))
        if speed > 0:
            cfl = speed * g.dt / hmin
            if cfl > 0.5:
                raise ValueError(
                    f"advective CFL {cfl:.3f} exceeds 0.5; reduce dt or velocity"
                )

    @property
    def n_fields(self) -> int:
        return self.config.n_fields

    @property
    def field_names(self) -> tuple:
        return self.config.field_names

    @property
    def state_shape(self) -> tuple:
        return (self.n_fields, self.grid.nx, self.grid.ny)

    # -- stencil primitives (periodic wrap; boundary handled by caller) --

    # Periodic differences by slicing into one output array.  The operations
    # and their order are those of (roll(f, -1) - roll(f, 1)) / h and
    # (roll(f, -1) - 2 f + roll(f, 1)) / h^2, so the results equal those
    # formulas bit for bit.

    def _ddx(self, f: np.ndarray) -> np.ndarray:
        return _central(f, -2, 2.0 * self.grid.dx)

    def _ddy(self, f: np.ndarray) -> np.ndarray:
        return _central(f, -1, 2.0 * self.grid.dy)

    def _lap(self, f: np.ndarray) -> np.ndarray:
        two_f = 2.0 * f
        out = _second(f, two_f, -2, self.grid.dx**2)
        out += _second(f, two_f, -1, self.grid.dy**2)
        return out

    def _advection_nl(self, x: np.ndarray) -> np.ndarray:
        c = self.config
        if c.kind == "linear":
            return c.advect[0] * self._ddx(x) + c.advect[1] * self._ddy(x)
        u, v = x[0], x[1]
        adv_u = u * self._ddx(u) + v * self._ddy(u)
        adv_v = u * self._ddx(v) + v * self._ddy(v)
        return np.stack([adv_u, adv_v])

    # -- single steps --------------------------------------------------

    def step_nl(self, x: np.ndarray, f: np.ndarray | None = None,
                b: np.ndarray | None = None) -> np.ndarray:
        """One nonlinear step.  `f` is a full forcing field, `b` the ring
        values imposed after the update (prescribed boundaries only)."""
        g, c = self.grid, self.config
        tend = -self._advection_nl(x) + c.viscosity * self._lap(x)
        if f is not None:
            tend = tend + f
        out = x + g.dt * tend
        if c.boundary == "prescribed":
            np.put(out, self._ring, 0.0 if b is None else b)
        if not np.all(np.isfinite(out)):
            raise ModelDivergedError("nonlinear step produced non-finite values")
        return out

    # -- linearization -------------------------------------------------

    def linearize(self, state: np.ndarray) -> StepOperator:
        """The step operator of step_tl/step_ad about `state`.

        The linear model's operator does not depend on the state: it is
        assembled on the first call and shared by every later one.
        """
        if self.config.kind == "linear":
            if self._linear_step is None:
                self._linear_step = self._assemble(None)
            return self._linear_step
        return self._assemble(state)

    def _assemble(self, state: np.ndarray | None) -> StepOperator:
        """The separable M = I + dt (-A + nu L): axis matrices, plus the
        burgers model's pointwise factors about `state`."""
        g, c = self.grid, self.config
        dt, nu = g.dt, c.viscosity
        dx, lx = _axis_differences(g.nx, g.dx)
        dy, ly = _axis_differences(g.ny, g.dy)
        ax = np.eye(g.nx) + dt * nu * lx
        ay = dt * nu * ly
        if c.kind == "linear":
            ax -= dt * c.advect[0] * dx
            ay -= dt * c.advect[1] * dy
            return StepOperator(ax, ay)
        u, v = state[0], state[1]
        coupling = np.array([[self._ddx(w), self._ddy(w)] for w in (u, v)])
        return StepOperator(ax, ay, (dx, dy, -dt * u, -dt * v,
                                     -dt * coupling))

    # -- single steps --------------------------------------------------

    def step_tl(self, op: StepOperator, dx: np.ndarray,
                df: np.ndarray | None = None,
                db: np.ndarray | None = None) -> np.ndarray:
        """Tangent-linear step with the step operator `op`."""
        out = op.apply(dx)
        if df is not None:
            out += self.grid.dt * df
        if self.config.boundary == "prescribed":
            out.reshape(-1)[self._ring] = 0.0 if db is None else db
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
