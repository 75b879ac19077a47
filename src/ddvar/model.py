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
`linearize`: the five-point Jacobian of the stencil update assembled once
as a sparse matrix M over the flattened state,

    linear:   M = I + dt (-cx Dx - cy Dy + nu L)
    burgers:  M = I + dt (-A(x) + nu L),
              A(x) (du, dv) = (u Dx du + v Dy du + du ux + dv uy,
                               u Dx dv + v Dy dv + du vx + dv vy),

where Dx, Dy are the periodic centered differences, L the periodic
Laplacian and ux, uy, vx, vy the centered differences of the state.  The
tangent-linear step is M dx + dt df followed by the ring write, and the
adjoint step applies the transpose of M to the ring-masked adjoint state,
so the adjoint is exact by construction.  No automatic or
finite-difference differentiation is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

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
    """One model step's linear map about a fixed state.

    `matrix` is the CSR matrix M over the flattened state (field, i, j);
    `matrix_t` holds its transpose for the adjoint step.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.matrix_t = matrix.T.tocsr()


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
        self.ring_ii, self.ring_jj = boundary_ring_indices(grid.nx, grid.ny)
        self.n_ring = self.ring_ii.size
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

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.state_shape)

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
            if b is None:
                b = np.zeros((self.n_fields, self.n_ring))
            out[:, self.ring_ii, self.ring_jj] = b
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
                self._linear_step = StepOperator(self._assemble(None))
            return self._linear_step
        return StepOperator(self._assemble(state))

    def _assemble(self, state: np.ndarray | None):
        """CSR matrix of M = I + dt (-A + nu L) over the flattened state,
        built from the periodic five-point index arrays (the conversion
        sums entries that land on the same matrix position)."""
        g, c = self.grid, self.config
        nx, ny, dt = g.nx, g.ny, g.dt
        n = nx * ny
        node = np.arange(n).reshape(nx, ny)
        neighbors = (np.roll(node, -1, 0), np.roll(node, 1, 0),
                     np.roll(node, -1, 1), np.roll(node, 1, 1))
        # a, b: advecting velocity; coupling[r][s]: coefficient of field s
        # at the node itself in field r's row of A
        if c.kind == "linear":
            a, b = c.advect
            coupling = [[0.0]]
        else:
            a, b = state[0], state[1]
            grads = [(self._ddx(w), self._ddy(w)) for w in (a, b)]
            coupling = [[grads[r][s] for s in range(2)] for r in range(2)]
        kx = dt * c.viscosity / g.dx**2
        ky = dt * c.viscosity / g.dy**2
        ax = dt * a / (2.0 * g.dx)
        by = dt * b / (2.0 * g.dy)
        stencil = [kx - ax, kx + ax, ky - by, ky + by]
        rows, cols, vals = [], [], []

        def add(r_field, c_field, cells, values):
            rows.append(node + r_field * n)
            cols.append(cells + c_field * n)
            vals.append(np.broadcast_to(values, (nx, ny)))

        for r in range(self.n_fields):
            add(r, r, node, 1.0 - 2.0 * (kx + ky) - dt * coupling[r][r])
            for cells, values in zip(neighbors, stencil):
                add(r, r, cells, values)
            for s in range(self.n_fields):
                if s != r:
                    add(r, s, node, -dt * coupling[r][s])
        size = self.n_fields * n
        return scipy.sparse.csr_matrix(
            (np.concatenate(vals, axis=None),
             (np.concatenate(rows, axis=None),
              np.concatenate(cols, axis=None))), shape=(size, size))

    # -- single steps --------------------------------------------------

    def step_tl(self, op: StepOperator, dx: np.ndarray,
                df: np.ndarray | None = None,
                db: np.ndarray | None = None) -> np.ndarray:
        """Tangent-linear step with the step operator `op`."""
        g, c = self.grid, self.config
        out = (op.matrix @ dx.ravel()).reshape(dx.shape)
        if df is not None:
            out += g.dt * df
        if c.boundary == "prescribed":
            out[:, self.ring_ii, self.ring_jj] = (
                db if db is not None else 0.0
            )
        return out

    def step_ad(self, op: StepOperator, p: np.ndarray):
        """Adjoint step: exact transpose of step_tl with `op`.

        Returns (p_prev, df_star, db_star): the adjoint state at the
        previous level and the adjoint forcing / boundary increments
        accumulated by this step.  db_star is None for periodic runs.
        """
        g, c = self.grid, self.config
        if c.boundary == "prescribed":
            db_star = p[:, self.ring_ii, self.ring_jj].copy()
            q = p.copy()
            q[:, self.ring_ii, self.ring_jj] = 0.0
        else:
            db_star = None
            q = p
        p_prev = (op.matrix_t @ q.ravel()).reshape(q.shape)
        df_star = g.dt * q
        return p_prev, df_star, db_star

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
