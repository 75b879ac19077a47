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

The tangent-linear step is the exact Jacobian of the nonlinear step and
the adjoint step its exact transpose, derived by hand from the stencil
algebra: with uniform spacing and wrap-around stencils the centered
difference operators are skew-symmetric and the Laplacian is symmetric,
so each advection term transposes to closed form.  No automatic or
finite-difference differentiation is involved anywhere.
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

    def _advection_tl(self, xlin: np.ndarray, dx: np.ndarray) -> np.ndarray:
        c = self.config
        if c.kind == "linear":
            return c.advect[0] * self._ddx(dx) + c.advect[1] * self._ddy(dx)
        u, v = xlin[0], xlin[1]
        du, dv = dx[0], dx[1]
        out_u = du * self._ddx(u) + u * self._ddx(du) + dv * self._ddy(u) + v * self._ddy(du)
        out_v = du * self._ddx(v) + u * self._ddx(dv) + dv * self._ddy(v) + v * self._ddy(dv)
        return np.stack([out_u, out_v])

    def _advection_ad(self, xlin: np.ndarray, p: np.ndarray) -> np.ndarray:
        # Transpose of _advection_tl in the Euclidean inner product, using
        # ddx^T = -ddx and ddy^T = -ddy for the wrap-around stencils.
        c = self.config
        if c.kind == "linear":
            return -(c.advect[0] * self._ddx(p) + c.advect[1] * self._ddy(p))
        u, v = xlin[0], xlin[1]
        pu, pv = p[0], p[1]
        q_u = (
            self._ddx(u) * pu
            - self._ddx(u * pu)
            - self._ddy(v * pu)
            + self._ddx(v) * pv
        )
        q_v = (
            self._ddy(u) * pu
            + self._ddy(v) * pv
            - self._ddx(u * pv)
            - self._ddy(v * pv)
        )
        return np.stack([q_u, q_v])

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

    def step_tl(self, xlin: np.ndarray, dx: np.ndarray,
                df: np.ndarray | None = None,
                db: np.ndarray | None = None) -> np.ndarray:
        """Tangent-linear step at linearization state `xlin`."""
        g, c = self.grid, self.config
        tend = -self._advection_tl(xlin, dx) + c.viscosity * self._lap(dx)
        if df is not None:
            tend = tend + df
        out = dx + g.dt * tend
        if c.boundary == "prescribed":
            out[:, self.ring_ii, self.ring_jj] = (
                db if db is not None else 0.0
            )
        return out

    def step_ad(self, xlin: np.ndarray, p: np.ndarray):
        """Adjoint step: exact transpose of step_tl at `xlin`.

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
        p_prev = q + g.dt * (-self._advection_ad(xlin, q) + c.viscosity * self._lap(q))
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
