"""Observation sets and the sampling operator G.

An observation is a point sample of the first model field at a time level
and an (x, y) location inside the domain.  Sampling is bilinear in space
and exact in time (observation times must coincide with model levels), so
the operator G is linear with an exact 4-point-scatter transpose.  One
sampler and one scatter serve the whole grid and the subdomain boxes: a
Stencil fixes the observations, the box of nodes and its first level, and
drops stencil nodes that fall outside the box.

Platforms tag observations for grouped impact reports.  Three layouts are
generated for twin experiments: "gridded" scatters points over the domain
at one time level each, "track" sweeps a straight path with one point per
consecutive level, and "profile" repeats a fixed location over several
levels.  The tags carry no physics; they only partition the set.

File format: one record per line, whitespace separated,

    time_index x y platform value variance

written with repr() so that read(write(set)) is bit-exact.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ObservationFileError",
    "ObservationSet",
    "PlatformSpec",
    "Stencil",
    "innovations",
    "read_observations",
    "synthesize",
    "write_observations",
]

PLATFORM_KINDS = ("gridded", "track", "profile")


@dataclass(frozen=True)
class PlatformSpec:
    """Request for one synthetic platform in a twin experiment.

    sigma is the observation error standard deviation stored with each
    observation; noise_sigma is the amplitude actually used for the
    perturbation draw and defaults to sigma.  Passing noise_sigma=0.0
    produces perfect observations that still carry a usable (positive)
    error variance.
    """
    kind: str
    count: int
    sigma: float
    levels: tuple = (1,)
    noise_sigma: float = None

    def __post_init__(self):
        if self.kind not in PLATFORM_KINDS:
            raise ValueError(f"unknown platform kind {self.kind!r}")
        if self.count < 0:
            raise ValueError("platform count must be >= 0")
        if self.sigma <= 0:
            raise ValueError("observation error sigma must be > 0")
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma", self.sigma)
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")


@dataclass(frozen=True)
class Stencil:
    """Bilinear stencils of some observations on a box of grid nodes.

    nodes (4, m) holds flat indices into the box's (n_levels, nx, ny)
    field-0 array, weights (4, m) the bilinear weights, zero for stencil
    nodes outside the box (whose index is then 0).
    """
    nodes: np.ndarray
    weights: np.ndarray
    shape: tuple


_CORNER_I = np.array([0, 1, 0, 1])[:, None]
_CORNER_J = np.array([0, 0, 1, 1])[:, None]


class ObservationSet:
    """Immutable set of point observations with cached bilinear weights."""

    def __init__(self, grid, levels, x, y, platforms, values, variances):
        levels = np.asarray(levels, dtype=int)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = np.asarray(values, dtype=float)
        variances = np.asarray(variances, dtype=float)
        platforms = list(platforms)
        n = levels.size
        if not (x.size == y.size == values.size == variances.size == len(platforms) == n):
            raise ValueError("observation component lengths disagree")
        if n == 0:
            raise ValueError("empty observation set")
        # NaN fails every comparison below, so finiteness is checked first
        for name, arr in (("x", x), ("y", y), ("value", values),
                          ("variance", variances)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"observation {name} must be finite")
        if np.any(levels < 0) or np.any(levels > grid.n_steps):
            raise ValueError(f"observation time index outside [0, {grid.n_steps}]")
        ex, ey = grid.extent
        if np.any(x < 0) or np.any(x > ex) or np.any(y < 0) or np.any(y > ey):
            raise ValueError("observation location outside the domain")
        if np.any(variances <= 0):
            raise ValueError("observation error variances must be > 0")
        self.grid = grid
        self.levels = levels
        self.x = x
        self.y = y
        self.platforms = platforms
        self.values = values
        self.variances = variances
        # bilinear stencil: lower-left node, offsets in cell units
        self.i0 = np.clip((x / grid.dx).astype(int), 0, grid.nx - 2)
        self.j0 = np.clip((y / grid.dy).astype(int), 0, grid.ny - 2)
        tx = x / grid.dx - self.i0
        ty = y / grid.dy - self.j0
        self.weights = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty),
                                 (1 - tx) * ty, tx * ty])

    @property
    def n_obs(self):
        return self.levels.size

    @cached_property
    def _all(self):
        """The whole set on the whole grid, built on first use."""
        return self.stencil()

    def stencil(self, idx=None, origin=(0, 0), shape=None, level0=0):
        """Stencil of observations idx (all by default) on a box of nodes.

        The box starts at grid node origin, has shape nodes (the whole grid
        by default), and its level 0 is time level level0.
        """
        idx = (np.arange(self.n_obs) if idx is None
               else np.asarray(idx, dtype=int))
        nx, ny = (self.grid.nx, self.grid.ny) if shape is None else shape
        i = self.i0[idx] - origin[0] + _CORNER_I
        j = self.j0[idx] - origin[1] + _CORNER_J
        inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
        lev = self.levels[idx] - level0
        nodes = np.where(inside, (lev * nx + i) * ny + j, 0)
        weights = np.where(inside, self.weights[:, idx], 0.0)
        return Stencil(nodes=nodes, weights=weights, shape=(nx, ny))

    def sample(self, traj, stencil=None):
        """Bilinear samples of field 0 of a trajectory, in stencil order
        (set order by default)."""
        st = self._all if stencil is None else stencil
        # a list of states is stacked; an array of levels is read in place
        # (field 0 is copied only when the state has more fields)
        states = np.asarray(getattr(traj, "states", traj))
        v = states[:, 0].reshape(-1)[st.nodes]
        w = st.weights
        return w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + w[3] * v[3]

    def scatter(self, w, n_levels, n_fields, stencil=None):
        """Transpose of sample: spread w back onto a zero trajectory array."""
        st = self._all if stencil is None else stencil
        w = np.asarray(w, dtype=float)
        if w.shape != (st.nodes.shape[1],):
            raise ValueError(f"expected {st.nodes.shape[1]} weights, "
                             f"got shape {w.shape}")
        nx, ny = st.shape
        field0 = np.bincount(
            st.nodes.ravel(), weights=(st.weights * w).ravel(),
            minlength=n_levels * nx * ny).reshape(n_levels, 1, nx, ny)
        if n_fields == 1:
            return field0
        out = np.zeros((n_levels, n_fields, nx, ny))
        out[:, :1] = field0
        return out

    def subset(self, idx):
        """New set holding observations idx, in the given order."""
        idx = np.asarray(idx, dtype=int)
        return ObservationSet(self.grid, self.levels[idx], self.x[idx],
                              self.y[idx], [self.platforms[k] for k in idx],
                              self.values[idx], self.variances[idx])


def innovations(background_traj, obs):
    """d = y - H(x_background), in observation order."""
    return obs.values - obs.sample(background_traj)


def synthesize(truth_traj, grid, platforms, seed):
    """Twin-experiment observations: sample the truth, add seeded noise."""
    total = sum(p.count for p in platforms)
    if total < 1:
        raise ValueError("at least one observation required")
    rng = np.random.default_rng(seed)
    ex, ey = grid.extent
    levels, xs, ys, tags, sigmas, noise = [], [], [], [], [], []
    for p in platforms:
        if p.count == 0:
            continue
        if p.kind == "gridded":
            per = -(-p.count // len(p.levels))
            remaining = p.count
            for l in p.levels:
                m = min(per, remaining)
                remaining -= m
                xs.extend(rng.uniform(0, ex, m))
                ys.extend(rng.uniform(0, ey, m))
                levels.extend([l] * m)
        elif p.kind == "track":
            xa, ya = rng.uniform(0, ex), rng.uniform(0, ey)
            xb, yb = rng.uniform(0, ex), rng.uniform(0, ey)
            t = np.linspace(0.0, 1.0, p.count)
            xs.extend(xa + t * (xb - xa))
            ys.extend(ya + t * (yb - ya))
            l0 = p.levels[0]
            levels.extend(min(l0 + k, truth_traj.n_steps) for k in range(p.count))
        else:  # profile
            xp, yp = rng.uniform(0, ex), rng.uniform(0, ey)
            xs.extend([xp] * p.count)
            ys.extend([yp] * p.count)
            lv = list(p.levels)
            levels.extend(lv[k % len(lv)] for k in range(p.count))
        tags.extend([p.kind] * p.count)
        sigmas.extend([p.sigma] * p.count)
        noise.extend([p.noise_sigma] * p.count)
    obs = ObservationSet(grid, levels, xs, ys, tags,
                         np.zeros(total), np.asarray(sigmas) ** 2)
    clean = obs.sample(truth_traj)
    eta = np.asarray(noise) * rng.standard_normal(total)
    obs.values[:] = clean + eta
    return obs


def write_observations(path, obs):
    with open(path, "w") as fh:
        for k in range(obs.n_obs):
            fh.write(f"{obs.levels[k]} {float(obs.x[k])!r} {float(obs.y[k])!r} "
                     f"{obs.platforms[k]} {float(obs.values[k])!r} "
                     f"{float(obs.variances[k])!r}\n")


class ObservationFileError(ValueError):
    """An observation file that cannot be read, or whose records do not
    form a valid observation set; the message names the path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


def read_observations(path, grid):
    """Records "level x y platform value variance", one a line.

    Raises ObservationFileError when the file cannot be read, a record is
    malformed, or the records fail ObservationSet's checks.
    """
    records = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                try:
                    l, x, y, tag, val, var = fields
                    records.append((int(l), float(x), float(y), tag,
                                    float(val), float(var)))
                except ValueError:
                    raise ObservationFileError(
                        path, f"line {lineno}: expected six fields "
                        f"'level x y platform value variance', got "
                        f"{line.strip()!r}") from None
    except OSError as exc:
        raise ObservationFileError(path, exc.strerror or str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ObservationFileError(path, f"not a text file: {exc}") from exc
    if not records:
        raise ObservationFileError(path, "holds no observation records")
    try:
        return ObservationSet(grid, *zip(*records))
    except ValueError as exc:
        raise ObservationFileError(path, str(exc)) from exc
