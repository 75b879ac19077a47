"""Structured 2D grid, overlapping tile decomposition, and time windows.

The grid is collocated: every prognostic field lives on the same (nx, ny)
array of nodes with spacings (dx, dy).  Arrays are indexed ``field[i, j]``
with ``x = i * dx`` and ``y = j * dy``.

A tile decomposition splits the node set into ``ntile_i x ntile_j``
rectangular blocks of owned (interior) nodes plus halo strips of
configurable width copied from the x / y neighbours.  Halo strips carry
no corner blocks: every halo cell belongs to the owned interior of
exactly one x- or y-neighbour, which keeps the exchange pattern a plain
four-way swap.

A time-window decomposition splits the ``n_steps + 1`` time levels into
contiguous windows that share their endpoint levels, so
``sum(sizes) - (n_t - 1) == n_steps + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SIDES = ("west", "east", "south", "north")
OPPOSITE = {"west": "east", "east": "west", "south": "north", "north": "south"}


@dataclass(frozen=True)
class Grid:
    """Uniform collocated grid with a fixed step count."""

    nx: int
    ny: int
    dx: float = 1.0
    dy: float = 1.0
    dt: float = 0.1
    n_steps: int = 1

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def n_points(self) -> int:
        return self.nx * self.ny

    @property
    def extent(self) -> tuple[float, float]:
        """Physical domain size (Lx, Ly)."""
        return ((self.nx - 1) * self.dx, (self.ny - 1) * self.dy)

    def node_coords(self) -> np.ndarray:
        """(n_points, 2) array of node coordinates, field-major order."""
        xs = np.arange(self.nx) * self.dx
        ys = np.arange(self.ny) * self.dy
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


def boundary_ring_indices(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (ii, jj) of the physical boundary ring, canonical order.

    Order: west column (all j), east column (all j), south row (interior i),
    north row (interior i).  Length is ``2*ny + 2*(nx - 2)``.
    """
    ii = []
    jj = []
    ii.append(np.zeros(ny, dtype=np.intp))
    jj.append(np.arange(ny, dtype=np.intp))
    ii.append(np.full(ny, nx - 1, dtype=np.intp))
    jj.append(np.arange(ny, dtype=np.intp))
    ii.append(np.arange(1, nx - 1, dtype=np.intp))
    jj.append(np.zeros(nx - 2, dtype=np.intp))
    ii.append(np.arange(1, nx - 1, dtype=np.intp))
    jj.append(np.full(nx - 2, ny - 1, dtype=np.intp))
    return np.concatenate(ii), np.concatenate(jj)


def ring_size(nx: int, ny: int) -> int:
    return 2 * ny + 2 * (nx - 2)


@dataclass(frozen=True)
class Tile:
    """One tile of the decomposition.

    ``(i0, i1, j0, j1)`` bound the owned interior (half-open ranges) and
    ``(bi0, bi1, bj0, bj1)`` bound the enclosing box including halo strips,
    clipped at the domain edge.  ``halo_slices[side]`` gives the global
    index slices of the halo strip on that side; the strip on a west/east
    side spans the owned j-range and a south/north strip spans the owned
    i-range, so strips never include corner blocks.
    """

    id: int
    ti: int
    tj: int
    i0: int
    i1: int
    j0: int
    j1: int
    bi0: int
    bi1: int
    bj0: int
    bj1: int
    neighbors: dict = field(default_factory=dict)  # side -> tile id
    halo_slices: dict = field(default_factory=dict)  # side -> (slice_i, slice_j)

    @property
    def box_shape(self) -> tuple[int, int]:
        return (self.bi1 - self.bi0, self.bj1 - self.bj0)

    @property
    def box_slices(self) -> tuple[slice, slice]:
        return (slice(self.bi0, self.bi1), slice(self.bj0, self.bj1))

    def owned_slices_local(self) -> tuple[slice, slice]:
        """Owned interior position inside the box array."""
        return (
            slice(self.i0 - self.bi0, self.i1 - self.bi0),
            slice(self.j0 - self.bj0, self.j1 - self.bj0),
        )

    def halo_slices_local(self, side: str) -> tuple[slice, slice]:
        si, sj = self.halo_slices[side]
        return (
            slice(si.start - self.bi0, si.stop - self.bi0),
            slice(sj.start - self.bj0, sj.stop - self.bj0),
        )

    def contains_point(self, x, y, grid: Grid):
        """True where (x, y) falls in this tile's owned coordinate patch.

        The patch is [i0*dx, i1*dx) x [j0*dy, j1*dy), closed on the domain's
        east/north edges so every in-domain point has exactly one owner.
        x and y are coordinates or equal-shaped arrays of them.
        """
        xlo, xhi = self.i0 * grid.dx, self.i1 * grid.dx
        ylo, yhi = self.j0 * grid.dy, self.j1 * grid.dy
        in_x = ((xlo <= x) & (x < xhi)) | ((self.i1 == grid.nx) & (x == xhi))
        in_y = ((ylo <= y) & (y < yhi)) | ((self.j1 == grid.ny) & (y == yhi))
        return in_x & in_y


class HaloTransfer(NamedTuple):
    """One halo strip of the exchange: the owned cells of `neighbor` that
    fill the `side` strip of `tile`.  src and dst index the strip in the
    neighbor's and in the tile's box arrays; both keep leading axes."""

    side: str
    tile: int
    neighbor: int
    src: tuple
    dst: tuple


@dataclass(frozen=True)
class TileLayout:
    """The tiles, and the halo exchange plan: every strip transfer in
    side order (SIDES), then tile id order."""

    ntile_i: int
    ntile_j: int
    halo: int
    tiles: tuple
    exchange: tuple = ()

    @property
    def n_tiles(self) -> int:
        return self.ntile_i * self.ntile_j

    def tile(self, tid: int) -> Tile:
        return self.tiles[tid]


def _split_blocks(n: int, parts: int) -> list[tuple[int, int]]:
    """Split range(n) into `parts` near-equal blocks, remainder to low indices."""
    base, rem = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def build_tiles(grid: Grid, ntile_i: int, ntile_j: int, halo: int) -> TileLayout:
    """Build the overlapping tile decomposition.

    Raises ValueError if the tile counts do not fit the grid or the halo
    is wider than the smallest tile interior in either direction.
    """
    if ntile_i < 1 or ntile_j < 1:
        raise ValueError("tile counts must be >= 1")
    if ntile_i > grid.nx or ntile_j > grid.ny:
        raise ValueError("more tiles than grid nodes in one direction")
    if halo < 1:
        raise ValueError("halo width must be >= 1")

    iblocks = _split_blocks(grid.nx, ntile_i)
    jblocks = _split_blocks(grid.ny, ntile_j)
    min_iw = min(b - a for a, b in iblocks)
    min_jw = min(b - a for a, b in jblocks)
    if ntile_i > 1 and halo > min_iw:
        raise ValueError(
            f"halo {halo} exceeds smallest tile interior width {min_iw} in x"
        )
    if ntile_j > 1 and halo > min_jw:
        raise ValueError(
            f"halo {halo} exceeds smallest tile interior width {min_jw} in y"
        )

    tiles = []
    for tj in range(ntile_j):
        for ti in range(ntile_i):
            tid = tj * ntile_i + ti
            i0, i1 = iblocks[ti]
            j0, j1 = jblocks[tj]
            bi0 = max(0, i0 - halo) if ti > 0 else i0
            bi1 = min(grid.nx, i1 + halo) if ti < ntile_i - 1 else i1
            bj0 = max(0, j0 - halo) if tj > 0 else j0
            bj1 = min(grid.ny, j1 + halo) if tj < ntile_j - 1 else j1

            neighbors = {}
            halo_slices = {}
            if ti > 0:
                neighbors["west"] = tj * ntile_i + (ti - 1)
                halo_slices["west"] = (slice(bi0, i0), slice(j0, j1))
            if ti < ntile_i - 1:
                neighbors["east"] = tj * ntile_i + (ti + 1)
                halo_slices["east"] = (slice(i1, bi1), slice(j0, j1))
            if tj > 0:
                neighbors["south"] = (tj - 1) * ntile_i + ti
                halo_slices["south"] = (slice(i0, i1), slice(bj0, j0))
            if tj < ntile_j - 1:
                neighbors["north"] = (tj + 1) * ntile_i + ti
                halo_slices["north"] = (slice(i0, i1), slice(j1, bj1))

            tiles.append(
                Tile(
                    id=tid, ti=ti, tj=tj,
                    i0=i0, i1=i1, j0=j0, j1=j1,
                    bi0=bi0, bi1=bi1, bj0=bj0, bj1=bj1,
                    neighbors=neighbors, halo_slices=halo_slices,
                )
            )
    exchange = []
    for side in SIDES:
        for t in tiles:
            if side not in t.neighbors:
                continue
            nb = tiles[t.neighbors[side]]
            si, sj = t.halo_slices[side]
            src = (slice(si.start - nb.bi0, si.stop - nb.bi0),
                   slice(sj.start - nb.bj0, sj.stop - nb.bj0))
            exchange.append(HaloTransfer(side, t.id, nb.id, (...,) + src,
                                         (...,) + t.halo_slices_local(side)))
    return TileLayout(ntile_i=ntile_i, ntile_j=ntile_j, halo=halo,
                      tiles=tuple(tiles), exchange=tuple(exchange))


@dataclass(frozen=True)
class TimeWindows:
    """Contiguous time windows over levels 0..n_steps sharing endpoints.

    ``starts[k]`` is the first time level of window k and ``sizes[k]`` its
    level count, so window k spans levels ``starts[k] .. starts[k] +
    sizes[k] - 1`` and the last level of window k is the first level of
    window k+1.
    """

    n_t: int
    starts: tuple
    sizes: tuple

    @property
    def n_steps(self) -> int:
        return self.starts[-1] + self.sizes[-1] - 1

    def end(self, k: int) -> int:
        """Last time level of window k."""
        return self.starts[k] + self.sizes[k] - 1

    def window_of_level(self, level):
        """Window that an observation at `level` is assigned to; for an
        array of levels, an array of windows.

        Levels shared by two windows go to the earlier one; level 0 goes
        to window 0.
        """
        levels = np.asarray(level)
        if levels.size and (levels.min() < 0 or levels.max() > self.n_steps):
            raise ValueError(f"level outside 0..{self.n_steps}")
        k = np.searchsorted(np.add(self.starts, self.sizes) - 1, levels)
        return int(k) if k.ndim == 0 else k


def build_time_windows(n_steps: int, n_t: int) -> TimeWindows:
    """Split levels 0..n_steps into n_t endpoint-sharing windows.

    Level counts differ by at most one; when they cannot be equal the
    larger windows come first.
    """
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    if n_t > n_steps:
        raise ValueError(f"n_t={n_t} exceeds n_steps={n_steps}")
    total = n_steps + n_t  # sum of per-window level counts
    base, rem = divmod(total, n_t)
    sizes = tuple(base + (1 if k < rem else 0) for k in range(n_t))
    starts = []
    s = 0
    for k in range(n_t):
        starts.append(s)
        s += sizes[k] - 1
    return TimeWindows(n_t=n_t, starts=tuple(starts), sizes=sizes)


def restrict(global_field: np.ndarray, tile: Tile) -> np.ndarray:
    """Copy the tile's box out of a global array.

    Works on any array whose last two axes are (nx, ny).
    """
    si, sj = tile.box_slices
    return global_field[..., si, sj].copy()
