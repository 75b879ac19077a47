"""Background and observation error covariances.

The background covariance over one scalar field is a Gaussian kernel on the
grid nodes,

    B_ij = sigma^2 exp(-|r_i - r_j|^2 / (2 L^2)) + eps * delta_ij.

On the regular grid the kernel separates by axis, so with node index
i*ny + j (the order of Grid.node_coords)

    B = sigma^2 Kx (x) Ky + eps I,

with Kx (nx x nx) and Ky (ny x ny) the 1-D Gaussian kernels of the axes.
Both come with their eigenpairs Kx = Ux Lx Ux', Ky = Uy Ly Uy', and the
nugget is diagonal in the joint eigenbasis, so every operation works on an
(..., nx, ny) view V of a field and costs a few small matrix products
(the eigenpairs are computed on the first operation that needs them):

    B V        = sigma^2 Kx V Ky + eps V
    B^-1 V     = Ux [(Ux' V Uy) / s] Uy'
    B^1/2 V    = Ux [(Ux' V Uy) * sqrt(s)] Uy'    (symmetric root)

with s_ij = sigma^2 lx_i ly_j + eps.  restrict_grid(I, J), a rectangular
sub-grid (a product of row and column sets), gives the exact principal
block sigma^2 Kx[I,I] (x) Ky[J,J] + eps I, which is all the
domain-decomposed solver asks for; no dense nx*ny x nx*ny matrix is ever
formed outside the `matrix` property, which tests and oracles read
(Saatci 2011; Gilboa, Saatci & Cunningham, IEEE TPAMI 2015).  Multi-field
states use the same spatial block per field with no cross-field
correlation.

The nugget eps defaults to 1e-3 * sigma^2 and may not fall below
1e-10 * sigma^2: both are relative, so a run does not depend on the scale
of sigma.  A Gaussian kernel on a regular grid is notoriously ill
conditioned once L spans a few spacings; with the default the condition
number stays near 1e3/eps_rel, which keeps the inverse round trip
(apply_inv after apply) at 1e-10 relative, the accuracy the rest of the
code assumes from B.

The boundary ring of the prescribed-boundary model is not a product set,
so its covariance stays a dense Gaussian kernel over the ring points,
factorized by Cholesky, B = L L'.  apply_inv is one product with the
precision B^-1 = L^-T L^-1, built on the first call from the inverse of
L.  No run applies it: the Krylov solvers carry B^-1 of their iterate,
so only the oracles (assim.cost and assim.gradient) and the decomposed
solver's owned_prec_apply build the precision.  The round trip
apply_inv(apply(v)) holds to 1e-10 relative as for the Kronecker blocks
(the ring kernel has the same nugget).  The full ring kernel is checked positive definite on
construction: by strict diagonal dominance where that holds (short
lengths, such as L = 0.5 on the C5 ring), otherwise by its Cholesky
factorization.  A dominant kernel and a restriction (a principal block
of an SPD matrix) factorize only on the first operation that needs the
factor (the decomposed solver only applies the restrictions).

At short lengths the kernels tail off below the smallest normal double
(tiny = np.finfo(float).tiny): at L = 0.5 grid spacings on the 40 x 32
grid, Kx holds 42 subnormal entries, Ky 26, the ring kernel 264 and its
factor 149.  Every entry below tiny in the 1-D kernels, the ring kernel
and its factor is set to zero.  A product through such an entry changes
a result by less than tiny times the input's 1-norm, far below rounding,
but arithmetic on subnormals is slow: it made each Kronecker apply
several times slower.  The kernels evaluate exp only where its result
is a normal float (argument above log(tiny), about -708.4; numpy takes a
slow path on the others, whose result the flush zeroes either way), so
every entry is bitwise the one an unmasked exp and the flush give.  A
restriction of the Kronecker block slices the parent's 1-D kernels,
Kx[I, I] and Ky[J, J], which are bitwise the kernels of the sub-grid's
coordinates: the entries come from the same coordinate differences.

The control covariance (ControlCovariance) is block diagonal over the
segments of a control.ControlLayout, which alone fixes their order and
offsets: the initial state, one forcing segment per assimilation window
and one boundary segment per window, as ROMS models B (Moore et al.,
Prog. Oceanogr. 2011).  It keeps one spatial block per kind of segment,
x0 and f on the grid and b on the ring, and applies each kind's windows
and fields as one stacked call of its block.
"""

from functools import cached_property

import numpy as np

from .grid import boundary_ring_indices, ring_size

__all__ = [
    "GaussianCovariance",
    "KroneckerCovariance",
    "CovarianceR",
    "ControlCovariance",
    "build_control_covariance",
    "ring_coords",
]

DEFAULT_NUGGET_FACTOR = 1e-3
TINY = np.finfo(float).tiny
# at or below this argument exp is subnormal or 0.0, which the flushes zero
LOG_TINY = np.log(TINY)


def _flush_subnormals(m):
    """Zero the entries of m below the smallest normal float, in place."""
    m[np.abs(m) < TINY] = 0.0
    return m


def _checked_nugget(sigma, length, nugget):
    """Validate the kernel parameters; the nugget, defaulted."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if nugget is None:
        nugget = DEFAULT_NUGGET_FACTOR * sigma**2
    if nugget < 1e-10 * sigma**2:
        raise ValueError(f"nugget must be >= 1e-10 sigma^2 = "
                         f"{1e-10 * sigma**2}, got {nugget}")
    return float(nugget)


def _block_diag(mats):
    """Dense block-diagonal matrix of the square blocks mats."""
    sizes = [m.shape[0] for m in mats]
    out = np.zeros((sum(sizes),) * 2)
    ofs = 0
    for m, k in zip(mats, sizes):
        out[ofs:ofs + k, ofs:ofs + k] = m
        ofs += k
    return out


def _check_index_set(idx, n):
    idx = np.asarray(idx, dtype=int)
    if idx.ndim != 1:
        raise ValueError("index set must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("index out of range for restriction")
    return idx


class GaussianCovariance:
    """Dense SPD covariance over an explicit point set, Cholesky-backed.

    The applies take one vector (n,) or a stack of them (..., n).
    """

    def __init__(self, points, sigma, length, nugget=None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be (n, ndim)")
        nugget = _checked_nugget(sigma, length, nugget)
        # squared distances summed per coordinate, in cdist's order
        d2 = np.zeros((points.shape[0],) * 2)
        for c in points.T:
            diff = np.subtract.outer(c, c)
            d2 += diff * diff
        matrix = sigma**2 * _gauss(-d2 / (2.0 * length**2))
        matrix[np.diag_indices_from(matrix)] += nugget
        self.points = points
        self.sigma = float(sigma)
        self.length = float(length)
        self.nugget = nugget
        self.matrix = _flush_subnormals(matrix)
        # a symmetric matrix whose positive diagonal exceeds each row's
        # off-diagonal 1-norm is positive definite (Gershgorin); the
        # margin dwarfs the rounding of the row sums
        diag = matrix.diagonal()
        off = np.abs(matrix).sum(axis=1) - diag
        if np.any(off >= (1.0 - 1e-8) * diag):
            try:
                self.factor = _flush_subnormals(np.linalg.cholesky(matrix))
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    "covariance matrix is not positive definite "
                    f"(sigma={self.sigma}, length={self.length}, "
                    f"nugget={self.nugget}): {exc}") from exc

    @cached_property
    def factor(self):
        """Lower Cholesky factor, subnormals flushed.  Set by __init__
        unless diagonal dominance proved the matrix positive definite; a
        restriction, and such a matrix, build it on first use."""
        return _flush_subnormals(np.linalg.cholesky(self.matrix))

    @property
    def n(self):
        return self.matrix.shape[0]

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.ndim < 1 or v.shape[-1] != self.n:
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return v

    # the matrix is symmetric, so v @ M applies M to every row of v

    def apply(self, v):
        return self._check(v) @ self.matrix

    def apply_inv(self, v):
        return self._check(v) @ self.precision

    @cached_property
    def precision(self):
        """The dense inverse B^-1 = L^-T L^-1 from the inverse of the
        Cholesky factor L, subnormals flushed; built on first use."""
        factor_inv = np.linalg.inv(self.factor)
        return _flush_subnormals(factor_inv.T @ factor_inv)

    def apply_sqrt(self, w):
        """Map a unit-variance draw w to a B-distributed vector, L @ w."""
        return self._check(w) @ self.factor.T

    def restrict(self, idx):
        """Principal submatrix over index set idx; its factor is built on
        first use."""
        idx = _check_index_set(idx, self.n)
        sub = object.__new__(GaussianCovariance)
        sub.points = self.points[idx]
        sub.sigma = self.sigma
        sub.length = self.length
        sub.nugget = self.nugget
        sub.matrix = self.matrix[:, idx][idx]
        return sub


def _gauss(arg):
    """exp(arg) for arg <= 0, evaluated only where it is a normal float."""
    return np.exp(arg, out=np.zeros_like(arg), where=arg > LOG_TINY)


def _kernel_1d(x, length):
    d = x[:, None] - x[None, :]
    return _flush_subnormals(_gauss(-d**2 / (2.0 * length**2)))


class KroneckerCovariance:
    """Gaussian covariance over a regular grid, sigma^2 Kx (x) Ky + eps I.

    x and y are the node coordinates along the two axes; node (i, j) has
    flat index i*ny + j.  The applies take one field (n,) or a stack of
    fields (..., n) and work on its (..., nx, ny) view.
    """

    def __init__(self, x, y, sigma, length, nugget=None):
        self.nugget = _checked_nugget(sigma, length, nugget)
        self.sigma = float(sigma)
        self.length = float(length)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ValueError("axis coordinates must be 1-D")
        self.nx, self.ny = self.x.size, self.y.size
        self.n = self.nx * self.ny
        self.kx = _kernel_1d(self.x, length)
        self.ky = _kernel_1d(self.y, length)

    @cached_property
    def _eigen(self):
        """(Ux, Uy, s), computed on first use: apply needs none of them,
        so restrictions that are only ever applied never decompose."""
        lx, ux = np.linalg.eigh(self.kx)
        ly, uy = np.linalg.eigh(self.ky)
        # the Gaussian kernel is positive semidefinite: eigenvalues below
        # zero are rounding, and clipping them keeps s >= eps
        spectrum = (self.sigma**2 * np.outer(np.maximum(lx, 0.0),
                                             np.maximum(ly, 0.0))
                    + self.nugget)
        return ux, uy, spectrum

    @property
    def ux(self):
        return self._eigen[0]

    @property
    def uy(self):
        return self._eigen[1]

    @property
    def spectrum(self):
        return self._eigen[2]

    @cached_property
    def _inv_spectrum(self):
        return 1.0 / self.spectrum

    @cached_property
    def _sqrt_spectrum(self):
        return np.sqrt(self.spectrum)

    @property
    def matrix(self):
        """The dense matrix, built on demand; for tests and oracles only."""
        m = self.sigma**2 * np.kron(self.kx, self.ky)
        m[np.diag_indices_from(m)] += self.nugget
        return m

    def _grid(self, v):
        v = np.asarray(v, dtype=float)
        if v.ndim < 1 or v.shape[-1] != self.n:
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return v.reshape(v.shape[:-1] + (self.nx, self.ny))

    def _eig_scale(self, v, scale):
        g = self._grid(v)
        w = self.ux.T @ g @ self.uy
        w *= scale
        return (self.ux @ w @ self.uy.T).reshape(g.shape[:-2] + (self.n,))

    def apply(self, v):
        g = self._grid(v)
        out = self.sigma**2 * (self.kx @ g @ self.ky) + self.nugget * g
        return out.reshape(g.shape[:-2] + (self.n,))

    def apply_inv(self, v):
        return self._eig_scale(v, self._inv_spectrum)

    def apply_sqrt(self, w):
        """Map a unit-variance draw w to a B-distributed vector, B^1/2 w."""
        return self._eig_scale(w, self._sqrt_spectrum)

    def restrict_grid(self, rows, cols):
        """Principal block over the sub-grid rows x cols (increasing
        index arrays), sliced from this block's kernels."""
        sub = object.__new__(KroneckerCovariance)
        sub.nugget, sub.sigma, sub.length = self.nugget, self.sigma, self.length
        sub.x, sub.y = self.x[rows], self.y[cols]
        sub.nx, sub.ny = sub.x.size, sub.y.size
        sub.n = sub.nx * sub.ny
        # columns first: the result is C-ordered, as a fresh kernel is
        sub.kx = self.kx[:, rows][rows]
        sub.ky = self.ky[:, cols][cols]
        return sub


def ring_coords(grid):
    """(n_ring, 2) coordinates of the boundary ring, canonical order."""
    ii, jj = boundary_ring_indices(grid.nx, grid.ny)
    return np.stack([ii * grid.dx, jj * grid.dy], axis=1)


def build_control_covariance(layout, sigma_x, length_x, sigma_f, length_f,
                             sigma_b=None, length_b=None, nugget=None):
    """Block covariance over the control segments of layout.

    All forcing windows share one block, likewise the boundary windows, so
    the cost of construction does not grow with n_t.
    """
    grid = layout.grid
    x, y = np.arange(grid.nx) * grid.dx, np.arange(grid.ny) * grid.dy
    ring = None
    if layout.has_boundary:
        if sigma_b is None or length_b is None:
            raise ValueError("boundary segments need sigma_b and length_b")
        ring = GaussianCovariance(ring_coords(grid), sigma_b, length_b, nugget)
    return ControlCovariance(
        layout, KroneckerCovariance(x, y, sigma_x, length_x, nugget),
        KroneckerCovariance(x, y, sigma_f, length_f, nugget), ring)


class CovarianceR:
    """Diagonal observation-error covariance."""

    def __init__(self, variances):
        variances = np.asarray(variances, dtype=float)
        if variances.ndim != 1:
            raise ValueError("variances must be 1-D")
        if np.any(variances <= 0):
            raise ValueError("all observation error variances must be > 0")
        self.variances = variances

    @property
    def n(self):
        return self.variances.size

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return v

    def apply(self, v):
        return self._check(v) * self.variances

    def apply_inv(self, v):
        return self._check(v) / self.variances


class ControlCovariance:
    """Block-diagonal covariance over the control segments of a layout
    (control.ControlLayout), which fixes their order and offsets.

    blocks holds one spatial block per kind of segment: "x0" and "f"
    (KroneckerCovariance over the grid nodes) and "b" (GaussianCovariance
    over the boundary ring, None without boundary segments).  A kind's
    windows and fields go through its block as one stacked call, shaped
    (n_t, n_fields, n), or (n_fields, n) for x0 and for one window.
    """

    def __init__(self, layout, x0, f, b=None):
        if layout.has_boundary and b is None:
            raise ValueError("boundary segments need a ring block")
        if b is not None and not layout.has_boundary:
            raise ValueError("a ring block needs boundary segments")
        n_grid = layout.grid.n_points
        n_ring = ring_size(layout.grid.nx, layout.grid.ny)
        for kind, block, n in (("x0", x0, n_grid), ("f", f, n_grid),
                               ("b", b, n_ring)):
            if block is not None and block.n != n:
                raise ValueError(f"the {kind} block has order {block.n}, "
                                 f"its segments have {n} points per field")
        self.layout = layout
        self.blocks = {"x0": x0, "f": f, "b": b}
        # (span, block, shape) of each kind: its span of the flat vector,
        # its block and the shape of the stack the block applies
        self._stacks = []
        for kind, block in self.blocks.items():
            if block is not None:
                shape = (layout.n_fields, block.n)
                if kind != "x0" and layout.n_t > 1:
                    shape = (layout.n_t,) + shape
                self._stacks.append((layout.spans[kind], block, shape))

    @property
    def n(self):
        return self.layout.n_z

    @property
    def matrix(self):
        """The dense matrix, built on demand; for tests and oracles only."""
        mats = []
        for span, block, _ in self._stacks:
            # one copy per field and window
            mats += [block.matrix] * ((span.stop - span.start) // block.n)
        return _block_diag(mats)

    def _map(self, v, op):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        out = np.empty_like(v)
        for span, block, shape in self._stacks:
            out[span] = getattr(block, op)(v[span].reshape(shape)).ravel()
        return out

    def apply(self, v):
        return self._map(v, "apply")

    def apply_inv(self, v):
        return self._map(v, "apply_inv")

    def apply_sqrt(self, w):
        return self._map(w, "apply_sqrt")
