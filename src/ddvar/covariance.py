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

with s_ij = sigma^2 lx_i ly_j + eps.  A rectangular sub-grid (a product of
row and column sets) restricts to the exact principal block
sigma^2 Kx[I,I] (x) Ky[J,J] + eps I, which is all the domain-decomposed
solver asks for; no dense nx*ny x nx*ny matrix is ever formed outside the
test-only `matrix` property (Saatci 2011; Gilboa, Saatci & Cunningham,
IEEE TPAMI 2015).  Multi-field states use the same spatial block per field
with no cross-field correlation.

The nugget eps defaults to 1e-3 * sigma^2.  A Gaussian kernel on a regular
grid is notoriously ill conditioned once L spans a few spacings; with the
default the condition number stays near 1e3/eps_rel, which keeps the
inverse round trip (apply_inv after apply) at 1e-10 relative, the accuracy
the rest of the code assumes from B.

The boundary ring of the prescribed-boundary model is not a product set,
so its covariance stays a dense Gaussian kernel over the ring points,
factorized by Cholesky, B = L L'.  apply_inv is one product with the
precision B^-1 = L^-T L^-1, built on the first call from the inverse of
L, which is taken by 2 x 2 triangular blocks (numpy has no triangular
solve; on the 140-point C5 ring the blocks take about a third of the
time of a general inverse).  The round trip apply_inv(apply(v))
holds to 1e-10 relative as for the Kronecker blocks (the ring kernel has
the same nugget).  The full ring kernel is factorized on construction,
which is its positive-definiteness check; a restriction is a principal
block of an SPD matrix, so it factorizes only on the first operation that
needs the factor (the decomposed solver only applies it).

At short lengths the kernels tail off below the smallest normal double
(tiny = np.finfo(float).tiny): at L = 0.5 grid spacings on the 40 x 32
grid, Kx holds 42 subnormal entries, Ky 26, the ring kernel 264 and its
factor 149.  Every entry below tiny in the 1-D kernels, the ring kernel
and its factor is set to zero.  A product through such an entry changes
a result by less than tiny times the input's 1-norm, far below rounding,
but arithmetic on subnormals is slow: it made each Kronecker apply
several times slower.  Control-vector covariances are block diagonal
over the control segments (initial state, one forcing block per
assimilation window, one boundary block per window), with the window
blocks sharing one covariance object, which applies all of its windows
as one stacked call.
"""

from functools import cached_property
from itertools import groupby

import numpy as np

from .grid import boundary_ring_indices

__all__ = [
    "GaussianCovariance",
    "KroneckerCovariance",
    "CovarianceB",
    "CovarianceR",
    "ControlCovariance",
    "build_b",
    "build_control_covariance",
    "ring_coords",
]

DEFAULT_NUGGET_FACTOR = 1e-3
TINY = np.finfo(float).tiny


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
    if nugget < 1e-10:
        raise ValueError(f"nugget must be >= 1e-10, got {nugget}")
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


def _tril_inv(m):
    """Inverse of the lower-triangular m by 2 x 2 blocks,

        [A 0; C D]^-1 = [A^-1 0; -D^-1 C A^-1 D^-1],

    down to leaves of at most 36 rows, inverted by LU (numpy has no
    triangular solve).  The products run on the triangular blocks only,
    about a third of the work of one LU inverse of m."""
    n = m.shape[0]
    if n <= 36:
        return np.tril(np.linalg.inv(m))
    h = n // 2
    a = _tril_inv(m[:h, :h])
    d = _tril_inv(m[h:, h:])
    out = np.zeros_like(m)
    out[:h, :h] = a
    out[h:, h:] = d
    out[h:, :h] = -(d @ (m[h:, :h] @ a))
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
        matrix = sigma**2 * np.exp(-d2 / (2.0 * length**2))
        matrix[np.diag_indices_from(matrix)] += nugget
        self.points = points
        self.sigma = float(sigma)
        self.length = float(length)
        self.nugget = nugget
        self.matrix = _flush_subnormals(matrix)
        try:
            self.factor = _flush_subnormals(np.linalg.cholesky(matrix))
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "covariance matrix is not positive definite "
                f"(sigma={self.sigma}, length={self.length}, "
                f"nugget={self.nugget}): {exc}") from exc

    @cached_property
    def factor(self):
        """Lower Cholesky factor, subnormals flushed.  Set by __init__;
        a restriction builds it on first use."""
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
        factor_inv = _tril_inv(self.factor)
        return _flush_subnormals(factor_inv.T @ factor_inv)

    def apply_sqrt(self, w):
        """Map a unit-variance draw w to a B-distributed vector, L @ w."""
        return self._check(w) @ self.factor.T

    def apply_sqrt_t(self, v):
        return self._check(v) @ self.factor

    def restrict(self, idx):
        """Principal submatrix over index set idx; its factor is built on
        first use."""
        idx = _check_index_set(idx, self.n)
        sub = object.__new__(GaussianCovariance)
        sub.points = self.points[idx]
        sub.sigma = self.sigma
        sub.length = self.length
        sub.nugget = self.nugget
        sub.matrix = self.matrix[np.ix_(idx, idx)]
        return sub


def _kernel_1d(x, length):
    d = x[:, None] - x[None, :]
    return _flush_subnormals(np.exp(-d**2 / (2.0 * length**2)))


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

    apply_sqrt_t = apply_sqrt

    def restrict(self, idx):
        """Principal block over a rectangular sub-grid.

        idx must be the row-major flat indices of a product of row and
        column sets; the block is sigma^2 Kx[I,I] (x) Ky[J,J] + eps I.
        """
        idx = _check_index_set(idx, self.n)
        rows = np.unique(idx // self.ny)
        cols = np.unique(idx % self.ny)
        if not np.array_equal(idx, (rows[:, None] * self.ny + cols).ravel()):
            raise ValueError("restriction of a Kronecker covariance needs "
                             "a rectangular sub-grid in row-major order")
        return KroneckerCovariance(self.x[rows], self.y[cols], self.sigma,
                                   self.length, self.nugget)


class CovarianceB:
    """State covariance: one spatial block repeated over n_fields.

    The applies take one state vector (n,) or a stack of them (..., n).
    """

    def __init__(self, block, n_fields):
        if n_fields < 1:
            raise ValueError("n_fields must be >= 1")
        self.block = block
        self.n_fields = int(n_fields)

    @property
    def n(self):
        return self.n_fields * self.block.n

    @property
    def matrix(self):
        return _block_diag([self.block.matrix] * self.n_fields)

    def _map(self, v, op):
        v = np.asarray(v, dtype=float)
        if v.ndim < 1 or v.shape[-1] != self.n:
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        fields = v.reshape(v.shape[:-1] + (self.n_fields, self.block.n))
        return getattr(self.block, op)(fields).reshape(v.shape)

    def apply(self, v):
        return self._map(v, "apply")

    def apply_inv(self, v):
        return self._map(v, "apply_inv")

    def apply_sqrt(self, w):
        return self._map(w, "apply_sqrt")

    def apply_sqrt_t(self, v):
        return self._map(v, "apply_sqrt_t")

    def restrict(self, idx):
        """Restrict to a node index set, applied identically per field."""
        return CovarianceB(self.block.restrict(idx), self.n_fields)


def build_b(grid, n_fields, sigma, length, nugget=None):
    """Background covariance over the grid nodes, block diagonal by field."""
    block = KroneckerCovariance(np.arange(grid.nx) * grid.dx,
                                np.arange(grid.ny) * grid.dy,
                                sigma, length, nugget)
    return CovarianceB(block, n_fields)


def ring_coords(grid):
    """(n_ring, 2) coordinates of the boundary ring, canonical order."""
    ii, jj = boundary_ring_indices(grid.nx, grid.ny)
    return np.stack([ii * grid.dx, jj * grid.dy], axis=1)


def build_control_covariance(grid, windows, n_fields, has_boundary,
                             sigma_x, length_x, sigma_f, length_f,
                             sigma_b=None, length_b=None, nugget=None):
    """Block covariance over the control segments.

    All forcing windows share one block, likewise the boundary windows, so
    the cost of construction does not grow with n_t.
    """
    bx = build_b(grid, n_fields, sigma_x, length_x, nugget)
    bf = build_b(grid, n_fields, sigma_f, length_f, nugget)
    segments = [("x0", bx)]
    segments += [(f"f{k}", bf) for k in range(windows.n_t)]
    if has_boundary:
        if sigma_b is None or length_b is None:
            raise ValueError("boundary segments need sigma_b and length_b")
        bb = CovarianceB(GaussianCovariance(ring_coords(grid), sigma_b,
                                            length_b, nugget), n_fields)
        segments += [(f"b{k}", bb) for k in range(windows.n_t)]
    return ControlCovariance(segments)


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

    @property
    def matrix(self):
        return np.diag(self.variances)

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return v

    def apply(self, v):
        return self._check(v) * self.variances

    def apply_inv(self, v):
        return self._check(v) / self.variances

    def apply_sqrt(self, w):
        return self._check(w) * np.sqrt(self.variances)

    def restrict(self, idx):
        return CovarianceR(self.variances[np.asarray(idx, dtype=int)])


class ControlCovariance:
    """Block-diagonal covariance over named control segments.

    segments is an ordered list of (name, cov) pairs; covariance objects may
    be shared between segments (forcing windows all point at one block).
    The apply routines walk runs of consecutive segments that share one
    covariance object and apply each run as one stacked call.
    """

    def __init__(self, segments):
        if not segments:
            raise ValueError("at least one segment required")
        self.segments = list(segments)
        names = [name for name, _ in self.segments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        self.sizes = [cov.n for _, cov in self.segments]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        # (cov, start, count) of each run of consecutive segments sharing
        # one covariance object
        self._runs = []
        start = 0
        for _, run in groupby((cov for _, cov in self.segments), key=id):
            run = list(run)
            self._runs.append((run[0], start, len(run)))
            start += run[0].n * len(run)

    @property
    def n(self):
        return int(self.offsets[-1])

    @property
    def names(self):
        return [name for name, _ in self.segments]

    def segment_cov(self, name):
        for seg_name, cov in self.segments:
            if seg_name == name:
                return cov
        raise KeyError(name)

    def segment_slice(self, name):
        for i, (seg_name, _) in enumerate(self.segments):
            if seg_name == name:
                return slice(int(self.offsets[i]), int(self.offsets[i + 1]))
        raise KeyError(name)

    @property
    def matrix(self):
        return _block_diag([cov.matrix for _, cov in self.segments])

    def _map(self, v, op):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        out = np.empty_like(v)
        for cov, start, count in self._runs:
            stop = start + count * cov.n
            seg = v[start:stop]
            if count > 1:
                seg = seg.reshape(count, cov.n)
            out[start:stop] = getattr(cov, op)(seg).ravel()
        return out

    def apply(self, v):
        return self._map(v, "apply")

    def apply_inv(self, v):
        return self._map(v, "apply_inv")

    def apply_sqrt(self, w):
        return self._map(w, "apply_sqrt")

    def apply_sqrt_t(self, v):
        return self._map(v, "apply_sqrt_t")
