import numpy as np
import pytest
import scipy.spatial

from ddvar.control import ControlLayout
from ddvar.covariance import (
    ControlCovariance,
    CovarianceR,
    GaussianCovariance,
    KroneckerCovariance,
    build_control_covariance,
    ring_coords,
)
from ddvar.grid import Grid, build_time_windows


@pytest.fixture
def grid66():
    return Grid(nx=6, ny=6, dt=0.1, n_steps=1)


def grid_block(grid, sigma, length, nugget=None):
    """The Kronecker block over the grid's nodes."""
    return KroneckerCovariance(np.arange(grid.nx) * grid.dx,
                               np.arange(grid.ny) * grid.dy,
                               sigma, length, nugget)


def layout_of(grid, n_t, n_fields=1, has_boundary=False):
    """Control layout of n_t windows over three steps."""
    return ControlLayout(grid, build_time_windows(3, n_t), n_fields,
                         has_boundary)


def test_two_points_at_distance_l():
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    cov = GaussianCovariance(pts, sigma=2.0, length=3.0, nugget=1e-6)
    assert cov.matrix[0, 1] == pytest.approx(4.0 * np.exp(-0.5), rel=1e-14)
    assert cov.matrix[0, 0] == pytest.approx(4.0 + 1e-6, rel=1e-14)


def test_vanishing_length_gives_diagonal(grid66):
    b = grid_block(grid66, sigma=1.5, length=1e-8, nugget=1e-8)
    np.testing.assert_allclose(b.matrix, (1.5**2 + 1e-8) * np.eye(36),
                               rtol=0, atol=1e-15)
    v = np.arange(36.0)
    np.testing.assert_allclose(b.apply_inv(v), v / (1.5**2 + 1e-8), rtol=1e-12)


def test_symmetry_and_factor_reassembly(grid66):
    rng = np.random.default_rng(9)
    b = grid_block(grid66, sigma=1.0, length=2.0)
    assert np.max(np.abs(b.matrix - b.matrix.T)) <= 1e-14
    w = rng.standard_normal(b.n)
    np.testing.assert_allclose(b.apply_sqrt(b.apply_sqrt(w)), b.apply(w),
                               rtol=0, atol=1e-12)
    dense = GaussianCovariance(grid66.node_coords(), sigma=1.0, length=2.0)
    np.testing.assert_allclose(dense.factor @ dense.factor.T, dense.matrix,
                               rtol=0, atol=1e-12)
    assert np.all(np.diag(dense.factor) > 0)


def test_apply_round_trip_and_sqrt(grid66):
    rng = np.random.default_rng(10)
    b = grid_block(grid66, sigma=1.0, length=2.0)
    v = rng.standard_normal((2, b.n))  # two fields
    back = b.apply_inv(b.apply(v))
    assert np.linalg.norm(back - v) / np.linalg.norm(v) <= 1e-10
    w = rng.standard_normal((2, b.n))
    np.testing.assert_allclose(b.apply_sqrt(b.apply_sqrt(w)), b.apply(w),
                               rtol=1e-11, atol=1e-12)
    assert np.vdot(v, b.apply(v)) > 0
    assert np.all(b.apply(np.zeros((2, b.n))) == 0.0)


def test_apply_matches_dense_matvec(grid66):
    rng = np.random.default_rng(11)
    b = grid_block(grid66, sigma=0.7, length=1.5)
    v = rng.standard_normal(b.n)
    np.testing.assert_allclose(b.apply(v), b.matrix @ v, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(b.apply_inv(v), np.linalg.solve(b.matrix, v),
                               rtol=1e-9, atol=1e-10)
    # a stack of three fields, as the control covariance passes the
    # forcing windows at N_t = 3
    vs = rng.standard_normal((3, b.n))
    np.testing.assert_allclose(b.apply(vs), vs @ b.matrix, rtol=1e-13,
                               atol=1e-13)
    np.testing.assert_allclose(b.apply_inv(vs),
                               np.linalg.solve(b.matrix, vs.T).T,
                               rtol=1e-9, atol=1e-10)


def rect(rows, cols, ny):
    """Row-major flat node indices of the sub-grid rows x cols."""
    return (np.asarray(rows)[:, None] * ny + np.asarray(cols)).ravel()


def test_restrict_principal_submatrix(grid66):
    b = grid_block(grid66, sigma=1.2, length=2.5)
    for rows, cols in (([1, 2, 3], [2, 3, 4, 5]), ([0, 2, 5], [1, 4])):
        idx = rect(rows, cols, 6)
        sub = b.restrict_grid(np.array(rows), np.array(cols))
        np.testing.assert_array_equal(sub.matrix, b.matrix[np.ix_(idx, idx)])
        assert np.all(sub.spectrum > 0)
    full = b.restrict_grid(np.arange(6), np.arange(6))
    np.testing.assert_array_equal(full.matrix, b.matrix)
    single = b.restrict_grid(np.array([1]), np.array([1]))
    assert single.matrix.shape == (1, 1)
    assert single.matrix[0, 0] == b.matrix[7, 7]


def test_restrict_field_blocked(grid66):
    """A restricted block applies to every field of a stack alike."""
    b = grid_block(grid66, sigma=1.0, length=2.0)
    idx = rect([1, 2], [3, 4], 6)
    sub = b.restrict_grid(np.array([1, 2]), np.array([3, 4]))
    assert sub.n == 4
    v = np.random.default_rng(12).standard_normal((2, sub.n))
    np.testing.assert_allclose(sub.apply(v),
                               v @ b.matrix[np.ix_(idx, idx)],
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("nx, ny", [(6, 6), (7, 5), (10, 8)])
def test_kronecker_matches_dense_kernel(nx, ny):
    """The factored block against the kernel built from all node pairs."""
    rng = np.random.default_rng(nx * ny)
    grid = Grid(nx=nx, ny=ny, dt=0.1, n_steps=1, dx=0.8, dy=1.1)
    sigma, length = 0.7, 1.5
    b = grid_block(grid, sigma=sigma, length=length)
    pts = grid.node_coords()
    d2 = scipy.spatial.distance.cdist(pts, pts, "sqeuclidean")
    dense = sigma**2 * np.exp(-d2 / (2.0 * length**2)) \
        + b.nugget * np.eye(nx * ny)

    def rel(a, ref):
        return np.linalg.norm(a - ref) / np.linalg.norm(ref)

    v = rng.standard_normal((3, nx * ny))
    assert rel(b.apply(v), v @ dense) <= 1e-13
    assert rel(b.apply_inv(v), np.linalg.solve(dense, v.T).T) <= 1e-12
    idx = rect(range(1, nx - 1), range(2, ny), ny)
    sub = dense[np.ix_(idx, idx)]
    w = rng.standard_normal(idx.size)
    assert rel(b.restrict_grid(np.arange(1, nx - 1), np.arange(2, ny))
               .apply_inv(w), np.linalg.solve(sub, w)) <= 1e-12


def _subnormals(a):
    return int(np.sum((a != 0) & (np.abs(a) < np.finfo(float).tiny)))


def _raw_kernel(points, length):
    """Unflushed Gaussian kernel over the rows of points."""
    d2 = scipy.spatial.distance.cdist(points, points, "sqeuclidean")
    return np.exp(-d2 / (2.0 * length**2))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_short_length_kernels_hold_no_subnormals():
    # at L = 0.5 on the C5 grid the raw kernels tail off into subnormals
    grid = Grid(nx=40, ny=32, dt=0.1, n_steps=1)
    x, y = np.arange(40) * grid.dx, np.arange(32) * grid.dy
    sigma, length, eps = 0.8, 0.5, 1e-3 * 0.8**2
    raw_x = _raw_kernel(x[:, None], length)
    raw_y = _raw_kernel(y[:, None], length)
    assert _subnormals(raw_x) > 0 and _subnormals(raw_y) > 0
    rng = np.random.default_rng(13)

    kron = KroneckerCovariance(x, y, sigma, length)
    assert _subnormals(kron.kx) == 0 and _subnormals(kron.ky) == 0
    ref = sigma**2 * np.kron(raw_x, raw_y) + eps * np.eye(kron.n)
    v = rng.standard_normal((2, kron.n))
    assert _rel(kron.apply(v), v @ ref) <= 1e-14
    assert _rel(kron.apply_inv(v), np.linalg.solve(ref, v.T).T) <= 1e-14

    pts = ring_coords(grid)
    ring = GaussianCovariance(pts, sigma, length)
    ref = sigma**2 * _raw_kernel(pts, length) + eps * np.eye(len(pts))
    assert _subnormals(ref) > 0
    idx = np.arange(10, 50)
    sub = ring.restrict(idx)
    assert "factor" not in vars(sub)  # factorized on first use only
    for cov, dense in ((ring, ref), (sub, ref[np.ix_(idx, idx)])):
        assert _subnormals(cov.matrix) == 0
        assert _subnormals(cov.factor) == 0
        w = rng.standard_normal((3, cov.n))
        assert _rel(cov.apply(w), w @ dense) <= 1e-14
        assert _rel(cov.apply_inv(w), np.linalg.solve(dense, w.T).T) <= 1e-14


def _flushed(a):
    a = a.copy()
    a[np.abs(a) < np.finfo(float).tiny] = 0.0
    return a


@pytest.mark.parametrize("length,dominant", [(0.3, True), (0.5, True),
                                             (2.0, False)])
def test_kernels_equal_flushed_exp_and_dominance_defers_the_factor(
        length, dominant):
    """The ring kernel, its factor and the 1-D kernels are, bit for bit,
    an unmasked exp with the subnormals flushed.  The ring is factorized
    on construction unless strict diagonal dominance proves it positive
    definite (short lengths)."""
    grid = Grid(nx=40, ny=32, dt=0.1, n_steps=1)
    sigma = 0.8
    pts = ring_coords(grid)
    ring = GaussianCovariance(pts, sigma, length)
    want = sigma**2 * _raw_kernel(pts, length)
    want[np.diag_indices_from(want)] += 1e-3 * sigma**2
    want = _flushed(want)
    off = np.abs(want).sum(axis=1) - want.diagonal()
    assert np.all(off < want.diagonal()) == dominant
    assert ("factor" not in vars(ring)) == dominant
    assert np.array_equal(ring.matrix, want)
    assert np.array_equal(ring.factor, _flushed(np.linalg.cholesky(want)))
    for n, h in ((grid.nx, grid.dx), (grid.ny, grid.dy)):
        x = np.arange(n) * h
        kron = KroneckerCovariance(x, x, sigma, length)
        want = _flushed(_raw_kernel(x[:, None], length))
        assert np.array_equal(kron.kx, want)
        assert np.array_equal(kron.ky, want)


@pytest.mark.parametrize("length", [0.5, 2.0])
def test_ring_apply_inv_round_trip(length):
    """The ring's apply_inv, through the inverse of its Cholesky factor,
    undoes apply to 1e-10 relative, on the full ring and a restriction,
    and matches a dense solve of the kernel."""
    pts = ring_coords(Grid(nx=40, ny=32, dt=0.1, n_steps=1))
    ring = GaussianCovariance(pts, sigma=0.8, length=length)
    rng = np.random.default_rng(14)
    for cov in (ring, ring.restrict(np.arange(30, 95))):
        v = rng.standard_normal((3, cov.n))
        assert _rel(cov.apply_inv(cov.apply(v)), v) <= 1e-10
        assert _rel(cov.apply_inv(v),
                    np.linalg.solve(cov.matrix, v.T).T) <= 1e-10


def test_dimension_and_parameter_rejection(grid66):
    b = grid_block(grid66, sigma=1.0, length=2.0)
    with pytest.raises(ValueError):
        b.apply(np.zeros(35))
    ring = GaussianCovariance(ring_coords(grid66), sigma=1.0, length=2.0)
    with pytest.raises(ValueError, match="out of range"):
        ring.restrict([0, ring.n])
    with pytest.raises(ValueError):
        GaussianCovariance(np.zeros((4, 2)), sigma=-1.0, length=1.0)
    with pytest.raises(ValueError):
        GaussianCovariance(np.zeros((4, 2)), sigma=1.0, length=0.0)
    with pytest.raises(ValueError):
        GaussianCovariance(np.zeros((4, 2)), sigma=1.0, length=1.0, nugget=1e-12)


def test_indefinite_kernel_is_rejected_with_its_parameters(monkeypatch):
    """A kernel matrix that is not positive definite fails the Cholesky
    factorization in the constructor, and the error names the kernel's
    parameters.  With the kernel replaced by I - 1 1' (no Gaussian kernel
    is negative), three points give the matrix an eigenvalue
    nugget - 2 sigma^2 < 0."""
    import ddvar.covariance as covariance

    monkeypatch.setattr(covariance, "_gauss",
                        lambda arg: np.where(arg == 0.0, 0.0, -1.0))
    with pytest.raises(ValueError, match=r"not positive definite "
                       r"\(sigma=1\.5, length=2\.0, nugget=0\.001\)"):
        GaussianCovariance(np.arange(6.0).reshape(3, 2), sigma=1.5,
                           length=2.0, nugget=1e-3)


def test_covariance_r():
    r = CovarianceR([0.5, 2.0, 1.0])
    v = np.array([1.0, 1.0, 3.0])
    np.testing.assert_array_equal(r.apply(v), [0.5, 2.0, 3.0])
    np.testing.assert_array_equal(r.apply_inv(r.apply(v)), v)
    with pytest.raises(ValueError):
        CovarianceR([1.0, 0.0])
    with pytest.raises(ValueError):
        r.apply(np.ones(2))


def test_control_covariance_blocks(grid66):
    rng = np.random.default_rng(13)
    bx = grid_block(grid66, sigma=1.0, length=2.0)
    bf = grid_block(grid66, sigma=0.2, length=1.0)
    cc = ControlCovariance(layout_of(grid66, 2), bx, bf)
    assert cc.n == 3 * 36
    assert cc.blocks == {"x0": bx, "f": bf, "b": None}
    v = rng.standard_normal(cc.n)
    dense = cc.matrix
    np.testing.assert_allclose(cc.apply(v), dense @ v, rtol=1e-13, atol=1e-13)
    assert np.linalg.norm(cc.apply_inv(cc.apply(v)) - v) <= 1e-10 * np.linalg.norm(v)
    # both blocks take their symmetric root
    np.testing.assert_allclose(cc.apply_sqrt(cc.apply_sqrt(v)), cc.apply(v),
                               rtol=1e-11, atol=1e-12)
    np.testing.assert_array_equal(dense[36:72, 36:72], bf.matrix)
    np.testing.assert_array_equal(dense[:36, 36:], 0.0)
    # N_t = 3: the three forcing windows go through bf as one stack
    cc = ControlCovariance(layout_of(grid66, 3), bx, bf)
    v = rng.standard_normal(cc.n)
    dense = cc.matrix
    np.testing.assert_allclose(cc.apply(v), dense @ v, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(cc.apply_inv(v), np.linalg.solve(dense, v),
                               rtol=1e-9, atol=1e-10)
    assert np.linalg.norm(cc.apply_inv(cc.apply(v)) - v) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("n_t", [1, 2, 3])
def test_control_covariance_applies_each_shared_block_once(n_t, monkeypatch):
    """Each kind's windows and fields are one stacked apply of its block:
    x0, the forcing windows and the boundary windows make three applies
    at any N_t, and the result matches the dense block-diagonal matrix."""
    grid = Grid(nx=7, ny=5, dt=0.1, n_steps=3)
    cc = build_control_covariance(layout_of(grid, n_t, 2, True), 0.5, 1.5,
                                  0.2, 1.0, sigma_b=0.3, length_b=2.0)
    assert isinstance(cc.blocks["b"], GaussianCovariance)
    rng = np.random.default_rng(15)
    v = rng.standard_normal(cc.n)
    dense = cc.matrix
    calls = []
    for op in ("apply", "apply_inv"):
        for block in cc.blocks.values():
            real = getattr(block, op)

            def counted(u, real=real):
                calls.append(u.shape)
                return real(u)
            monkeypatch.setattr(block, op, counted)
    np.testing.assert_allclose(cc.apply(v), dense @ v, rtol=1e-13,
                               atol=1e-13)
    np.testing.assert_allclose(cc.apply_inv(v), np.linalg.solve(dense, v),
                               rtol=1e-9, atol=1e-10)
    windows = () if n_t == 1 else (n_t,)
    runs = [(2, 35), windows + (2, 35), windows + (2, 20)]
    assert calls == runs * 2


@pytest.mark.parametrize("case", ["ring_without_boundary",
                                  "boundary_without_ring", "x0_size",
                                  "f_size", "ring_size"])
def test_control_covariance_rejects_blocks_that_do_not_fit_the_layout(
        case, grid66):
    """A ring block goes with boundary segments and only with them, x0
    and f blocks cover the grid and the ring block covers the ring."""
    other = Grid(nx=6, ny=5, dt=0.1, n_steps=1)
    blocks = {"x0": grid_block(grid66, 1.0, 2.0),
              "f": grid_block(grid66, 0.2, 1.0),
              "b": GaussianCovariance(ring_coords(grid66), 0.3, 2.0)}
    has_boundary = case != "ring_without_boundary"
    match = {"ring_without_boundary": "ring block needs boundary",
             "boundary_without_ring": "boundary segments need a ring",
             "x0_size": "x0 block has order 30, its segments have 36",
             "f_size": "f block has order 30, its segments have 36",
             "ring_size": "b block has order 18, its segments have 20"}[case]
    if case == "boundary_without_ring":
        blocks["b"] = None
    elif case == "ring_size":
        blocks["b"] = GaussianCovariance(ring_coords(other), 0.3, 2.0)
    elif case != "ring_without_boundary":
        blocks[case.split("_")[0]] = grid_block(other, 1.0, 2.0)
    with pytest.raises(ValueError, match=match):
        ControlCovariance(layout_of(grid66, 2, 1, has_boundary), **blocks)


def test_nugget_floor_is_relative_to_sigma():
    """The default nugget, 1e-3 sigma^2, passes the floor at any sigma; an
    explicit nugget below 1e-10 sigma^2 is rejected."""
    pts = np.arange(6.0).reshape(3, 2)
    for sigma in (1e-4, 1.0, 1e4):
        cov = GaussianCovariance(pts, sigma=sigma, length=2.0)
        assert cov.nugget == 1e-3 * sigma**2
        KroneckerCovariance(np.arange(3.0), np.arange(2.0), sigma, 2.0)
    GaussianCovariance(pts, sigma=1e-4, length=2.0, nugget=1e-16)
    for sigma, nugget in ((1.0, 1e-12), (1e-4, 1e-19), (1e4, 1e-3)):
        with pytest.raises(ValueError, match="nugget must be >= 1e-10"):
            GaussianCovariance(pts, sigma=sigma, length=2.0, nugget=nugget)


def test_ring_kernel_distances_equal_cdist():
    """The dense kernel's squared distances are cdist's, bit for bit."""
    from ddvar.covariance import ring_coords

    pts = ring_coords(Grid(nx=40, ny=32, dx=0.7, dy=1.3))
    cov = GaussianCovariance(pts, sigma=1.0, length=2.0, nugget=1e-3)
    d2 = scipy.spatial.distance.cdist(pts, pts, "sqeuclidean")
    want = np.exp(-d2 / (2.0 * 2.0**2))
    want[np.diag_indices_from(want)] += 1e-3
    assert np.array_equal(cov.matrix, want)


def _run_python(code):
    """stdout of a fresh interpreter that imports ddvar from this tree."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ddvar

    src = str(Path(ddvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip()


def test_import_does_not_load_scipy_spatial():
    code = ("import sys, ddvar.experiment; "
            "print('scipy.spatial' in sys.modules)")
    assert _run_python(code) == "False"


def test_import_does_not_load_scipy_linalg(tmp_path):
    """Neither the import nor a global (case2) or decomposed (dd.cfg) run
    loads any scipy module: ddvar needs only numpy."""
    code = f"""
import sys
from importlib import resources
from ddvar.config import parse_config
from ddvar.experiment import run_experiment
for name in ("case2", "dd"):
    text = (resources.files("ddvar") / "configs" / f"{{name}}.cfg").read_text()
    run_experiment(parse_config(text), {str(tmp_path)!r} + "/" + name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _run_python(code) == "[]"


@pytest.mark.parametrize("length", [0.5, 2.0])
def test_restrictions_slice_the_parent_kernels_bitwise(length):
    """On every box of the C5 decomposition (40 x 32 grid, 2 x 4 tiles,
    halo 2) a restriction's 1-D kernels, sliced from the parent's, equal
    the kernels of the box's own coordinates bit for bit; the masked exp
    gives the unmasked formula's kernels; and the ring matrix equals the
    unmasked dense formula bit for bit."""
    from ddvar.covariance import _kernel_1d, _flush_subnormals
    from ddvar.grid import build_tiles

    grid = Grid(nx=40, ny=32, dt=0.1, n_steps=1)
    b = grid_block(grid, sigma=0.8, length=length)
    for x, k in ((b.x, b.kx), (b.y, b.ky)):
        d = x[:, None] - x[None, :]
        assert np.array_equal(
            k, _flush_subnormals(np.exp(-d**2 / (2.0 * length**2))))
    for t in build_tiles(grid, 2, 4, 2).tiles:
        rows, cols = np.arange(t.bi0, t.bi1), np.arange(t.bj0, t.bj1)
        sub = b.restrict_grid(rows, cols)
        assert np.array_equal(sub.x, b.x[rows])
        assert np.array_equal(sub.y, b.y[cols])
        assert np.array_equal(sub.kx, _kernel_1d(b.x[rows], length))
        assert np.array_equal(sub.ky, _kernel_1d(b.y[cols], length))

    pts = ring_coords(grid)
    ring = GaussianCovariance(pts, sigma=0.8, length=length)
    want = 0.8**2 * _raw_kernel(pts, length)
    want[np.diag_indices_from(want)] += ring.nugget
    assert np.array_equal(ring.matrix, _flush_subnormals(want))
