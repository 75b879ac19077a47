import numpy as np
import pytest

from ddvar.grid import Grid, boundary_ring_indices
from ddvar.model import (ModelConfig, ModelDivergedError, SurrogateModel,
                         _axis_differences)


def make_model(kind="linear", boundary="prescribed", nx=12, ny=10, dt=0.2,
               nu=0.15, advect=(0.7, -0.4), n_steps=6):
    grid = Grid(nx=nx, ny=ny, dx=1.0, dy=1.0, dt=dt, n_steps=n_steps)
    cfg = ModelConfig(kind=kind, advect=advect, viscosity=nu, boundary=boundary)
    return SurrogateModel(grid, cfg)


def random_state(model, rng, scale=1.0):
    return scale * rng.standard_normal(model.state_shape)


def dot_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def test_stability_guard_rejects_bad_dt():
    grid = Grid(nx=8, ny=8, dx=1.0, dy=1.0, dt=2.0, n_steps=1)
    with pytest.raises(ValueError, match="diffusive"):
        SurrogateModel(grid, ModelConfig(viscosity=0.2, advect=(0.0, 0.0)))
    grid = Grid(nx=8, ny=8, dt=1.0, n_steps=1)
    with pytest.raises(ValueError, match="CFL"):
        SurrogateModel(grid, ModelConfig(viscosity=0.05, advect=(0.8, 0.0)))


@pytest.mark.parametrize("kind", ["linear", "burgers"])
@pytest.mark.parametrize("boundary", ["periodic", "prescribed"])
def test_discretization_equals_roll_formulas(kind, boundary):
    """The axis matrices are the np.roll centered differences, and step_nl
    is the update built from them with forcing and ring values; the
    linear model's step_nl is its TL step of the state, bit for bit."""
    grid = Grid(nx=12, ny=10, dx=0.7, dy=1.3, dt=0.1, n_steps=1)
    nu, (cx, cy) = 0.1, (0.8, -0.5)
    model = SurrogateModel(grid, ModelConfig(
        kind=kind, advect=(cx, cy), viscosity=nu, boundary=boundary))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(model.state_shape)
    f = 0.1 * rng.standard_normal(model.state_shape)
    b = rng.standard_normal((model.n_fields, model.n_ring))
    dx, dy = grid.dx, grid.dy

    def ddx(w):
        return (np.roll(w, -1, axis=-2) - np.roll(w, 1, axis=-2)) / (2 * dx)

    def ddy(w):
        return (np.roll(w, -1, axis=-1) - np.roll(w, 1, axis=-1)) / (2 * dy)

    def lap(w):
        return ((np.roll(w, -1, axis=-2) - 2 * w + np.roll(w, 1, axis=-2))
                / dx**2
                + (np.roll(w, -1, axis=-1) - 2 * w + np.roll(w, 1, axis=-1))
                / dy**2)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    for n, h in ((grid.nx, dx), (grid.ny, dy)):
        d1, d2 = _axis_differences(n, h)
        eye = np.eye(n)
        assert close(d1, (np.roll(eye, -1, axis=0)
                          - np.roll(eye, 1, axis=0)) / (2 * h))
        assert close(d2, (np.roll(eye, -1, axis=0) - 2 * eye
                          + np.roll(eye, 1, axis=0)) / h**2)
    assert close(_axis_differences(grid.nx, dx)[0] @ x, ddx(x))
    assert close(x @ _axis_differences(grid.ny, dy)[0].T, ddy(x))

    if kind == "linear":
        adv = cx * ddx(x) + cy * ddy(x)
    else:
        adv = x[0] * ddx(x) + x[1] * ddy(x)
    want = x + grid.dt * (-adv + nu * lap(x) + f)
    if boundary == "prescribed":
        ii, jj = boundary_ring_indices(grid.nx, grid.ny)
        want[:, ii, jj] = b
    else:
        b = None
    got = model.step_nl(x, f=f, b=b)
    assert close(got, want)
    if kind == "linear":
        assert np.array_equal(got, model.step_tl(model.linearize(x), x, f, b))


def test_diverged_state_raises():
    model = make_model()
    x = np.zeros(model.state_shape)
    x[0, 2, 2] = np.nan
    with pytest.raises(ModelDivergedError):
        model.step_nl(x)


def _linear_tl_gap(boundary, nx=12, ny=10):
    """Relative gap between the assembled TL step and the difference of
    two stencil steps (exact for the linear model up to rounding)."""
    model = make_model(kind="linear", boundary=boundary, nx=nx, ny=ny)
    rng = np.random.default_rng(1)
    x = random_state(model, rng)
    d = random_state(model, rng, scale=0.3)
    f = random_state(model, rng, scale=0.1)
    b = 0.5 * rng.standard_normal((model.n_fields, model.n_ring))
    kw = {} if boundary == "periodic" else {"b": b}
    y1 = model.step_nl(x + d, f=f, **kw)
    y0 = model.step_nl(x, f=f, **kw)
    dy = model.step_tl(model.linearize(x), d)
    return np.linalg.norm(y1 - y0 - dy) / np.linalg.norm(dy)


@pytest.mark.parametrize("boundary", ["periodic", "prescribed"])
def test_linear_model_tl_is_exact(boundary):
    assert _linear_tl_gap(boundary) <= 1e-13


@pytest.mark.parametrize("boundary,nx,ny", [("prescribed", 24, 12),
                                            ("periodic", 4, 5)])
def test_linear_model_tl_is_exact_on_box_shapes(boundary, nx, ny):
    """A decomposition's tile box and the smallest periodic grid."""
    assert _linear_tl_gap(boundary, nx, ny) <= 1e-13


def test_linear_model_boundary_increment_exact():
    model = make_model(kind="linear", boundary="prescribed")
    rng = np.random.default_rng(2)
    x = random_state(model, rng)
    b = rng.standard_normal((model.n_fields, model.n_ring))
    db = 0.2 * rng.standard_normal((model.n_fields, model.n_ring))
    y1 = model.step_nl(x, b=b + db)
    y0 = model.step_nl(x, b=b)
    dy = model.step_tl(model.linearize(x), np.zeros(model.state_shape), db=db)
    assert np.linalg.norm(y1 - y0 - dy) <= 1e-14 * max(1.0, np.linalg.norm(dy))


def test_burgers_taylor_remainder_is_quadratic():
    model = make_model(kind="burgers", advect=(0.6, 0.6), boundary="periodic")
    rng = np.random.default_rng(3)
    x = random_state(model, rng, scale=0.5)
    d = random_state(model, rng)
    lin = model.linearize(x)
    ratios = []
    for eps in [1e-2, 1e-3, 1e-4, 1e-6]:
        y1 = model.step_nl(x + eps * d)
        y0 = model.step_nl(x)
        rem = np.linalg.norm(y1 - y0 - eps * model.step_tl(lin, d))
        ratios.append(rem / eps**2)
    # quadratic nonlinearity: remainder / eps^2 is a constant
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios - ratios[0]) <= 1e-4 * ratios[0] + 1e-9)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
@pytest.mark.parametrize("boundary", ["periodic", "prescribed"])
def test_single_step_adjoint_identity(kind, boundary):
    model = make_model(kind=kind, boundary=boundary)
    rng = np.random.default_rng(4)
    for _ in range(10):
        xlin = random_state(model, rng)
        d = random_state(model, rng)
        df = random_state(model, rng)
        db = rng.standard_normal((model.n_fields, model.n_ring))
        p = random_state(model, rng)
        kw = {} if boundary == "periodic" else {"db": db}
        lin = model.linearize(xlin)
        fwd = model.step_tl(lin, d, df=df, **kw)
        p_prev, df_star, db_star = model.step_ad(lin, p)
        lhs = np.vdot(fwd, p)
        rhs = np.vdot(d, p_prev) + np.vdot(df, df_star)
        if boundary == "prescribed":
            rhs += np.vdot(db, db_star)
        assert dot_gap(lhs, rhs) <= 1e-12


def test_run_nl_zero_steps_returns_initial_state_only():
    model = make_model()
    x0 = np.ones(model.state_shape)
    traj = model.run_nl(x0, n_steps=0)
    assert traj.n_steps == 0
    np.testing.assert_array_equal(traj.states[0], x0)


def test_pure_diffusion_tl_matrix_is_symmetric_and_ad_is_transpose():
    # 5x5 periodic pure-diffusion: dense assembly oracle.
    grid = Grid(nx=5, ny=5, dt=0.2, n_steps=1)
    model = SurrogateModel(grid, ModelConfig(
        kind="linear", advect=(0.0, 0.0), viscosity=0.2, boundary="periodic"))
    n = grid.n_points
    lin = model.linearize(np.zeros(model.state_shape))
    tl = np.zeros((n, n))
    ad = np.zeros((n, n))
    for c in range(n):
        e = np.zeros((1, 5, 5))
        e.ravel()[c] = 1.0
        tl[:, c] = model.step_tl(lin, e).ravel()
        p_prev, _, _ = model.step_ad(lin, e)
        ad[:, c] = p_prev.ravel()
    np.testing.assert_allclose(tl, tl.T, atol=1e-14)
    np.testing.assert_allclose(ad, tl.T, atol=1e-14)


def _reference_burgers_step(x, dt, dx, dy, nu):
    """Independent plain-loop Burgers step, periodic, no forcing."""
    nf, nx, ny = x.shape
    out = np.empty_like(x)
    u, v = x[0], x[1]
    for fidx in range(2):
        w = x[fidx]
        for i in range(nx):
            for j in range(ny):
                ip, im = (i + 1) % nx, (i - 1) % nx
                jp, jm = (j + 1) % ny, (j - 1) % ny
                wx = (w[ip, j] - w[im, j]) / (2 * dx)
                wy = (w[i, jp] - w[i, jm]) / (2 * dy)
                lap = ((w[ip, j] - 2 * w[i, j] + w[im, j]) / dx**2
                       + (w[i, jp] - 2 * w[i, j] + w[i, jm]) / dy**2)
                adv = u[i, j] * wx + v[i, j] * wy
                out[fidx, i, j] = w[i, j] + dt * (-adv + nu * lap)
    return out


def test_burgers_step_matches_reference_loops():
    grid = Grid(nx=6, ny=6, dt=0.15, n_steps=1)
    model = SurrogateModel(grid, ModelConfig(
        kind="burgers", advect=(0.5, 0.5), viscosity=0.2, boundary="periodic"))
    rng = np.random.default_rng(6)
    x = 0.5 * rng.standard_normal(model.state_shape)
    got = model.step_nl(x)
    want = _reference_burgers_step(x, grid.dt, grid.dx, grid.dy, 0.2)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_burgers_tl_matches_reference_loops_by_taylor():
    """The assembled Burgers operator is the Jacobian of the plain-loop
    reference step: the Taylor remainder shrinks like eps^2."""
    grid = Grid(nx=6, ny=7, dx=0.9, dy=1.1, dt=0.15, n_steps=1)
    nu = 0.2
    model = SurrogateModel(grid, ModelConfig(
        kind="burgers", advect=(0.5, 0.5), viscosity=nu, boundary="periodic"))
    rng = np.random.default_rng(7)
    x = 0.5 * rng.standard_normal(model.state_shape)
    d = rng.standard_normal(model.state_shape)
    tl = model.step_tl(model.linearize(x), d)

    def ref(state):
        return _reference_burgers_step(state, grid.dt, grid.dx, grid.dy, nu)

    ratios = []
    for eps in [1e-2, 1e-3, 1e-4]:
        rem = np.linalg.norm(ref(x + eps * d) - ref(x) - eps * tl)
        ratios.append(rem / eps**2)
    ratios = np.array(ratios)
    assert ratios[0] > 0.0
    assert np.all(np.abs(ratios - ratios[0]) <= 1e-4 * ratios[0])


def test_linear_step_operator_is_built_once_per_model():
    model = make_model(kind="linear")
    rng = np.random.default_rng(8)
    first = model.linearize(random_state(model, rng))
    assert model.linearize(random_state(model, rng)) is first
    burgers = make_model(kind="burgers", advect=(0.6, 0.6))
    x = random_state(burgers, rng, scale=0.5)
    assert burgers.linearize(x) is not burgers.linearize(x)


@pytest.mark.parametrize("kind", ["linear", "burgers"])
@pytest.mark.parametrize("boundary", ["periodic", "prescribed"])
@pytest.mark.parametrize("nx,ny", [(16, 12), (11, 7)])
def test_step_operator_stacks_and_transposes(kind, boundary, nx, ny):
    """apply / apply_t on a (k, nf, nx, ny) stack equal k single applies,
    and the dense matrices built column by column from apply and apply_t
    (and from step_tl and step_ad) are transposes of each other."""
    grid = Grid(nx=nx, ny=ny, dx=0.9, dy=1.1, dt=0.15, n_steps=1)
    model = SurrogateModel(grid, ModelConfig(
        kind=kind, advect=(0.6, -0.4), viscosity=0.2, boundary=boundary))
    rng = np.random.default_rng(9)
    op = model.linearize(random_state(model, rng, scale=0.5))
    stack = rng.standard_normal((5,) + model.state_shape)
    for fn in (op.apply, op.apply_t):
        got = fn(stack)
        for k in range(len(stack)):
            np.testing.assert_array_equal(got[k], fn(stack[k]))

    n = stack[0].size
    cols = {name: np.zeros((n, n)) for name in ("m", "m_t", "tl", "ad")}
    for c in range(n):
        e = np.zeros(model.state_shape)
        e.ravel()[c] = 1.0
        cols["m"][:, c] = op.apply(e).ravel()
        cols["m_t"][:, c] = op.apply_t(e).ravel()
        cols["tl"][:, c] = model.step_tl(op, e).ravel()
        cols["ad"][:, c] = model.step_ad(op, e)[0].ravel()
    assert np.abs(cols["m"]).max() > 0.5
    assert np.max(np.abs(cols["m_t"] - cols["m"].T)) <= 1e-14
    assert np.max(np.abs(cols["ad"] - cols["tl"].T)) <= 1e-14
