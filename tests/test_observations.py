import numpy as np
import pytest

from ddvar.grid import Grid
from ddvar.model import ModelConfig, SurrogateModel
from ddvar.observations import (
    ObservationSet,
    PlatformSpec,
    innovations,
    read_observations,
    synthesize,
    write_observations,
)


@pytest.fixture
def grid():
    return Grid(nx=10, ny=8, dx=1.0, dy=1.0, dt=0.2, n_steps=4)


def make_traj(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal((1, grid.nx, grid.ny))
            for _ in range(grid.n_steps + 1)]


def simple_set(grid, levels, x, y, values=None):
    n = len(levels)
    if values is None:
        values = np.zeros(n)
    return ObservationSet(grid, levels, x, y, ["gridded"] * n, values, np.ones(n))


def test_constant_field_samples_to_one(grid):
    obs = simple_set(grid, [0, 2, 4], [0.3, 4.7, 8.99], [0.1, 3.5, 6.9])
    traj = [np.ones((1, grid.nx, grid.ny)) for _ in range(5)]
    np.testing.assert_allclose(obs.sample(traj), 1.0, rtol=1e-15)


def test_on_node_sample_is_exact(grid):
    traj = make_traj(grid, seed=1)
    obs = simple_set(grid, [2], [4.0], [5.0])
    got = obs.sample(traj)
    assert got[0] == traj[2][0, 4, 5]


def test_mid_cell_sample_averages(grid):
    f = np.fromfunction(lambda i, j: i, (grid.nx, grid.ny))
    traj = [f[None] for _ in range(5)]
    obs = simple_set(grid, [1], [3.5], [2.0])
    assert obs.sample(traj)[0] == pytest.approx(3.5, abs=1e-14)
    # domain corner at the far edge still lands inside the last cell
    obs = simple_set(grid, [1], [9.0], [7.0])
    assert obs.sample(traj)[0] == pytest.approx(9.0, abs=1e-14)


def test_adjoint_transpose_identity(grid):
    rng = np.random.default_rng(2)
    n = 30
    obs = simple_set(grid, rng.integers(0, 5, n),
                     rng.uniform(0, 9, n), rng.uniform(0, 7, n))
    traj = make_traj(grid, seed=3)
    w = rng.standard_normal(n)
    lhs = np.vdot(obs.sample(traj), w)
    scat = obs.scatter(w, 5, 1)
    rhs = sum(np.vdot(traj[l], scat[l]) for l in range(5))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)
    assert np.all(obs.scatter(np.zeros(n), 5, 1) == 0.0)


def test_single_node_scatter_is_unit(grid):
    obs = simple_set(grid, [3], [2.0], [6.0])
    scat = obs.scatter(np.array([1.0]), 5, 1)
    assert scat[3, 0, 2, 6] == 1.0
    assert scat.sum() == 1.0


def test_box_stencil_matches_global_sampler(grid):
    """A subset on a box reads and spreads what the global operator does,
    dropping the stencil nodes that fall outside the box."""
    rng = np.random.default_rng(6)
    n = 40
    obs = simple_set(grid, rng.integers(0, 5, n),
                     rng.uniform(0, 9, n), rng.uniform(0, 7, n))
    traj = make_traj(grid, seed=7)
    w = rng.standard_normal(n)
    origin, shape, level0 = (3, 2), (5, 4), 1
    box = (slice(3, 8), slice(2, 6))
    sub = np.nonzero(obs.levels >= level0)[0]
    st = obs.stencil(sub, origin, shape, level0)
    box_traj = [s[:, box[0], box[1]] for s in traj[level0:]]

    # observations whose whole stencil lies in the box sample exactly
    full = ((obs.i0[sub] >= 3) & (obs.i0[sub] + 1 < 8)
            & (obs.j0[sub] >= 2) & (obs.j0[sub] + 1 < 6))
    assert full.any() and not full.all()
    got = obs.sample(box_traj, st)
    np.testing.assert_array_equal(got[full], obs.sample(traj)[sub][full])

    # the box scatter is the restriction of the global scatter of the subset
    wsub = np.zeros(n)
    wsub[sub] = w[sub]
    ref = obs.scatter(wsub, 5, 1)[level0:, :, box[0], box[1]]
    scat = obs.scatter(w[sub], 5 - level0, 1, st)
    np.testing.assert_allclose(scat, ref, rtol=0, atol=1e-15)
    # and its exact transpose
    lhs = np.vdot(got, w[sub])
    rhs = sum(np.vdot(b, c) for b, c in zip(box_traj, scat))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)
    with pytest.raises(ValueError, match="weights"):
        obs.scatter(w, 4, 1, st)


def test_innovations_of_self_sample_vanish(grid):
    traj = make_traj(grid, seed=4)
    rng = np.random.default_rng(5)
    n = 12
    obs = simple_set(grid, rng.integers(0, 5, n),
                     rng.uniform(0, 9, n), rng.uniform(0, 7, n))
    obs.values[:] = obs.sample(traj)
    np.testing.assert_array_equal(innovations(traj, obs), 0.0)
    obs.values[:] += 1.0
    np.testing.assert_allclose(innovations(traj, obs), 1.0, rtol=1e-15)


def test_set_validation(grid):
    with pytest.raises(ValueError, match="time index"):
        simple_set(grid, [5], [1.0], [1.0])
    with pytest.raises(ValueError, match="outside the domain"):
        simple_set(grid, [1], [9.01], [1.0])
    with pytest.raises(ValueError, match="variances"):
        ObservationSet(grid, [1], [1.0], [1.0], ["gridded"], [0.0], [0.0])
    with pytest.raises(ValueError, match="empty"):
        ObservationSet(grid, [], [], [], [], [], [])


def test_synthesize_platforms_and_determinism(grid):
    model = SurrogateModel(grid, ModelConfig(kind="linear", boundary="periodic",
                                             advect=(0.5, 0.2), viscosity=0.1))
    rng = np.random.default_rng(6)
    traj = model.run_nl(0.3 * rng.standard_normal(model.state_shape))
    platforms = [
        PlatformSpec("gridded", 8, 0.1, levels=(2,)),
        PlatformSpec("track", 5, 0.2, levels=(0,)),
        PlatformSpec("profile", 4, 0.15, levels=(1, 2, 3, 4)),
    ]
    a = synthesize(traj, grid, platforms, seed=42)
    b = synthesize(traj, grid, platforms, seed=42)
    assert a.n_obs == 17
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.platforms.count("track") == 5
    # track advances one level per point
    tr = [k for k, p in enumerate(a.platforms) if p == "track"]
    np.testing.assert_array_equal(a.levels[tr], [0, 1, 2, 3, 4])
    # profile stays put in space
    pr = [k for k, p in enumerate(a.platforms) if p == "profile"]
    assert np.ptp(a.x[pr]) == 0.0 and np.ptp(a.y[pr]) == 0.0


def test_synthesize_noise_free_and_rejection(grid):
    model = SurrogateModel(grid, ModelConfig(kind="linear", boundary="periodic",
                                             advect=(0.5, 0.2), viscosity=0.1))
    traj = model.run_nl(np.ones(model.state_shape))
    perfect = synthesize(traj, grid,
                         [PlatformSpec("gridded", 6, 0.3, noise_sigma=0.0)],
                         seed=7)
    np.testing.assert_array_equal(innovations(traj, perfect), 0.0)
    np.testing.assert_array_equal(perfect.variances, 0.09)
    with pytest.raises(ValueError, match="at least one"):
        synthesize(traj, grid, [PlatformSpec("gridded", 0, 0.3)], seed=7)


def test_synthesize_noise_mean(grid):
    model = SurrogateModel(grid, ModelConfig(kind="linear", boundary="periodic",
                                             advect=(0.5, 0.2), viscosity=0.1))
    traj = model.run_nl(np.zeros(model.state_shape))
    sigma = 0.25
    obs = synthesize(traj, grid,
                     [PlatformSpec("gridded", 10000, sigma, levels=(1,))],
                     seed=11)
    # truth is identically zero, so values are the pure noise draws
    assert abs(obs.values.mean()) <= 3 * sigma / 100.0


def test_file_round_trip(tmp_path, grid):
    rng = np.random.default_rng(8)
    n = 15
    obs = ObservationSet(grid, rng.integers(0, 5, n), rng.uniform(0, 9, n),
                         rng.uniform(0, 7, n),
                         ["track" if k % 2 else "profile" for k in range(n)],
                         rng.standard_normal(n), rng.uniform(0.01, 1.0, n))
    path = tmp_path / "obs.txt"
    write_observations(path, obs)
    back = read_observations(path, grid)
    np.testing.assert_array_equal(back.levels, obs.levels)
    np.testing.assert_array_equal(back.x, obs.x)
    np.testing.assert_array_equal(back.y, obs.y)
    np.testing.assert_array_equal(back.values, obs.values)
    np.testing.assert_array_equal(back.variances, obs.variances)
    assert back.platforms == obs.platforms


def test_subset_preserves_order(grid):
    obs = simple_set(grid, [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0],
                     [1.0, 1.5, 2.0, 2.5], values=np.arange(4.0))
    sub = obs.subset([2, 0])
    np.testing.assert_array_equal(sub.values, [2.0, 0.0])
    np.testing.assert_array_equal(sub.levels, [2, 0])
