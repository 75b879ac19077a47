import numpy as np
import pytest

from ddvar.grid import (
    Grid,
    boundary_ring_indices,
    build_tiles,
    build_time_windows,
    restrict,
    ring_size,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nx=3, ny=8)
    with pytest.raises(ValueError):
        Grid(nx=8, ny=8, dt=-0.1)
    with pytest.raises(ValueError):
        Grid(nx=8, ny=8, n_steps=0)


def test_ring_indices_cover_boundary_once():
    nx, ny = 7, 5
    ii, jj = boundary_ring_indices(nx, ny)
    assert len(ii) == ring_size(nx, ny) == 2 * ny + 2 * (nx - 2)
    seen = set(zip(ii.tolist(), jj.tolist()))
    assert len(seen) == len(ii)
    expected = {
        (i, j)
        for i in range(nx)
        for j in range(ny)
        if i in (0, nx - 1) or j in (0, ny - 1)
    }
    assert seen == expected


def test_build_tiles_default_decomposition():
    # 40x32 grid split 2x4 with halo 2: eight tiles of 20x8 owned nodes.
    grid = Grid(nx=40, ny=32, n_steps=4)
    layout = build_tiles(grid, 2, 4, halo=2)
    assert layout.n_tiles == 8
    for t in layout.tiles:
        assert (t.i1 - t.i0, t.j1 - t.j0) == (20, 8)
    # tile ids run along i first
    t0, t_mid = layout.tiles[0], layout.tiles[2 * 2 + 1]
    assert (t0.ti, t0.tj, t_mid.ti, t_mid.tj) == (0, 0, 1, 2)
    # interior tile boxes are extended by the halo on interior sides only
    assert (t0.bi0, t0.bi1, t0.bj0, t0.bj1) == (0, 22, 0, 10)
    assert (t_mid.bi0, t_mid.bi1) == (18, 40)
    assert (t_mid.bj0, t_mid.bj1) == (14, 26)


def test_tile_ownership_partition():
    grid = Grid(nx=13, ny=11, n_steps=2)
    layout = build_tiles(grid, 3, 2, halo=1)
    count = np.zeros((grid.nx, grid.ny), dtype=int)
    for t in layout.tiles:
        count[t.i0:t.i1, t.j0:t.j1] += 1
    assert np.all(count == 1)


def test_halo_cells_belong_to_exactly_one_neighbor_interior():
    grid = Grid(nx=16, ny=12, n_steps=2)
    layout = build_tiles(grid, 2, 3, halo=2)
    for t in layout.tiles:
        for side, (si, sj) in t.halo_slices.items():
            nb = layout.tile(t.neighbors[side])
            for i in range(si.start, si.stop):
                for j in range(sj.start, sj.stop):
                    owners = [
                        u.id
                        for u in layout.tiles
                        if u.i0 <= i < u.i1 and u.j0 <= j < u.j1
                    ]
                    assert owners == [nb.id]


def test_build_tiles_rejects_wide_halo():
    grid = Grid(nx=8, ny=8, n_steps=1)
    with pytest.raises(ValueError):
        build_tiles(grid, 4, 1, halo=3)  # smallest interior width is 2


def test_restrict_reproduces_indexed_values():
    grid = Grid(nx=10, ny=6, n_steps=1)
    layout = build_tiles(grid, 2, 1, halo=2)
    f = np.add.outer(np.arange(10), 100 * np.arange(6)).astype(float)
    t1 = layout.tile(1)
    box = restrict(f, t1)
    assert box.shape == t1.box_shape
    for a, i in enumerate(range(t1.bi0, t1.bi1)):
        for b, j in enumerate(range(t1.bj0, t1.bj1)):
            assert box[a, b] == i + 100 * j


def test_point_owner_partition():
    grid = Grid(nx=12, ny=8, dx=0.5, dy=0.25, n_steps=1)
    layout = build_tiles(grid, 3, 2, halo=1)
    rng = np.random.default_rng(3)
    lx, ly = grid.extent
    for _ in range(200):
        x = rng.uniform(0, lx)
        y = rng.uniform(0, ly)
        owners = [t.id for t in layout.tiles if t.contains_point(x, y, grid)]
        assert len(owners) == 1
    # domain corners are owned exactly once as well
    for x, y in [(0.0, 0.0), (lx, 0.0), (0.0, ly), (lx, ly)]:
        owners = [t.id for t in layout.tiles if t.contains_point(x, y, grid)]
        assert len(owners) == 1


def test_time_windows_examples():
    w = build_time_windows(9, 3)
    assert w.sizes == (4, 4, 4)
    assert w.starts == (0, 3, 6)
    w = build_time_windows(7, 2)
    assert w.sizes == (5, 4)
    assert w.starts == (0, 4)
    w = build_time_windows(6, 1)
    assert w.sizes == (7,)
    assert w.starts == (0,)


def test_time_windows_share_endpoints():
    for n_steps in range(1, 15):
        for n_t in range(1, n_steps + 1):
            w = build_time_windows(n_steps, n_t)
            assert sum(w.sizes) - (n_t - 1) == n_steps + 1
            assert w.starts[0] == 0
            for k in range(1, n_t):
                assert w.starts[k] == w.end(k - 1)
            assert w.end(n_t - 1) == n_steps


def test_window_step_and_level_assignment():
    w = build_time_windows(9, 3)
    # the step ending at level s: steps 1..3 -> window 0, 4..6 -> window 1,
    # 7..9 -> window 2
    assert [w.window_of_level(s) for s in range(1, 10)] == [0] * 3 + [1] * 3 + [2] * 3
    # shared levels go to the earlier window; level 0 to window 0
    assert w.window_of_level(0) == 0
    assert w.window_of_level(3) == 0
    assert w.window_of_level(6) == 1
    assert w.window_of_level(9) == 2
    with pytest.raises(ValueError):
        build_time_windows(4, 5)


def test_window_of_level_takes_an_array_of_levels():
    w = build_time_windows(9, 3)
    levels = np.array([[0, 1, 3, 4], [6, 7, 9, 5]])
    got = w.window_of_level(levels)
    assert got.shape == levels.shape
    assert got.tolist() == [[w.window_of_level(int(l)) for l in row]
                            for row in levels] == [[0, 0, 0, 1], [1, 2, 2, 1]]
    for bad in (-1, 10, np.array([2, 10])):
        with pytest.raises(ValueError):
            w.window_of_level(bad)
