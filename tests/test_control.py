import numpy as np
import pytest

from ddvar.control import ControlLayout
from ddvar.grid import Grid, build_time_windows


def make_vector(n_steps, n_t, n_fields, has_boundary):
    grid = Grid(nx=6, ny=5, n_steps=n_steps)
    windows = build_time_windows(n_steps, n_t)
    layout = ControlLayout(grid, windows, n_fields, has_boundary)
    data = np.random.default_rng(n_steps + n_t).standard_normal(layout.n_z)
    return layout, data, windows


def segment(layout, data, name):
    """The named segment of data, one row per field."""
    return data[layout.slice_of(name)].reshape(layout.n_fields, -1)


@pytest.mark.parametrize("n_steps,n_t", [(6, 1), (6, 2), (7, 3), (5, 5)])
def test_step_inputs_alias_the_window_of_each_step(n_steps, n_t):
    layout, data, windows = make_vector(n_steps, n_t, 2, has_boundary=True)
    _, forcing, boundary = layout.views(data)
    assert len(forcing) == len(boundary) == n_steps
    for step in range(1, n_steps + 1):
        k = windows.window_of_level(step)
        assert layout.step_window[step - 1] == k
        np.testing.assert_array_equal(forcing[step - 1].reshape(2, -1),
                                      segment(layout, data, f"f{k}"))
        np.testing.assert_array_equal(boundary[step - 1],
                                      segment(layout, data, f"b{k}"))
    # an in-place add through a step's views lands in its window's segments
    data[:] = 0.0
    for step in range(1, n_steps + 1):
        k = windows.window_of_level(step)
        before = data.copy()
        forcing[step - 1] += 1.0
        boundary[step - 1] += 2.0
        delta = data - before
        f_sl = layout.slice_of(f"f{k}")
        b_sl = layout.slice_of(f"b{k}")
        assert np.all(delta[f_sl] == 1.0) and np.all(delta[b_sl] == 2.0)
        delta[f_sl] = 0.0
        delta[b_sl] = 0.0
        assert not delta.any()


def test_step_inputs_without_boundary_segments():
    layout, data, windows = make_vector(6, 2, 2, has_boundary=False)
    _, forcing, boundary = layout.views(data)
    assert boundary is None
    assert [np.shares_memory(f, data[layout.slice_of(
        f"f{windows.window_of_level(s)}")])
            for s, f in enumerate(forcing, start=1)] == [True] * 6


def test_views_alias_flat_and_reject_a_wrong_length():
    layout, data, _ = make_vector(6, 2, 2, has_boundary=True)
    x0, forcing, boundary = layout.views(data)
    assert x0.shape == (2, 6, 5)
    np.testing.assert_array_equal(x0.reshape(2, -1),
                                  segment(layout, data, "x0"))
    for view in [x0] + forcing + boundary:
        assert np.shares_memory(view, data)
    x0 += 1.0
    np.testing.assert_array_equal(data[layout.slice_of("x0")],
                                  x0.ravel())
    for bad in (np.zeros(layout.n_z - 1), np.zeros((1, layout.n_z))):
        with pytest.raises(ValueError, match="expected flat vector"):
            layout.views(bad)


@pytest.mark.parametrize("has_boundary", [True, False])
def test_indices_pick_the_entries_of_the_views(has_boundary):
    layout, data, windows = make_vector(7, 3, 2, has_boundary)
    x0, forcing, boundary = layout.views(data)
    rng = np.random.default_rng(1)
    nodes = rng.choice(layout.grid.n_points, 9, replace=False)
    ring = rng.choice(layout.n_ring_seg // 2, 5, replace=False)
    np.testing.assert_array_equal(data[layout.indices("x0", nodes)],
                                  x0.reshape(2, -1)[:, nodes].ravel())
    for k in range(windows.n_t):
        # the window's first step views its segments
        first = windows.starts[k]
        np.testing.assert_array_equal(
            data[layout.indices(f"f{k}", nodes)],
            forcing[first].reshape(2, -1)[:, nodes].ravel())
        if has_boundary:
            np.testing.assert_array_equal(
                data[layout.indices(f"b{k}", ring)],
                boundary[first][:, ring].ravel())
    # every point of every segment, in layout order, is the whole vector
    every = [layout.indices(name, np.arange(size // 2))
             for name, size in zip(layout.names, layout.sizes)]
    np.testing.assert_array_equal(np.concatenate(every),
                                  np.arange(layout.n_z))
