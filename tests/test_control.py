import numpy as np
import pytest

from ddvar.control import ControlLayout, ControlVector
from ddvar.grid import Grid, build_time_windows


def make_vector(n_steps, n_t, n_fields, has_boundary):
    grid = Grid(nx=6, ny=5, n_steps=n_steps)
    windows = build_time_windows(n_steps, n_t)
    layout = ControlLayout(grid, windows, n_fields, has_boundary)
    data = np.random.default_rng(n_steps + n_t).standard_normal(layout.n_z)
    return ControlVector(layout, data), windows


@pytest.mark.parametrize("n_steps,n_t", [(6, 1), (6, 2), (7, 3), (5, 5)])
def test_step_inputs_alias_the_window_of_each_step(n_steps, n_t):
    v, windows = make_vector(n_steps, n_t, 2, has_boundary=True)
    forcing, boundary = v.step_inputs()
    assert len(forcing) == len(boundary) == n_steps
    for step in range(1, n_steps + 1):
        k = windows.window_of_step(step)
        assert v.layout.step_window[step - 1] == k
        np.testing.assert_array_equal(forcing[step - 1], v.f(k))
        np.testing.assert_array_equal(boundary[step - 1], v.b(k))
    # an in-place add through a step's views lands in its window's segments
    v.data[:] = 0.0
    for step in range(1, n_steps + 1):
        k = windows.window_of_step(step)
        before = v.data.copy()
        forcing[step - 1] += 1.0
        boundary[step - 1] += 2.0
        delta = v.data - before
        f_sl = v.layout.slice_of(f"f{k}")
        b_sl = v.layout.slice_of(f"b{k}")
        assert np.all(delta[f_sl] == 1.0) and np.all(delta[b_sl] == 2.0)
        delta[f_sl] = 0.0
        delta[b_sl] = 0.0
        assert not delta.any()


def test_step_inputs_without_boundary_segments():
    v, windows = make_vector(6, 2, 2, has_boundary=False)
    forcing, boundary = v.step_inputs()
    assert boundary is None
    assert [np.shares_memory(f, v.f(windows.window_of_step(s)))
            for s, f in enumerate(forcing, start=1)] == [True] * 6
