"""Control vector layout for the assimilation problem.

The control variable stacks three kinds of increments into one flat
vector:

    delta_z = (dx0, df_0 .. df_{Nt-1} [, db_0 .. db_{Nt-1}])

dx0 perturbs the initial state, df_k is a forcing increment held constant
over the steps of assimilation window k, and db_k (prescribed-boundary
models only) perturbs the boundary ring the same way.  Periodic models
carry no boundary segments.

step_inputs() maps those segments onto the model steps: its entry l-1
views the forcing (and boundary) segment of the window that owns the step
onto level l, so the nonlinear run, the tangent-linear sweep and the
adjoint sweep walk the window by one rule.

Segment order is fixed: the initial state, then all forcing windows,
then all boundary windows.  The block covariance
(covariance.ControlCovariance) takes its offsets from the layout.
"""

import numpy as np

from .grid import ring_size

__all__ = ["ControlLayout", "ControlVector"]


class ControlLayout:
    """Fixed segment map from named increments to flat-vector slices."""

    def __init__(self, grid, windows, n_fields, has_boundary):
        self.grid = grid
        self.windows = windows
        self.n_fields = int(n_fields)
        self.has_boundary = bool(has_boundary)
        self.n_state = self.n_fields * grid.n_points
        self.n_ring_seg = self.n_fields * ring_size(grid.nx, grid.ny)
        names = ["x0"]
        sizes = [self.n_state]
        for k in range(windows.n_t):
            names.append(f"f{k}")
            sizes.append(self.n_state)
        if self.has_boundary:
            for k in range(windows.n_t):
                names.append(f"b{k}")
                sizes.append(self.n_ring_seg)
        self.names = tuple(names)
        self.sizes = tuple(sizes)
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self._slices = {name: slice(int(offs[i]), int(offs[i + 1]))
                        for i, name in enumerate(names)}
        self.n_z = int(offs[-1])
        # the span of each kind of segment: x0, every forcing window and
        # every boundary window (empty without boundary segments)
        end_f = self.n_state * (1 + windows.n_t)
        self.spans = {"x0": slice(0, self.n_state),
                      "f": slice(self.n_state, end_f),
                      "b": slice(end_f, self.n_z)}
        # window of the step onto level l, at index l - 1
        self.step_window = tuple(windows.window_of_step(s)
                                 for s in range(1, windows.n_steps + 1))

    def slice_of(self, name):
        return self._slices[name]

    def segment(self, flat, name):
        return flat[self._slices[name]]

    @property
    def n_t(self):
        return self.windows.n_t


class ControlVector:
    """Flat control vector with shaped views on each segment."""

    def __init__(self, layout, data=None):
        if data is None:
            data = np.zeros(layout.n_z)
        data = np.asarray(data, dtype=float)
        if data.shape != (layout.n_z,):
            raise ValueError(f"expected flat vector of length {layout.n_z}, "
                             f"got shape {data.shape}")
        self.layout = layout
        self.data = data

    def _field_view(self, name):
        g = self.layout.grid
        return self.layout.segment(self.data, name).reshape(
            self.layout.n_fields, g.nx, g.ny)

    @property
    def x0(self):
        return self._field_view("x0")

    def f(self, k):
        return self._field_view(f"f{k}")

    def b(self, k):
        if not self.layout.has_boundary:
            raise ValueError("layout has no boundary segments")
        n = self.layout.n_fields
        return self.layout.segment(self.data, f"b{k}").reshape(n, -1)

    def step_inputs(self):
        """(forcing, boundary): per-step views of the window segments, entry
        l-1 driving the step onto level l; boundary is None without
        boundary segments.  The views alias the data, so an in-place add
        to an entry lands in its window's segment."""
        lay = self.layout
        # each kind's windows are one span, so one reshape views them
        f = self.data[lay.spans["f"]].reshape(
            lay.n_t, lay.n_fields, lay.grid.nx, lay.grid.ny)
        forcing = [f[k] for k in lay.step_window]
        if not lay.has_boundary:
            return forcing, None
        b = self.data[lay.spans["b"]].reshape(lay.n_t, lay.n_fields, -1)
        return forcing, [b[k] for k in lay.step_window]
