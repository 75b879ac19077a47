"""Control vector layout for the assimilation problem.

The control variable stacks three kinds of increments into one flat
vector:

    delta_z = (dx0, df_0 .. df_{Nt-1} [, db_0 .. db_{Nt-1}])

dx0 perturbs the initial state, df_k is a forcing increment held constant
over the steps of assimilation window k, and db_k (prescribed-boundary
models only) perturbs the boundary ring the same way.  Periodic models
carry no boundary segments.

ControlLayout is the one owner of this format.  views() hands out the x0
field and maps the window segments onto the model steps: its forcing
(and boundary) entry l-1 views the segment of the window that owns the
step onto level l, so the nonlinear run, the tangent-linear sweep and the
adjoint sweep walk the window by one rule.  indices() gives the flat
indices of chosen nodes (or ring positions) of one segment; spans holds
the range of each kind of segment.

Segment order is fixed: the initial state, then all forcing windows,
then all boundary windows.  The block covariance
(covariance.ControlCovariance) takes its offsets from the layout.
"""

import numpy as np

from .grid import ring_size

__all__ = ["ControlLayout"]


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
        self.step_window = tuple(windows.window_of_level(
            np.arange(1, windows.n_steps + 1)).tolist())

    def slice_of(self, name):
        return self._slices[name]

    @property
    def n_t(self):
        return self.windows.n_t

    def views(self, flat):
        """(x0, forcing, boundary) views of the flat control vector flat:
        x0 shaped (n_fields, nx, ny), and per-step views of the window
        segments, entry l-1 driving the step onto level l; boundary is
        None without boundary segments.  The views alias flat, so an
        in-place add to an entry lands in its window's segment."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_z,):
            raise ValueError(f"expected flat vector of length {self.n_z}, "
                             f"got shape {flat.shape}")
        shape = (self.n_fields, self.grid.nx, self.grid.ny)
        x0 = flat[self.spans["x0"]].reshape(shape)
        # each kind's windows are one span, so one reshape views them
        f = flat[self.spans["f"]].reshape((self.n_t,) + shape)
        forcing = [f[k] for k in self.step_window]
        if not self.has_boundary:
            return x0, forcing, None
        b = flat[self.spans["b"]].reshape(self.n_t, self.n_fields, -1)
        return x0, forcing, [b[k] for k in self.step_window]

    def indices(self, name, points):
        """Flat indices of segment name's entries at points, every field:
        field-major, at flat grid nodes for x0 and f segments and at ring
        positions for b segments."""
        sl = self._slices[name]
        per_field = (sl.stop - sl.start) // self.n_fields
        fields = np.arange(sl.start, sl.stop, per_field)[:, None]
        return (fields + np.asarray(points)).ravel()
