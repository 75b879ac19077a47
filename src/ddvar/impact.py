"""Observation-impact and sensitivity diagnostics.

Everything here works on a scalar functional of the analysed trajectory,

    I(x) = (1/N) sum_{i=1..N} h . x_i,

a time average of a linear weighting h of the state over the first N levels
after the initial time.  The adjoint of the tangent chain turns h into a
control-space sensitivity, the adjoint of the Kalman gain turns that into an
observation-space vector g, and the pairing of g with the innovations splits
the analysis-induced change of I into one contribution per observation.

Each application of the gain K or its adjoint is an iterative solve, so
the report runs as few as carry new information: one adjoint solve K' s,
and one forward solve per platform.  K is linear, so the analysis is the
sum of the platform increments.  A run whose converged solve made one
outer loop about the background has already computed K d: with one
platform the report takes that increment and runs no forward solve.  The
sensitivity check doubles the innovations, which by the same linearity
moves the analysis by the analysis itself, so it reads both of its sides
from the report and solves nothing.
"""

from dataclasses import dataclass, field

import numpy as np

from .assim import kalman_gain_adjoint_apply, kalman_gain_apply

# relative residual tolerance of the report's gain solves
GAIN_TOL = 1e-12


class TransportFunctional:
    """Averaged linear functional of a trajectory.

    weights holds one scalar per state entry (n_fields, nx, ny); n_avg is
    the number of post-initial time levels averaged over.
    """

    def __init__(self, weights, n_avg):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 3:
            raise ValueError("weights must have shape (n_fields, nx, ny), "
                             f"got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("functional weights must be finite")
        if not np.any(weights != 0.0):
            raise ValueError("functional weights need at least one nonzero "
                             "entry")
        n_avg = int(n_avg)
        if n_avg < 1:
            raise ValueError("n_avg must be >= 1")
        self.weights = weights
        self.n_avg = n_avg


def column_section(grid, col, n_avg, field=0, n_fields=1):
    """Unit weights along one grid column (fixed x index, all y)."""
    col = int(col)
    if not 0 <= col < grid.nx:
        raise ValueError(f"column index {col} outside grid with nx={grid.nx}")
    w = np.zeros((n_fields, grid.nx, grid.ny))
    w[field, col, :] = 1.0
    return TransportFunctional(w, n_avg)


def _states_of(traj):
    return np.asarray(getattr(traj, "states", traj), dtype=float)


def evaluate_functional(traj, functional):
    """I(x) averaged over levels 1..n_avg of the trajectory."""
    states = _states_of(traj)
    h, n_avg = functional.weights, functional.n_avg
    if states.ndim != 4 or states.shape[1:] != h.shape:
        raise ValueError(f"trajectory states of shape {states.shape} do not "
                         f"match functional weights {h.shape}")
    if states.shape[0] < n_avg + 1:
        raise ValueError(f"trajectory has {states.shape[0]} levels but the "
                         f"average needs {n_avg + 1}")
    total = 0.0
    for lev in range(1, n_avg + 1):
        total += float(np.vdot(h, states[lev]))
    return total / n_avg


def adjoint_sensitivity(tangent, functional):
    """Control-space gradient of the functional along the tangent chain of
    a TangentObsOperator.

    The functional's gradient with respect to the levels is h / n_avg on
    levels 1..n_avg, so the sensitivity is the tangent's one reverse sweep
    (adjoint_levels) seeded with it; it equals the sum of per-level adjoint
    sweeps.
    """
    n_avg = functional.n_avg
    n_steps = len(tangent.steps)
    if n_avg > n_steps:
        raise ValueError(f"functional n_avg {n_avg} exceeds the window's "
                         f"{n_steps} steps")
    seeds = np.zeros((n_steps + 1,) + functional.weights.shape)
    seeds[1:n_avg + 1] = functional.weights / n_avg
    return tangent.adjoint_levels(seeds)


@dataclass
class PlatformImpact:
    """One platform's share of the analysis impact on the functional."""
    platform: str
    count: int
    nl: float
    tl: float
    ic: float
    fc: float
    bc: float


@dataclass
class ImpactReport:
    """Per-observation and per-segment split of the functional change.

    per_obs[l] = d_l * g_l with g = K' s; total_tl is their sum.  z_a is
    the analysis increment K d and density the control-space impact
    density z_a * s; g_x / g_f / g_b are its segment-masked copies, so
    they reassemble density exactly.  ic / fc / bc are the segment sums.  sensitivity is
    the control-space sensitivity s of the functional.  adjoint_solves and
    forward_solves count the gain solves the report ran.
    """
    n_obs: int
    per_obs: np.ndarray
    total_tl: float
    total_nl: float
    i_a: float
    i_b: float
    density: np.ndarray
    g_x: np.ndarray
    g_f: np.ndarray
    g_b: np.ndarray
    ic: float
    fc: float
    bc: float
    sensitivity: np.ndarray
    z_a: np.ndarray
    adjoint_solves: int
    forward_solves: int
    platform_rows: list = field(default_factory=list)

    def rows(self):
        """Table rows (platform, count, NL, TL, IC, FC, BC), 'all' last."""
        out = [(r.platform, r.count, r.nl, r.tl, r.ic, r.fc, r.bc)
               for r in self.platform_rows]
        out.append(("all", self.n_obs, self.total_nl, self.total_tl,
                    self.ic, self.fc, self.bc))
        return out


def _segment_split(layout, density):
    """(g_x, g_f, g_b): density kept on the x0, forcing and boundary spans
    of the layout, zero elsewhere."""
    parts = []
    for kind in ("x0", "f", "b"):
        g = np.zeros_like(density)
        g[layout.spans[kind]] = density[layout.spans[kind]]
        parts.append(g)
    return tuple(parts)


def observation_impact(problem, functional, analysis=None):
    """Split the analysis change of the functional across observations.

    The observation-space sensitivity is g = K^T s with s the adjoint of
    the averaged functional, so d_l g_l is observation l's contribution and
    the headline TL impact is their sum.  Each platform row applies the
    gain to that platform's innovations alone, z_p = K d_p, and runs the
    model from z_p for its NL change.  The analysis is z_a = sum_p z_p
    (K is linear); the nonlinear reference runs the model from it, unless
    there is one platform, whose run is that reference already.  So the
    report runs one adjoint and one forward gain solve per platform.

    `analysis` is an increment K d the caller already holds: the converged
    solution of one outer loop about the background.  With one platform
    it is z_p, and the report runs no forward gain solve.
    """
    d = problem.background_innovations()
    g_op = problem.background_operator()
    layout = problem.layout
    s = adjoint_sensitivity(problem.background_tangent, functional)
    g = kalman_gain_adjoint_apply(g_op, problem.b_cov, problem.r_cov, s,
                                  tol=GAIN_TOL)
    per_obs = d * g
    total_tl = float(np.sum(per_obs))
    i_b = evaluate_functional(problem.background_traj, functional)

    names = []
    for name in problem.obs.platforms:
        if name not in names:
            names.append(name)
    rows = []
    z_a = None
    forward_solves = 0
    for name in names:
        mask = np.array([p == name for p in problem.obs.platforms])
        if analysis is not None and len(names) == 1:
            z_p = analysis
        else:
            z_p = kalman_gain_apply(g_op, problem.b_cov, problem.r_cov,
                                    np.where(mask, d, 0.0), tol=GAIN_TOL)
            forward_solves += 1
        z_a = z_p if z_a is None else z_a + z_p
        i_p = evaluate_functional(problem.run_with_increment(z_p), functional)
        px, pf, pb = _segment_split(layout, z_p * s)
        rows.append(PlatformImpact(platform=name, count=int(np.sum(mask)),
                                   nl=i_p - i_b,
                                   tl=float(np.sum(per_obs[mask])),
                                   ic=float(np.sum(px)),
                                   fc=float(np.sum(pf)),
                                   bc=float(np.sum(pb))))
    if len(names) == 1:
        i_a = i_p  # the one platform's increment is the analysis
    else:
        i_a = evaluate_functional(problem.run_with_increment(z_a), functional)

    density = z_a * s
    g_x, g_f, g_b = _segment_split(layout, density)
    return ImpactReport(n_obs=problem.obs.n_obs, per_obs=per_obs,
                        total_tl=total_tl, total_nl=i_a - i_b, i_a=i_a,
                        i_b=i_b, density=density, g_x=g_x, g_f=g_f, g_b=g_b,
                        ic=float(np.sum(g_x)), fc=float(np.sum(g_f)),
                        bc=float(np.sum(g_b)), sensitivity=s, z_a=z_a,
                        adjoint_solves=1, forward_solves=forward_solves,
                        platform_rows=rows)


@dataclass
class SensitivityCheck:
    """Forward-solved versus adjoint-predicted response of the functional
    to doubling the observations."""
    actual: float
    linearized: float


def observation_sensitivity(report):
    """Check an ImpactReport's adjoint solve against its forward solves.

    Shifting the observations by the innovations d moves the analysis by
    K (2d) - K d = K d = z_a, since K is linear.  The recomputed response
    of the functional pairing is s . z_a, from the forward solves; the
    linearized prediction is g . d with g = K' s, from the adjoint solve,
    which the report holds as total_tl.  The check runs no gain solve.
    """
    return SensitivityCheck(
        actual=float(np.vdot(report.sensitivity, report.z_a)),
        linearized=report.total_tl)
