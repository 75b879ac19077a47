"""Per-layer metrics, each reduced from the spans of one operation.

A metric names the spans it reads.  Reductions:

  calls    spans of the set not nested in another span of the set (entries
           into the layer; CovarianceB.apply_inv inside
           ControlCovariance.apply_inv counts once)
  self     summed self time of the set's spans
  time     summed duration of the set's outermost spans
  value    summed span values (iterations, bytes) of the set
  summary  a number the operation's entry-point hooks kept

A target ending in ".*" means every traced span with that prefix.  A
metric whose targets no longer exist in ddvar is reported as missing.
"""

from dataclasses import dataclass

import numpy as np

COV_CLASSES = ("GaussianCovariance", "CovarianceB", "ControlCovariance")
OUTER_LOOP = "assim.AssimilationProblem.incremental_outer_loop"
DD_SOLVE = "schwarz.DDSolver.solve"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str
    targets: tuple = ()
    within: str = None


def _m(name, unit, kind, *targets, better="lower", within=None):
    return LayerMetric(name, unit, better, kind, targets, within)


def _calls_self(prefix, *targets):
    return [_m(f"{prefix}.calls", "count", "calls", *targets),
            _m(f"{prefix}.self_s", "s", "self", *targets)]


def _cov(method):
    return tuple(f"covariance.{c}.{method}" for c in COV_CLASSES)


METRICS = [
    *_calls_self("model.step_tl", "model.SurrogateModel.step_tl"),
    *_calls_self("model.step_ad", "model.SurrogateModel.step_ad"),
    *_calls_self("model.step_nl", "model.SurrogateModel.step_nl"),
    *_calls_self("covariance.apply_inv", *_cov("apply_inv")),
    *_calls_self("covariance.apply", *_cov("apply")),
    _m("covariance.build_s", "s", "time", "covariance.build_b",
       "covariance.build_control_covariance",
       "covariance.GaussianCovariance.__init__",
       "covariance.GaussianCovariance.restrict",
       "covariance.CovarianceB.__init__", "covariance.CovarianceB.restrict",
       "covariance.ControlCovariance.__init__",
       "covariance.CovarianceR.__init__"),
    # dense matrix plus Cholesky factor of every covariance built,
    # computed from the array sizes
    _m("covariance.bytes", "B", "value",
       "covariance.GaussianCovariance.__init__",
       "covariance.GaussianCovariance.restrict"),
    *_calls_self("observations.sample", "observations.ObservationSet.sample"),
    *_calls_self("observations.scatter",
                 "observations.ObservationSet.scatter"),
    _m("observations.read_s", "s", "time",
       "observations.read_observations"),
    _m("krylov.pcg.calls", "count", "calls", "krylov.pcg"),
    _m("krylov.pcg.iterations", "count", "value", "krylov.pcg"),
    _m("krylov.dual_cg_rhalf.calls", "count", "calls", "krylov.dual_cg_rhalf"),
    _m("krylov.dual_cg_rhalf.iterations", "count", "value",
       "krylov.dual_cg_rhalf"),
    _m("krylov.self_s", "s", "self", "krylov.*"),
    _m("assim.tl_sweeps", "count", "calls",
       "assim.TangentObsOperator.forward"),
    _m("assim.ad_sweeps", "count", "calls",
       "assim.TangentObsOperator.adjoint"),
    # TL plus AD sweeps per Krylov iteration inside the outer loop; the
    # floor is 2, one of each
    _m("assim.sweeps_per_iteration", "ratio", "sweep_ratio",
       "assim.TangentObsOperator.forward", "assim.TangentObsOperator.adjoint",
       "krylov.pcg", "krylov.rpcg", "krylov.dual_cg_rhalf",
       "krylov.minres", within=OUTER_LOOP),
    _m("assim.cost.calls", "count", "calls", "assim.cost",
       "assim.AssimilationProblem.cost"),
    _m("assim.outer_loop.self_s", "s", "self", OUTER_LOOP),
    _m("comm.messages", "count", "summary", DD_SOLVE),
    _m("comm.bytes", "B", "summary", DD_SOLVE),
    _m("comm.isend.self_s", "s", "self", "comm.Communicator.isend"),
    _m("comm.recv.self_s", "s", "self", "comm.Communicator.recv",
       "comm.Communicator.irecv", "comm.Communicator.wait"),
    *_calls_self("comm.halo_exchange", "comm.halo_exchange"),
    _m("schwarz.sweeps", "count", "summary", DD_SOLVE),
    _m("schwarz.converged", "count", "summary", DD_SOLVE, better="higher"),
    _m("schwarz.local_pcg.iterations", "count", "value", "krylov.pcg",
       within=DD_SOLVE),
    *_calls_self("schwarz.local_tl_step", "schwarz.local_tl_step"),
    *_calls_self("schwarz.local_ad_step", "schwarz.local_ad_step"),
    *_calls_self("schwarz.owned_prec_apply",
                 "schwarz.LocalProblem.owned_prec_apply"),
    _m("schwarz.solve.self_s", "s", "self", DD_SOLVE),
    _m("schwarz.setup_s", "s", "time", "schwarz.DDSolver.__init__"),
    _m("impact.observation_impact.self_s", "s", "self",
       "impact.observation_impact"),
    _m("impact.observation_sensitivity.self_s", "s", "self",
       "impact.observation_sensitivity"),
    _m("impact.adjoint_sensitivity.self_s", "s", "self",
       "impact.adjoint_sensitivity"),
    # wall time of the impact diagnostics; zero on workloads without them
    _m("impact.total_s", "s", "time", "impact.observation_impact",
       "impact.adjoint_sensitivity", "impact.observation_sensitivity"),
    _m("impact.gain_solves", "count", "calls", "assim.kalman_gain_apply",
       "assim.kalman_gain_adjoint_apply"),
    *_calls_self("grid.restrict", "grid.restrict"),
    # self time of run_experiment: CSVs, manifest and hashing
    _m("experiment.write_s", "s", "self", "experiment.run_experiment"),
    # bytes of the result files, timing.csv and manifest.json excepted
    _m("experiment.bytes_written", "B", "value", "experiment.run_experiment"),
    _m("trace.spans", "count", "spans"),
    # median traced run_s minus median untraced run_s of the same run
    _m("trace.overhead_s", "s", "overhead"),
]


class OpSpans:
    """The spans of one operation, indexed for the reductions above."""

    def __init__(self, spans, names, op):
        keep = spans["op"] == op
        idx = np.nonzero(keep)[0]
        remap = np.full(spans["op"].size + 1, -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size)
        parent = spans["parent"][idx]
        self.parent = np.where(parent >= 0, remap[parent], -1)
        self.name = spans["name"][idx]
        self.dur = spans["end"][idx] - spans["start"][idx]
        self.self_t = spans["self"][idx]
        self.value = spans["value"][idx]
        self.names = names
        self.n = idx.size

    def select(self, targets):
        """Boolean mask of spans whose name is one of targets."""
        ids = [i for i, n in enumerate(self.names)
               if any(n == t or (t.endswith(".*") and n.startswith(t[:-1]))
                      for t in targets)]
        return np.isin(self.name, ids)

    def time_in(self, targets):
        """Wall time inside the outermost spans named in targets."""
        sel = self.select(targets)
        return float(self.dur[sel & ~self.inside(sel)].sum())

    def inside(self, mask):
        """Spans with an ancestor in mask."""
        out = np.zeros(self.n, dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return out
            out[live] |= mask[anc[live]]
            anc[live] = self.parent[anc[live]]


def reduce_metric(metric, ops, summary):
    """Value of one metric for one operation."""
    if metric.kind == "spans":
        return float(ops.n)
    sel = ops.select(metric.targets)
    if metric.within is not None:
        sel &= ops.inside(ops.select((metric.within,)))
    if metric.kind == "calls":
        return float(np.count_nonzero(sel & ~ops.inside(sel)))
    if metric.kind == "self":
        return float(ops.self_t[sel].sum())
    if metric.kind == "time":
        return ops.time_in(metric.targets)
    if metric.kind == "value":
        return float(ops.value[sel].sum())
    if metric.kind == "sweep_ratio":
        sweeps = ops.select(metric.targets[:2]) & sel
        its = float(ops.value[sel & ~sweeps].sum())
        return float(np.count_nonzero(sweeps)) / its if its else 0.0
    if metric.kind == "summary":
        return float(summary.get(metric.name, 0.0))
    raise ValueError(f"unknown reduction {metric.kind!r}")


def is_missing(metric, installed, summary):
    """True when the API a metric reads is gone from ddvar."""
    if metric.name in summary.get("missing", ()):
        return True
    return bool(metric.targets) and not any(
        t in installed or (t.endswith(".*") and any(
            n.startswith(t[:-1]) for n in installed))
        for t in metric.targets)
