"""One benchmark run: set up, time operations back to back, check them.

An operation is one in-process `ddvar run`: `experiment.run_experiment` on
the generated config.  The load is a closed loop with one client.  Untraced
operations carry spans only on the stable entry points the end-to-end
metrics read; traced operations carry spans on every public function of
the layer modules.  With tracing on, traced and untraced operations
alternate, so the same run yields the per-layer metrics and the tracing
overhead.
"""

import hashlib
import resource
import shutil
import statistics
import time
from pathlib import Path

from ddvar import experiment
from ddvar.config import parse_config
from ddvar.grid import build_tiles
from ddvar.schwarz import DDConfig, DDSolver

from layers import METRICS, OpSpans, is_missing, reduce_metric
from tracing import Tracer, public_targets
from workloads import Oracle, make_inputs

# The solve entry points: the end-to-end metrics and the oracles read only
# these spans (and the run's own clock around run_experiment).
SOLVE = ("assim.AssimilationProblem.incremental_outer_loop",
         "schwarz.DDSolver.solve")

END_TO_END = [
    # (name, unit, bound): bound is the share of the parent's median by
    # which the metric may worsen
    ("run_s", "s", 0.24),
    ("setup_s", "s", 0.25),
    ("solve_s", "s", 0.24),
    ("peak_rss_mb", "MB", 0.1),
]

MIN_OPS = 2  # the CSV identity check compares two operations
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 50


class OpRecorder:
    """Span hooks: values for the per-layer metrics, and the results the
    oracles check, kept small so earlier operations do not add to the
    memory peak of later ones."""

    def __init__(self):
        self.current = {}

    def hooks(self):
        def iterations(args, rep):
            return float(rep.iterations)

        def built(args, cov):
            return float(cov.matrix.nbytes + cov.factor.nbytes)

        def outer_loop(args, res):
            self.current["delta_z"] = res.delta_z.copy()
            return 0.0

        def dd_solve(args, res):
            op = self.current
            op["delta_z"] = res.delta_z.copy()
            op["dd_converged"] = bool(res.converged)
            op["schwarz.sweeps"] = float(res.n_iterations)
            op["schwarz.converged"] = float(res.converged)
            log = getattr(getattr(res, "world", None), "log", None)
            if log is None:
                op["missing"] = ("comm.messages", "comm.bytes")
            else:
                op["comm.messages"] = float(len(log))
                op["comm.bytes"] = float(sum(entry[-1] for entry in log))
            return 0.0

        def written(args, res):
            # timing.csv holds a clock reading and manifest.json its size,
            # so both vary by a few bytes from run to run
            return float(sum(Path(p).stat().st_size
                             for name, p in res.files.items()
                             if name not in ("timing.csv", "manifest.json")))

        return {
            "krylov.pcg": iterations,
            "krylov.rpcg": iterations,
            "krylov.dual_cg_rhalf": iterations,
            "krylov.minres": iterations,
            "covariance.GaussianCovariance.__init__":
                lambda args, res: built(args, args[0]),
            "covariance.GaussianCovariance.restrict": built,
            "assim.AssimilationProblem.incremental_outer_loop": outer_loop,
            "schwarz.DDSolver.solve": dd_solve,
            "experiment.run_experiment": written,
        }


def _dd_config(cfg):
    return DDConfig(n_bar=cfg.n_bar, tau_dd=cfg.tau_dd, n_inner=cfg.n_inner,
                    inner_tol=cfg.inner_tol, alpha=cfg.alpha, beta=cfg.beta,
                    gamma=cfg.gamma, omega=cfg.omega)


def _setup_once(cfg):
    """What an operation does before its solve: build_problem, plus the
    DDSolver construction on decomposed runs."""
    t0 = time.perf_counter()
    problem = experiment.build_problem(cfg)
    if cfg.formulation == "dd4dvar":
        tiles = build_tiles(problem.model.grid, cfg.ntile_i, cfg.ntile_j,
                            cfg.halo)
        DDSolver(problem, tiles, _dd_config(cfg))
    return time.perf_counter() - t0


def _csv_digests(out_dir):
    """sha256 of every CSV an operation wrote, timing.csv excepted."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))
            if p.name != "timing.csv"}


def _sensitivity(out_dir):
    """(actual, gap) from sensitivity.csv."""
    lines = (Path(out_dir) / "sensitivity.csv").read_text().splitlines()
    actual, _, gap = (float(x) for x in lines[1].split(","))
    return actual, gap


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, seconds, trace, work_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = Path(work_dir)
        self.recorder = OpRecorder()
        self.tracer = Tracer(self.recorder.hooks())
        self.ops = []
        self.setups = []
        self.peak_rss_mb = None
        self.installed = set()
        self.phases = {}

    def execute(self):
        clock = time.perf_counter
        t0 = clock()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        cfg = parse_config(make_inputs(self.workload, self.seed,
                                       self.work_dir))
        t1 = clock()
        while (len(self.setups) < MIN_SETUPS
               or clock() - t1 < SETUP_SECONDS) \
                and len(self.setups) < MAX_SETUPS:
            self.setups.append(_setup_once(cfg))
        t2 = clock()
        try:
            self._operations(cfg)
        finally:
            self.tracer.uninstall()
        self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0)
        t3 = clock()
        self._check(Oracle(self.workload, cfg))
        self.phases = {"inputs_s": t1 - t0, "setups_s": t2 - t1,
                       "operations_s": t3 - t2, "oracle_s": clock() - t3}
        return self

    def _operations(self, cfg):
        t_start = time.perf_counter()
        full = public_targets()
        while True:
            i = len(self.ops)
            traced = self.trace and i % 2 == 1
            self.tracer.uninstall()
            self.tracer.install(full if traced else SOLVE)
            if traced:
                self.installed = set(self.tracer.installed)
            self.tracer.op_id = i
            op = self.recorder.current = {"traced": traced}
            out_dir = self.work_dir / f"op{i}"
            t0 = time.perf_counter()
            try:
                # through the module, so the tracer's wrapper is called
                result = experiment.run_experiment(cfg, out_dir=out_dir)
                op["run_s"] = time.perf_counter() - t0
                op["csv"] = _csv_digests(result.out_dir)
                if cfg.impact:
                    op["sensitivity"] = _sensitivity(result.out_dir)
            except Exception as exc:  # a failed operation is counted
                op["error"] = f"{type(exc).__name__}: {exc}"
            self.tracer.op_id = -1
            shutil.rmtree(out_dir, ignore_errors=True)
            self.ops.append(op)
            if len(self.ops) >= MIN_OPS \
                    and time.perf_counter() - t_start >= self.seconds:
                return

    def _check(self, oracle):
        first = next((o["csv"] for o in self.ops if "csv" in o), None)
        for op in self.ops:
            if "error" in op:
                op["failures"] = [op["error"]]
                continue
            bad = oracle.failures(op)
            if op["csv"] != first:
                bad.append("CSV bytes differ from the first operation")
            op["failures"] = bad

    # -- results ---------------------------------------------------------

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op["failures"])

    def _spans_by_op(self):
        spans = self.tracer.spans()
        return {i: OpSpans(spans, self.tracer.names, i)
                for i in range(len(self.ops))}

    def end_to_end(self):
        """{name: (value, unit)} for the untraced operations."""
        by_op = self._spans_by_op()
        plain = [i for i, op in enumerate(self.ops)
                 if not op["traced"] and "run_s" in op]
        return {
            "run_s": (_median([self.ops[i]["run_s"] for i in plain]), "s"),
            "setup_s": (_median(self.setups), "s"),
            "solve_s": (_median([by_op[i].time_in(SOLVE) for i in plain]),
                        "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self):
        """{name: (value, unit, missing)} over the traced operations.

        Counts come from the first traced operation (they repeat exactly);
        times are medians over the traced operations.
        """
        by_op = self._spans_by_op()
        traced = [i for i, op in enumerate(self.ops)
                  if op["traced"] and "run_s" in op]
        plain = [op["run_s"] for op in self.ops
                 if not op["traced"] and "run_s" in op]
        summary = self.ops[traced[0]] if traced else {}
        out = {}
        for m in METRICS:
            if m.kind == "overhead":
                value = (_median([self.ops[i]["run_s"] for i in traced])
                         - _median(plain))
                out[m.name] = (value, m.unit, False)
                continue
            vals = [reduce_metric(m, by_op[i], self.ops[i]) for i in traced]
            value = _median(vals) if m.unit == "s" else (vals[0] if vals
                                                         else 0.0)
            out[m.name] = (value, m.unit,
                           is_missing(m, self.installed, summary))
        return out
