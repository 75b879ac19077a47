"""What the benchmark harness in perfbench/ reads from ddvar.

The harness resolves its layer metrics by name and builds its solvers from
config keys, so a rename or deletion in ddvar does not fail a benchmark
run: the metric reads as missing, or the set-up raises.  These tests fail
instead.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from ddvar import experiment  # noqa: E402
from ddvar.config import parse_config  # noqa: E402

from bench import SOLVE, OpRecorder, _setup_once  # noqa: E402
from layers import METRICS, OpSpans, is_missing, reduce_metric  # noqa: E402
from tracing import Tracer, _resolve, public_targets  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def test_every_layer_metric_reads_an_existing_name():
    installed = set(public_targets())
    assert [m.name for m in METRICS if is_missing(m, installed, {})] == []


@pytest.mark.parametrize("target", SOLVE)
def test_every_solve_entry_point_resolves(target):
    """solve_s is the time spent in these spans: a target that no longer
    resolves would read 0 instead of failing."""
    assert _resolve(target) is not None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_sets_up(name, tmp_path):
    cfg = parse_config(make_inputs(WORKLOADS[name], 1, tmp_path))
    assert _setup_once(cfg) > 0.0


def test_global_primal_solver_is_counted(tmp_path):
    """The traced solve of global_primal reads its Krylov iterations and
    one TL plus one AD sweep per iteration: a solver the layer table does
    not name would read 0 for both."""
    cfg = parse_config(make_inputs(WORKLOADS["global_primal"], 1, tmp_path))
    tracer = Tracer(OpRecorder().hooks())
    tracer.install(public_targets())
    tracer.op_id = 0
    try:
        experiment.run_experiment(cfg, out_dir=tmp_path / "op0")
    finally:
        tracer.uninstall()
    ops = OpSpans(tracer.spans(), tracer.names, 0)
    value = {m.name: reduce_metric(m, ops, {}) for m in METRICS
             if m.name in ("krylov.pcg.iterations",
                           "assim.sweeps_per_iteration")}
    assert value["krylov.pcg.iterations"] > 0
    assert 2.0 <= value["assim.sweeps_per_iteration"] <= 2.1
