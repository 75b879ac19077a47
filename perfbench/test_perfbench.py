"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The count test runs every workload twice with tracing (a few minutes);
`-k "not counts"` keeps to the quick checks.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ddvar import experiment, schwarz  # noqa: E402
from ddvar.config import parse_config  # noqa: E402

from bench import END_TO_END, Run  # noqa: E402
from layers import (METRICS, LayerMetric, OpSpans, is_missing,  # noqa: E402
                    reduce_metric)
from tracing import Tracer, public_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["bound"]) for m in doc["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in METRICS]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_uninstall_restores_every_original():
    before = (experiment.run_experiment, schwarz.pcg,
              schwarz.LocalProblem.owned_prec_apply)
    tracer = Tracer()
    tracer.install(public_targets())
    assert schwarz.pcg is not before[1]
    tracer.uninstall()
    assert (experiment.run_experiment, schwarz.pcg,
            schwarz.LocalProblem.owned_prec_apply) == before


TINY_DD = """\
nx = 12
ny = 10
n_steps = 4
n_t = 2
n_obs = 10
sigma_o = 1.0
length_x = 0.5
length_f = 0.5
length_b = 0.5
formulation = dd4dvar
ntile_i = 2
ntile_j = 2
omega = 0.9
n_bar = 3
seed = 4
"""


def test_removed_api_reports_missing_instead_of_failing(monkeypatch,
                                                         tmp_path):
    # names a later change may delete; the traced run must still work
    monkeypatch.delattr(schwarz, "local_cost")
    monkeypatch.delattr(schwarz, "theta_correction")
    tracer = Tracer()
    tracer.install(public_targets() + ["schwarz.local_cost",
                                       "observations.gone"])
    tracer.op_id = 0
    try:
        experiment.run_experiment(parse_config(TINY_DD), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    installed = set(tracer.names)
    ops = OpSpans(tracer.spans(), tracer.names, 0)
    gone = LayerMetric("schwarz.local_cost.calls", "count", "lower",
                       "calls", ("schwarz.local_cost",))
    assert is_missing(gone, installed, {})
    assert reduce_metric(gone, ops, {}) == 0.0
    sweeps = next(m for m in METRICS
                  if m.name == "schwarz.local_tl_step.calls")
    assert not is_missing(sweeps, installed, {})
    assert reduce_metric(sweeps, ops, {}) > 0


COUNTED = ("count", "B", "ratio")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    """Two traced runs at one seed do the same work, to the count."""
    results = []
    for k in range(2):
        run = Run(WORKLOADS[name], 3, 0.0, True, tmp_path / str(k)).execute()
        assert run.failed == 0, [op["failures"] for op in run.ops]
        results.append({m: v for m, (v, unit, _) in run.per_layer().items()
                        if unit in COUNTED})
    assert results[0] == results[1]
    counts = results[0]
    iterations = sum(v for m, v in counts.items() if m.endswith("iterations"))
    assert iterations > 0
    if name == "dd_c5":
        assert counts["schwarz.sweeps"] > 0 and counts["comm.messages"] > 0
        assert counts["comm.bytes"] > 0
