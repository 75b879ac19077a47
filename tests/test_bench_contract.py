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

from ddvar.config import parse_config  # noqa: E402

from bench import _setup_once  # noqa: E402
from layers import METRICS, is_missing  # noqa: E402
from tracing import public_targets  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def test_every_layer_metric_reads_an_existing_name():
    installed = set(public_targets())
    assert [m.name for m in METRICS if is_missing(m, installed, {})] == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_sets_up(name, tmp_path):
    cfg = parse_config(make_inputs(WORKLOADS[name], 1, tmp_path))
    assert _setup_once(cfg) > 0.0
