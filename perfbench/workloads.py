"""The benchmark's workloads: seeded inputs and correctness oracles.

Each workload is one `ddvar run` configuration.  `make_inputs` turns a
seed into the config text and the observation file it names, which is all
the program receives.  The oracles run after the timed operations, on the
same inputs, and report which checks an operation's result fails.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ddvar.config import parse_config
from ddvar.experiment import build_problem
from ddvar.model import Trajectory
from ddvar.observations import ObservationSet, write_observations


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: str


# Why each workload exists, as BENCHMARK.json records it.
GLOBAL_PRIMAL = Workload(
    "global_primal",
    "global is4dvar analysis on the C5 40x32 grid; bound by dense B^-1 "
    "solves, touches no schwarz, comm or impact code",
    """\
nx = 40
ny = 32
n_steps = 6
n_t = 2
model = linear
boundary = prescribed
sigma_x = 0.5
length_x = 2.0
n_obs = 40
sigma_o = 0.02
formulation = is4dvar
n_outer = 1
n_inner = 50
solver_tol = 1e-10
impact = false
""")

DD_C5 = Workload(
    "dd_c5",
    "the C5 oracle decomposition at N_t=2 (2x4 tiles, 16 ranks) plus the "
    "impact reports; the only workload for schwarz, comm, grid and impact",
    """\
nx = 40
ny = 32
n_steps = 6
n_t = 2
model = linear
boundary = prescribed
length_x = 0.5
length_f = 0.5
length_b = 0.5
n_obs = 40
sigma_o = 1.0
formulation = dd4dvar
ntile_i = 2
ntile_j = 4
halo = 2
omega = 0.9
n_bar = 50
tau_dd = 1e-10
n_inner = 30
inner_tol = 0.0001
impact = true
""")

WORKLOADS = {w.name: w for w in (GLOBAL_PRIMAL, DD_C5)}

# Every workload keeps one twin: background, truth and observing network
# come from the C5 oracle's seed.  The benchmark seed draws the observation
# errors, so each seed is a new set of innovations on a fixed observing
# system.  The network decides how much work a solve takes (on C5 it also
# decides whether the DD fixed point is the global analysis), so holding it
# keeps run-to-run spread down to the timing noise.
TWIN_SEED = 11


def make_inputs(workload, seed, work_dir):
    """Config text, and the observation file it names, for one seed."""
    text = workload.settings + f"seed = {TWIN_SEED}\n"
    problem = build_problem(parse_config(text))
    truth = Trajectory(states=problem.run_with_increment(problem.z_truth))
    net = problem.obs
    noise = np.random.default_rng(seed).standard_normal(net.n_obs)
    obs = ObservationSet(net.grid, net.levels, net.x, net.y, net.platforms,
                         net.sample(truth) + np.sqrt(net.variances) * noise,
                         net.variances)
    obs_path = Path(work_dir) / "obs.txt"
    write_observations(obs_path, obs)
    return text + f"obs_file = {obs_path}\n"


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Oracle:
    """Reference analysis for one workload's inputs, computed once."""

    def __init__(self, workload, cfg):
        self.workload = workload
        self.z_a = build_problem(cfg).primal_analysis(tol=1e-12).x

    def failures(self, op):
        """Names of the checks that the operation summary `op` fails."""
        bad = []
        if self.workload is GLOBAL_PRIMAL:
            if _rel(op["delta_z"], self.z_a) > 1e-8:
                bad.append("increment vs tight primal analysis")
        else:
            if not op["dd_converged"]:
                bad.append("DD did not converge")
            if _rel(op["delta_z"], self.z_a) > 1e-6:
                bad.append("DD increment vs global analysis")
            actual, gap = op["sensitivity"]
            if not gap <= 1e-6 * abs(actual):
                bad.append("sensitivity.csv gap above 1e-6 |actual|")
        return bad
