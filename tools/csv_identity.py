"""Digest every CSV of a fixed set of runs, to check that a change keeps
the program's outputs byte for byte.

    python tools/csv_identity.py > digests.txt

The runs are the shipped configs case1-case4 under is4dvar and rbl4dvar,
dd.cfg under is4dvar, rbl4dvar and dd4dvar, the burgers-model variants
of case4 and dd.cfg under the same formulations, and both benchmark
workloads (perfbench/workloads.py) at seeds 1 and 2.  The script prints one
"sha256  run/file" line per CSV they write; timing.csv, which holds wall
times, is left out.  Run the script in two trees and diff what they print.
The script imports the program from the tree it sits in, and works in a
temporary directory that it removes.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ddvar.config import parse_config  # noqa: E402
from ddvar.experiment import run_experiment  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

CONFIGS = ROOT / "src" / "ddvar" / "configs"
KRYLOV = ("is4dvar", "rbl4dvar")
# the formulations each shipped config runs under
SHIPPED = {"case1": KRYLOV, "case2": KRYLOV, "case3": KRYLOV,
           "case4": KRYLOV, "dd": KRYLOV + ("dd4dvar",)}
# shipped configs that also run with the burgers model, which
# relinearizes in every outer loop
BURGERS = ("case4", "dd")


def shipped(case, form, model=None):
    """The shipped config case under formulation form, as `ddvar run
    --formulation` overrides the config's; model, if given, replaces its
    model."""
    cfg = parse_config((CONFIGS / f"{case}.cfg").read_text())
    cfg.formulation = form
    if model is not None:
        cfg.model = model
    return cfg


def runs(work):
    """(name, config) of every run; workload inputs go under work."""
    for case, forms in SHIPPED.items():
        for form in forms:
            yield f"{case}-{form}", shipped(case, form)
    for case in BURGERS:
        for form in SHIPPED[case]:
            yield f"{case}-burgers-{form}", shipped(case, form, "burgers")
    for name, workload in WORKLOADS.items():
        for seed in (1, 2):
            # one input directory per seed: make_inputs writes obs.txt
            # into it, and the config names that file
            inputs = work / "inputs" / f"{name}-{seed}"
            inputs.mkdir(parents=True)
            yield f"{name}-{seed}", parse_config(
                make_inputs(workload, seed, inputs))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = []
        for name, cfg in runs(work):
            cfg.validate()
            out = work / "runs" / name
            run_experiment(cfg, out_dir=out)
            for path in sorted(out.glob("*.csv")):
                if path.name != "timing.csv":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {name}/{path.name}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
