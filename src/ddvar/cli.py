"""Command line driver.

`ddvar run --config FILE [--formulation F] [--seed S] [--out DIR]` runs one
experiment; `ddvar verify --suite NAME` runs an acceptance suite.  Exit
codes: 0 success; 1 usage error: bad arguments, a config that cannot be
read or is malformed, or an obs_file that is missing or unreadable, holds
a malformed record or fails the observation checks (non-finite, outside
the domain); 2 numerical failure; 3 a dd4dvar run that stopped
unconverged, at n_bar outer iterations or earlier at rounding level when
tau_dd lies below it (its outputs are written; Krylov runs stop at
n_inner by design and exit 0).
"""

import argparse
import sys
from pathlib import Path

from .acceptance import SUITES, run_suite
from .config import FORMULATIONS, parse_config
from .experiment import run_experiment
from .observations import ObservationFileError


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="ddvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    runp = sub.add_parser("run", help="run one configured experiment")
    runp.add_argument("--config", required=True, help="path to a .cfg file")
    runp.add_argument("--formulation", default=None, choices=FORMULATIONS,
                      help="is4dvar (primal B-preconditioned CG), "
                           "rbl4dvar (restricted B-preconditioned CG) or "
                           "dd4dvar (space-time decomposed); overrides the "
                           "config")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None, help="output directory")

    ver = sub.add_parser("verify", help="run an acceptance suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("ddvar: error: a command is required (run or verify)",
              file=sys.stderr)
        return 1

    if args.command == "run":
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"ddvar: cannot read config: {exc}", file=sys.stderr)
            return 1
        try:
            cfg = parse_config(text)
            if args.formulation is not None:
                cfg.formulation = args.formulation
            if args.seed is not None:
                cfg.seed = args.seed
            cfg.validate()
        except ValueError as exc:
            print(f"ddvar: config error: {exc}", file=sys.stderr)
            return 1
        try:
            res = run_experiment(cfg, out_dir=args.out)
        except ObservationFileError as exc:
            print(f"ddvar: observation file error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"ddvar: run failed: {exc}", file=sys.stderr)
            return 2
        print(f"final J = {float(res.final_cost)!r}")
        for name in sorted(res.files):
            print(f"wrote {res.files[name]}")
        if cfg.formulation == "dd4dvar" and not res.converged:
            print(f"ddvar: warning: the domain-decomposed solve did not "
                  f"converge (stopped after {res.history[-1][1]} of at most "
                  f"n_bar = {cfg.n_bar} iterations)", file=sys.stderr)
            return 3
        return 0

    # verify
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
