"""Command-line interface for rare-event experiments.

Subcommands:
  run <config.json>     execute a configured experiment
  replicate <table>     re-run a shipped benchmark table (table1 | table2 | table3)
  oracle <problem>      print reference truths for a benchmark problem
  traces <config.json>  run one replicate and dump the per-iteration trace CSV

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from rareebm.errors import ConfigurationError, NumericError
from rareebm.harness import _SCHEMA, TABLE_ROWS, _round_floats, build_problem, load_config, replicate_table
from rareebm.harness import run_experiment

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["runs"]["base_seed"] = args.seed
    if args.out_dir is not None:
        cfg["output"]["dir"] = args.out_dir
    stats = run_experiment(cfg, jobs=args.jobs)
    print(json.dumps(_round_floats(stats.as_dict()), indent=2, sort_keys=True))
    if stats.n_failed == stats.n_runs:
        raise NumericError("every replicate failed; runs.csv gives each error")
    return 0


def _cmd_replicate(args) -> int:
    out_dir = args.out_dir or f"replicate_{args.table}"
    summary = replicate_table(
        args.table, out_dir, n_runs=args.runs, base_seed=args.seed, jobs=args.jobs
    )
    print(json.dumps(_round_floats(summary), indent=2, sort_keys=True))
    return 0


# (problem keys, threshold, label) of each line that `rareebm oracle <problem>` prints
_ORACLE_LINES = {
    "contamination": [({}, 20.0, "P(R >= 20 | y)")],
    "four_branch": [({}, 0.0, "P(-R >= 0)"), ({}, 2.0, "P(-R >= 2)")],
    "load_capacity": [({"n_components": n}, 0.0, f"n_components={n}: P(load >= capacity | y)") for n in (10, 100)],
}


def _cmd_oracle(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}  # contamination's data seed
    for keys, t, label in _ORACLE_LINES[args.problem]:
        bundle = build_problem(dict(_SCHEMA["problem"], name=args.problem, **keys, **seed))
        print(f"{label} = {bundle.oracle(t):.6e}")
    return 0


def _cmd_traces(args) -> int:
    cfg = load_config(args.config)
    cfg["runs"]["n_runs"] = 1
    if args.seed is not None:
        cfg["runs"]["base_seed"] = args.seed
    cfg["output"]["dir"] = args.out_dir or "traces"
    cfg["output"]["traces"] = True
    if cfg["method"]["kind"] != "ebm":
        raise ConfigurationError("traces are only recorded for the ebm method")
    stats = run_experiment(cfg, jobs=1)
    print(f"trace written to {Path(cfg['output']['dir']) / 'trace_0.csv'}")
    if stats.n_failed:
        raise NumericError("the replicate failed; runs.csv gives its error")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rareebm", description="Rare-event probability estimation experiments")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the base RNG seed; for `oracle contamination`, the data seed"
    )
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="replicate parallelism")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("replicate", help="re-run a shipped benchmark table")
    p_rep.add_argument("table", choices=sorted(TABLE_ROWS))
    p_rep.add_argument("--runs", type=int, default=None, help="override the replicate count")
    p_rep.set_defaults(func=_cmd_replicate)

    p_orc = sub.add_parser("oracle", help="print reference truths for a problem")
    p_orc.add_argument("problem", choices=sorted(_ORACLE_LINES))
    p_orc.set_defaults(func=_cmd_oracle)

    p_tr = sub.add_parser("traces", help="dump one replicate's per-iteration trace")
    p_tr.add_argument("config")
    p_tr.set_defaults(func=_cmd_traces)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericError and its TrainingError and EstimationError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
