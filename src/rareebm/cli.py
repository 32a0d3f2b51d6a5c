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

from rareebm.errors import ConfigurationError, EstimationError, NumericError, TrainingError
from rareebm.harness import TABLE_ROWS, _round_floats, load_config, replicate_table, run_experiment

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["runs"]["base_seed"] = args.seed
    if args.out_dir is not None:
        cfg["output"]["dir"] = args.out_dir
    stats = run_experiment(cfg, jobs=args.jobs)
    print(json.dumps(_round_floats(stats.as_dict()), indent=2, sort_keys=True))
    return 0 if stats.n_failed < stats.n_runs else 3


def _cmd_replicate(args) -> int:
    out_dir = args.out_dir or f"replicate_{args.table}"
    summary = replicate_table(
        args.table, out_dir, n_runs=args.runs, base_seed=args.seed, jobs=args.jobs
    )
    print(json.dumps(_round_floats(summary), indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    if args.problem == "contamination":
        from rareebm.problems import ContaminationSpec, contamination_problem

        cp = contamination_problem(ContaminationSpec() if args.seed is None else ContaminationSpec(rng_seed=args.seed))
        for t in (20.0,):
            print(f"P(R >= {t:g} | y) = {cp.oracle_tail(t):.6e}")
    elif args.problem == "four_branch":
        from rareebm.problems import four_branch_tail

        for t in (0.0, 2.0):
            print(f"P(-R >= {t:g}) = {four_branch_tail(t):.6e}")
    elif args.problem == "load_capacity":
        from rareebm.problems import LoadCapacitySpec, load_capacity_problem

        for n_c in (10, 100):
            lp = load_capacity_problem(LoadCapacitySpec(n_components=n_c))
            print(f"n_components={n_c}: P(load >= capacity | y) = {lp.oracle_failure_probability():.6e}")
    else:
        raise ConfigurationError(f"unknown problem '{args.problem}'")
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
    return 0 if stats.n_failed == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rareebm", description="Rare-event probability estimation experiments")
    parser.add_argument("--seed", type=int, default=None, help="override the base RNG seed")
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
    p_orc.add_argument("problem", choices=["contamination", "four_branch", "load_capacity"])
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
    except (NumericError, TrainingError, EstimationError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
