"""Experiment orchestration: replicated runs, statistics and persistence.

An experiment is described by a JSON configuration with sections
{problem, query, method, runs, output}. Each replicate gets its own RNG
stream (base seed + run index); per-run results land in `runs.csv` and the
aggregate statistics in `summary.json`. `replicate_table` re-runs the
shipped benchmark configurations side by side with published reference
values embedded for comparison.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from rareebm.bias import GridBias, RbfBias
from rareebm.densities import Gaussian, Gev, GridFunction
from rareebm.errors import ConfigurationError, NumericError
from rareebm.estimator import free_energy_from_bias, tail_probability, truncated_tail
from rareebm.ksd import KsdTestConfig
from rareebm.mcmc import ChainConfig, Pcn, check_tuning, tune_pcn_beta, tune_step_sizes
from rareebm.problems import (
    ContaminationSpec,
    LoadCapacitySpec,
    RareEventQuery,
    TargetProblem,
    contamination_problem,
    four_branch_problem,
    four_branch_tail,
    load_capacity_problem,
)
from rareebm.subset import AdaptiveSchedule, FixedLogSchedule, SubsetConfig, subset_estimate
from rareebm.train import (
    ConstantLr,
    ExpDecayLr,
    KsdStopping,
    TrainConfig,
    train_bias_potential,
)

# ---------------------------------------------------------------------------
# Configuration schema. A tuple lists the allowed values of an enumerated
# key, its default first.

_SCHEMA: dict[str, dict[str, Any]] = {
    "problem": {
        "name": ("contamination", "four_branch", "load_capacity"),
        "seed": ContaminationSpec.rng_seed,  # data-realization seed (contamination)
        "n_components": LoadCapacitySpec.n_components,  # capacity components (load_capacity)
    },
    "query": {
        "thresholds": [20.0],
    },
    "method": {
        "kind": ("ebm", "subset"),
        # --- ebm ---
        "form": ("grid", "rbf"),
        "grid": {"lo": -80.0, "hi": 120.0, "h": 0.1},
        "rbf": {"n_centers": 500, "kappa": 1.0, "lo": -80.0, "hi": 120.0},
        "p_ref": {"kind": ("gaussian", "gev"), "mean": 20.0, "sd": 7.0, "loc": 0.0, "scale": 1.0, "shape": 0.0},
        "learning_rate": {"kind": ("constant", "exp_decay"), "gamma": 15.0, "factor": 0.0},
        "momentum": 0.5,
        "max_steps": 500,
        "estimate_window": 10,  # average over the last N iterations
        "estimate_average": ("probability", "potential"),  # what the window averages
        "grad_clip": 0.0,  # componentwise gradient cap; 0 disables
        "kde_bandwidth": 0.0,  # fixed KDE bandwidth; 0 selects data-driven
        "chain": {"burn_in": 100, "thin": 10, "n_keep": 125},
        "proposal": {"kind": ("random_walk", "pcn"), "beta": 0.0, "pilot_steps": 2000, "target_accept": 0.30},
        "stopping": {"enabled": True, "alpha": 0.95, "a_bs": 0.4, "n_boot": 1000, "min_steps": 5},
        # --- subset ---
        "subset": {
            "n_samples": 100,
            "mh_steps_per_seed": 5,
            "schedule": {"kind": ("adaptive", "fixed_log"), "p0": 0.1, "start": 5.0, "n_levels": 10},
            "posterior_burn_in": 100,
            "posterior_thin": 500,
        },
    },
    "runs": {
        "n_runs": 50,
        "base_seed": 0,
        "reference": None,  # external truth for RMSE (per threshold, scalar or list)
    },
    "output": {
        "dir": None,
        "traces": False,
    },
}


def _is_number(v) -> bool:  # finite: json loads NaN, Infinity and integers beyond the float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


# (check, what the error says) of a key's value: by key for the keys that
# take more than their default's type, else by the default's type.
_UNION_KEYS = {
    "method.proposal.beta": (lambda v: _is_number(v) or _is_numbers(v), "a finite number or a list of them"),
    "runs.reference": (
        lambda v: v is None or _is_number(v) or _is_numbers(v), "null, a finite number or a list of them"
    ),
    "output.dir": (lambda v: v is None or isinstance(v, str), "null or a string"),
}
_DEFAULT_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a finite number"),
    list: (_is_numbers, "a list of finite numbers"),
}


def _merge(schema: dict, user: dict, path: str) -> dict:
    out = {}
    for key, default in schema.items():
        if key in user and isinstance(default, dict) and not isinstance(user[key], dict):
            raise ConfigurationError(f"config section '{path}{key}' must be an object")
        if isinstance(default, dict):
            out[key] = _merge(default, user.get(key, {}), f"{path}{key}.")
        elif isinstance(default, tuple):
            out[key] = user.get(key, default[0])
            if out[key] not in default:
                raise ConfigurationError(f"{path}{key} must be one of {list(default)}, got {out[key]!r}")
        else:
            out[key] = user.get(key, default)
            check, expected = _UNION_KEYS.get(path + key) or _DEFAULT_TYPES[type(default)]
            if not check(out[key]):
                raise ConfigurationError(f"{path}{key} must be {expected}, got {out[key]!r}")
    unknown = set(user) - set(schema)
    if unknown:
        raise ConfigurationError(f"unknown config key(s) {sorted(unknown)} under '{path or 'top level'}'")
    return out


def load_config(source) -> dict:
    """Validate a config mapping or JSON file against the schema with defaults.

    Everything a replicate builds before it draws a random number is built
    here as well, so out-of-range settings fail at load.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {source}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigurationError(f"config {source} is not UTF-8 JSON: {exc}") from exc
    else:
        user = dict(source)
    if not isinstance(user, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {type(user).__name__}")
    cfg = _merge(_SCHEMA, user, "")
    runs, thresholds = cfg["runs"], cfg["query"]["thresholds"]
    if runs["n_runs"] < 1:
        raise ConfigurationError("runs.n_runs must be >= 1")
    if runs["base_seed"] < 0:
        raise ConfigurationError("runs.base_seed must be >= 0")
    if not thresholds:
        raise ConfigurationError("query.thresholds must be non-empty")
    if runs["reference"] is not None and len(_as_list(runs["reference"])) != len(thresholds):
        raise ConfigurationError("runs.reference must match the number of thresholds")
    mcfg = cfg["method"]
    g = mcfg["grid"]
    for t in thresholds:
        if mcfg["kind"] == "ebm" and not (g["lo"] <= t <= g["hi"]):
            raise ConfigurationError(f"grid does not cover query threshold {t}")
    try:
        _proposal_choice(mcfg["proposal"], build_problem(cfg["problem"]), mcfg["kind"] == "subset")
        # Every method and bias form, and every problem through its spec, so keys the run does not
        # read hold valid values too. Building a problem the run does not use would import scipy.
        ContaminationSpec(rng_seed=cfg["problem"]["seed"])
        LoadCapacitySpec(n_components=cfg["problem"]["n_components"])
        _subset_config(mcfg)
        for form in _SCHEMA["method"]["form"]:
            _ebm_setup(dict(mcfg, form=form))
    except (TypeError, ValueError) as exc:  # dataclass validators raise ValueError
        raise ConfigurationError(f"invalid settings: {exc}") from exc
    return cfg


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


# ---------------------------------------------------------------------------
# Problem registry

@dataclass
class ProblemBundle:
    problem: TargetProblem
    oracle: Callable[[float], Optional[float]]  # threshold -> truth, None where it does not apply
    rw_groups: Optional[list] = None
    rw_init_steps: Optional[np.ndarray] = None


def build_problem(pcfg: dict) -> ProblemBundle:
    name = pcfg["name"]
    if name == "contamination":
        spec = ContaminationSpec(rng_seed=pcfg["seed"])
        cp = contamination_problem(spec)
        measured = np.asarray(spec.measured_cells, dtype=int)
        unmeasured = np.setdiff1d(np.arange(spec.n_cells), measured)
        return ProblemBundle(
            problem=cp.problem,
            oracle=cp.oracle_tail,
            rw_groups=[measured, unmeasured],
            rw_init_steps=np.full(spec.n_cells, spec.prior_sd),
        )
    if name == "four_branch":
        return ProblemBundle(problem=four_branch_problem(), oracle=four_branch_tail, rw_init_steps=np.ones(2))
    if name == "load_capacity":
        lp = load_capacity_problem(LoadCapacitySpec(n_components=pcfg["n_components"]))
        # Failure is defined at threshold 0; there is no truth for other values.
        return ProblemBundle(
            problem=lp.problem,
            oracle=lambda t: lp.oracle_failure_probability() if t == 0.0 else None,
        )
    raise ConfigurationError(f"unknown problem '{name}'")


def _build_p_ref(d: dict):
    if d["kind"] == "gaussian":
        return Gaussian(mean=d["mean"], sd=d["sd"])
    return Gev(location=d["loc"], scale=d["scale"], shape=d["shape"])


def _build_schedule(d: dict):
    if d["kind"] == "constant":
        return ConstantLr(d["gamma"])
    return ExpDecayLr(d["gamma"], d["factor"])


def _subset_config(mcfg: dict) -> SubsetConfig:
    scfg = mcfg["subset"]
    sched_cfg = scfg["schedule"]
    if sched_cfg["kind"] == "adaptive":
        schedule = AdaptiveSchedule(sched_cfg["p0"])
    else:
        schedule = FixedLogSchedule(start=sched_cfg["start"], n_levels=sched_cfg["n_levels"])
    return SubsetConfig(
        n_samples=scfg["n_samples"],
        mh_steps_per_seed=scfg["mh_steps_per_seed"],
        schedule=schedule,
        posterior_burn_in=scfg["posterior_burn_in"],
        posterior_thin=scfg["posterior_thin"],
    )


def _ebm_setup(mcfg: dict):
    """(reference density, zero bias, working grid, training config) of an ebm method."""
    gcfg = mcfg["grid"]
    grid = GridFunction.zeros(gcfg["lo"], gcfg["hi"], gcfg["h"])
    if mcfg["form"] == "grid":
        bias = GridBias.zero(gcfg["lo"], gcfg["hi"], gcfg["h"])
    else:
        r = mcfg["rbf"]
        bias = RbfBias.zero(r["n_centers"], r["lo"], r["hi"], r["kappa"])
    ccfg = mcfg["chain"]
    st = mcfg["stopping"]
    stopping = None
    if st["enabled"]:
        test = KsdTestConfig(alpha=st["alpha"], a_bs=st["a_bs"], n_boot=st["n_boot"])
        stopping = KsdStopping(test=test, min_steps=st["min_steps"])
    train_cfg = TrainConfig(
        max_steps=mcfg["max_steps"],
        n_grad_samples=ccfg["n_keep"],
        chain=ChainConfig(burn_in=ccfg["burn_in"], thin=ccfg["thin"], n_keep=ccfg["n_keep"]),
        schedule=_build_schedule(mcfg["learning_rate"]),
        momentum_weight=mcfg["momentum"],
        stopping=stopping,
        keep_last_biases=mcfg["estimate_window"],
        grad_clip=mcfg["grad_clip"] or None,
        kde_bandwidth=mcfg["kde_bandwidth"] or None,
    )
    return _build_p_ref(mcfg["p_ref"]), bias, grid, train_cfg


# ---------------------------------------------------------------------------
# Single replicate

@dataclass
class RunOutcome:
    run: int
    p_hats: list[float]  # one per query threshold
    budget: int
    tuning_budget: int
    steps: int
    stop_reason: str
    error: Optional[str] = None
    trace: Optional[list] = None
    tail_warning: bool = False  # a final readout may be truncated at the grid's upper edge (truncated_tail)
    extra_rows: int = 0  # base-density rows scored beyond the budget and the tuning budget


def _proposal_choice(pc: dict, bundle: ProblemBundle, subset: bool):
    """rng -> (proposal, tuning budget, extra rows), as method.proposal asks for it.

    The tuners return that triple, and a fixed pcn costs nothing. A subset
    run moves by a random walk, tuned only in the posterior setting: in the
    prior setting its population is drawn from the prior and every level
    sets its own steps, so it has no proposal.
    """
    check_tuning(pc["target_accept"], pc["pilot_steps"])
    problem, beta = bundle.problem, pc["beta"]
    kind = pc["kind"]
    if subset and kind == "pcn":
        raise ConfigurationError("a subset run moves by a random walk, not pcn")
    tuning = {"target_accept": pc["target_accept"], "pilot_steps": pc["pilot_steps"]}
    if kind == "random_walk":
        if beta != 0.0:
            raise ConfigurationError("method.proposal.beta applies to a pcn proposal only")
        if subset and problem.log_likelihood is None:
            return lambda rng: (None, 0, 0)
        return lambda rng: tune_step_sizes(
            problem, problem.init_point, rng, groups=bundle.rw_groups, init_steps=bundle.rw_init_steps, **tuning
        )
    if problem.to_standard_normal is None:
        raise ConfigurationError("a pcn proposal needs a problem with a standard-normal transform")
    if isinstance(beta, list):
        # A short vector is padded with its last entry, so e.g.
        # [0.7, 0.15] means coordinate 0 mixes at 0.7 and the rest at 0.15.
        d = problem.dim
        if not 1 <= len(beta) <= d:
            raise ConfigurationError(f"method.proposal.beta needs 1 to {d} values, got {len(beta)}")
        beta = np.array(beta + beta[-1:] * (d - len(beta)), dtype=float)
    elif beta == 0.0:  # 0 selects a tuned beta
        return lambda rng: tune_pcn_beta(problem, problem.init_point, rng, **tuning)
    fixed = Pcn(beta)
    return lambda rng: (fixed, 0, 0)


def run_replicate(cfg: dict, run_index: int) -> RunOutcome:
    """Execute one independent replicate; a failed one keeps the budget it used.

    The outcome starts as a failure with nothing spent, and each stage
    records its budget as it finishes, so an error keeps what came before it.
    """
    rng = np.random.default_rng(cfg["runs"]["base_seed"] + run_index)
    bundle, mcfg, traces = build_problem(cfg["problem"]), cfg["method"], cfg["output"]["traces"]
    subset = mcfg["kind"] == "subset"
    method = _subset_config(mcfg) if subset else _ebm_setup(mcfg)
    draw_proposal = _proposal_choice(mcfg["proposal"], bundle, subset)
    queries = [RareEventQuery(float(t)) for t in cfg["query"]["thresholds"]]
    out = RunOutcome(run_index, [math.nan] * len(queries), budget=0, tuning_budget=0, steps=0, stop_reason="error")
    try:
        proposal, out.tuning_budget, out.extra_rows = draw_proposal(rng)
        if subset:
            results = []
            for query in queries:
                results.append(subset_estimate(bundle.problem, query, method, rng, proposal=proposal))
                out.budget += results[-1].budget
                out.extra_rows += results[-1].extra_rows
            out.p_hats = [res.p_hat for res in results]
            out.stop_reason = "level_failure" if any(res.level_failure for res in results) else "complete"
            return out

        # EBM path
        p_ref, bias, grid, train_cfg = method
        # The per-iteration kl, ksd and p_hat only feed the trace files.
        train_cfg = dataclasses.replace(train_cfg, diagnostics=traces)
        result = train_bias_potential(bundle.problem, queries[0], p_ref, bias, train_cfg, proposal, grid, rng)
        out.budget, out.steps = result.budget, len(result.trace)
        out.extra_rows += result.extra_rows
        window = result.recent_biases
        if mcfg["estimate_average"] == "potential":
            # Average the potential itself over the window, then read off the
            # tail once; this cancels oscillation of the bias around its
            # fixed point rather than averaging its exponential.
            window = [window[0].with_params(np.mean([b.params for b in window], axis=0))]
        ests = [free_energy_from_bias(b, p_ref, grid) for b in window]
        tails = [[tail_probability(e, q.threshold) for e in ests] for q in queries]
        out.p_hats = [float(np.mean(ps)) for ps in tails]
        out.stop_reason = result.stop_reason
        out.trace = result.trace if traces else None
        out.tail_warning = any(truncated_tail(e, p) for ps in tails for e, p in zip(ests, ps))
    except ArithmeticError as exc:  # NumericError and its TrainingError and EstimationError among them
        out.error = str(exc)
        partial = getattr(exc, "result", None)  # training's result so far
        if partial is not None:
            out.budget, out.steps = partial.budget, len(partial.trace)
            out.extra_rows += partial.extra_rows
    return out


# ---------------------------------------------------------------------------
# Aggregation

@dataclass
class ThresholdStatistics:
    threshold: float
    p_hats: list[float]
    mean: float
    cov: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]
    rmse: Optional[float]
    reference: Optional[float]

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "p_hats": self.p_hats,
            "mean": self.mean,
            "cov": self.cov,
            "ci_95": None if self.ci_low is None else [self.ci_low, self.ci_high],
            "rmse": self.rmse,
            "reference": self.reference,
        }


@dataclass
class RunStatistics:
    n_runs: int
    n_failed: int
    per_threshold: list[ThresholdStatistics]
    budget_min: int
    budget_max: int
    budget_mean: float
    tuning_budget_mean: float
    stop_reasons: dict[str, int]
    n_tail_warnings: int = 0  # replicates whose final readout set tail_warning
    extra_rows: dict = field(default_factory=dict)  # min, max and mean of RunOutcome.extra_rows

    def as_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "n_failed": self.n_failed,
            "partial": self.n_failed > 0,
            "thresholds": [s.as_dict() for s in self.per_threshold],
            "budget": {"min": self.budget_min, "max": self.budget_max, "mean": self.budget_mean},
            "tuning_budget_mean": self.tuning_budget_mean,
            "stop_reasons": self.stop_reasons,
            "tail_warnings": self.n_tail_warnings,
            "extra_rows": self.extra_rows,
        }


def summarize_estimates(p_hats, reference: Optional[float] = None, threshold: float = 0.0) -> ThresholdStatistics:
    """Aggregate replicate estimates: mean, COV, empirical 95% CI, RMSE."""
    x = np.asarray([p for p in p_hats if math.isfinite(p)], dtype=float)
    if len(x) == 0:
        return ThresholdStatistics(threshold, list(map(float, p_hats)), math.nan, None, None, None, None, reference)
    mean = float(x.mean())
    cov = None
    if len(x) > 1 and mean != 0.0:
        cov = float(x.std(ddof=1) / mean)
    ci_low = ci_high = None
    if len(x) > 1:
        ci_low, ci_high = (float(v) for v in np.percentile(x, [2.5, 97.5]))
    rmse = None
    if reference is not None:
        rmse = float(np.sqrt(np.mean((x - reference) ** 2)))
    return ThresholdStatistics(threshold, list(map(float, p_hats)), mean, cov, ci_low, ci_high, rmse, reference)


def _references_for(cfg: dict, bundle: ProblemBundle, thresholds: list[float]) -> list[Optional[float]]:
    ref = cfg["runs"]["reference"]
    refs = _as_list(ref) if ref is not None else [_oracle_or_none(bundle.oracle, t) for t in thresholds]
    return [None if r is None else float(r) for r in refs]


def _oracle_or_none(oracle, threshold: float) -> Optional[float]:
    try:
        return oracle(threshold)
    except NumericError:  # a tail too small for the oracle to resolve has no reference
        return None


def run_experiment(cfg: dict, jobs: int = 1) -> RunStatistics:
    """Run all replicates of a validated config and write the output files."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cfg = load_config(cfg)
    n_runs = cfg["runs"]["n_runs"]
    if jobs > 1 and n_runs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            outcomes = list(pool.map(run_replicate, [cfg] * n_runs, range(n_runs)))
    else:
        outcomes = [run_replicate(cfg, i) for i in range(n_runs)]

    thresholds = [float(t) for t in cfg["query"]["thresholds"]]
    bundle = build_problem(cfg["problem"])
    refs = _references_for(cfg, bundle, thresholds)
    ok = [o for o in outcomes if o.error is None]
    per_threshold = [
        summarize_estimates([o.p_hats[j] for o in ok], reference=refs[j], threshold=t)
        for j, t in enumerate(thresholds)
    ]
    budgets = [o.budget for o in outcomes]
    extra = [o.extra_rows for o in outcomes]
    reasons: dict[str, int] = {}
    for o in outcomes:
        reasons[o.stop_reason] = reasons.get(o.stop_reason, 0) + 1
    stats = RunStatistics(
        n_runs=n_runs,
        n_failed=len(outcomes) - len(ok),
        per_threshold=per_threshold,
        budget_min=int(min(budgets)),
        budget_max=int(max(budgets)),
        budget_mean=float(np.mean(budgets)),
        tuning_budget_mean=float(np.mean([o.tuning_budget for o in outcomes])),
        stop_reasons=reasons,
        n_tail_warnings=sum(o.tail_warning for o in outcomes),
        extra_rows={"min": min(extra), "max": max(extra), "mean": float(np.mean(extra))},
    )

    out_dir = cfg["output"]["dir"]
    if out_dir is not None:
        write_outputs(Path(out_dir), cfg, outcomes, stats)
    return stats


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_outputs(out_dir: Path, cfg: dict, outcomes: list[RunOutcome], stats: RunStatistics) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        thresholds = cfg["query"]["thresholds"]
        header = ["run"] + [f"p_hat_{_fmt(t)}" for t in thresholds] + ["budget", "steps", "stop_reason", "error"]
        writer.writerow(header)
        for o in outcomes:
            writer.writerow(
                [o.run] + [_fmt(p) for p in o.p_hats] + [o.budget, o.steps, o.stop_reason, o.error or ""]
            )
        for o in outcomes:
            if o.trace:
                with open(out_dir / f"trace_{o.run}.csv", "w", newline="") as tfh:
                    twriter = csv.writer(tfh)
                    twriter.writerow(["iteration", "kl", "ksd", "p_hat", "budget", "acceptance"])
                    for rec in o.trace:
                        twriter.writerow(
                            [
                                rec.iteration,
                                "" if rec.kl is None else _fmt(rec.kl),
                                _fmt(rec.ksd),
                                _fmt(rec.p_hat),
                                rec.budget,
                                _fmt(rec.acceptance),
                            ]
                        )
    summary = {"config": _strip_output(cfg), "statistics": stats.as_dict()}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_round_floats(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _strip_output(cfg: dict) -> dict:
    cfg = json.loads(json.dumps(cfg))
    cfg["output"]["dir"] = None
    return cfg


def _round_floats(obj):
    # JSON has no NaN or Infinity, so a non-finite float is written as null.
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Benchmark table replication

def _config_path(name: str):
    return resources.files("rareebm") / "configs" / f"{name}.json"


TABLE_ROWS: dict[str, list[dict]] = {
    "table1": [
        {
            "row": "EBM (stopping criterion)",
            "config": "contamination_ebm_nonpar",
            "paper": {"mean": 1.74e-6, "rmse": 0.62e-6, "cov": 0.36, "budget": 72000},
        },
        {
            "row": "EBM (200 iterations)",
            "config": "contamination_ebm_nonpar_fixed",
            "paper": {"mean": 1.79e-6, "rmse": 0.62e-6, "cov": 0.35, "budget": 270000},
        },
        {
            "row": "Subset sampling",
            "config": "contamination_subset",
            "paper": {"mean": 1.73e-6, "rmse": 1.00e-6, "cov": 0.58, "budget": 72000},
        },
    ],
    "table2": [
        {
            "row": "EBM GEV(2,3,0)",
            "config": "four_branch_ebm",
            "paper": {"mean_t1": 4.97e-3, "cov_t1": 0.31, "mean_t2": 1.56e-5, "cov_t2": 0.53, "budget": 10000},
        },
        {
            "row": "Subset sampling",
            "config": "four_branch_subset",
            "paper": {"mean_t1": 4.91e-3, "cov_t1": 0.36, "mean_t2": 1.36e-5, "cov_t2": 0.80, "budget": 10000},
        },
    ],
    "table3": [
        {
            "row": "EBM (non-par.), n_C=10",
            "config": "load_capacity_10_nonpar",
            "paper": {"mean": 7.0e-5, "ci_95": [2.7e-5, 12.0e-5], "budget": 7700, "analytic": 6.8e-5},
        },
        {
            "row": "EBM (RBF), n_C=10",
            "config": "load_capacity_10_rbf",
            "paper": {"mean": 7.1e-5, "ci_95": [0.9e-5, 19.5e-5], "budget": 7700, "analytic": 6.8e-5},
        },
        {
            "row": "EBM (non-par.), n_C=100",
            "config": "load_capacity_100_nonpar",
            "paper": {"mean": 2.7e-5, "ci_95": [1.2e-5, 4.7e-5], "budget": 12600, "analytic": 2.1e-5},
        },
        {
            "row": "EBM (RBF), n_C=100",
            "config": "load_capacity_100_rbf",
            "paper": {"mean": 4.0e-5, "ci_95": [0.3e-5, 10.0e-5], "budget": 8400, "analytic": 2.1e-5},
        },
    ],
}


def replicate_table(
    name: str,
    out_dir,
    n_runs: Optional[int] = None,
    base_seed: Optional[int] = None,
    jobs: int = 1,
) -> dict:
    """Re-run every row of a benchmark table and write a side-by-side summary."""
    if name not in TABLE_ROWS:
        raise ConfigurationError(f"unknown table '{name}'; choose from {sorted(TABLE_ROWS)}")
    out_dir = Path(out_dir)
    rows_out = []
    for row in TABLE_ROWS[name]:
        with resources.as_file(_config_path(row["config"])) as path:
            cfg = load_config(path)
        if n_runs is not None:
            cfg["runs"]["n_runs"] = n_runs
        if base_seed is not None:
            cfg["runs"]["base_seed"] = base_seed
        cfg["output"]["dir"] = str(out_dir / row["config"])
        stats = run_experiment(cfg, jobs=jobs)
        rows_out.append({"row": row["row"], "paper": row["paper"], "measured": stats.as_dict()})
    summary = {"table": name, "rows": rows_out}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(_round_floats(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
