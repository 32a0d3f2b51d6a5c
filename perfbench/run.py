"""rareebm benchmark: three paper workloads, end to end and per layer.

    python3 perfbench/run.py --workload contamination_ebm --seed 1 --seconds 30 --trace 0

Runs one workload's shipped experiment config in this process, with BLAS and
OpenMP pinned to one thread and `--jobs 1`, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1` runs
each experiment twice, untraced and then traced by wrapping the rareebm layers
from outside (see tracer.py), and reports the per-layer metrics. Lines before
the last one are a human-readable report; the full report, with the span
breakdown by parent, is also written to `.perfbench_out/<workload>/`.

`--seconds` sets the amount of work, not a deadline: each workload runs a fixed
number of replicates per 30 seconds, so every commit does the same work at a
given seed. README.md explains the metrics and why they are measured as they
are.

The exit code is 0 when every correctness check passes and 1 otherwise; it is
2, with no result printed, when the rareebm sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

# One BLAS/OpenMP thread (at most nproc): `wild_bootstrap_test`'s einsum goes
# through BLAS, and a single thread keeps timings and results independent of
# the core count and of other load on a shared machine.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5
# A traced run does an untraced and a traced pass over a quarter of the replicates.
TRACED_SHARE = 4
# The probe's loop count, and its time on the reference machine when that
# machine runs at full speed (README.md, "Timing on a shared machine").
PROBE_LOOPS = 200
PROBE_REF_S = 0.85e-3
SEED_STRIDE = 1000  # replicate i of seed s uses RNG seed s * SEED_STRIDE + i


@dataclass(frozen=True)
class Workload:
    config: str  # shipped config under src/rareebm/configs, used unchanged
    replicates_30s: int  # replicates per untraced run at --seconds 30
    # Accuracy check: log(replicate mean / (bias * oracle)) must be within
    # 5 * log_sd / sqrt(replicates), where bias is the mean/oracle ratio and
    # log_sd the per-replicate standard deviation of log(p_hat / oracle), both
    # measured at the baseline commit (README.md, "Correctness checks").
    bias: float
    log_sd: float

    def replicates(self, seconds: float, traced: bool) -> int:
        n = max(1, round(seconds * self.replicates_30s / 30.0))
        return max(1, round(n / TRACED_SHARE)) if traced else n


WORKLOADS = {
    # Grid bias, RW proposals, KSD stopping (Table 1, row 1): the only workload
    # where the KDE-driven grid gradient and the wild bootstrap do real work. Its
    # budget per replicate varies with the KSD stop step (CoV about 0.25), so
    # it gets the most replicates.
    "contamination_ebm": Workload("contamination_ebm_nonpar", 8, 1.0, 0.55),
    # pCN over 101 dimensions, 500-centre RBF bias, fixed steps (Table 3): RBF
    # evaluation dominates; tuning, the grid gradient and the bootstrap do no work.
    "load_capacity_rbf": Workload("load_capacity_100_rbf", 12, 3.6, 0.65),
    # Subset baseline at the matched budget (Table 1, row 3): batched forward
    # calls in `_propagate` beside a long unbiased single-row chain.
    "contamination_subset": Workload("contamination_subset", 24, 1.0, 0.65),
}

# Orchestration spans whose self time is not attributed to any layer.
CONTAINER_SPANS = ("harness.run_experiment", "harness.run_replicate")


def log(msg: str) -> None:
    print(msg, flush=True)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(config_path: Path) -> list[float]:
    """Set-up seconds of SETUP_SAMPLES fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_timer.py"), str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up timer failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Probe:
    """A fixed reference kernel that times how fast the machine runs right now.

    It is numpy-only, independent of rareebm, and shaped like the program's
    hot path: a Python loop over small-array numpy calls.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._xs = np.linspace(0.0, 1.0, 2001)
        self._ys = np.sin(self._xs)
        self._row = np.random.default_rng(0).standard_normal((1, 9))
        self()

    def __call__(self) -> float:
        np, xs, ys, row = self._np, self._xs, self._ys, self._row
        start = time.perf_counter()
        acc = 0.0
        for _ in range(PROBE_LOOPS):
            r = np.einsum("ij,ij->i", row, row)
            acc += float(np.interp(r, xs, ys)[0])
        return time.perf_counter() - start


@dataclass
class Experiment:
    wall_s: float  # the run_experiment call, probe time excluded
    replicate_s: list[float]  # probe time excluded
    replicate_ref_s: list[float]  # the same, at reference speed
    outcomes: list
    stats: object
    runs_sha256: str
    tracer: object = None

    def rate(self) -> float:
        """Median over successful replicates of evaluations per reference-speed second."""
        return statistics.median(
            evals(o) / t for o, t in zip(self.outcomes, self.replicate_ref_s) if o.error is None
        )


def run_experiment(cfg: dict, probe: Probe | None, tracer=None) -> Experiment:
    """One `harness.run_experiment` call, with each replicate timed chunk by chunk.

    A chunk is a stretch of one replicate between consecutive marks: the
    replicate's start and end, and the start of each training iteration (each
    `mh_run` call made by `train`). A method that does not train has one chunk
    per replicate. The probe runs at every mark, outside the chunks. A chunk's
    reference-speed time is its time scaled by PROBE_REF_S over the mean of the
    probes on either side of it. Without a probe, times are not scaled.
    """
    from rareebm import harness, train

    restore = None
    if tracer is not None:
        from tracer import instrument

        restore = instrument(tracer)
    replicates, outcomes = [], []
    run_replicate, mh_run = harness.run_replicate, train.mh_run

    def mark(rep):
        before = time.perf_counter()
        rep.append((before, probe() if probe is not None else PROBE_REF_S, time.perf_counter()))

    def timed_replicate(cfg_, index):
        rep = []
        replicates.append(rep)
        mark(rep)
        outcomes.append(run_replicate(cfg_, index))
        mark(rep)
        return outcomes[-1]

    def marked_mh_run(*args, **kwargs):
        mark(replicates[-1])
        return mh_run(*args, **kwargs)

    harness.run_replicate, train.mh_run = timed_replicate, marked_mh_run
    try:
        start = time.perf_counter()
        stats = harness.run_experiment(cfg, jobs=1)
        wall = time.perf_counter() - start
    finally:
        harness.run_replicate, train.mh_run = run_replicate, mh_run
        if restore is not None:
            restore()

    replicate_s, replicate_ref_s = [], []
    for marks in replicates:
        chunks = [(m1[0] - m0[2], 0.5 * (m0[1] + m1[1])) for m0, m1 in zip(marks, marks[1:])]
        replicate_s.append(sum(dt for dt, _ in chunks))
        replicate_ref_s.append(sum(dt * PROBE_REF_S / p for dt, p in chunks))
    probe_s = sum(m[2] - m[0] for marks in replicates for m in marks)
    runs_csv = Path(cfg["output"]["dir"]) / "runs.csv"
    sha = hashlib.sha256(runs_csv.read_bytes()).hexdigest()
    return Experiment(wall - probe_s, replicate_s, replicate_ref_s, outcomes, stats, sha, tracer)


def experiment_config(wl: Workload, seed: int, replicates: int, out_dir: Path) -> dict:
    from rareebm.harness import load_config

    cfg = load_config(SRC / "rareebm" / "configs" / f"{wl.config}.json")
    cfg["runs"]["n_runs"] = replicates
    cfg["runs"]["base_seed"] = seed * SEED_STRIDE
    cfg["output"]["dir"] = str(out_dir)
    return cfg


def evals(outcome) -> int:
    return outcome.budget + outcome.tuning_budget


def check_experiment(wl: Workload, exp: Experiment) -> list[str]:
    """Correctness failures of one experiment, each prefixed by its check's name."""
    errors = []
    n = len(exp.outcomes)
    for o in exp.outcomes:
        if o.error is not None:
            errors.append(f"replicate: replicate {o.run} failed: {o.error}")
        for p in o.p_hats:
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                errors.append(f"p_hat: replicate {o.run} p_hat {p!r} is not a probability in [0, 1]")
    th = exp.stats.per_threshold[0]
    tol = 5.0 * wl.log_sd / math.sqrt(n)
    if th.reference is None or not (th.mean > 0.0):
        errors.append(f"accuracy: replicate mean {th.mean!r} cannot be compared with the oracle {th.reference!r}")
    else:
        miss = abs(math.log(th.mean / (wl.bias * th.reference)))
        if miss > tol:
            errors.append(
                f"accuracy: replicate mean {th.mean:.4e} misses {wl.bias:g} x oracle {th.reference:.4e} "
                f"by a factor exp({miss:.3f}) > exp({tol:.3f})"
            )
    return errors


def fingerprint_status(workload: str, seed: int, replicates: int, sha: str) -> str:
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    want = recorded.get(workload, {}).get(f"seed={seed},replicates={replicates}")
    if want is None:
        return "unrecorded"
    return "match" if want == sha else f"MISMATCH (recorded {want})"


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


def end_to_end(name: str, wl: Workload, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    replicates = wl.replicates(seconds, traced=False)
    if replicates >= SEED_STRIDE:
        raise SystemExit(f"--seconds {seconds} asks for {replicates} replicates; at most {SEED_STRIDE - 1}")
    setup = measure_setup(SRC / "rareebm" / "configs" / f"{wl.config}.json")
    exp = run_experiment(experiment_config(wl, seed, replicates, OUT / name / "trace0"), Probe())
    errors = check_experiment(wl, exp)

    n_evals = [evals(o) for o in exp.outcomes]
    n_failed = sum(o.error is not None for o in exp.outcomes)
    metrics = {
        "evals_per_s": (exp.rate(), "1/s"),
        "evals_per_replicate": (sum(n_evals) / replicates, "count"),
        # The set-up samples are too short to scale one by one, so their
        # median is scaled by the experiment's mean slow-down.
        "setup_s": (statistics.median(setup) * sum(exp.replicate_ref_s) / sum(exp.replicate_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "replicates": replicates,
        "failed": n_failed,
        "failed_frac": n_failed / replicates,
        "wall_s": exp.wall_s,
        "replicate_s_p50": statistics.median(exp.replicate_s),
        "replicate_s_samples": replicates,
        "evals_per_s_measured": sum(n_evals) / sum(exp.replicate_s),
        "replicate_s": exp.replicate_s,
        "replicate_ref_s": exp.replicate_ref_s,
        "setup_s_samples": setup,
        "evals": n_evals,
        "p_hat_mean": exp.stats.per_threshold[0].mean,
        "oracle": exp.stats.per_threshold[0].reference,
        "runs_sha256": exp.runs_sha256,
        "fingerprint": fingerprint_status(name, seed, replicates, exp.runs_sha256),
    }
    return metrics, errors, report


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced experiment, from its aggregated spans."""
    stats = tracer.stats

    def pick(name=None, prefix=None, parent=None):
        return [
            e
            for (n, p), e in stats.items()
            if (name is None or n == name) and (prefix is None or n.startswith(prefix)) and (parent is None or p == parent)
        ]

    def total(entries, field):
        if field in ("calls", "incl_ns", "self_ns"):
            s = sum(e[field] for e in entries)
        else:
            s = sum(e["counters"].get(field, 0) for e in entries)
        return s * 1e-9 if field.endswith("_ns") else s

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    qoi = pick("problems.qoi")
    problems_self = total(pick(prefix="problems."), "self_ns")
    rows = total(qoi, "rows")
    mh = pick("mcmc.mh_run")
    proposals = total(mh, "proposals")
    mh_self = total(mh, "self_ns")
    tune = pick("mcmc.tune_step_sizes") + pick("mcmc.tune_pcn_beta")
    kde = pick("densities.kde_gaussian")
    steps = pick("train.sgdm_step") + pick("train.kl_gradient_grid") + pick("train.kl_gradient_rbf")
    boot = pick("ksd.wild_bootstrap_test")
    prop = pick("subset._propagate")
    covered = sum(e["self_ns"] for (n, _), e in stats.items() if n not in CONTAINER_SPANS) * 1e-9
    return {
        "problems.calls": (total(qoi, "calls"), "count"),
        "problems.rows": (rows, "count"),
        "problems.self_s": (problems_self, "s"),
        "problems.us_per_row": (ratio(problems_self, rows, 1e6), "us"),
        "bias.calls": (total(pick(prefix="bias."), "calls"), "count"),
        "bias.mh_s": (total(pick(prefix="bias.", parent="mcmc.mh_run"), "incl_ns"), "s"),
        "bias.readout_s": (total(pick(prefix="bias.", parent="estimator.free_energy_from_bias"), "incl_ns"), "s"),
        "mcmc.proposals": (proposals, "count"),
        "mcmc.accept_ratio": (ratio(total(mh, "accepted"), total(mh, "post_burn_in")), "ratio"),
        "mcmc.self_s": (mh_self, "s"),
        "mcmc.us_per_proposal": (ratio(mh_self, proposals, 1e6), "us"),
        "mcmc.tune_s": (total(tune, "incl_ns"), "s"),
        "mcmc.tune_evals": (total(tune, "evals"), "count"),
        "densities.kde_calls": (total(kde, "calls"), "count"),
        "densities.kde_s": (total(kde, "incl_ns"), "s"),
        "train.iterations": (total(pick("train.sgdm_step"), "calls"), "count"),
        "train.step_s": (total(steps, "incl_ns"), "s"),
        "estimator.calls": (total(pick("estimator.free_energy_from_bias"), "calls"), "count"),
        "estimator.self_s": (total(pick(prefix="estimator."), "self_ns"), "s"),
        "ksd.stat_s": (total(pick("ksd.ksd_statistic"), "incl_ns"), "s"),
        "ksd.boot_calls": (total(boot, "calls"), "count"),
        "ksd.boot_s": (total(boot, "incl_ns"), "s"),
        "ksd.stop_ratio": (ratio(total(boot, "stopped"), total(boot, "calls")), "ratio"),
        "subset.levels": (total(pick("subset.subset_estimate"), "levels"), "count"),
        "subset.propagate_s": (total(prop, "incl_ns"), "s"),
        "subset.accept_ratio": (ratio(total(prop, "accepted"), total(prop, "moves")), "ratio"),
        "harness.oracle_s": (total(pick("harness.oracle"), "incl_ns"), "s"),
        "harness.io_s": (total(pick("harness.write_outputs"), "incl_ns"), "s"),
        "harness.io_bytes": (total(pick("harness.write_outputs"), "bytes"), "bytes"),
        "trace.coverage": (covered / wall_s, "ratio"),
    }


def budget_check(cfg: dict, outcomes: list, rows: int) -> dict:
    """qoi rows evaluated against the reported budget plus tuning budget.

    The subset baseline evaluates its initial population again outside the
    budget (n_samples rows per threshold and replicate): a known gap that the
    check records and expects rather than hides.
    """
    reported = sum(evals(o) for o in outcomes)
    gap = 0
    if cfg["method"]["kind"] == "subset":
        gap = cfg["method"]["subset"]["n_samples"] * len(cfg["query"]["thresholds"]) * len(outcomes)
    return {"qoi_rows": rows, "reported_evals": reported, "known_gap": gap, "ok": rows == reported + gap}


def traced(name: str, wl: Workload, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    from tracer import Tracer, check_nesting

    replicates = wl.replicates(seconds, traced=True)
    cfg = experiment_config(wl, seed, replicates, OUT / name / "trace1")
    # The traced pass runs without the probe, so that no probe time falls inside
    # a span; overhead_frac compares unscaled times.
    plain = run_experiment(cfg, None)
    exp = run_experiment(cfg, None, Tracer())
    errors = check_experiment(wl, exp)
    if plain.runs_sha256 != exp.runs_sha256:
        errors.append("determinism: the traced run's runs.csv differs from the untraced run's")

    metrics = layer_metrics(exp.tracer, exp.wall_s)
    metrics["trace.overhead_frac"] = (exp.wall_s / plain.wall_s, "ratio")
    budget = budget_check(cfg, exp.outcomes, metrics["problems.rows"][0])
    if not budget["ok"]:
        errors.append(f"budget: qoi rows do not match the reported budget: {budget}")
    nesting = check_nesting(exp.tracer.raw)
    errors.extend(f"trace: {e}" for e in nesting[:5])
    breakdown = exp.tracer.breakdown()
    errors.extend(
        f"trace: span {r['span']} under {r['parent'] or '-'}: self time {r['self_s']} > inclusive {r['incl_s']}"
        for r in breakdown
        if r["self_s"] > r["incl_s"]
    )
    report = {
        "replicates": replicates,
        "failed": sum(o.error is not None for o in exp.outcomes),
        "wall_s_untraced": plain.wall_s,
        "wall_s_traced": exp.wall_s,
        "budget_check": budget,
        "raw_spans_checked": len(exp.tracer.raw),
        "nesting_errors": len(nesting),
        "runs_sha256": exp.runs_sha256,
        "fingerprint": fingerprint_status(name, seed, replicates, exp.runs_sha256),
        "breakdown": breakdown,
    }
    return metrics, errors, report


def print_breakdown(rows: list[dict]) -> None:
    log(f"# {'span':<34} {'parent':<34} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
    for r in rows:
        log(f"# {r['span']:<34} {r['parent'] or '-':<34} {r['calls']:>9} {r['incl_s']:>9.4f} {r['self_s']:>9.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rareebm" / "__init__.py").is_file():
        print(f"error: rareebm sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    env = environment()
    log("# env " + json.dumps(env))
    if env["loadavg_start"][0] > env["nproc"]:
        print(f"warning: load average {env['loadavg_start'][0]:.2f} exceeds nproc {env['nproc']}", file=sys.stderr)

    wl = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced if args.trace else end_to_end
    metrics, errors, report = run(args.workload, wl, args.seed, args.seconds)

    report = {
        "workload": args.workload,
        "config": wl.config,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "errors": errors,
        **report,
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    full = {**report, "env": env, "metrics": metrics}
    (out_dir / f"report_trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        print_breakdown(report.pop("breakdown"))
    log("# report " + json.dumps(report))
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": report["replicates"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
