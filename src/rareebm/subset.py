"""Subset-sampling baseline estimator for rare-event probabilities.

The rare event {R >= T} is factored into nested conditional events over a
threshold ladder. Levels are either chosen adaptively (survival-fraction
quantiles) or fixed on a logarithmic ladder. In the inversion setting, the
initial population is drawn from the posterior with a heavily thinned MH
chain; every forward evaluation, including that initialization, counts
toward the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from rareebm.errors import ConfigurationError
from rareebm.mcmc import ChainConfig, RandomWalk, mh_run
from rareebm.problems import RareEventQuery, TargetProblem

_MAX_LEVELS = 200


@dataclass(frozen=True)
class AdaptiveSchedule:
    survival_fraction: float = 0.1  # p0

    def __post_init__(self):
        if not 0.0 < self.survival_fraction < 1.0:
            raise ConfigurationError("survival fraction must lie in (0, 1)")


@dataclass(frozen=True)
class FixedLogSchedule:
    start: float = 5.0
    n_levels: int = 10

    def __post_init__(self):
        if self.n_levels < 1:
            raise ConfigurationError("n_levels must be >= 1")

    def thresholds(self, final: float) -> np.ndarray:
        # Logarithmic ladder from start to the query threshold, normalized
        # so the last level lands exactly on the final threshold.
        k = np.arange(1, self.n_levels + 1)
        return self.start + (final - self.start) * np.log1p(k * (math.e - 1.0) / self.n_levels)


@dataclass(frozen=True)
class SubsetConfig:
    n_samples: int = 100  # samples per level
    mh_steps_per_seed: int = 5
    schedule: Union[AdaptiveSchedule, FixedLogSchedule] = AdaptiveSchedule()
    posterior_burn_in: int = 100
    posterior_thin: int = 500

    def __post_init__(self):
        if self.n_samples < 2 or self.mh_steps_per_seed < 1 or self.posterior_burn_in < 0 or self.posterior_thin < 1:
            raise ConfigurationError("invalid subset configuration")


@dataclass(frozen=True)
class LevelDiagnostic:
    threshold: float
    survival_fraction: float
    acceptance: float  # conditional-kernel acceptance (nan for level 0)


@dataclass
class SubsetResult:
    p_hat: float
    levels: list[LevelDiagnostic]
    budget: int
    level_failure: bool = False
    extra_rows: int = 0  # base-density rows scored beyond the budget by the initial chain


def _initial_population(
    problem: TargetProblem,
    cfg: SubsetConfig,
    rng: np.random.Generator,
    proposal: Optional[RandomWalk],
) -> tuple[np.ndarray, int, int]:
    n = cfg.n_samples
    if problem.log_likelihood is None:
        if problem.sample_prior is None:
            raise ConfigurationError("traditional setting requires a prior sampler")
        return problem.sample_prior(rng, n), n, 0
    if proposal is None:
        raise ConfigurationError("posterior initialization requires a tuned random walk")
    res = mh_run(
        problem,
        proposal,
        problem.init_point,
        ChainConfig(burn_in=cfg.posterior_burn_in, thin=cfg.posterior_thin, n_keep=n),
        rng,
    )
    return res.thetas, res.budget, res.extra_rows


def _propagate(
    problem: TargetProblem,
    thetas: np.ndarray,
    log_targets: np.ndarray,
    rs: np.ndarray,
    threshold: float,
    steps: np.ndarray,
    n_moves: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Move all seeds with MH restricted to {r >= threshold}, vectorized."""
    n, d = thetas.shape
    accepted = 0
    for _ in range(n_moves):
        props = thetas + steps * rng.standard_normal((n, d))
        lp = problem.log_target(props)
        r = problem.qoi(props)
        with np.errstate(invalid="ignore"):
            ok = (r >= threshold) & (np.log(rng.uniform(size=n)) < lp - log_targets)
        thetas = np.where(ok[:, None], props, thetas)
        log_targets = np.where(ok, lp, log_targets)
        rs = np.where(ok, r, rs)
        accepted += int(ok.sum())
    return thetas, log_targets, rs, accepted / (n * n_moves), n * n_moves


def subset_estimate(
    problem: TargetProblem,
    query: RareEventQuery,
    cfg: SubsetConfig,
    rng: np.random.Generator,
    proposal: Optional[RandomWalk] = None,
) -> SubsetResult:
    """Estimate P(R >= threshold) by subset sampling.

    `proposal` is the tuned random walk of the chain that draws the initial
    population in the inversion setting; the conditional-level kernels take
    their steps from the spread of each level's seeds.
    """
    final_t = query.threshold
    thetas, budget, extra = _initial_population(problem, cfg, rng, proposal)
    rs = problem.qoi(thetas)
    log_targets = problem.log_target(thetas)
    n = cfg.n_samples

    levels: list[LevelDiagnostic] = []
    p_hat = 1.0
    adaptive = isinstance(cfg.schedule, AdaptiveSchedule)
    ladder = None if adaptive else cfg.schedule.thresholds(final_t)

    k = 0
    while True:
        if adaptive:
            t_k = min(float(np.quantile(rs, 1.0 - cfg.schedule.survival_fraction)), final_t)
        else:
            t_k = float(ladder[k]) if k < len(ladder) else final_t
        last = t_k >= final_t
        if last:
            t_k = final_t
        frac = float(np.mean(rs >= t_k))
        levels.append(LevelDiagnostic(threshold=t_k, survival_fraction=frac, acceptance=float("nan")))
        p_hat *= frac
        if frac == 0.0:
            return SubsetResult(0.0, levels, budget, True, extra)
        if last:
            return SubsetResult(p_hat, levels, budget, False, extra)
        k += 1
        if k > _MAX_LEVELS:
            return SubsetResult(p_hat, levels, budget, True, extra)
        surv = rs >= t_k
        idx = np.flatnonzero(surv)
        seeds = rng.choice(idx, size=n, replace=True)
        # Conditional-kernel proposal scales follow the spread of the current
        # seed population (shrinking as the levels narrow).
        level_steps = np.clip(thetas[idx].std(axis=0, ddof=1 if len(idx) > 1 else 0), 1e-6, None)
        thetas, log_targets, rs, acc, cost = _propagate(
            problem, thetas[seeds], log_targets[seeds], rs[seeds], t_k, level_steps, cfg.mh_steps_per_seed, rng
        )
        budget += cost
        levels[-1] = LevelDiagnostic(threshold=t_k, survival_fraction=frac, acceptance=acc)
