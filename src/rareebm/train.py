"""Bias-potential training: stochastic KL-gradient descent with momentum.

Each iteration draws chain samples of R under the current bias, forms the
KL gradient (sample-based for the RBF form, density-difference for the grid
form), applies an SGDM update and records the iteration. Training stops at
the step limit or, when enabled, as soon as the wild-bootstrap KSD test no
longer rejects agreement between the chain samples and the reference
density. The per-iteration diagnostics (the KL estimate, the KSD and the
tail readout) are computed only when the config asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from rareebm.bias import BiasPotential, GridBias, RbfBias
from rareebm.densities import GridFunction, ReferenceDensity, grid_normalize, kde_gaussian
from rareebm.errors import EstimationError, TrainingError
from rareebm.estimator import free_energy_from_bias, tail_probability
from rareebm.ksd import KsdTestConfig, SteinKernelConfig, ksd_statistic, stein_kernel_matrix, wild_bootstrap_test
from rareebm.mcmc import ChainConfig, mh_run
from rareebm.problems import RareEventQuery, TargetProblem

_ABORT_BIAS_MAGNITUDE = 1e6
# A KSD stop needs at least this share of distinct kept samples: the wild
# bootstrap assumes a mixing chain, and one that sticks at a value next to a
# bounded reference support can pass it (the score grows without bound there).
_MIN_DISTINCT_SHARE = 0.5


@dataclass(frozen=True)
class SgdmState:
    momentum: np.ndarray = field(repr=False)
    step_index: int = 0
    momentum_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.momentum_weight < 1.0:
            raise ValueError("momentum weight must lie in [0, 1)")


def sgdm_step(state: SgdmState, grad: np.ndarray, learning_rate: float) -> tuple[np.ndarray, SgdmState]:
    """One momentum update; returns (parameter delta, new state)."""
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    m = state.momentum_weight * state.momentum + (1.0 - state.momentum_weight) * grad
    return -learning_rate * m, SgdmState(m, state.step_index + 1, state.momentum_weight)


@dataclass(frozen=True)
class ConstantLr:
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("learning rate must be positive")

    def value(self, n: int) -> float:
        return self.gamma


@dataclass(frozen=True)
class ExpDecayLr:
    gamma0: float
    factor: float  # negative exponent rate; gamma_n = gamma0 * exp(factor * n)

    def __post_init__(self):
        if self.gamma0 <= 0 or self.factor >= 0:
            raise ValueError("need gamma0 > 0 and factor < 0")

    def value(self, n: int) -> float:
        return self.gamma0 * math.exp(self.factor * n)


LrSchedule = Union[ConstantLr, ExpDecayLr]


@dataclass(frozen=True)
class KsdStopping:
    test: KsdTestConfig = KsdTestConfig()
    min_steps: int = 5


@dataclass(frozen=True)
class TrainConfig:
    max_steps: int
    n_grad_samples: int
    chain: ChainConfig
    schedule: LrSchedule
    momentum_weight: float = 0.5
    stopping: Optional[KsdStopping] = None
    track_kl: bool = True
    # Compute the per-iteration kl, ksd and p_hat of the trace; off, the trace
    # records None for them and training skips their KDE, Stein matrix and
    # readout wherever the update and the stopping test do not need them.
    diagnostics: bool = True
    keep_last_biases: int = 10  # window for averaged tail estimates
    grad_clip: Optional[float] = None  # componentwise gradient magnitude cap
    kde_bandwidth: Optional[float] = None  # fixed KDE bandwidth (None: data-driven)

    def __post_init__(self):
        if self.max_steps < 0 or self.n_grad_samples < 1 or self.keep_last_biases < 1:
            raise ValueError("invalid training configuration")
        if not 0.0 <= self.momentum_weight < 1.0:
            raise ValueError("momentum weight must lie in [0, 1)")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if self.kde_bandwidth is not None and self.kde_bandwidth <= 0:
            raise ValueError("kde_bandwidth must be positive")
        if self.chain.n_keep != self.n_grad_samples:
            raise ValueError("chain n_keep must equal n_grad_samples")


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    kl: Optional[float]
    ksd: Optional[float]  # NaN when a sample lies outside p_ref's support or only one is kept
    p_hat: Optional[float]  # kl, ksd and p_hat are None with TrainConfig.diagnostics off
    budget: int  # cumulative forward evaluations
    acceptance: float


@dataclass
class TrainResult:
    bias: BiasPotential
    trace: list[TrainRecord]
    budget: int
    stop_reason: str
    extra_rows: int = 0  # base-density rows scored beyond the budget (MhResult.extra_rows)
    # Biases from the last keep_last_biases iterations (final one included);
    # averaging tail estimates over them damps the stochastic-gradient noise
    # of a single read-out.
    recent_biases: list = field(default_factory=list)


def kl_gradient_rbf(bias: RbfBias, ref_samples: np.ndarray, biased_samples: np.ndarray) -> np.ndarray:
    """Sample estimate of the KL gradient with respect to the RBF weights."""
    ref_samples = np.asarray(ref_samples, dtype=float)
    biased_samples = np.asarray(biased_samples, dtype=float)
    if len(ref_samples) != len(biased_samples) or len(ref_samples) < 1:
        raise ValueError("need equal, nonzero sample counts")
    return bias.features(ref_samples).mean(axis=0) - bias.features(biased_samples).mean(axis=0)


def mle_gradient_rbf(bias: RbfBias, ref_samples: np.ndarray, biased_samples: np.ndarray) -> np.ndarray:
    """Negative gradient of the normalized log-likelihood of the ref samples.

    The intractable normalizer gradient is replaced by the biased-sample
    average; algebraically identical to kl_gradient_rbf but kept as an
    independent code path for the equivalence check.
    """
    ref_samples = np.asarray(ref_samples, dtype=float)
    biased_samples = np.asarray(biased_samples, dtype=float)
    loglik_grad = -bias.features(ref_samples).mean(axis=0) + bias.features(biased_samples).mean(axis=0)
    return -loglik_grad


def kl_gradient_grid(p_ref_grid: GridFunction, p_v_grid: GridFunction) -> GridFunction:
    """Nodewise descent direction p_ref - p_V for the grid-form bias."""
    if not p_ref_grid.same_domain(p_v_grid):
        raise ValueError("grid domains do not match")
    return p_ref_grid.with_values(p_ref_grid.values - p_v_grid.values)


def estimate_kl(p_ref_grid: GridFunction, p_v_grid: GridFunction) -> float:
    """Trapezoid estimate of KL(p_ref || p_V) on the grid; p_V clamped at 1e-12."""
    if not p_ref_grid.same_domain(p_v_grid):
        raise ValueError("grid domains do not match")
    ref_vals = p_ref_grid.values
    pv = np.clip(p_v_grid.values, 1e-12, None)
    integrand = np.where(ref_vals > 0, ref_vals * (np.log(np.where(ref_vals > 0, ref_vals, 1.0)) - np.log(pv)), 0.0)
    return float(np.trapezoid(integrand, dx=p_v_grid.h))


def train_bias_potential(
    problem: TargetProblem,
    query: RareEventQuery,
    p_ref: ReferenceDensity,
    bias_init: BiasPotential,
    cfg: TrainConfig,
    proposal,
    grid: GridFunction,
    rng: np.random.Generator,
) -> TrainResult:
    """Optimize the bias potential and record the per-iteration trace.

    `grid` is the working grid used for the KDE, the grid-form gradient and
    the probability reconstruction; `proposal` is a pre-tuned RandomWalk or
    Pcn proposal.
    """
    bias = bias_init
    is_grid = isinstance(bias, GridBias)
    p_ref_grid = grid.with_values(np.asarray(p_ref.pdf(grid.xs), dtype=float))
    kernel = SteinKernelConfig()
    support_lo, support_hi = p_ref.support()
    sgdm = SgdmState(np.zeros(len(bias.params)), 0, cfg.momentum_weight)
    trace: list[TrainRecord] = []
    recent: list[BiasPotential] = []
    budget = extra = 0
    stop_reason = "max_steps"

    if cfg.max_steps == 0:
        return TrainResult(bias=bias, trace=trace, budget=0, stop_reason="max_steps", recent_biases=[bias])

    track_kl = cfg.diagnostics and cfg.track_kl
    if problem.init_point is None:
        raise TrainingError("no chain start point available")
    chain_state = problem.init_point  # raw theta; first mh_run evaluates it (+1 budget)

    try:
        for it in range(cfg.max_steps):
            res = mh_run(problem, proposal, chain_state, cfg.chain, rng, bias=bias)
            chain_state = res.state
            budget += res.budget
            extra += res.extra_rows
            s_samples = res.rs

            p_v_kde = None
            if is_grid or track_kl:
                try:
                    p_v_kde = grid_normalize(kde_gaussian(s_samples, grid, bandwidth=cfg.kde_bandwidth))
                except EstimationError:
                    p_v_kde = None

            lr = cfg.schedule.value(sgdm.step_index)
            if is_grid:
                if p_v_kde is None:
                    raise TrainingError("degenerate chain samples: KDE unavailable for grid update")
                grad = kl_gradient_grid(p_ref_grid, p_v_kde).values
            else:
                grad = kl_gradient_rbf(bias, p_ref.sample(rng, cfg.n_grad_samples), s_samples)
            if cfg.grad_clip is not None:
                grad = np.clip(grad, -cfg.grad_clip, cfg.grad_clip)
            delta, sgdm = sgdm_step(sgdm, grad, lr)
            bias = bias.with_params(bias.params + delta)
            max_mag = float(np.abs(bias.params).max())

            recent.append(bias)
            if len(recent) > cfg.keep_last_biases:
                recent.pop(0)

            if not math.isfinite(max_mag) or max_mag > _ABORT_BIAS_MAGNITUDE:
                raise TrainingError("bias potential diverged during training")

            # The score, and with it the Stein kernel, is undefined outside a
            # bounded support: the trace records a NaN KSD and the stopping test
            # counts the iteration as a rejection. A diagnostic that cannot be
            # computed (no KDE, a single kept sample) is recorded as missing.
            inside = not (np.any(s_samples <= support_lo) or np.any(s_samples >= support_hi))
            p_hat = kl = ksd_val = None
            if cfg.diagnostics:
                p_hat = tail_probability(free_energy_from_bias(bias, p_ref, grid), query.threshold)
                if track_kl and p_v_kde is not None:
                    kl = estimate_kl(p_ref_grid, p_v_kde)
                ksd_val = math.nan
                if inside and len(s_samples) > 1:
                    ksd_val = ksd_statistic(stein_kernel_matrix(s_samples, s_samples, p_ref, kernel))
            record = TrainRecord(it, kl, ksd_val, p_hat, budget, acceptance=res.acceptance_rate)
            trace.append(record)

            if inside and cfg.stopping is not None and it + 1 >= cfg.stopping.min_steps:
                passed = not wild_bootstrap_test(s_samples, p_ref, kernel, cfg.stopping.test, rng).reject
                # checked after the test has drawn its signs, so no random stream depends on it
                if passed and len(np.unique(s_samples)) >= _MIN_DISTINCT_SHARE * len(s_samples):
                    stop_reason = "ksd"
                    break
    except ArithmeticError as exc:  # hand the budget spent so far to the caller
        exc.result = TrainResult(bias, trace, budget, "error", extra, recent)
        raise

    return TrainResult(bias, trace, budget, stop_reason, extra, recent)
