"""Metropolis-Hastings machinery for the biased target.

The sampler targets p_V(theta) ∝ exp(-(U(theta) + V(R(theta)))). A proposal
moves latent coordinates by x' = keep * x + scale * z, z standard normal, and
scores x' by a base density: the Gaussian random walk moves theta itself
against the full log target; preconditioned Crank-Nicolson (pCN) moves
standard-normal coordinates, whose prior its move preserves, against the log
likelihood alone. Chains carry their state so bias-potential training can
warm-start the chain between optimization steps. Every proposal costs one
unit of forward-evaluation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from rareebm.bias import BiasPotential
from rareebm.errors import ConfigurationError, NumericError
from rareebm.problems import TargetProblem

_STEP_FLOOR = 1e-6
_STEP_CAP = 1e3
# The shape of one base-density call, a prefetch tree of (states, steps),
# picked from the row width d alone; no result depends on it. Narrow rows take
# the full _TREE_SHAPE. Wider rows, whose scoring costs more next to the call,
# take S = isqrt(_TREE_CELLS // d) states and as many steps as keep the tree
# within _TREE_CELLS numbers: 8 x 8 up to d = 20, 3 x 4 at d = 101, one state
# beyond d = 320 and one row beyond d = _TREE_CELLS.
_TREE_SHAPE = (8, 8)
_TREE_CELLS = 1280


@dataclass(frozen=True)
class RandomWalk:
    """Gaussian random walk in theta with per-coordinate step sizes; a zero step holds its coordinate."""

    step_sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.step_sizes, dtype=float))
        if not (np.all(np.isfinite(s) & (s >= 0.0)) and np.any(s > 0.0)):
            raise ConfigurationError("random-walk step sizes must be finite and >= 0, with one > 0")
        object.__setattr__(self, "step_sizes", s)

    def latent(self, problem: TargetProblem, theta: np.ndarray) -> np.ndarray:
        return theta.copy()

    def move(self, dim: int):
        """(keep, scale) of the move x' = keep * x + scale * z."""
        s = self.step_sizes
        return 1.0, s if s.shape == (dim,) else np.full(dim, float(s))

    def log_base(self, problem: TargetProblem, xs: np.ndarray) -> tuple[list[float], np.ndarray]:
        """(log targets, theta rows) at the latent rows xs of shape (k, d), which are theta itself."""
        return problem.log_target(xs).tolist(), xs


@dataclass(frozen=True)
class Pcn:
    """pCN proposal; beta is a scalar or a per-coordinate mixing vector.

    A coordinate-wise beta still preserves the standard-normal prior, so
    coordinates that the likelihood barely constrains can mix faster than
    tightly pinned ones.
    """

    beta: float

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if not np.all((b > 0.0) & (b <= 1.0)):  # NaN fails both comparisons
            raise ConfigurationError("pCN beta must lie in (0, 1]")
        object.__setattr__(self, "beta", float(b) if b.ndim == 0 else b)

    def latent(self, problem: TargetProblem, theta: np.ndarray) -> np.ndarray:
        if problem.to_standard_normal is None:
            raise ConfigurationError("pCN requires a standard-normal transform")
        return problem.to_standard_normal(theta[None, :])[0]

    def move(self, dim: int):
        """(keep, scale) of the move u' = keep * u + scale * z."""
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 1 and beta.shape != (dim,):
            raise ConfigurationError("pCN beta vector length must match problem dimension")
        return np.sqrt(1.0 - beta * beta), beta

    def log_base(self, problem: TargetProblem, us: np.ndarray) -> tuple[list[float], np.ndarray]:
        """(log likelihoods, theta rows) at the standard-normal rows us of shape (k, d)."""
        rows = problem.from_standard_normal(us)
        return [0.0] * len(us) if problem.log_likelihood is None else problem.log_likelihood(rows).tolist(), rows


Proposal = RandomWalk | Pcn


@dataclass(frozen=True)
class ChainConfig:
    burn_in: int
    thin: int
    n_keep: int

    def __post_init__(self):
        if self.burn_in < 0 or self.thin < 1 or self.n_keep < 1:
            raise ConfigurationError("invalid chain configuration")

    @property
    def total_steps(self) -> int:
        return self.burn_in + self.thin * self.n_keep


@dataclass
class ChainState:
    """Chain position with its cached unbiased base density value.

    x holds the proposal's latent coordinates (theta for the random walk,
    standard-normal u for pCN), so a warm start must keep the proposal kind.
    log_base excludes the bias term so a warm start stays valid after the
    bias potential is updated between training iterations; the bias is
    re-applied at segment start without a fresh forward evaluation.
    """

    x: np.ndarray
    theta: np.ndarray
    r: float
    log_base: float


@dataclass
class MhResult:
    thetas: np.ndarray
    rs: np.ndarray
    acceptance_rate: float
    state: ChainState
    budget: int
    extra_rows: int  # base-density rows scored ahead of an acceptance and discarded


def mh_run(
    problem: TargetProblem,
    proposal: Proposal,
    init,
    cfg: ChainConfig,
    rng: np.random.Generator,
    bias: Optional[BiasPotential] = None,
) -> MhResult:
    """Run burn_in + thin*n_keep MH steps and return the thinned samples.

    The chain targets the problem's density times exp(-bias(r)), or the
    problem's density itself when `bias` is None, and moves by `proposal`
    alone: a random walk holds the coordinates whose step is zero. `init` is
    either a theta vector (evaluated once, +1 budget) or a ChainState from a
    previous segment (warm start, no extra evaluation).

    The normals and uniforms of each 1024-step block are drawn up front, so
    the states that the next steps can reach are known in advance. One call
    of the proposal's `log_base` scores a prefetch tree of S states by k
    steps: row (s, t) is keep * state_s + step_t, where state_0 is the
    current state and state_s (s >= 1) the one an acceptance at step s - 1
    moves to. The walk reads the current state's rows in order; after the
    first acceptance, at step s - 1, it reads row (s, t) from step s on. The
    call ends at the second acceptance, at a first one whose state the tree
    lacks, or after k steps, and its unread rows are discarded (counted in
    `extra_rows`). The shape follows the row width (module constants); up to
    320 columns, S = 1 only at a block's last step. Each row is the proposal
    the chain would build from its actual state, so the result does not
    depend on the shape. A biased chain needs each proposal's r before its
    decision, so it calls qoi on each row it takes. An unbiased chain decides
    on the base density alone: it calls qoi once per block, over the block's
    proposals, and reads r of the kept samples and the final state from it.
    Either way qoi sees one row per unit of budget, the start point's
    included.
    """
    budget = extra = 0
    if isinstance(init, ChainState):
        x, theta, r, log_base = init.x, init.theta, init.r, init.log_base
    else:
        x = proposal.latent(problem, np.asarray(init, dtype=float))
        (log_base,), rows = proposal.log_base(problem, x[None, :])
        if not math.isfinite(log_base):
            raise NumericError("initial point has non-finite base density")
        r, theta = problem.qoi(rows).item(), rows[0]
        budget = 1
    # Both biases return a float for a float r.
    log_value = log_base if bias is None else log_base - bias(r)

    d = problem.dim
    burn_in, thin, total = cfg.burn_in, cfg.thin, cfg.total_steps
    keep, scale = proposal.move(d)
    # 1.0 * x == x exactly, so a move that keeps x (the random walk) skips the product.
    shift_only = bool(np.all(np.equal(keep, 1.0)))
    most_states, most_steps = _TREE_SHAPE
    states = max(1, min(most_states, math.isqrt(_TREE_CELLS // d)))
    depth = max(1, min(most_steps, _TREE_CELLS // (states * d)))
    log_base_at, qoi = proposal.log_base, problem.qoi
    isfinite = math.isfinite

    kept_theta = np.empty((cfg.n_keep, d))
    kept_r = np.empty(cfg.n_keep)
    n_kept = 0
    next_kept = burn_in + thin - 1  # step index of the next thinned sample
    accepted_post = 0

    block = 1024
    step_idx = 0
    while step_idx < total:
        m = min(block, total - step_idx)
        steps = scale * rng.standard_normal((m, d))
        log_unifs = np.log(rng.uniform(size=m)).tolist()
        if bias is None:
            # An unbiased block reads r after the walk. Until then r holds the
            # step index of the state's proposal (start - 1 for the state the
            # block began from), and kept_r the same for the block's samples.
            proposed = np.empty((m, d))
            start, r_in, r, first_kept = step_idx, r, step_idx - 1, n_kept
        i = 0  # steps of the block walked so far
        while i < m:
            k = min(depth, m - i)
            n_states = min(states, k)
            step = steps[i : i + k]
            # row (s, t) = keep * state_s + step_t, where state_s (s >= 1) is row (0, s - 1)
            xs = np.empty((n_states, k, d))
            np.add(x if shift_only else keep * x, step, out=xs[0])
            heads = xs[0, : n_states - 1, None]
            np.add(heads if shift_only else keep * heads, step, out=xs[1:])
            xs = xs.reshape(-1, d)
            bases, rows = log_base_at(problem, xs)
            row, moved = 0, k  # the row the next step reads; the step at which the walk moved to a new state's rows
            for t, log_u in enumerate(log_unifs[i : i + k], 1):  # t: this call's steps, this one included
                base_prop = bases[row]
                if bias is None:
                    value_prop, r_prop = base_prop, step_idx
                else:
                    r_prop = qoi(rows[row : row + 1]).item()
                    value_prop = base_prop - bias(r_prop) if isfinite(base_prop) else base_prop
                log_ratio = value_prop - log_value
                accepted = log_ratio >= 0.0 or log_u < log_ratio
                if accepted:
                    x, theta, r, log_base, log_value = xs[row], rows[row], r_prop, base_prop, value_prop
                    accepted_post += step_idx >= burn_in
                if step_idx == next_kept:
                    kept_theta[n_kept] = theta
                    kept_r[n_kept] = r
                    n_kept += 1
                    next_kept += thin
                step_idx += 1
                if not accepted:
                    row += 1
                elif row < k and t < n_states:  # the first acceptance, to a state the tree holds
                    moved, row = t, t * (k + 1)
                else:
                    break
            if bias is None:
                first = min(t, moved)  # the steps walked on the current state's rows
                proposed[i : i + first] = rows[:first]
                proposed[i + first : i + t] = rows[first * (k + 1) : first * k + t]
            extra += n_states * k - t
            i += t
        if bias is None:
            rs = np.append(qoi(proposed), r_in)  # row -1 is the incoming r
            kept_r[first_kept:n_kept] = rs[kept_r[first_kept:n_kept].astype(np.intp) - start]
            r = rs[r - start].item()
    budget += total

    # Accepted points are rows of fresh arrays that are never written to, so
    # the state can hold them without copies.
    state = ChainState(x=x, theta=theta, r=r, log_base=log_base)
    rate = accepted_post / (total - cfg.burn_in)
    return MhResult(kept_theta, kept_r, rate, state, budget, extra)


def _adapt(problem, proposal_at: Callable[[float], Proposal], value: float, state, rng, target_accept: float,
           batch: int, n_batches: int, gain: float, bounds: tuple[float, float]):
    """Robbins-Monro adaptation of one positive proposal scale.

    After each batch of MH steps under proposal_at(value), the value is
    multiplied by exp(eta * (acceptance - target_accept)), eta = gain /
    sqrt(batch index), and clipped to bounds. `state` is a ChainState or a
    start point, which the first batch evaluates (+1 budget). Returns
    (value, state, budget, extra rows).
    """
    budget = extra = 0
    chain = ChainConfig(burn_in=0, thin=1, n_keep=batch)
    for b in range(1, n_batches + 1):
        res = mh_run(problem, proposal_at(value), state, chain, rng)
        budget += res.budget
        extra += res.extra_rows
        state = res.state
        eta = gain / math.sqrt(b)
        value = float(np.clip(value * math.exp(eta * (res.acceptance_rate - target_accept)), *bounds))
    return value, state, budget, extra


def check_tuning(target_accept: float, pilot_steps: int) -> None:
    """Reject tuning settings that no tuner can meet: a short pilot, or a target outside (0, 1)."""
    if pilot_steps < 200:
        raise ConfigurationError("method.proposal.pilot_steps must be >= 200")
    if not 0.0 < target_accept < 1.0:  # NaN fails both comparisons
        raise ConfigurationError("method.proposal.target_accept must lie in (0, 1)")


def tune_step_sizes(
    problem: TargetProblem,
    init: np.ndarray,
    rng: np.random.Generator,
    target_accept: float = 0.30,
    pilot_steps: int = 2000,
    groups: Optional[list[np.ndarray]] = None,
    init_steps: Optional[np.ndarray] = None,
) -> tuple[RandomWalk, int, int]:
    """Tune random-walk step sizes toward the target acceptance rate.

    Coordinates are tuned in groups (default: one group with all of them):
    half the pilot budget adapts each group's shared step scalar with a walk
    whose steps are zero outside the group, the other half a joint
    multiplier. Returns (tuned walk, pilot budget used, extra rows).
    """
    check_tuning(target_accept, pilot_steps)
    d = problem.dim
    if groups is None:
        groups = [np.arange(d)]
    steps = np.ones(d) if init_steps is None else np.asarray(init_steps, dtype=float).copy()
    steps = np.clip(steps, _STEP_FLOOR, _STEP_CAP)
    batch = 50
    n_group_batches = max(2, pilot_steps // (2 * batch * len(groups)))
    n_joint_batches = max(2, pilot_steps // (2 * batch))
    state, budget, extra = np.asarray(init, dtype=float), 0, 0
    for group in groups:
        group = np.asarray(group, dtype=int)

        def group_walk(scale):
            walk = np.zeros(d)
            walk[group] = max(scale, _STEP_FLOOR)  # the floor of every tuned step
            return RandomWalk(walk)

        scale = float(np.exp(np.mean(np.log(steps[group]))))
        scale, state, cost, cost_extra = _adapt(
            problem, group_walk, scale, state, rng, target_accept, batch, n_group_batches, 2.0, (_STEP_FLOOR, _STEP_CAP)
        )
        budget += cost
        extra += cost_extra
        steps[group] = scale

    def joint_walk(mult):
        return RandomWalk(np.clip(mult * steps, _STEP_FLOOR, None))

    mult, _, cost, cost_extra = _adapt(
        problem, joint_walk, 1.0, state, rng, target_accept, batch, n_joint_batches, 2.0, (1e-4, 1e4)
    )
    return RandomWalk(np.clip(mult * steps, _STEP_FLOOR, _STEP_CAP)), budget + cost, extra + cost_extra


def tune_pcn_beta(
    problem: TargetProblem,
    init: np.ndarray,
    rng: np.random.Generator,
    target_accept: float = 0.30,
    pilot_steps: int = 2000,
    beta0: float = 0.5,
) -> tuple[Pcn, int, int]:
    """Tune the pCN mixing parameter; returns (tuned pCN, pilot budget used, extra rows)."""
    check_tuning(target_accept, pilot_steps)
    n_batches = max(1, pilot_steps // 100)
    beta, _, budget, extra = _adapt(
        problem, Pcn, beta0, np.asarray(init, dtype=float), rng, target_accept, 100, n_batches, 1.0, (1e-4, 1.0)
    )
    return Pcn(beta), budget, extra
