"""Property tests of invariants that the unit tests check at single points."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import scalar_normal_problem
from rareebm.bias import GridBias, RbfBias
from rareebm.densities import Gaussian, Gev, GridFunction, grid_normalize
from rareebm.estimator import free_energy_from_bias, tail_probability
from rareebm.harness import load_config
from rareebm.ksd import SteinKernelConfig, stein_kernel_matrix
from rareebm.mcmc import (
    _STEP_CAP,
    _STEP_FLOOR,
    BiasedTarget,
    ChainConfig,
    Pcn,
    RandomWalk,
    mh_run,
    tune_pcn_beta,
    tune_step_sizes,
)
from rareebm.problems import ContaminationSpec, LoadCapacitySpec, RareEventQuery, contamination_problem, load_capacity_problem
from rareebm.subset import _MAX_LEVELS, AdaptiveSchedule, FixedLogSchedule, SubsetConfig, subset_estimate

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(
    burn_in=st.integers(0, 20),
    thin=st.integers(1, 4),
    n_keep=st.integers(1, 30),
    pcn=st.booleans(),
    biased=st.booleans(),
    seed=seeds,
)
def test_budget_is_the_number_of_evaluations(burn_in, thin, n_keep, pcn, biased, seed):
    calls = []
    base = scalar_normal_problem()

    def qoi(theta):
        calls.append(len(theta))
        return base.qoi(theta)

    problem = dataclasses.replace(base, qoi=qoi)
    bias = GridBias(GridFunction.from_callable(-5.0, 5.0, 0.5, lambda r: 0.3 * r)) if biased else None
    target = BiasedTarget(problem, bias)
    proposal = Pcn(0.5) if pcn else RandomWalk(np.array([1.0]))
    cfg = ChainConfig(burn_in=burn_in, thin=thin, n_keep=n_keep)
    rng = np.random.default_rng(seed)
    cold = mh_run(target, proposal, np.zeros(1), cfg, rng)
    assert cold.budget == cfg.total_steps + 1 == sum(calls)
    warm = mh_run(target, proposal, cold.state, cfg, rng)
    assert warm.budget == cfg.total_steps
    assert sum(calls) == cold.budget + warm.budget
    assert cold.thetas.shape == (n_keep, 1) and len(warm.rs) == n_keep


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(float, 11, elements=st.floats(-50.0, 50.0)),
    r=arrays(float, 7, elements=st.floats(-10.0, 10.0)),
)
def test_with_params_of_params_is_the_same_potential(values, r):
    for bias in (GridBias(GridFunction(-5.0, 5.0, 1.0, values)), RbfBias(values, np.linspace(-5.0, 5.0, 11), 0.7)):
        same = bias.with_params(bias.params)
        assert type(same) is type(bias)
        np.testing.assert_array_equal(same(r), bias(r))


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(arrays(float, 9, elements=st.floats(-50.0, 50.0)), min_size=1, max_size=4),
    kappa=st.floats(0.1, 3.0),
    lo=st.floats(-10.0, 0.0),
    h=st.sampled_from([0.05, 0.1, 0.25]),
    r=st.floats(-12.0, 12.0),
)
def test_rbf_grid_readout_is_features_times_weights(weights, kappa, lo, h, r):
    grids = [GridFunction.zeros(lo, lo + 10.0, h), GridFunction.zeros(lo - 1.0, lo + 12.0, h)]
    bias = RbfBias(np.zeros(9), np.linspace(-6.0, 6.0, 9), kappa)
    for grid in grids:
        for w in weights:
            bias = bias.with_params(w)
            np.testing.assert_array_equal(bias(grid.xs), bias.features(grid.xs) @ w)
            # a scalar or a writeable sample array neither fills nor evicts the cache
            samples = np.array([r, -r])
            assert bias(r) == bias.features(r) @ w
            np.testing.assert_array_equal(bias(samples), bias.features(samples) @ w)
            assert bias._grid_features[0] is grid.xs


@settings(max_examples=50, deadline=None)
@given(
    samples=arrays(float, st.integers(2, 30), elements=st.floats(-20.0, 20.0)),
    kind=st.sampled_from(["se", "imq"]),
    bandwidth=st.one_of(st.none(), st.floats(0.05, 10.0)),
    mean=st.floats(-5.0, 5.0),
    sd=st.floats(0.2, 5.0),
)
def test_stein_kernel_matrix_is_symmetric(samples, kind, bandwidth, mean, sd):
    kmat = stein_kernel_matrix(samples, samples, Gaussian(mean, sd), SteinKernelConfig(kind=kind, bandwidth=bandwidth))
    # entries (i, j) and (j, i) add the two cross terms in opposite order
    scale = float(np.abs(kmat).max())
    np.testing.assert_allclose(kmat, kmat.T, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(-100.0, 100.0),
    h=st.floats(0.01, 10.0),
    values=arrays(float, st.integers(2, 60), elements=st.floats(-1e6, 1e6)),
)
def test_grid_bias_returns_its_values_at_the_nodes(lo, h, values):
    grid = GridFunction(lo, lo + (len(values) - 1) * h, h, values)
    bias = GridBias(grid)
    np.testing.assert_array_equal(bias(grid.xs), values)
    # the MH loop evaluates one scalar at a time
    assert [bias(x) for x in grid.xs.tolist()] == values.tolist()


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-100.0, 100.0),
    h=st.floats(1e-3, 10.0),
    n=st.integers(2, 2001),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    seed=seeds,
    k=st.integers(0, 2000),
    u=st.floats(-0.25, 1.25),
)
def test_scalar_grid_bias_is_np_interp_bit_for_bit(lo, h, n, scale, seed, k, u):
    values = scale * np.random.default_rng(seed).standard_normal(n)
    grid = GridFunction(lo, lo + (n - 1) * h, h, values)
    bias = GridBias(grid)
    xs = grid.xs
    k %= n
    edges = [xs[0], xs[-1]]
    points = [
        xs[k],
        lo + k * h,  # a hair off the node where linspace rounds differently
        np.nextafter(xs[k], -math.inf),
        np.nextafter(xs[k], math.inf),
        *edges,
        *(np.nextafter(e, side) for e in edges for side in (-math.inf, math.inf)),
        xs[0] + u * (xs[-1] - xs[0]),  # interior, or beyond either edge
        math.nan,
    ]
    for x in map(float, points):
        got = bias(x)
        assert type(got) is float
        assert _same(got, float(np.interp(x, xs, values))), x


def _closure_rows(problem, theta):
    calls = [problem.log_prior, problem.log_likelihood, problem.qoi]
    if problem.from_standard_normal is not None:
        calls.append(problem.from_standard_normal)
    for f in calls:
        batched = f(theta)
        for i in range(len(theta)):
            np.testing.assert_array_equal(f(theta[i : i + 1])[0], batched[i])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), spread=st.floats(0.01, 10.0), seed=seeds)
def test_contamination_closures_on_one_row_equal_the_batched_row(n, spread, seed):
    problem = contamination_problem(ContaminationSpec()).problem
    theta = 1.0 + spread * np.random.default_rng(seed).standard_normal((n, problem.dim))
    _closure_rows(problem, theta)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), n_components=st.sampled_from([1, 10, 100]), spread=st.floats(0.01, 10.0), seed=seeds)
def test_load_capacity_closures_on_one_row_equal_the_batched_row(n, n_components, spread, seed):
    problem = load_capacity_problem(LoadCapacitySpec(n_components=n_components)).problem
    rng = np.random.default_rng(seed)
    u = spread * rng.standard_normal((n, problem.dim))
    theta = problem.from_standard_normal(u)
    # a capacity at or below zero lies outside the prior's support
    theta[rng.random(theta.shape) < 0.05] *= -1.0
    theta[rng.random(theta.shape) < 0.02] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # qoi takes the log of every capacity
        _closure_rows(problem, theta)
    for i in range(n):
        np.testing.assert_array_equal(problem.from_standard_normal(u[i : i + 1])[0], problem.from_standard_normal(u)[i])


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(float, 161, elements=st.floats(-30.0, 30.0)),
    ref=st.sampled_from([Gaussian(0.0, 1.5), Gaussian(3.0, 0.4), Gev(0.0, 1.0, 0.0), Gev(-1.0, 1.0, 0.5)]),
)
def test_readout_density_integrates_to_one(values, ref):
    grid = GridFunction.zeros(-4.0, 4.0, 0.05)
    est = free_energy_from_bias(GridBias(grid.with_values(values)), ref, grid)
    assert np.trapezoid(est.density.values, dx=grid.h) == pytest.approx(1.0, rel=1e-12, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(float, st.integers(2, 300), elements=st.floats(0.0, 1e6)),
    h=st.floats(1e-3, 10.0),
)
def test_grid_normalize_integrates_to_one(values, h):
    values[0] += 1.0  # a positive total
    g = grid_normalize(GridFunction(0.0, (len(values) - 1) * h, h, values))
    assert np.trapezoid(g.values, dx=g.h) == pytest.approx(1.0, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    adaptive=st.booleans(),
    p0=st.floats(0.05, 0.5),
    start=st.floats(-3.0, 3.0),
    n_levels=st.integers(1, 12),
    final=st.floats(-2.0, 3.5),
    seed=seeds,
)
def test_subset_ladder_rises_to_the_final_threshold(adaptive, p0, start, n_levels, final, seed):
    schedule = AdaptiveSchedule(p0) if adaptive else FixedLogSchedule(start=start, n_levels=n_levels)
    cfg = SubsetConfig(n_samples=50, mh_steps_per_seed=2, schedule=schedule)
    res = subset_estimate(scalar_normal_problem(), RareEventQuery(final), cfg, np.random.default_rng(seed))
    ladder = [lev.threshold for lev in res.levels]
    assert all(a <= b for a, b in zip(ladder, ladder[1:]))
    if not res.level_failure:
        assert ladder[-1] == final
    else:  # no sample survived a level, or the ladder stalled below the final threshold
        assert ladder[-1] <= final and (res.p_hat == 0.0 or len(ladder) == _MAX_LEVELS + 1)


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(float, 81, elements=st.floats(-20.0, 20.0)),
    c=st.floats(-1e3, 1e3),
    threshold=st.floats(-3.9, 3.9),
)
def test_grid_p_hat_is_invariant_under_a_constant_shift(values, c, threshold):
    grid = GridFunction.zeros(-4.0, 4.0, 0.1)
    p_ref = Gaussian(0.0, 1.5)
    bias = GridBias(grid.with_values(values))
    shifted = bias.with_params(bias.params + c)
    pa = tail_probability(free_energy_from_bias(bias, p_ref, grid), threshold)
    pb = tail_probability(free_energy_from_bias(shifted, p_ref, grid), threshold)
    # V + c moves every exponent by c before the max is subtracted, so the
    # results differ only by the rounding of c: a few ulps of 1e3.
    assert pb == pytest.approx(pa, rel=1e-9, abs=0.0)


@settings(max_examples=10, deadline=None)
@given(target_accept=st.floats(0.01, 0.99), init_step=st.floats(1e-9, 1e5), beta0=st.floats(1e-4, 1.0), seed=seeds)
def test_tuned_scales_stay_within_their_clip_bounds(target_accept, init_step, beta0, seed):
    target = BiasedTarget(scalar_normal_problem())
    rng = np.random.default_rng(seed)
    steps, _ = tune_step_sizes(
        target, np.zeros(1), rng, target_accept=target_accept, pilot_steps=200, init_steps=np.array([init_step])
    )
    assert np.all((_STEP_FLOOR <= steps) & (steps <= _STEP_CAP))
    beta, _ = tune_pcn_beta(target, np.zeros(1), rng, target_accept=target_accept, pilot_steps=200, beta0=beta0)
    assert 1e-4 <= beta <= 1.0


configs = st.fixed_dictionaries(
    {
        "problem": st.fixed_dictionaries({"name": st.sampled_from(["contamination", "four_branch", "load_capacity"])}),
        "query": st.fixed_dictionaries({"thresholds": st.lists(st.floats(-50.0, 100.0), min_size=1, max_size=3)}),
        "method": st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["ebm", "subset"]),
                "form": st.sampled_from(["grid", "rbf"]),
                "estimate_average": st.sampled_from(["probability", "potential"]),
                "momentum": st.floats(0.0, 1.0, exclude_max=True),
                "proposal": st.fixed_dictionaries({"kind": st.sampled_from(["random_walk", "pcn", "default"])}),
                "p_ref": st.fixed_dictionaries({"kind": st.sampled_from(["gaussian", "gev"])}),
                "learning_rate": st.sampled_from([{"kind": "constant"}, {"kind": "exp_decay", "factor": -0.01}]),
                "subset": st.fixed_dictionaries(
                    {"schedule": st.fixed_dictionaries({"kind": st.sampled_from(["adaptive", "fixed_log"])})}
                ),
            }
        ),
        "runs": st.fixed_dictionaries({"n_runs": st.integers(1, 100), "base_seed": st.integers(0, 10**6)}),
    }
)


@settings(max_examples=50, deadline=None)
@given(cfg=configs)
def test_load_config_is_idempotent(cfg):
    once = load_config(cfg)
    assert load_config(once) == once
    # summary.json stores the loaded config as JSON; it must load back unchanged
    assert load_config(json.loads(json.dumps(once))) == once
