"""Property tests of invariants that the unit tests check at single points."""

import dataclasses
import json
import math
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import counting_base, counting_qoi, scalar_normal_problem
from rareebm.bias import _RBF_CUTOFF, GridBias, RbfBias
from rareebm.densities import _EXP_FLOOR, Gaussian, Gev, GridFunction, grid_normalize, kde_gaussian, nrd_bandwidth
from rareebm.estimator import FreeEnergyEstimate, free_energy_from_bias, tail_probability
from rareebm.errors import ConfigurationError, NumericError
from rareebm.harness import build_problem, load_config, run_replicate
from rareebm.ksd import (
    _BOOT_BLOCK_BYTES,
    KsdTestConfig,
    KsdTestResult,
    SteinKernelConfig,
    _self_median_heuristic_bandwidth,
    stein_kernel_matrix,
    wild_bootstrap_test,
)
from rareebm import mcmc
from rareebm.mcmc import (
    _STEP_CAP,
    _STEP_FLOOR,
    ChainConfig,
    ChainState,
    MhResult,
    Pcn,
    RandomWalk,
    mh_run,
    tune_pcn_beta,
    tune_step_sizes,
)
from rareebm.problems import (
    ContaminationSpec,
    LoadCapacitySpec,
    _TINY,
    RareEventQuery,
    contamination_problem,
    four_branch,
    four_branch_problem,
    load_capacity_problem,
)
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
# an unbiased chain calls qoi once per 1024-step block: a full block and a partial one
@example(burn_in=1000, thin=4, n_keep=30, pcn=False, biased=False, seed=0)
@example(burn_in=1000, thin=4, n_keep=30, pcn=True, biased=False, seed=0)
def test_budget_is_the_number_of_evaluations(burn_in, thin, n_keep, pcn, biased, seed):
    problem, calls = counting_qoi(scalar_normal_problem())
    grid = GridFunction.zeros(-5.0, 5.0, 0.5)
    bias = GridBias(grid.with_values(0.3 * grid.xs)) if biased else None
    proposal = Pcn(0.5) if pcn else RandomWalk(np.array([1.0]))
    cfg = ChainConfig(burn_in=burn_in, thin=thin, n_keep=n_keep)
    rng = np.random.default_rng(seed)
    cold = mh_run(problem, proposal, np.zeros(1), cfg, rng, bias=bias)
    assert cold.budget == cfg.total_steps + 1 == sum(calls)
    warm = mh_run(problem, proposal, cold.state, cfg, rng, bias=bias)
    assert warm.budget == cfg.total_steps
    assert sum(calls) == cold.budget + warm.budget
    if not biased:  # the first point, then one call per block of each run
        assert len(calls) == 1 + 2 * -(-cfg.total_steps // 1024)
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


def _rbf_reference(bias, r):
    """RBF features as the one array expression, every exponent at or below the floor set to 0.0."""
    r = np.asarray(r, dtype=float)
    t = -((bias.kappa * (r[..., None] - bias.centers)) ** 2)
    return np.where(t <= _EXP_FLOOR, 0.0, np.exp(t))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n_centers=st.integers(1, 600),
    span=st.floats(1e-3, 400.0),
    kappa=st.floats(0.01, 5.0),
    seed=seeds,
    j=st.integers(0, 599),
    u=st.floats(-0.5, 1.5),
)
# load_capacity_100_rbf's bias at a typical r: 266 of the 500 terms in reach
@example(n_centers=500, span=200.0, kappa=0.5, seed=1, j=235, u=0.47)
@example(n_centers=3, span=4.0, kappa=2.0, seed=2, j=1, u=0.5)  # 2 spacings per unit of kappa * r
def test_rbf_bias_is_the_floored_exponential_bit_for_bit(n_centers, span, kappa, seed, j, u):
    centers = np.linspace(-span / 2.0, span / 2.0, n_centers)
    weights = np.random.default_rng(seed).standard_normal(n_centers)
    bias = RbfBias(weights, centers, kappa)
    spacing = span / max(n_centers - 1, 1)
    reach = _RBF_CUTOFF / kappa  # where the exponent of b_j's term reaches the floor
    b, first, last = centers[j % n_centers], centers[0], centers[-1]
    points = [
        b,  # exactly on a center
        first - 3.0 * reach - span,  # far outside the centers, every term 0.0
        last + 3.0 * reach + span,
        # a center one spacing inside, at, and one spacing beyond the cutoff
        *(b + side * (reach + d) for side in (-1.0, 1.0) for d in (-spacing, 0.0, spacing)),
        # one ulp either side of the outermost centers' reach
        *(math.nextafter(x, toward) for x in (first - reach, last + reach) for toward in (-math.inf, math.inf)),
        first + u * (last - first),  # interior, or beyond either end
        math.nan,
        math.inf,
        -math.inf,
    ]
    for x in points:
        want = _rbf_reference(bias, x)
        for r in (float(x), np.float64(x)):
            assert _bits(bias(r)) == _bits(want @ weights), r
            assert _bits(bias.features(r)) == _bits(want), r
    samples = np.array(points)
    want = _rbf_reference(bias, samples)
    assert _bits(bias(samples)) == _bits(want @ weights)
    assert _bits(bias.features(samples)) == _bits(want)
    # a grid's read-only nodes: the first call fills the feature cache, the second reads it
    xs = GridFunction.zeros(first - reach - spacing, last + reach + spacing, max(spacing, reach / 50.0)).xs
    want = _rbf_reference(bias, xs) @ weights
    assert _bits(bias(xs)) == _bits(want)
    assert bias._grid_features[0] is xs
    assert _bits(bias(xs)) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(
    centers=arrays(float, st.integers(1, 40), elements=st.floats(-200.0, 200.0), unique=True),
    kappa=st.floats(0.01, 5.0),
    x=st.floats(),  # any double, +-inf and NaN included
    i=st.integers(0, 39),
    side=st.sampled_from([-1.0, 1.0]),
    ulps=st.integers(-3, 3),
)
@example(centers=np.array([0.0]), kappa=1.0, x=1e200, i=0, side=1.0, ulps=0)
def test_rbf_terms_are_zero_or_normal(centers, kappa, x, i, side, ulps):
    """No RBF term, in features or in the float read, lies strictly between 0 and DBL_MIN.

    A huge r's exponent is -inf and its term 0.0, and no overflow warning reaches the caller.
    """
    centers = np.sort(centers)
    near = float(centers[i % len(centers)] + side * _RBF_CUTOFF / kappa)  # a term's exponent near the floor
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.copysign(math.inf, ulps))
    bias = RbfBias(np.zeros(len(centers)), centers, kappa)
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for r in (x, near):
            feats = bias.features(r)
            assert not np.any((feats > 0.0) & (feats < tiny)), r
            if math.isfinite(r):
                # the float read with unit weights returns one of its terms exactly
                read = np.array([bias.with_params(unit)(r) for unit in np.eye(len(centers))])
                assert not np.any((read > 0.0) & (read < tiny)), r


@settings(max_examples=50, deadline=None)
@given(
    samples=arrays(float, st.integers(2, 30), elements=st.floats(-20.0, 20.0)),
    bandwidth=st.one_of(st.none(), st.floats(0.05, 10.0)),
    mean=st.floats(-5.0, 5.0),
    sd=st.floats(0.2, 5.0),
)
def test_stein_kernel_matrix_is_symmetric(samples, bandwidth, mean, sd):
    kmat = stein_kernel_matrix(samples, samples, Gaussian(mean, sd), SteinKernelConfig(bandwidth=bandwidth))
    # entries (i, j) and (j, i) add the two cross terms in opposite order
    scale = float(np.abs(kmat).max())
    np.testing.assert_allclose(kmat, kmat.T, rtol=1e-12, atol=1e-12 * scale)


def _stein_kernel_reference(r, p_ref, bandwidth):
    """stein_kernel_matrix(r, r) as its former one expression over n x n arrays."""
    if bandwidth is None:
        bandwidth = _self_median_heuristic_bandwidth(r)
    score = np.asarray(p_ref.score(r), dtype=float)
    diff = r[:, None] - r[None, :]
    h2 = bandwidth**2
    k = np.exp(-0.5 * diff * diff / h2)
    dk_dr = -diff / h2 * k
    dk_ds = diff / h2 * k
    d2k = (1.0 / h2 - diff * diff / h2**2) * k
    return d2k + dk_dr * score[None, :] + dk_ds * score[:, None] + k * score[:, None] * score[None, :]


@settings(max_examples=100, deadline=None)
@given(
    samples=arrays(float, st.integers(1, 60), elements=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                                                 st.floats(-20.0, 20.0))),
    bandwidth=st.one_of(st.none(), st.floats(1e-3, 30.0)),
    gumbel=st.booleans(),
    location=st.floats(-5.0, 5.0),
    scale=st.floats(0.2, 5.0),
)
@example(samples=np.array([1.0, 1.0, 1.0]), bandwidth=None, gumbel=False, location=0.0, scale=1.0)  # all tied: the floor
def test_stein_kernel_matrix_is_the_one_expression_bit_for_bit(samples, bandwidth, gumbel, location, scale):
    p_ref = Gev(location, scale) if gumbel else Gaussian(location, scale)
    got = stein_kernel_matrix(samples, samples, p_ref, SteinKernelConfig(bandwidth=bandwidth))
    assert _bits(got) == _bits(_stein_kernel_reference(samples, p_ref, bandwidth))


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


def _doubled_median_bandwidth(x):
    """The median heuristic over concatenate([x, x]), formed pair by pair."""
    both = np.concatenate([x, x])
    d = np.abs(both[:, None] - both[None, :])
    return max(float(np.median(d[np.triu_indices(len(both), k=1)])), 1e-3)


@settings(max_examples=200, deadline=None)
@given(
    x=arrays(float, st.integers(2, 60), elements=st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(-1e3, 1e3))),
    nan_at=st.one_of(st.none(), st.integers(0, 59)),
)
@example(x=np.array([1.0, 3.0]), nan_at=None)  # n = 2: n(2n - 1) = 6 pairs, even
@example(x=np.array([1.0, 3.0, 3.0]), nan_at=None)  # a tie; 15 pairs, odd
@example(x=np.array([1.0, 1.0, 1.0, 1.0]), nan_at=None)  # all tied: the floor
# n = 8 (120 pairs): the two middle ranks fall on different distances of x,
# which needs n a multiple of 8
@example(x=np.array([0.0, 1.0, 3.0, 7.0, 12.0, 20.0, 31.0, 45.0]), nan_at=None)
@example(x=np.array([1.0, 3.0, 4.0]), nan_at=1)
def test_self_pair_bandwidth_is_the_doubled_set_median(x, nan_at):
    if nan_at is not None:
        x[nan_at % len(x)] = math.nan
    assert _same(_self_median_heuristic_bandwidth(x), _doubled_median_bandwidth(x))


def _kde_reference(samples, grid, bandwidth):
    """kde_gaussian's values as one node-by-sample array expression, every exponent at or below the floor set to 0.0."""
    if bandwidth is None:
        bandwidth = nrd_bandwidth(samples)
    z = (grid.xs[:, None] - samples[None, :]) / bandwidth
    t = -0.5 * z * z
    return np.where(t <= _EXP_FLOOR, 0.0, np.exp(t)).sum(axis=1) / (len(samples) * bandwidth * math.sqrt(2.0 * math.pi))


@settings(max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(2, 3000),
    n=st.integers(2, 300),
    center=st.floats(-1.5, 1.5),
    spread=st.floats(1e-3, 30.0),
    bandwidth=st.one_of(st.none(), st.floats(1e-3, 30.0)),
    seed=seeds,
)
# 2001 nodes and 125 samples, as in contamination_ebm_nonpar (30 blocks of 65
# nodes and one of 51): a data-driven bandwidth of 2.4 computes every node, a
# fixed 0.3 skips 810 nodes below the samples and 608 above them
@example(n_nodes=2001, n=125, center=0.1, spread=7.0, bandwidth=None, seed=1)
@example(n_nodes=2001, n=125, center=0.1, spread=7.0, bandwidth=0.3, seed=2)
@example(n_nodes=7, n=3, center=0.0, spread=1.0, bandwidth=25.0, seed=3)  # one partial block, nothing skipped
def test_kde_is_the_one_array_expression_bit_for_bit(n_nodes, n, center, spread, bandwidth, seed):
    grid = GridFunction.zeros(-100.0, 100.0, 200.0 / (n_nodes - 1))
    samples = 100.0 * center + spread * np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_array_equal(kde_gaussian(samples, grid, bandwidth).values, _kde_reference(samples, grid, bandwidth))


def _wild_bootstrap_reference(kmat, test_cfg, rng):
    """wild_bootstrap_test with the sign chain as a running product of the +-1 steps.

    A chain with no flip is the all-+1 chain, whose statistic is s_obs exactly,
    so it counts as an exceedance.
    """
    n = len(kmat)
    s_obs = float(kmat.sum()) / n**2
    flips = rng.random((test_cfg.n_boot, n)) < test_cfg.a_bs
    flips[:, 0] = False
    w = np.cumprod(np.where(flips, -1.0, 1.0), axis=1)
    s_boot = np.einsum("bi,ij,bj->b", w, kmat, w, optimize=True) / n**2
    exceed = int(np.sum((s_boot >= s_obs) | ~flips.any(axis=1)))
    p_value = (1.0 + exceed) / (test_cfg.n_boot + 1.0)
    return KsdTestResult(reject=p_value < (1.0 - test_cfg.alpha), p_value=p_value, statistic=s_obs)


# Replicates per block at n = 125, the sample count of the shipped configs:
# groups of 8 rows of 125 float64 signs, as many as fit in _BOOT_BLOCK_BYTES.
BOOT_BLOCK = _BOOT_BLOCK_BYTES // (8 * 8 * 125) * 8


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 150),
    shift=st.floats(0.0, 1.5),
    a_bs=st.floats(0.01, 0.5),
    n_boot=st.integers(1, 400),
    seed=seeds,
)
@example(n=125, shift=0.3, a_bs=0.4, n_boot=1000, seed=7)  # the shipped test settings
@example(n=125, shift=0.3, a_bs=0.4, n_boot=1, seed=7)
@example(n=125, shift=0.3, a_bs=0.4, n_boot=BOOT_BLOCK - 1, seed=7)
@example(n=125, shift=0.3, a_bs=0.4, n_boot=BOOT_BLOCK, seed=7)
@example(n=125, shift=0.3, a_bs=0.4, n_boot=BOOT_BLOCK + 1, seed=7)
@example(n=125, shift=0.3, a_bs=0.4, n_boot=BOOT_BLOCK + 8, seed=7)  # a full block and a block of 8
@example(n=125, shift=0.3, a_bs=0.4, n_boot=1003, seed=7)  # full blocks and a remainder
@example(n=125, shift=0.3, a_bs=0.01, n_boot=1000, seed=7)  # most sign chains unflipped
@example(n=2, shift=0.3, a_bs=0.4, n_boot=1000, seed=7)  # one block covers every replicate
@example(n=2, shift=0.3, a_bs=0.01, n_boot=400, seed=7)  # nearly every sign chain unflipped
def test_wild_bootstrap_result_is_the_cumprod_chain_result(n, shift, a_bs, n_boot, seed):
    samples = shift + np.random.default_rng(seed).standard_normal(n)
    p_ref, kernel, test_cfg = Gaussian(0.0, 1.0), SteinKernelConfig(), KsdTestConfig(a_bs=a_bs, n_boot=n_boot)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = wild_bootstrap_test(samples, p_ref, kernel, test_cfg, rng)
    kmat = stein_kernel_matrix(samples, samples, p_ref, kernel)
    assert got == _wild_bootstrap_reference(kmat, test_cfg, ref_rng)
    # the blocks take the uniforms of rng.random((n_boot, n)) in order, and no others
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
# r from u exactly on an interior node, on the lower edge and on the upper edge
@example(lo=0.0, h=0.5, n=5, scale=1.0, seed=0, k=1, u=0.5)
@example(lo=0.0, h=0.5, n=5, scale=1.0, seed=0, k=1, u=0.0)
@example(lo=0.0, h=0.5, n=5, scale=1.0, seed=0, k=1, u=1.0)
def test_scalar_grid_bias_is_np_interp_bit_for_bit(lo, h, n, scale, seed, k, u):
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal(n)
    grid = GridFunction(lo, lo + (n - 1) * h, h, values)
    bias = GridBias(grid)
    # read only after the original's float reads, whose node list it shares
    other = scale * rng.standard_normal(n)
    copy = bias.with_params(other)
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
    for x in map(float, points):
        assert _same(copy(x), float(np.interp(x, xs, other))), x
        assert _same(bias(x), float(np.interp(x, xs, values))), x


def _closure_rows(problem, theta):
    for f in (problem.log_prior, problem.log_likelihood, problem.qoi, problem.from_standard_normal):
        if f is None:
            continue
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
@given(n=st.integers(1, 40), spread=st.floats(0.01, 10.0), seed=seeds)
def test_four_branch_closures_on_one_row_equal_the_batched_row(n, spread, seed):
    # a quarter of the rows have t1 == t2, where the last two branches tie
    theta = spread * np.random.default_rng(seed).standard_normal((n, 2))
    theta[: n // 4, 1] = theta[: n // 4, 0]
    _closure_rows(four_branch_problem(), theta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    # a load below loc - 709.8 * scale, where the Gumbel log prior's exp(-z) overflows to -inf
    theta = np.vstack([theta, np.r_[-600.0, problem.init_point[1:]]])
    _closure_rows(problem, theta)
    assert problem.log_prior(theta[-1:])[0] == -math.inf
    for i in range(n):
        np.testing.assert_array_equal(problem.from_standard_normal(u[i : i + 1])[0], problem.from_standard_normal(u)[i])


def _bits(a: float) -> bytes:
    return np.float64(a).tobytes()


PROBLEMS = {
    "contamination": lambda: contamination_problem(ContaminationSpec()).problem,
    "four_branch": four_branch_problem,
    "load_capacity": lambda: load_capacity_problem(LoadCapacitySpec()).problem,
}
# load_capacity_100's 101 columns, the widest rows of a shipped config
WIDE_PROBLEMS = {"load_capacity_100": lambda: load_capacity_problem(LoadCapacitySpec(n_components=100)).problem}


def _one_row_log_base(problem, proposal, x):
    """(log base density, theta row of shape (1, d)) at the latent point x: the single-row form of `log_base`.

    The random walk sums its log target in floats, the same IEEE addition
    as the rows form's array add.
    """
    if isinstance(proposal, Pcn):
        row = problem.from_standard_normal(x[None, :])
        return 0.0 if problem.log_likelihood is None else problem.log_likelihood(row).item(), row
    row = x[None, :]
    log_base = problem.log_prior(row).item()
    if problem.log_likelihood is not None:
        log_base += problem.log_likelihood(row).item()
    return log_base, row


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["contamination", "four_branch", "load_capacity"]),
    pcn=st.booleans(),
    spread=st.floats(0.01, 10.0),
    flip=st.integers(-1, 10),
    n=st.integers(1, 64),  # up to a full prefetch tree
    seed=seeds,
)
# a non-positive capacity lies outside the prior: the log target is -inf
@example(name="load_capacity", pcn=False, spread=1.0, flip=3, n=1, seed=0)
def test_proposal_log_base_rows_are_the_one_row_base_density_bit_for_bit(name, pcn, spread, flip, n, seed):
    problem = PROBLEMS[name]()
    pcn = pcn and problem.from_standard_normal is not None
    u = spread * np.random.default_rng(seed).standard_normal((n, problem.dim))
    if pcn:
        proposal, xs = Pcn(0.5), u
    else:
        proposal = RandomWalk(np.ones(problem.dim))
        # the random walk's latent point is theta itself
        xs = 1.0 + u if problem.from_standard_normal is None else problem.from_standard_normal(u)
        if name == "load_capacity" and flip >= 0:
            xs[0, 1 + flip % (problem.dim - 1)] *= -1.0
    bases, rows = proposal.log_base(problem, xs)
    assert type(bases) is list and len(bases) == n and rows.shape == (n, problem.dim)
    for i, x in enumerate(xs):
        want, want_row = _one_row_log_base(problem, proposal, x)
        assert type(bases[i]) is float and _bits(bases[i]) == _bits(want)
        assert rows[i].tobytes() == want_row.tobytes()
        # a biased chain calls qoi on each row it takes, as a (1, d) view of the rows
        assert _bits(problem.qoi(rows[i : i + 1]).item()) == _bits(problem.qoi(want_row).item())
    if name == "load_capacity" and flip >= 0 and not pcn:
        assert bases[0] == -math.inf


def _assert_same_chain(a, b):
    assert a.thetas.tobytes() == b.thetas.tobytes() and a.rs.tobytes() == b.rs.tobytes()
    assert (a.acceptance_rate, a.budget) == (b.acceptance_rate, b.budget)
    assert a.state.x.tobytes() == b.state.x.tobytes() and a.state.theta.tobytes() == b.state.theta.tobytes()
    assert type(a.state.r) is float and type(a.state.log_base) is float
    assert _bits(a.state.r) == _bits(b.state.r) and _bits(a.state.log_base) == _bits(b.state.log_base)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    pcn=st.booleans(),
    # 1e3: a random walk that accepts nothing; a pCN beta of 1 draws afresh from the prior,
    # which load_capacity's likelihood rejects for long stretches
    scale=st.sampled_from([0.01, 0.1, 0.5, 1.0, 1e3]),
    held=st.booleans(),  # a random walk with zero steps on the odd coordinates
    # totals of 1 to 2025 steps, on either side of the 1024-step block and of two blocks
    burn_in=st.sampled_from([0, 1, 1000, 1023, 1024, 1025]),
    thin=st.sampled_from([1, 2, 25]),
    n_keep=st.integers(1, 40),
    seed=seeds,
)
# load_capacity's walk proposes non-positive capacities, where the log target is -inf
@example(name="load_capacity", pcn=False, scale=0.5, held=False, burn_in=1000, thin=2, n_keep=40, seed=0)
@example(name="contamination", pcn=False, scale=1e3, held=True, burn_in=1024, thin=25, n_keep=40, seed=1)
def test_unbiased_chain_equals_the_per_row_chain_bit_for_bit(name, pcn, scale, held, burn_in, thin, n_keep, seed):
    problem = PROBLEMS[name]()
    proposal = _chain_proposal(problem, pcn, scale, held)
    cfg = ChainConfig(burn_in=burn_in, thin=thin, n_keep=n_keep)
    # zero everywhere, beyond its edges too: the per-row path, whose r changes no decision
    zero = GridBias.zero(-1e4, 1e4, 1.0)
    a_init = b_init = problem.init_point
    for segment in range(2):  # a cold start, then a warm start from each chain's own state
        a = mh_run(problem, proposal, a_init, cfg, np.random.default_rng(seed + segment))
        b = mh_run(problem, proposal, b_init, cfg, np.random.default_rng(seed + segment), bias=zero)
        _assert_same_chain(a, b)
        a_init, b_init = a.state, b.state


def _chain_proposal(problem, pcn, scale, held):
    """pCN at beta = scale where it applies, else a walk of steps scale, zero on the odd coordinates if held."""
    if pcn and problem.to_standard_normal is not None and scale <= 1.0:
        return Pcn(scale)
    steps = np.full(problem.dim, scale)
    if held:
        steps[1::2] = 0.0
    return RandomWalk(steps)


def _per_row_mh_run(problem, proposal, init, cfg, rng, bias=None):
    """mh_run as it was before speculation: one single-row base-density call per proposal."""
    budget = 0
    if isinstance(init, ChainState):
        x, theta, r, log_base = init.x, init.theta, init.r, init.log_base
    else:
        x = proposal.latent(problem, np.asarray(init, dtype=float))
        log_base, row = _one_row_log_base(problem, proposal, x)
        r, theta = problem.qoi(row).item(), row[0]
        budget = 1
    log_value = log_base if bias is None else log_base - bias(r)

    d = problem.dim
    keep, scale = proposal.move(d)
    shift_only = bool(np.all(np.equal(keep, 1.0)))
    kept_theta, kept_r = np.empty((cfg.n_keep, d)), np.empty(cfg.n_keep)
    n_kept, next_kept, accepted_post, step_idx = 0, cfg.burn_in + cfg.thin - 1, 0, 0
    while step_idx < cfg.total_steps:
        m = min(1024, cfg.total_steps - step_idx)
        steps = scale * rng.standard_normal((m, d))
        log_unifs = np.log(rng.uniform(size=m)).tolist()
        if bias is None:
            proposed = np.empty((m, d))
            start, r_in, r, first_kept = step_idx, r, step_idx - 1, n_kept
        for step, log_u in zip(steps, log_unifs):
            x_prop = x + step if shift_only else keep * x + step
            base_prop, row = _one_row_log_base(problem, proposal, x_prop)
            if bias is None:
                proposed[step_idx - start] = row
                value_prop, r_prop = base_prop, step_idx
            else:
                r_prop = problem.qoi(row).item()
                value_prop = base_prop - bias(r_prop) if math.isfinite(base_prop) else base_prop
            log_ratio = value_prop - log_value
            if log_ratio >= 0.0 or log_u < log_ratio:
                x, theta, r, log_base, log_value = x_prop, row[0], r_prop, base_prop, value_prop
                accepted_post += step_idx >= cfg.burn_in
            if step_idx == next_kept:
                kept_theta[n_kept], kept_r[n_kept] = theta, r
                n_kept += 1
                next_kept += cfg.thin
            step_idx += 1
        if bias is None:
            rs = np.append(problem.qoi(proposed), r_in)
            kept_r[first_kept:n_kept] = rs[kept_r[first_kept:n_kept].astype(np.intp) - start]
            r = rs[r - start].item()
    rate = accepted_post / (cfg.total_steps - cfg.burn_in)
    state = ChainState(x=x, theta=theta, r=r, log_base=log_base)
    return MhResult(kept_theta, kept_r, rate, state, budget + cfg.total_steps, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    pcn=st.booleans(),
    bias_form=st.sampled_from([None, "grid", "rbf"]),
    # 1e3: a random walk that accepts nothing, so every speculative row is taken
    scale=st.sampled_from([0.01, 0.1, 0.5, 1.0, 1e3]),
    held=st.booleans(),  # a random walk with zero steps on the odd coordinates
    # totals of 1 to 2025 steps, on either side of the 1024-step block and of two blocks
    burn_in=st.sampled_from([0, 1, 1000, 1023, 1024, 1025]),
    thin=st.sampled_from([1, 2, 25]),
    n_keep=st.integers(1, 40),
    # (states, steps) of a base-density call: one state, prefetch trees, and steps past the block end
    shape=st.sampled_from([(1, 1), (1, 2), (1, 7), (1, 16), (2, 2), (3, 4), (3, 7), (8, 8), (16, 16), (1, 1100),
                           (2, 1100)]),
    seed=seeds,
)
# load_capacity's walk proposes non-positive capacities, where the log target is -inf
@example(name="load_capacity", pcn=False, bias_form="grid", scale=0.5, held=False, burn_in=1000, thin=2, n_keep=40,
         shape=(1, 7), seed=0)
@example(name="load_capacity", pcn=False, bias_form=None, scale=0.5, held=True, burn_in=1023, thin=1, n_keep=2,
         shape=(1, 16), seed=1)
@example(name="contamination", pcn=False, bias_form="rbf", scale=1e3, held=True, burn_in=1024, thin=25, n_keep=40,
         shape=(1, 16), seed=1)
@example(name="load_capacity", pcn=True, bias_form=None, scale=0.5, held=False, burn_in=1000, thin=2, n_keep=40,
         shape=(3, 7), seed=0)
@example(name="contamination", pcn=False, bias_form="grid", scale=0.5, held=False, burn_in=1025, thin=1, n_keep=40,
         shape=(8, 8), seed=2)
@example(name="four_branch", pcn=True, bias_form=None, scale=0.1, held=False, burn_in=1000, thin=25, n_keep=40,
         shape=(2, 1100), seed=3)
# load_capacity_100_rbf's chain: pCN over 101 columns, biased, at the 3 x 4 tree mh_run picks for that width
@example(name="load_capacity_100", pcn=True, bias_form="rbf", scale=0.15, held=False, burn_in=1000, thin=25,
         n_keep=40, shape=(3, 4), seed=4)
def test_speculative_chain_equals_the_per_row_chain_bit_for_bit(
    name, pcn, bias_form, scale, held, burn_in, thin, n_keep, shape, seed
):
    problem = (PROBLEMS | WIDE_PROBLEMS)[name]()
    proposal = _chain_proposal(problem, pcn, scale, held)
    cfg = ChainConfig(burn_in=burn_in, thin=thin, n_keep=n_keep)
    weights = np.random.default_rng(seed).standard_normal(41)
    bias = {
        None: None,
        "grid": GridBias(GridFunction(-60.0, 60.0, 3.0, weights)),
        "rbf": RbfBias(weights, np.linspace(-60.0, 60.0, 41), 0.3),
    }[bias_form]
    a_init = b_init = problem.init_point
    states, steps = shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcmc, "_TREE_SHAPE", shape)
        mp.setattr(mcmc, "_TREE_CELLS", sys.maxsize)  # no row width narrows the tree
        for segment in range(2):  # a cold start, then a warm start from each chain's own state
            a = mh_run(problem, proposal, a_init, cfg, np.random.default_rng(seed + segment), bias=bias)
            b = _per_row_mh_run(problem, proposal, b_init, cfg, np.random.default_rng(seed + segment), bias)
            _assert_same_chain(a, b)
            assert 0 <= a.extra_rows <= (states * steps - 1) * cfg.total_steps
            a_init, b_init = a.state, b.state


def _former_problem(name):
    """The problem with each sum of squares spelled as it was before `vecdot`: einsum, or multiply-then-add.reduce.

    The base densities are the ones that changed; qoi is spelled out too, to
    pin that it did not.
    """
    if name == "contamination":
        cp = contamination_problem(ContaminationSpec())
        spec, measured = cp.spec, np.asarray(ContaminationSpec.measured_cells)

        def log_prior(theta):
            diff = theta - spec.prior_mean
            return -0.5 * (1.0 / spec.prior_sd**2) * np.einsum("ij,ij->i", diff, diff)

        def log_likelihood(theta):
            resid = theta.take(measured, axis=1) - cp.data
            return -0.5 * np.einsum("ij,ij->i", resid, resid) / spec.noise_sd**2

        return dataclasses.replace(cp.problem, log_prior=log_prior, log_likelihood=log_likelihood,
                                   qoi=lambda theta: np.einsum("ij,ij->i", theta, theta))
    if name == "four_branch":
        return dataclasses.replace(four_branch_problem(), qoi=lambda theta: -four_branch(theta),
                                   log_prior=lambda theta: -0.5 * np.einsum("ij,ij->i", theta, theta))
    spec = LoadCapacitySpec(n_components=100 if name == "load_capacity_100" else 10)
    log_y = math.log(spec.measurement)

    def log_likelihood(theta):
        comps = theta[:, 1:]
        resid = log_y - np.log(np.maximum(comps, _TINY))
        ll = -0.5 * np.add.reduce(resid * resid, 1) / spec.sigma_y**2
        return np.where(np.logical_and.reduce(comps > 0, 1), ll, -np.inf)

    def qoi(theta):
        return theta[:, 0] - np.exp(np.add.reduce(np.log(np.maximum(theta[:, 1:], _TINY)), 1))

    return dataclasses.replace(load_capacity_problem(spec).problem, log_likelihood=log_likelihood, qoi=qoi)


def _within_ulps(a, b, n_ulps):
    assert np.array_equal(np.isneginf(a), np.isneginf(b)) and not (np.isnan(a).any() or np.isnan(b).any())
    fin = np.isfinite(a)
    assert np.all(np.abs(a[fin] - b[fin]) <= n_ulps * np.spacing(np.maximum(np.abs(a[fin]), np.abs(b[fin]))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS | WIDE_PROBLEMS)),
    n=st.integers(1, 200),
    spread=st.floats(0.01, 10.0),
    seed=seeds,
)
def test_base_densities_are_the_former_sums_within_a_few_ulps_and_qoi_bit_for_bit(name, n, spread, seed):
    # vecdot sums in another order than einsum and add.reduce: over 10^6 rows of
    # 100 squares the two differed by at most 7 ulps, and by at most 4 for 9
    # squares. A base density only enters an accept/reject comparison with a
    # uniform, while qoi's r is kept, so qoi must keep its bits.
    problem, former = (PROBLEMS | WIDE_PROBLEMS)[name](), _former_problem(name)
    rng = np.random.default_rng(seed)
    u = spread * rng.standard_normal((n, problem.dim))
    theta = 1.0 + u if problem.from_standard_normal is None else problem.from_standard_normal(u)
    if name.startswith("load_capacity"):  # a capacity at or below zero: the likelihood is -inf
        theta[rng.random(theta.shape) < 0.01] *= -1.0
    for f in ("log_prior", "log_likelihood"):
        if getattr(problem, f) is not None:
            _within_ulps(getattr(problem, f)(theta), getattr(former, f)(theta), 16)
    assert problem.qoi(theta).tobytes() == former.qoi(theta).tobytes()


# (problem, run, bias): mh_run under a random walk or pCN, unbiased or biased, and subset_estimate
_FORMER_CASES = [
    (name, run, bias_form)
    for name in sorted(PROBLEMS | WIDE_PROBLEMS)
    for run in ("walk", "pcn")
    for bias_form in (None, "grid", "rbf")
    if run == "walk" or name != "contamination"  # contamination has no map to the standard normal
] + [(name, "subset", None) for name in sorted(PROBLEMS | WIDE_PROBLEMS)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, run, bias_form", _FORMER_CASES)
def test_chains_under_the_former_base_densities_are_the_shipped_chains(name, run, bias_form):
    # A last-bit change of a base density moves a decision only when a uniform
    # lands within an ulp of a log ratio, so on fixed seeds every chain, and
    # subset's conditional kernel, takes the same steps.
    problem, former = (PROBLEMS | WIDE_PROBLEMS)[name](), _former_problem(name)
    scale = {"contamination": 0.05, "four_branch": 0.5, "load_capacity": 0.02, "load_capacity_100": 0.005}[name]
    if run == "subset":
        threshold = 20.0 if name == "contamination" else 0.0
        cfg = SubsetConfig(n_samples=60, mh_steps_per_seed=10, posterior_thin=20)
        walk = RandomWalk(np.full(problem.dim, scale))
        a, b = (subset_estimate(p, RareEventQuery(threshold), cfg, np.random.default_rng(0), walk)
                for p in (problem, former))
        assert repr(a) == repr(b)  # repr tells every float's bits apart, NaN acceptance included
        assert any(0.0 < lv.acceptance < 1.0 for lv in a.levels)  # both decisions were taken
        return
    proposal = _chain_proposal(problem, run == "pcn", 10 * scale if run == "pcn" else scale, held=False)
    weights = np.random.default_rng(0).standard_normal(41)
    bias = {
        None: None,
        "grid": GridBias(GridFunction(-60.0, 60.0, 3.0, weights)),
        "rbf": RbfBias(weights, np.linspace(-60.0, 60.0, 41), 0.3),
    }[bias_form]
    cfg = ChainConfig(burn_in=1000, thin=5, n_keep=200)
    a_init = b_init = problem.init_point
    for segment in range(2):  # a cold start, then a warm start from each chain's own state
        a = mh_run(problem, proposal, a_init, cfg, np.random.default_rng(segment), bias=bias)
        b = mh_run(former, proposal, b_init, cfg, np.random.default_rng(segment), bias=bias)
        assert a.thetas.tobytes() == b.thetas.tobytes() and a.rs.tobytes() == b.rs.tobytes()
        assert (a.acceptance_rate, a.budget, a.extra_rows) == (b.acceptance_rate, b.budget, b.extra_rows)
        assert a.state.x.tobytes() == b.state.x.tobytes() and _bits(a.state.r) == _bits(b.state.r)
        assert 0.0 < a.acceptance_rate < 1.0
        a_init, b_init = a.state, b.state


class _MaskedWalk:
    """A random walk under mh_run's former `active` mask: its noise scale times a 0/1 coordinate mask."""

    def __init__(self, walk, active):
        self.walk, self.active = walk, active
        self.latent, self.log_base = walk.latent, walk.log_base

    def move(self, dim):
        keep, scale = self.walk.move(dim)
        mask = np.zeros(dim)
        mask[self.active] = 1.0
        return keep, scale * mask


def _masked_tune_step_sizes(problem, rng, groups, init_steps, target_accept):
    """tune_step_sizes at 200 pilot steps as it was while mh_run took a coordinate mask.

    Each group batch moved a walk of every coordinate's floored step, masked to the group.
    """
    steps = np.clip(init_steps, _STEP_FLOOR, _STEP_CAP)
    state, budget, n_group_batches = problem.init_point, 0, max(2, 200 // (100 * len(groups)))
    for group in groups:

        def group_walk(scale):
            trial = steps.copy()
            trial[group] = scale
            return _MaskedWalk(RandomWalk(np.clip(trial, _STEP_FLOOR, None)), group)

        scale = float(np.exp(np.mean(np.log(steps[group]))))
        scale, state, cost, _ = mcmc._adapt(
            problem, group_walk, scale, state, rng, target_accept, 50, n_group_batches, 2.0, (_STEP_FLOOR, _STEP_CAP)
        )
        budget += cost
        steps[group] = scale

    def joint_walk(mult):
        return RandomWalk(np.clip(mult * steps, _STEP_FLOOR, None))

    mult, _, cost, _ = mcmc._adapt(problem, joint_walk, 1.0, state, rng, target_accept, 50, 2, 2.0, (1e-4, 1e4))
    return np.clip(mult * steps, _STEP_FLOOR, _STEP_CAP), budget + cost


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    labels=arrays(int, 11, elements=st.integers(0, 2)),  # coordinate i goes to group labels[i]
    # 1e-9: floored to 1e-6
    init_steps=arrays(float, 11, elements=st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 1e3]) | st.floats(1e-9, 1e3)),
    target_accept=st.floats(0.05, 0.95),
    seed=seeds,
)
@example(name="contamination", labels=np.zeros(11, dtype=int), init_steps=np.full(11, 1e-9), target_accept=0.3, seed=0)
def test_zero_step_group_walk_equals_the_masked_walk_bit_for_bit(name, labels, init_steps, target_accept, seed):
    problem = PROBLEMS[name]()
    d = problem.dim
    groups = [g for g in (np.flatnonzero(labels[:d] == k) for k in range(3)) if len(g)]
    chains = []  # every tuning chain's kept samples, acceptance and final state

    def recorded(*args, **kwargs):
        res = mh_run(*args, **kwargs)
        chains.append((res.thetas.tobytes(), res.acceptance_rate, res.state.x.tobytes(), _bits(res.state.log_base)))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcmc, "mh_run", recorded)
        walk, budget, _ = tune_step_sizes(problem, problem.init_point, np.random.default_rng(seed), target_accept,
                                          pilot_steps=200, groups=groups, init_steps=init_steps[:d])
        zero_step_chains, chains = chains, []
        steps, masked_budget = _masked_tune_step_sizes(
            problem, np.random.default_rng(seed), groups, init_steps[:d], target_accept
        )
    assert walk.step_sizes.tobytes() == steps.tobytes() and budget == masked_budget
    assert zero_step_chains == chains and len(chains) == 2 * len(groups) + 2


@settings(max_examples=30, deadline=None)
@given(
    burn_in=st.sampled_from([0, 5, 1000]),
    thin=st.integers(1, 4),
    n_keep=st.integers(1, 30),
    pcn=st.booleans(),
    biased=st.booleans(),
    scale=st.sampled_from([0.1, 1.0, 5.0]),
    seed=seeds,
)
def test_base_density_rows_are_the_budget_plus_the_extra_rows(burn_in, thin, n_keep, pcn, biased, scale, seed):
    problem, qoi_rows = counting_qoi(scalar_normal_problem())
    problem, base_rows = counting_base(problem)
    grid = GridFunction.zeros(-5.0, 5.0, 0.5)
    bias = GridBias(grid.with_values(0.3 * grid.xs)) if biased else None
    proposal = Pcn(min(scale, 1.0)) if pcn else RandomWalk(np.array([scale]))
    cfg = ChainConfig(burn_in=burn_in, thin=thin, n_keep=n_keep)
    rng = np.random.default_rng(seed)
    cold = mh_run(problem, proposal, np.zeros(1), cfg, rng, bias=bias)
    warm = mh_run(problem, proposal, cold.state, cfg, rng, bias=bias)
    assert sum(qoi_rows) == cold.budget + warm.budget
    assert sum(base_rows) == cold.budget + cold.extra_rows + warm.budget + warm.extra_rows
    assert max(base_rows) <= math.prod(mcmc._TREE_SHAPE)  # a one-column chain scores the full tree
    qoi_rows.clear()
    base_rows.clear()
    tune = tune_pcn_beta if pcn else tune_step_sizes
    _, budget, extra = tune(problem, np.zeros(1), rng, pilot_steps=200)
    assert sum(qoi_rows) == budget and sum(base_rows) == budget + extra


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(float, 161, elements=st.floats(-30.0, 30.0)),
    ref=st.sampled_from([Gaussian(0.0, 1.5), Gaussian(3.0, 0.4), Gev(0.0, 1.0), Gev(-1.0, 1.0)]),
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


def _node_index(g, r):
    """Nearest grid node to r (GridFunction.node_index before tail_probability took it in)."""
    if r < g.lo - 1e-12 or r > g.hi + 1e-12:
        raise NumericError(f"point {r} outside grid [{g.lo}, {g.hi}]")
    return int(np.clip(round((r - g.lo) / g.h), 0, len(g.values) - 1))


def _grid_integral(g, a, b):
    """Trapezoid integral of g over [a, b], bounds snapped to nodes (densities.grid_integral before it)."""
    if a > b:
        raise NumericError("integration bounds out of order")
    i, j = _node_index(g, a), _node_index(g, b)
    if j <= i:
        return 0.0
    return float(np.trapezoid(g.values[i : j + 1], dx=g.h))


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-100.0, 100.0),
    h=st.floats(1e-3, 10.0),
    values=arrays(float, st.integers(2, 300), elements=st.floats(0.0, 10.0)),
    k=st.integers(0, 299),
    u=st.floats(0.0, 1.0),
)
# a threshold halfway between two nodes, and on the upper edge
@example(lo=0.0, h=0.5, values=np.array([0.0, 0.1, 0.2, 0.3, 0.4]), k=0, u=0.625)
@example(lo=0.0, h=0.5, values=np.array([0.0, 0.1, 0.2, 0.3, 0.4]), k=0, u=1.0)
def test_tail_probability_is_the_snapped_grid_integral_bit_for_bit(lo, h, values, k, u):
    n = len(values)
    g = GridFunction(lo, lo + (n - 1) * h, h, values / (n * h))  # integrals at most 10, mostly below 1
    est = FreeEnergyEstimate(g)
    k %= n
    for t in map(float, [g.xs[k], lo + k * h, lo + (k + 0.5) * h, lo + u * (g.hi - lo), g.lo, g.hi]):
        t = min(max(t, g.lo), g.hi)
        expected = float(min(max(_grid_integral(g, max(t, g.lo), g.hi), 0.0), 1.0))
        got = tail_probability(est, t)
        assert type(got) is float and got == expected, t


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
    problem = scalar_normal_problem()
    rng = np.random.default_rng(seed)
    walk, _, _ = tune_step_sizes(
        problem, np.zeros(1), rng, target_accept=target_accept, pilot_steps=200, init_steps=np.array([init_step])
    )
    assert np.all((_STEP_FLOOR <= walk.step_sizes) & (walk.step_sizes <= _STEP_CAP))
    pcn, _, _ = tune_pcn_beta(problem, np.zeros(1), rng, target_accept=target_accept, pilot_steps=200, beta0=beta0)
    assert 1e-4 <= pcn.beta <= 1.0


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
                "proposal": st.fixed_dictionaries({"kind": st.sampled_from(["random_walk", "pcn"])}),
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
    proposal = cfg["method"]["proposal"]["kind"]
    if proposal == "pcn" and (cfg["method"]["kind"] == "subset" or cfg["problem"]["name"] == "contamination"):
        # a subset run moves by a random walk, and contamination has no standard-normal transform
        with pytest.raises(ConfigurationError):
            load_config(cfg)
        return
    once = load_config(cfg)
    assert load_config(once) == once
    # summary.json stores the loaded config as JSON; it must load back unchanged
    assert load_config(json.loads(json.dumps(once))) == once


PROBLEM_NAMES = ("contamination", "four_branch", "load_capacity")


# load_config checks the problems a config does not run through their specs
# instead of building them; it must reject exactly what building them rejects.
@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(PROBLEM_NAMES), seed=st.integers(-5, 5), n_components=st.integers(-2, 40))
@example(name="load_capacity", seed=-1, n_components=10)
@example(name="contamination", seed=0, n_components=0)
@example(name="four_branch", seed=-5, n_components=-2)
def test_load_config_rejects_a_problem_section_iff_building_a_problem_from_it_raises(name, seed, n_components):
    section = {"name": name, "seed": seed, "n_components": n_components}
    raised = False
    for other in PROBLEM_NAMES:
        try:
            build_problem(dict(section, name=other))
        except ValueError:  # any rejection, ConfigurationError or not
            raised = True
    if raised:
        with pytest.raises(ConfigurationError):
            load_config({"problem": section})
    else:
        assert load_config({"problem": section})["problem"] == section


SHIPPED_CONFIGS = sorted(p.name for p in (resources.files("rareebm") / "configs").iterdir() if p.name.endswith(".json"))

# One value of each JSON type, and the types a key takes besides its default's.
JSON_VALUES = {"string": "x", "number": 7, "boolean": True, "null": None, "array": ["x"], "object": {"x": 1}}
ALSO_ACCEPTED = {
    ("method", "proposal", "beta"): {"array"},
    ("runs", "reference"): {"number", "array"},
    ("output", "dir"): {"string"},
}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _leaves(node, path=()):
    """(path, value) of every non-object value in a nested config."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(SHIPPED_CONFIGS), data=st.data())
def test_shipped_configs_load_unchanged_and_a_mistyped_leaf_is_rejected(name, data):
    user = json.loads((resources.files("rareebm") / "configs" / name).read_text())
    cfg = load_config(user)
    loaded = dict(_leaves(cfg))
    assert all(loaded[path] == value for path, value in _leaves(user))
    assert load_config(cfg) == cfg
    path, value = data.draw(st.sampled_from([(p, v) for p, v in _leaves(cfg) if not isinstance(v, list)]))
    other = sorted(set(JSON_VALUES) - {_json_type(value)} - ALSO_ACCEPTED.get(path, set()))
    broken = json.loads(json.dumps(cfg))
    node = broken
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = JSON_VALUES[data.draw(st.sampled_from(other))]
    with pytest.raises(ConfigurationError):
        load_config(broken)


PROPOSAL_THRESHOLDS = {"contamination": 20.0, "four_branch": 0.0, "load_capacity": 0.0}
betas = st.one_of(
    st.just(0.0),  # tune beta, or no beta for a random walk
    st.sampled_from([0.3, 1.0, -0.5, 1.5]),
    st.lists(st.sampled_from([0.3, 1.0]), min_size=1, max_size=3),
    st.lists(st.sampled_from([0.0, 0.3, 1.0, -0.5, 1.5]), max_size=12),  # the dims are 9, 2 and 3
)


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(sorted(PROPOSAL_THRESHOLDS)),
    kind=st.sampled_from(["ebm", "subset"]),
    proposal=st.fixed_dictionaries({"kind": st.sampled_from(["random_walk", "pcn"]), "beta": betas}),
)
@example(problem="contamination", kind="ebm", proposal={"kind": "pcn", "beta": 0.0})
@example(problem="load_capacity", kind="ebm", proposal={"kind": "pcn", "beta": [0.3, 1.0]})
@example(problem="load_capacity", kind="subset", proposal={"kind": "random_walk", "beta": 0.0})
def test_a_proposal_section_that_loads_runs(problem, kind, proposal):
    user = {
        "problem": {"name": problem, "n_components": 2},
        "query": {"thresholds": [PROPOSAL_THRESHOLDS[problem]]},
        "method": {
            "kind": kind,
            "max_steps": 1,
            "chain": {"burn_in": 10, "thin": 1, "n_keep": 20},
            "proposal": {**proposal, "pilot_steps": 200},
            "subset": {"n_samples": 10, "mh_steps_per_seed": 1, "posterior_burn_in": 10, "posterior_thin": 2},
        },
        "runs": {"n_runs": 1},
    }
    try:
        cfg = load_config(user)
    except ConfigurationError:
        return
    # neither a ConfigurationError nor any other ValueError may surface after load
    run_replicate(cfg, 0)
