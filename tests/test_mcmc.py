import numpy as np
import pytest

from conftest import counting_qoi, scalar_normal_problem
from rareebm.bias import GridBias
from rareebm.densities import GridFunction
from rareebm.errors import ConfigurationError
from rareebm.mcmc import (
    ChainConfig,
    Pcn,
    RandomWalk,
    mh_run,
    tune_pcn_beta,
    tune_step_sizes,
)
from rareebm.problems import TargetProblem, contamination_problem, four_branch_problem


class TestProposals:
    def test_random_walk_validation(self):
        RandomWalk(np.array([0.0, 1.0]))  # a zero step holds its coordinate
        for bad in ([1.0, -1.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ConfigurationError):
                RandomWalk(np.array(bad))

    def test_pcn_validation(self):
        Pcn(0.5)
        Pcn(np.array([0.5, 0.2]))
        with pytest.raises(ConfigurationError):
            Pcn(0.0)
        with pytest.raises(ConfigurationError):
            Pcn(np.array([0.5, 1.5]))
        for bad in (float("nan"), np.array([0.5, np.nan]), float("inf")):
            with pytest.raises(ConfigurationError):
                Pcn(bad)

    def test_pcn_beta_length_checked(self):
        problem = four_branch_problem()
        with pytest.raises(ConfigurationError):
            mh_run(problem, Pcn(np.array([0.5, 0.5, 0.5])), np.zeros(2),
                   ChainConfig(burn_in=0, thin=1, n_keep=5), np.random.default_rng(0))


class TestChainConfig:
    def test_total_steps(self):
        cfg = ChainConfig(burn_in=10, thin=3, n_keep=7)
        assert cfg.total_steps == 31
        with pytest.raises(ConfigurationError):
            ChainConfig(burn_in=-1, thin=1, n_keep=1)


class TestMhRun:
    def test_budget_exact(self, rng):
        problem = scalar_normal_problem()
        cfg = ChainConfig(burn_in=5, thin=2, n_keep=10)
        res = mh_run(problem, RandomWalk(np.array([1.0])), np.zeros(1), cfg, rng)
        assert res.budget == cfg.total_steps + 1  # +1 for the initial evaluation
        assert res.thetas.shape == (10, 1)
        # warm start costs no initial evaluation
        res2 = mh_run(problem, RandomWalk(np.array([1.0])), res.state, cfg, rng)
        assert res2.budget == cfg.total_steps

    def test_tiny_steps_always_accept(self, rng):
        problem = scalar_normal_problem()
        res = mh_run(problem, RandomWalk(np.array([1e-12])), np.zeros(1),
                     ChainConfig(burn_in=0, thin=1, n_keep=200), rng)
        assert res.acceptance_rate == pytest.approx(1.0)

    def test_zero_density_region_rejected(self, rng):
        # box prior on [-1, 1]; huge steps almost always propose outside
        problem = TargetProblem(
            dim=1,
            log_prior=lambda th: np.where(np.abs(np.atleast_2d(th)[:, 0]) < 1.0, 0.0, -np.inf),
            qoi=lambda th: np.atleast_2d(th)[:, 0],
            init_point=np.zeros(1),
        )
        res = mh_run(problem, RandomWalk(np.array([100.0])), np.zeros(1),
                     ChainConfig(burn_in=0, thin=1, n_keep=300), rng)
        assert np.all(np.abs(res.rs) < 1.0)
        assert res.acceptance_rate < 0.1

    def test_bias_constant_gauge(self):
        # V and V + c give identical accept decisions with the same RNG
        problem = scalar_normal_problem()
        grid = GridFunction.zeros(-5, 5, 0.1)
        v = GridBias(grid.with_values(0.3 * grid.xs))
        v_shift = GridBias(grid.with_values(0.3 * grid.xs + 42.0))
        cfg = ChainConfig(burn_in=10, thin=1, n_keep=200)
        r1 = mh_run(problem, RandomWalk(np.array([1.5])), np.zeros(1), cfg, np.random.default_rng(9), bias=v)
        r2 = mh_run(problem, RandomWalk(np.array([1.5])), np.zeros(1), cfg, np.random.default_rng(9), bias=v_shift)
        np.testing.assert_array_equal(r1.rs, r2.rs)

    def test_long_run_standard_normal(self):
        problem = scalar_normal_problem()
        res = mh_run(problem, RandomWalk(np.array([2.4])), np.zeros(1),
                     ChainConfig(burn_in=500, thin=1, n_keep=30_000), np.random.default_rng(21))
        assert abs(res.rs.mean()) < 0.05
        assert 0.95 < res.rs.std() < 1.05

    def test_pcn_preserves_prior(self):
        # no likelihood, no bias: pCN leaves the standard normal invariant
        problem = four_branch_problem()
        res = mh_run(problem, Pcn(0.5), np.zeros(2),
                     ChainConfig(burn_in=200, thin=2, n_keep=5000), np.random.default_rng(3))
        assert res.acceptance_rate == pytest.approx(1.0)  # prior terms cancel exactly
        assert np.abs(res.thetas.mean(axis=0)).max() < 0.08
        assert np.abs(res.thetas.std(axis=0) - 1.0).max() < 0.08

    def test_pcn_coordinatewise_beta_preserves_prior(self):
        problem = four_branch_problem()
        res = mh_run(problem, Pcn(np.array([0.9, 0.2])), np.zeros(2),
                     ChainConfig(burn_in=200, thin=8, n_keep=4000), np.random.default_rng(4))
        assert np.abs(res.thetas.mean(axis=0)).max() < 0.1
        assert np.abs(res.thetas.std(axis=0) - 1.0).max() < 0.1

    def test_pcn_requires_transform(self, rng):
        problem = scalar_normal_problem()
        problem_no_transform = TargetProblem(
            dim=1,
            log_prior=problem.log_prior,
            qoi=problem.qoi,
            init_point=np.zeros(1),
        )
        with pytest.raises(ConfigurationError):
            mh_run(problem_no_transform, Pcn(0.5), np.zeros(1),
                   ChainConfig(burn_in=0, thin=1, n_keep=5), rng)


class TestTuning:
    def test_tuned_acceptance_in_band(self):
        problem = scalar_normal_problem()
        rng = np.random.default_rng(17)
        walk, budget, _ = tune_step_sizes(problem, np.zeros(1), rng, pilot_steps=2000)
        assert isinstance(walk, RandomWalk) and budget > 0
        res = mh_run(problem, walk, np.zeros(1),
                     ChainConfig(burn_in=200, thin=1, n_keep=5000), rng)
        assert 0.20 <= res.acceptance_rate <= 0.42

    def test_pilot_minimum(self, rng):
        problem = scalar_normal_problem()
        with pytest.raises(ConfigurationError):
            tune_step_sizes(problem, np.zeros(1), rng, pilot_steps=100)
        with pytest.raises(ConfigurationError):
            tune_pcn_beta(problem, np.zeros(1), rng, pilot_steps=100)

    def test_tune_pcn_beta(self):
        problem, rows = counting_qoi(four_branch_problem())
        pcn, budget, _ = tune_pcn_beta(problem, np.zeros(2), np.random.default_rng(2), pilot_steps=400)
        assert isinstance(pcn, Pcn) and 0.0 < pcn.beta <= 1.0
        assert budget >= 400
        assert sum(rows) == budget  # one qoi row per unit of budget

    def test_grouped_tuning_evaluates_one_qoi_row_per_unit_of_budget(self):
        problem, rows = counting_qoi(contamination_problem().problem)
        groups = [np.arange(0, 9, 2), np.arange(1, 9, 2)]
        _, budget, _ = tune_step_sizes(problem, problem.init_point, np.random.default_rng(6), pilot_steps=600,
                                       groups=groups)
        assert sum(rows) == budget

