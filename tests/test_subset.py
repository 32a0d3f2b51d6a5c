import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import counting_qoi, scalar_normal_problem
from rareebm import subset
from rareebm.errors import ConfigurationError
from rareebm.mcmc import RandomWalk
from rareebm.problems import RareEventQuery, TargetProblem, contamination_problem
from rareebm.subset import (
    AdaptiveSchedule,
    FixedLogSchedule,
    SubsetConfig,
    SubsetResult,
    subset_estimate,
)


class TestSchedules:
    def test_adaptive_validation(self):
        AdaptiveSchedule(0.1)
        with pytest.raises(ConfigurationError):
            AdaptiveSchedule(0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveSchedule(1.0)

    def test_fixed_log_ladder(self):
        s = FixedLogSchedule(start=5.0, n_levels=10)
        ts = s.thresholds(20.0)
        assert len(ts) == 10
        assert ts[-1] == pytest.approx(20.0)
        assert np.all(np.diff(ts) > 0)
        assert ts[0] > 5.0
        with pytest.raises(ConfigurationError):
            FixedLogSchedule(n_levels=0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SubsetConfig(n_samples=1)
        with pytest.raises(ConfigurationError):
            SubsetConfig(mh_steps_per_seed=0)


class TestTraditionalSetting:
    def test_crude_mc_when_threshold_not_rare(self):
        # threshold below the (1 - p0) quantile: a single level, so the
        # estimate equals the crude Monte Carlo fraction of the prior draws
        problem = scalar_normal_problem()
        cfg = SubsetConfig(n_samples=1000, mh_steps_per_seed=3)
        res = subset_estimate(problem, RareEventQuery(0.5), cfg, np.random.default_rng(12))
        draws = np.random.default_rng(12).standard_normal((1000, 1))
        expected = float(np.mean(draws[:, 0] >= 0.5))
        assert res.p_hat == pytest.approx(expected)
        assert len(res.levels) == 1
        assert res.budget == 1000

    def test_threshold_below_all_samples(self):
        problem = scalar_normal_problem()
        cfg = SubsetConfig(n_samples=500, mh_steps_per_seed=3)
        res = subset_estimate(problem, RareEventQuery(-50.0), cfg, np.random.default_rng(0))
        assert res.p_hat == 1.0 and len(res.levels) == 1

    def test_normal_tail_estimate(self):
        # P(theta >= 3.0902) = 1e-3 for a standard normal
        problem = scalar_normal_problem()
        threshold = float(stats.norm.isf(1e-3))
        cfg = SubsetConfig(n_samples=1000, mh_steps_per_seed=5)
        ests = [
            subset_estimate(problem, RareEventQuery(threshold), cfg, np.random.default_rng(s)).p_hat
            for s in range(8)
        ]
        assert np.mean(ests) == pytest.approx(1e-3, rel=0.30)

    def test_budget_accounting(self):
        problem = scalar_normal_problem()
        cfg = SubsetConfig(n_samples=400, mh_steps_per_seed=4)
        res = subset_estimate(problem, RareEventQuery(2.5), cfg, np.random.default_rng(1))
        moves = (len(res.levels) - 1) * 400 * 4
        assert res.budget == 400 + moves

    def test_level_failure_on_unreachable_threshold(self):
        # bounded quantity of interest can never reach the threshold
        problem = TargetProblem(
            dim=1,
            log_prior=lambda th: -0.5 * np.atleast_2d(th)[:, 0] ** 2,
            qoi=lambda th: np.tanh(np.atleast_2d(th)[:, 0]),
            from_standard_normal=lambda u: np.asarray(u, dtype=float),
            init_point=np.zeros(1),
        )
        cfg = SubsetConfig(n_samples=200, mh_steps_per_seed=3,
                           schedule=FixedLogSchedule(start=0.5, n_levels=5))
        res = subset_estimate(problem, RareEventQuery(2.0), cfg, np.random.default_rng(2))
        assert res.level_failure and res.p_hat == 0.0

    def test_requires_a_standard_normal_transform(self, rng):
        problem = TargetProblem(
            dim=1,
            log_prior=lambda th: -0.5 * np.atleast_2d(th)[:, 0] ** 2,
            qoi=lambda th: np.atleast_2d(th)[:, 0],
        )
        with pytest.raises(ConfigurationError, match="standard-normal transform"):
            subset_estimate(problem, RareEventQuery(1.0), SubsetConfig(), rng)

    def test_prior_draws_are_the_transformed_normals(self):
        # a single level: the estimate is the crude Monte Carlo fraction of
        # the transform of the generator's normals, here u -> 2u + 1
        problem = dataclasses.replace(scalar_normal_problem(), from_standard_normal=lambda u: 2.0 * u + 1.0)
        cfg = SubsetConfig(n_samples=1000, mh_steps_per_seed=3)
        res = subset_estimate(problem, RareEventQuery(1.5), cfg, np.random.default_rng(12))
        draws = 2.0 * np.random.default_rng(12).standard_normal((1000, 1)) + 1.0
        assert len(res.levels) == 1 and res.budget == 1000
        assert res.p_hat == float(np.mean(draws[:, 0] >= 1.5))

    def test_level_cap_ends_the_run_as_a_level_failure(self, monkeypatch):
        monkeypatch.setattr(subset, "_MAX_LEVELS", 2)
        cfg = SubsetConfig(n_samples=200, mh_steps_per_seed=2)
        res = subset_estimate(scalar_normal_problem(), RareEventQuery(6.0), cfg, np.random.default_rng(4))
        assert len(res.levels) == 3 and res.level_failure
        assert res.levels[-1].threshold < 6.0 and res.levels[-1].survival_fraction > 0.0
        assert [math.isnan(lv.acceptance) for lv in res.levels] == [False, False, True]
        assert res.budget == 200 + 2 * 200 * 2
        assert res.p_hat == math.prod(lv.survival_fraction for lv in res.levels)


class TestPosteriorSetting:
    def test_posterior_init_requires_step_sizes(self, rng):
        cp = contamination_problem()
        with pytest.raises(ConfigurationError, match="tuned random walk"):
            subset_estimate(cp.problem, RareEventQuery(20.0), SubsetConfig(), rng)

    def test_posterior_run_and_budget(self):
        problem, rows = counting_qoi(contamination_problem().problem)
        cfg = SubsetConfig(n_samples=40, mh_steps_per_seed=5,
                           posterior_burn_in=50, posterior_thin=20)
        walk = RandomWalk(np.full(9, 0.1))
        res = subset_estimate(problem, RareEventQuery(12.0), cfg,
                              np.random.default_rng(3), proposal=walk)
        init_cost = 1 + 50 + 20 * 40
        assert res.budget == init_cost + (len(res.levels) - 1) * 40 * 5
        # r of the initial population is evaluated once more, outside the
        # budget: the n_samples rows the benchmark's traced budget check allows
        assert sum(rows) == res.budget + cfg.n_samples
        assert isinstance(res, SubsetResult)
        assert 0.0 <= res.p_hat <= 1.0
        # level diagnostics are populated
        assert res.levels[0].survival_fraction > 0
