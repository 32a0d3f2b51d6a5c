import numpy as np
import pytest
from scipy import integrate

from conftest import scalar_normal_problem
from rareebm.bias import GridBias, RbfBias
from rareebm.densities import Gaussian, GridFunction, grid_normalize
from rareebm.errors import TrainingError
from rareebm.estimator import free_energy_from_bias, tail_probability
from rareebm.ksd import KsdTestConfig, SteinKernelConfig
from rareebm.mcmc import ChainConfig, RandomWalk
from rareebm.train import (
    ConstantLr,
    ExpDecayLr,
    KsdStopping,
    SgdmState,
    TrainConfig,
    estimate_kl,
    kl_gradient_grid,
    kl_gradient_rbf,
    mle_gradient_rbf,
    sgdm_step,
    train_bias_potential,
)


class TestSgdm:
    def test_two_step_algebra(self):
        state = SgdmState(np.zeros(2), 0, momentum_weight=0.9)
        g1 = np.array([1.0, -2.0])
        d1, state = sgdm_step(state, g1, 0.5)
        m1 = 0.1 * g1
        np.testing.assert_allclose(d1, -0.5 * m1, atol=1e-15)
        g2 = np.array([3.0, 0.5])
        d2, state = sgdm_step(state, g2, 0.25)
        m2 = 0.9 * m1 + 0.1 * g2
        np.testing.assert_allclose(d2, -0.25 * m2, atol=1e-15)
        assert state.step_index == 2

    def test_nonfinite_gradient(self):
        with pytest.raises(TrainingError):
            sgdm_step(SgdmState(np.zeros(1)), np.array([np.nan]), 0.1)

    def test_momentum_weight_range(self):
        with pytest.raises(ValueError):
            SgdmState(np.zeros(1), momentum_weight=1.0)


class TestSchedules:
    def test_constant(self):
        assert ConstantLr(2.0).value(17) == 2.0
        with pytest.raises(ValueError):
            ConstantLr(0.0)

    def test_exp_decay(self):
        s = ExpDecayLr(19.0, -0.005)
        assert s.value(0) == pytest.approx(19.0)
        assert s.value(100) == pytest.approx(19.0 * np.exp(-0.5))
        with pytest.raises(ValueError):
            ExpDecayLr(1.0, 0.1)


class TestGradients:
    def test_kl_mle_identity(self, rng):
        # the two code paths must agree to machine precision
        bias = RbfBias.zero(40, -5, 5, 1.0).with_params(rng.standard_normal(40))
        ref = rng.standard_normal(500)
        biased = rng.standard_normal(500) + 0.3
        np.testing.assert_allclose(
            kl_gradient_rbf(bias, ref, biased),
            mle_gradient_rbf(bias, ref, biased),
            atol=1e-12,
        )

    def test_rbf_gradient_vs_quadrature(self):
        # sample gradient vs exact feature-mean difference, n = 1e5, <= 1%
        rng = np.random.default_rng(42)
        bias = RbfBias.zero(30, -6, 6, 0.8)
        p_ref = Gaussian(0.0, 2.0)
        p_v = Gaussian(1.0, 1.0)
        n = 100_000
        grad = kl_gradient_rbf(bias, p_ref.sample(rng, n), p_v.sample(rng, n))
        exact = np.array([
            integrate.quad(
                lambda r, c=c: float(np.exp(-(0.8 * (r - c)) ** 2)) * (p_ref.pdf(r) - p_v.pdf(r)),
                -12, 12, limit=200,
            )[0]
            for c in bias.centers
        ])
        assert np.linalg.norm(grad - exact) <= 0.01 * max(np.linalg.norm(exact), 1.0)

    def test_grid_gradient(self):
        grid = GridFunction.zeros(-1, 1, 0.5)
        a = grid.with_values(np.array([1.0, 2, 3, 4, 5.0]))
        b = grid.with_values(np.array([0.0, 1, 1, 1, 1.0]))
        np.testing.assert_allclose(kl_gradient_grid(a, b).values, [1, 1, 2, 3, 4.0])
        with pytest.raises(ValueError):
            kl_gradient_grid(a, GridFunction.zeros(-1, 2, 0.5))

    def test_sample_count_mismatch(self):
        bias = RbfBias.zero(5, -1, 1, 1.0)
        with pytest.raises(ValueError):
            kl_gradient_rbf(bias, np.zeros(3), np.zeros(4))


class TestEstimateKl:
    def test_gaussian_pair_closed_form(self):
        # KL(N(0,1) || N(1,1)) = 1/2
        grid = GridFunction.zeros(-10, 10, 0.01)
        p_v = grid_normalize(grid.with_values(Gaussian(1.0, 1.0).pdf(grid.xs)))
        p_ref = grid.with_values(Gaussian(0.0, 1.0).pdf(grid.xs))
        assert estimate_kl(p_ref, p_v) == pytest.approx(0.5, abs=1e-4)

    def test_self_kl_zero(self):
        grid = GridFunction.zeros(-10, 10, 0.01)
        p_v = grid_normalize(grid.with_values(Gaussian(0.0, 1.0).pdf(grid.xs)))
        p_ref = grid.with_values(Gaussian(0.0, 1.0).pdf(grid.xs))
        assert estimate_kl(p_ref, p_v) == pytest.approx(0.0, abs=1e-6)


class TestTrainConfig:
    def _chain(self):
        return ChainConfig(burn_in=5, thin=1, n_keep=20)

    def test_chain_keep_must_match(self):
        with pytest.raises(ValueError):
            TrainConfig(max_steps=1, n_grad_samples=10, chain=self._chain(), schedule=ConstantLr(1.0))

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            TrainConfig(max_steps=1, n_grad_samples=20, chain=self._chain(),
                        schedule=ConstantLr(1.0), grad_clip=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_steps=1, n_grad_samples=20, chain=self._chain(),
                        schedule=ConstantLr(1.0), kde_bandwidth=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_steps=1, n_grad_samples=20, chain=self._chain(),
                        schedule=ConstantLr(1.0), keep_last_biases=0)


class TestTraining:
    def _setup(self):
        problem = scalar_normal_problem()
        p_ref = Gaussian(0.0, 2.0)
        grid = GridFunction.zeros(-8, 8, 0.05)
        bias = GridBias.zero(-8, 8, 0.05)
        return problem, p_ref, grid, bias

    def _cfg(self, **kw):
        return TrainConfig(
            max_steps=kw.pop("max_steps", 20),
            n_grad_samples=50,
            chain=ChainConfig(burn_in=10, thin=1, n_keep=50),
            schedule=kw.pop("schedule", ConstantLr(2.0)),
            momentum_weight=kw.pop("momentum_weight", 0.5),
            **kw,
        )

    def test_max_steps_zero(self, rng):
        problem, p_ref, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        res = train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                   self._cfg(max_steps=0), RandomWalk(np.array([2.4])), grid, rng)
        assert res.budget == 0 and res.trace == [] and res.recent_biases == [bias]

    def test_trace_and_budget_accounting(self, rng):
        problem, p_ref, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        res = train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                   self._cfg(), RandomWalk(np.array([2.4])), grid, rng)
        assert len(res.trace) == 20
        budgets = [rec.budget for rec in res.trace]
        assert budgets == sorted(budgets)
        assert budgets[-1] == res.budget
        # per-iteration budget is the chain cost; the first also pays the init
        assert budgets[0] == 60 + 1
        assert all(b2 - b1 == 60 for b1, b2 in zip(budgets, budgets[1:]))
        assert len(res.recent_biases) == 10
        assert res.recent_biases[-1] is res.bias
        assert res.stop_reason == "max_steps"

    def test_training_reduces_kl(self, rng):
        problem, p_ref, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        res = train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                   self._cfg(max_steps=60), RandomWalk(np.array([2.4])), grid, rng)
        early = np.mean([r.kl for r in res.trace[:5]])
        late = np.mean([r.kl for r in res.trace[-5:]])
        assert late < 0.5 * early

    def test_ksd_stopping_fires_when_matched(self, rng):
        # p_ref equal to the target density: the test should stop immediately
        problem, _, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        cfg = self._cfg(
            max_steps=50,
            schedule=ConstantLr(1e-9),
            stopping=KsdStopping(kernel=SteinKernelConfig(), test=KsdTestConfig(a_bs=0.4), min_steps=1),
        )
        res = train_bias_potential(problem, RareEventQuery(1.0), Gaussian(0.0, 1.0), bias, cfg,
                                   RandomWalk(np.array([2.4])), grid, rng)
        assert res.stop_reason == "ksd"
        assert len(res.trace) < 50

    @pytest.mark.parametrize("form", ["grid", "rbf"])
    def test_diagnostics_off_trains_the_same_potential(self, form):
        # the records lose kl, ksd and p_hat; the updates, the stopping test
        # and the random streams stay as they were
        problem, p_ref, grid, bias = self._setup()
        if form == "rbf":
            bias = RbfBias.zero(40, -8.0, 8.0, 1.0)
        from rareebm.problems import RareEventQuery
        on, off = (
            train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                 self._cfg(max_steps=40, stopping=KsdStopping(min_steps=8), diagnostics=diagnostics),
                                 RandomWalk(np.array([2.4])), grid, np.random.default_rng(5))
            for diagnostics in (True, False)
        )
        assert on.stop_reason == off.stop_reason and len(on.trace) == len(off.trace)
        np.testing.assert_array_equal(on.bias.params, off.bias.params)
        assert [(r.budget, r.acceptance) for r in on.trace] == [(r.budget, r.acceptance) for r in off.trace]
        assert all(r.kl is not None and r.ksd is not None and r.p_hat is not None for r in on.trace)
        assert all(r.kl is None and r.ksd is None and r.p_hat is None for r in off.trace)

    def test_divergence_raises_with_partial_result(self, rng):
        problem, p_ref, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        with pytest.raises(TrainingError) as err:
            train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                 self._cfg(schedule=ConstantLr(1e9), max_steps=50),
                                 RandomWalk(np.array([2.4])), grid, rng)
        assert hasattr(err.value, "result")

    def test_grad_clip_limits_update(self, rng):
        problem, p_ref, grid, bias = self._setup()
        from rareebm.problems import RareEventQuery
        res = train_bias_potential(problem, RareEventQuery(1.0), p_ref, bias,
                                   self._cfg(max_steps=1, grad_clip=0.01, momentum_weight=0.0),
                                   RandomWalk(np.array([2.4])), grid, rng)
        # one step, no momentum: |delta V| <= lr * clip
        assert np.abs(res.bias.grid.values).max() <= 2.0 * 0.01 + 1e-12

    def test_gauge_invariance_of_estimates(self, rng):
        # shifting the bias by a constant must not change tail probabilities
        _, p_ref, grid, _ = self._setup()
        v = GridBias(grid.with_values(np.sin(grid.xs)))
        v_shift = GridBias(grid.with_values(np.sin(grid.xs) + 123.0))
        p1 = tail_probability(free_energy_from_bias(v, p_ref, grid), 1.0)
        p2 = tail_probability(free_energy_from_bias(v_shift, p_ref, grid), 1.0)
        assert p1 == pytest.approx(p2, abs=1e-12)
