import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from rareebm.errors import ConfigurationError
from rareebm.problems import (
    ContaminationSpec,
    LoadCapacitySpec,
    RareEventQuery,
    conjugate_gaussian_posterior,
    contamination_problem,
    four_branch,
    four_branch_problem,
    four_branch_tail,
    load_capacity_problem,
)


def test_query_validation():
    RareEventQuery(0.0)
    with pytest.raises(ConfigurationError):
        RareEventQuery(float("nan"))


class TestConjugatePosterior:
    def test_scalar_formulas(self):
        # one measured coordinate out of two; compare with textbook scalar update
        sp, sn = 0.3, 0.05
        y = 1.2
        mean, cov = conjugate_gaussian_posterior(
            np.array([1.0, 1.0]),
            sp**2 * np.eye(2),
            np.array([[1.0, 0.0]]),
            np.array([[sn**2]]),
            np.array([y]),
        )
        var_expected = 1.0 / (1.0 / sp**2 + 1.0 / sn**2)
        mean_expected = var_expected * (1.0 / sp**2 + y / sn**2)
        assert cov[0, 0] == pytest.approx(var_expected, abs=1e-10)
        assert mean[0] == pytest.approx(mean_expected, abs=1e-10)
        # unmeasured coordinate keeps its prior marginal exactly
        assert cov[1, 1] == pytest.approx(sp**2, abs=1e-12)
        assert mean[1] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_no_observations(self):
        mean, cov = conjugate_gaussian_posterior(
            np.array([2.0]), np.array([[4.0]]), np.zeros((0, 1)), np.zeros((0, 0)), np.zeros(0)
        )
        assert mean[0] == 2.0 and cov[0, 0] == 4.0

    def test_variance_never_grows(self):
        cp = contamination_problem()
        prior_var = cp.spec.prior_sd**2
        assert np.all(np.diag(cp.posterior_cov) <= prior_var + 1e-12)


class TestContamination:
    def test_reproducible_realization(self):
        a = contamination_problem(ContaminationSpec(rng_seed=11))
        b = contamination_problem(ContaminationSpec(rng_seed=11))
        np.testing.assert_array_equal(a.data, b.data)
        c = contamination_problem(ContaminationSpec(rng_seed=12))
        assert not np.array_equal(a.data, c.data)

    def test_log_target_combines_prior_and_likelihood(self):
        cp = contamination_problem()
        theta = np.ones((3, 9)) + 0.1 * np.arange(27).reshape(3, 9)
        p = cp.problem
        np.testing.assert_allclose(
            p.log_target(theta), p.log_prior(theta) + p.log_likelihood(theta), rtol=1e-12
        )

    def test_qoi_is_squared_norm(self):
        cp = contamination_problem()
        theta = np.arange(9.0)[None, :]
        assert cp.problem.qoi(theta)[0] == pytest.approx(float(np.sum(np.arange(9.0) ** 2)))

    def test_oracle_in_unit_interval(self):
        cp = contamination_problem()
        p = cp.oracle_tail(20.0)
        assert 0.0 < p < 1.0

    def test_oracle_matches_a_30_digit_evaluation(self):
        # Imhof's integral on the float64 weights quadratic_form_weights(posterior_mean,
        # posterior_cov) of the default spec, in mpmath at 30 digits: mp.quad over
        # [0, 4 pi / 20] plus mp.quadosc beyond it with period 4 pi / 20.
        p = contamination_problem().oracle_tail(20.0)
        assert p == pytest.approx(1.02594681477943e-6, rel=1e-8, abs=0.0)

    def test_spec_takes_only_the_data_seed(self):
        # the paper's field, prior and measurements are class constants
        with pytest.raises(TypeError):
            ContaminationSpec(prior_sd=0.5)
        with pytest.raises(TypeError):
            ContaminationSpec(measured_cells=(0, 1))
        assert ContaminationSpec(rng_seed=7).measured_cells == (0, 1, 4)
        with pytest.raises(ConfigurationError):
            ContaminationSpec(rng_seed=-1)


class TestFourBranch:
    def test_symmetry(self, rng):
        theta = rng.standard_normal((100, 2))
        swapped = theta[:, ::-1]
        np.testing.assert_allclose(four_branch(theta), four_branch(swapped), rtol=1e-12)

    def test_value_at_origin(self):
        assert four_branch(np.zeros((1, 2)))[0] == pytest.approx(3.0)

    def test_problem_wiring(self, rng):
        p = four_branch_problem()
        theta = rng.standard_normal((10, 2))
        np.testing.assert_allclose(p.qoi(theta), -four_branch(theta))
        np.testing.assert_allclose(p.from_standard_normal(theta), theta)

    @given(t1=st.floats(-50.0, 50.0), t2=st.floats(-50.0, 50.0))
    def test_rotated_branches_equal_four_branch(self, t1, t2):
        # the oracle's coordinates: u and v are independent standard normals under the prior
        u, v = (t1 - t2) / math.sqrt(2.0), (t1 + t2) / math.sqrt(2.0)
        sq, root2 = 0.2 * u * u, math.sqrt(2.0)
        rotated = min(3.0 + sq - v, 3.0 + sq + v, root2 * (3.0 + u), root2 * (3.0 - u))
        scale = 10.0 + t1 * t1 + t2 * t2
        assert rotated == pytest.approx(four_branch(np.array([[t1, t2]]))[0], rel=0.0, abs=1e-13 * scale)

    @pytest.mark.parametrize("threshold, tail", [(0.0, 4.457331e-3), (2.0, 1.046280e-5)])
    def test_oracle_matches_a_tight_quadrature(self, threshold, tail):
        # the rotated integral by scipy quad at relative tolerance 1e-12
        assert four_branch_tail(threshold) == pytest.approx(tail, rel=1e-6)


def load_capacity_prior_draws(spec: LoadCapacitySpec, rng: np.random.Generator, m: int) -> np.ndarray:
    """m draws from load_capacity's prior: a Gumbel load, then lognormal component capacities."""
    n = spec.n_components
    loc, scale = spec.gumbel_params()
    mu_c, sigma2_c = spec.lognormal_params()
    theta = np.empty((m, n + 1))
    theta[:, 0] = loc - scale * np.log(-np.log(rng.uniform(size=m)))
    theta[:, 1:] = np.exp(rng.normal(mu_c / n, math.sqrt(sigma2_c / n), size=(m, n)))
    return theta


class TestLoadCapacity:
    def test_gumbel_moment_matching(self):
        spec = LoadCapacitySpec()
        loc, scale = spec.gumbel_params()
        euler = 0.5772156649015329
        assert loc + euler * scale == pytest.approx(spec.load_mean, abs=1e-12)
        assert math.pi * scale / math.sqrt(6.0) == pytest.approx(spec.load_sd, abs=1e-12)

    def test_capacity_product_moments(self):
        # product of sampled component capacities matches (12, 2) within 1%
        theta = load_capacity_prior_draws(LoadCapacitySpec(n_components=10), np.random.default_rng(3), 10**6)
        cap = np.prod(theta[:, 1:], axis=1)
        assert cap.mean() == pytest.approx(12.0, rel=0.01)
        assert cap.std() == pytest.approx(2.0, rel=0.01)

    def test_standard_normal_transform_roundtrip(self, rng):
        lp = load_capacity_problem(LoadCapacitySpec(n_components=10))
        theta = load_capacity_prior_draws(lp.spec, rng, 200)
        u = lp.problem.to_standard_normal(theta)
        back = lp.problem.from_standard_normal(u)
        np.testing.assert_allclose(back, theta, rtol=1e-8)

    def test_transform_maps_prior_to_standard_normal(self, rng):
        lp = load_capacity_problem(LoadCapacitySpec(n_components=10))
        theta = load_capacity_prior_draws(lp.spec, rng, 50_000)
        u = lp.problem.to_standard_normal(theta)
        assert np.abs(u.mean(axis=0)).max() < 0.03
        assert np.abs(u.std(axis=0) - 1.0).max() < 0.03

    def test_log_capacity_posterior_matches_quadrature(self):
        # The conjugate per-component posterior of log capacity must agree
        # with direct quadrature over prior x likelihood.
        spec = LoadCapacitySpec(n_components=10)
        lp = load_capacity_problem(spec)
        mu_c, sigma2_c = spec.lognormal_params()
        mu_i, var_i = mu_c / 10, sigma2_c / 10
        log_y = math.log(spec.measurement)
        sy2 = spec.sigma_y**2

        def unnorm(s):
            return math.exp(-0.5 * (s - mu_i) ** 2 / var_i - 0.5 * (log_y - s) ** 2 / sy2)

        z, _ = integrate.quad(unnorm, -1, 1, epsabs=1e-14)
        m, _ = integrate.quad(lambda s: s * unnorm(s), -1, 1, epsabs=1e-14)
        m2, _ = integrate.quad(lambda s: s * s * unnorm(s), -1, 1, epsabs=1e-14)
        mean, var = m / z, m2 / z - (m / z) ** 2
        assert lp.log_post_mean == pytest.approx(mean, abs=1e-10)
        assert lp.log_post_var == pytest.approx(var, abs=1e-10)

    def test_oracle_values(self):
        p10 = load_capacity_problem(LoadCapacitySpec(n_components=10)).oracle_failure_probability()
        p100 = load_capacity_problem(LoadCapacitySpec(n_components=100)).oracle_failure_probability()
        assert p10 == pytest.approx(6.9026e-5, rel=1e-3)
        assert p100 == pytest.approx(2.1262e-5, rel=1e-3)

    def test_qoi(self):
        lp = load_capacity_problem(LoadCapacitySpec(n_components=3))
        theta = np.array([[5.0, 1.0, 2.0, 3.0]])
        assert lp.problem.qoi(theta)[0] == pytest.approx(5.0 - 6.0)

    def test_negative_capacity_rejected_by_prior(self):
        lp = load_capacity_problem(LoadCapacitySpec(n_components=2))
        theta = np.array([[1.0, -0.5, 1.0]])
        assert lp.problem.log_prior(theta)[0] == -np.inf
        assert lp.problem.log_likelihood(theta)[0] == -np.inf

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            LoadCapacitySpec(n_components=0)
        with pytest.raises(TypeError):  # the paper's load and capacities are class constants
            LoadCapacitySpec(sigma_y=0.1)
