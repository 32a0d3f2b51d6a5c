import math

import numpy as np
import pytest
from scipy import integrate, stats

from rareebm.densities import (
    Gaussian,
    Gev,
    GridFunction,
    grid_normalize,
    kde_gaussian,
    nrd_bandwidth,
)
from rareebm.errors import EstimationError, NumericError
from rareebm.estimator import FreeEnergyEstimate, tail_probability


class TestGaussian:
    def test_matches_scipy(self):
        g = Gaussian(1.5, 0.7)
        xs = np.linspace(-3, 6, 50)
        np.testing.assert_allclose(g.pdf(xs), stats.norm.pdf(xs, 1.5, 0.7), rtol=1e-12)

    def test_score_is_logpdf_derivative(self):
        g = Gaussian(-0.3, 2.0)
        xs = np.linspace(-5, 5, 21)
        eps = 1e-6
        logpdf = stats.norm(-0.3, 2.0).logpdf
        num = (logpdf(xs + eps) - logpdf(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(g.score(xs), num, atol=1e-7)

    def test_sampling_moments(self, rng):
        g = Gaussian(2.0, 3.0)
        x = g.sample(rng, 200_000)
        assert abs(x.mean() - 2.0) < 0.05
        assert abs(x.std() - 3.0) < 0.05

    def test_invalid_sd(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)


# the paper's Gumbel references: Table 2's GEV(2, 3, 0) and Table 3's GEV(0, 7, 0)
GUMBELS = [(1.0, 2.0), (2.0, 3.0), (0.0, 7.0)]


class TestGev:
    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_pdf_integrates_to_one(self, location, scale):
        g = Gev(location=location, scale=scale)
        val, _ = integrate.quad(lambda r: float(g.pdf(r)), -60, 200, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_matches_scipy(self, location, scale):
        g = Gev(location=location, scale=scale)
        xs = location + scale * np.linspace(-1.5, 3.5, 41)
        np.testing.assert_allclose(g.pdf(xs), stats.gumbel_r.pdf(xs, location, scale), atol=1e-10)

    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_score_is_logpdf_derivative(self, location, scale):
        g = Gev(location=location, scale=scale)
        xs = location + scale * np.linspace(-1.0, 2.75, 15)
        eps = 1e-6
        logpdf = stats.gumbel_r(location, scale).logpdf
        num = (logpdf(xs + eps) - logpdf(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(g.score(xs), num, atol=1e-6)

    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_score_tends_to_minus_one_over_scale_in_the_right_tail(self, location, scale):
        # the right tail is exponential with rate 1/scale; -inf scores NaN, as NaN
        # does, and neither raises a floating-point warning
        g = Gev(location=location, scale=scale)
        with np.errstate(all="raise"):
            got = g.score(np.array([location + 40.0 * scale, np.inf, -np.inf]))
        assert got[0] == pytest.approx(-1.0 / scale, rel=1e-15) and got[1] == -1.0 / scale
        assert np.isnan(got[2])

    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_nan_scores_nan(self, location, scale):
        # pdf and score share one transform; its value at NaN must not turn a
        # NaN sample into a finite score
        g = Gev(location=location, scale=scale)
        assert np.isnan(g.score(np.array([np.nan, location + 0.5 * scale]))[0])

    def test_gumbel_pdf_is_zero_at_nan_and_infinity(self):
        # NaN and -inf are off the transform: density 0.0 and no floating-point warning
        g = Gev(location=0.0, scale=1.0)
        with np.errstate(all="raise"):
            assert g.pdf(np.array([np.nan, -np.inf, np.inf])).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("location, scale", GUMBELS)
    def test_samples_are_the_quantiles_of_uniform_draws(self, location, scale):
        g = Gev(location=location, scale=scale)
        us = np.random.default_rng(3).uniform(size=30)
        x = g.sample(np.random.default_rng(3), 30)
        np.testing.assert_allclose(stats.gumbel_r.cdf(x, location, scale), us, atol=1e-10)

    def test_sampling_matches_cdf(self, rng):
        g = Gev(location=0.0, scale=7.0)
        x = g.sample(rng, 20_000)
        stat = stats.kstest(x, stats.gumbel_r(0.0, 7.0).cdf).statistic
        assert stat < 0.015

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Gev(location=0.0, scale=-1.0)


class TestGridFunction:
    def test_construction_and_nodes(self):
        g = GridFunction.zeros(-1.0, 1.0, 0.5)
        np.testing.assert_allclose(g.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # a tail integral starts at the node nearest its threshold: 0.5 for 0.26
        est = FreeEnergyEstimate(g.with_values([0.0, 0.0, 0.0, 0.4, 0.8]))
        assert tail_probability(est, 0.26) == pytest.approx(0.5 * (0.4 + 0.8) / 2)
        with pytest.raises(NumericError):
            tail_probability(est, 2.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(-1.0, 1.0, 0.5, np.zeros(4))
        with pytest.raises(ValueError):
            GridFunction(-1.0, 1.0, 0.5, np.array([0, 1, np.nan, 0, 0.0]))

    def test_interp_inside_and_beyond_the_grid(self):
        grid = GridFunction.zeros(0.0, 2.0, 0.1)
        g = grid.with_values(grid.xs**2)
        assert g.interp(1.0) == pytest.approx(1.0)
        # constant extension outside the grid
        assert g.interp(5.0) == pytest.approx(4.0)
        assert g.interp(-3.0) == pytest.approx(0.0)

    def test_same_domain(self):
        a = GridFunction.zeros(0, 1, 0.1)
        assert a.same_domain(a.with_values(np.ones(11)))
        assert not a.same_domain(GridFunction.zeros(0, 2, 0.1))


class TestGridOps:
    def test_grid_integral(self):
        grid = GridFunction.zeros(0.0, 1.0, 0.01)
        est = FreeEnergyEstimate(grid.with_values(3 * grid.xs**2))
        assert tail_probability(est, 0.0) == pytest.approx(1.0, abs=1e-4)
        assert tail_probability(est, 0.5) == pytest.approx(0.875, abs=1e-4)
        assert tail_probability(est, 1.0) == 0.0

    def test_grid_normalize(self):
        grid = GridFunction.zeros(-5, 5, 0.01)
        g = grid.with_values(np.exp(-np.abs(grid.xs)))
        n = grid_normalize(g)
        assert np.trapezoid(n.values, dx=n.h) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericError):
            grid_normalize(g.with_values(np.zeros(len(g.values))))


class TestKde:
    def test_nrd_formula(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
        sd = np.std(x, ddof=1)
        iqr = np.subtract(*np.percentile(x, [75, 25]))
        expected = 1.06 * min(sd, iqr / 1.34) * len(x) ** -0.2
        assert nrd_bandwidth(x) == pytest.approx(expected)

    def test_kde_integrates_to_one(self, rng):
        grid = GridFunction.zeros(-10, 10, 0.05)
        x = rng.standard_normal(300)
        dens = kde_gaussian(x, grid)
        assert np.trapezoid(dens.values, dx=dens.h) == pytest.approx(1.0, abs=1e-3)

    def test_kde_fixed_bandwidth(self, rng):
        grid = GridFunction.zeros(-10, 10, 0.05)
        x = rng.standard_normal(300)
        wide = kde_gaussian(x, grid, bandwidth=3.0)
        narrow = kde_gaussian(x, grid, bandwidth=0.1)
        assert wide.values.max() < narrow.values.max()

    def test_degenerate_samples_rejected(self):
        grid = GridFunction.zeros(-1, 1, 0.1)
        with pytest.raises(EstimationError):
            kde_gaussian(np.array([0.5]), grid)
        with pytest.raises(EstimationError):
            kde_gaussian(np.full(50, 0.5), grid)
