import numpy as np
import pytest
from scipy import stats

from rareebm.bias import GridBias
from rareebm.densities import Gaussian, Gev, GridFunction
from rareebm.errors import NumericError
from rareebm.estimator import free_energy_from_bias, tail_probability, truncated_tail


@pytest.fixture
def grid():
    return GridFunction.zeros(-8.0, 8.0, 0.01)


class TestFreeEnergy:
    def test_zero_bias_recovers_reference(self, grid):
        p_ref = Gaussian(0.5, 1.5)
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), p_ref, grid)
        np.testing.assert_allclose(est.density.values, p_ref.pdf(grid.xs), atol=1e-4)

    def test_tail_warning_for_mass_at_the_upper_edge(self, grid):
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(7.0, 1.0), grid)
        assert truncated_tail(est, tail_probability(est, 5.0)) is True

    def test_tail_warning_for_a_bias_piling_mass_at_the_edge(self, grid):
        # p_ref is negligible at hi, but V rises steeply toward it
        v = np.where(grid.xs > 6.0, 40.0 * (grid.xs - 6.0), 0.0)
        est = free_energy_from_bias(GridBias(grid.with_values(v)), Gaussian(0.0, 1.0), grid)
        assert truncated_tail(est, tail_probability(est, 3.0)) is True

    def test_no_tail_warning_well_inside_the_grid(self, grid):
        # the upper edge is 16 sd out: density there is exp(-128) of the peak
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(0.0, 0.5), grid)
        assert truncated_tail(est, tail_probability(est, 1.0)) is False

    def test_no_tail_warning_for_a_small_edge_density_under_a_large_tail(self, grid):
        # the density at hi is 1e-6 of its peak, as for a right-skewed
        # reference, but the tail read from threshold 0 is about one half
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(0.0, 8.0 / 5.26), grid)
        assert est.density.values[-1] > 1e-7 * est.density.values.max()
        assert truncated_tail(est, tail_probability(est, 0.0)) is False

    def test_optimal_bias_recovers_target(self, grid):
        # V = -F - log p_ref reconstructs p_R exactly
        p_ref = Gaussian(0.0, 2.0)
        target = Gaussian(0.0, 1.0)
        v_vals = -(-stats.norm.logpdf(grid.xs, 0.0, 1.0)) - stats.norm.logpdf(grid.xs, 0.0, 2.0)
        est = free_energy_from_bias(GridBias(grid.with_values(v_vals)), p_ref, grid)
        np.testing.assert_allclose(est.density.values, target.pdf(grid.xs), atol=1e-5)

    def test_tail_matches_closed_form(self, grid):
        p_ref = Gaussian(0.0, 2.0)
        v_vals = stats.norm.logpdf(grid.xs, 0.0, 1.0) - stats.norm.logpdf(grid.xs, 0.0, 2.0)
        est = free_energy_from_bias(GridBias(grid.with_values(v_vals)), p_ref, grid)
        for t in (0.0, 1.0, 1.959964, 3.0):
            assert tail_probability(est, t) == pytest.approx(stats.norm.sf(t), abs=2e-4)

    def test_support_mask_for_bounded_reference(self):
        grid = GridFunction.zeros(-5.0, 5.0, 0.01)
        p_ref = Gev(location=0.0, scale=1.0, shape=0.5)  # support r >= -2
        est = free_energy_from_bias(GridBias.zero(-5, 5, 0.01), p_ref, grid)
        # zero outside the support; inside it, positive wherever p_ref has not underflowed
        assert np.all(est.density.values[grid.xs < -2.0 - 1e-9] == 0.0)
        assert np.all(est.density.values[grid.xs >= -1.0] > 0.0)

    def test_gauge_invariance(self, grid):
        p_ref = Gaussian(0.0, 2.0)
        v = np.cos(grid.xs)
        a = free_energy_from_bias(GridBias(grid.with_values(v)), p_ref, grid)
        b = free_energy_from_bias(GridBias(grid.with_values(v + 55.0)), p_ref, grid)
        np.testing.assert_allclose(a.density.values, b.density.values, atol=1e-12)


class TestTailProbability:
    def test_bounds_and_edges(self, grid):
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(0.0, 1.0), grid)
        assert tail_probability(est, -8.0) == pytest.approx(1.0, abs=1e-6)
        assert tail_probability(est, 8.0) == pytest.approx(0.0, abs=1e-9)

    def test_thresholds_within_rounding_of_the_edges(self, grid):
        # the range check admits 1e-12 beyond either edge; such a threshold
        # reads from the edge node
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(0.0, 1.0), grid)
        assert tail_probability(est, 8.0 + 5e-13) == 0.0
        assert tail_probability(est, -8.0 - 5e-13) == tail_probability(est, -8.0)

    def test_threshold_outside_grid(self, grid):
        est = free_energy_from_bias(GridBias.zero(-8, 8, 0.01), Gaussian(0.0, 1.0), grid)
        with pytest.raises(NumericError):
            tail_probability(est, 9.0)
