import sys

import numpy as np
import pytest
from scipy import stats

from rareebm.errors import NumericError
from rareebm.gchi2 import (
    gaussian_quadratic_tail,
    gaussian_quadratic_tail_mc,
    imhof_tail,
    quadratic_form_weights,
)


class TestWeights:
    def test_identity_cov(self):
        lam, delta2 = quadratic_form_weights(np.array([1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(sorted(lam), [1.0, 1.0])
        assert np.sum(lam * delta2) == pytest.approx(5.0)

    def test_non_psd_rejected(self):
        with pytest.raises(NumericError):
            quadratic_form_weights(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestImhofAgainstClosedForms:
    def test_central_chisquare(self):
        for d in (1, 3, 9):
            for x in (0.5, 2.0, 10.0, 25.0):
                got = imhof_tail(np.ones(d), np.zeros(d), x)
                assert got == pytest.approx(stats.chi2.sf(x, d), abs=1e-7)

    def test_noncentral_chisquare(self):
        delta2 = 4.0
        for x in (1.0, 5.0, 20.0):
            got = imhof_tail(np.ones(1), np.array([delta2]), x)
            assert got == pytest.approx(stats.ncx2.sf(x, 1, delta2), abs=1e-7)

    def test_weighted_sum(self):
        # two independent scaled chi-squares, checked against 1-D convolution MC
        lam = np.array([1.0, 3.0])
        rng = np.random.default_rng(5)
        z = rng.standard_normal((200_000, 2))
        q = (lam * z**2).sum(axis=1)
        for x in (2.0, 8.0):
            got = imhof_tail(lam, np.zeros(2), x)
            mc = float(np.mean(q >= x))
            assert got == pytest.approx(mc, abs=4 * np.sqrt(mc * (1 - mc) / len(q)))

    def test_bounds(self):
        assert imhof_tail(np.ones(2), np.zeros(2), -1.0) == 1.0
        assert imhof_tail(np.array([]), np.array([]), 1.0) == 0.0


class TestImhofDeepTails:
    def test_deep_closed_forms(self):
        got = imhof_tail(np.ones(1), np.zeros(1), 40.0)
        assert got == pytest.approx(stats.chi2.sf(40, 1), rel=1e-5, abs=0.0)
        got = imhof_tail(np.ones(3), np.array([10.0, 0.0, 0.0]), 80.0)
        assert got == pytest.approx(stats.ncx2.sf(80, 3, 10), rel=1e-5, abs=0.0)

    def test_unresolvable_tail_raises(self):
        # P(chi2_1 > 80) = 3.7e-19 lies far below the quadrature's error estimate
        with pytest.raises(NumericError):
            imhof_tail(np.ones(1), np.zeros(1), 80.0)

    def test_closed_forms_without_mpmath(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)
        assert imhof_tail(np.ones(1), np.zeros(1), 2.0) == pytest.approx(stats.chi2.sf(2.0, 1), abs=1e-7)
        assert imhof_tail(np.ones(1), np.array([4.0]), 5.0) == pytest.approx(stats.ncx2.sf(5.0, 1, 4.0), abs=1e-7)


class TestGaussianQuadraticTail:
    def test_standard_normal_1d(self):
        # theta ~ N(0,1): theta^2 ~ chi2_1
        for x in (1.0, 4.0, 9.0):
            got = gaussian_quadratic_tail(np.zeros(1), np.eye(1), x)
            assert got == pytest.approx(stats.chi2.sf(x, 1), abs=1e-8)

    def test_degenerate_direction_offset(self):
        # second coordinate has zero variance and mean 3: constant offset 9
        cov = np.diag([1.0, 0.0])
        mean = np.array([0.0, 3.0])
        got = gaussian_quadratic_tail(mean, cov, 10.0)
        assert got == pytest.approx(stats.chi2.sf(1.0, 1), abs=1e-8)

    def test_against_mc(self, rng):
        mean = np.full(4, 0.8)
        cov = 0.09 * np.eye(4)
        threshold = 4.5
        exact = gaussian_quadratic_tail(mean, cov, threshold)
        mc, se = gaussian_quadratic_tail_mc(mean, cov, threshold, rng, n_samples=10**6)
        assert abs(exact - mc) < 3.5 * se
