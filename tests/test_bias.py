import pickle
from copy import deepcopy

import numpy as np
import pytest

from rareebm.bias import GridBias, RbfBias
from rareebm.densities import GridFunction


class TestRbfBias:
    def test_zero_and_evaluation(self):
        b = RbfBias.zero(11, -5.0, 5.0, 1.0)
        assert np.all(b(np.linspace(-5, 5, 7)) == 0.0)
        b2 = b.with_params(np.ones(11))
        # at a center the local kernel contributes exactly 1
        assert b2(np.array([0.0]))[0] >= 1.0

    def test_features_are_weight_gradient(self):
        b = RbfBias(np.array([0.5, -1.0, 2.0]), np.array([-1.0, 0.0, 1.0]), kappa=2.0)
        r = np.array([-0.3, 0.7])
        feats = b.features(r)
        expected = np.exp(-(2.0 * (r[:, None] - b.centers)) ** 2)
        np.testing.assert_allclose(feats, expected, rtol=1e-12)
        np.testing.assert_allclose(b(r), feats @ b.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            RbfBias(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            RbfBias(np.zeros(3), np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            RbfBias(np.zeros(2), np.array([0.0, 1.0]), kappa=0.0)


class TestGridBias:
    def test_interpolation_and_extension(self):
        g = GridFunction(0.0, 2.0, 1.0, np.array([0.0, 1.0, 4.0]))
        b = GridBias(g)
        assert b(np.array([0.5]))[0] == pytest.approx(0.5)
        assert b(np.array([1.5]))[0] == pytest.approx(2.5)
        # constant beyond edges
        assert b(np.array([-10.0]))[0] == pytest.approx(0.0)
        assert b(np.array([10.0]))[0] == pytest.approx(4.0)

    def test_pickles_and_deep_copies_after_a_float_read(self):
        b = GridBias(GridFunction(0.0, 2.0, 1.0, np.array([0.0, 1.0, 4.0])))
        assert b(1.5) == 2.5  # fills the float caches
        for copy in (pickle.loads(pickle.dumps(b)), deepcopy(b)):
            assert copy(1.5) == 2.5 and copy(0.5) == 0.5
            np.testing.assert_array_equal(copy.params, b.params)
            assert copy.with_params(np.array([4.0, 1.0, 0.0]))(0.5) == 2.5
