"""Bias potential representations: RBF-parametric and non-parametric grid form.

Both forms expose the same parameter interface: `params` is the trainable
vector (RBF weights or grid node values) and `with_params` builds the same
potential with new values, so training and averaging treat them alike.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from rareebm.densities import _EXP_FLOOR, GridFunction, floored_exp

# |kappa * (r - b_j)| at which the exponent -(kappa * (r - b_j))^2 reaches
# _EXP_FLOOR (26.6157): the float read evaluates the centers within it.
_RBF_CUTOFF = math.sqrt(-_EXP_FLOOR)


@dataclass(frozen=True)
class RbfBias:
    """Sum of squared-exponential radial basis functions.

    V(r) = sum_j w_j * exp(-(kappa * (r - b_j))^2) with fixed, equispaced
    centers b_j and a single shape parameter kappa; only the weights are
    trained.
    """

    weights: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    kappa: float = 1.0
    # [nodes, features(nodes)] for the last read-only node array evaluated
    # (the working grid's xs). Centers and kappa never change, so every
    # with_params copy shares it and a grid readout is one matrix-vector
    # product.
    _grid_features: list = field(default_factory=lambda: [None, None], init=False, repr=False, compare=False)
    # For reading one float r: the centers as a Python list to bisect, kappa
    # as a 0-d array (numpy converts a Python float operand on every call) and
    # a zero feature vector to copy. Filled on the first such read and shared
    # by every with_params copy, as above.
    _float_read: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.centers, dtype=float)
        if w.shape != b.shape or w.ndim != 1 or len(w) < 1:
            raise ValueError("weights and centers must be 1-D arrays of equal length >= 1")
        if len(b) > 1 and not np.all(np.diff(b) > 0):
            raise ValueError("centers must be strictly increasing")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "centers", b)

    @classmethod
    def zero(cls, n_basis: int, lo: float, hi: float, kappa: float) -> "RbfBias":
        return cls(np.zeros(n_basis), np.linspace(lo, hi, n_basis), kappa)

    @staticmethod
    def _exponent(t, kappa):
        """-(kappa * t)^2 in place, for t holding r - b_j."""
        t *= kappa
        np.multiply(t, t, out=t)
        return np.negative(t, out=t)

    def features(self, r):
        """Kernel activations exp(-(kappa*(r-b_j))^2), floored; also d V / d w_j."""
        r = np.asarray(r, dtype=float)
        return floored_exp(self._exponent(r[..., None] - self.centers, self.kappa))

    def __call__(self, r):
        if isinstance(r, float) and math.isfinite(r):
            # One MH proposal: evaluate only the centers whose exponent is
            # above the floor. The product stays over all n features, since a
            # dot over the window alone would group BLAS's sum differently.
            if not self._float_read:
                self._float_read[:] = [self.centers.tolist(), np.array(float(self.kappa)), np.zeros(len(self.centers))]
            centers, kappa, zeros = self._float_read
            k, n = self.kappa, len(centers)
            reach = _RBF_CUTOFF / k
            lo = bisect.bisect_right(centers, r - reach)
            hi = bisect.bisect_left(centers, r + reach)
            # r -+ reach rounds, so settle each edge by features' exponent.
            while lo and -((u := k * (r - centers[lo - 1])) * u) > _EXP_FLOOR:
                lo -= 1
            while lo < hi and -((u := k * (r - centers[lo])) * u) <= _EXP_FLOOR:
                lo += 1
            while hi < n and -((u := k * (r - centers[hi])) * u) > _EXP_FLOOR:
                hi += 1
            while hi > lo and -((u := k * (r - centers[hi - 1])) * u) <= _EXP_FLOOR:
                hi -= 1
            feats = zeros.copy()
            t = feats[lo:hi]
            np.subtract(r, self.centers[lo:hi], out=t)
            np.exp(self._exponent(t, kappa), out=t)
            return feats @ self.weights
        nodes, feats = self._grid_features
        if r is not nodes:
            feats = self.features(r)
            # Only a read-only array is cached: its contents cannot change
            # behind the identity check. Scalars and fresh samples are not.
            if isinstance(r, np.ndarray) and not r.flags.writeable:
                self._grid_features[:] = [r, feats]
        return feats @ self.weights

    @property
    def params(self) -> np.ndarray:
        return self.weights

    def with_params(self, params) -> "RbfBias":
        bias = RbfBias(np.asarray(params, dtype=float), self.centers, self.kappa)
        object.__setattr__(bias, "_grid_features", self._grid_features)
        object.__setattr__(bias, "_float_read", self._float_read)
        return bias

    with_weights = with_params  # the RBF-specific name of the same constructor


@dataclass(frozen=True)
class GridBias:
    """Non-parametric bias potential tabulated on a grid.

    Evaluation interpolates linearly between nodes and extends the boundary
    values as constants outside [lo, hi], so Metropolis excursions beyond
    the grid remain well defined.
    """

    grid: GridFunction

    def __call__(self, r):
        return self.grid.interp(r)

    @classmethod
    def zero(cls, lo: float, hi: float, h: float) -> "GridBias":
        return cls(GridFunction.zeros(lo, hi, h))

    @property
    def params(self) -> np.ndarray:
        return self.grid.values

    def with_params(self, params) -> "GridBias":
        return GridBias(self.grid.with_values(params))


BiasPotential = RbfBias | GridBias
