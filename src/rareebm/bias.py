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

from rareebm.densities import GridFunction

# |kappa * (r - b_j)| at or beyond which exp(-(kappa * (r - b_j))^2) is exactly
# 0.0: the exponent is <= -812.25, below the -745.2 where float64 exp
# underflows. Such terms are set to 0.0 rather than evaluated, because numpy's
# exp takes a slow path, over ten times the cost of a normal result, on every
# underflow.
_RBF_CUTOFF = 28.5


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
    # The centers as a Python list, for bisecting a float's window of reach;
    # filled on its first use and shared by every with_params copy, as above.
    _center_list: list = field(default_factory=list, init=False, repr=False, compare=False)

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

    def _exponent(self, t):
        """-(kappa * t)^2 in place, for t holding r - b_j."""
        t *= self.kappa
        np.multiply(t, t, out=t)
        return np.negative(t, out=t)

    def features(self, r):
        """Kernel activations exp(-(kappa*(r-b_j))^2); also d V / d w_j."""
        r = np.asarray(r, dtype=float)
        t = self._exponent(r[..., None] - self.centers)
        # "not <= -cutoff^2" rather than "> -cutoff^2", so a NaN exponent is
        # still evaluated (to NaN).
        skip = t <= -_RBF_CUTOFF * _RBF_CUTOFF
        np.copyto(t, 0.0, where=skip)
        np.logical_not(skip, out=skip)
        return np.exp(t, out=t, where=skip)

    def __call__(self, r):
        if isinstance(r, float) and math.isfinite(r):
            # One MH proposal: evaluate only the centers within reach of r.
            # The product stays over all n features, since a dot over the
            # window alone would group BLAS's sum differently.
            reach = _RBF_CUTOFF / self.kappa
            centers = self._center_list
            if not centers:
                centers.extend(self.centers.tolist())
            lo = bisect.bisect_right(centers, r - reach)
            hi = bisect.bisect_left(centers, r + reach)
            feats = np.zeros(len(centers))
            t = feats[lo:hi]
            np.subtract(r, self.centers[lo:hi], out=t)
            np.exp(self._exponent(t), out=t)
            return feats @ self.weights
        nodes, feats = self._grid_features
        if r is not nodes:
            # Only a read-only array is cached: its contents cannot change
            # behind the identity check. Scalars and fresh samples are not.
            if not (isinstance(r, np.ndarray) and not r.flags.writeable):
                return self.features(r) @ self.weights
            feats = self.features(r)
            self._grid_features[:] = [r, feats]
        return feats @ self.weights

    def weight_gradient(self, r):
        return self.features(r)

    @property
    def params(self) -> np.ndarray:
        return self.weights

    def with_params(self, params) -> "RbfBias":
        bias = RbfBias(np.asarray(params, dtype=float), self.centers, self.kappa)
        object.__setattr__(bias, "_grid_features", self._grid_features)
        object.__setattr__(bias, "_center_list", self._center_list)
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
