"""Bias potential representations: RBF-parametric and non-parametric grid form.

Both forms expose the same parameter interface: `params` is the trainable
vector (RBF weights or grid node values) and `with_params` builds the same
potential with new values, so training and averaging treat them alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rareebm.densities import GridFunction


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

    def features(self, r):
        """Kernel activations exp(-(kappa*(r-b_j))^2); also d V / d w_j."""
        r = np.asarray(r, dtype=float)
        z = self.kappa * (r[..., None] - self.centers)
        return np.exp(-z * z)

    def __call__(self, r):
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
