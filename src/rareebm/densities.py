"""Analytic 1-D reference densities and kernel density estimation on grids.

The reference densities (Gaussian and generalized extreme value) expose the
pdf, the score (derivative of the log-pdf), the support and sampling. Grid
functions carry tabulated 1-D functions on an equispaced grid and provide
trapezoid integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from rareebm.errors import EstimationError, NumericError

# Shape parameters below this magnitude are treated as the Gumbel limit to
# avoid catastrophic cancellation in (1 + xi*z)**(-1/xi).
_GUMBEL_SHAPE_TOL = 1e-8

# kde_gaussian: |z| at or beyond which exp(-0.5 * z * z) is exactly 0.0 (the
# exponent is <= -800, below the -745.2 where float64 exp underflows), and
# the size of one block of its node-by-sample work arrays.
_KDE_CUTOFF = 40.0
_KDE_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class Gaussian:
    """Gaussian reference density N(mean, sd^2)."""

    mean: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def pdf(self, r):
        z = (np.asarray(r, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def score(self, r):
        return -(np.asarray(r, dtype=float) - self.mean) / self.sd**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=n)

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)


@dataclass(frozen=True)
class Gev:
    """Generalized extreme value density GEV(location, scale, shape).

    shape == 0 is the Gumbel (type I) case. For shape > 0 the support is
    r >= location - scale/shape; for shape < 0 it is bounded above.
    """

    location: float
    scale: float
    shape: float = 0.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def _gumbel(self) -> bool:
        return abs(self.shape) < _GUMBEL_SHAPE_TOL

    def support(self) -> tuple[float, float]:
        if self._gumbel:
            return (-np.inf, np.inf)
        edge = self.location - self.scale / self.shape
        if self.shape > 0:
            return (edge, np.inf)
        return (-np.inf, edge)

    def _t(self, r):
        # t(r) = (1 + xi*z)**(-1/xi); exp(-z) in the Gumbel limit.
        z = (np.asarray(r, dtype=float) - self.location) / self.scale
        if self._gumbel:
            return np.exp(-z)
        base = 1.0 + self.shape * z
        with np.errstate(invalid="ignore"):
            t = np.where(base > 0, np.power(np.maximum(base, 1e-300), -1.0 / self.shape), np.nan)
        return t

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        z = (r - self.location) / self.scale
        if self._gumbel:
            logt = -z
            inside = np.ones_like(z, dtype=bool)
        else:
            base = 1.0 + self.shape * z
            inside = base > 0
            logt = np.where(inside, -np.log(np.maximum(base, 1e-300)) / self.shape, 0.0)
        t = np.exp(logt)
        val = np.where(inside, np.exp((self.shape + 1.0) * logt - t) / self.scale, 0.0)
        if np.ndim(r) == 0:
            return float(val)
        return val

    def score(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support()
        if np.any(r <= lo) or np.any(r >= hi):
            raise NumericError("score requested outside the density support")
        t = self._t(r)
        if self._gumbel:
            val = (-1.0 + t) / self.scale
        else:
            val = (t ** (1.0 + self.shape) - (self.shape + 1.0) * t**self.shape) / self.scale
        if np.ndim(r) == 0:
            return float(val)
        return val

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self._gumbel:
            return self.location - self.scale * np.log(-np.log(u))
        return self.location + self.scale * (np.power(-np.log(u), -self.shape) - 1.0) / self.shape

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.quantile(rng.uniform(size=n))


ReferenceDensity = Gaussian | Gev


@dataclass(frozen=True)
class GridFunction:
    """Function values on an equispaced 1-D grid over [lo, hi]."""

    lo: float
    hi: float
    h: float
    values: np.ndarray = field(repr=False)
    # xs as Python floats, for interp's float path; filled on its first use.
    # lo, hi and the node count never change, so every with_values copy
    # shares the one list.
    _node_floats: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h <= 0 or self.hi <= self.lo:
            raise ValueError("grid bounds/spacing invalid")
        n = round((self.hi - self.lo) / self.h) + 1
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} grid values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, lo, hi, h) -> "GridFunction":
        n = round((hi - lo) / h) + 1
        return cls(lo, hi, h, np.zeros(n))

    @cached_property
    def xs(self) -> np.ndarray:
        """Grid nodes, built once per object (every bias evaluation interpolates on them)."""
        xs = np.linspace(self.lo, self.hi, len(self.values))
        xs.flags.writeable = False
        return xs

    @cached_property
    def _value_floats(self) -> memoryview:
        """The values as a buffer whose items read as Python floats.

        A view, not a copy: it costs no memory per copy of the grid and always
        reads the current values.
        """
        return memoryview(self.values)

    def __getstate__(self):
        # A memoryview cannot be pickled or deep-copied; the copy builds its own.
        state = self.__dict__.copy()
        state.pop("_value_floats", None)
        return state

    def same_domain(self, other: "GridFunction") -> bool:
        return (
            math.isclose(self.lo, other.lo)
            and math.isclose(self.hi, other.hi)
            and math.isclose(self.h, other.h)
            and len(self.values) == len(other.values)
        )

    def node_index(self, r: float) -> int:
        """Nearest grid node to r; r must lie inside [lo, hi]."""
        if r < self.lo - 1e-12 or r > self.hi + 1e-12:
            raise NumericError(f"point {r} outside grid [{self.lo}, {self.hi}]")
        return int(np.clip(round((r - self.lo) / self.h), 0, len(self.values) - 1))

    def interp(self, r):
        """Linear interpolation, constant beyond the grid edges.

        A float r (one MH proposal) skips np.interp's Python wrapper: the
        node comes from the equispaced spacing, checked against xs, and
        np.interp's own formula is evaluated in floats, so the value is the
        same bit for bit. Nodes and values are read as Python floats from the
        shared node list and the value buffer, not through ndarray.item.
        """
        if not isinstance(r, float):
            return np.interp(np.asarray(r, dtype=float), self.xs, self.values)
        xs, fp = self._node_floats, self._value_floats
        if not xs:
            xs.extend(self.xs.tolist())
        last = len(xs) - 1
        lo, hi = xs[0], xs[last]
        if r <= lo:
            return fp[0]
        if r >= hi:
            return fp[last]
        if r != r:  # NaN
            return r
        # lo < r < hi: xs[j] <= r < xs[j + 1] after at most a step of correction.
        j = min(int((r - lo) / ((hi - lo) / last)), last - 1)
        while xs[j] > r:
            j -= 1
        while xs[j + 1] <= r:
            j += 1
        x0, y0 = xs[j], fp[j]
        if x0 == r:
            return y0
        x1, y1 = xs[j + 1], fp[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        res = slope * (r - x0) + y0
        if res != res:  # np.interp's fallback when the slope overflows
            res = slope * (r - x1) + y1
            if res != res and y0 == y1:
                res = y0
        return res

    def with_values(self, values) -> "GridFunction":
        grid = GridFunction(self.lo, self.hi, self.h, np.asarray(values, dtype=float))
        object.__setattr__(grid, "_node_floats", self._node_floats)
        return grid


def grid_integral(g: GridFunction, a: float, b: float) -> float:
    """Trapezoid integral of g over [a, b], bounds snapped to grid nodes."""
    if a > b:
        raise NumericError("integration bounds out of order")
    i, j = g.node_index(a), g.node_index(b)
    if j <= i:
        return 0.0
    return float(np.trapezoid(g.values[i : j + 1], dx=g.h))


def grid_normalize(g: GridFunction) -> GridFunction:
    """Rescale grid values so the total trapezoid integral equals one."""
    total = float(np.trapezoid(g.values, dx=g.h))
    if total <= 0:
        raise NumericError("cannot normalize: total integral <= 0")
    return g.with_values(g.values / total)


def nrd_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to 1.06 * sd * n^(-1/5) when the IQR-based spread is zero.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    spread = min(sd, iqr / 1.34)
    if spread <= 0:
        spread = sd
    bw = 1.06 * spread * n ** (-0.2)
    if bw <= 0:
        raise EstimationError("zero sample spread: cannot choose a bandwidth")
    return bw


def kde_gaussian(samples, grid: GridFunction, bandwidth: float | None = None) -> GridFunction:
    """Gaussian-kernel density estimate of the samples on the grid nodes.

    Direct summation over samples; sample counts here are at most a few
    hundred per call so no binning is needed. A node's value is the sum over
    the samples of exp(-0.5 * z * z), z = (node - sample) / bandwidth, over
    n * bandwidth * sqrt(2 pi). The nodes go through in blocks that stay in
    cache. A node 40 or more bandwidths beyond every sample is 0.0 without
    evaluating its exponentials, which all underflow (np.exp's slow path).
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2 or len(np.unique(samples)) < 2:
        raise EstimationError("need at least 2 distinct samples for a KDE")
    if bandwidth is None:
        bandwidth = nrd_bandwidth(samples)
    xs, n = grid.xs, len(samples)
    # Below the smallest sample the nearest one is samples.min(), and every
    # other z is at least as large in magnitude (rounding is monotone), so the
    # z computed here as in the loop bounds them all; likewise above the largest.
    first = int(np.count_nonzero((xs - samples.min()) / bandwidth <= -_KDE_CUTOFF))
    stop = len(xs) - int(np.count_nonzero((xs - samples.max()) / bandwidth >= _KDE_CUTOFF))
    dens = np.zeros(len(xs))
    rows = max(1, _KDE_BLOCK_BYTES // (8 * n))
    z = np.empty((min(rows, stop - first), n))
    t = np.empty_like(z)
    for lo in range(first, stop, rows):
        hi = min(lo + rows, stop)
        zb, tb = z[: hi - lo], t[: hi - lo]
        np.subtract(xs[lo:hi, None], samples, out=zb)
        zb /= bandwidth
        np.multiply(zb, -0.5, out=tb)
        tb *= zb
        np.exp(tb, out=tb)
        tb.sum(axis=1, out=dens[lo:hi])
    dens /= n * bandwidth * math.sqrt(2.0 * math.pi)
    return grid.with_values(dens)
