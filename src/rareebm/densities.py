"""Analytic 1-D reference densities and kernel density estimation on grids.

The reference densities are the paper's two: a Gaussian and a Gumbel (the
generalized extreme value density with shape 0). Both expose the pdf, the
score (derivative of the log-pdf) and sampling, and both are positive on the
whole real line. Grid functions carry tabulated 1-D functions on an
equispaced grid and provide trapezoid integration.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from rareebm.errors import EstimationError

# log(DBL_MIN): both Gaussian kernels set a term whose exponent is at or below
# it to 0.0 unevaluated (floored_exp), as numpy's exp leaves its SIMD loop for
# every result below DBL_MIN, the smallest normal double.
_EXP_FLOOR = math.log(np.finfo(float).tiny)
# kde_gaussian: |z| at or beyond which -0.5 * z * z is below _EXP_FLOOR, and
# the size of one block of its node-by-sample work arrays.
_KDE_CUTOFF = math.sqrt(-2.0 * _EXP_FLOOR)
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


@dataclass(frozen=True)
class Gev:
    """Gumbel density: the generalized extreme value density GEV(location, scale, 0)."""

    location: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def _log_t(self, r):
        # (log t(r), r > -inf), t(r) = exp(-z); log t is NaN at NaN and -inf, so
        # the pdf reads 0.0 there with no warning and a NaN r scores NaN.
        z = (np.asarray(r, dtype=float) - self.location) / self.scale
        inside = z > -np.inf
        return np.where(inside, -z, np.nan), inside

    def pdf(self, r):
        logt, inside = self._log_t(r)
        return np.where(inside, np.exp(logt - np.exp(logt)) / self.scale, 0.0)

    def score(self, r):
        t = np.exp(self._log_t(r)[0])
        return (-1.0 + t) / self.scale

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.location - self.scale * np.log(-np.log(rng.uniform(size=n)))


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

    def same_domain(self, other: "GridFunction") -> bool:
        return (
            math.isclose(self.lo, other.lo)
            and math.isclose(self.hi, other.hi)
            and math.isclose(self.h, other.h)
            and len(self.values) == len(other.values)
        )

    def interp(self, r):
        """Linear interpolation, constant beyond the grid edges.

        A float r (one MH proposal) skips np.interp's Python wrapper: the node
        comes from bisect on the shared node list, and np.interp's own formula
        is evaluated in floats, so the value is the same bit for bit.
        """
        if not isinstance(r, float):
            return np.interp(np.asarray(r, dtype=float), self.xs, self.values)
        xs, fp = self._node_floats, self.values
        if not xs:
            xs.extend(self.xs.tolist())
        if r <= xs[0]:
            return fp.item(0)
        if r >= xs[-1]:
            return fp.item(-1)
        if r != r:  # NaN
            return r
        j = bisect.bisect_right(xs, r) - 1
        x0, y0 = xs[j], fp.item(j)
        if x0 == r:
            return y0
        x1, y1 = xs[j + 1], fp.item(j + 1)
        return (y1 - y0) / (x1 - x0) * (r - x0) + y0

    def with_values(self, values) -> "GridFunction":
        grid = GridFunction(self.lo, self.hi, self.h, np.asarray(values, dtype=float))
        object.__setattr__(grid, "_node_floats", self._node_floats)
        return grid


def grid_normalize(g: GridFunction) -> GridFunction:
    """Rescale grid values so the total trapezoid integral equals one."""
    total = float(np.trapezoid(g.values, dx=g.h))
    if total <= 0:
        raise EstimationError("cannot normalize: total integral <= 0")
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


def floored_exp(t):
    """np.exp(t) in place, with 0.0 unevaluated where t <= _EXP_FLOOR; NaN stays NaN."""
    skip = t <= _EXP_FLOOR
    np.copyto(t, 0.0, where=skip)
    np.logical_not(skip, out=skip)
    return np.exp(t, out=t, where=skip)


def kde_gaussian(samples, grid: GridFunction, bandwidth: float | None = None) -> GridFunction:
    """Gaussian-kernel density estimate of the samples on the grid nodes.

    Direct summation over samples; sample counts here are at most a few
    hundred per call so no binning is needed. A node's value is the sum over
    the samples of exp(-0.5 * z * z), z = (node - sample) / bandwidth, over
    n * bandwidth * sqrt(2 pi), with floored_exp's floor. The nodes go through
    in blocks that stay in cache. A node 37.64 or more bandwidths beyond every
    sample is 0.0 without evaluating its exponentials.
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
        floored_exp(tb)
        tb.sum(axis=1, out=dens[lo:hi])
    dens /= n * bandwidth * math.sqrt(2.0 * math.pi)
    return grid.with_values(dens)
