"""Kernel Stein discrepancy and the wild-bootstrap goodness-of-fit test.

The stopping rule for bias-potential training tests whether the current
chain samples are compatible with the reference density. Correlation in the
samples is handled by the wild bootstrap: bootstrap replicates flip signs
along an auxiliary {-1,+1} Markov chain instead of resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rareebm.densities import ReferenceDensity
from rareebm.errors import EstimationError, NumericError

_BANDWIDTH_FLOOR = 1e-3

# wild_bootstrap_test draws and contracts its sign chains in blocks of
# replicates, each block's work arrays about this many bytes.
_BOOT_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class SteinKernelConfig:
    """Squared-exponential base kernel k(r,s) = exp(-(r-s)^2 / (2 h^2)) of the Stein kernel.

    bandwidth None selects the median heuristic over the sample set.
    """

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class KsdTestConfig:
    alpha: float = 0.95  # confidence level; test size is 1 - alpha
    a_bs: float = 0.4  # flip probability of the auxiliary sign chain
    n_boot: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.a_bs <= 0.5:
            raise ValueError("a_bs must lie in (0, 0.5]")
        if self.n_boot < 1:
            raise ValueError("n_boot must be positive")


@dataclass(frozen=True)
class KsdTestResult:
    reject: bool
    p_value: float
    statistic: float  # observed squared-KSD V-statistic
    skipped: bool = False


def _self_median_heuristic_bandwidth(x: np.ndarray) -> float:
    """The median heuristic over the doubled set concatenate([x, x]), without forming it.

    The distinct-pair distances of the doubled set are n zeros (each sample
    against its copy) and each of x's n(n-1)/2 distinct-pair distances four
    times, so each order statistic that np.median takes is 0 or an order
    statistic of x's own distances. The median is floored at _BANDWIDTH_FLOOR.
    """
    n = len(x)
    if not np.all(np.isfinite(x)):
        return math.nan  # a non-finite sample's distance to its own copy is NaN, which np.median propagates
    if n < 2:
        return _BANDWIDTH_FLOOR  # the one distance of a doubled sample is 0
    total = n * (2 * n - 1)
    ranks = (total // 2,) if total % 2 else (total // 2 - 1, total // 2)
    # Rank k of the doubled set is 0 below n, else rank (k - n) // 4 of x's distances.
    kth = [(k - n) // 4 for k in ranks if k >= n]
    i, j = np.triu_indices(n, k=1)
    d = np.partition(np.abs(x[i] - x[j]), kth)
    mids = [0.0 if k < n else float(d[(k - n) // 4]) for k in ranks]
    med = mids[0] if len(mids) == 1 else (mids[0] + mids[1]) / 2.0
    return max(med, _BANDWIDTH_FLOOR)


def stein_kernel_matrix(
    r: np.ndarray,
    s: np.ndarray,
    p_ref: ReferenceDensity,
    cfg: SteinKernelConfig = SteinKernelConfig(),
) -> np.ndarray:
    """Stein kernel k_p(r_i, r_j) of one sample set, built from the SE base kernel and the score.

    `s` must be the very object `r`: the kernel is only ever formed over one
    sample set. The default bandwidth is the median heuristic over it.
    """
    if s is not r:
        raise ValueError("stein_kernel_matrix takes one sample set: pass the same array as r and s")
    r = np.asarray(r, dtype=float)
    bandwidth = cfg.bandwidth
    if bandwidth is None:
        bandwidth = _self_median_heuristic_bandwidth(r)
    score = np.asarray(p_ref.score(r), dtype=float)
    h2 = bandwidth**2
    # In place in four n x n arrays, with the IEEE operations of the one
    # expression d2k + dk_dr * s_j + dk_ds * s_i + k * s_i * s_j in its order,
    # where dk_dr = -diff / h2 * k and dk_ds = diff / h2 * k: negation is exact,
    # so (-0.5 * diff) * diff is -0.5 * (diff * diff), dk_dr * s_j is
    # -(dk_ds * s_j), and adding it is subtracting dk_ds * s_j.
    diff = np.subtract.outer(r, r)
    d2k = diff * diff
    k = d2k * -0.5
    k /= h2
    np.exp(k, out=k)
    d2k /= h2**2
    np.subtract(1.0 / h2, d2k, out=d2k)
    d2k *= k
    diff /= h2
    diff *= k  # dk_ds
    term = diff * score
    d2k -= term
    np.multiply(diff, score[:, None], out=term)
    d2k += term
    np.multiply(k, score[:, None], out=term)
    term *= score
    d2k += term
    return d2k


def ksd_statistic(kmat: np.ndarray) -> float:
    """V-statistic KSD: sqrt of the full double sum including the diagonal.

    `kmat` is the samples' Stein kernel matrix, `stein_kernel_matrix(samples,
    samples, p_ref, cfg)`.
    """
    n = len(kmat)
    if n < 2:
        raise NumericError("KSD needs at least 2 samples")
    val = float(kmat.sum()) / n**2
    if val < 0:
        if val > -1e-14:
            val = 0.0
        else:
            raise NumericError("negative squared KSD beyond rounding tolerance")
    return math.sqrt(val)


def wild_bootstrap_test(
    samples: np.ndarray,
    p_ref: ReferenceDensity,
    kernel_cfg: SteinKernelConfig,
    test_cfg: KsdTestConfig,
    rng: np.random.Generator,
) -> KsdTestResult:
    """Goodness-of-fit test of the samples against p_ref.

    The observed statistic is the squared-KSD V-statistic (all signs +1);
    replicates multiply the kernel matrix entries by W_i W_j where W is a
    sign chain flipping with probability a_bs. A chain with no flip is the
    all-+1 chain, whose statistic is exactly the observed one, so it counts as
    an exceedance whatever its rounding. The null (samples follow p_ref) is
    rejected when the p-value falls below the test size 1 - alpha. The Stein
    kernel matrix is built only once the samples pass the degenerate-sample
    check.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 2:
        raise NumericError("wild bootstrap needs at least 2 samples")
    if float(np.var(samples)) < 1e-12:
        # Degenerate chain segment: no information, report as not stopped.
        return KsdTestResult(reject=True, p_value=0.0, statistic=float("inf"), skipped=True)
    kmat = stein_kernel_matrix(samples, samples, p_ref, kernel_cfg)
    if not np.any(kmat):
        raise EstimationError("degenerate Stein kernel matrix")
    s_obs = float(kmat.sum()) / n**2
    exceed = sum(int(np.count_nonzero((s >= s_obs) | unflipped))
                 for s, unflipped in _replicate_statistics(kmat, test_cfg, rng))
    p_value = (1.0 + exceed) / (test_cfg.n_boot + 1.0)
    return KsdTestResult(reject=p_value < (1.0 - test_cfg.alpha), p_value=p_value, statistic=s_obs)


def _replicate_statistics(kmat: np.ndarray, test_cfg: KsdTestConfig, rng: np.random.Generator):
    """Each block's replicate statistics and which of its sign chains never flip, in bounded memory.

    The signs take the rows of rng.random((n_boot, n)) in order, in blocks of
    a multiple of 8 replicates (for speed) with about _BOOT_BLOCK_BYTES of
    signs each; the last block holds the remainder.
    """
    n, n_boot = len(kmat), test_cfg.n_boot
    rows = min(n_boot, max(1, _BOOT_BLOCK_BYTES // (64 * n)) * 8)
    w_buf = np.empty((rows, n))
    flip_buf = np.empty((rows, n), dtype=bool)
    kw_buf = np.empty((rows, n))
    for start in range(0, n_boot, rows):
        m = min(rows, n_boot - start)
        w, flips, kw = w_buf[:m], flip_buf[:m], kw_buf[:m]
        rng.random(out=w)
        np.less(w, test_cfg.a_bs, out=flips)
        flips[:, 0] = False
        unflipped = ~flips.any(axis=1)
        # W_j = (-1)^(flips up to j) = 1 - 2 * (parity of the flips up to j),
        # formed in place: a bool-to-float product is numpy's slow mixed-type loop.
        np.logical_xor.accumulate(flips, axis=1, out=flips)
        np.copyto(w, flips)
        w *= -2.0
        w += 1.0
        np.matmul(w, kmat, out=kw)
        yield np.vecdot(kw, w) / n**2, unflipped
