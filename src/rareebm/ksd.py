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


@dataclass(frozen=True)
class SteinKernelConfig:
    """Base kernel choice for the Stein kernel.

    kind "se": k(r,s) = exp(-(r-s)^2 / (2 h^2)).
    kind "imq": k(r,s) = (c^2 + (r-s)^2)^exponent with exponent in (-1, 0).
    bandwidth None selects the median heuristic over the sample set.
    """

    kind: str = "se"
    bandwidth: float | None = None
    imq_c: float = 1.0
    imq_exponent: float = -0.5

    def __post_init__(self):
        if self.kind not in ("se", "imq"):
            raise ValueError("kernel kind must be 'se' or 'imq'")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.kind == "imq" and not (-1.0 < self.imq_exponent < 0.0):
            raise ValueError("IMQ exponent must lie in (-1, 0)")
        if self.imq_c <= 0:
            raise ValueError("IMQ offset c must be positive")


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


def median_heuristic_bandwidth(samples: np.ndarray) -> float:
    d = np.abs(samples[:, None] - samples[None, :])
    iu = np.triu_indices(len(samples), k=1)
    med = float(np.median(d[iu]))
    return max(med, _BANDWIDTH_FLOOR)


def _self_median_heuristic_bandwidth(x: np.ndarray) -> float:
    """median_heuristic_bandwidth(np.concatenate([x, x])), bit for bit, without the doubled set.

    The distinct-pair distances of the doubled set are n zeros (each sample
    against its copy) and each of x's n(n-1)/2 distinct-pair distances four
    times, so each order statistic that np.median takes is 0 or an order
    statistic of x's own distances.
    """
    n = len(x)
    if n < 2 or not np.all(np.isfinite(x)):  # a non-finite sample makes the median NaN
        return median_heuristic_bandwidth(np.concatenate([x, x]))
    total = n * (2 * n - 1)
    ranks = (total // 2,) if total % 2 else (total // 2 - 1, total // 2)
    # Rank k of the doubled set is 0 below n, else rank (k - n) // 4 of x's distances.
    kth = [(k - n) // 4 for k in ranks if k >= n]
    i, j = np.triu_indices(n, k=1)
    d = np.partition(np.abs(x[i] - x[j]), kth)
    mids = [0.0 if k < n else float(d[(k - n) // 4]) for k in ranks]
    med = mids[0] if len(mids) == 1 else (mids[0] + mids[1]) / 2.0
    return max(med, _BANDWIDTH_FLOOR)


def _base_kernel_terms(r: np.ndarray, s: np.ndarray, cfg: SteinKernelConfig, bandwidth: float):
    """k, dk/dr, dk/ds and d2k/drds on the meshgrid of r (rows) and s (cols)."""
    diff = r[:, None] - s[None, :]
    if cfg.kind == "se":
        h2 = bandwidth**2
        k = np.exp(-0.5 * diff * diff / h2)
        dk_dr = -diff / h2 * k
        dk_ds = diff / h2 * k
        d2k = (1.0 / h2 - diff * diff / h2**2) * k
    else:
        c2 = cfg.imq_c**2
        beta = cfg.imq_exponent
        base = c2 + diff * diff
        k = base**beta
        dk_dr = 2.0 * beta * diff * base ** (beta - 1.0)
        dk_ds = -dk_dr
        d2k = -2.0 * beta * base ** (beta - 1.0) - 4.0 * beta * (beta - 1.0) * diff * diff * base ** (beta - 2.0)
    return k, dk_dr, dk_ds, d2k


def stein_kernel_matrix(
    r: np.ndarray,
    s: np.ndarray,
    p_ref: ReferenceDensity,
    cfg: SteinKernelConfig = SteinKernelConfig(),
    bandwidth: float | None = None,
) -> np.ndarray:
    """Stein kernel k_p(r_i, s_j) built from the base kernel and the score.

    The default bandwidth is the median heuristic over r and s together.
    """
    same = r is s
    r = np.asarray(r, dtype=float)
    s = r if same else np.asarray(s, dtype=float)
    if bandwidth is None:
        bandwidth = cfg.bandwidth
    if bandwidth is None:
        bandwidth = _self_median_heuristic_bandwidth(r) if same else median_heuristic_bandwidth(np.concatenate([r, s]))
    score_r = np.asarray(p_ref.score(r), dtype=float)
    score_s = np.asarray(p_ref.score(s), dtype=float)
    k, dk_dr, dk_ds, d2k = _base_kernel_terms(r, s, cfg, bandwidth)
    return (
        d2k
        + dk_dr * score_s[None, :]
        + dk_ds * score_r[:, None]
        + k * score_r[:, None] * score_s[None, :]
    )


def ksd_statistic(
    samples: np.ndarray,
    p_ref: ReferenceDensity,
    cfg: SteinKernelConfig = SteinKernelConfig(),
    kmat: np.ndarray | None = None,
) -> float:
    """V-statistic KSD: sqrt of the full double sum including the diagonal.

    `kmat` is the samples' Stein kernel matrix when the caller has built it
    already (training shares one with the wild bootstrap).
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 2:
        raise NumericError("KSD needs at least 2 samples")
    if kmat is None:
        kmat = stein_kernel_matrix(samples, samples, p_ref, cfg)
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
    kmat: np.ndarray | None = None,
) -> KsdTestResult:
    """Goodness-of-fit test of the samples against p_ref.

    The observed statistic is the squared-KSD V-statistic (all signs +1);
    replicates multiply the kernel matrix entries by W_i W_j where W is a
    sign chain flipping with probability a_bs. The null (samples follow
    p_ref) is rejected when the p-value falls below the test size 1 - alpha.
    `kmat` is the samples' Stein kernel matrix if already built.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 2:
        raise NumericError("wild bootstrap needs at least 2 samples")
    if float(np.var(samples)) < 1e-12:
        # Degenerate chain segment: no information, report as not stopped.
        return KsdTestResult(reject=True, p_value=0.0, statistic=float("inf"), skipped=True)
    if kmat is None:
        kmat = stein_kernel_matrix(samples, samples, p_ref, kernel_cfg)
    if not np.any(kmat):
        raise EstimationError("degenerate Stein kernel matrix")
    s_obs = float(kmat.sum()) / n**2
    flips = rng.random((test_cfg.n_boot, n)) < test_cfg.a_bs
    flips[:, 0] = False
    # W_j = (-1)^(flips up to j) = 1 - 2 * (parity of the flips up to j),
    # formed in place: a bool-to-float product is numpy's slow mixed-type loop.
    w = np.logical_xor.accumulate(flips, axis=1).astype(float)
    w *= -2.0
    w += 1.0
    s_boot = np.einsum("bi,ij,bj->b", w, kmat, w, optimize=True) / n**2
    p_value = (1.0 + int(np.sum(s_boot >= s_obs))) / (test_cfg.n_boot + 1.0)
    return KsdTestResult(reject=p_value < (1.0 - test_cfg.alpha), p_value=p_value, statistic=s_obs)
