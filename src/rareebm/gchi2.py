"""Tail probabilities of Gaussian quadratic forms (generalized chi-square).

For theta ~ N(m, Sigma) the squared norm theta^T theta is a weighted sum of
noncentral chi-square variables. The upper tail is evaluated by Imhof's
characteristic-function inversion formula with adaptive quadrature, and a
crude Monte Carlo cross-check is provided.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from rareebm.errors import NumericError

_MC_CHUNK = 10**6  # samples per batch of the Monte Carlo cross-check


def quadratic_form_weights(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-weights and noncentralities of theta^T theta for theta ~ N(mean, cov).

    Returns (lam, delta2) such that the form is distributed as
    sum_j lam_j * chi2_1(delta2_j).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    lam, vecs = np.linalg.eigh(cov)
    if np.any(lam < -1e-10 * max(1.0, lam.max(initial=0.0))):
        raise NumericError("covariance matrix is not positive semidefinite")
    lam = np.clip(lam, 0.0, None)
    b = vecs.T @ mean
    keep = lam > 1e-14 * max(1.0, lam.max(initial=0.0))
    delta2 = np.where(keep, b**2 / np.where(keep, lam, 1.0), 0.0)
    # Zero-eigenvalue directions contribute the constant b_j^2; fold them in
    # by shifting the threshold at call sites via `constant_offset`.
    return lam[keep], delta2[keep]


def _imhof_integrand(u, lam, delta2, x):
    if u <= 0.0:
        return 0.0
    lu = lam * u
    lu2 = lu * lu
    theta = 0.5 * float(np.sum(np.arctan(lu) + delta2 * lu / (1.0 + lu2))) - 0.5 * x * u
    log_rho = float(np.sum(0.25 * np.log1p(lu2) + 0.5 * delta2 * lu2 / (1.0 + lu2)))
    return math.sin(theta) * math.exp(-log_rho) / u


def _imhof_tail_oscillatory(lam, delta2, x) -> float:
    # Slowly decaying integrand (few degrees of freedom): integrate the
    # oscillatory tail with mpmath; the phase is asymptotically -x*u/2, so
    # the oscillation period approaches 4*pi/x.
    import mpmath as mp

    f = lambda u: _imhof_integrand(float(u), lam, delta2, x)
    old = mp.mp.dps
    try:
        mp.mp.dps = 10
        split = 10.0
        head = mp.quad(f, [0.0, split])
        tail = mp.quadosc(f, [split, mp.inf], period=4.0 * math.pi / abs(x))
        return float(head + tail)
    finally:
        mp.mp.dps = old


def imhof_tail(lam: np.ndarray, delta2: np.ndarray, x: float) -> float:
    """P(sum_j lam_j chi2_1(delta2_j) > x) by Imhof's inversion formula."""
    lam = np.asarray(lam, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    if len(lam) == 0:
        return 0.0 if x >= 0 else 1.0
    if x <= 0.0:
        return 1.0
    with np.errstate(all="ignore"):
        out = integrate.quad(
            _imhof_integrand,
            0.0,
            np.inf,
            args=(lam, delta2, x),
            epsabs=1e-13,
            epsrel=1e-11,
            limit=500,
            full_output=1,
        )
    val, abserr = out[0], out[1]
    converged = len(out) < 4 and abserr < 1e-8
    if not converged:
        val = _imhof_tail_oscillatory(lam, delta2, x)
    p = 0.5 + val / math.pi
    return float(min(max(p, 0.0), 1.0))


def gaussian_quadratic_tail(mean, cov, threshold: float) -> float:
    """P(theta^T theta >= threshold) for theta ~ N(mean, cov)."""
    lam, delta2 = quadratic_form_weights(mean, cov)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    # Mass lost to null directions of the covariance appears as a constant.
    full = float(mean @ mean)
    active = float(np.sum(lam * delta2))
    offset = max(full - active, 0.0)
    return imhof_tail(lam, delta2, threshold - offset)


def gaussian_quadratic_tail_mc(
    mean,
    cov,
    threshold: float,
    rng: np.random.Generator,
    n_samples: int = 10**7,
) -> tuple[float, float]:
    """Crude Monte Carlo cross-check of the quadratic-form tail.

    Samples are drawn in chunks of _MC_CHUNK. Returns (estimate, standard_error).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = len(mean)
    chol = np.linalg.cholesky(cov + 1e-15 * np.eye(d))
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        theta = mean + rng.standard_normal((m, d)) @ chol.T
        hits += int(np.count_nonzero(np.einsum("ij,ij->i", theta, theta) >= threshold))
        done += m
    p = hits / n_samples
    return p, math.sqrt(max(p - p * p, 0.0) / n_samples)
