"""Tail probabilities of Gaussian quadratic forms (generalized chi-square).

For theta ~ N(m, Sigma) the squared norm theta^T theta is a weighted sum of
noncentral chi-square variables. The upper tail is evaluated by Imhof's
characteristic-function inversion formula (Imhof 1961): scipy's adaptive
quadrature over the first oscillation periods and QUADPACK's Fourier-integral
routine (QAWF) beyond them. A tail the quadrature cannot resolve to 1% raises
`NumericError`. A crude Monte Carlo cross-check is provided.
"""

from __future__ import annotations

import math

import numpy as np

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
    # Zero-eigenvalue directions contribute the constant b_j^2; the caller
    # subtracts it from the threshold (`offset` in gaussian_quadratic_tail).
    return lam[keep], delta2[keep]


def _imhof_term(u, lam, delta2, trig, x=0.0):
    # trig(beta(u) - x u / 2) / (u rho(u)); Imhof's integrand is the sine.
    if u <= 0.0:
        return 0.0
    lu = lam * u
    lu2 = lu * lu
    beta = 0.5 * float(np.sum(np.arctan(lu) + delta2 * lu / (1.0 + lu2)))
    log_rho = float(np.sum(0.25 * np.log1p(lu2) + 0.5 * delta2 * lu2 / (1.0 + lu2)))
    return trig(beta - 0.5 * x * u) * math.exp(-log_rho) / u


def imhof_tail(lam: np.ndarray, delta2: np.ndarray, x: float) -> float:
    """P(sum_j lam_j chi2_1(delta2_j) > x) by Imhof's inversion formula.

    The integral runs over [0, 4 pi / x] by adaptive quadrature. Beyond it,
    sin(beta - x u / 2) = sin(beta) cos(x u / 2) - cos(beta) sin(x u / 2),
    and QAWF integrates each smooth amplitude against its Fourier weight.
    Raises `NumericError` when the error estimates exceed 1% of the tail.
    """
    from scipy import integrate  # imported here, so a run without an oracle never loads it

    lam = np.asarray(lam, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    if len(lam) == 0:
        return 0.0 if x >= 0 else 1.0
    if x <= 0.0:
        return 1.0
    split = 4.0 * math.pi / x
    with np.errstate(all="ignore"):
        head, head_err = integrate.quad(
            _imhof_term, 0.0, split, args=(lam, delta2, math.sin, x), epsabs=1e-13, epsrel=1e-11, limit=500
        )
        cos_part, cos_err = integrate.quad(
            _imhof_term, split, np.inf, args=(lam, delta2, math.sin), weight="cos", wvar=0.5 * x, epsabs=1e-13
        )
        sin_part, sin_err = integrate.quad(
            _imhof_term, split, np.inf, args=(lam, delta2, math.cos), weight="sin", wvar=0.5 * x, epsabs=1e-13
        )
    p = min(max(0.5 + (head + cos_part - sin_part) / math.pi, 0.0), 1.0)
    err = (head_err + cos_err + sin_err) / math.pi
    if err > 0.01 * p:
        raise NumericError(f"Imhof quadrature cannot resolve P(Q > {x:g}): {p:.3g}, error {err:.2g}")
    return float(p)


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
