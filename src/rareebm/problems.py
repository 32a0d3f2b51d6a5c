"""Rare-event target problems and their analytic reference answers.

Three benchmark problems are provided: a conjugate-Gaussian contamination
field (inversion setting, generalized chi-square oracle), the two-dimensional
four-branch function (traditional setting, 1-D quadrature oracle) and a
load/capacity reliability problem with lognormal component capacities
(inversion setting, 1-D quadrature oracle).

All problem callables are vectorized: theta is a float array of shape (n, d)
and the result has shape (n,), each row's value bit for bit the one a
single-row call gives. They do not promote other shapes. A proposal's
`log_base` scores in one call the base density of every next proposal that
the chain can reach through at most one acceptance within a prefetch tree
(up to 64 rows, 12 for 101 columns), since every array call counts. The MH
kernel calls qoi on each row it takes, as a (1, d) view, when the chain is
biased, and otherwise once per block over the rows it took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from rareebm.errors import ConfigurationError
from rareebm.gchi2 import gaussian_quadratic_tail

_EULER_GAMMA = 0.5772156649015329
# Smallest positive double. Clamping capacities to it before the log keeps
# every positive capacity as it is and gives a finite stand-in elsewhere, so
# no floating-point warning fires where np.where then puts -inf.
_TINY = np.finfo(float).smallest_subnormal
# One MH block of normals holds 1024 (n_components + 1) doubles, 8 GB at this
# bound; a larger value is refused by the spec, before any array is allocated.
_MAX_COMPONENTS = 10**6


@dataclass(frozen=True)
class RareEventQuery:
    """Query P(qoi(theta) >= threshold); '<=' events are posed by negating qoi."""

    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ConfigurationError("query threshold must be finite")


@dataclass(frozen=True)
class TargetProblem:
    """A rare-event target: prior (optionally with likelihood) plus the scalar map R."""

    dim: int
    log_prior: Callable[[np.ndarray], np.ndarray]
    qoi: Callable[[np.ndarray], np.ndarray]
    log_likelihood: Optional[Callable[[np.ndarray], np.ndarray]] = None
    from_standard_normal: Optional[Callable[[np.ndarray], np.ndarray]] = None  # u -> theta
    to_standard_normal: Optional[Callable[[np.ndarray], np.ndarray]] = None  # theta -> u
    sample_prior: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    init_point: Optional[np.ndarray] = None

    def log_target(self, theta: np.ndarray) -> np.ndarray:
        """Unnormalized log density of the prior or, when data exist, the posterior."""
        val = self.log_prior(theta)
        if self.log_likelihood is not None:
            val = val + self.log_likelihood(theta)
        return val


# ---------------------------------------------------------------------------
# Contamination field (conjugate Gaussian inversion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContaminationSpec:
    """The paper's contamination field; only the data realization's seed is a setting."""

    n_cells: ClassVar[int] = 9
    prior_mean: ClassVar[float] = 1.0
    prior_sd: ClassVar[float] = 0.3
    measured_cells: ClassVar[tuple[int, ...]] = (0, 1, 4)
    noise_sd: ClassVar[float] = 0.05
    rng_seed: int = 2024

    def __post_init__(self):
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be >= 0")


@dataclass(frozen=True)
class ContaminationProblem:
    problem: TargetProblem
    spec: ContaminationSpec
    data: np.ndarray = field(repr=False)
    posterior_mean: np.ndarray = field(repr=False)
    posterior_cov: np.ndarray = field(repr=False)

    def oracle_tail(self, threshold: float) -> float:
        """Oracle P(theta^T theta >= threshold) for the Gaussian posterior."""
        return gaussian_quadratic_tail(self.posterior_mean, self.posterior_cov, threshold)


def conjugate_gaussian_posterior(prior_mean, prior_cov, obs_matrix, noise_cov, data):
    """Posterior mean/covariance for y = H theta + eps with Gaussian prior and noise."""
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    obs = np.asarray(obs_matrix, dtype=float)
    noise_cov = np.asarray(noise_cov, dtype=float)
    data = np.asarray(data, dtype=float)
    s = obs @ prior_cov @ obs.T + noise_cov
    gain = prior_cov @ obs.T @ np.linalg.inv(s)
    mean = prior_mean + gain @ (data - obs @ prior_mean)
    cov = prior_cov - gain @ obs @ prior_cov
    return mean, 0.5 * (cov + cov.T)


def contamination_problem(spec: ContaminationSpec = ContaminationSpec()) -> ContaminationProblem:
    m = spec.n_cells
    rng = np.random.default_rng(spec.rng_seed)
    # the data are a noisy measurement of a field drawn from the prior
    truth = rng.normal(spec.prior_mean, spec.prior_sd, size=m)
    measured = np.asarray(spec.measured_cells, dtype=int)
    data = truth[measured] + rng.normal(0.0, spec.noise_sd, size=len(measured))

    prior_mean = np.full(m, spec.prior_mean)
    prior_cov = spec.prior_sd**2 * np.eye(m)
    obs = np.zeros((len(measured), m))
    obs[np.arange(len(measured)), measured] = 1.0
    noise_cov = spec.noise_sd**2 * np.eye(len(measured))
    post_mean, post_cov = conjugate_gaussian_posterior(prior_mean, prior_cov, obs, noise_cov, data)

    # The MH kernel calls log_prior and log_likelihood on each prefetch tree
    # (up to 64 rows) and qoi on each (1, m) row a biased chain takes, so the
    # per-call cost counts: the constants are bound once, the rows are
    # gathered with take (fancy indexing's values at a third of its per-call
    # cost), and the base densities use the vecdot ufunc, not einsum's Python
    # wrapper. vecdot's last bit may differ from einsum's, which moves only an
    # accept/reject whose uniform lies within an ulp of the ratio; qoi keeps
    # einsum, since its r is kept, trained on and read out.
    mean = spec.prior_mean
    prior_scale = -0.5 * (1.0 / spec.prior_sd**2)
    lik_denom = -2.0 * spec.noise_sd**2

    def log_prior(theta):
        diff = theta - mean
        return prior_scale * np.vecdot(diff, diff)

    def log_likelihood(theta):
        resid = theta.take(measured, axis=1) - data
        return np.vecdot(resid, resid) / lik_denom

    def qoi(theta):
        return np.einsum("ij,ij->i", theta, theta)

    problem = TargetProblem(
        dim=m,
        log_prior=log_prior,
        qoi=qoi,
        log_likelihood=log_likelihood,
        init_point=post_mean.copy(),
    )
    return ContaminationProblem(
        problem=problem,
        spec=spec,
        data=data,
        posterior_mean=post_mean,
        posterior_cov=post_cov,
    )


# ---------------------------------------------------------------------------
# Four-branch function (traditional setting)
# ---------------------------------------------------------------------------


def four_branch(theta) -> np.ndarray:
    """Minimum of the four branch limit-state expressions."""
    t1, t2 = theta[:, 0], theta[:, 1]
    sq = 0.1 * (t1 - t2) ** 2
    ssum = (t1 + t2) / math.sqrt(2.0)
    branches = np.stack(
        [
            3.0 + sq - ssum,
            3.0 + sq + ssum,
            (t1 - t2) + 6.0 / math.sqrt(2.0),
            (t2 - t1) + 6.0 / math.sqrt(2.0),
        ]
    )
    return branches.min(axis=0)


def four_branch_problem() -> TargetProblem:
    def log_prior(theta):
        return -0.5 * np.vecdot(theta, theta)

    return TargetProblem(
        dim=2,
        log_prior=log_prior,
        qoi=lambda th: -four_branch(th),
        sample_prior=lambda g, n: g.standard_normal((n, 2)),
        from_standard_normal=lambda u: np.asarray(u, dtype=float),
        to_standard_normal=lambda th: np.asarray(th, dtype=float),
        init_point=np.zeros(2),
    )


def four_branch_tail(threshold: float) -> float:
    """Exact P(-four_branch(theta) >= threshold) under the standard-normal prior.

    In u = (t1 - t2) / sqrt(2) and v = (t1 + t2) / sqrt(2), independent
    standard normals, the branches are 3 + 0.2 u^2 - v, 3 + 0.2 u^2 + v,
    sqrt(2) (3 + u) and sqrt(2) (3 - u). With c = 3 + threshold / sqrt(2) the
    tail is P(|u| >= c) plus the integral over |u| < c of
    phi(u) P(|v| >= 3 + threshold + 0.2 u^2).
    """
    from scipy import integrate  # imported here, so a run without an oracle never loads it

    def both_tails(a):  # P(|z| >= a) for a standard normal z
        return math.erfc(a / math.sqrt(2.0)) if a > 0.0 else 1.0

    c = 3.0 + threshold / math.sqrt(2.0)
    if c <= 0.0:
        return 1.0

    def integrand(u):
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * both_tails(3.0 + threshold + 0.2 * u * u)

    val, _ = integrate.quad(integrand, -c, c, epsabs=0.0, epsrel=1e-12)
    return both_tails(c) + val


# ---------------------------------------------------------------------------
# Load / capacity reliability problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadCapacitySpec:
    """The paper's load/capacity problem; only the component count is a setting."""

    n_components: int = 10
    load_mean: ClassVar[float] = 2.0
    load_sd: ClassVar[float] = 1.0
    capacity_mean: ClassVar[float] = 12.0
    capacity_sd: ClassVar[float] = 2.0
    sigma_y: ClassVar[float] = 0.05

    def __post_init__(self):
        if not 1 <= self.n_components <= _MAX_COMPONENTS:
            raise ConfigurationError(f"n_components must lie in [1, {_MAX_COMPONENTS}]")

    @property
    def measurement(self) -> float:
        """Per-component capacity measurement y_i = 8**(1/n_components)."""
        return 8.0 ** (1.0 / self.n_components)

    def lognormal_params(self) -> tuple[float, float]:
        """Total-capacity log-space parameters by moment matching (mean, sd)."""
        sigma2 = math.log(1.0 + (self.capacity_sd / self.capacity_mean) ** 2)
        mu = math.log(self.capacity_mean) - 0.5 * sigma2
        return mu, sigma2

    def gumbel_params(self) -> tuple[float, float]:
        scale = self.load_sd * math.sqrt(6.0) / math.pi
        loc = self.load_mean - _EULER_GAMMA * scale
        return loc, scale


@dataclass(frozen=True)
class LoadCapacityProblem:
    problem: TargetProblem
    spec: LoadCapacitySpec
    # posterior of each log component capacity (Gaussian-Gaussian conjugacy)
    log_post_mean: float
    log_post_var: float

    @property
    def capacity_log_posterior(self) -> tuple[float, float]:
        """Mean and variance of the posterior of log total capacity."""
        n = self.spec.n_components
        return n * self.log_post_mean, n * self.log_post_var

    def oracle_failure_probability(self) -> float:
        """P(load >= capacity | data) by quadrature over the posterior capacity."""
        from scipy import integrate  # imported here, so a run without an oracle never loads it

        loc, scale = self.spec.gumbel_params()
        m_s, v_s = self.capacity_log_posterior
        sd_s = math.sqrt(v_s)

        def integrand(s):
            z = (math.exp(s) - loc) / scale
            sf = -math.expm1(-math.exp(-z))
            dens = math.exp(-0.5 * ((s - m_s) / sd_s) ** 2) / (sd_s * math.sqrt(2 * math.pi))
            return dens * sf

        val, _ = integrate.quad(integrand, m_s - 10 * sd_s, m_s + 10 * sd_s, epsabs=1e-16, epsrel=1e-10)
        return float(val)


def load_capacity_problem(spec: LoadCapacitySpec = LoadCapacitySpec()) -> LoadCapacityProblem:
    from scipy.special import ndtr, ndtri  # imported here, so the other problems never load scipy.special

    n = spec.n_components
    mu_c, sigma2_c = spec.lognormal_params()
    mu_i = mu_c / n
    var_i = sigma2_c / n
    sd_i = math.sqrt(var_i)
    loc, scale = spec.gumbel_params()
    log_y = math.log(spec.measurement)
    sy2 = spec.sigma_y**2

    # np.add.reduce and np.logical_and.reduce are .sum(axis=1) and
    # .all(axis=1) without the Python wrapper of the ndarray methods.
    def log_prior(theta):
        load, comps = theta[:, 0], theta[:, 1:]
        z = (load - loc) / scale
        # A load below about loc - 709.8 * scale overflows exp(-z) to inf,
        # which gives the right -inf.
        with np.errstate(over="ignore"):
            lp = -math.log(scale) - z - np.exp(-z)
        logc = np.log(np.maximum(comps, _TINY))
        comp_lp = -logc - 0.5 * ((logc - mu_i) / sd_i) ** 2 - math.log(sd_i * math.sqrt(2 * math.pi))
        comp_lp = np.where(comps > 0, comp_lp, -np.inf)
        return lp + np.add.reduce(comp_lp, 1)

    def log_likelihood(theta):
        comps = theta[:, 1:]
        resid = log_y - np.log(np.maximum(comps, _TINY))
        ll = np.vecdot(resid, resid) / (-2.0 * sy2)
        return np.where(np.logical_and.reduce(comps > 0, 1), ll, -np.inf)

    def qoi(theta):
        # A row with a capacity <= 0 lies outside the prior (log_target is
        # -inf there); the clamp keeps its r finite and silent.
        return theta[:, 0] - np.exp(np.add.reduce(np.log(np.maximum(theta[:, 1:], _TINY)), 1))

    def from_u(u):
        theta = np.empty_like(u)
        # np.minimum(np.maximum(..)) gives np.clip's values without its Python wrapper.
        cdf = np.minimum(np.maximum(ndtr(u[:, 0]), 1e-300), 1.0 - 1e-16)
        theta[:, 0] = loc - scale * np.log(-np.log(cdf))
        np.exp(mu_i + sd_i * u[:, 1:], out=theta[:, 1:])
        return theta

    def to_u(theta):
        u = np.empty_like(theta)
        z = (theta[:, 0] - loc) / scale
        u[:, 0] = ndtri(np.clip(np.exp(-np.exp(-z)), 1e-300, 1.0 - 1e-16))
        u[:, 1:] = (np.log(theta[:, 1:]) - mu_i) / sd_i
        return u

    post_var = 1.0 / (1.0 / var_i + 1.0 / sy2)
    post_mean = post_var * (mu_i / var_i + log_y / sy2)

    median_theta = np.empty(n + 1)
    median_theta[0] = loc - scale * math.log(math.log(2.0))
    median_theta[1:] = math.exp(post_mean)

    problem = TargetProblem(
        dim=n + 1,
        log_prior=log_prior,
        qoi=qoi,
        log_likelihood=log_likelihood,
        from_standard_normal=from_u,
        to_standard_normal=to_u,
        init_point=median_theta,
    )
    return LoadCapacityProblem(
        problem=problem,
        spec=spec,
        log_post_mean=post_mean,
        log_post_var=post_var,
    )
