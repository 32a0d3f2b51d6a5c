import itertools
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from test_config_fingerprints import child_env
from rareebm.densities import Gaussian
from rareebm.errors import NumericError
from rareebm.ksd import (
    KsdTestConfig,
    SteinKernelConfig,
    ksd_statistic,
    _self_median_heuristic_bandwidth,
    stein_kernel_matrix,
    wild_bootstrap_test,
)


class TestConfigs:
    def test_kernel_validation(self):
        SteinKernelConfig(bandwidth=0.5)
        with pytest.raises(ValueError):
            SteinKernelConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            SteinKernelConfig(bandwidth=-1.0)

    def test_test_validation(self):
        with pytest.raises(ValueError):
            KsdTestConfig(alpha=1.0)
        with pytest.raises(ValueError):
            KsdTestConfig(a_bs=0.6)
        with pytest.raises(ValueError):
            KsdTestConfig(n_boot=0)


class TestSteinKernel:
    def test_symmetry(self, rng):
        p = Gaussian(0.0, 1.0)
        r = rng.standard_normal(20)
        k = stein_kernel_matrix(r, r, p, SteinKernelConfig(bandwidth=1.0))
        np.testing.assert_allclose(k, k.T, atol=1e-10)

    def test_one_sample_set_only(self, rng):
        # a second sample set, even an equal copy, is refused
        x = rng.standard_normal(10)
        with pytest.raises(ValueError):
            stein_kernel_matrix(x, x.copy(), Gaussian(0.0, 1.0))

    def test_closed_form_se_value(self):
        # hand-computed Stein kernel for N(0,1), SE kernel, h=1, r=0, s=0:
        # d2k = 1, scores are 0, so k_p(0,0) = 1
        r = np.zeros(1)
        k = stein_kernel_matrix(r, r, Gaussian(0.0, 1.0), SteinKernelConfig(bandwidth=1.0))
        assert k[0, 0] == pytest.approx(1.0)

    def test_stein_identity_quadrature(self):
        # E_{r,s ~ p}[k_p(r, s)] = 0 for the target density
        p = Gaussian(0.0, 1.0)
        xs = np.linspace(-8, 8, 801)
        w = p.pdf(xs)
        w /= w.sum()
        k = stein_kernel_matrix(xs, xs, p, SteinKernelConfig(bandwidth=1.0))
        assert abs(float(w @ k @ w)) < 1e-3


class TestKsdStatistic:
    def test_matches_double_sum(self, rng):
        p = Gaussian(0.0, 1.0)
        x = rng.standard_normal(40)
        cfg = SteinKernelConfig(bandwidth=1.0)
        k = stein_kernel_matrix(x, x, p, cfg)
        expected = np.sqrt(max(k.sum() / 40**2, 0.0))
        assert ksd_statistic(k) == pytest.approx(expected, abs=1e-12)

    def test_discriminates_shift(self, rng):
        p = Gaussian(0.0, 1.0)
        cfg = SteinKernelConfig()
        x_good = rng.standard_normal(200)
        x_bad = rng.standard_normal(200) + 3.0
        good = ksd_statistic(stein_kernel_matrix(x_good, x_good, p, cfg))
        bad = ksd_statistic(stein_kernel_matrix(x_bad, x_bad, p, cfg))
        assert bad > 5 * good

    def test_minimum_samples(self):
        x = np.array([1.0])
        with pytest.raises(NumericError):
            ksd_statistic(stein_kernel_matrix(x, x, Gaussian(0.0, 1.0), SteinKernelConfig()))

    def test_median_heuristic_floor(self):
        assert _self_median_heuristic_bandwidth(np.array([1.0, 1.0, 1.0])) == 1e-3
        assert _self_median_heuristic_bandwidth(np.array([2.0])) == 1e-3


class TestWildBootstrap:
    def test_rejects_wrong_distribution(self, rng):
        p = Gaussian(0.0, 1.0)
        out = wild_bootstrap_test(rng.standard_normal(200) + 2.0, p,
                                  SteinKernelConfig(), KsdTestConfig(), rng)
        assert out.reject and out.p_value < 0.01

    def test_accepts_matching_distribution(self, rng):
        p = Gaussian(0.0, 1.0)
        out = wild_bootstrap_test(rng.standard_normal(200), p,
                                  SteinKernelConfig(), KsdTestConfig(a_bs=0.5), rng)
        assert not out.reject

    def test_degenerate_samples_skipped(self, rng):
        out = wild_bootstrap_test(np.full(50, 1.0), Gaussian(0.0, 1.0),
                                  SteinKernelConfig(), KsdTestConfig(), rng)
        assert out.skipped and out.reject


@pytest.mark.parametrize("n_boot", [1000, 1003, 20000])
def test_bootstrap_memory_does_not_grow_with_n_boot(n_boot):
    samples = 0.3 + np.random.default_rng(5).standard_normal(125)
    args = (samples, Gaussian(0.0, 1.0), SteinKernelConfig(), KsdTestConfig(n_boot=n_boot))
    tracemalloc.start()
    try:
        wild_bootstrap_test(*args, np.random.default_rng(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Stein matrix's four 125 x 125 arrays and the blocks' work arrays
    assert peak < 1 << 20


# Run in the child: the p-value of wild_bootstrap_test for each (n, n_boot, a_bs, seed) in argv[1].
BOOTSTRAP_P_VALUES = """
import json, sys
import numpy as np
from rareebm.densities import Gaussian
from rareebm.ksd import KsdTestConfig, SteinKernelConfig, wild_bootstrap_test
p_values = []
for n, n_boot, a_bs, seed in json.loads(sys.argv[1]):
    samples = 0.3 + np.random.default_rng(seed).standard_normal(n)
    test_cfg = KsdTestConfig(a_bs=a_bs, n_boot=n_boot)
    rng = np.random.default_rng(seed + 1)
    p_values.append(wild_bootstrap_test(samples, Gaussian(0.0, 1.0), SteinKernelConfig(), test_cfg, rng).p_value)
print(json.dumps(p_values))
"""

# A small flip probability or few samples leave many sign chains unflipped, each one
# tying the observed statistic up to rounding.
THREAD_CASES = list(itertools.product((2, 40, 125, 150), (1, 63, 64, 65, 400, 1003), (0.01, 0.4), range(10)))


def _p_values(threads: int) -> list[float]:
    proc = subprocess.run([sys.executable, "-c", BOOTSTRAP_P_VALUES, json.dumps(THREAD_CASES)],
                          env=child_env(threads), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_p_values_do_not_follow_the_blas_thread_count():
    assert _p_values(2) == _p_values(1)
