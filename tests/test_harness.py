import csv
import json
import math

import numpy as np
import pytest

from rareebm.errors import ConfigurationError
from rareebm.harness import (
    TABLE_ROWS,
    _problem_dim,
    build_problem,
    load_config,
    run_experiment,
    run_replicate,
    summarize_estimates,
)


def tiny_ebm_config(**overrides):
    cfg = {
        "problem": {"name": "four_branch"},
        "query": {"thresholds": [0.0]},
        "method": {
            "kind": "ebm",
            "form": "grid",
            "grid": {"lo": -10.0, "hi": 100.0, "h": 0.1},
            "p_ref": {"kind": "gev", "loc": 2.0, "scale": 3.0, "shape": 0.0},
            "learning_rate": {"kind": "constant", "gamma": 6.5},
            "momentum": 0.5,
            "max_steps": 3,
            "estimate_window": 2,
            "chain": {"burn_in": 5, "thin": 2, "n_keep": 40},
            "proposal": {"kind": "random_walk", "pilot_steps": 200},
            "stopping": {"enabled": False},
        },
        "runs": {"n_runs": 2, "base_seed": 0},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


class TestLoadConfig:
    def test_defaults_filled(self):
        cfg = load_config({"problem": {"name": "four_branch"}, "query": {"thresholds": [0.0]}})
        assert cfg["method"]["kind"] == "ebm"
        assert cfg["runs"]["n_runs"] == 50
        assert cfg["output"]["dir"] is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            load_config({"problem": {"name": "four_branch"}, "quary": {"thresholds": [0.0]}})
        with pytest.raises(ConfigurationError, match="unknown config key"):
            load_config({"method": {"lerning_rate": {}}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            load_config({"method": "ebm"})

    def test_threshold_coverage(self):
        cfg = tiny_ebm_config()
        cfg["query"]["thresholds"] = [5000.0]
        with pytest.raises(ConfigurationError, match="does not cover"):
            load_config(cfg)

    def test_estimate_average_validated(self):
        cfg = tiny_ebm_config()
        cfg["method"]["estimate_average"] = "median"
        with pytest.raises(ConfigurationError, match="estimate_average"):
            load_config(cfg)

    def test_file_source(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_ebm_config()))
        assert load_config(path)["problem"]["name"] == "four_branch"

    def test_invalid_runs_and_thresholds(self):
        with pytest.raises(ConfigurationError):
            load_config({"runs": {"n_runs": 0}})
        with pytest.raises(ConfigurationError):
            load_config({"query": {"thresholds": []}})


class TestBuildProblem:
    def test_known_problems(self):
        for name in ("contamination", "four_branch", "load_capacity"):
            bundle = build_problem({"name": name, "seed": 2024, "n_components": 10})
            assert bundle.problem.dim >= 2

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            build_problem({"name": "nope", "seed": 0, "n_components": 10})


class TestSummarize:
    def test_three_value_fixture(self):
        s = summarize_estimates([1.0, 2.0, 3.0], reference=2.0, threshold=0.5)
        assert s.mean == pytest.approx(2.0)
        assert s.cov == pytest.approx(1.0 / 2.0)  # sd (ddof=1) = 1
        assert s.rmse == pytest.approx(math.sqrt(2.0 / 3.0))
        assert s.ci_low == pytest.approx(np.percentile([1, 2, 3], 2.5))
        assert s.ci_high == pytest.approx(np.percentile([1, 2, 3], 97.5))

    def test_single_run_has_no_spread_stats(self):
        s = summarize_estimates([0.5])
        assert s.cov is None and s.ci_low is None and s.ci_high is None

    def test_nan_runs_excluded(self):
        s = summarize_estimates([1.0, float("nan"), 3.0])
        assert s.mean == pytest.approx(2.0)

    def test_all_failed(self):
        s = summarize_estimates([float("nan")])
        assert math.isnan(s.mean)


class TestReplicates:
    def test_determinism(self):
        cfg = load_config(tiny_ebm_config())
        a = run_replicate(cfg, 0)
        b = run_replicate(cfg, 0)
        assert a.p_hats == b.p_hats and a.budget == b.budget
        c = run_replicate(cfg, 1)
        assert c.p_hats != a.p_hats

    def test_subset_replicate(self):
        cfg = tiny_ebm_config()
        cfg["method"]["kind"] = "subset"
        cfg["method"]["subset"] = {"n_samples": 100, "mh_steps_per_seed": 3}
        out = run_replicate(load_config(cfg), 0)
        assert out.error is None
        assert 0 <= out.p_hats[0] <= 1
        assert out.budget > 0

    def test_potential_averaging_path(self):
        cfg = tiny_ebm_config()
        cfg["method"]["estimate_average"] = "potential"
        out = run_replicate(load_config(cfg), 0)
        assert out.error is None and 0 <= out.p_hats[0] <= 1


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        cfg = tiny_ebm_config()
        cfg["output"] = {"dir": str(tmp_path / "out"), "traces": True}
        stats = run_experiment(cfg)
        assert stats.n_runs == 2 and stats.n_failed == 0
        runs_csv = (tmp_path / "out" / "runs.csv").read_text().strip().splitlines()
        assert len(runs_csv) == 3  # header + 2 runs
        assert (tmp_path / "out" / "trace_0.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["statistics"]["n_runs"] == 2
        assert summary["statistics"]["tail_warnings"] == stats.n_tail_warnings
        got = summary["statistics"]["thresholds"][0]["mean"]
        assert got == pytest.approx(stats.per_threshold[0].mean, rel=1e-12)

    def test_reference_mismatch(self):
        cfg = tiny_ebm_config()
        cfg["runs"]["reference"] = [1e-3, 1e-4]
        with pytest.raises(ConfigurationError, match="reference"):
            run_experiment(cfg)

    def test_stop_reason_counts(self):
        stats = run_experiment(tiny_ebm_config())
        assert stats.stop_reasons == {"max_steps": 2}

    def test_failed_replicates_keep_budget(self, tmp_path):
        # the first update of a huge learning rate diverges
        cfg = tiny_ebm_config()
        cfg["method"]["learning_rate"] = {"kind": "constant", "gamma": 1e12}
        cfg["output"] = {"dir": str(tmp_path)}
        stats = run_experiment(cfg)
        assert stats.n_failed == 2 and stats.stop_reasons == {"error": 2}
        segment = 1 + 5 + 2 * 40  # start point, burn-in, thinned steps
        assert stats.budget_min == stats.budget_max == segment
        assert stats.tuning_budget_mean == 1 + 4 * 50  # start point, four pilot batches
        with open(tmp_path / "runs.csv") as fh:
            assert [int(row["budget"]) for row in csv.DictReader(fh)] == [segment, segment]

    def test_tail_warnings_counted(self, tmp_path):
        # no training steps: the readout is p_ref itself, which reaches past hi
        cfg = tiny_ebm_config()
        cfg["method"]["grid"] = {"lo": -10.0, "hi": 12.0, "h": 0.1}
        cfg["method"]["max_steps"] = 0
        cfg["output"] = {"dir": str(tmp_path)}
        assert run_experiment(cfg).n_tail_warnings == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["statistics"]["tail_warnings"] == 2

    def test_no_tail_warnings_for_a_right_skewed_reference(self):
        # Gumbel p_ref with scale 7 is about 1e-6 of its peak at hi = 100, but
        # the readout's mass there is negligible against p_hat at threshold 0
        from importlib import resources

        with resources.as_file(resources.files("rareebm") / "configs" / "load_capacity_10_rbf.json") as path:
            cfg = load_config(path)
        cfg["runs"]["n_runs"] = 3
        cfg["runs"]["base_seed"] = 1000
        assert run_experiment(cfg).n_tail_warnings == 0

    @pytest.mark.parametrize("stopping", [False, True])
    def test_bounded_reference_support_completes(self, stopping):
        # GEV shape 0.5 has support r >= -2, and the chain starts at r = -3:
        # the KSD of those iterations is undefined, not an error
        cfg = tiny_ebm_config()
        cfg["method"]["p_ref"] = {"kind": "gev", "loc": 0.0, "scale": 1.0, "shape": 0.5}
        cfg["method"]["max_steps"] = 8
        cfg["method"]["stopping"] = {"enabled": stopping, "min_steps": 2}
        cfg["output"] = {"traces": True}
        cfg = load_config(cfg)
        for i in range(2):
            out = run_replicate(cfg, i)
            assert out.error is None and out.stop_reason == "max_steps"
            assert 0.0 <= out.p_hats[0] <= 1.0
            ksd = [rec.ksd for rec in out.trace]
            assert len(ksd) == 8 and math.isnan(ksd[0]) and any(math.isfinite(k) for k in ksd)

    def test_oracle_only_at_threshold_zero(self):
        cfg = tiny_ebm_config(problem={"name": "load_capacity", "n_components": 10})
        cfg["query"]["thresholds"] = [0.0, 5.0]
        cfg["runs"]["n_runs"] = 1
        cfg["method"]["proposal"] = {"kind": "pcn", "beta": 0.3}
        at_zero, at_five = run_experiment(cfg).per_threshold
        assert at_zero.reference == pytest.approx(6.9e-5, rel=0.01) and at_zero.rmse is not None
        assert at_five.reference is None and at_five.rmse is None


@pytest.mark.parametrize(
    "pcfg",
    [{"name": "contamination"}, {"name": "four_branch"}, {"name": "load_capacity", "n_components": 100}],
)
def test_problem_dim_matches_the_built_problem(pcfg):
    pcfg = load_config({"problem": pcfg, "method": {"kind": "subset"}})["problem"]
    assert _problem_dim(pcfg) == build_problem(pcfg).problem.dim


def test_table_registry_configs_load():
    from importlib import resources

    for rows in TABLE_ROWS.values():
        for row in rows:
            with resources.as_file(
                resources.files("rareebm") / "configs" / f"{row['config']}.json"
            ) as path:
                cfg = load_config(path)
            assert cfg["runs"]["n_runs"] == 50


def _shipped_replicate(name, out_dir, traces):
    """One replicate (RNG seed 1000) of a shipped config, written to out_dir."""
    from importlib import resources

    with resources.as_file(resources.files("rareebm") / "configs" / f"{name}.json") as path:
        cfg = load_config(path)
    cfg["runs"]["n_runs"] = 1
    cfg["runs"]["base_seed"] = 1000
    cfg["output"] = {"dir": str(out_dir), "traces": traces}
    run_experiment(cfg)
    return out_dir


# RBF form with stopping off, and grid form with KSD stopping: training skips
# the trace-only readout, KL estimate and Stein matrix when traces are off
@pytest.mark.parametrize("config", ["load_capacity_10_rbf", "contamination_ebm_nonpar"])
def test_traces_leave_runs_csv_unchanged(config, tmp_path):
    plain = _shipped_replicate(config, tmp_path / "plain", traces=False)
    traced = _shipped_replicate(config, tmp_path / "traced", traces=True)
    assert not list(plain.glob("trace_*.csv")) and (traced / "trace_0.csv").exists()
    assert (plain / "runs.csv").read_bytes() == (traced / "runs.csv").read_bytes()


def test_trace_csv_fingerprint(tmp_path):
    # kl (the RBF form's own KDE), ksd (median-heuristic Stein kernel of a
    # Gumbel reference) and p_hat of every iteration; the digest was taken
    # before training skipped the diagnostics that traces do not ask for
    import hashlib

    out = _shipped_replicate("load_capacity_10_rbf", tmp_path, traces=True)
    digest = hashlib.sha256((out / "trace_0.csv").read_bytes()).hexdigest()
    assert digest == "1c63f7de779ab60eed2868b9e680d198fcae2f168b7380f67611db9d7a5298f2"
