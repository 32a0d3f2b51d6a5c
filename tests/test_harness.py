import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import counting_base, counting_qoi
from rareebm import harness
from rareebm.errors import ConfigurationError
from rareebm.harness import (
    TABLE_ROWS,
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


    def test_base_density_rows_are_the_budget_plus_the_extra_rows(self, monkeypatch):
        problems = []

        def counting_build_problem(pcfg):
            bundle = build_problem(pcfg)
            problem, qoi_rows = counting_qoi(bundle.problem)
            problem, base_rows = counting_base(problem)
            problems.append((qoi_rows, base_rows))
            return dataclasses.replace(bundle, problem=problem)

        monkeypatch.setattr(harness, "build_problem", counting_build_problem)
        diverging = tiny_ebm_config()
        diverging["method"]["learning_rate"] = {"kind": "constant", "gamma": 1e12}
        pcn = tiny_ebm_config()
        pcn["method"]["proposal"] = {"kind": "pcn", "beta": 0.0, "pilot_steps": 200}  # a tuned beta
        subset = {
            "problem": {"name": "contamination"},
            "query": {"thresholds": [20.0]},
            "method": {
                "kind": "subset",
                "proposal": {"pilot_steps": 200},
                "subset": {"n_samples": 20, "mh_steps_per_seed": 2, "posterior_burn_in": 10, "posterior_thin": 5},
            },
        }
        # the subset baseline scores its initial population once more, outside the budget
        for cfg, gap in [(tiny_ebm_config(), 0), (diverging, 0), (pcn, 0), (subset, 20)]:
            out = run_replicate(load_config(cfg), 0)
            qoi_rows, base_rows = problems[-1]  # the replicate's own build
            assert (out.error is None) == (cfg is not diverging)
            assert sum(qoi_rows) == out.budget + out.tuning_budget + gap
            assert sum(base_rows) == out.budget + out.tuning_budget + out.extra_rows + gap
            assert out.extra_rows > 0


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
        extra = summary["statistics"]["extra_rows"]
        assert extra == stats.extra_rows and 0 < extra["min"] <= extra["mean"] <= extra["max"]
        got = summary["statistics"]["thresholds"][0]["mean"]
        assert got == pytest.approx(stats.per_threshold[0].mean, rel=1e-12)

    def test_jobs_write_the_same_bytes(self, tmp_path):
        # --jobs runs the replicates in worker processes; each draws from its own seed
        for jobs in (1, 2):
            cfg = tiny_ebm_config()
            cfg["output"] = {"dir": str(tmp_path / str(jobs))}
            run_experiment(cfg, jobs=jobs)
        for name in ("runs.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_reference_mismatch(self):
        cfg = tiny_ebm_config()
        cfg["runs"]["reference"] = [1e-3, 1e-4]
        with pytest.raises(ConfigurationError, match="reference"):
            run_experiment(cfg)

    def test_stop_reason_counts(self):
        stats = run_experiment(tiny_ebm_config())
        assert stats.stop_reasons == {"max_steps": 2}

    def test_failed_replicates_keep_budget(self, tmp_path):
        diverging = tiny_ebm_config()  # the first update of a huge learning rate diverges
        diverging["method"]["learning_rate"] = {"kind": "constant", "gamma": 1e12}
        # training completes, then the readout finds no reference mass on the grid
        unreadable = tiny_ebm_config()
        unreadable["method"]["p_ref"] = {"kind": "gaussian", "mean": 1e6, "sd": 1.0}
        segment = 5 + 2 * 40  # burn-in, thinned steps
        # the start point costs 1; the diverging update comes before its iteration's record
        for cfg, budget, steps in [(diverging, 1 + segment, 0), (unreadable, 1 + 3 * segment, 3)]:
            out_dir = tmp_path / str(budget)
            cfg["output"] = {"dir": str(out_dir)}
            stats = run_experiment(cfg)
            assert stats.n_failed == 2 and stats.stop_reasons == {"error": 2}
            assert stats.budget_min == stats.budget_max == budget
            assert stats.tuning_budget_mean == 1 + 4 * 50  # start point, four pilot batches
            with open(out_dir / "runs.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [int(row["budget"]) for row in rows] == [budget, budget]
            assert [int(row["steps"]) for row in rows] == [steps, steps]

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

    def test_contamination_reference_is_null_where_the_oracle_cannot_resolve_the_tail(self):
        cfg = tiny_ebm_config(problem={"name": "contamination"})
        cfg["query"]["thresholds"] = [20.0, 40.0]
        cfg["runs"]["n_runs"] = 1
        at_20, at_40 = run_experiment(cfg).per_threshold
        assert at_20.reference == pytest.approx(1.026e-6, rel=1e-3) and at_20.rmse is not None
        assert at_40.reference is None and at_40.rmse is None


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
