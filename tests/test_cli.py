import json
import math

import pytest

from rareebm.cli import main
from rareebm.errors import ConfigurationError
from rareebm.harness import load_config


def _tiny_config():
    return {
        "problem": {"name": "four_branch"},
        "query": {"thresholds": [0.0]},
        "method": {
            "kind": "subset",
            "subset": {"n_samples": 100, "mh_steps_per_seed": 3},
        },
        "runs": {"n_runs": 2, "base_seed": 0},
    }


def test_oracle_commands(capsys):
    assert main(["oracle", "four_branch"]) == 0
    out = capsys.readouterr().out
    assert "4.457331e-03" in out and "1.046280e-05" in out  # the exact tails at thresholds 0 and 2
    assert main(["oracle", "load_capacity"]) == 0
    out = capsys.readouterr().out
    assert "n_components=10" in out and "n_components=100" in out


def test_run_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_run_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize(
    "content",
    [b"[]", b'"x"', b"5", b"null", b"\xff\xfe{}", None],
    ids=["list", "string", "number", "null", "not-utf8", "directory"],
)
def test_run_unreadable_config(tmp_path, capsys, content):
    path = tmp_path / "f.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problm": {}}))
    assert main(["run", str(path)]) == 2


def test_run_subset_experiment(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    code = main(["--out-dir", str(tmp_path / "out"), "--seed", "5", "run", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_runs"] == 2
    assert (tmp_path / "out" / "runs.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "replicate"])
def test_non_positive_jobs_is_rejected(tmp_path, capsys, jobs, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    target = str(path) if command == "run" else "table2"
    assert main(["--jobs", jobs, "--out-dir", str(out), command, target]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_traces_rejects_subset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    assert main(["traces", str(path)]) == 2


@pytest.mark.parametrize(
    "path, value",
    [
        ("method.momentum", 1.0),
        ("method.form", "gird"),
        ("method.proposal.kind", "pnc"),
        ("method.kind", "mcmc"),
        ("problem.name", "contamnation"),
        ("method.p_ref.kind", "gumbel"),
        ("method.learning_rate.kind", "cosine"),
        ("method.subset.schedule.kind", "geometric"),
        ("method.proposal.beta", 1.5),
        ("method.proposal.beta", -0.5),
        ("method.proposal.beta", [0.5, 1.5]),
        ("method.proposal.beta", [0.5, 0.0]),
        ("method.proposal.beta", [0.5, 0.5, 0.5]),
        ("method.proposal.beta", []),
        ("method.proposal.pilot_steps", 100),
        ("method.proposal.target_accept", 1.5),
        ("method.proposal.target_accept", 0.0),
        # each key must have its default's JSON type
        ("output.traces", "false"),
        ("output.traces", 1),
        ("runs.n_runs", 2.0),
        ("method.max_steps", True),
        ("method.momentum", True),
        ("method.grid.h", "0.1"),
        ("query.thresholds", "20"),
        ("query.thresholds", 20.0),
        ("query.thresholds", [20.0, "30"]),
        ("query.thresholds", [True]),
        ("method.proposal.beta", "0.5"),
        ("method.proposal.beta", [0.5, None]),
        ("runs.reference", "1e-3"),
        ("runs.reference", True),
        ("runs.reference", [1e-3, "x"]),
        ("output.dir", 5),
        ("output.dir", ["out"]),
        ("method.proposal.kind", "default"),
        # Python's json writes and reads non-finite floats as NaN and Infinity
        ("method.proposal.beta", math.nan),
        ("method.p_ref.scale", math.nan),
        ("method.p_ref.sd", math.inf),
        pytest.param("method.p_ref.scale", 10**400, id="method.p_ref.scale-10**400"),  # no float holds it
        ("method.kde_bandwidth", math.nan),
        ("method.rbf.kappa", math.nan),
        ("method.learning_rate.gamma", math.nan),
        ("method.subset.schedule.start", math.nan),
        ("runs.reference", math.nan),
        ("runs.reference", [-math.inf]),
        ("query.thresholds", [math.nan]),
    ],
)
def test_run_malformed_value(tmp_path, path, value):
    cfg = {
        "problem": {"name": "four_branch"},
        "query": {"thresholds": [0.0]},
        "method": {"grid": {"lo": -10.0, "hi": 100.0, "h": 0.1}, "max_steps": 1},
        "runs": {"n_runs": 1},
    }
    _assert_rejected_at_load(tmp_path, _with(cfg, path, value))


def _with(cfg, path, value):
    """cfg with the dotted key path set to value."""
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return cfg


def _assert_rejected_at_load(tmp_path, cfg):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["--out-dir", str(tmp_path / "out"), "run", str(config)]) == 2
    assert not (tmp_path / "out").exists()


def _small(problem, kind, threshold):
    return {
        "problem": {"name": problem},
        "query": {"thresholds": [threshold]},
        "method": {"kind": kind, "max_steps": 1},
        "runs": {"n_runs": 1},
    }


# Each of these once loaded and then failed late (or not at all): a traceback,
# an error after tuning or after every replicate, or a subset run that
# silently moved by a random walk.
@pytest.mark.parametrize(
    "cfg",
    [
        _with(_small("contamination", "ebm", 20.0), "method.proposal.kind", "pcn"),
        _with(_small("four_branch", "subset", 0.0), "method.proposal.kind", "pcn"),
        _with(_small("contamination", "ebm", 20.0), "problem.seed", -1),
        _with(_small("four_branch", "ebm", 0.0), "runs.base_seed", -5),
        _with(_small("contamination", "subset", 20.0), "method.subset.posterior_thin", 0),
        _with(_small("four_branch", "ebm", 0.0), "runs.reference", [1e-3, 1e-4]),
        # values under keys that the chosen problem, method or bias form does not read
        {
            "problem": {"name": "four_branch", "seed": -7, "n_components": 0},
            "method": {"kind": "subset", "grid": {"lo": 5.0, "hi": 1.0, "h": -1.0}, "stopping": {"alpha": 7.0}},
        },
        _with(_small("four_branch", "ebm", 0.0), "method.subset.n_samples", 1),
        _with(_with(_small("four_branch", "ebm", 0.0), "method.form", "grid"), "method.rbf.kappa", -1),
        _with(_small("contamination", "ebm", 20.0), "problem.n_components", 0),
        _with(_small("load_capacity", "ebm", 0.0), "problem.seed", -1),
        _with(_small("load_capacity", "ebm", 0.0), "problem.n_components", 10**12),
    ],
    ids=["contamination_pcn", "subset_pcn", "negative_problem_seed", "negative_base_seed", "posterior_thin_0",
         "reference_length", "unread_values", "ebm_subset_n_samples_1", "grid_rbf_kappa_negative",
         "contamination_n_components_0", "load_capacity_negative_seed", "load_capacity_n_components_huge"],
)
def test_rejected_by_load_config(tmp_path, cfg):
    with pytest.raises(ConfigurationError):
        load_config(cfg)
    _assert_rejected_at_load(tmp_path, cfg)


@pytest.mark.parametrize("beta", [1.5, -0.5, [0.5, 1.5], [0.5, 0.0], [0.5, 0.5, 0.5], []])
def test_pcn_beta_out_of_range_or_too_long_is_rejected_by_load_config(tmp_path, beta):
    cfg = _with(_small("four_branch", "ebm", 0.0), "method.proposal", {"kind": "pcn", "beta": beta})
    with pytest.raises(ConfigurationError):
        load_config(cfg)
    _assert_rejected_at_load(tmp_path, cfg)
