import json

import pytest

from rareebm.cli import main


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
    assert "4.46" in out
    assert main(["oracle", "load_capacity"]) == 0
    out = capsys.readouterr().out
    assert "n_components=10" in out and "n_components=100" in out


def test_run_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_run_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


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
    ],
)
def test_run_malformed_value(tmp_path, path, value):
    cfg = {
        "problem": {"name": "four_branch"},
        "query": {"thresholds": [0.0]},
        "method": {"grid": {"lo": -10.0, "hi": 100.0, "h": 0.1}, "max_steps": 1},
        "runs": {"n_runs": 1},
    }
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["--out-dir", str(tmp_path / "out"), "run", str(config)]) == 2
    assert not (tmp_path / "out").exists()
