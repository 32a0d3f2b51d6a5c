"""Bit-identical output: runs.csv sha256 of one replicate of four shipped configs.

All run replicate RNG seed 1000. The first three digests are the
`seed=1,replicates=1` entries of perfbench/fingerprints.json.
`contamination_ebm_rbf`, the one shipped RBF config that averages probability
readouts over a window, is pinned here only; its digest was taken before the
RBF grid readout was cached. A refactor that keeps every random stream and
every floating-point operation in order leaves them unchanged; a change that
moves them on purpose must say why and record new values in both places.
"""

import hashlib
from importlib import resources

import pytest

from rareebm.harness import load_config, run_experiment

FINGERPRINTS = {
    "contamination_ebm_nonpar": "95aeeebf61328da57260510c085b9d473a53237a77d23db4053786a5debe9306",
    "load_capacity_100_rbf": "b4a7f2b11502c665a931883c34c9ac5b3342a8cbaac9ef027c794dbd9a2b6853",
    "contamination_subset": "7a00ed6fbf2a1c81ce92f80bd1dd990400818295bd74dd309a939ad4f18e2b88",
    "contamination_ebm_rbf": "2de1a6e9510563ab840114c117763d040954354e87619c58b4b3346499955ebf",
}


@pytest.mark.parametrize("config", sorted(FINGERPRINTS))
def test_runs_csv_fingerprint(config, tmp_path):
    with resources.as_file(resources.files("rareebm") / "configs" / f"{config}.json") as path:
        cfg = load_config(path)
    cfg["runs"]["n_runs"] = 1
    cfg["runs"]["base_seed"] = 1000
    cfg["output"]["dir"] = str(tmp_path)
    run_experiment(cfg)
    assert hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest() == FINGERPRINTS[config]
