"""Bit-identical output of every shipped config: sha256 of runs.csv and each trace CSV.

Each config in src/rareebm/configs runs two replicates from base seed 1000
with traces on. Traces leave runs.csv unchanged (tests/test_harness.py), so
one pass pins both. Subset configs write no traces. A change that moves
these bytes on purpose must say which and why, and record the new digests.

The configs run in a child process with every BLAS pool at one thread, as
CI and perfbench/run.py run them. The bytes are pinned for that setting: at
two OpenBLAS threads the (2001, 500) product of the RBF grid readout rounds
some rows differently, which moves contamination_ebm_rbf's traces and
load_capacity_10_rbf's runs.csv.
"""

import hashlib
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import rareebm

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Run in the child: two traced replicates of one shipped config from base seed 1000.
RUN_CONFIG = """
import sys
from importlib import resources
from rareebm.harness import load_config, run_experiment
config, out_dir = sys.argv[1:]
with resources.as_file(resources.files("rareebm") / "configs" / f"{config}.json") as path:
    cfg = load_config(path)
cfg["runs"]["n_runs"] = 2
cfg["runs"]["base_seed"] = 1000
cfg["output"] = {"dir": out_dir, "traces": True}
run_experiment(cfg)
"""

DIGESTS = {
    "contamination_ebm_nonpar": {
        "runs.csv": "77ce26df2f9e53f23eef3c2fce7b3ba9bf56b789442f2fbce13e7a4bd359754b",
        "trace_0.csv": "f343a95d61e7b0d6b6cd7c0a0e2a042e45b4d36ebe87b4f88e7ef50d3fc9cf0a",
        "trace_1.csv": "8cfc5bd0dcc66d4fccb08c565ffad7467d59a83d008eb8cf54ddb16b7b1fdea6",
    },
    "contamination_ebm_nonpar_fixed": {
        "runs.csv": "2246e08c634844c96998ac2a4d9fc6982b7a172b92b107c955f72c879089c0c5",
        "trace_0.csv": "48759c24e467381e5ce343a4ff1679cfe1bdbf6380ad875f67104b4c2cf78e72",
        "trace_1.csv": "829ccfaa976333f2da90d7e3ad11ffaac13a63bceaf48cbd1d945bada3829031",
    },
    "contamination_ebm_rbf": {
        "runs.csv": "39ef25a1d06bac1387dca85e31c7350759e6e8f5fb77d1328b9738efac232059",
        "trace_0.csv": "b8ca8ccb0b2abacdfd1df3fecea381e05d00082c258ecfa907acf3485da59480",
        "trace_1.csv": "dc33c13b1685f777f2eb54613c6748d44fbdd04da10432dbb5f801cc6c3b59c7",
    },
    "contamination_subset": {
        "runs.csv": "bb498d4a33eaab3822ec0dcaa0c9f743f7b32801c8fd3c06ac675473e9734740",
    },
    "four_branch_ebm": {
        "runs.csv": "c8d7a20a0b55c9b3fbdf6d3e198aa07ed285ca5ab32d4016bb8e25da29b65212",
        "trace_0.csv": "43132843b866f0a17f9f3d44d00ef5ce8efb05842f4fe29a80f2452cd68e2174",
        "trace_1.csv": "2582457a872093004bbaffc92a2d6c2a6566adb7f7c6d760136f125a3da31822",
    },
    "four_branch_subset": {
        "runs.csv": "f5389a17b15badeef365768a16ce85b1ec942267a25cfe9906fb88c37debbb86",
    },
    "load_capacity_100_nonpar": {
        "runs.csv": "c5efa3c7cddb96805630292334cc5c9fca0d8c0ce4c629f0aa08869943a78f16",
        "trace_0.csv": "980c1f52286cbf55b13bec5394a6be031e469f9163216ea99339f5c61cb662cc",
        "trace_1.csv": "4e863840d46487a7ee2df061af94b971d1f0ebed9cc3f21dff86167ad1c72ee7",
    },
    "load_capacity_100_rbf": {
        "runs.csv": "e016bd30477518b2b0ba10f85c5010f49c57f931fc0606423e5377b6dc3db9ff",
        "trace_0.csv": "8da9df62c777b81c189e26c57013bf6d74bea97fde7469967696cff440271f25",
        "trace_1.csv": "c669eba311c80c9e20f12121fd37709f9c048b9bd5963addca31727efcc8bf42",
    },
    "load_capacity_10_nonpar": {
        "runs.csv": "4c56a4f294b93b6f7e414762ffae9ae0c573fb49e3fa73e770ba1351e53891a2",
        "trace_0.csv": "bf97141cf4b463b11fa1418701c5b25fd1b69ee4b315bd8880e8552cb2aa8418",
        "trace_1.csv": "acc9f398eabda024059e36cc38c2436528bde3b2d755b7e80853845009fcdf65",
    },
    "load_capacity_10_rbf": {
        "runs.csv": "2d8ef889921259e61bada721240c8a2838347742e13ac3be14d7a6a82fd1c952",
        "trace_0.csv": "1c63f7de779ab60eed2868b9e680d198fcae2f168b7380f67611db9d7a5298f2",
        "trace_1.csv": "68fe9ee9eb16a25f8becc95b699b8ef3d91a812479f7357827579c65e54fa3c4",
    },
}


def child_env(threads: int) -> dict[str, str]:
    """This process's environment with rareebm importable and every BLAS pool at `threads` threads."""
    src = str(Path(rareebm.__file__).resolve().parents[1])
    env = {**os.environ, **{var: str(threads) for var in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def output_digests(config: str, out_dir) -> dict[str, str]:
    """{file name: sha256} of the CSVs that two traced replicates of a shipped config write."""
    proc = subprocess.run([sys.executable, "-c", RUN_CONFIG, config, str(out_dir)],
                          env=child_env(1), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def test_every_shipped_config_is_pinned():
    shipped = sorted(p.name[: -len(".json")] for p in (resources.files("rareebm") / "configs").iterdir()
                     if p.name.endswith(".json"))
    assert sorted(DIGESTS) == shipped


@pytest.mark.parametrize("config", sorted(DIGESTS))
def test_shipped_config_output_bytes(config, tmp_path):
    assert output_digests(config, tmp_path) == DIGESTS[config]
