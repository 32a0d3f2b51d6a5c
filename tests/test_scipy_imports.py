"""scipy is imported where an oracle or the load_capacity problem needs it, and nowhere else.

Loading a config and building its problem imports no part of scipy for the
contamination and four_branch configs, and scipy.special but not
scipy.integrate for load_capacity (its standard-normal transforms call ndtr
and ndtri). The
oracles import scipy.integrate when they are called. pytest has already
imported scipy, so each check runs in a fresh child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rareebm
from rareebm.harness import build_problem, load_config

SRC = Path(rareebm.__file__).resolve().parents[1]
CONFIGS = SRC / "rareebm" / "configs"

# Run in the child: load a config, build its problem, then call its oracle at each threshold.
LOAD_AND_BUILD = """
import json
import sys
from rareebm.harness import build_problem, load_config
cfg = load_config(sys.argv[1])
bundle = build_problem(cfg["problem"])
loaded = sorted(m for m in ("scipy.integrate", "scipy.special") if m in sys.modules)
oracle = [bundle.oracle(float(t)).hex() for t in cfg["query"]["thresholds"]]
print(json.dumps({"loaded": loaded, "oracle": oracle}))
"""


@pytest.mark.parametrize(
    "config, loaded",
    [
        ("contamination_ebm_nonpar", []),
        ("contamination_subset", []),
        ("four_branch_ebm", []),
        ("load_capacity_100_rbf", ["scipy.special"]),
    ],
)
def test_load_and_build_import_only_the_scipy_the_problem_needs(config, loaded):
    path = CONFIGS / f"{config}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOAD_AND_BUILD, str(path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["loaded"] == loaded
    # the oracle the child imported scipy.integrate for gives the in-process value bit for bit
    cfg = load_config(path)
    bundle = build_problem(cfg["problem"])
    assert child["oracle"] == [bundle.oracle(float(t)).hex() for t in cfg["query"]["thresholds"]]
