"""The package imports and runs without scipy; only tests/oracles.py needs it.

scipy.optimize took ~0.5 s of every process's import, for an LP oracle no
verdict used.  A fresh interpreter is the only place where sys.modules
shows what the package itself loads, since pytest's own process has the
oracles imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the README spec, run once per bank source through every analysis at
# small counts; nothing is enforced, so the run's checks do not matter here
SCRIPT = """
import sys

def scipy_loaded(stage):
    if "scipy" in sys.modules:
        print("scipy loaded by " + stage)
        sys.exit(3)

import framelets
from framelets import cli
scipy_loaded("the imports")
for source in ("random", "frame_factory"):
    cfg = {
        "seed": 7,
        "network": {"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [8, 8, 8],
                    "skip": True, "nonlinearity": "relu"},
        "bank": {"source": source},
        "analyses": list(cli.ANALYSES),
        "sampler": {"count": 50},
        "reconstruct": {"count": 5},
        "identity": {"count": 5},
        "jacobian": {"count": 3},
        "train": {"iterations": 3},
    }
    cli.execute(cfg, ".")
    scipy_loaded("a run on a " + source + " bank")
"""


def test_package_runs_every_analysis_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
