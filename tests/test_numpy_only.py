"""The package runs on numpy alone: scipy is neither declared nor used."""

import os
import subprocess
import sys

import numpy as np

import spinsqueeze
from spinsqueeze.sampling import haar_pure_state
from spinsqueeze.statefile import save_state

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import spinsqueeze
from spinsqueeze import cli
for module in pkgutil.iter_modules(spinsqueeze.__path__):
    importlib.import_module("spinsqueeze." + module.name)
code = cli.main(["analyze", sys.argv[1]])
assert not [name for name in sys.modules if name.startswith("scipy.")]
sys.exit(code)
"""


def test_analyze_runs_without_scipy(tmp_path):
    path = tmp_path / "haar3.json"
    save_state(path, haar_pure_state(3, np.random.default_rng(9)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsqueeze.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "witness:" in done.stdout
