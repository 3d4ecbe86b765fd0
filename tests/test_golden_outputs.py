"""Byte-for-byte golden outputs of `analyze` and `sweep` on seeded fixtures.

Every fixture state is built here from a fixed seed and written with
`save_state`; its text report, its machine report (without `generated_at`
and `input.path`) and the sweep CSVs must equal the files in tests/golden/.
A change that moves any printed digit fails here.  Regenerate the files only
on purpose, and name each regenerated file in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze import (
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    one_axis_twisted_state,
    product_state,
    random_separable_state,
)
from spinsqueeze.cli import main
from spinsqueeze.sampling import haar_pure_state, random_symmetric_mixture
from spinsqueeze.statefile import save_state

GOLDEN = Path(__file__).parent / "golden"
VOLATILE = re.compile(r'"generated_at":"[^"]*",|"path":(?:"[^"]*"|null),')

SWEEPS = {
    "sweep-css6": ["css", "--n", "6", "--start", "0.2", "--stop", "3.0",
                   "--points", "9", "--phi", "0.4"],
    "sweep-twisted6": ["twisted", "--n", "6", "--start", "0", "--stop", "0.6",
                       "--points", "9"],
    "sweep-schmidt": ["schmidt", "--start", "0", "--stop", repr(math.pi / 4), "--points", "9"],
}


def fixture_states():
    """name -> state; every state depends only on the seeds written here."""
    theta, phi = 1.1, 0.7
    factor = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
    return {
        "pure2": haar_pure_state(2, np.random.default_rng(101)),
        "pure8": haar_pure_state(8, np.random.default_rng(108)),
        "twisted8-embedded": embed_symmetric(one_axis_twisted_state(8, 0.15)),
        "twisted5": one_axis_twisted_state(5, 0.2),
        "twisted12": one_axis_twisted_state(12, 0.1),
        "separable7": random_separable_state(7, 4, 207),
        "symmix7": random_symmetric_mixture(7, 3, np.random.default_rng(307)),
        "twisted50": one_axis_twisted_state(50, 0.02),
        "twisted500": one_axis_twisted_state(500, 0.003),
        "css300": coherent_spin_state(300, 1.2, 0.5),
        "css2000": coherent_spin_state(2000, 1.1, 0.4),
        "dicke40-20": dicke_state(40, 20),
        "product8-identical": product_state([factor] * 8),
    }


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def outputs():
    """golden file name -> the text the current code prints for it.

    Runs in a temporary working directory, so the state files are named by
    relative paths.
    """
    produced = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, state in fixture_states().items():
                path = f"{name}.json"
                save_state(path, state)
                produced[f"{name}.txt"] = _run(["analyze", path])
                machine = _run(["analyze", path, "--format", "machine"])
                produced[f"{name}.machine.json"] = VOLATILE.sub("", machine)
            for name, args in SWEEPS.items():
                produced[f"{name}.csv"] = _run(["sweep", *args])
        finally:
            os.chdir(cwd)
    return produced


@pytest.fixture(scope="module")
def produced():
    return outputs()


def test_golden_files_match_the_fixture_list(produced):
    assert sorted(p.name for p in GOLDEN.glob("*")) == sorted(produced)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_output_is_byte_identical_to_golden(produced, name):
    assert produced[name].encode("ascii") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*"):
        stale.unlink()
    for name, text in outputs().items():
        (GOLDEN / name).write_bytes(text.encode("ascii"))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
