"""Byte-for-byte golden outputs of `analyze` and `sweep` on seeded fixtures.

Every fixture state is built here from a fixed seed and written with
`save_state`; its text report, its machine report (without `generated_at`
and `input.path`) and the sweep CSVs must equal the files in tests/golden/.
A change that moves any printed digit fails here.  Regenerate the files only
on purpose, and name each regenerated file in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py

It rewrites only the files whose bytes differ, deletes files no fixture
produces, and prints one "changed", "added" or "removed" line per file.
Under each changed file it names the fields that moved: the largest
absolute and the largest relative change among the file's numbers, with
their field paths, and any field that changed otherwise.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
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
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

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


def _fields(name, text):
    """field path -> leaf of a golden file: JSON leaves, CSV cells, or each text line's numbers."""
    if name.endswith(".json"):
        leaves = {}

        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{path}[{i}]")
            else:
                leaves[path] = node

        walk(json.loads(text), "")
        return leaves
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {f"row {i}.{column}": _number_or_text(cell)
                for i, row in enumerate(rows, start=1) for column, cell in zip(header, row)}
    leaves = {}
    for i, line in enumerate(text.splitlines(), start=1):
        leaves[f"line {i}"] = NUMBER.sub("#", line)
        for j, number in enumerate(NUMBER.findall(line), start=1):
            leaves[f"line {i} number {j}"] = float(number)
    return leaves


def _number_or_text(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe_change(name, old_text, new_text):
    """Lines naming the fields of a golden file that moved, and by how much."""
    old, new = _fields(name, old_text), _fields(name, new_text)
    moved, other = [], []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        if a == b:
            continue
        if _is_number(a) and _is_number(b):
            absolute = abs(b - a)
            relative = absolute / abs(a) if a else math.inf
            moved.append((absolute, relative, path, a, b))
        else:
            other.append(path)
    lines = []
    if moved:
        for label, key in (("absolute", 0), ("relative", 1)):
            absolute, relative, path, a, b = max(moved, key=lambda m: m[key])
            lines.append(f"  largest {label} change: {path} {a!r} -> {b!r}"
                         f" (absolute {absolute:.3g}, relative {relative:.3g})")
    if other:
        lines.append(f"  {len(other)} other changed fields: {', '.join(other[:5])}"
                     + (", ..." if len(other) > 5 else ""))
    return lines or ["  no field changed its value: only the formatting moved"]


def regenerate():
    """Rewrite only the golden files whose bytes moved; print one line per file touched."""
    GOLDEN.mkdir(exist_ok=True)
    produced = {name: text.encode("ascii") for name, text in outputs().items()}
    for stale in sorted(GOLDEN.glob("*")):
        if stale.name not in produced:
            stale.unlink()
            print(f"removed {stale.name}")
    for name, data in sorted(produced.items()):
        path = GOLDEN / name
        if not path.exists():
            print(f"added {name}")
        elif path.read_bytes() != data:
            print(f"changed {name}")
            for line in describe_change(name, path.read_text("ascii"), data.decode("ascii")):
                print(line)
        else:
            continue
        path.write_bytes(data)


if __name__ == "__main__":
    regenerate()
