"""Running CLI commands in-process and checking their outputs.

Shared by run.py (the benchmark) and make_reference.py (which stores the
reference outputs that every later run is compared with).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SCRATCH = os.path.join(ROOT, ".perfbench")  # run directories and results; not committed

# One BLAS thread (at most nproc): the dense kernels here are memory bound, and
# a second thread on a two-core machine adds noise rather than speed.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Numbers in outputs are compared with |a - b| <= ATOL + RTOL * |b|.
RTOL = 1e-8
ATOL = 1e-10


class SetupError(Exception):
    """The checkout lacks the program or the reference outputs."""


def bootstrap():
    """Pin BLAS threads and put the checkout's src/ first on sys.path.

    Must run before numpy is imported.  Refuses to fall back to a spinsqueeze
    installed elsewhere, so a directory without src/ fails instead of
    measuring some other copy of the program.
    """
    if not os.path.isfile(os.path.join(SRC, "spinsqueeze", "__init__.py")):
        raise SetupError(f"no spinsqueeze sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_import_location():
    import spinsqueeze

    where = os.path.dirname(os.path.abspath(spinsqueeze.__file__))
    if os.path.dirname(where) != SRC:
        raise SetupError(f"spinsqueeze imported from {where}, not from {SRC}")


class Outcome:
    """Exit code, captured output and latency of one command."""

    def __init__(self, command, exit_code, stdout, error, seconds):
        self.command = command
        self.exit_code = exit_code
        self.stdout = stdout
        self.error = error  # traceback text when the command raised
        self.seconds = seconds


def invoke(cli, command):
    """Run ``cli.main(argv)`` with stdout and stderr captured.

    ``cli.main`` is looked up on every call so that a traced run goes through
    the tracer's wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(command.argv)
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        exit_code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return Outcome(command, exit_code, out.getvalue(), error, seconds)


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)


def _file_fingerprint(path):
    """Order-sensitive numeric summary of a written state file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    payload = {k: v for k, v in doc.items() if k not in ("format_version", "kind", "num_qubits")}
    values = list(_numbers(payload))
    return {
        "kind": doc.get("kind"),
        "num_qubits": doc.get("num_qubits"),
        "count": len(values),
        "sum": math.fsum(values),
        "sum_abs": math.fsum(abs(v) for v in values),
        "moment": math.fsum(v * math.cos(i) for i, v in enumerate(values)),
    }


def normalize(outcome, directory):
    """Reduce an outcome to the parts that must match the reference.

    Machine reports lose ``generated_at`` and ``input.path``; text reports and
    replay paths lose the input directory; sweep CSVs become rows of numbers;
    generated files become a numeric fingerprint.
    """
    command, text = outcome.command, outcome.stdout
    if command.kind == "generate":
        return _file_fingerprint(command.argv[command.argv.index("--output") + 1])
    if command.kind == "sweep":
        header, *rows = text.rstrip("\n").split("\n")
        return {"header": header,
                "rows": [[float(c) if c else None for c in row.split(",")] for row in rows]}
    if command.kind == "verify":
        doc = json.loads(text)
        doc["replay_files"] = [os.path.basename(p) for p in doc["replay_files"]]
        return doc
    if command.is_machine_analyze:
        doc = json.loads(text)
        del doc["generated_at"]
        del doc["input"]["path"]
        return doc
    parts = _NUMBER.split(text.replace(directory, "<inputs>"))
    return [float(p) if i % 2 else p for i, p in enumerate(parts)]


def mismatch(actual, expected, where="output"):
    """Path of the first difference beyond tolerance, or None."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return f"{where}: keys differ"
        for key in expected:
            found = mismatch(actual[key], expected[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: length differs"
        for idx, (a, e) in enumerate(zip(actual, expected)):
            found = mismatch(a, e, f"{where}[{idx}]")
            if found:
                return found
        return None
    numeric = (int, float)
    if (isinstance(expected, numeric) and not isinstance(expected, bool)
            and isinstance(actual, numeric) and not isinstance(actual, bool)):
        if actual == expected or abs(actual - expected) <= ATOL + RTOL * abs(expected):
            return None
        return f"{where}: {actual!r} != {expected!r}"
    return None if actual == expected else f"{where}: {actual!r} != {expected!r}"


def digest(normalized):
    text = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(workload_name):
    return os.path.join(REFERENCE_DIR, f"{workload_name}.json")


def load_reference(workload_name, variant):
    """{label: (exit code, normalized output)} for one input variant."""
    path = reference_path(workload_name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read reference outputs {path}: {exc}") from exc
    entries = stored["variants"].get(str(variant))
    if entries is None:
        raise SetupError(f"{path} has no outputs for input variant {variant}")
    return {label: (entry["exit"], stored["outputs"][entry["output"]])
            for label, entry in entries.items()}


def check(outcome, directory, reference):
    """None when the outcome matches its reference, else a reason."""
    label = outcome.command.label
    if outcome.error is not None:
        return f"{label}: raised\n{outcome.error}"
    if label not in reference:
        return f"{label}: no reference output"
    exit_code, expected = reference[label]
    if outcome.exit_code != exit_code:
        return f"{label}: exit code {outcome.exit_code}, expected {exit_code}"
    try:
        actual = normalize(outcome, directory)
    except (ValueError, KeyError, OSError) as exc:
        return f"{label}: unreadable output ({exc})"
    found = mismatch(actual, expected)
    return f"{label}: {found}" if found else None
