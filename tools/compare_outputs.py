#!/usr/bin/env python3
"""Compare what two checkouts print and write for the benchmark's commands.

    python3 tools/compare_outputs.py BASE CHANGED [--workload NAME] [--variants 0-9]

For each input variant of each workload (by default both workloads and
variants 0-9), each checkout writes the inputs with its own code and runs
every command of one perfbench pass in-process, through its own
``spinsqueeze.cli.main``, in a fresh Python process.  Both run in the same
directory, emptied in between, so that paths printed in reports agree.
Compared byte for byte: each command's stdout, stderr and exit code, and
every file in the directory afterwards (the inputs, written state files
and replay files).  Machine reports are compared without their
``generated_at`` field.  Prints each difference and exits 1 if there is
any, else 0.

Each command also runs under ``tracemalloc``, and its traced peak (the
most memory allocated during the command and not yet freed, its captured
stdout included) is printed for both checkouts.  It is not compared and
does not change the exit code.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

GENERATED_AT = re.compile(r'"generated_at":"[^"]*",')


def run_child(checkout, workload_name, variant, directory):
    """Write one variant's inputs, run its commands and print the results as JSON."""
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import harness

    harness.bootstrap()
    import workloads
    from spinsqueeze import cli

    harness.check_import_location()
    workload = workloads.WORKLOADS[workload_name]
    params = workload.params(variant)
    workload.write_inputs(directory, params)
    results = []
    for command in workload.commands(directory, params):
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(command.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        results.append({"label": command.label, "exit": code,
                        "stdout": GENERATED_AT.sub("", out.getvalue()),
                        "stderr": err.getvalue(), "peak_bytes": peak})
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    json.dump({"commands": results, "files": files}, sys.stdout)
    return 0


def run_checkout(checkout, workload_name, variant, directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout, workload_name,
         str(variant), directory],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload_name} variant {variant} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(base, changed):
    found = []
    base_labels = [c["label"] for c in base["commands"]]
    if base_labels != [c["label"] for c in changed["commands"]]:
        return ["the command lists differ"]
    for old, new in zip(base["commands"], changed["commands"]):
        for part in ("exit", "stdout", "stderr"):
            if old[part] != new[part]:
                found.append(f"{old['label']}: {part} differs")
    for name in sorted(base["files"].keys() | changed["files"].keys()):
        if base["files"].get(name) != changed["files"].get(name):
            found.append(f"file {name} differs" if name in base["files"] and name in changed["files"]
                         else f"file {name} is written by one checkout only")
    return found


def parse_variants(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--child":
        checkout, workload_name, variant, directory = argv[1:]
        return run_child(checkout, workload_name, int(variant), directory)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout whose outputs are expected")
    parser.add_argument("changed", help="checkout to compare with it")
    parser.add_argument("--workload", action="append",
                        help="workload name, repeatable (default: large-n and small-n)")
    parser.add_argument("--variants", default="0-9", help="input variants, e.g. 1 or 0-9")
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(args.base), os.path.abspath(args.changed)]
    total = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        directory = os.path.join(scratch, "run")
        for workload_name in args.workload or ["large-n", "small-n"]:
            for variant in parse_variants(args.variants):
                base, changed = (run_checkout(c, workload_name, variant, directory)
                                 for c in checkouts)
                found = differences(base, changed)
                total += len(found)
                print(f"{workload_name} variant {variant}: {len(base['commands'])} commands, "
                      f"{len(base['files'])} files, {len(found)} differences", flush=True)
                for line in found:
                    print(f"  {line}")
                for old, new in zip(base["commands"], changed["commands"]):
                    print(f"  traced peak {old['peak_bytes'] / 1e6:8.3f} MB -> "
                          f"{new['peak_bytes'] / 1e6:8.3f} MB  {old['label']}")
    print("identical" if total == 0 else f"{total} differences")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
