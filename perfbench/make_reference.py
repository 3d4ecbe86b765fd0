#!/usr/bin/env python3
"""Store the reference outputs that the benchmark checks every run against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload for every input variant with the checkout's
program and writes perfbench/reference/<workload>.json.  Only rerun it on
purpose: the stored outputs define what counts as correct for later commits.
"""

import json
import os
import shutil
import sys
import tempfile

import harness


def reference_for(workload, cli, variants):
    outputs, table = {}, {}
    for variant in range(variants):
        os.makedirs(harness.SCRATCH, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="reference-", dir=harness.SCRATCH)
        try:
            params = workload.params(variant)
            workload.write_inputs(directory, params)
            entries = table[str(variant)] = {}
            for command in workload.commands(directory, params):
                outcome = harness.invoke(cli, command)
                if outcome.error is not None:
                    raise RuntimeError(f"{command.label} raised:\n{outcome.error}")
                normalized = harness.normalize(outcome, directory)
                key = harness.digest(normalized)
                outputs[key] = normalized
                entries[command.label] = {"exit": outcome.exit_code, "output": key}
                print(f"{workload.name} v{variant} {command.label}: exit {outcome.exit_code}, "
                      f"{outcome.seconds:.3f} s", flush=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return {"variants": table, "outputs": outputs}


def main(argv):
    harness.bootstrap()
    import workloads
    from spinsqueeze import cli

    harness.check_import_location()
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    for name in argv or list(workloads.WORKLOADS):
        stored = reference_for(workloads.WORKLOADS[name], cli, workloads.VARIANTS)
        with open(harness.reference_path(name), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(stored, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
