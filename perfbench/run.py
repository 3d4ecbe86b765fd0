#!/usr/bin/env python3
"""Benchmark of the spinsqueeze CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's src/ and driven in-process through ``spinsqueeze.cli.main`` on
input files generated from the seed.  Every output is compared with the
reference outputs stored in perfbench/reference/.

With ``--trace 0`` the run is uninstrumented and reports the end-to-end
metrics; with ``--trace 1`` it alternates plain and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give a readable report and the run's record (seed, environment, latencies),
which is also written to .perfbench/results/.  See perfbench/METRICS.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness

# Set-up runs in fresh processes: once before the passes, writing the inputs
# the passes read, and in a timed run again after complete passes, for as
# long as the repeats have taken less than SETUP_SHARE of the passes' time so
# far, SETUP_MAX times in all.  The samples spread over the whole run, as the
# commands' do, and setup_s is their median.
SETUP_SHARE = 0.15
SETUP_MAX = 40

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# (metric, unit): the per-layer metrics of a traced run.
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("statefile.load_document.s", "s"),
    ("statefile.document_to_state.s", "s"),
    ("statefile.bytes_read", "B"),
    ("statefile.render_json.s", "s"),
    ("statefile.bytes_written", "B"),
    ("states.validate.calls", "count"),
    ("states.validate.s", "s"),
    ("states.embed_symmetric.s", "s"),
    ("states.mix.s", "s"),
    ("operators.bloch_vectors.calls", "count"),
    ("operators.bloch_vectors.s", "s"),
    ("operators.dicke_collective_operators.calls", "count"),
    ("operators.dicke_collective_operators.s", "s"),
    ("operators.dicke_collective_operators.bytes_computed", "B"),
    ("operators.total_spin_expectation.s", "s"),
    ("operators.apply_local_unitaries.calls", "count"),
    ("operators.apply_local_unitaries.s", "s"),
    ("reductions.reduce.calls", "count"),
    ("reductions.reduce.s", "s"),
    ("reductions.is_exchange_symmetric.calls", "count"),
    ("reductions.is_exchange_symmetric.s", "s"),
    ("reductions.collective_to_pair_correlations.s", "s"),
    ("reductions.pair_correlation_sum.s", "s"),
    ("squeezing.xi_standard.s", "s"),
    ("squeezing.xi_tilde_symmetric.s", "s"),
    ("squeezing.xi_tilde_general.s", "s"),
    ("squeezing.brute_force_min_variance.calls", "count"),
    ("squeezing.brute_force_min_variance.s", "s"),
    ("entanglement.witness.s", "s"),
    ("entanglement.invariant_I.calls", "count"),
    ("entanglement.invariant_I.s", "s"),
    ("entanglement.verify_identity_imp1.s", "s"),
    ("report.analyze_state.self_s", "s"),
    ("report.render_text.s", "s"),
    ("verification.run_suite.s", "s"),
    ("verification.run_suite.self_s", "s"),
    ("sampling.s", "s"),
    ("operators.dicke_collective_operators.per_state", "calls/state"),
    ("operators.bloch_vectors.per_state", "calls/state"),
    ("reductions.is_exchange_symmetric.per_state", "calls/state"),
    ("trace.overhead_frac", "ratio"),
]
# Span measures reported under another name.
EXTRA_METRICS = {
    "statefile.bytes_read": "statefile.load_document",
    "statefile.bytes_written": "statefile.dumps",
    "operators.dicke_collective_operators.bytes_computed": "operators.dicke_collective_operators",
}
PER_STATE_COMMANDS = ("command.analyze", "command.sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# set-up ----------------------------------------------------------------------

def setup_child(args):
    """Import the program and write one set of inputs; print the time taken."""
    start = time.perf_counter()
    import workloads

    harness.check_import_location()
    workload = workloads.WORKLOADS[args.workload]
    workload.write_inputs(args.setup_into, workload.params(args.seed % workloads.VARIANTS))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


class Setups:
    """Times the set-up, each time in a fresh process."""

    def __init__(self, args, run_dir):
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise harness.SetupError(
                f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        self.args = args
        self.run_dir = run_dir
        self.times = []
        self.repeat_s = 0.0  # time spent in repeats, process start included
        self.inputs = self.run_once("inputs")  # the directory the passes read

    def run_once(self, name):
        directory = os.path.join(self.run_dir, name)
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--seconds", "0", "--setup-into", directory],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise harness.SetupError(f"set-up failed:\n{proc.stderr}")
        self.times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        return directory

    def after_pass(self, passes_seconds, deadline):
        """Set up again while the repeats are under SETUP_SHARE of the passes'
        time so far and the next one should end before the deadline."""
        while (len(self.times) < SETUP_MAX and self.repeat_s < SETUP_SHARE * passes_seconds
               and time.perf_counter() + self.times[-1] < deadline):
            start = time.perf_counter()
            shutil.rmtree(self.run_once("inputs-repeat"))
            self.repeat_s += time.perf_counter() - start


# passes ----------------------------------------------------------------------

class Pass:
    def __init__(self, outcomes, failures, traced, complete, span_range=None):
        self.outcomes = outcomes
        self.failures = failures
        self.traced = traced
        self.complete = complete
        self.span_range = span_range
        self.seconds = sum(o.seconds for o in outcomes)


def run_pass(cli, commands, directory, reference, tracer=None, deadline=None, previous=None):
    """Run the commands once; with a deadline, stop before the first command
    whose latency in the ``previous`` pass says it would end after it."""
    outcomes, failures = [], []
    lo = len(tracer) if tracer is not None else None
    for idx, command in enumerate(commands):
        if deadline is not None and time.perf_counter() + previous[idx] > deadline:
            break
        if tracer is None:
            outcome = harness.invoke(cli, command)
        else:
            with tracer.span(f"command.{command.kind}"):
                outcome = harness.invoke(cli, command)
        outcomes.append(outcome)
        reason = harness.check(outcome, directory, reference)
        if reason:
            failures.append(reason)
    span_range = (lo, len(tracer)) if tracer is not None else None
    return Pass(outcomes, failures, tracer is not None, len(outcomes) == len(commands),
                span_range)


def run_passes(cli, commands, directory, reference, deadline, tracer=None, setups=None):
    """Passes over the commands until about ``deadline`` (a perf_counter time).

    Without a tracer: one complete pass, then further passes that stop
    before a command that would end after the deadline; ``setups`` times
    the set-up again between complete passes.  With a tracer:
    complete passes, alternately plain and traced, starting plain, at least
    one of each, until the next one would end after the deadline.
    """
    import tracing

    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                current = run_pass(cli, commands, directory, reference, tracer)
            finally:
                tracer.restore()
        else:
            before = len(tracer) if tracer is not None else 0
            timed_after_first = tracer is None and passes
            current = run_pass(cli, commands, directory, reference,
                               deadline=deadline if timed_after_first else None,
                               previous=[o.seconds for o in passes[-1].outcomes] if passes else None)
            if tracer is not None and len(tracer) != before:
                raise RuntimeError("a tracer wrapper ran during a plain pass")
        if current.outcomes:
            passes.append(current)
        sites = tracing.wrapper_sites()
        if sites:
            raise RuntimeError(f"tracer wrappers left bound at {sites}")
        if tracer is None:
            if not current.complete:
                return passes
            setups.after_pass(sum(p.seconds for p in passes), deadline)
        elif len(passes) >= 2 and time.perf_counter() + passes[-1].seconds > deadline:
            return passes


# metrics ---------------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def command_stats(workload, commands, passes):
    """Latency statistics of plain passes.

    ``wall_s`` sums, over the repeated commands, each command's latency as
    the workload takes it (``workload.latency``): its median over the run,
    or its fastest run.  ``analyze_ms_p50`` uses each command's median.
    """
    analyze_ms = [1000 * o.seconds for p in passes for o in p.outcomes
                  if o.command.is_machine_analyze]
    samples = {}
    for p in passes:
        for o in p.outcomes:
            samples.setdefault(o.command.label, []).append(o.seconds)
    medians = {label: statistics.median(v) for label, v in samples.items()}
    analyze_labels = {c.label for c in commands if c.is_machine_analyze}
    sweep = [o for p in passes for o in p.outcomes if o.command.kind == "sweep"]
    # exit codes 0 and 1 both print the suite's document
    verify = [o for p in passes for o in p.outcomes
              if o.command.kind == "verify" and o.exit_code in (0, 1)]
    stats = {"analyze_ms_samples": len(analyze_ms)}
    if analyze_ms:
        # each command weighs the same, however many times it ran
        stats["analyze_ms_p50"] = 1000 * statistics.median(medians[l] for l in analyze_labels)
        stats["analyze_ms_tail"] = tail(analyze_ms)
    if sweep:
        rows = sum(o.stdout.count("\n") - 1 for o in sweep)
        stats["sweep_rows_per_s"] = rows / sum(o.seconds for o in sweep)
    if verify:
        instances = sum(c["instances"] for o in verify for c in json.loads(o.stdout)["checks"])
        stats["verify_instances_per_s"] = instances / sum(o.seconds for o in verify)
    fastest = {label: min(v) for label, v in samples.items()}
    typical = fastest if workload.latency == "fastest" else medians
    stats["wall_s"] = sum(typical[c.label] for c in commands if c.repeated)
    stats["command_s_median"] = medians
    stats["command_s_min"] = fastest
    stats["command_samples"] = {label: len(v) for label, v in samples.items()}
    return stats


def states_analysed(p):
    """Analysed states plus sweep rows in one pass: the per_state base."""
    return sum(1 if o.command.kind == "analyze" else o.stdout.count("\n") - 1
               for o in p.outcomes if o.command.kind in ("analyze", "sweep"))


def layer_metrics(tracer, p):
    summary = tracer.summarize(*p.span_range)
    values = {}
    for metric, _unit in PER_LAYER:
        if metric in EXTRA_METRICS:
            values[metric] = summary["extra"][EXTRA_METRICS[metric]]
        elif metric == "sampling.s":
            values[metric] = summary["layer_s"]["sampling"]
        elif metric.endswith(".per_state"):
            name = metric[: -len(".per_state")]
            in_commands = sum(summary["root_calls"][root][name] for root in PER_STATE_COMMANDS)
            values[metric] = in_commands / states_analysed(p)
        elif metric != "trace.overhead_frac":
            name, _, field = metric.rpartition(".")
            values[metric] = summary[field][name]
    return values


# record ----------------------------------------------------------------------

def _read(path):
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(numpy):
    cpu_model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    revision = None
    if os.path.isdir(os.path.join(harness.ROOT, ".git")):
        proc = subprocess.run(["git", "-C", harness.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        revision = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(harness.SRC, "spinsqueeze", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    dense = 2001 ** 2 * 16
    return {
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(harness.BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_per_instance": caches,
        "note": (f"one dense N=2000 Dicke operator is {dense / 2**20:.0f} MiB "
                 "(computed), larger than L2 and smaller than L3"),
    }


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


# main ------------------------------------------------------------------------

def measure(args, run_dir):
    # the run's seconds count from here, so the first set-up is inside them
    deadline = time.perf_counter() + args.seconds
    setups = Setups(args, run_dir)
    directory = setups.inputs

    import numpy
    import workloads
    import tracing
    from spinsqueeze import cli

    harness.check_import_location()
    variant = args.seed % workloads.VARIANTS
    workload = workloads.WORKLOADS[args.workload]
    commands = workload.commands(directory, workload.params(variant))
    reference = harness.load_reference(args.workload, variant)
    if tracing.wrapper_sites():
        raise RuntimeError("tracer wrappers bound before the run")

    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        # commands that run once come first, then passes over the repeated ones
        once = run_pass(cli, [c for c in commands if not c.repeated], directory, reference)
        passes = run_passes(cli, [c for c in commands if c.repeated], directory, reference,
                            deadline, None, setups)
        if once.outcomes:
            passes.insert(0, once)
    else:
        passes = run_passes(cli, commands, directory, reference, deadline, tracer)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [reason for p in passes for reason in p.failures]
    attempted = sum(len(p.outcomes) for p in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "input_variant": variant,
        "seconds": args.seconds, "trace": args.trace,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "pass_s": {"plain": [p.seconds for p in plain], "traced": [p.seconds for p in traced]},
        "setup_s_repeats": setups.times,
        "environment": environment(numpy),
    }
    stats = command_stats(workload, commands, plain)
    record.update(stats)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups.times),
            "wall_s": stats.pop("wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [layer_metrics(tracer, p) for p in traced]
        metrics, unsteady = {}, []
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_frac":
                metrics[metric] = (statistics.median(p.seconds for p in traced)
                                   / statistics.median(p.seconds for p in plain) - 1.0)
            elif unit == "s":
                metrics[metric] = statistics.median(m[metric] for m in per_pass)
            else:
                if any(m[metric] != per_pass[0][metric] for m in per_pass):
                    unsteady.append(metric)
                metrics[metric] = per_pass[0][metric]
        if unsteady:
            failures.append(f"counts differ between traced passes: {', '.join(unsteady)}")
        units = dict(PER_LAYER)
    record["failed_frac"] = len(failures) / attempted
    record["failures"] = failures[:5]
    correct = not failures
    return correct, attempted, len(failures), metrics, units, record


def main(argv=None):
    args = parse_args(argv)
    try:
        harness.bootstrap()
        if args.setup_into:
            return setup_child(args)
        run_dir = os.path.join(harness.SCRATCH, f"run-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            correct, attempted, failed, metrics, units, record = measure(args, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {record['workload']} seed {record['seed']} "
          f"(input variant {record['input_variant']}), trace {record['trace']}, "
          f"{record['passes']['plain']} plain and {record['passes']['traced']} traced passes, "
          f"failed_frac {record['failed_frac']:.6g}")
    for name, value in metrics.items():
        print(f"  {name:52s} {fmt(value):>14s} {units[name]}")
    for name, unit in (("analyze_ms_p50", "ms"), ("sweep_rows_per_s", "1/s"),
                       ("verify_instances_per_s", "1/s")):
        if name in record:
            print(f"  {name:52s} {fmt(record[name]):>14s} {unit} (not bounded)")
    if record.get("analyze_ms_tail"):
        t = record["analyze_ms_tail"]
        print(f"  analyze_ms_tail (p{t['percentile']:.4g} of {t['samples']} samples)"
              f"{'':14s} {fmt(t['value']):>14s} ms (not bounded)")
    else:
        print(f"  analyze_ms_tail: undefined, {record['analyze_ms_samples']} samples "
              "(needs at least 11)")
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    results = os.path.join(harness.SCRATCH, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
