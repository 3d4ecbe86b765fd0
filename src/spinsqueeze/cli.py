"""Command-line front end: generate, analyze, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 input or usage error.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from ._version import __version__
from .entanglement import concurrence_pure, invariant_I, xi_tilde_result_for
from .errors import ValidationError
from .report import analyze_state, render_text
from .reductions import is_exchange_symmetric
from .squeezing import xi_standard
from .statefile import (
    document_to_state,
    file_slices,
    load_document,
    realize,
    render_json,
    save_state,
    state_to_document,
)
from .states import (
    PureState,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    one_axis_twisted_state,
    product_state,
    random_separable_terms,
)
from .verification import SUITES, run_suite

SWEEP_MAX_POINTS = 100_000
GENERATE_MAX_TERMS = 1000


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Spin-squeezing parameters and entanglement witnesses "
                    "for small multiqubit states.")
    parser.add_argument("--version", action="version", version=f"spinsqueeze {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a state file")
    gen.add_argument("kind", choices=["css", "twisted", "product", "random-separable", "dicke"])
    gen.add_argument("--n", type=int, help="number of qubits")
    gen.add_argument("--theta", type=float, help="polar angle (css; default 0)")
    gen.add_argument("--phi", type=float, help="azimuthal angle (css; default 0)")
    gen.add_argument("--mu", type=float, help="twisting strength (twisted; default 0)")
    gen.add_argument("--k", type=int, help="Dicke index (dicke; default 0)")
    gen.add_argument("--terms", type=int,
                     help="number of product terms (random-separable; default 1)")
    gen.add_argument("--qubit", action="append", metavar="THETA,PHI",
                     help="one Bloch direction per qubit (product); repeatable")
    gen.add_argument("--seed", type=int, help="sampler seed (random-separable; default 0)")
    gen.add_argument("--output", help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="full squeezing/entanglement report")
    ana.add_argument("input", help="state file to analyze")
    ana.add_argument("--format", choices=["text", "machine"], default="text")
    ana.add_argument("--output", help="output path (default: stdout)")
    ana.set_defaults(func=_cmd_analyze)

    swp = sub.add_parser("sweep", help="parameter sweep to CSV")
    swp.add_argument("kind", choices=["schmidt", "css", "twisted"])
    swp.add_argument("--start", type=float, required=True)
    swp.add_argument("--stop", type=float, required=True)
    swp.add_argument("--points", type=int, required=True)
    swp.add_argument("--n", type=int, help="number of qubits (css, twisted; default 2)")
    swp.add_argument("--phi", type=float, help="azimuthal angle (css; default 0)")
    swp.add_argument("--output", help="CSV path (default: stdout)")
    swp.set_defaults(func=_cmd_sweep)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", choices=["text", "machine"], default="text")
    ver.add_argument("--output", help="directory for replay files (default: cwd)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def _write_text(path, slices):
    if path is None:
        sys.stdout.writelines(slices)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(slices)


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


# The parameters each kind reads, with their defaults.  A parameter that a kind
# does not read is refused when given, never dropped.
GENERATE_READS = {
    "css": {"n": None, "theta": 0.0, "phi": 0.0},
    "twisted": {"n": None, "mu": 0.0},
    "dicke": {"n": None, "k": 0},
    "product": {"n": None, "qubit": None},  # --n only as a check of the --qubit count
    "random-separable": {"n": None, "terms": 1, "seed": 0},
}
SWEEP_READS = {
    "schmidt": {"n": 2},  # --n only as the two-qubit check
    "css": {"n": 2, "phi": 0.0},
    "twisted": {"n": 2},
}


def _read_parameters(args, reads):
    """Refuse the given parameters that args.kind does not read; default the unset rest."""
    kind_reads = reads[args.kind]
    parameters = dict.fromkeys(name for names in reads.values() for name in names)
    unread = [f"--{name}" for name in parameters
              if name not in kind_reads and getattr(args, name) is not None]
    _require(not unread, f"{args.command} {args.kind} does not read {', '.join(unread)}")
    for name, default in kind_reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _cmd_generate(args):
    _read_parameters(args, GENERATE_READS)
    kind = args.kind
    if kind == "css":
        _require(args.n is not None, "--n is required for css")
        state = coherent_spin_state(args.n, args.theta, args.phi)
    elif kind == "twisted":
        _require(args.n is not None, "--n is required for twisted")
        state = one_axis_twisted_state(args.n, args.mu)
    elif kind == "dicke":
        _require(args.n is not None, "--n is required for dicke")
        state = dicke_state(args.n, args.k)
    elif kind == "product":
        _require(args.qubit, "product needs at least one --qubit THETA,PHI")
        _require(args.n is None or args.n == len(args.qubit),
                 f"--n {args.n} differs from the number of --qubit values, {len(args.qubit)}")
        factors = []
        for spec in args.qubit:
            parts = spec.split(",")
            _require(len(parts) == 2, f"--qubit {spec!r} is not THETA,PHI")
            try:
                theta, phi = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValidationError(f"--qubit {spec!r} is not numeric") from exc
            _require(math.isfinite(theta) and math.isfinite(phi),
                     f"--qubit {spec!r} is not finite")
            factors.append(np.array([math.cos(theta / 2),
                                     math.sin(theta / 2) * np.exp(1j * phi)]))
        state = product_state(factors)
    else:  # random-separable
        _require(args.n is not None, "--n is required for random-separable")
        _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
        _require(args.terms <= GENERATE_MAX_TERMS,
                 f"--terms must be at most {GENERATE_MAX_TERMS}, got {args.terms}")
        state = random_separable_terms(args.n, args.terms, args.seed)
    _write_text(args.output, file_slices(state_to_document(state)))
    return 0


def _cmd_analyze(args):
    document, digest = load_document(args.input)
    parsed, kind = document_to_state(document), document["kind"]
    del document  # the parsed lists go before the analysis starts
    report = analyze_state(realize(parsed), source_path=args.input, source_sha256=digest,
                           input_kind=kind)
    if args.format == "machine":
        _write_text(args.output, [render_json(report) + "\n"])
    else:
        _write_text(args.output, [render_text(report)])
    return 0


def _fmt_cell(value):
    return "" if value is None else format(float(value), ".17g")


def _sweep_state(kind, value, args):
    if kind == "schmidt":
        return PureState(2, np.array([math.cos(value), 0.0, 0.0, math.sin(value)]))
    if kind == "css":
        return coherent_spin_state(args.n, value, args.phi)
    return one_axis_twisted_state(args.n, value)


def _cmd_sweep(args):
    _read_parameters(args, SWEEP_READS)
    _require(1 <= args.points <= SWEEP_MAX_POINTS,
             f"--points must be between 1 and {SWEEP_MAX_POINTS}")
    _require(args.kind != "schmidt" or args.n == 2,
             f"schmidt sweeps two-qubit states; --n must be 2, got {args.n}")
    _require(math.isfinite(args.start), f"--start must be finite, got {args.start!r}")
    _require(math.isfinite(args.stop), f"--stop must be finite, got {args.stop!r}")
    _require(math.isfinite(args.stop - args.start), "--stop - --start overflows")
    values = np.linspace(args.start, args.stop, args.points)
    rows = []
    for value in values:
        state = _sweep_state(args.kind, float(value), args)
        std = xi_standard(state)
        symmetric = is_exchange_symmetric(state)
        tilde = xi_tilde_result_for(state)
        conc = None
        if isinstance(state, PureState) and state.num_qubits == 2:
            conc = concurrence_pure(state)
        elif symmetric and state.num_qubits == 2:
            conc = concurrence_pure(embed_symmetric(state))
        inv = invariant_I(state) if symmetric else None
        rows.append([float(value), std.xi1, std.xi2, tilde.xi1_tilde,
                     tilde.xi2_tilde, conc, inv])
    lines = ["parameter,xi1,xi2,xi1_tilde,xi2_tilde,concurrence,invariant_i"]
    lines += [",".join(_fmt_cell(cell) for cell in row) for row in rows]
    _write_text(args.output, ["\n".join(lines) + "\n"])
    return 0


def _cmd_verify(args):
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    result = run_suite(args.suite, args.seed)
    replay_dir = args.output or "."
    replay_paths = []
    if not result.passed:
        os.makedirs(replay_dir, exist_ok=True)
        for label, state in result.failures:
            path = os.path.join(replay_dir, f"spinsqueeze-replay-{result.suite}-{label}.json")
            save_state(path, state)
            replay_paths.append(path)
    if args.format == "machine":
        doc = {
            "suite": result.suite,
            "seed": args.seed,
            "passed": result.passed,
            "checks": [dataclasses.asdict(c) for c in result.checks],
            "replay_files": replay_paths,
        }
        sys.stdout.write(render_json(doc) + "\n")
    else:
        print(f"suite {result.suite} (seed {args.seed})")
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (f"  {c.name}: {c.instances} instances, "
                    f"worst {c.worst:.3g} (tolerance {c.tolerance:.3g}) -> {status}")
            print(line)
            if c.note:
                print(f"    note: {c.note}")
        for path in replay_paths:
            print(f"  replay file: {path}")
        print(f"result: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_document turns a failed read of a state file into a ValidationError,
        # so what fails here is writing an output file, a directory or stdout
        target = "standard output" if exc.filename is None else repr(exc.filename)
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
