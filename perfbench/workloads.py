"""The benchmark's workloads: seeded input files and fixed command lists.

Every input depends only on ``seed % VARIANTS``, so the stored reference
outputs in ``reference/`` cover every seed.  Each command group is three
functions: ``params(variant)`` draws the numbers a run needs (cheap, writes
nothing), ``write_inputs(directory, params)`` writes the input files through
the library, and ``commands(directory, params)`` lists the CLI invocations of
one pass.  A workload runs one or more groups in one pass.  The program only ever sees the generated files and arguments.
"""

import math
import os

import numpy as np

from spinsqueeze import (
    MixtureTerm,
    SymmetricState,
    apply_local_unitaries,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    one_axis_twisted_state,
    random_separable_state,
    random_separable_terms,
)
from spinsqueeze.operators import dicke_collective_operators
from spinsqueeze.sampling import (
    haar_pure_state,
    haar_unitary_2,
    random_local_unitary,
    random_symmetric_mixture,
)
from spinsqueeze.statefile import save_state, state_to_document, dumps
from spinsqueeze.states import DensityMatrix

VARIANTS = 10


class Command:
    """One CLI invocation; ``label`` keys its reference output.

    A ``repeated`` command runs in every pass of a timed run and counts in
    ``wall_s``.  Any other command runs once per timed run, before the
    passes: it is checked like the rest and its latency is in the record,
    but one sample of a command that takes seconds says too little about
    the program to bound (see METRICS.md).
    """

    def __init__(self, label, argv, repeated=True):
        self.label = label
        self.argv = list(argv)
        self.kind = argv[0]
        self.repeated = repeated

    @property
    def is_machine_analyze(self):
        return self.kind == "analyze" and self.argv[-2:] == ["--format", "machine"]


def _path(directory, name):
    return os.path.join(directory, name)


def _rng(variant, stream):
    return np.random.default_rng([int(variant), stream])


def _analyze(directory, name, fmt="machine", repeated=True):
    return Command(f"analyze {name} {fmt}",
                   ["analyze", _path(directory, name), "--format", fmt], repeated)


# dicke-large -----------------------------------------------------------------

def dicke_large_params(variant):
    rng = _rng(variant, 1)
    return {
        "mu2000": float(rng.uniform(0.002, 0.02)),
        "theta": float(rng.uniform(0.3, 2.8)),
        "phi": float(rng.uniform(0.0, 2 * math.pi)),
        "mu500": float(rng.uniform(0.005, 0.05)),
        "sweep_start": float(rng.uniform(0.001, 0.005)),
        "sweep_stop": float(rng.uniform(0.01, 0.05)),
    }


def dicke_large_inputs(directory, p):
    save_state(_path(directory, "twisted2000.json"), one_axis_twisted_state(2000, p["mu2000"]))
    save_state(_path(directory, "coherent2000.json"),
               coherent_spin_state(2000, p["theta"], p["phi"]))
    save_state(_path(directory, "dicke2000.json"), dicke_state(2000, 1000))
    save_state(_path(directory, "twisted500.json"), one_axis_twisted_state(500, p["mu500"]))


def dicke_large_commands(directory, p):
    return [
        _analyze(directory, "twisted2000.json"),
        _analyze(directory, "coherent2000.json"),
        _analyze(directory, "dicke2000.json"),
        _analyze(directory, "twisted500.json"),
        Command("sweep twisted 2000",
                ["sweep", "twisted", "--n", "2000", "--start", repr(p["sweep_start"]),
                 "--stop", repr(p["sweep_stop"]), "--points", "2"]),
    ]


# qubit-resolved --------------------------------------------------------------

def qubit_resolved_params(variant):
    rng = _rng(variant, 2)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
    return {
        "qubits": [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.0, 2 * math.pi)))
                   for _ in range(16)],
        "mu16": float(rng.uniform(0.05, 0.4)),
        "haar_seed": seeds[0],
        "sep7_seed": seeds[1],
        "sep8_seed": seeds[2],
        "symmix_seed": seeds[3],
        "rs8_seed": seeds[4],
        "rs8_terms": int(rng.integers(3, 7)),
    }


def qubit_resolved_inputs(directory, p):
    rng = np.random.default_rng(p["haar_seed"])
    for n in (12, 14, 16):
        save_state(_path(directory, f"haar{n}.json"), haar_pure_state(n, rng))
    save_state(_path(directory, "twisted16-embedded.json"),
               embed_symmetric(one_axis_twisted_state(16, p["mu16"])))
    save_state(_path(directory, "separable7.json"), random_separable_state(7, 4, p["sep7_seed"]))
    save_state(_path(directory, "separable8.json"), random_separable_state(8, 4, p["sep8_seed"]))
    save_state(_path(directory, "symmix8.json"),
               random_symmetric_mixture(8, 3, np.random.default_rng(p["symmix_seed"])))


def qubit_resolved_commands(directory, p):
    qubit_args = []
    for theta, phi in p["qubits"]:
        qubit_args += ["--qubit", f"{theta!r},{phi!r}"]
    return [
        Command("generate product 16",
                ["generate", "product", *qubit_args, "--output", _path(directory, "product16.json")]),
        _analyze(directory, "product16.json"),
        _analyze(directory, "haar12.json"),
        _analyze(directory, "haar14.json"),
        _analyze(directory, "haar16.json"),
        _analyze(directory, "twisted16-embedded.json"),
        _analyze(directory, "separable7.json"),
        _analyze(directory, "separable8.json"),
        Command("generate random-separable 8",
                ["generate", "random-separable", "--n", "8", "--terms", str(p["rs8_terms"]),
                 "--seed", str(p["rs8_seed"]), "--output", _path(directory, "rs8.json")]),
        _analyze(directory, "rs8.json"),
        _analyze(directory, "symmix8.json"),
    ]


# small-n-oracle --------------------------------------------------------------
#
# The independent-angle search's run time depends strongly on the state (a
# factor of ten between Haar samples of one size), so seeding fresh random
# states would make the seed, not the program, set the time.  Each input is
# instead a fixed entangled state in a seeded local frame: the seed draws the
# local unitaries, which change every number the search sees but not the
# state's entanglement.

TWIST = 0.3


def _collective_rotation(state, rng):
    jx, jy, jz = dicke_collective_operators(state.num_qubits)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    w, v = np.linalg.eigh(axis[0] * jx + axis[1] * jy + axis[2] * jz)
    angle = rng.uniform(0.0, 2 * math.pi)
    u = (v * np.exp(-1j * angle * w)) @ v.conj().T
    return SymmetricState(state.num_qubits, u @ state.dicke_amplitudes)


def small_n_oracle_params(variant):
    return {"gauge_seed": int(_rng(variant, 3).integers(0, 2**31))}


def small_n_oracle_inputs(directory, p):
    rng = np.random.default_rng(p["gauge_seed"])
    pure = embed_symmetric(one_axis_twisted_state(3, TWIST))
    save_state(_path(directory, "pure3.json"),
               apply_local_unitaries(pure, random_local_unitary(3, rng)))
    save_state(_path(directory, "symmetric4.json"),
               _collective_rotation(one_axis_twisted_state(4, TWIST), rng))
    psi = apply_local_unitaries(embed_symmetric(one_axis_twisted_state(5, TWIST)),
                                random_local_unitary(5, rng)).amplitudes
    noisy = 0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(32) / 32
    save_state(_path(directory, "density5.json"), DensityMatrix(5, noisy))
    units = [haar_unitary_2(rng) for _ in range(6)]
    terms = [MixtureTerm(t.weight, tuple(u @ f @ u.conj().T for u, f in zip(units, t.factors)))
             for t in random_separable_terms(6, 4, 20110103)]
    with open(_path(directory, "mixture6.json"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps(state_to_document(terms)))


def small_n_oracle_commands(directory, p):
    return [_analyze(directory, name, repeated=False) for name in
            ("pure3.json", "symmetric4.json", "density5.json", "mixture6.json")]


# small-n-search --------------------------------------------------------------
#
# The same search on the smallest inputs, at tens to hundreds of milliseconds
# per command, so that a run times each command often enough for its fastest
# latency to be steady.  The mixture's frame is a seeded phase rotation of
# each qubit: Haar frames changed the search's work by up to 18% from seed to
# seed, phase rotations by under 1%.

def small_n_search_params(variant):
    return {"gauge_seed": int(_rng(variant, 5).integers(0, 2**31))}


def small_n_search_inputs(directory, p):
    rng = np.random.default_rng(p["gauge_seed"])
    pure = embed_symmetric(one_axis_twisted_state(2, TWIST))
    save_state(_path(directory, "pure2.json"),
               apply_local_unitaries(pure, random_local_unitary(2, rng)))
    save_state(_path(directory, "symmetric2.json"),
               _collective_rotation(one_axis_twisted_state(2, TWIST), rng))
    psi = apply_local_unitaries(pure, random_local_unitary(2, rng)).amplitudes
    noisy = 0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(4) / 4
    save_state(_path(directory, "density2.json"), DensityMatrix(2, noisy))
    phases = [np.diag([1.0, np.exp(1j * rng.uniform(0.0, 2 * math.pi))]) for _ in range(3)]
    terms = [MixtureTerm(t.weight, tuple(u @ f @ u.conj().T for u, f in zip(phases, t.factors)))
             for t in random_separable_terms(3, 4, 20110103)]
    with open(_path(directory, "mixture3.json"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps(state_to_document(terms)))


def small_n_search_commands(directory, p):
    return [_analyze(directory, name) for name in
            ("pure2.json", "symmetric2.json", "density2.json", "mixture3.json")]


# verify-small ----------------------------------------------------------------

def verify_small_params(variant):
    rng = _rng(variant, 4)
    return {
        "suite_seed": int(variant),
        "mu2": float(rng.uniform(0.1, 1.0)),
        "qubits": [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.0, 2 * math.pi)))
                   for _ in range(2)],
        "rs_seed": int(rng.integers(0, 2**31)),
    }


def verify_small_inputs(directory, p):
    os.makedirs(_path(directory, "replay"), exist_ok=True)


def verify_small_commands(directory, p):
    seed = str(p["suite_seed"])
    qubit_args = []
    for theta, phi in p["qubits"]:
        qubit_args += ["--qubit", f"{theta!r},{phi!r}"]
    replay = _path(directory, "replay")
    return [
        Command("verify identities",
                ["verify", "identities", "--seed", seed, "--format", "machine"], repeated=False),
        Command("verify separable-bound",
                ["verify", "separable-bound", "--seed", seed, "--format", "machine"],
                repeated=False),
        Command("verify invariance",
                ["verify", "invariance", "--seed", seed, "--format", "machine", "--output", replay],
                repeated=False),
        Command("sweep schmidt",
                ["sweep", "schmidt", "--start", "0", "--stop", repr(math.pi / 4), "--points", "64"]),
        Command("generate twisted 2",
                ["generate", "twisted", "--n", "2", "--mu", repr(p["mu2"]),
                 "--output", _path(directory, "twisted2.json")]),
        Command("generate product 2",
                ["generate", "product", *qubit_args, "--output", _path(directory, "product2.json")]),
        Command("generate random-separable 2",
                ["generate", "random-separable", "--n", "2", "--terms", "3",
                 "--seed", str(p["rs_seed"]), "--output", _path(directory, "rs2.json")]),
        _analyze(directory, "twisted2.json", "text"),
    ]


class Workload:
    """Command groups run together.  ``latency`` is how ``wall_s`` takes a
    repeated command's latency over a run: "median", or "fastest" for
    commands short enough to run many times (see METRICS.md)."""

    def __init__(self, name, parts, latency):
        self.name = name
        self.parts = parts  # (params, write_inputs, commands) per command group
        self.latency = latency

    def params(self, variant):
        return [params(variant) for params, _, _ in self.parts]

    def write_inputs(self, directory, params):
        for (_, write_inputs, _), p in zip(self.parts, params):
            write_inputs(directory, p)

    def commands(self, directory, params):
        return [command for (_, _, commands), p in zip(self.parts, params)
                for command in commands(directory, p)]


DICKE_LARGE = (dicke_large_params, dicke_large_inputs, dicke_large_commands)
QUBIT_RESOLVED = (qubit_resolved_params, qubit_resolved_inputs, qubit_resolved_commands)
SMALL_N_ORACLE = (small_n_oracle_params, small_n_oracle_inputs, small_n_oracle_commands)
SMALL_N_SEARCH = (small_n_search_params, small_n_search_inputs, small_n_search_commands)
VERIFY_SMALL = (verify_small_params, verify_small_inputs, verify_small_commands)

# Two workloads split by system size; each command group keeps its own
# seeded inputs.
WORKLOADS = {w.name: w for w in (
    Workload("large-n", (DICKE_LARGE, QUBIT_RESOLVED), latency="median"),
    Workload("small-n", (SMALL_N_ORACLE, SMALL_N_SEARCH, VERIFY_SMALL), latency="fastest"),
)}
