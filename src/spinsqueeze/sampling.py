"""Seeded samplers shared by the verification suites and the test suite."""

import numpy as np

from .operators import LocalUnitary, bloch_vectors
from .states import DensityMatrix, PureState, SymmetricState, embed_symmetric

MIN_BLOCH = 1e-3  # Bloch norm every qubit of a *_with_nonzero_bloch sample reaches
MAX_TRIES = 200


def haar_pure_state(num_qubits, rng):
    """Haar-random pure state on N qubits."""
    dim = 2**num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(num_qubits, v / np.linalg.norm(v))


def haar_unitary_2(rng):
    """Haar-random 2x2 unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(num_qubits, rng):
    """Independent Haar-random 2x2 unitary on every qubit."""
    return LocalUnitary(tuple(haar_unitary_2(rng) for _ in range(num_qubits)))


def random_symmetric_pure(num_qubits, rng):
    """Random pure state of the symmetric subspace (Gaussian Dicke amplitudes)."""
    v = rng.normal(size=num_qubits + 1) + 1j * rng.normal(size=num_qubits + 1)
    return SymmetricState(num_qubits, v / np.linalg.norm(v))


def random_symmetric_mixture(num_qubits, num_terms, rng):
    """Mixture of random symmetric pure states as a full DensityMatrix."""
    weights = rng.dirichlet(np.ones(num_terms))
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        amps = embed_symmetric(random_symmetric_pure(num_qubits, rng)).amplitudes
        rho += w * np.outer(amps, amps.conj())
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(num_qubits, rho / np.trace(rho).real)


def _with_nonzero_bloch(draw, what):
    """The first of up to MAX_TRIES states from draw() whose qubits all have Bloch norm >= MIN_BLOCH."""
    for _ in range(MAX_TRIES):
        state = draw()
        if np.linalg.norm(bloch_vectors(state), axis=1).min() >= MIN_BLOCH:
            return state
    raise RuntimeError(f"failed to sample {what}")


def pure_state_with_nonzero_bloch(num_qubits, rng):
    """Haar-random pure state whose qubits all have Bloch norm >= MIN_BLOCH."""
    return _with_nonzero_bloch(lambda: haar_pure_state(num_qubits, rng),
                               "a state with nonzero Bloch vectors")


def symmetric_state_with_nonzero_bloch(num_qubits, rng):
    """Random symmetric pure state with a usable common Bloch vector."""
    return _with_nonzero_bloch(lambda: random_symmetric_pure(num_qubits, rng),
                               "a symmetric state with nonzero Bloch vector")
