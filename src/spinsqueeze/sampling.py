"""Seeded samplers shared by the verification suites and the test suite."""

import numpy as np

from .operators import LocalUnitary
from .states import DensityMatrix, PureState, SymmetricState, embed_symmetric


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


def pure_state_with_nonzero_bloch(num_qubits, rng, min_bloch=1e-3, max_tries=200):
    """Haar-random pure state whose qubits all have Bloch norm >= min_bloch."""
    from .operators import bloch_vectors

    for _ in range(max_tries):
        state = haar_pure_state(num_qubits, rng)
        norms = np.linalg.norm(bloch_vectors(state), axis=1)
        if norms.min() >= min_bloch:
            return state
    raise RuntimeError("failed to sample a state with nonzero Bloch vectors")


def symmetric_state_with_nonzero_bloch(num_qubits, rng, min_bloch=1e-3, max_tries=200):
    """Random symmetric pure state with a usable common Bloch vector."""
    from .operators import bloch_vectors

    for _ in range(max_tries):
        state = random_symmetric_pure(num_qubits, rng)
        if np.linalg.norm(bloch_vectors(state)[0]) >= min_bloch:
            return state
    raise RuntimeError("failed to sample a symmetric state with nonzero Bloch vector")
