"""Reduced density matrices and two-qubit pair correlation structure."""

from itertools import combinations

import numpy as np

from .errors import ValidationError
from .operators import IDENTITY2, PAULIS, bloch_vectors, dicke_moments
from .states import (
    DensityMatrix,
    PureState,
    SymmetricState,
    _kept_per_state,
    _require_full_vector_capacity,
)

ENTRY_TOL = 1e-10
SYMMETRY_TOL = 1e-8

# PAIR_BASIS[m, n] = P_m (x) P_n with P = (1, sigma_x, sigma_y, sigma_z); a
# two-qubit reduction is (1/4) sum_mn R_mn P_m (x) P_n with R = [[1, s_j], [s_i, T]]
_ONE_QUBIT_BASIS = (IDENTITY2, *PAULIS)
PAIR_BASIS = np.stack(
    [np.stack([np.kron(a, b) for b in _ONE_QUBIT_BASIS]) for a in _ONE_QUBIT_BASIS])
# PAIR_PAULIS[a, b] = sigma_a (x) sigma_b, used to read T off a 4x4 reduction
PAIR_PAULIS = PAIR_BASIS[1:, 1:]


def reduce(state, subset):
    """Partial trace onto the given 1-based qubit subset (in subset order)."""
    n = state.num_qubits
    subset = list(subset)
    if not subset:
        raise ValidationError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValidationError(f"subset {subset} contains duplicate indices")
    for q in subset:
        if not 1 <= q <= n:
            raise ValidationError(f"qubit index {q} outside 1..{n}")
    keep = [q - 1 for q in subset]
    rest = [a for a in range(n) if a not in keep]
    k = len(keep)
    if isinstance(state, PureState):
        t = state.amplitudes.reshape([2] * n).transpose(keep + rest)
        m = t.reshape(2**k, -1)
        rho = m @ m.conj().T
        return DensityMatrix(k, _rehermitize(rho))
    if isinstance(state, DensityMatrix):
        t = state.matrix.reshape([2] * (2 * n))
        row = keep + rest
        col = [n + a for a in keep] + [n + a for a in rest]
        t = t.transpose(row + col).reshape(2**k, 2**(n - k), 2**k, 2**(n - k))
        rho = np.einsum("arbr->ab", t)
        return DensityMatrix(k, _rehermitize(rho))
    raise ValidationError(f"cannot reduce a {type(state).__name__}")


def _rehermitize(rho):
    return (rho + rho.conj().T) / 2


def _clipped(t):
    """Correlation entries clipped to [-1, 1] within ENTRY_TOL, read-only."""
    t = np.clip(t, -1.0 - ENTRY_TOL, 1.0 + ENTRY_TOL)
    t.setflags(write=False)
    return t


def correlation_matrix(state, i, j):
    """Pair correlation matrix T_ab = <sigma_{i a} sigma_{j b}> as a read-only (3, 3) array."""
    if i == j:
        raise ValidationError("correlation matrix needs two distinct qubits")
    rho = reduce(state, [i, j]).matrix
    return _clipped(np.einsum("ab,xyba->xy", rho, PAIR_PAULIS).real)


@_kept_per_state
def pair_correlations(state):
    """All pair correlation matrices of a state of at most 20 qubits, kept per state.

    Returns a read-only (N, N, 3, 3) array with table[i, j] = T^(i+1, j+1),
    table[j, i] its transpose and a zero diagonal.  All pairs of a SymmetricState share T.
    """
    n = state.num_qubits
    _require_full_vector_capacity(n)
    table = np.zeros((n, n, 3, 3))
    for i, j in combinations(range(n), 2):
        t = (symmetric_moments(state)[1] if isinstance(state, SymmetricState)
             else correlation_matrix(state, i + 1, j + 1))
        table[i, j] = t
        table[j, i] = t.T
    table.setflags(write=False)
    return table


def pair_correlation_sum(state):
    """Sum over ordered pairs i != j of T^(ij); symmetric by construction."""
    table = pair_correlations(state)
    total = np.zeros((3, 3))
    for i, j in combinations(range(state.num_qubits), 2):
        t = table[i, j]
        total += t + t.T
    return total


@_kept_per_state
def symmetric_moments(state):
    """(s, T): the common Bloch vector and pair correlation matrix of an exchange-symmetric state.

    A SymmetricState reads them off its Dicke-basis moments, s = 2 <J> / N and
    T_ab = (2 <{J_a, J_b}> - N delta_ab) / (N (N - 1)); a qubit-resolved state
    reads qubit 1's Bloch vector and the (1, 2) entry of its pair table.  T is
    not symmetrised.  Both arrays are read-only and kept on the state.
    """
    n = state.num_qubits
    if n < 2:
        raise ValidationError("pair correlations need at least 2 qubits")
    if not isinstance(state, SymmetricState):
        if not is_exchange_symmetric(state):
            raise ValidationError("state is not exchange-symmetric within tolerance")
        return bloch_vectors(state)[0], pair_correlations(state)[0, 1]
    t = (4 * dicke_moments(state)[1] - n * np.eye(3)) / (n * (n - 1))
    return bloch_vectors(state)[0], _clipped(t)


@_kept_per_state
def is_exchange_symmetric(state):
    """Operational symmetry test: all pair reductions equal and swap-invariant, kept per state.

    The reductions are rebuilt from the moment layer.
    """
    if state.num_qubits < 2:
        return False  # a single qubit has no pair
    if isinstance(state, SymmetricState):
        return True
    return _pair_reductions_agree(state)


def _pair_density(svecs, table, i, j):
    """Reduced density matrix of 0-based qubits (i, j) from its first and second moments."""
    r = np.block([[np.ones((1, 1)), svecs[j][None]], [svecs[i][:, None], table[i, j]]])
    return 0.25 * np.einsum("mn,mnab->ab", r, PAIR_BASIS)


def _pair_reductions_agree(state):
    """The swapped first pair and every other pair equal the first pair within SYMMETRY_TOL."""
    svecs = bloch_vectors(state)
    table = pair_correlations(state)
    first = _pair_density(svecs, table, 0, 1)
    pairs = [(1, 0)] + list(combinations(range(state.num_qubits), 2))[1:]
    return all(np.max(np.abs(_pair_density(svecs, table, i, j) - first)) <= SYMMETRY_TOL
               for i, j in pairs)
