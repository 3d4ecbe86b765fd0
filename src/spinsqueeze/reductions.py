"""Reduced density matrices and two-qubit pair correlation structure."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .operators import IDENTITY2, PAULIS, bloch_vectors, dicke_moments
from .states import DensityMatrix, PureState, SymmetricState, _once_per_state

ENTRY_TOL = 1e-10
SYMMETRY_TOL = 1e-8

# PAIR_BASIS[m, n] = P_m (x) P_n with P = (1, sigma_x, sigma_y, sigma_z); a
# two-qubit reduction is (1/4) sum_mn R_mn P_m (x) P_n with R = [[1, s_j], [s_i, T]]
_ONE_QUBIT_BASIS = (IDENTITY2, *PAULIS)
PAIR_BASIS = np.stack(
    [np.stack([np.kron(a, b) for b in _ONE_QUBIT_BASIS]) for a in _ONE_QUBIT_BASIS])
# PAIR_PAULIS[a, b] = sigma_a (x) sigma_b, used to read T off a 4x4 reduction
PAIR_PAULIS = PAIR_BASIS[1:, 1:]


@dataclass(frozen=True)
class CorrelationMatrix:
    """3x3 real matrix T_ab = <sigma_{i a} sigma_{j b}> for one qubit pair."""

    entries: np.ndarray

    def __post_init__(self):
        t = np.array(self.entries, dtype=float)
        if t.shape != (3, 3):
            raise ValidationError(f"correlation matrix must be 3x3, got {t.shape}")
        if np.max(np.abs(t)) > 1.0 + ENTRY_TOL:
            raise ValidationError("correlation entries must lie in [-1, 1]")
        t.setflags(write=False)
        object.__setattr__(self, "entries", t)


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


def correlation_matrix(state, i, j):
    """Pair correlation matrix T_ab = <sigma_{i a} sigma_{j b}>."""
    if i == j:
        raise ValidationError("correlation matrix needs two distinct qubits")
    rho = reduce(state, [i, j]).matrix
    t = np.einsum("ab,xyba->xy", rho, PAIR_PAULIS).real
    return CorrelationMatrix(np.clip(t, -1.0 - ENTRY_TOL, 1.0 + ENTRY_TOL))


def pair_correlations(state):
    """All pair correlation matrices of a qubit-resolved state, computed once per state.

    Returns a read-only (N, N, 3, 3) array with table[i, j] = T^(i+1, j+1),
    table[j, i] its transpose and a zero diagonal.
    """
    def compute():
        n = state.num_qubits
        table = np.zeros((n, n, 3, 3))
        for i, j in combinations(range(n), 2):
            t = correlation_matrix(state, i + 1, j + 1).entries
            table[i, j] = t
            table[j, i] = t.T
        table.setflags(write=False)
        return table

    return _once_per_state(state, "pair_correlations", compute)


def pair_correlation_sum(state):
    """Sum over ordered pairs i != j of T^(ij); symmetric by construction."""
    table = pair_correlations(state)
    total = np.zeros((3, 3))
    for i, j in combinations(range(state.num_qubits), 2):
        t = table[i, j]
        total += t + t.T
    return total


def collective_to_pair_correlations(state):
    """Pair correlation matrix of a symmetric state from collective moments.

    For exchange-symmetric states all pairs share one T, and
    T_ab = (2 <{J_a, J_b}> - N delta_ab) / (N (N - 1)), evaluated entirely in
    the Dicke basis.
    """
    if not isinstance(state, SymmetricState):
        raise ValidationError("expected a SymmetricState")
    n = state.num_qubits
    if n < 2:
        raise ValidationError("pair correlations need at least 2 qubits")
    second = dicke_moments(state)[1]
    t = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            anticomm = 2 * second[a, b]
            t[a, b] = (2 * anticomm - (n if a == b else 0)) / (n * (n - 1))
    return CorrelationMatrix(np.clip(t, -1.0 - ENTRY_TOL, 1.0 + ENTRY_TOL))


def is_exchange_symmetric(state):
    """Operational symmetry test: all pair reductions equal and swap-invariant.

    The reductions are rebuilt from the moment layer; the verdict is kept on the state.
    """
    if isinstance(state, SymmetricState) or state.num_qubits < 2:
        return True
    return _once_per_state(state, "exchange_symmetric", lambda: _pair_reductions_agree(state))


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
