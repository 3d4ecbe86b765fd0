"""Pauli and collective angular-momentum machinery.

Collective spin is J = (1/2) sum_i sigma_i.  Qubit-resolved states give their
per-qubit Bloch vectors; symmetric states give their collective moments in
the Dicke basis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .states import DensityMatrix, PureState, SymmetricState, _kept_per_state

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
IDENTITY2 = np.eye(2, dtype=complex)

UNIT_TOL = 1e-12
UNITARY_TOL = 1e-12
DEGENERATE_AXIS_TOL = 1e-8

# Dicke-basis operator rows held at once by dicke_moments: 6 MB at N = 2000.
_DICKE_BLOCK_ROWS = 64

Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector."""

    components: np.ndarray

    def __post_init__(self):
        v = np.array(self.components, dtype=float)
        if v.shape != (3,):
            raise ValidationError(f"a direction needs 3 components, got shape {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
            raise ValidationError("direction is not a unit vector")
        v.setflags(write=False)
        object.__setattr__(self, "components", v)


def unit(v):
    """Normalize a 3-vector into a Direction."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return Direction(v / norm)


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal triad (n_perp, n_perp_prime, n0)."""

    n_perp: Direction
    n_perp_prime: Direction
    n0: Direction

    def __post_init__(self):
        e1 = self.n_perp.components
        e2 = self.n_perp_prime.components
        e3 = self.n0.components
        for a, b in ((e1, e2), (e1, e3), (e2, e3)):
            if abs(a @ b) > UNIT_TOL:
                raise ValidationError("frame axes are not pairwise orthogonal")
        if np.linalg.norm(np.cross(e1, e2) - e3) > 1e-10:
            raise ValidationError("frame is not right-handed")


@dataclass(frozen=True)
class LocalUnitary:
    """One 2x2 unitary per qubit, applied as U_1 x U_2 x ... x U_N."""

    per_qubit: tuple

    def __post_init__(self):
        mats = []
        for idx, u in enumerate(self.per_qubit):
            m = np.array(u, dtype=complex)
            if m.shape != (2, 2):
                raise ValidationError(f"unitary for qubit {idx + 1} is not 2x2")
            if np.max(np.abs(m.conj().T @ m - IDENTITY2)) > UNITARY_TOL:
                raise ValidationError(f"matrix for qubit {idx + 1} is not unitary")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "per_qubit", tuple(mats))

    @property
    def num_qubits(self):
        return len(self.per_qubit)

    @classmethod
    def identity(cls, num_qubits):
        return cls(tuple(IDENTITY2 for _ in range(num_qubits)))

    @classmethod
    def single(cls, num_qubits, qubit, u):
        """Identity everywhere except `u` on the given 1-based qubit."""
        mats = [IDENTITY2] * num_qubits
        mats[qubit - 1] = u
        return cls(tuple(mats))


def _apply_pure(amps, num_qubits, qubit, op):
    """Apply a 2x2 operator to one qubit (1-based) of an amplitude vector."""
    t = amps.reshape([2] * num_qubits)
    t = np.moveaxis(t, qubit - 1, 0)
    t = (op @ t.reshape(2, -1)).reshape([2] * num_qubits)
    return np.moveaxis(t, 0, qubit - 1).reshape(-1)


def _apply_density_left(mat, num_qubits, qubit, op):
    """op acting on the row index of a density matrix (op @ rho)."""
    dim = 2**num_qubits
    t = mat.reshape([2] * num_qubits + [dim])
    t = np.moveaxis(t, qubit - 1, 0)
    t = (op @ t.reshape(2, -1)).reshape([2] * num_qubits + [dim])
    return np.moveaxis(t, 0, qubit - 1).reshape(dim, dim)


def _apply_density_right(mat, num_qubits, qubit, op):
    """op acting on the column index of a density matrix (rho @ op)."""
    # rho @ op = (op^dag @ rho^dag)^dag
    return _apply_density_left(mat.conj().T, num_qubits, qubit, op.conj().T).conj().T


def apply_local_unitaries(state, local_unitary):
    """Transform a PureState or DensityMatrix qubit-wise."""
    if local_unitary.num_qubits != state.num_qubits:
        raise ValidationError(
            f"LocalUnitary acts on {local_unitary.num_qubits} qubits, "
            f"state has {state.num_qubits}")
    n = state.num_qubits
    if isinstance(state, PureState):
        amps = state.amplitudes
        for q, u in enumerate(local_unitary.per_qubit, start=1):
            amps = _apply_pure(amps, n, q, u)
        return PureState(n, amps)
    if isinstance(state, DensityMatrix):
        mat = state.matrix
        for q, u in enumerate(local_unitary.per_qubit, start=1):
            mat = _apply_density_left(mat, n, q, u)
            mat = _apply_density_right(mat, n, q, u.conj().T)
        mat = (mat + mat.conj().T) / 2
        return DensityMatrix(n, mat)
    raise ValidationError(f"cannot apply local unitaries to {type(state).__name__}")


def bloch_expectations(state, qubit_index):
    """(<sigma_x>, <sigma_y>, <sigma_z>) of one qubit's reduced state."""
    n = state.num_qubits
    if not 1 <= qubit_index <= n:
        raise ValidationError(f"qubit index {qubit_index} outside 1..{n}")
    if isinstance(state, PureState):
        amps = state.amplitudes
        return np.array([
            np.vdot(amps, _apply_pure(amps, n, qubit_index, p)).real for p in PAULIS])
    if isinstance(state, DensityMatrix):
        mat = state.matrix
        return np.array([
            np.trace(_apply_density_left(mat, n, qubit_index, p)).real for p in PAULIS])
    raise ValidationError(f"cannot take Bloch expectations of {type(state).__name__}")


@_kept_per_state
def bloch_vectors(state):
    """All N Bloch vectors as a read-only (N, 3) array, kept per state.

    Every qubit of a SymmetricState has the common vector s = 2 <J> / N.
    """
    n = state.num_qubits
    if isinstance(state, SymmetricState):
        svecs = np.tile(2.0 * dicke_moments(state)[0] / n, (n, 1))
    else:
        svecs = np.stack([bloch_expectations(state, q) for q in range(1, n + 1)])
    svecs.setflags(write=False)
    return svecs


def _dicke_band_entries(num_qubits, start, stop):
    """The nonzero entries of rows start..stop-1 of (J_x, J_y, J_z) on the Dicke basis.

    Returns (index, values) for the float view of a (3, stop - start, N+1)
    complex array: index is (operator, row - start, 2 column + part) with
    part 0 real and 1 imaginary.  k counts qubits in |0>, and J_+ maps
    k -> k+1 by sqrt((N-k)(k+1)).
    """
    n = num_qubits
    rows = np.arange(start, stop)
    at = rows - start
    below = rows >= 1  # <k+1|J|k> with k = row - 1
    k_below = rows[below] - 1
    half_below = np.sqrt((n - k_below) * (k_below + 1)) / 2
    above = rows < n  # <k|J|k+1> with k = row
    k_above = rows[above]
    half_above = np.sqrt((n - k_above) * (k_above + 1)) / 2
    bands = (  # operator, row offsets, float-view columns (2 column + part), values
        (2, at, 2 * rows, rows - n / 2),
        (0, at[below], 2 * k_below, half_below),
        (1, at[below], 2 * k_below + 1, -half_below),  # <k+1|J_y|k> = -i sqrt(...)/2
        (0, at[above], 2 * k_above + 2, half_above),
        (1, at[above], 2 * k_above + 3, half_above),
    )
    ops, offsets, columns, values = zip(*bands)
    index = (np.repeat(ops, [len(o) for o in offsets]),
             np.concatenate(offsets), np.concatenate(columns))
    return index, np.concatenate(values)


def dicke_collective_operators(num_qubits):
    """(J_x, J_y, J_z) on the (N+1)-dimensional Dicke basis as dense operators."""
    dim = num_qubits + 1
    ops = np.zeros((3, dim, dim), dtype=complex)
    index, values = _dicke_band_entries(num_qubits, 0, dim)
    ops.view(float)[index] = values
    jx, jy, jz = ops
    return jx, jy, jz


@_kept_per_state
def dicke_moments(state):
    """First and second collective moments of a SymmetricState, kept per state.

    Returns read-only arrays (mean, second) with mean_a = Re<d, J_a d> and
    second_ab = Re<J_a d, J_b d> for the Dicke amplitudes d.  J_a d is
    computed _DICKE_BLOCK_ROWS rows at a time in one zeroed block, whose band
    entries are written before and cleared after each block's product: each
    entry is still one dot product of a full operator row with d, so it has
    the dense product's bits.
    """
    if not isinstance(state, SymmetricState):
        raise ValidationError(f"dicke_moments needs a SymmetricState, got {type(state).__name__}")
    d = state.dicke_amplitudes
    dim = state.num_qubits + 1
    block = np.zeros((3, min(_DICKE_BLOCK_ROWS, dim), dim), dtype=complex)
    floats = block.view(float)
    applied = np.empty((3, dim), dtype=complex)
    for start in range(0, dim, _DICKE_BLOCK_ROWS):
        stop = min(start + _DICKE_BLOCK_ROWS, dim)
        index, values = _dicke_band_entries(state.num_qubits, start, stop)
        floats[index] = values
        applied[:, start:stop] = block[:, :stop - start] @ d
        floats[index] = 0.0
    mean = np.array([np.vdot(d, a).real for a in applied])
    second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
    mean.setflags(write=False)
    second.setflags(write=False)
    return mean, second


def total_spin_expectation(state):
    """<J> = (1/2) sum_i <sigma_i> as a real 3-vector."""
    if isinstance(state, SymmetricState):
        return dicke_moments(state)[0].copy()
    return 0.5 * bloch_vectors(state).sum(axis=0)


def complete_frame(n0):
    """Deterministic right-handed frame with the given n0.

    n_perp = normalize(z x n0), falling back to x when n0 is (anti)parallel
    to z; n_perp_prime = n0 x n_perp.  A Gram-Schmidt projection removes the
    rounding error that the near-degenerate cross product amplifies, so the
    frame meets the orthogonality invariant for every n0.
    """
    v = n0.components
    c = np.cross(Z_AXIS, v)
    if np.linalg.norm(c) < DEGENERATE_AXIS_TOL:
        c = np.array([1.0, 0.0, 0.0])
    e1 = c - (c @ v) * v
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v, e1)
    e2 /= np.linalg.norm(e2)
    return Frame(Direction(e1), Direction(e2), n0)


def rotation_matrix(axis, angle):
    """SO(3) rotation by `angle` about a unit `axis` (Rodrigues form)."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    k = np.array([
        [0.0, -ax[2], ax[1]],
        [ax[2], 0.0, -ax[0]],
        [-ax[1], ax[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def alignment_rotation_matrix(bloch):
    """Minimal-angle SO(3) rotation taking a Bloch vector to +z.

    The rotation axis is normalize(s x z); a vector along -z is rotated
    about x by pi.
    """
    s = np.asarray(bloch, dtype=float)
    norm = np.linalg.norm(s)
    if norm == 0.0:
        raise ValidationError("cannot align a zero Bloch vector")
    v = s / norm
    cos_angle = float(np.clip(v @ Z_AXIS, -1.0, 1.0))
    if cos_angle > 1.0 - 1e-14:
        return np.eye(3)
    if cos_angle < -1.0 + 1e-14:
        return rotation_matrix(np.array([1.0, 0.0, 0.0]), math.pi)
    axis = np.cross(v, Z_AXIS)
    return rotation_matrix(axis, math.acos(cos_angle))
