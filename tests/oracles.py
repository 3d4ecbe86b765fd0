"""Independent oracles the tests check the package against.

They work on the full state vector or density matrix, not on the moment
layer: collective moments for arbitrary per-qubit frames, the SU(2) to SO(3)
map, and the local-frame aligned pair sum evaluated by rotating the state.
More rebuild earlier constructions the package must match bit for bit:
the Dicke-basis operators by dense matrix arithmetic, Bloch expectations by
applying each Pauli matrix, frames and alignment rotations by np.cross and
np.linalg.norm, a pair density assembled by np.block, pair correlations
through a general partial trace and a validated DensityMatrix, state-file
documents as nested lists of Python floats, and the parse of their [re, im]
arrays one Python complex per entry.
"""

import math

import numpy as np

from spinsqueeze import (
    DensityMatrix,
    Direction,
    Frame,
    LocalUnitary,
    MixtureTerm,
    PureState,
    SymmetricState,
    ValidationError,
    apply_local_unitaries,
    bloch_vectors,
    pair_correlation_sum,
)
from spinsqueeze.operators import (
    DEGENERATE_AXIS_TOL,
    IDENTITY2,
    PAULIS,
    UNITARY_TOL,
    Z_AXIS,
    _apply_on_axis,
)
from spinsqueeze.reductions import PAIR_BASIS, PAIR_PAULIS, _clipped
from spinsqueeze.statefile import FORMAT_VERSION

# The number types json.loads gives; bool, a subclass of int, is not one of them.
_JSON_NUMBER_TYPES = (int, float)


def su2_to_so3(u):
    """Rotation matrix O with O_ab = (1/2) Tr(sigma_a u sigma_b u^dag).

    Bloch vectors transform as s -> O s when the state transforms by u.
    """
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2) or np.max(np.abs(m.conj().T @ m - IDENTITY2)) > UNITARY_TOL:
        raise ValidationError("input is not a 2x2 unitary")
    out = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            out[a, b] = 0.5 * np.trace(PAULIS[a] @ m @ PAULIS[b] @ m.conj().T).real
    return out


def su2_rotation(axis, angle):
    """SU(2) element exp(-i angle/2 axis.sigma) for a unit axis."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    half = angle / 2
    return math.cos(half) * IDENTITY2 - 1j * math.sin(half) * np.einsum(
        "a,aij->ij", ax, PAULIS)


def bloch_alignment_unitary(bloch):
    """Minimal-angle SU(2) rotation taking a Bloch vector to +z.

    The rotation axis is normalize(s x z); a vector along -z is rotated
    about x by pi.
    """
    s = np.asarray(bloch, dtype=float)
    v = s / np.linalg.norm(s)
    cos_angle = float(np.clip(v @ Z_AXIS, -1.0, 1.0))
    if cos_angle > 1.0 - 1e-14:
        return IDENTITY2.copy()
    if cos_angle < -1.0 + 1e-14:
        return su2_rotation(np.array([1.0, 0.0, 0.0]), math.pi)
    return su2_rotation(np.cross(v, Z_AXIS), math.acos(cos_angle))


def rotated_pair_sum(state):
    """S = (1/2) sum_{i != j} T^(ij) of the state with every Bloch vector rotated to +z."""
    rotation = LocalUnitary(
        tuple(bloch_alignment_unitary(s) for s in bloch_vectors(state)))
    return pair_correlation_sum(apply_local_unitaries(state, rotation)) / 2


def operator_bloch_expectations(state, qubit_index):
    """(<sigma_x>, <sigma_y>, <sigma_z>) of one qubit, applying each Pauli matrix to the state."""
    axis = qubit_index - 1
    if isinstance(state, PureState):
        amps = state.amplitudes
        return np.array([np.vdot(amps, _apply_on_axis(amps, axis, p)).real for p in PAULIS])
    mat = state.matrix
    return np.array([np.trace(_apply_on_axis(mat, axis, p)).real for p in PAULIS])


def numpy_complete_frame(n0):
    """complete_frame with np.cross and np.linalg.norm."""
    v = n0.components
    c = np.cross(Z_AXIS, v)
    if np.linalg.norm(c) < DEGENERATE_AXIS_TOL:
        c = np.array([1.0, 0.0, 0.0])
    e1 = c - (c @ v) * v
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v, e1)
    e2 /= np.linalg.norm(e2)
    return Frame(Direction(e1), Direction(e2), n0)


def numpy_alignment_rotation_matrix(bloch):
    """alignment_rotation_matrix with np.cross and np.linalg.norm (Rodrigues form)."""
    s = np.asarray(bloch, dtype=float)
    v = s / np.linalg.norm(s)
    cos_angle = float(np.clip(v @ Z_AXIS, -1.0, 1.0))
    if cos_angle > 1.0 - 1e-14:
        return np.eye(3)
    if cos_angle < -1.0 + 1e-14:
        axis, angle = np.array([1.0, 0.0, 0.0]), math.pi
    else:
        axis, angle = np.cross(v, Z_AXIS), math.acos(cos_angle)
    ax = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -ax[2], ax[1]],
        [ax[2], 0.0, -ax[0]],
        [-ax[1], ax[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def block_pair_density(svecs, table, i, j):
    """Reduced density matrix of 0-based qubits (i, j), its moment matrix assembled by np.block."""
    r = np.block([[np.ones((1, 1)), svecs[j][None]], [svecs[i][:, None], table[i, j]]])
    return 0.25 * np.einsum("mn,mnab->ab", r, PAIR_BASIS)


def partial_trace(state, subset):
    """Partial trace onto the given 1-based qubit subset (in subset order), as a DensityMatrix.

    The reduction is made Hermitian, (rho + rho^dag)/2, and validated.
    """
    n = state.num_qubits
    keep = [q - 1 for q in subset]
    rest = [a for a in range(n) if a not in keep]
    k = len(keep)
    if isinstance(state, PureState):
        t = state.amplitudes.reshape([2] * n).transpose(keep + rest)
        m = t.reshape(2**k, -1)
        rho = m @ m.conj().T
    else:
        t = state.matrix.reshape([2] * (2 * n))
        row = keep + rest
        col = [n + a for a in keep] + [n + a for a in rest]
        t = t.transpose(row + col).reshape(2**k, 2**(n - k), 2**k, 2**(n - k))
        rho = np.einsum("arbr->ab", t)
    return DensityMatrix(k, (rho + rho.conj().T) / 2)


def traced_correlation_matrix(state, i, j):
    """T_ab = <sigma_{i a} sigma_{j b}> of 1-based qubits i != j, from partial_trace."""
    rho = partial_trace(state, [i, j]).matrix
    return _clipped(np.einsum("ab,xyba->xy", rho, PAIR_PAULIS).real)


def _projected_spin_applications(state, directions):
    """Apply J.n_i (per-qubit directions) to a pure state or density matrix."""
    ops = [0.5 * np.einsum("a,aij->ij", d, PAULIS) for d in directions]
    array = state.amplitudes if isinstance(state, PureState) else state.matrix
    out = np.zeros_like(array)
    for axis, op in enumerate(ops):
        out = out + _apply_on_axis(array, axis, op)
    return out


def collective_moment(state, frames):
    """Mean of J_0 and 2x2 covariance of (J_perp, J_perp') for per-qubit frames.

    Covariances use symmetrized second moments minus products of first
    moments, so the frames need not be aligned with anything special.
    """
    n = state.num_qubits
    if len(frames) != n:
        raise ValidationError(f"expected {n} frames, got {len(frames)}")
    perp = [f.n_perp.components for f in frames]
    perp_prime = [f.n_perp_prime.components for f in frames]
    axis0 = [f.n0.components for f in frames]
    if isinstance(state, PureState):
        psi = state.amplitudes
        a = _projected_spin_applications(state, perp)
        b = _projected_spin_applications(state, perp_prime)
        c = _projected_spin_applications(state, axis0)
        mean_j0 = np.vdot(psi, c).real
        ma = np.vdot(psi, a).real
        mb = np.vdot(psi, b).real
        cov = np.array([
            [np.vdot(a, a).real - ma**2, np.vdot(a, b).real - ma * mb],
            [np.vdot(a, b).real - ma * mb, np.vdot(b, b).real - mb**2]])
        return mean_j0, cov
    if isinstance(state, DensityMatrix):
        a = _projected_spin_applications(state, perp)
        b = _projected_spin_applications(state, perp_prime)
        c = _projected_spin_applications(state, axis0)
        mean_j0 = np.trace(c).real
        ma = np.trace(a).real
        mb = np.trace(b).real
        # Re Tr(A (B rho)) is the symmetrized second moment for Hermitian A, B.
        saa = _second_moment(state, perp, a)
        sab = _second_moment(state, perp, b)
        sbb = _second_moment(state, perp_prime, b)
        cov = np.array([
            [saa - ma**2, sab - ma * mb],
            [sab - ma * mb, sbb - mb**2]])
        return mean_j0, cov
    raise ValidationError(f"collective_moment does not accept {type(state).__name__}")


def _second_moment(state, directions, applied):
    """Re Tr(J_dir @ applied) where applied = J_other @ rho."""
    ops = [0.5 * np.einsum("a,aij->ij", d, PAULIS) for d in directions]
    total = 0.0
    for axis, op in enumerate(ops):
        total += np.trace(_apply_on_axis(applied, axis, op)).real
    return total


def dense_collective_operators(num_qubits):
    """(J_x, J_y, J_z) in the Dicke basis from J_+ by full-matrix arithmetic."""
    n = num_qubits
    k = np.arange(n + 1)
    jz = np.diag(k - n / 2).astype(complex)
    raise_coeff = np.sqrt((n - k[:-1]) * (k[:-1] + 1))
    jplus = np.diag(raise_coeff, -1).astype(complex)  # maps k -> k+1
    jx = (jplus + jplus.conj().T) / 2
    jy = (jplus - jplus.conj().T) / (2j)
    return jx, jy, jz


def complex_pair_list(z):
    """[re, im] of one complex number as Python floats."""
    return [float(np.real(z)), float(np.imag(z))]


def complex_rows(mat):
    """A complex matrix as rows of [re, im] lists."""
    return [[complex_pair_list(z) for z in row] for row in np.asarray(mat)]


def list_state_document(state):
    """A state's file document with every complex number as a [re, im] list of floats."""
    head = {"format_version": FORMAT_VERSION}
    if isinstance(state, PureState):
        return {**head, "kind": "pure", "num_qubits": state.num_qubits,
                "amplitudes": [complex_pair_list(z) for z in state.amplitudes]}
    if isinstance(state, DensityMatrix):
        return {**head, "kind": "density", "num_qubits": state.num_qubits,
                "matrix": complex_rows(state.matrix)}
    if isinstance(state, SymmetricState):
        return {**head, "kind": "symmetric", "num_qubits": state.num_qubits,
                "dicke_amplitudes": [complex_pair_list(z) for z in state.dicke_amplitudes]}
    assert all(isinstance(t, MixtureTerm) for t in state)
    return {**head, "kind": "mixture", "num_qubits": state[0].num_qubits,
            "terms": [{"weight": t.weight, "factors": [complex_rows(f) for f in t.factors]}
                      for t in state]}


def _parse_complex(value, field_name):
    if (not isinstance(value, list) or len(value) != 2
            or type(value[0]) not in _JSON_NUMBER_TYPES
            or type(value[1]) not in _JSON_NUMBER_TYPES):
        raise ValidationError(f"field {field_name!r} must contain [re, im] pairs")
    return complex(value[0], value[1])


def parse_complex_vector(raw, field_name):
    """A state file's [[re, im], ...] field, one Python complex per entry."""
    if not isinstance(raw, list):
        raise ValidationError(f"field {field_name!r} must be a list")
    return np.array([_parse_complex(v, field_name) for v in raw], dtype=complex)


def parse_complex_matrix(raw, field_name):
    """A state file's rows of [re, im] lists, one Python complex per entry."""
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValidationError(f"field {field_name!r} must be a list of rows")
    if len({len(r) for r in raw}) > 1:
        raise ValidationError(f"field {field_name!r} has rows of different lengths")
    return np.array([[_parse_complex(v, field_name) for v in row] for row in raw],
                    dtype=complex)
