"""Independent oracles the tests check the package against.

They work on the full state vector or density matrix, not on the moment
layer: collective moments for arbitrary per-qubit frames, the SU(2) to SO(3)
map, and the local-frame aligned pair sum evaluated by rotating the state.
"""

import math

import numpy as np

from spinsqueeze import (
    DensityMatrix,
    LocalUnitary,
    PureState,
    ValidationError,
    apply_local_unitaries,
    bloch_vectors,
    pair_correlation_sum,
)
from spinsqueeze.operators import (
    IDENTITY2,
    PAULIS,
    UNITARY_TOL,
    Z_AXIS,
    _apply_density_left,
    _apply_pure,
)


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


def _projected_spin_applications(state, directions):
    """Apply J.n_i (per-qubit directions) to a pure state or density matrix."""
    n = state.num_qubits
    ops = [0.5 * np.einsum("a,aij->ij", d, PAULIS) for d in directions]
    if isinstance(state, PureState):
        out = np.zeros_like(state.amplitudes)
        for q, op in enumerate(ops, start=1):
            out = out + _apply_pure(state.amplitudes, n, q, op)
        return out
    out = np.zeros_like(state.matrix)
    for q, op in enumerate(ops, start=1):
        out = out + _apply_density_left(state.matrix, n, q, op)
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
    n = state.num_qubits
    ops = [0.5 * np.einsum("a,aij->ij", d, PAULIS) for d in directions]
    total = 0.0
    for q, op in enumerate(ops, start=1):
        total += np.trace(_apply_density_left(applied, n, q, op)).real
    return total
