import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import (
    DensityMatrix,
    Direction,
    Frame,
    LocalUnitary,
    PureState,
    ValidationError,
    apply_local_unitaries,
    bloch_expectations,
    bloch_vectors,
    coherent_spin_state,
    complete_frame,
    embed_symmetric,
    product_state,
    total_spin_expectation,
    unit,
)
from spinsqueeze.operators import SIGMA_X
from spinsqueeze.sampling import haar_pure_state, haar_unitary_2, random_local_unitary

from conftest import bell_state, schmidt_state
from oracles import collective_moment, su2_rotation, su2_to_so3


def test_direction_requires_unit_norm():
    with pytest.raises(ValidationError):
        Direction(np.array([1.0, 1.0, 0.0]))
    Direction(np.array([0.0, 0.0, 1.0]))


def test_frame_requires_right_handed_triad():
    x, y, z = np.eye(3)
    Frame(Direction(x), Direction(y), Direction(z))
    with pytest.raises(ValidationError):
        Frame(Direction(y), Direction(x), Direction(z))


def test_apply_sigma_x_flips_second_qubit():
    theta = 0.7
    psi = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    u = LocalUnitary.single(2, 2, SIGMA_X)
    out = apply_local_unitaries(psi, u)
    assert np.allclose(out.amplitudes, [math.cos(theta), 0, 0, math.sin(theta)], atol=1e-14)


def test_apply_identity_is_noop(rng):
    state = haar_pure_state(3, rng)
    out = apply_local_unitaries(state, LocalUnitary.identity(3))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_apply_then_undo(rng):
    state = haar_pure_state(3, rng)
    u = haar_unitary_2(rng)
    forward = apply_local_unitaries(state, LocalUnitary.single(3, 1, u))
    back = apply_local_unitaries(forward, LocalUnitary.single(3, 1, u.conj().T))
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_apply_to_density_matrix_matches_pure_path(rng):
    state = haar_pure_state(3, rng)
    rho = DensityMatrix(3, np.outer(state.amplitudes, state.amplitudes.conj()))
    lu = random_local_unitary(3, rng)
    rho_out = apply_local_unitaries(rho, lu).matrix
    psi_out = apply_local_unitaries(state, lu).amplitudes
    assert np.allclose(rho_out, np.outer(psi_out, psi_out.conj()), atol=1e-12)


def test_apply_rejects_wrong_length(rng):
    with pytest.raises(ValidationError):
        apply_local_unitaries(haar_pure_state(3, rng), LocalUnitary.identity(2))


def test_su2_to_so3_identity():
    assert np.allclose(su2_to_so3(np.eye(2)), np.eye(3), atol=1e-14)


def test_su2_to_so3_z_rotation():
    phi = 0.9
    o = su2_to_so3(su2_rotation(np.array([0.0, 0.0, 1.0]), phi))
    expected = np.array([
        [math.cos(phi), -math.sin(phi), 0],
        [math.sin(phi), math.cos(phi), 0],
        [0, 0, 1]])
    assert np.allclose(o, expected, atol=1e-12)


def test_su2_to_so3_sigma_x():
    assert np.allclose(su2_to_so3(SIGMA_X), np.diag([1.0, -1.0, -1.0]), atol=1e-14)


def test_su2_to_so3_rejects_non_unitary():
    with pytest.raises(ValidationError):
        su2_to_so3(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_su2_to_so3_is_homomorphism(rng):
    for _ in range(25):
        u, v = haar_unitary_2(rng), haar_unitary_2(rng)
        assert np.allclose(su2_to_so3(u @ v), su2_to_so3(u) @ su2_to_so3(v), atol=1e-10)


def test_so3_matrices_are_proper_rotations(rng):
    for _ in range(25):
        o = su2_to_so3(haar_unitary_2(rng))
        assert np.allclose(o @ o.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


def test_bloch_of_basis_state():
    psi = PureState(1, np.array([1.0, 0.0]))
    assert np.allclose(bloch_expectations(psi, 1), [0, 0, 1], atol=1e-14)


def test_bloch_of_tilted_spinor():
    psi = PureState(1, np.array([math.sqrt(3) / 2, 0.5]))
    assert np.allclose(bloch_expectations(psi, 1), [math.sqrt(3) / 2, 0, 0.5], atol=1e-14)


def test_bloch_of_bell_marginal_is_zero():
    for q in (1, 2):
        assert np.allclose(bloch_expectations(bell_state(), q), [0, 0, 0], atol=1e-14)


def test_bloch_transforms_by_rotation(rng):
    state = haar_pure_state(3, rng)
    lu = random_local_unitary(3, rng)
    moved = apply_local_unitaries(state, lu)
    for q in (1, 2, 3):
        o = su2_to_so3(lu.per_qubit[q - 1])
        assert np.allclose(
            bloch_expectations(moved, q), o @ bloch_expectations(state, q), atol=1e-10)


def test_bloch_norms_invariant_under_local_unitaries(rng):
    state = haar_pure_state(3, rng)
    base = np.linalg.norm(bloch_vectors(state), axis=1)
    for _ in range(5):
        moved = apply_local_unitaries(state, random_local_unitary(3, rng))
        norms = np.linalg.norm(bloch_vectors(moved), axis=1)
        assert np.allclose(norms, base, atol=1e-10)


def test_mean_spin_of_schmidt_state():
    theta = math.pi / 8
    j = total_spin_expectation(schmidt_state(theta))
    assert np.allclose(unit(j).components, [0, 0, 1], atol=1e-12)
    assert abs(np.linalg.norm(j) - math.cos(2 * theta)) < 1e-12


def test_mean_spin_of_section3_product_state():
    psi = product_state([np.array([math.sqrt(3) / 2, 0.5]),
                         np.array([math.sqrt(3) / 2, -0.5])])
    j = total_spin_expectation(psi)
    assert np.allclose(unit(j).components, [0, 0, 1], atol=1e-12)
    assert abs(np.linalg.norm(j) - 0.5) < 1e-12


def test_complete_frame_z_convention():
    f = complete_frame(Direction(np.array([0.0, 0.0, 1.0])))
    assert np.allclose(f.n_perp.components, [1, 0, 0])
    assert np.allclose(f.n_perp_prime.components, [0, 1, 0])


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
def test_complete_frame_invariants(theta, phi):
    n0 = Direction(np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta)]))
    frame = complete_frame(n0)  # Frame validates orthonormality/handedness
    assert np.allclose(
        np.cross(frame.n_perp.components, frame.n_perp_prime.components),
        n0.components, atol=1e-10)


def test_collective_moment_css_baseline():
    n = 6
    css = coherent_spin_state(n, 1.1, 0.4)
    full = embed_symmetric(css)
    spin_dir = unit(total_spin_expectation(full))
    frames = [complete_frame(spin_dir)] * n
    mean_j0, cov = collective_moment(full, frames)
    assert abs(mean_j0 - n / 2) < 1e-10
    assert abs(cov[0, 0] - n / 4) < 1e-10
    assert abs(cov[1, 1] - n / 4) < 1e-10
    assert abs(cov[0, 1]) < 1e-10


def test_collective_moment_bell_pair():
    frames = [complete_frame(Direction(np.array([0.0, 0.0, 1.0])))] * 2
    mean_j0, _ = collective_moment(bell_state(), frames)
    assert abs(mean_j0) < 1e-12


def test_collective_moment_product_state_variance():
    psi = product_state([np.array([math.sqrt(3) / 2, 0.5]),
                         np.array([math.sqrt(3) / 2, -0.5])])
    frames = [complete_frame(Direction(np.array([0.0, 0.0, 1.0])))] * 2
    _, cov = collective_moment(psi, frames)
    # frame has n_perp = x for n0 = z
    assert abs(cov[0, 0] - 1 / 8) < 1e-12


def test_uncertainty_relation_for_random_frames(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        state = haar_pure_state(n, rng)
        frames = [complete_frame(unit(rng.normal(size=3))) for _ in range(n)]
        mean_j0, cov = collective_moment(state, frames)
        product = math.sqrt(max(cov[0, 0], 0.0)) * math.sqrt(max(cov[1, 1], 0.0))
        assert product >= abs(mean_j0) / 2 - 1e-9
