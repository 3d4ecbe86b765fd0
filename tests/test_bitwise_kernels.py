"""The moment layer's index kernels against the numpy forms they replace, bit for bit.

Bloch expectations act on the state by index, pair correlations read each
pair's reduction straight from the state, and frames, unit vectors and
alignment rotations use scalar 3-vector algebra.  Each must give the same
IEEE result as the form in tests/oracles.py, so every comparison is of the
raw bytes (zero signs included), never within a tolerance.
"""

import math

import numpy as np
import pytest

from oracles import (
    block_pair_density,
    numpy_alignment_rotation_matrix,
    numpy_complete_frame,
    operator_bloch_expectations,
    traced_correlation_matrix,
)
from spinsqueeze import (
    DensityMatrix,
    Direction,
    Frame,
    PureState,
    ValidationError,
    bloch_expectations,
    bloch_vectors,
    complete_frame,
    embed_symmetric,
    one_axis_twisted_state,
    pair_correlations,
    product_state,
    random_separable_state,
    unit,
)
from spinsqueeze import operators, reductions
from spinsqueeze.operators import DEGENERATE_AXIS_TOL, alignment_rotation_matrix
from spinsqueeze.sampling import haar_pure_state


def _haar_states():
    rng = np.random.default_rng(1801)
    return [haar_pure_state(n, rng) for n in range(1, 11) for _ in range(4)]


def _twisted_states():
    return [embed_symmetric(one_axis_twisted_state(n, mu))
            for n in range(2, 9) for mu in (0.0, 0.05, 0.3, 1.1)]


def _densities():
    rng = np.random.default_rng(1802)
    states = []
    for n in range(2, 11):
        states.append(random_separable_state(n, 3, 1802 + n))
        psi = haar_pure_state(n, rng).amplitudes
        for p in (0.2, 0.9):  # noisy: p |psi><psi| + (1 - p) I / 2^n
            mat = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(2**n) / 2**n
            states.append(DensityMatrix(n, mat))
    return states


def _states_with_zero_amplitudes():
    states = []
    for n in range(1, 8):
        ground = np.zeros(2**n, dtype=complex)
        ground[0] = 1.0
        states.append(PureState(n, ground))
        states.append(DensityMatrix(n, np.outer(ground, ground)))
        states.append(product_state([np.array([math.cos(0.4 * q), math.sin(0.4 * q)])
                                     for q in range(n)]))  # real, with exact zeros at q = 0
    return states


STATE_FAMILIES = {
    "haar": _haar_states,
    "twisted-embedded": _twisted_states,
    "density": _densities,
    "zero-amplitudes": _states_with_zero_amplitudes,
}


@pytest.mark.parametrize("family", sorted(STATE_FAMILIES))
def test_bloch_expectations_equal_the_operator_route_bit_for_bit(family):
    for state in STATE_FAMILIES[family]():
        expected = np.stack([operator_bloch_expectations(state, q)
                             for q in range(1, state.num_qubits + 1)])
        for q in range(1, state.num_qubits + 1):
            assert bloch_expectations(state, q).tobytes() == expected[q - 1].tobytes(), (
                family, state.num_qubits, q)
        assert bloch_vectors(state).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", sorted(STATE_FAMILIES))
def test_pair_correlations_equal_the_partial_trace_route_bit_for_bit(family):
    for state in STATE_FAMILIES[family]():
        table = pair_correlations(state)
        for i in range(state.num_qubits):
            for j in range(i + 1, state.num_qubits):
                expected = traced_correlation_matrix(state, i + 1, j + 1)
                assert table[i, j].tobytes() == expected.tobytes(), (family, state.num_qubits, i, j)
                assert table[j, i].tobytes() == expected.T.tobytes()


def test_bloch_vectors_apply_no_pauli_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Pauli matrix was applied to the state")

    monkeypatch.setattr(operators, "_apply_on_axis", refuse)
    rng = np.random.default_rng(1803)
    bloch_vectors(haar_pure_state(5, rng))
    bloch_vectors(random_separable_state(4, 2, 1803))


def _directions():
    rng = np.random.default_rng(1804)
    near_z = [0.3 * DEGENERATE_AXIS_TOL, 0.0, 1.0]  # |z x n0| below the tolerance
    fixed = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], near_z,
             [-near_z[0], 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    vectors = [np.array(v) for v in fixed] + list(rng.normal(size=(300, 3)))
    return [unit(v) for v in vectors]


def test_directions_cover_the_fallback_branch():
    fallback = [d for d in _directions()
                if np.linalg.norm(np.cross(operators.Z_AXIS, d.components)) < DEGENERATE_AXIS_TOL]
    assert len(fallback) == 4  # +z, -z and both near-z directions


def test_complete_frame_equals_the_numpy_form_bit_for_bit():
    for n0 in _directions():
        frame, expected = complete_frame(n0), numpy_complete_frame(n0)
        for axis in ("n_perp", "n_perp_prime", "n0"):
            assert (getattr(frame, axis).components.tobytes()
                    == getattr(expected, axis).components.tobytes()), (n0.components, axis)


def test_unit_and_alignment_rotation_equal_the_numpy_forms_bit_for_bit():
    rng = np.random.default_rng(1805)
    vectors = [np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, -0.5]),
               np.array([1e-9, 0.0, -1.0])] + list(rng.normal(size=(300, 3)))
    for v in vectors:
        assert unit(v).components.tobytes() == (v / np.linalg.norm(v)).tobytes()
        assert (alignment_rotation_matrix(v).tobytes()
                == numpy_alignment_rotation_matrix(v).tobytes()), v


def test_frame_validation_still_raises():
    x, y, z = np.eye(3)
    tilted = unit(np.array([1.0, 1e-6, 0.0]))  # 1e-6 off x, not orthogonal to y
    with pytest.raises(ValidationError, match="orthogonal"):
        Frame(tilted, Direction(y), Direction(z))
    with pytest.raises(ValidationError, match="right-handed"):
        Frame(Direction(x), Direction(y), Direction(-z))
    with pytest.raises(ValidationError, match="unit vector"):
        Direction(np.array([1.0, 1e-3, 0.0]))
    with pytest.raises(ValidationError, match="zero vector"):
        unit(np.zeros(3))


def test_pair_density_equals_the_block_form_bit_for_bit():
    rng = np.random.default_rng(1806)
    states = [haar_pure_state(4, rng), random_separable_state(3, 2, 1806),
              embed_symmetric(one_axis_twisted_state(4, 0.2))]
    for state in states:
        svecs, table = bloch_vectors(state), pair_correlations(state)
        for i in range(state.num_qubits):
            for j in range(state.num_qubits):
                if i != j:
                    assert (reductions._pair_density(svecs, table, i, j).tobytes()
                            == block_pair_density(svecs, table, i, j).tobytes())
