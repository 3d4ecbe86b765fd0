"""The local-frame closed form reads the pair table.

xi_tilde_general rotates the moments, S = (1/2) sum_{i != j} R_i T^(ij) R_j^T;
the oracle rotates the state itself (an SU(2) alignment per qubit) and sums
the pair correlation matrices of the rotated copy.
"""

import math

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    analyze_state,
    bloch_vectors,
    embed_symmetric,
    one_axis_twisted_state,
    product_state,
    random_separable_state,
    xi_tilde_general,
)
from spinsqueeze.operators import PAULIS
from spinsqueeze.sampling import (
    haar_pure_state,
    pure_state_with_nonzero_bloch,
    random_symmetric_mixture,
)
from spinsqueeze.squeezing import _min_quadratic_2x2

from oracles import rotated_pair_sum

EPS = np.finfo(float).eps


def _oracle(state):
    """(xi1_tilde, xi2_tilde, min_variance) from the rotated copy of the state."""
    n = state.num_qubits
    s_mat = rotated_pair_sum(state)
    value = np.linalg.eigvalsh(s_mat[:2, :2])[0]
    min_var = 0.25 * (n + 2 * value)
    mean_j0 = 0.5 * np.linalg.norm(bloch_vectors(state), axis=1).sum()
    return math.sqrt(1 + 2 * value / n), math.sqrt(n * min_var) / mean_j0, min_var


def _haar_states():
    rng = np.random.default_rng(61)
    return [pure_state_with_nonzero_bloch(n, rng) for n in (2, 3, 4, 5, 6)]


def _mixed_states():
    rng = np.random.default_rng(62)
    return [
        random_separable_state(3, 2, seed=11),
        random_separable_state(4, 3, seed=12),
        random_separable_state(5, 4, seed=13),
        embed_symmetric(one_axis_twisted_state(7, 0.3)),
        random_symmetric_mixture(4, 3, rng),
        DensityMatrix(3, _two_state_mixture(rng)),
    ]


def _two_state_mixture(rng):
    a = haar_pure_state(3, rng).amplitudes
    b = haar_pure_state(3, rng).amplitudes
    return 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj())


@pytest.mark.parametrize("state", _haar_states() + _mixed_states(), ids=[
    "haar2", "haar3", "haar4", "haar5", "haar6", "separable3", "separable4",
    "separable5", "twisted7-embedded", "symmix4", "density3"])
def test_table_form_matches_rotated_state(state):
    result = xi_tilde_general(state)
    xi1, xi2, min_var = _oracle(state)
    assert abs(result.xi1_tilde - xi1) < 1e-12
    assert abs(result.xi2_tilde - xi2) < 1e-12
    assert abs(result.min_variance - min_var) < 1e-12


@pytest.mark.parametrize("n", range(2, 17))
def test_product_states_report_angle_zero(n):
    rng = np.random.default_rng(100 + n)
    factors = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(v / np.linalg.norm(v))
    result = xi_tilde_general(product_state(factors))
    assert result.optimal_angle == 0.0


def test_one_qubit_is_unsqueezed():
    rho = 0.5 * (np.eye(2) + np.einsum("a,aij->ij", [0.3, -0.2, 0.5], PAULIS))
    state = DensityMatrix(1, rho)
    norm = float(np.linalg.norm(bloch_vectors(state)[0]))
    result = xi_tilde_general(state)
    assert (result.xi1_tilde, result.xi2_tilde, result.min_variance) == (1.0, 1.0 / norm, 0.25)
    assert result.optimal_angle == 0.0


def _block(half_sum, radius, angle):
    """(b11, b22, b12) of a block whose smaller eigenvector lies at `angle`."""
    return (half_sum - radius * math.cos(2 * angle),
            half_sum + radius * math.cos(2 * angle),
            -radius * math.sin(2 * angle))


def test_min_quadratic_degeneracy_radius_is_the_callers():
    b11, b22, b12 = _block(1.0, 1e-6, 0.7)
    value, angle = _min_quadratic_2x2(b11, b22, b12, 2e-6)
    assert angle == 0.0
    assert value == pytest.approx(1.0 - 1e-6, abs=1e-15)
    value, angle = _min_quadratic_2x2(b11, b22, b12, 16 * EPS * 2)
    assert angle == pytest.approx(0.7, abs=1e-8)
    assert value == pytest.approx(1.0 - 1e-6, abs=1e-15)


def test_oracle_difference_within_the_rounding_bound_is_zero():
    # the closed form is exact on two-qubit pure states: the two minima differ by rounding only
    state = haar_pure_state(2, np.random.default_rng(101))
    oracle = analyze_state(state)["oracle_cross_check"]
    closed = oracle["common_direction_min_variance"]
    independent = oracle["independent_angle_min_variance"]
    assert closed != independent
    assert abs(closed - independent) <= 16 * EPS * 2
    assert oracle["difference"] == 0.0


def test_oracle_difference_above_the_rounding_bound_is_kept():
    oracle = analyze_state(one_axis_twisted_state(3, 1.0))["oracle_cross_check"]
    closed = oracle["common_direction_min_variance"]
    independent = oracle["independent_angle_min_variance"]
    assert closed - independent > 1e-6
    assert oracle["difference"] == closed - independent
