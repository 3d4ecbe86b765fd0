import math

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    MixtureTerm,
    PureState,
    ValidationError,
    apply_local_unitaries,
    bloch_expectations,
    bloch_vectors,
    coherent_spin_state,
    correlation_matrix,
    dicke_state,
    embed_symmetric,
    is_exchange_symmetric,
    mix,
    one_axis_twisted_state,
    pair_correlation_sum,
    pair_correlations,
    product_state,
    reduce,
    symmetric_moments,
)
from spinsqueeze.sampling import (
    haar_pure_state,
    random_local_unitary,
    random_symmetric_pure,
)

from conftest import bell_state, ghz_state, schmidt_state
from oracles import su2_to_so3


def test_reduce_product_state_gives_pure_factor():
    f1 = np.array([0.6, 0.8j])
    f2 = np.array([1.0, 0.0])
    psi = product_state([f1, f2])
    rho = reduce(psi, [1]).matrix
    assert np.allclose(rho, np.outer(f1, f1.conj()), atol=1e-14)


def test_reduce_bell_gives_maximally_mixed():
    rho = reduce(bell_state(), [1]).matrix
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_reduce_ghz_pair():
    rho = reduce(ghz_state(3), [1, 2]).matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho, expected, atol=1e-14)


def test_reduce_of_density_matrix_matches_pure_path(rng):
    from spinsqueeze import DensityMatrix

    state = haar_pure_state(4, rng)
    rho = DensityMatrix(4, np.outer(state.amplitudes, state.amplitudes.conj()))
    for subset in ([2], [1, 3], [4, 2]):
        a = reduce(state, subset).matrix
        b = reduce(rho, subset).matrix
        assert np.allclose(a, b, atol=1e-12)


def test_reduce_validates_indices():
    with pytest.raises(ValidationError):
        reduce(bell_state(), [])
    with pytest.raises(ValidationError):
        reduce(bell_state(), [1, 1])
    with pytest.raises(ValidationError):
        reduce(bell_state(), [3])


def test_correlation_matrix_schmidt_state():
    theta = 0.4
    t = correlation_matrix(schmidt_state(theta), 1, 2)
    c = math.sin(2 * theta)
    assert np.allclose(t, np.diag([c, -c, 1.0]), atol=1e-12)


def test_correlation_matrix_product_is_outer_product():
    f1 = np.array([math.sqrt(3) / 2, 0.5])
    f2 = np.array([0.6, 0.8j])
    psi = product_state([f1, f2])
    s1 = bloch_expectations(psi, 1)
    s2 = bloch_expectations(psi, 2)
    t = correlation_matrix(psi, 1, 2)
    assert np.allclose(t, np.outer(s1, s2), atol=1e-12)


def test_correlation_matrix_rejects_equal_indices():
    with pytest.raises(ValidationError):
        correlation_matrix(bell_state(), 1, 1)


def test_symmetric_two_qubit_trace_is_one(rng):
    for _ in range(20):
        s = random_symmetric_pure(2, rng)
        t = correlation_matrix(embed_symmetric(s), 1, 2)
        assert abs(np.trace(t) - 1.0) < 1e-10


def test_correlation_transformation_law(rng):
    state = haar_pure_state(3, rng)
    lu = random_local_unitary(3, rng)
    moved = apply_local_unitaries(state, lu)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        oi = su2_to_so3(lu.per_qubit[i - 1])
        oj = su2_to_so3(lu.per_qubit[j - 1])
        before = correlation_matrix(state, i, j)
        after = correlation_matrix(moved, i, j)
        assert np.allclose(after, oi @ before @ oj.T, atol=1e-10)


def test_corotated_pair_scalar_is_invariant(rng):
    # n_i^T T^(ij) n_j with co-rotated frame vectors is a local invariant
    state = haar_pure_state(3, rng)
    for _ in range(5):
        lu = random_local_unitary(3, rng)
        moved = apply_local_unitaries(state, lu)
        vecs = [rng.normal(size=3) for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        for i, j in ((1, 2), (2, 3)):
            oi = su2_to_so3(lu.per_qubit[i - 1])
            oj = su2_to_so3(lu.per_qubit[j - 1])
            before = vecs[i - 1] @ correlation_matrix(state, i, j) @ vecs[j - 1]
            after = (oi @ vecs[i - 1]) @ correlation_matrix(moved, i, j) @ (
                oj @ vecs[j - 1])
            assert abs(before - after) < 1e-10


def test_aggregate_s_single_pair_schmidt():
    theta = 0.3
    s = pair_correlation_sum(schmidt_state(theta)) / 2
    c = math.sin(2 * theta)
    assert np.allclose(s, np.diag([c, -c, 1.0]), atol=1e-12)


def test_aggregate_s_symmetric_state_is_pair_multiple(rng):
    n = 5
    state = embed_symmetric(random_symmetric_pure(n, rng))
    t = correlation_matrix(state, 1, 2)
    s = pair_correlation_sum(state) / 2
    assert np.allclose(s, n * (n - 1) / 2 * (t + t.T) / 2, atol=1e-10)


def test_aggregate_s_product_of_identical_spinors():
    n = 4
    spinor = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.3j)])
    psi = product_state([spinor] * n)
    s_vec = bloch_expectations(psi, 1)
    s = pair_correlation_sum(psi) / 2
    assert np.allclose(s, n * (n - 1) / 2 * np.outer(s_vec, s_vec), atol=1e-10)


def test_all_pair_matrices_coincide_for_symmetric_states(rng):
    state = embed_symmetric(random_symmetric_pure(4, rng))
    first = correlation_matrix(state, 1, 2)
    for i, j in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        assert np.allclose(correlation_matrix(state, i, j), first, atol=1e-10)


def test_collective_to_pair_matches_full_vector_path(rng):
    # a SymmetricState's Bloch vectors and pair table, read off its Dicke
    # moments, equal those of its full-vector embedding; the last state of
    # each even N has a zero Bloch vector
    for n in range(1, 9):
        states = [random_symmetric_pure(n, rng), coherent_spin_state(n, 1.0, 0.3),
                  dicke_state(n, 1), dicke_state(n, n // 2)]
        if n >= 2:
            states.insert(0, one_axis_twisted_state(n, 0.2))
        for s in states:
            full = embed_symmetric(s)
            assert np.max(np.abs(bloch_vectors(s) - bloch_vectors(full))) <= 1e-12
            assert np.max(np.abs(pair_correlations(s) - pair_correlations(full))) <= 1e-12
            if n >= 2:
                slow = correlation_matrix(full, 1, 2)
                assert np.allclose(symmetric_moments(s)[1], slow, atol=1e-10)


def test_collective_to_pair_css_and_w_state(rng):
    css = coherent_spin_state(5, 1.0, 0.3)
    fast = symmetric_moments(css)[1]
    slow = correlation_matrix(embed_symmetric(css), 1, 2)
    assert np.allclose(fast, slow, atol=1e-10)
    w = dicke_state(3, 1)
    assert np.allclose(symmetric_moments(w)[1],
                       correlation_matrix(embed_symmetric(w), 1, 2), atol=1e-10)


def test_twisted_state_pair_correlations_have_unit_trace():
    t = symmetric_moments(one_axis_twisted_state(10, 0.2))[1]
    assert abs(np.trace(t) - 1.0) < 1e-10
    assert np.allclose(t, t.T, atol=1e-12)


def test_exchange_symmetry_detection(rng):
    assert is_exchange_symmetric(embed_symmetric(random_symmetric_pure(3, rng)))
    assert is_exchange_symmetric(ghz_state(3))
    asym = product_state([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert not is_exchange_symmetric(asym)
    haar = haar_pure_state(3, rng)
    assert not is_exchange_symmetric(haar)
    with pytest.raises(ValidationError, match="not exchange-symmetric"):
        symmetric_moments(haar)
    # a single qubit has no pair, whatever its kind
    mixed = np.diag([0.7, 0.3])
    for one in (PureState(1, np.array([0.6, 0.8])), DensityMatrix(1, mixed),
                dicke_state(1, 1), mix([MixtureTerm(1.0, (mixed,))])):
        assert is_exchange_symmetric(one) is False
        with pytest.raises(ValidationError, match="at least 2 qubits"):
            symmetric_moments(one)
