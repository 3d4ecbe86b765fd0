import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import (
    CapacityError,
    DensityMatrix,
    MixtureTerm,
    PureState,
    SymmetricState,
    ValidationError,
    brute_force_min_variance,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    mix,
    one_axis_twisted_state,
    pair_correlations,
    product_state,
    random_separable_state,
    xi_tilde_general,
)


def test_pure_state_validates_norm_and_length():
    with pytest.raises(ValidationError):
        PureState(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(CapacityError):
        PureState(21, np.zeros(2**21))


def test_css_all_down_is_all_ones_state():
    # theta = 0 leaves only the k = 0 Dicke component, i.e. |11>
    s = coherent_spin_state(2, 0.0, 0.0)
    assert np.allclose(s.dicke_amplitudes, [1, 0, 0], atol=1e-14)
    full = embed_symmetric(s)
    assert np.allclose(full.amplitudes, [0, 0, 0, 1], atol=1e-14)


def test_css_single_qubit_equator():
    s = coherent_spin_state(1, math.pi / 2, 0.0)
    assert np.allclose(s.dicke_amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_css_two_qubit_equator():
    s = coherent_spin_state(2, math.pi / 2, 0.0)
    assert np.allclose(s.dicke_amplitudes, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
def test_css_is_normalized(n, theta, phi):
    s = coherent_spin_state(n, theta, phi)
    assert abs(np.linalg.norm(s.dicke_amplitudes) - 1.0) < 1e-12


def test_css_large_n_stays_finite():
    s = coherent_spin_state(2000, 1.3, 0.7)
    assert np.all(np.isfinite(s.dicke_amplitudes))


def test_css_is_tensor_power_of_one_spinor():
    # the N-qubit coherent state factorizes into identical spinors
    for n in (2, 3, 5, 8):
        theta, phi = 0.9, 1.7
        spinor = np.array([math.sin(theta / 2) * np.exp(1j * phi), math.cos(theta / 2)])
        expected = product_state([spinor] * n)
        embedded = embed_symmetric(coherent_spin_state(n, theta, phi))
        assert abs(abs(np.vdot(embedded.amplitudes, expected.amplitudes)) - 1) < 1e-10


def test_product_state_hand_tensor():
    f1 = np.array([math.sqrt(3) / 2, 0.5])
    f2 = np.array([math.sqrt(3) / 2, -0.5])
    psi = product_state([f1, f2])
    expected = [3 / 4, -math.sqrt(3) / 4, math.sqrt(3) / 4, -1 / 4]
    assert np.allclose(psi.amplitudes, expected, atol=1e-14)


def test_product_state_identity_case():
    psi = product_state([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])


def test_product_state_rejects_unnormalized_factor():
    with pytest.raises(ValidationError):
        product_state([np.array([1.0, 1.0])])


def test_one_axis_twist_zero_is_css():
    for n in (2, 5, 10):
        tw = one_axis_twisted_state(n, 0.0)
        css = coherent_spin_state(n, math.pi / 2, 0.0)
        assert np.allclose(tw.dicke_amplitudes, css.dicke_amplitudes, atol=1e-15)


def test_one_axis_twist_is_normalized_and_phase_only():
    tw = one_axis_twisted_state(2, math.pi / 2)
    css = coherent_spin_state(2, math.pi / 2, 0.0)
    assert abs(np.linalg.norm(tw.dicke_amplitudes) - 1.0) < 1e-12
    assert np.allclose(np.abs(tw.dicke_amplitudes), np.abs(css.dicke_amplitudes), atol=1e-12)


def test_embed_single_excitation_dicke():
    w = embed_symmetric(dicke_state(2, 1))
    assert np.allclose(w.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-14)


def test_embed_is_permutation_invariant(rng):
    n = 4
    v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    s = SymmetricState(n, v / np.linalg.norm(v))
    amps = embed_symmetric(s).amplitudes.reshape([2] * n)
    for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0)):
        assert np.allclose(amps.transpose(perm), amps, atol=1e-12)


def test_embed_capacity_guard():
    # the embedding and every pair-resolved quantity of a SymmetricState
    # share the full-vector limit, also where the Bloch vector vanishes
    for n, k in ((21, 0), (22, 11)):
        message = f"^full state vectors are limited to 20 qubits, got {n}$"
        for consumer in (embed_symmetric, pair_correlations, xi_tilde_general,
                         brute_force_min_variance):
            with pytest.raises(CapacityError, match=message):
                consumer(dicke_state(n, k))


UP = np.array([1.0, 0.0])


def _allocation(*args, **kwargs):
    raise AssertionError("allocated before the capacity guard")


@pytest.mark.parametrize("build, message", [
    (lambda: product_state([UP] * 28), "full state vectors are limited to 20 qubits, got 28"),
    (lambda: coherent_spin_state(10**9, 1.0, 0.0),
     "symmetric states are limited to 2000 qubits, got 1000000000"),
    (lambda: one_axis_twisted_state(10**9, 1e-30),
     "symmetric states are limited to 2000 qubits, got 1000000000"),
    (lambda: dicke_state(10**9, 0), "symmetric states are limited to 2000 qubits, got 1000000000"),
], ids=["product", "coherent", "twisted", "dicke"])
def test_capacity_guard_comes_before_any_allocation(build, message, monkeypatch):
    for name in ("kron", "arange", "zeros"):
        monkeypatch.setattr(np, name, _allocation)
    with pytest.raises(CapacityError, match=f"^{message}$"):
        build()


def test_mix_single_pure_term_is_projector():
    v = np.array([0.6, 0.8j])
    term = MixtureTerm(1.0, (np.outer(v, v.conj()), np.eye(2) / 2))
    rho = mix([term])
    assert rho.num_qubits == 2
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals.min() > -1e-12
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_mix_two_diagonal_terms():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    rho = mix([MixtureTerm(0.5, (up, up)), MixtureTerm(0.5, (down, down))])
    assert np.allclose(np.diag(rho.matrix), [0.5, 0, 0, 0.5], atol=1e-14)


def test_mix_rejects_bad_weight_sum():
    up = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        mix([MixtureTerm(0.4, (up, up)), MixtureTerm(0.4, (up, up))])


def test_random_separable_is_deterministic():
    a = random_separable_state(4, 8, seed=7)
    b = random_separable_state(4, 8, seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_separable_state(4, 8, seed=8)
    assert not np.allclose(a.matrix, c.matrix)


def test_random_separable_is_valid_density_matrix():
    rho = random_separable_state(3, 5, seed=11)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10


def test_validators_reject_nan_entries():
    bad = math.nan
    with pytest.raises(ValidationError, match="norm"):
        PureState(1, np.array([bad, 0.0]))
    with pytest.raises(ValidationError, match="norm"):
        SymmetricState(1, np.array([1.0, bad]))
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix(1, np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="Hermitian"):
        MixtureTerm(1.0, (np.array([[bad, 0.0], [0.0, 0.0]]),))

