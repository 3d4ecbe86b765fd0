import math

import numpy as np
import pytest

from spinsqueeze import (
    PureState,
    ValidationError,
    Verdict,
    coherent_spin_state,
    concurrence_pure,
    dicke_state,
    embed_symmetric,
    invariant_I,
    one_axis_twisted_state,
    product_state,
    random_separable_state,
    schmidt,
    verify_identity_imp1,
    witness,
    xi_tilde_general,
)
from spinsqueeze.sampling import (
    haar_pure_state,
    random_symmetric_mixture,
    symmetric_state_with_nonzero_bloch,
)

from conftest import bell_state, schmidt_state


def test_schmidt_bell_state():
    # the discriminant formula has a square-root singularity at the
    # degenerate point, so only sqrt(eps) accuracy is available there
    pair = schmidt(bell_state())
    assert pair.lambda1 == pytest.approx(1 / math.sqrt(2), abs=1e-7)
    assert pair.lambda2 == pytest.approx(1 / math.sqrt(2), abs=1e-7)


def test_schmidt_product_state():
    pair = schmidt(PureState(2, np.array([1.0, 0, 0, 0])))
    assert (pair.lambda1, pair.lambda2) == (1.0, 0.0)


def test_schmidt_matches_singular_values(rng):
    # SVD of the 2x2 amplitude matrix is the independent oracle
    for _ in range(50):
        state = haar_pure_state(2, rng)
        pair = schmidt(state)
        svals = np.linalg.svd(state.amplitudes.reshape(2, 2), compute_uv=False)
        assert pair.lambda1 == pytest.approx(svals[0], abs=1e-8)
        assert pair.lambda2 == pytest.approx(svals[1], abs=1e-8)


def test_schmidt_hand_value():
    pair = schmidt(PureState(2, np.array([0.6, 0, 0, 0.8])))
    assert pair.lambda1**2 == pytest.approx(0.64, abs=1e-12)
    assert pair.lambda2**2 == pytest.approx(0.36, abs=1e-12)
    pair = schmidt(PureState(2, np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)])))
    assert pair.lambda1**2 == pytest.approx(0.8, abs=1e-12)
    assert pair.lambda2**2 == pytest.approx(0.2, abs=1e-12)


def test_schmidt_rejects_wrong_size():
    with pytest.raises(ValidationError):
        schmidt(PureState(1, np.array([1.0, 0.0])))


def test_concurrence_values():
    assert concurrence_pure(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(PureState(2, np.array([1.0, 0, 0, 0]))) == 0.0
    assert concurrence_pure(PureState(2, np.array([0.6, 0, 0, 0.8]))) == pytest.approx(
        0.96, abs=1e-12)


def test_concurrence_of_product_states_vanishes(rng):
    for _ in range(20):
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = product_state([v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)])
        assert concurrence_pure(psi) < 1e-12


def test_xi_from_concurrence_matches_schmidt_state():
    from spinsqueeze import xi_tilde_symmetric

    c = math.sin(math.pi / 4)
    r = xi_tilde_symmetric(schmidt_state(math.pi / 8))
    assert math.sqrt(1 - c) == pytest.approx(r.xi1_tilde, abs=1e-12)
    assert 1 / math.sqrt(1 + c) == pytest.approx(r.xi2_tilde, abs=1e-12)


def test_concurrence_identities_on_haar_sample(rng):
    for _ in range(200):
        state = haar_pure_state(2, rng)
        r = xi_tilde_general(state)
        if r.xi1_tilde is None:
            continue
        c = concurrence_pure(state)
        assert abs(r.xi1_tilde - math.sqrt(1 - c)) < 1e-9
        assert abs(r.xi2_tilde - 1 / math.sqrt(1 + c)) < 1e-9


def test_invariant_hand_case():
    assert invariant_I(schmidt_state(math.pi / 8)) == pytest.approx(-0.5, abs=1e-12)


def test_invariant_of_basis_product_state():
    assert invariant_I(PureState(2, np.array([1.0, 0, 0, 0]))) == pytest.approx(
        0.0, abs=1e-14)


def test_invariant_dual_paths_agree_on_twisted_state():
    # raises internally if the direct contraction and the aligned form differ
    value = invariant_I(one_axis_twisted_state(10, 0.2))
    assert np.isfinite(value)


def test_invariant_rejects_nonsymmetric():
    psi = product_state([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    with pytest.raises(ValidationError):
        invariant_I(psi)


def test_invariant_is_invariant_under_identical_rotations(rng):
    from spinsqueeze import LocalUnitary, apply_local_unitaries
    from spinsqueeze.sampling import haar_unitary_2

    state = embed_symmetric(symmetric_state_with_nonzero_bloch(3, rng))
    base = invariant_I(state)
    for _ in range(5):
        u = haar_unitary_2(rng)
        moved = apply_local_unitaries(state, LocalUnitary((u, u, u)))
        assert invariant_I(moved) == pytest.approx(base, abs=1e-10)


def test_identity_imp1_hand_case():
    lhs, rhs, residual = verify_identity_imp1(schmidt_state(math.pi / 8))
    assert lhs == pytest.approx(-0.5, abs=1e-12)
    assert rhs == pytest.approx(-0.5, abs=1e-12)
    assert residual < 1e-12


def test_identity_imp1_css_both_sides_vanish():
    lhs, rhs, residual = verify_identity_imp1(coherent_spin_state(4, 0.9, 0.2))
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12
    assert residual < 1e-12


def test_identity_imp1_random_symmetric_mixed(rng):
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 7))
        rho = random_symmetric_mixture(n, int(rng.integers(1, 4)), rng)
        from spinsqueeze import bloch_expectations

        if np.linalg.norm(bloch_expectations(rho, 1)) < 1e-6:
            continue
        _, _, residual = verify_identity_imp1(rho)
        assert residual < 1e-9
        checked += 1


def test_sign_equivalence_on_symmetric_sample(rng):
    from spinsqueeze import xi_tilde_symmetric

    for _ in range(60):
        n = int(rng.integers(2, 7))
        s = symmetric_state_with_nonzero_bloch(n, rng)
        xi1t = xi_tilde_symmetric(s).xi1_tilde
        if abs(xi1t - 1.0) <= 1e-6:
            continue
        assert (invariant_I(s) < 0) == (xi1t < 1.0)


def test_perp_plus_eigenvalue_nonnegative_for_symmetric_states(rng):
    from spinsqueeze.entanglement import _aligned_perp_eigenvalues, _bloch_and_pair

    for _ in range(40):
        n = int(rng.integers(2, 7))
        s = symmetric_state_with_nonzero_bloch(n, rng)
        bloch, t = _bloch_and_pair(s)
        _, t_plus, _ = _aligned_perp_eigenvalues(bloch, t)
        assert t_plus >= -1e-10


def test_witness_schmidt_state_fires_both():
    rep = witness(schmidt_state(math.pi / 8))
    assert rep.verdict is Verdict.PAIRWISE_ENTANGLED
    assert rep.xi2_tilde == pytest.approx(0.7653668647301795, abs=1e-9)
    assert rep.invariant_I == pytest.approx(-0.5, abs=1e-12)


def test_witness_nonsymmetric_entangled_state():
    theta = math.pi / 8
    flipped = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    rep = witness(flipped)
    assert rep.verdict is Verdict.ENTANGLED
    assert rep.invariant_I is None


def test_witness_css_inconclusive():
    rep = witness(coherent_spin_state(3, 1.0, 0.0))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.xi2_tilde == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.invariant_I) < 1e-12


def test_witness_never_fires_on_separable_states(rng):
    for idx in range(40):
        n = 2 + idx % 3
        rho = random_separable_state(n, 1 + idx % 5, seed=1000 + idx)
        rep = witness(rho)
        assert rep.verdict is not Verdict.ENTANGLED
        assert rep.verdict is not Verdict.PAIRWISE_ENTANGLED


def test_witness_bell_state_inconclusive_with_reason():
    rep = witness(bell_state())
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.xi2_tilde is None
    assert "QubitBlochZero" in rep.details


def test_witness_w_state_not_flagged_by_invariant():
    # pairwise entangled, but the invariant is positive and xi2_tilde > 1:
    # the one-sided checks stay silent
    rep = witness(dicke_state(3, 1))
    assert rep.invariant_I == pytest.approx(8 / 81, abs=1e-12)
    assert rep.verdict is Verdict.INCONCLUSIVE
