import math

import numpy as np
import pytest

from spinsqueeze import (
    PureState,
    UndefinedReason,
    ValidationError,
    apply_local_unitaries,
    brute_force_min_variance,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    one_axis_twisted_state,
    product_state,
    quadratic_form_min,
    unit,
    xi_standard,
    xi_tilde_general,
    xi_tilde_symmetric,
)
from spinsqueeze.operators import SIGMA_X, LocalUnitary, complete_frame
from spinsqueeze.sampling import (
    haar_pure_state,
    pure_state_with_nonzero_bloch,
    symmetric_state_with_nonzero_bloch,
)

from conftest import bell_state, schmidt_state

Z = unit([0.0, 0.0, 1.0])


def grid_min(matrix, n0, points=10_000):
    frame = complete_frame(n0)
    e1 = frame.n_perp.components
    e2 = frame.n_perp_prime.components
    angles = np.linspace(0, math.pi, points, endpoint=False)
    dirs = np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)
    return float(np.min(np.einsum("ka,ab,kb->k", dirs, matrix, dirs)))


def test_quadratic_form_min_diagonal():
    value, direction = quadratic_form_min(np.diag([0.3, -0.2, 5.0]), Z)
    assert value == pytest.approx(-0.2, abs=1e-14)
    assert np.allclose(np.abs(direction.components), [0, 1, 0], atol=1e-12)


def test_quadratic_form_min_equal_diagonal_off_diagonal():
    t, u = 0.4, -0.7
    m = np.array([[t, u, 0.0], [u, t, 0.0], [0.0, 0.0, 2.0]])
    value, _ = quadratic_form_min(m, Z)
    assert value == pytest.approx(t - abs(u), abs=1e-14)


def test_quadratic_form_min_degenerate_angle_convention():
    value, direction = quadratic_form_min(np.diag([0.5, 0.5, 1.0]), Z)
    assert value == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(direction.components, [1, 0, 0], atol=1e-12)


def test_quadratic_form_min_matches_grid_search(rng):
    for _ in range(40):
        m = rng.uniform(-1, 1, size=(3, 3))
        m = (m + m.T) / 2
        n0 = unit(rng.normal(size=3))
        value, direction = quadratic_form_min(m, n0)
        assert abs(value - grid_min(m, n0)) < 1e-6
        # returned direction attains the minimum and is perpendicular to n0
        d = direction.components
        assert abs(d @ n0.components) < 1e-10
        assert d @ m @ d == pytest.approx(value, abs=1e-10)


def test_quadratic_form_min_rejects_asymmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValidationError):
        quadratic_form_min(m, Z)


def test_xi_standard_schmidt_closed_forms():
    for theta in (math.pi / 12, math.pi / 8, math.pi / 6):
        r = xi_standard(schmidt_state(theta))
        s = math.sin(2 * theta)
        assert r.xi1 == pytest.approx(math.sqrt(1 - s), abs=1e-12)
        assert r.xi2 == pytest.approx(1 / math.sqrt(1 + s), abs=1e-12)
        assert r.mean_J0 == pytest.approx(math.cos(2 * theta), abs=1e-12)
        assert r.xi2 == pytest.approx(2 * r.xi1 / (2 * r.mean_J0), abs=1e-10)


def test_xi_standard_section3_product_state():
    psi = product_state([np.array([math.sqrt(3) / 2, 0.5]),
                         np.array([math.sqrt(3) / 2, -0.5])])
    r = xi_standard(psi)
    assert r.xi1 == pytest.approx(0.5, abs=1e-12)
    assert r.mean_J0 == pytest.approx(0.5, abs=1e-12)
    assert r.min_variance == pytest.approx(1 / 8, abs=1e-12)


def test_xi_standard_css_is_unsqueezed(rng):
    for n in (2, 4, 8):
        for _ in range(3):
            theta = rng.uniform(0.1, math.pi - 0.1)
            phi = rng.uniform(0, 2 * math.pi)
            r = xi_standard(coherent_spin_state(n, theta, phi))
            assert r.xi1 == pytest.approx(1.0, abs=1e-10)
            assert r.xi2 == pytest.approx(1.0, abs=1e-10)


def test_xi_standard_undefined_for_zero_mean_spin():
    theta = 0.6
    psi = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    r = xi_standard(psi)
    assert r.xi1 is None and r.xi2 is None
    assert r.undefined_reason is UndefinedReason.MEAN_SPIN_ZERO


def test_xi_standard_symmetric_matches_embedded(rng):
    for n in (2, 4, 7):
        s = symmetric_state_with_nonzero_bloch(n, rng)
        fast = xi_standard(s)
        slow = xi_standard(embed_symmetric(s))
        if fast.xi1 is None:
            assert slow.xi1 is None
            continue
        assert fast.xi1 == pytest.approx(slow.xi1, abs=1e-10)
        assert fast.xi2 == pytest.approx(slow.xi2, abs=1e-10)


def test_xi_tilde_symmetric_schmidt_value():
    theta = math.pi / 8
    r = xi_tilde_symmetric(schmidt_state(theta))
    assert r.xi1_tilde == pytest.approx(math.sqrt(1 - math.sin(math.pi / 4)), abs=1e-12)
    assert r.xi2_tilde == pytest.approx(r.xi1_tilde / math.cos(math.pi / 4), abs=1e-12)


def test_xi_tilde_symmetric_css_is_one():
    r = xi_tilde_symmetric(coherent_spin_state(5, 1.2, 0.7))
    assert r.xi1_tilde == pytest.approx(1.0, abs=1e-10)
    assert r.xi2_tilde == pytest.approx(1.0, abs=1e-10)


def test_xi_tilde_symmetric_rejects_nonsymmetric():
    psi = product_state([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    with pytest.raises(ValidationError):
        xi_tilde_symmetric(psi)


def test_xi_tilde_symmetric_undefined_for_bell():
    r = xi_tilde_symmetric(bell_state())
    assert r.xi1_tilde is None and r.xi2_tilde is None
    assert r.undefined_reason is UndefinedReason.QUBIT_BLOCH_ZERO


def test_xi_tilde_general_on_zero_mean_spin_partner():
    # the flipped Schmidt state has zero collective spin but well-defined
    # local frames; its parameters must match the aligned partner state
    theta = math.pi / 8
    flipped = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    r = xi_tilde_general(flipped)
    assert r.xi1_tilde == pytest.approx(math.sqrt(1 - math.sin(2 * theta)), abs=1e-10)
    partner = xi_tilde_symmetric(schmidt_state(theta))
    assert r.xi1_tilde == pytest.approx(partner.xi1_tilde, abs=1e-10)
    assert r.xi2_tilde == pytest.approx(partner.xi2_tilde, abs=1e-10)


def test_xi_tilde_general_matches_symmetric_path(rng):
    for n in (2, 3, 5, 8):
        s = symmetric_state_with_nonzero_bloch(n, rng)
        a = xi_tilde_symmetric(s)
        for b in (xi_tilde_general(embed_symmetric(s)), xi_tilde_general(s)):
            assert b.xi1_tilde == pytest.approx(a.xi1_tilde, abs=1e-9)
            assert b.xi2_tilde == pytest.approx(a.xi2_tilde, abs=1e-9)


def test_xi_tilde_general_undefined_for_bell():
    r = xi_tilde_general(bell_state())
    assert r.xi1_tilde is None
    assert r.undefined_reason is UndefinedReason.QUBIT_BLOCH_ZERO


def test_xi_tilde_two_qubit_pure_is_locally_invariant(rng):
    for _ in range(20):
        state = pure_state_with_nonzero_bloch(2, rng)
        base = xi_tilde_general(state)
        from spinsqueeze.sampling import random_local_unitary

        moved = apply_local_unitaries(state, random_local_unitary(2, rng))
        new = xi_tilde_general(moved)
        assert new.xi1_tilde == pytest.approx(base.xi1_tilde, abs=1e-10)
        assert new.xi2_tilde == pytest.approx(base.xi2_tilde, abs=1e-10)


def test_xi1_is_not_locally_invariant():
    theta = math.pi / 8
    psi = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    assert xi_standard(psi).xi1 is None
    flipped = apply_local_unitaries(psi, LocalUnitary.single(2, 2, SIGMA_X))
    assert xi_standard(flipped).xi1 == pytest.approx(
        math.sqrt(1 - math.sin(2 * theta)), abs=1e-12)


def test_xi2_dominates_xi1(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        r = xi_standard(haar_pure_state(n, rng))
        if r.xi1 is None:
            continue
        assert r.xi2 >= r.xi1 - 1e-12


def test_one_axis_twisting_produces_squeezing():
    r = xi_standard(one_axis_twisted_state(10, 0.2))
    assert r.xi1 is not None and r.xi1 < 1.0


def test_xi2_relation_to_xi1(rng):
    # xi2 = N xi1 / (2 |<J0>|), and the same relation for the tilde pair
    for _ in range(20):
        n = int(rng.integers(2, 5))
        state = pure_state_with_nonzero_bloch(n, rng)
        r = xi_standard(state)
        if r.xi1 is not None:
            assert r.xi2 == pytest.approx(n * r.xi1 / (2 * r.mean_J0), abs=1e-10)
        rt = xi_tilde_general(state)
        assert rt.xi2_tilde == pytest.approx(
            n * rt.xi1_tilde / (2 * rt.mean_J0), abs=1e-10)


def test_single_term_separable_state_is_unsqueezed():
    from spinsqueeze import random_separable_state

    for seed in (0, 1, 2):
        r = xi_tilde_general(random_separable_state(2, 1, seed))
        assert r.xi2_tilde == pytest.approx(1.0, abs=1e-10)


def test_brute_force_schmidt_and_css_baselines():
    theta = math.pi / 8
    state = schmidt_state(theta)
    value = brute_force_min_variance(state)
    assert value == pytest.approx((1 - math.sin(2 * theta)) / 2, abs=1e-9)

    css = embed_symmetric(coherent_spin_state(4, 1.1, 0.2))
    assert brute_force_min_variance(css) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_agrees_with_closed_form_for_two_qubit_pure(rng):
    for _ in range(10):
        state = pure_state_with_nonzero_bloch(2, rng)
        value = brute_force_min_variance(state)
        closed = xi_tilde_general(state).min_variance
        assert value == pytest.approx(closed, abs=1e-7)


def test_brute_force_never_exceeds_closed_form(rng):
    # the independent-angle search relaxes the common-direction restriction;
    # a SymmetricState is searched on its Dicke moments, as its embedding is
    for n in (2, 3, 4):
        for k in range(5):
            s = symmetric_state_with_nonzero_bloch(n, rng)
            closed = xi_tilde_symmetric(s).min_variance
            value = brute_force_min_variance(s)
            assert value <= closed + 1e-9
            if k == 0:
                assert abs(value - brute_force_min_variance(embed_symmetric(s))) <= 1e-9


def test_brute_force_beats_closed_form_on_single_excitation_dicke():
    # three qubits sharing one |0> excitation: the perpendicular pair
    # correlation is +2/3 along both axes, so opposing per-qubit directions
    # cancel the correlation term and reach variance 1/4, far below the
    # common-direction value 7/4
    w = dicke_state(3, 1)
    closed = xi_tilde_symmetric(w).min_variance
    assert closed == pytest.approx(7 / 4, abs=1e-12)
    full = embed_symmetric(w)
    value = brute_force_min_variance(full)
    assert value == pytest.approx(1 / 4, abs=1e-6)


def test_brute_force_is_deterministic(rng):
    state = pure_state_with_nonzero_bloch(3, rng)
    a = brute_force_min_variance(state)
    b = brute_force_min_variance(state)
    assert a == b
