import functools
import math

import numpy as np
import pytest

from spinsqueeze import (
    Direction,
    Frame,
    PureState,
    UndefinedReason,
    ValidationError,
    apply_local_unitaries,
    bloch_vectors,
    brute_force_min_variance,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    one_axis_twisted_state,
    product_state,
    quadratic_form_min,
    random_separable_state,
    unit,
    xi_standard,
    xi_tilde_general,
    xi_tilde_symmetric,
)
from spinsqueeze.operators import IDENTITY2, SIGMA_X, LocalUnitary, complete_frame
from spinsqueeze.sampling import (
    haar_pure_state,
    pure_state_with_nonzero_bloch,
    random_symmetric_mixture,
    symmetric_state_with_nonzero_bloch,
)
from spinsqueeze import squeezing
from spinsqueeze.squeezing import SEARCH_RESOLUTION, _projected_pair_matrix, cross_check_bound

from conftest import bell_state, schmidt_state
from oracles import collective_moment

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
    flipped = apply_local_unitaries(psi, LocalUnitary((IDENTITY2, SIGMA_X)))
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
    assert value == pytest.approx((1 - math.sin(2 * theta)) / 2, abs=cross_check_bound(2))

    css = embed_symmetric(coherent_spin_state(4, 1.1, 0.2))
    assert brute_force_min_variance(css) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_agrees_with_closed_form_for_two_qubit_pure(rng):
    for _ in range(10):
        state = pure_state_with_nonzero_bloch(2, rng)
        value = brute_force_min_variance(state)
        closed = xi_tilde_general(state).min_variance
        assert value == pytest.approx(closed, abs=cross_check_bound(2))


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


def _turned_frames(state, angles):
    """Each qubit's complete_frame turned by its angle about the qubit's Bloch axis."""
    frames = []
    for s, psi in zip(bloch_vectors(state), angles):
        f = complete_frame(unit(s))
        d = math.cos(psi) * f.n_perp.components + math.sin(psi) * f.n_perp_prime.components
        frames.append(Frame(Direction(d), Direction(np.cross(f.n0.components, d)), f.n0))
    return frames


def test_projected_pair_matrix_gives_the_collective_variance():
    # (N + u^T M u) / 4 against Var(J_perp) of the full state, means subtracted
    rng = np.random.default_rng(1414)
    symmetric = symmetric_state_with_nonzero_bloch(4, rng)
    cases = [(haar_pure_state(n, rng), None) for n in (2, 3, 4, 5)]
    cases += [(random_separable_state(4, 3, 1415), None),
              (random_symmetric_mixture(4, 3, rng), None),
              (symmetric, embed_symmetric(symmetric))]
    for state, full in cases:
        n = state.num_qubits
        m = _projected_pair_matrix(state)
        assert m.shape == (2 * n, 2 * n)
        assert np.max(np.abs(m - m.T)) <= 1e-15
        for _ in range(3):
            angles = rng.uniform(0.0, 2 * math.pi, size=n)
            u = np.stack([np.cos(angles), np.sin(angles)], axis=1).ravel()
            _, cov = collective_moment(full or state, _turned_frames(state, angles))
            assert abs(0.25 * (n + u @ m @ u) - cov[0, 0]) <= 1e-12


@functools.cache
def _two_qubit_cases():
    """(state, the state collective_moment reads) for the two-qubit minimum's oracle.

    The 6th mixture is one the coordinate search left 2.6e-10 above its
    minimum, 0.0838957683.
    """
    rng = np.random.default_rng(0)
    cases = [haar_pure_state(2, rng) for _ in range(20)]
    cases += [random_symmetric_mixture(2, 3, rng) for _ in range(6)]
    cases += [random_separable_state(2, terms, 1600 + terms) for terms in (1, 2, 3, 5)]
    symmetric = [symmetric_state_with_nonzero_bloch(2, rng)]
    symmetric += [one_axis_twisted_state(2, mu) for mu in (0.05, 0.3, 0.7, 1.2)]
    return [(state, state) for state in cases] + [(s, embed_symmetric(s)) for s in symmetric]


def test_two_qubit_minimum_is_the_top_singular_value():
    # the diagonal blocks of M vanish, so u^T M u = 2 u_1^T M_12 u_2 >= -2 sigma_max
    eps = np.finfo(float).eps
    for index, (state, _full) in enumerate(_two_qubit_cases()):
        sigma_max = np.linalg.svd(_projected_pair_matrix(state)[:2, 2:], compute_uv=False)[0]
        exact = (1 - sigma_max) / 2
        assert abs(brute_force_min_variance(state) - exact) <= 4 * eps, index


def test_two_qubit_minimum_is_attained():
    # u_1 = -(top left singular vector), u_2 = top right one give -sigma_max
    for index, (state, full) in enumerate(_two_qubit_cases()):
        left, _, right_t = np.linalg.svd(_projected_pair_matrix(state)[:2, 2:])
        angles = [math.atan2(-left[1, 0], -left[0, 0]), math.atan2(right_t[0, 1], right_t[0, 0])]
        _, cov = collective_moment(full, _turned_frames(state, angles))
        assert abs(cov[0, 0] - brute_force_min_variance(state)) <= 1e-12, index


def test_no_angle_grid_point_falls_below_the_two_qubit_minimum():
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    vectors = np.stack([np.cos(grid), np.sin(grid)], axis=1)
    for index, (state, _full) in enumerate(_two_qubit_cases()):
        m12 = _projected_pair_matrix(state)[:2, 2:]
        variances = 0.25 * (2 + 2 * vectors @ m12 @ vectors.T)
        assert variances.min() >= brute_force_min_variance(state) - 1e-12, index


def test_two_qubit_search_makes_no_golden_refine_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a two-qubit minimum ran a golden section")

    monkeypatch.setattr(squeezing, "_golden_refine", refuse)
    brute_force_min_variance(_search_stop_cases()[0])


def _slice_coefficients(func):
    """(A, B, C) of the slice A + B cos(psi) + C sin(psi), from three evaluations."""
    f0, f1, f2 = func(0.0), func(math.pi / 2), func(math.pi)
    a = (f0 + f2) / 2
    return a, (f0 - f2) / 2, f1 - a


@functools.cache
def _refined_slices(index):
    """((A, B, C), value at the returned psi, evaluations) per _golden_refine call.

    One search of _search_stop_cases()[index]; each slice is read during its
    call, since it closes over the search's loop variables.
    """
    calls = []
    refine = squeezing._golden_refine

    def recording(func, *args):
        count = [0]

        def counted(p):
            count[0] += 1
            return func(p)

        psi = refine(counted, *args)
        calls.append((_slice_coefficients(func), func(psi), count[0]))
        return psi

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(squeezing, "_golden_refine", recording)
        brute_force_min_variance(_search_stop_cases()[index])
    assert calls
    return calls


def _search_stop_cases():
    """Case 0 (N=2) has a closed form and no golden section; the stop-rule tests take 1-6."""
    cases = [haar_pure_state(n, np.random.default_rng(500 + n)) for n in range(2, 7)]
    return cases + [random_separable_state(3, 3, 11), one_axis_twisted_state(4, 0.3)]


@pytest.mark.parametrize("index", range(1, len(_search_stop_cases())))
def test_golden_refine_stops_within_eps_n_of_the_slice_minimum(index):
    n = _search_stop_cases()[index].num_qubits
    eps = np.finfo(float).eps
    for (a, b, c), value, _count in _refined_slices(index):
        assert value - (a - math.hypot(b, c)) <= eps * n


@pytest.mark.parametrize("index", range(1, len(_search_stop_cases())))
def test_golden_refine_evaluates_no_more_than_its_resolution_needs(index):
    # the bracket starts 2 step wide and shrinks by the golden ratio per
    # evaluation; it stops at the width e with |w| e^2 / 32 = eps N, where
    # |w| = 4 hypot(B, C) for the slice (rest + u(psi).w) / 4
    n = _search_stop_cases()[index].num_qubits
    step = 2 * math.pi / SEARCH_RESOLUTION
    shrink = 2 / (math.sqrt(5) - 1)
    for (_a, b, c), _value, count in _refined_slices(index):
        w_norm = 4 * math.hypot(b, c)
        if w_norm == 0.0:
            assert count == 0
            continue
        width = math.sqrt(32 * np.finfo(float).eps * n / w_norm)
        assert count <= 2 + max(0, math.ceil(math.log(2 * step / width) / math.log(shrink)))
