"""Exact collective moments of three state families at N up to 2000.

Above 20 qubits the Dicke-basis layer has no dense cross-check, but
one-axis twisted, Dicke and coherent states have closed-form moments at
every N:

* twisted (Kitagawa and Ueda, PRA 47, 5138 (1993), with the phase mu J_z^2,
  so mu is half of their mu): |<J>| = (N/2) cos^(N-1) mu and
  V_min = (N/4) [1 + (N-1)/4 (A - sqrt(A^2 + B^2))], with
  A = 1 - cos^(N-2) 2mu and B = 4 sin mu cos^(N-2) mu;
* Dicke |j, m>, m = k - N/2: <J> = (0, 0, m), <J_x^2> = <J_y^2> = (j(j+1) - m^2)/2,
  <J_z^2> = m^2, and no cross terms;
* coherent (theta, phi): <J> = (N/2) n and covariance (N/4)(I - n n^T), with
  n = (sin theta cos phi, -sin theta sin phi, -cos theta).

Tolerances come from eps N^2-scale rounding bounds, not from observed errors:

* |<J>| sums N+1 products whose absolute values add up to at most j = N/2;
  counting N+2 roundings per product (complex arithmetic doubles that), each
  component errs by at most eps N(N+2), and the norm by sqrt(3) eps N(N+2);
* a second moment or covariance entry sums terms whose absolute values add
  up to at most j(j+1) = N(N+2)/4 (the subtracted mean products at most
  j^2); MOMENT_ROUNDINGS = 16 roundings are allowed per unit of that sum, the
  few of a blocked sum rather than the N of a sequential worst case.
"""

import math

import numpy as np
import pytest

from spinsqueeze import (
    UndefinedReason,
    coherent_spin_state,
    dicke_state,
    one_axis_twisted_state,
    xi_standard,
    xi_tilde_symmetric,
)
from spinsqueeze.operators import dicke_moments

EPS = np.finfo(float).eps
MOMENT_ROUNDINGS = 16
SIZES = (2, 3, 5, 10, 50, 300, 1000, 2000)
TWISTS = (1e-4, 1e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7)  # below pi/4: cos 2mu > 0


def moment_rounding(n):
    """16 eps j(j+1): the rounding bound of a second moment or covariance entry."""
    return MOMENT_ROUNDINGS * EPS * n * (n + 2) / 4


def mean_norm_rounding(n):
    """sqrt(3) eps N(N+2): the rounding bound of |<J>|."""
    return math.sqrt(3) * EPS * n * (n + 2)


def mean_spin_threshold(n):
    """The |<J>| at or below which xi_standard reports MeanSpinZero."""
    return max(1e-10, 2 * EPS * n * (n + 2))


def twisted_exact(n, mu):
    """(|<J>|, V_min) of one_axis_twisted_state(n, mu), for 0 < mu < pi/4.

    Powers go through log1p and expm1, and A - sqrt(A^2 + B^2) through
    -B^2 / (A + sqrt(A^2 + B^2)), so each is accurate to a few eps.
    """
    log_cos = 0.5 * math.log1p(-math.sin(mu) ** 2)
    log_cos_2mu = math.log1p(-2 * math.sin(mu) ** 2)
    mean = (n / 2) * math.exp((n - 1) * log_cos)
    a = -math.expm1((n - 2) * log_cos_2mu)
    b = 4 * math.sin(mu) * math.exp((n - 2) * log_cos)
    v_min = (n / 4) * (1 - (n - 1) / 4 * b * b / (a + math.hypot(a, b)))
    return mean, v_min


@pytest.mark.parametrize("n", SIZES)
def test_twisted_xi1_matches_kitagawa_ueda_or_the_mean_spin_vanishes(n):
    noise = mean_norm_rounding(n)
    threshold = mean_spin_threshold(n)
    jj = n * (n + 2) / 4
    for mu in TWISTS:
        mean, v_min = twisted_exact(n, mu)
        result = xi_standard(one_axis_twisted_state(n, mu))
        if mean + noise <= threshold:
            assert result.undefined_reason is UndefinedReason.MEAN_SPIN_ZERO, (n, mu)
            continue
        assert mean - noise > threshold, (n, mu)  # no twist in the undecidable band
        assert result.undefined_reason is None
        assert abs(result.mean_J0 - mean) <= noise
        # the 2x2 perpendicular block errs by 3 moment bounds per entry, and
        # by turning its plane through the mean's direction error delta;
        # its smaller eigenvalue by at most twice the largest entry error
        delta = 2 * noise / (mean - noise)
        v_tol = 2 * (3 * moment_rounding(n) + delta * moment_rounding(n) + delta**2 * jj)
        assert abs(result.min_variance - v_min) <= v_tol
        xi1 = 2 * math.sqrt(v_min / n)
        # |x - y| = |x^2 - y^2| / (x + y), and xi1^2 = 4 V_min / N
        assert abs(result.xi1 - xi1) <= 4 * v_tol / (n * xi1) + 4 * EPS


def test_a_noise_mean_spin_gives_no_squeezing_parameter():
    # the exact mean is 1000 cos^1999(0.3) = 2.2e-37; its rounding noise
    # exceeds the absolute 1e-10 at N = 2000
    state = one_axis_twisted_state(2000, 0.3)
    result = xi_standard(state)
    assert result.undefined_reason is UndefinedReason.MEAN_SPIN_ZERO
    assert result.xi1 is None and result.xi2 is None
    assert xi_tilde_symmetric(state).undefined_reason is UndefinedReason.QUBIT_BLOCH_ZERO


@pytest.mark.parametrize("n", (1, 2, 7, 40, 300, 2000))
def test_dicke_moments_are_exact(n):
    jj = n * (n + 2) / 4
    tol = moment_rounding(n)
    for k in sorted({0, 1, n // 3, n // 2, n}):
        m = k - n / 2
        mean, second = dicke_moments(dicke_state(n, k))
        assert np.max(np.abs(mean - [0.0, 0.0, m])) <= tol
        expected = np.diag([(jj - m * m) / 2, (jj - m * m) / 2, m * m])
        assert np.max(np.abs(second - expected)) <= tol


@pytest.mark.parametrize("n", (1, 2, 7, 300, 2000))
def test_coherent_mean_and_covariance(n):
    # the azimuth enters n with a minus sign: amplitude k carries e^{ik phi}
    # with k counting qubits in |0>, so <J_+> = <J_x + i J_y> ~ e^{-i phi}
    for theta, phi in ((0.0, 0.0), (0.3, 0.2), (1.1, 0.4), (math.pi / 2, -1.0),
                       (2.5, 2.0), (math.pi, 0.7)):
        direction = np.array([math.sin(theta) * math.cos(phi),
                              -math.sin(theta) * math.sin(phi),
                              -math.cos(theta)])
        mean, second = dicke_moments(coherent_spin_state(n, theta, phi))
        cov = second - np.outer(mean, mean)
        assert np.max(np.abs(mean - (n / 2) * direction)) <= mean_norm_rounding(n)
        expected = (n / 4) * (np.eye(3) - np.outer(direction, direction))
        assert np.max(np.abs(cov - expected)) <= moment_rounding(n)
