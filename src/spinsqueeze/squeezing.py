"""Spin-squeezing parameters.

Two families are computed:

* mean-spin-frame parameters (xi1, xi2): variance of a collective spin
  component perpendicular to the mean spin direction, minimized over the
  perpendicular plane, normalized against the coherent-state value N/4;
* local-frame parameters (xi1_tilde, xi2_tilde): the same construction with
  every qubit's frame aligned to its own Bloch vector.  They are evaluated
  with the common-orientation closed form: rotate each qubit's Bloch vector
  to +z, sum the pair correlation matrices, and minimize the resulting
  quadratic form over a single perpendicular direction.

The common-orientation evaluation is an upper bound on the unrestricted
minimum over independent per-qubit perpendicular directions; the two agree
for pure two-qubit states and for symmetric states whose perpendicular
correlation is sufficiently negative, but not in general.
brute_force_min_variance solves the unrestricted problem, in closed form on
two qubits and by search on more, so both values can be reported side by
side.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .operators import (
    Direction,
    alignment_rotation_matrix,
    bloch_vectors,
    complete_frame,
    dicke_moments,
    total_spin_expectation,
    unit,
)
from .reductions import pair_correlation_sum, pair_correlations, symmetric_moments
from .states import SymmetricState, _kept_per_state

MEAN_SPIN_TOL = 1e-10
BLOCH_TOL = 1e-10
# Radius below which a 2x2 block reduced by _frame_block_min (the mean-spin
# and symmetric paths) counts as degenerate (angle 0).  It is absolute, not
# scaled to the block, so a large coherent state still reports the atan2 of
# rounding noise as its mean-spin angle; the benchmark references pin that angle.
FRAME_DEGENERATE_RADIUS = 1e-15
SEARCH_RESOLUTION = 128  # grid angles per coordinate of the independent-angle search
SEARCH_GRID = np.linspace(0.0, 2 * math.pi, SEARCH_RESOLUTION, endpoint=False)
SEARCH_GRID.setflags(write=False)
SEARCH_GRID_VECTORS = np.stack([np.cos(SEARCH_GRID), np.sin(SEARCH_GRID)], axis=-1)
SEARCH_GRID_VECTORS.setflags(write=False)
SEARCH_MIN_GAIN = 1e-14  # the independent-angle search takes only steps that gain more


class UndefinedReason(Enum):
    MEAN_SPIN_ZERO = "MeanSpinZero"
    QUBIT_BLOCH_ZERO = "QubitBlochZero"


@dataclass(frozen=True)
class SqueezingResult:
    """Squeezing parameters for one state; fields are None when undefined."""

    xi1: float | None = None
    xi2: float | None = None
    xi1_tilde: float | None = None
    xi2_tilde: float | None = None
    min_variance: float | None = None
    optimal_angle: float | None = None
    mean_J0: float | None = None
    undefined_reason: UndefinedReason | None = None

    def __post_init__(self):
        for name in ("xi1", "xi2", "xi1_tilde", "xi2_tilde",
                     "min_variance", "optimal_angle", "mean_J0"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))


def _eigen_2x2(b11, b22, b12):
    """(half_sum, radius): the eigenvalues of a symmetric 2x2 block are half_sum +- radius."""
    half_sum = 0.5 * (b11 + b22)
    radius = 0.5 * math.hypot(b11 - b22, 2 * b12)
    return half_sum, radius


def _min_quadratic_2x2(b11, b22, b12, degenerate):
    """Minimum of the quadratic form of a symmetric 2x2 block over unit vectors.

    Returns (value, angle) with angle in [0, pi); a block whose eigenvalue
    radius is below `degenerate` reports angle 0 by convention.
    """
    half_sum, radius = _eigen_2x2(b11, b22, b12)
    value = half_sum - radius
    if radius < degenerate:
        return value, 0.0
    # eigenvector of the smaller eigenvalue; pick the better-conditioned form
    v1 = (b12, value - b11)
    v2 = (value - b22, b12)
    v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    angle = math.atan2(v[1], v[0]) % math.pi
    if angle > math.pi - 1e-12:
        angle = 0.0
    return value, angle


def _frame_block_min(matrix, n0):
    """(min value, optimal angle, frame) of the perpendicular block of a symmetric 3x3 `matrix`."""
    frame = complete_frame(n0)
    e1 = frame.n_perp.components
    e2 = frame.n_perp_prime.components
    value, angle = _min_quadratic_2x2(
        e1 @ matrix @ e1, e2 @ matrix @ e2, e1 @ matrix @ e2, FRAME_DEGENERATE_RADIUS)
    return value, angle, frame


def quadratic_form_min(matrix, n0):
    """Minimize n^T M n over unit n perpendicular to n0.

    M must be real symmetric.  Returns (value, minimizing Direction).
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-10:
        raise ValidationError("matrix must be symmetric")
    value, angle, frame = _frame_block_min((m + m.T) / 2, n0)
    direction = (math.cos(angle) * frame.n_perp.components
                 + math.sin(angle) * frame.n_perp_prime.components)
    return value, Direction(direction / np.linalg.norm(direction))


def _collective_covariance(state):
    """(mean J vector, 3x3 covariance of J components, N)."""
    n = state.num_qubits
    if isinstance(state, SymmetricState):
        mean, second = dicke_moments(state)
        second = (second + second.T) / 2
    else:
        mean = total_spin_expectation(state)
        second = 0.25 * (n * np.eye(3) + pair_correlation_sum(state))
    return mean, second - np.outer(mean, mean), n


def _mean_spin_rounding(n):
    """2 eps N(N+2): a rounding bound on |<J>| taken as Re<d, J_a d> on the Dicke basis.

    A row of J_a has at most two nonzero entries, so J_a d rounds each entry
    a few times; <d, J_a d> then sums N+1 complex products whose absolute
    values add up to at most |d|^T |J_a| |d| <= N/2.  Each component errs by
    at most about 2 (N+2) eps N/2 = eps N(N+2), and the norm of the three
    components by at most sqrt(3) < 2 times that.
    """
    return 2 * np.finfo(float).eps * n * (n + 2)


def xi_standard(state):
    """Mean-spin-frame parameters xi1 = 2 (dJ)_min / sqrt(N), xi2 = N xi1 / (2 |<J0>|).

    Undefined (with reason MeanSpinZero) when the collective mean spin
    vanishes, since no mean-spin frame exists: |<J>| at most MEAN_SPIN_TOL,
    or at most its rounding bound, which is the larger from N = 474 on.
    """
    mean, cov, n = _collective_covariance(state)
    j_norm = float(np.linalg.norm(mean))
    if j_norm <= max(MEAN_SPIN_TOL, _mean_spin_rounding(n)):
        return SqueezingResult(undefined_reason=UndefinedReason.MEAN_SPIN_ZERO)
    value, angle, _frame = _frame_block_min(cov, Direction(mean / j_norm))
    min_var = max(0.0, value)
    xi1 = 2.0 * math.sqrt(min_var) / math.sqrt(n)
    xi2 = math.sqrt(n) * math.sqrt(min_var) / j_norm
    return SqueezingResult(
        xi1=xi1, xi2=xi2, min_variance=min_var, optimal_angle=angle, mean_J0=j_norm)


@_kept_per_state
def xi_tilde_symmetric(state):
    """Local-frame parameters for an exchange-symmetric state (closed form), kept per state.

    xi1_tilde = sqrt(1 + (N-1) min_perp(n^T T n)) with the perpendicular plane
    orthogonal to the common Bloch direction; xi2_tilde = xi1_tilde / s0.
    """
    n = state.num_qubits
    s, t = symmetric_moments(state)
    s0 = float(np.linalg.norm(s))
    if s0 <= BLOCH_TOL:
        return SqueezingResult(undefined_reason=UndefinedReason.QUBIT_BLOCH_ZERO)
    t = (t + t.T) / 2
    value, angle, _frame = _frame_block_min(t, Direction(s / s0))
    xi1_sq = max(0.0, 1.0 + (n - 1) * value)
    xi1t = math.sqrt(xi1_sq)
    min_var = 0.25 * n * xi1_sq
    return SqueezingResult(
        xi1_tilde=xi1t,
        xi2_tilde=xi1t / s0,
        min_variance=min_var,
        optimal_angle=angle,
        mean_J0=0.5 * n * s0)


def _pair_sum_rounding(n):
    """16 eps N(N-1): a rounding bound on a sum of N(N-1) entries of magnitude at most 1."""
    return 16 * np.finfo(float).eps * n * (n - 1)


@_kept_per_state
def xi_tilde_general(state):
    """Local-frame parameters by the common-orientation procedure, kept per state.

    With R_i the minimal-angle rotation taking qubit i's Bloch vector to +z,
    the aligned pair sum S = (1/2) sum_{i != j} R_i T^(ij) R_j^T is read off
    the pair table, and its quadratic form is minimized over one common
    perpendicular direction:

        (dJ)^2_min = (1/4) (N + 2 min(n^T S n)),
        xi1_tilde  = sqrt(1 + (2/N) min(n^T S n)),
        xi2_tilde  = sqrt(N) (dJ)_min / <J0>,  <J0> = (1/2) sum_i |<sigma_i>|.

    S sums N(N-1) entries of magnitude at most 1, so its block counts as
    degenerate below 16 eps N(N-1).  Undefined (QubitBlochZero) when any
    qubit has a vanishing Bloch vector.
    """
    n = state.num_qubits
    table = pair_correlations(state)  # refuses N > 20 before any Bloch vector check
    svecs = bloch_vectors(state)
    norms = np.linalg.norm(svecs, axis=1)
    if norms.min() <= BLOCH_TOL:
        return SqueezingResult(undefined_reason=UndefinedReason.QUBIT_BLOCH_ZERO)
    mean_j0 = 0.5 * float(norms.sum())
    rotations = np.stack([alignment_rotation_matrix(s) for s in svecs])
    s_mat = 0.5 * np.einsum("iab,ijbc,jdc->ad", rotations, table, rotations)
    value, angle = _min_quadratic_2x2(
        s_mat[0, 0], s_mat[1, 1], s_mat[0, 1], _pair_sum_rounding(n))
    min_var = max(0.0, 0.25 * (n + 2 * value))
    xi1t = math.sqrt(max(0.0, 1.0 + (2.0 / n) * value))
    xi2t = math.sqrt(n) * math.sqrt(min_var) / mean_j0
    return SqueezingResult(
        xi1_tilde=xi1t, xi2_tilde=xi2t, min_variance=min_var,
        optimal_angle=angle, mean_J0=mean_j0)


def _projected_pair_matrix(state):
    """The 2N x 2N matrix M, symmetric to rounding, with Var(J_perp) = (N + u^T M u) / 4.

    u stacks one unit 2-vector u_q per qubit, in the basis (n_perp,
    n_perp_prime) of qubit q's complete_frame, B_q; block (i, j) of M is
    B_i T^(ij) B_j^T.  <J_perp> vanishes since each direction is
    perpendicular to its qubit's Bloch vector.
    """
    n = state.num_qubits
    table = pair_correlations(state)  # refuses N > 20 before any Bloch vector check
    frames = [complete_frame(unit(s)) for s in bloch_vectors(state)]
    basis = np.stack([
        np.stack([f.n_perp.components, f.n_perp_prime.components]) for f in frames])
    m = np.einsum("iax,ijxy,jby->iajb", basis, table, basis)
    return m.reshape(2 * n, 2 * n)


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_refine(func, lo, hi, width):
    """Golden-section minimum of unimodal `func` on [lo, hi], to a bracket at most `width` wide."""
    a, b = lo, hi
    if b - a <= width:
        return (a + b) / 2
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = func(d)
    return (a + b) / 2


def _unit_vectors(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _slice_resolution(n, w):
    """The bracket width e with |w| e^2 / 32 = eps N; infinite for a flat slice (w = 0).

    Along one angle the objective is (rest + u(psi).w) / 4, which a point
    within e/2 of the minimum leaves at most |w| (e/2)^2 / 8 = |w| e^2 / 32
    above it: narrower brackets gain less than the objective's rounding.
    """
    w_norm = math.hypot(w[0], w[1])
    if w_norm == 0.0:
        return math.inf
    return math.sqrt(32 * np.finfo(float).eps * n / w_norm)


def brute_force_min_variance(state):
    """Minimize Var(J_perp) over per-qubit directions perpendicular to each Bloch vector.

    The objective is (N + u^T M u) / 4, M = _projected_pair_matrix.  On two
    qubits M's diagonal blocks vanish, so u^T M u = 2 u_1^T M_12 u_2, whose
    minimum over unit u_1, u_2 is -2 sigma_max(M_12): the result is
    (1 - sigma_max) / 2, exact to rounding.

    For N >= 3, coordinate descent from a deterministic set of starts
    returns the best value found.  Along qubit q's angle the objective is
    (rest + u(psi).w) / 4, with rest = N + u^T M u and w = 2 (M u)_q taken at
    u_q = 0: a grid scan plus golden section down to _slice_resolution, and
    a step only where it gains more than SEARCH_MIN_GAIN.  Each start keeps
    its (N, 2) unit vectors and refreshes only the row of an accepted step.
    """
    n = state.num_qubits
    m = _projected_pair_matrix(state)
    if n == 2:
        (a, b), (c, d) = m[:2, 2:]
        sigma_max = (math.hypot(a + d, b - c) + math.hypot(a - d, b + c)) / 2
        return max(0.0, (1.0 - sigma_max) / 2)
    step = 2 * math.pi / SEARCH_RESOLUTION

    starts = [np.full(n, g) for g in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)]
    rng = np.random.default_rng(0x5EED)
    for _ in range(max(8, 2 * n)):
        starts.append(rng.uniform(0.0, 2 * math.pi, size=n))

    best = math.inf
    for start in starts:
        vectors = _unit_vectors(start)
        u = vectors.ravel()
        current = 0.25 * (n + u @ m @ u)
        for _ in range(200):
            improved = False
            for q in range(n):
                u = vectors.copy()
                u[q] = 0.0
                mu = m @ u.ravel()
                rest = n + u.ravel() @ mu
                w = 2 * mu[2 * q:2 * q + 2]
                idx = int(np.argmin(rest + SEARCH_GRID_VECTORS @ w))
                lo = SEARCH_GRID[idx] - step
                hi = SEARCH_GRID[idx] + step
                psi = _golden_refine(lambda p: 0.25 * (rest + _unit_vectors(p) @ w), lo, hi,
                                     _slice_resolution(n, w))
                candidate = 0.25 * (rest + _unit_vectors(psi) @ w)
                if candidate < current - SEARCH_MIN_GAIN:
                    vectors[q] = _unit_vectors(psi)
                    current = candidate
                    improved = True
            if not improved:
                break
        best = min(best, current)
    return float(max(0.0, best))


def cross_check_bound(n):
    """How far the closed form and the search may differ by rounding alone.

    16 eps N(N-1) bounds the closed form's pair sum; N * SEARCH_MIN_GAIN is
    how far above a reachable point the search may stop.
    """
    return _pair_sum_rounding(n) + n * SEARCH_MIN_GAIN
