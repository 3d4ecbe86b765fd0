"""Two-qubit Schmidt/concurrence machinery, the pair invariant, and witnesses.

The local-unitary invariant computed here is

    I = eps_ijk eps_lmn s_i s_l t_jm t_kn

built from one qubit's Bloch vector s and one pair's correlation matrix T of
an exchange-symmetric state.  After aligning s with +z and diagonalizing the
perpendicular block of T it reduces to I = 2 s0^2 t_plus t_minus, which ties
its sign to the symmetric squeezing parameter through

    I = 2 s0^2 t_plus (xi1_tilde^2 - 1) / (N - 1).

A negative I therefore certifies pairwise entanglement exactly when
xi1_tilde < 1.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import QubitBlochZeroError, ValidationError
from .operators import alignment_rotation_matrix
from .reductions import is_exchange_symmetric, symmetric_moments
from .squeezing import BLOCH_TOL, _eigen_2x2, xi_tilde_general, xi_tilde_symmetric
from .states import PureState, _kept_per_state

WITNESS_TOL = 1e-9
DUAL_PATH_TOL = 1e-9

LEVI_CIVITA = np.zeros((3, 3, 3))
for _perm, _sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                     ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    LEVI_CIVITA[_perm] = _sign


class Verdict(Enum):
    ENTANGLED = "Entangled"
    PAIRWISE_ENTANGLED = "PairwiseEntangled"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SchmidtPair:
    """Ordered Schmidt coefficients of a two-qubit pure state."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        l1, l2 = float(self.lambda1), float(self.lambda2)
        object.__setattr__(self, "lambda1", l1)
        object.__setattr__(self, "lambda2", l2)
        if not (l1 >= l2 >= 0.0):
            raise ValidationError("Schmidt coefficients must satisfy l1 >= l2 >= 0")
        if abs(l1**2 + l2**2 - 1.0) > 1e-12:
            raise ValidationError("Schmidt coefficients must satisfy l1^2 + l2^2 = 1")


@dataclass(frozen=True)
class WitnessReport:
    xi2_tilde: float | None
    invariant_I: float | None
    verdict: Verdict
    details: str


def _two_qubit_amplitudes(state):
    if not isinstance(state, PureState) or state.num_qubits != 2:
        raise ValidationError("expected a two-qubit PureState")
    return state.amplitudes


def schmidt(state):
    """Schmidt coefficients from lambda_{1,2}^2 = (1 +- sqrt(1 - 4|bc - ad|^2)) / 2."""
    a, b, c, d = _two_qubit_amplitudes(state)
    det = abs(b * c - a * d) ** 2
    disc = math.sqrt(max(0.0, 1.0 - 4.0 * det))
    l1 = math.sqrt((1.0 + disc) / 2.0)
    l2 = math.sqrt(max(0.0, (1.0 - disc) / 2.0))
    return SchmidtPair(l1, l2)


def concurrence_pure(state):
    """C = 2 |bc - ad| for a two-qubit pure state (0 = product, 1 = Bell)."""
    a, b, c, d = _two_qubit_amplitudes(state)
    return float(min(1.0, 2.0 * abs(b * c - a * d)))


def _aligned_perp_eigenvalues(s, t):
    """(s0, t_plus, t_minus) after rotating the Bloch vector to +z.

    For s0 ~ 0 the alignment is arbitrary; the invariant carries an s0^2
    factor, so the returned eigenvalues only matter up to that weight.
    """
    s0 = float(np.linalg.norm(s))
    if s0 <= BLOCH_TOL:
        rot = np.eye(3)
    else:
        rot = alignment_rotation_matrix(s)
    t_rot = rot @ t @ rot.T
    b = (t_rot[:2, :2] + t_rot[:2, :2].T) / 2
    half_sum, radius = _eigen_2x2(b[0, 0], b[1, 1], b[0, 1])
    return s0, half_sum + radius, half_sum - radius


@_kept_per_state
def invariant_I(state):
    """Pair invariant I = eps_ijk eps_lmn s_i s_l t_jm t_kn of a symmetric state, kept per state.

    Computed two ways (direct double Levi-Civita contraction, and
    2 s0^2 t_plus t_minus in the aligned frame); the paths must agree within
    1e-9 or a ValidationError is raised.
    """
    s, t = symmetric_moments(state)
    t = (t + t.T) / 2
    direct = float(np.einsum("ijk,lmn,i,l,jm,kn->",
                             LEVI_CIVITA, LEVI_CIVITA, s, s, t, t))
    s0, t_plus, t_minus = _aligned_perp_eigenvalues(s, t)
    aligned = 2.0 * s0**2 * t_plus * t_minus
    if abs(direct - aligned) > DUAL_PATH_TOL:
        raise ValidationError(
            f"invariant paths disagree: direct {direct!r} vs aligned {aligned!r}")
    return direct


def verify_identity_imp1(state):
    """(lhs, rhs, residual) of I = 2 s0^2 t_plus (xi1_tilde^2 - 1) / (N - 1)."""
    n = state.num_qubits
    s, t = symmetric_moments(state)
    t = (t + t.T) / 2
    s0, t_plus, _ = _aligned_perp_eigenvalues(s, t)
    if s0 <= BLOCH_TOL:
        raise QubitBlochZeroError("identity undefined for vanishing Bloch vectors")
    lhs = invariant_I(state)
    result = xi_tilde_symmetric(state)
    rhs = 2.0 * s0**2 * t_plus * (result.xi1_tilde**2 - 1.0) / (n - 1)
    return lhs, rhs, abs(lhs - rhs)


def witness(state):
    """Entanglement verdict from xi2_tilde and, for symmetric states, I.

    The checks are one-sided: xi2_tilde < 1 certifies entanglement and I < 0
    certifies pairwise entanglement, but neither xi2_tilde >= 1 nor I >= 0
    ever certifies separability.
    """
    notes = []
    result = xi_tilde_result_for(state)
    xi2t = result.xi2_tilde
    if xi2t is None:
        reason = result.undefined_reason.value if result.undefined_reason else "undefined"
        notes.append(f"xi2_tilde undefined ({reason})")
    inv = None
    if is_exchange_symmetric(state):
        inv = invariant_I(state)
        notes.append(f"pair invariant = {inv:.6g}")
    if inv is not None and inv < -WITNESS_TOL:
        verdict = Verdict.PAIRWISE_ENTANGLED
        notes.append("invariant < 0 certifies pairwise entanglement")
        if xi2t is not None and xi2t < 1.0 - WITNESS_TOL:
            notes.append(f"xi2_tilde = {xi2t:.6g} < 1 also certifies entanglement")
    elif xi2t is not None and xi2t < 1.0 - WITNESS_TOL:
        verdict = Verdict.ENTANGLED
        notes.append(f"xi2_tilde = {xi2t:.6g} < 1 certifies entanglement")
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append("no witness fired; separability is not certified")
    return WitnessReport(
        xi2_tilde=xi2t, invariant_I=inv, verdict=verdict, details="; ".join(notes))


def xi_tilde_result_for(state):
    """Local-frame parameters via the symmetric fast path when it applies.

    The two paths agree on exchange-symmetric inputs, and only the symmetric
    one scales past the full-vector capacity guard.
    """
    if is_exchange_symmetric(state):
        return xi_tilde_symmetric(state)
    return xi_tilde_general(state)
