"""Seeded property suites behind the `verify` CLI command.

Each suite runs a named set of property checks, reports instance counts and
worst residuals, and hands back the worst failing state (when there is one)
for replay.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import concurrence_pure, invariant_I, verify_identity_imp1
from .operators import apply_local_unitaries, bloch_vectors, complete_frame, unit
from .sampling import (
    haar_pure_state,
    pure_state_with_nonzero_bloch,
    random_local_unitary,
    random_symmetric_mixture,
    symmetric_state_with_nonzero_bloch,
)
from .squeezing import (
    brute_force_min_variance,
    quadratic_form_min,
    xi_standard,
    xi_tilde_general,
    xi_tilde_symmetric,
)
from .states import PureState, random_separable_state

XI_INVARIANCE_TOL = 1e-9
SEPARABLE_TOL = 1e-9
ORACLE_TOL = 1e-6
IDENTITY_TOL = 1e-9


@dataclass
class PropertyCheck:
    name: str
    instances: int
    worst: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (label, state) pairs for replay

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _record(result, name, instances, worst, tolerance, note="",
            failure_state=None, failure_label=None):
    passed = bool(worst <= tolerance)
    result.checks.append(
        PropertyCheck(name, int(instances), float(worst), float(tolerance), passed, note))
    if not passed and failure_state is not None:
        result.failures.append((failure_label or name, failure_state))


def run_invariance(seed):
    """Local-unitary invariance of the local-frame parameters.

    The per-qubit Bloch norms and two-qubit pure states are exactly invariant.
    For three or more qubits the common-orientation evaluation is gauge
    dependent (residual rotations about each aligned Bloch vector change the
    aggregated correlation matrix), so the blanket check fails by design and
    the worst offender is kept for replay.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("invariance")

    bloch_worst = 0.0
    worst_two = 0.0
    worst_all = 0.0
    worst_state = None
    two_qubit_checks = 0
    total_checks = 0
    sizes = (2, 3, 4)
    for idx in range(200):
        n = sizes[idx % len(sizes)]
        state = pure_state_with_nonzero_bloch(n, rng)
        base = xi_tilde_general(state)
        base_norms = np.linalg.norm(bloch_vectors(state), axis=1)
        for _ in range(20):
            moved = apply_local_unitaries(state, random_local_unitary(n, rng))
            norms = np.linalg.norm(bloch_vectors(moved), axis=1)
            bloch_worst = max(bloch_worst, float(np.max(np.abs(norms - base_norms))))
            new = xi_tilde_general(moved)
            if base.xi1_tilde is None or new.xi1_tilde is None:
                continue
            total_checks += 1
            delta = max(abs(new.xi1_tilde - base.xi1_tilde),
                        abs(new.xi2_tilde - base.xi2_tilde))
            if n == 2:
                two_qubit_checks += 1
                worst_two = max(worst_two, delta)
            if delta > worst_all:
                worst_all = delta
                worst_state = state
    _record(result, "bloch norms invariant", 200 * 20, bloch_worst, 1e-10)
    _record(result, "xi_tilde invariant (two-qubit pure)", two_qubit_checks,
            worst_two, XI_INVARIANCE_TOL)
    _record(result, "xi_tilde invariant (N in 2..4)", total_checks, worst_all,
            XI_INVARIANCE_TOL,
            note="common-orientation evaluation is gauge dependent for N >= 3",
            failure_state=worst_state, failure_label="xi-tilde-invariance")

    # The mean-spin parameters must NOT be invariant: a state with zero mean
    # spin maps to a squeezed one under a flip of one qubit.
    theta = math.pi / 8
    flipped = PureState(2, np.array([math.cos(theta), 0, 0, math.sin(theta)]))
    original = PureState(2, np.array([0, math.cos(theta), math.sin(theta), 0]))
    xi_orig = xi_standard(original)
    xi_flip = xi_standard(flipped)
    expected = math.sqrt(1 - math.sin(2 * theta))
    demo_ok = (xi_orig.xi1 is None and xi_flip.xi1 is not None
               and abs(xi_flip.xi1 - expected) < 1e-9)
    _record(result, "xi1 non-invariance demonstration", 1,
            0.0 if demo_ok else 1.0, 0.5)
    return result


def run_separable_bound(seed):
    """xi2_tilde >= 1 for every sampled fully separable state."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("separable-bound")
    min_xi2 = math.inf
    defined = 0
    worst_state = None
    sizes = (2, 3, 4, 5)
    for idx in range(500):
        n = sizes[idx % len(sizes)]
        terms = int(rng.integers(1, 9))
        sample_seed = int(rng.integers(0, 2**32))
        state = random_separable_state(n, terms, sample_seed)
        res = xi_tilde_general(state)
        if res.xi2_tilde is None:
            continue
        defined += 1
        if res.xi2_tilde < min_xi2:
            min_xi2 = res.xi2_tilde
            worst_state = state
    shortfall = max(0.0, 1.0 - min_xi2)
    _record(result, "separable xi2_tilde >= 1", defined, shortfall, SEPARABLE_TOL,
            note=f"minimum xi2_tilde = {min_xi2:.12g}",
            failure_state=worst_state, failure_label="separable-bound")
    return result


def run_oracle(seed):
    """Closed-form minimizations against brute-force searches.

    The 2x2 closed form is checked against a dense angular grid.  The
    symmetric closed form is checked against the independent-angle search;
    the search explores a strictly larger space and finds lower variances for
    most symmetric states with N >= 3 (and does so legitimately), so that
    check fails by design and keeps the worst offender for replay.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("oracle")

    worst_grid = 0.0
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        m = (m + m.T) / 2
        n0 = unit(rng.normal(size=3))
        value, _ = quadratic_form_min(m, n0)
        grid_min = _grid_search_min(m, n0, 10_000)
        worst_grid = max(worst_grid, abs(value - grid_min))
    _record(result, "quadratic_form_min vs 1e4-point grid", 100, worst_grid,
            ORACLE_TOL)

    worst_gap = 0.0
    worst_state = None
    sizes = (2, 3, 4)
    for idx in range(50):
        n = sizes[idx % len(sizes)]
        state = symmetric_state_with_nonzero_bloch(n, rng)
        closed = xi_tilde_symmetric(state).min_variance
        independent = brute_force_min_variance(state)
        gap = abs(closed - independent)
        if gap > worst_gap:
            worst_gap = gap
            worst_state = state
    _record(result, "independent-angle search vs symmetric closed form", 50,
            worst_gap, ORACLE_TOL,
            note="the independent-angle minimum is genuinely lower for most "
                 "symmetric states with N >= 3",
            failure_state=worst_state, failure_label="oracle-gap")
    return result


def _grid_search_min(matrix, n0, points):
    frame = complete_frame(n0)
    e1 = frame.n_perp.components
    e2 = frame.n_perp_prime.components
    angles = np.linspace(0.0, math.pi, points, endpoint=False)
    dirs = np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)
    return float(np.min(np.einsum("ka,ab,kb->k", dirs, matrix, dirs)))


def run_identities(seed):
    """Algebraic identities tying squeezing, concurrence, and the invariant."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("identities")

    worst_identity = 0.0
    sign_failures = 0
    sign_checked = 0
    sizes = (2, 3, 4, 5, 6)
    for idx in range(200):
        n = sizes[idx % len(sizes)]
        if idx % 2 == 0:
            state = symmetric_state_with_nonzero_bloch(n, rng)
        else:
            state = random_symmetric_mixture(n, int(rng.integers(1, 4)), rng)
            if np.linalg.norm(bloch_vectors(state)[0]) < 1e-6:
                continue
        lhs, rhs, residual = verify_identity_imp1(state)
        worst_identity = max(worst_identity, residual)
        xi1t = xi_tilde_symmetric(state).xi1_tilde
        if abs(xi1t - 1.0) > 1e-6:
            sign_checked += 1
            if (invariant_I(state) < 0) != (xi1t < 1.0):
                sign_failures += 1
    _record(result, "pair-invariant identity residual", 200, worst_identity,
            IDENTITY_TOL)
    _record(result, "sign equivalence (invariant < 0 iff xi1_tilde < 1)",
            sign_checked, float(sign_failures), 0.5)

    worst_conc = 0.0
    for _ in range(200):
        state = haar_pure_state(2, rng)
        res = xi_tilde_general(state)
        if res.xi1_tilde is None:
            continue
        c = concurrence_pure(state)
        worst_conc = max(worst_conc,
                         abs(res.xi1_tilde - math.sqrt(1 - c)),
                         abs(res.xi2_tilde - 1 / math.sqrt(1 + c)))
    _record(result, "two-qubit concurrence identities", 200, worst_conc,
            IDENTITY_TOL)
    return result


SUITES = {
    "invariance": run_invariance,
    "separable-bound": run_separable_bound,
    "oracle": run_oracle,
    "identities": run_identities,
}


def run_suite(name, seed):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
