"""Multiqubit state containers and constructors.

Conventions used throughout the package:

* qubits are numbered 1..N and qubit 1 is the most significant bit of the
  computational-basis index, so for two qubits the basis order is
  |00>, |01>, |10>, |11>;
* sigma_z |0> = +|0>, hence the all-|1> state has J_z eigenvalue -N/2;
* the Dicke index k counts excitations above |1>^N, i.e. the number of
  qubits in |0>.  k = 0 is |1>^N and k = N is |0>^N.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-9

FULL_VECTOR_MAX_QUBITS = 20
DENSITY_MAX_QUBITS = 10
SYMMETRIC_MAX_QUBITS = 2000


def _frozen_array(obj, name, value):
    arr = np.array(value, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _require_hermitian(mat, what):
    """Raise ValidationError unless `mat` is Hermitian; the message names a non-finite entry."""
    with np.errstate(invalid="ignore"):  # inf - inf
        if np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL:
            return
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(f"{what} is not Hermitian: entry ({row}, {col}) "
                              f"is {complex(mat[row, col])}, not finite")
    raise ValidationError(f"{what} is not Hermitian within tolerance")


def _require_full_vector_capacity(n):
    if n > FULL_VECTOR_MAX_QUBITS:
        raise CapacityError(
            f"full state vectors are limited to {FULL_VECTOR_MAX_QUBITS} qubits, got {n}")


def _require_density_capacity(n):
    if n > DENSITY_MAX_QUBITS:
        raise CapacityError(
            f"density matrices are limited to {DENSITY_MAX_QUBITS} qubits, got {n}")


def _require_symmetric_capacity(n):
    if n > SYMMETRIC_MAX_QUBITS:
        raise CapacityError(
            f"symmetric states are limited to {SYMMETRIC_MAX_QUBITS} qubits, got {n}")


def _kept_per_state(func):
    """Decorate func(state) so that it runs once per state and its value is kept on the state.

    The value lives in a dict attribute of the (frozen) instance, under the
    function's name, so it dies with the state and is never shared between
    states.  States cannot change after validation, so a kept value never
    goes stale.  Arrays in the value must be read-only, since every caller
    gets the same objects.  A first call runs the wrapper's __wrapped__, the
    undecorated function, so a test can count the computations by replacing it.
    """
    name = func.__name__

    @functools.wraps(func)
    def kept(state):
        values = state.__dict__.setdefault("_kept", {})  # past the frozen __setattr__
        if name not in values:
            values[name] = kept.__wrapped__(state)
        return values[name]

    return kept


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the 2^N computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValidationError("num_qubits must be >= 1")
        _require_full_vector_capacity(n)
        amps = _frozen_array(self, "amplitudes", self.amplitudes)
        if amps.shape != (2**n,):
            raise ValidationError(
                f"expected {2**n} amplitudes for {n} qubits, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on N qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValidationError("num_qubits must be >= 1")
        _require_density_capacity(n)
        mat = _frozen_array(self, "matrix", self.matrix)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValidationError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        _require_hermitian(mat, "matrix")
        trace = float(np.trace(mat).real)
        if not abs(trace - 1.0) <= HERMITIAN_TOL:
            raise ValidationError(f"trace {trace!r} differs from 1 by more than {HERMITIAN_TOL}")
        if np.linalg.eigvalsh(mat).min() < -EIGENVALUE_TOL:
            raise ValidationError("matrix has an eigenvalue below the positivity tolerance")


@dataclass(frozen=True)
class SymmetricState:
    """Pure state in the (N+1)-dimensional permutation-symmetric subspace.

    dicke_amplitudes[k] multiplies the Dicke basis state with k qubits in |0>.
    """

    num_qubits: int
    dicke_amplitudes: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValidationError("num_qubits must be >= 1")
        _require_symmetric_capacity(n)
        amps = _frozen_array(self, "dicke_amplitudes", self.dicke_amplitudes)
        if amps.shape != (n + 1,):
            raise ValidationError(
                f"expected {n + 1} Dicke amplitudes for {n} qubits, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")


@dataclass(frozen=True)
class MixtureTerm:
    """One weighted product term of a fully separable mixture."""

    weight: float
    factors: tuple

    def __post_init__(self):
        w = float(self.weight)
        object.__setattr__(self, "weight", w)
        if not (-WEIGHT_SUM_TOL <= w <= 1.0 + WEIGHT_SUM_TOL):
            raise ValidationError(f"weight {w!r} outside [0, 1]")
        factors = []
        for idx, f in enumerate(self.factors):
            mat = np.array(f, dtype=complex)
            if mat.shape != (2, 2):
                raise ValidationError(f"factor {idx} is not a 2x2 matrix")
            _require_hermitian(mat, f"factor {idx}")
            if not abs(np.trace(mat).real - 1.0) <= HERMITIAN_TOL:
                raise ValidationError(f"factor {idx} does not have unit trace")
            if np.linalg.eigvalsh(mat).min() < -EIGENVALUE_TOL:
                raise ValidationError(f"factor {idx} is not positive semidefinite")
            mat.setflags(write=False)
            factors.append(mat)
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def num_qubits(self):
        return len(self.factors)


def coherent_spin_state(num_qubits, theta, phi):
    """Spin-coherent state built by rotating |1>^N, in the Dicke basis.

    dicke_amplitudes[k] = sqrt(C(N,k)) cos(theta/2)^(N-k) sin(theta/2)^k e^{ik phi}.
    Amplitudes are evaluated in log space so N up to the symmetric-capacity
    guard is exact to double precision.
    """
    n = int(num_qubits)
    if n < 1:
        raise ValidationError("num_qubits must be >= 1")
    if not 0.0 <= theta <= math.pi:
        raise ValidationError(f"theta {theta!r} outside [0, pi]")
    if not math.isfinite(n * phi):
        raise ValidationError(f"azimuthal angle phi {phi!r} gives a non-finite phase N phi")
    _require_symmetric_capacity(n)
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    k = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(kk + 1) - math.lgamma(n - kk + 1)
                         for kk in k])
    log_c = math.log(abs(c)) if c != 0.0 else -math.inf
    log_s = math.log(abs(s)) if s != 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        # 0 * log(0) terms are x^0 = 1 contributions, not NaN
        log_mag = (0.5 * log_comb
                   + np.where(n - k > 0, (n - k) * log_c, 0.0)
                   + np.where(k > 0, k * log_s, 0.0))
    mag = np.exp(log_mag)
    amps = mag * np.exp(1j * k * phi)
    amps = amps / np.linalg.norm(amps)
    return SymmetricState(n, amps)


def dicke_state(num_qubits, k):
    """Dicke basis state with k qubits in |0> (k excitations above |1>^N)."""
    n = int(num_qubits)
    if n < 1:
        raise ValidationError("num_qubits must be >= 1")
    if not 0 <= k <= n:
        raise ValidationError(f"Dicke index {k!r} outside 0..{n}")
    _require_symmetric_capacity(n)
    amps = np.zeros(n + 1, dtype=complex)
    amps[k] = 1.0
    return SymmetricState(n, amps)


def product_state(factors):
    """Tensor product of normalized single-qubit spinors, qubit 1 first."""
    if len(factors) < 1:
        raise ValidationError("at least one factor is required")
    vecs = []
    for idx, f in enumerate(factors):
        v = np.asarray(f, dtype=complex)
        if v.shape != (2,):
            raise ValidationError(f"factor {idx} is not a 2-component vector")
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise ValidationError(f"factor {idx} is not normalized")
        vecs.append(v)
    _require_full_vector_capacity(len(vecs))
    amps = vecs[0]
    for v in vecs[1:]:
        amps = np.kron(amps, v)
    return PureState(len(vecs), amps)


def one_axis_twisted_state(num_qubits, mu):
    """x-polarized coherent state after a z-axis twist of strength mu.

    Each Dicke amplitude of the theta = pi/2, phi = 0 coherent state is
    multiplied by exp(-i mu (k - N/2)^2) and the result is renormalized.
    """
    n = int(num_qubits)
    if n < 2:
        raise ValidationError("one-axis twisting needs at least 2 qubits")
    if not math.isfinite(mu * (n / 2) ** 2):
        raise ValidationError(
            f"twisting strength mu {mu!r} gives a non-finite phase mu (k - N/2)^2")
    _require_symmetric_capacity(n)
    base = coherent_spin_state(n, math.pi / 2, 0.0)
    k = np.arange(n + 1)
    amps = base.dicke_amplitudes * np.exp(-1j * mu * (k - n / 2) ** 2)
    amps = amps / np.linalg.norm(amps)
    return SymmetricState(n, amps)


def embed_symmetric(state):
    """Expand a SymmetricState into the full 2^N amplitude vector.

    Dicke component k is spread uniformly (amplitude / sqrt(C(N,k))) over the
    C(N,k) basis states with k zero bits.
    """
    n = state.num_qubits
    _require_full_vector_capacity(n)
    indices = np.arange(2**n, dtype=np.uint32)
    ones = np.bitwise_count(indices).astype(np.int64)
    k = n - ones
    comb = np.array([math.comb(n, int(kk)) for kk in range(n + 1)], dtype=float)
    amps = state.dicke_amplitudes[k] / np.sqrt(comb[k])
    return PureState(n, amps)


def mix(terms):
    """Convex mixture of product terms: rho = sum_k p_k (rho_1 x ... x rho_N).

    A weight that MixtureTerm accepted below 0 (within WEIGHT_SUM_TOL) is
    mixed as 0.
    """
    if len(terms) < 1:
        raise ValidationError("at least one mixture term is required")
    n = terms[0].num_qubits
    for idx, t in enumerate(terms):
        if t.num_qubits != n:
            raise ValidationError(f"term {idx} has {t.num_qubits} factors, expected {n}")
    total = sum(t.weight for t in terms)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"mixture weights sum to {total!r}, not 1")
    _require_density_capacity(n)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for t in terms:
        prod = np.array([[max(t.weight, 0.0)]], dtype=complex)
        for f in t.factors:
            prod = np.kron(prod, f)
        rho += prod
    # renormalize away accumulated float error so the invariant check is exact
    rho /= np.trace(rho).real
    try:
        return DensityMatrix(n, rho)
    except ValidationError as exc:
        # each term passed its own checks; say that their mix is what fails
        raise ValidationError(
            f"the mix of the mixture terms is not a density matrix: {exc}") from exc


def random_separable_terms(num_qubits, num_terms, seed):
    """Dirichlet-weighted products of Haar-random single-qubit pure states.

    N is bounded by DENSITY_MAX_QUBITS, as for every mixture that is analyzed.
    """
    n = int(num_qubits)
    if n < 2:
        raise ValidationError("separable sampling needs at least 2 qubits")
    if num_terms < 1:
        raise ValidationError("num_terms must be >= 1")
    _require_density_capacity(n)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(num_terms))
    terms = []
    for w in weights:
        factors = []
        for _ in range(n):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            factors.append(np.outer(v, v.conj()))
        terms.append(MixtureTerm(float(w), tuple(factors)))
    return terms


def random_separable_state(num_qubits, num_terms, seed):
    """Fully separable density matrix, reproducible from the seed."""
    return mix(random_separable_terms(num_qubits, num_terms, seed))
