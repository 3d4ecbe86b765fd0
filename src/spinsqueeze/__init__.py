"""Spin-squeezing parameters and entanglement witnesses for multiqubit states."""

from ._version import __version__
from .errors import (
    CapacityError,
    QubitBlochZeroError,
    ValidationError,
)
from .states import (
    DensityMatrix,
    MixtureTerm,
    PureState,
    SymmetricState,
    coherent_spin_state,
    dicke_state,
    embed_symmetric,
    mix,
    one_axis_twisted_state,
    product_state,
    random_separable_state,
    random_separable_terms,
)
from .operators import (
    Direction,
    Frame,
    LocalUnitary,
    apply_local_unitaries,
    bloch_expectations,
    bloch_vectors,
    complete_frame,
    dicke_moments,
    total_spin_expectation,
    unit,
)
from .reductions import (
    is_exchange_symmetric,
    pair_correlation_sum,
    pair_correlations,
    symmetric_moments,
)
from .squeezing import (
    SqueezingResult,
    UndefinedReason,
    brute_force_min_variance,
    quadratic_form_min,
    xi_standard,
    xi_tilde_general,
    xi_tilde_symmetric,
)
from .entanglement import (
    SchmidtPair,
    Verdict,
    WitnessReport,
    concurrence_pure,
    invariant_I,
    schmidt,
    verify_identity_imp1,
    witness,
)
from .report import analyze_state, render_text

__all__ = [name for name in dir() if not name.startswith("_")]
