"""Spin-squeezing parameters and entanglement witnesses for multiqubit states."""

from ._version import __version__
from .errors import (
    CapacityError,
    MeanSpinZeroError,
    QubitBlochZeroError,
    ValidationError,
)
from .states import (
    DensityMatrix,
    MixtureTerm,
    PureState,
    SymmetricState,
    allclose_up_to_global_phase,
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
    collective_moment,
    complete_frame,
    dicke_moments,
    mean_spin_direction,
    su2_to_so3,
    total_spin_expectation,
    unit,
)
from .reductions import (
    CorrelationMatrix,
    collective_to_pair_correlations,
    correlation_matrix,
    is_exchange_symmetric,
    pair_correlation_sum,
    pair_correlations,
    reduce,
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
    xi_from_concurrence,
)
from .report import analyze_state, render_text

__all__ = [name for name in dir() if not name.startswith("_")]
