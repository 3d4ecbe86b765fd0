"""Full analysis reports: every parameter, witness verdicts, and diagnostics."""

import datetime
from itertools import combinations

from ._version import __version__
from .entanglement import concurrence_pure, verify_identity_imp1, witness
from .errors import QubitBlochZeroError
from .operators import bloch_vectors
from .reductions import is_exchange_symmetric, pair_correlations, symmetric_moments
from .squeezing import (
    brute_force_min_variance,
    cross_check_bound,
    xi_standard,
    xi_tilde_general,
    xi_tilde_symmetric,
)
from .statefile import state_kind
from .states import FULL_VECTOR_MAX_QUBITS, PureState, SymmetricState

BRUTE_FORCE_MAX_QUBITS = 6


def _squeezing_dict(result):
    return {
        "xi1": result.xi1,
        "xi2": result.xi2,
        "xi1_tilde": result.xi1_tilde,
        "xi2_tilde": result.xi2_tilde,
        "min_variance": result.min_variance,
        "optimal_angle": result.optimal_angle,
        "mean_j0": result.mean_J0,
        "undefined_reason":
            result.undefined_reason.value if result.undefined_reason else None,
    }


def _state_kind(state):
    kind = state_kind(state)
    if kind is None:
        raise TypeError(f"cannot analyze {type(state).__name__}")
    return kind


def analyze_state(state, source_path=None, source_sha256=None, input_kind=None):
    """Assemble the full report document for one state.

    source_sha256 is the hex digest of the file's bytes that load_document gives.
    The report is deterministic apart from the generated_at timestamp.
    """
    n = state.num_qubits

    report = {
        "tool": {"name": "spinsqueeze", "version": __version__},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": {
            "path": source_path,
            "sha256": source_sha256,
            "kind": input_kind or _state_kind(state),
            "num_qubits": n,
        },
    }

    report["standard"] = _squeezing_dict(xi_standard(state))

    if isinstance(state, SymmetricState) and n > FULL_VECTOR_MAX_QUBITS:
        general = None
        report["local_invariant_general"] = {
            "skipped": "state exceeds the full-vector capacity guard"}
    else:
        general = xi_tilde_general(state)
        report["local_invariant_general"] = _squeezing_dict(general)

    symmetric = is_exchange_symmetric(state)
    report["exchange_symmetric"] = symmetric
    if symmetric:
        report["local_invariant_symmetric"] = _squeezing_dict(xi_tilde_symmetric(state))
    else:
        report["local_invariant_symmetric"] = None

    wit = witness(state)
    report["witness"] = {
        "verdict": wit.verdict.value,
        "xi2_tilde": wit.xi2_tilde,
        "invariant_i": wit.invariant_I,
        "details": wit.details,
    }

    if symmetric:
        try:
            lhs, rhs, residual = verify_identity_imp1(state)
            report["identity_check"] = {"lhs": lhs, "rhs": rhs, "residual": residual}
        except QubitBlochZeroError as exc:
            report["identity_check"] = {"undefined": str(exc)}
    else:
        report["identity_check"] = None

    if isinstance(state, PureState) and n == 2:
        report["concurrence"] = concurrence_pure(state)
    else:
        report["concurrence"] = None

    report["bloch_vectors"] = _bloch_section(state)
    report["pair_correlations"] = _pair_section(state, symmetric)
    if general is None:
        report["oracle_cross_check"] = {
            "skipped": "state exceeds the full-vector capacity guard"}
    else:
        report["oracle_cross_check"] = _oracle_section(state, general)
    return report


def _bloch_section(state):
    if isinstance(state, SymmetricState):
        return {"common": [float(x) for x in bloch_vectors(state)[0]]}
    return {"per_qubit": [[float(x) for x in row] for row in bloch_vectors(state)]}


def _pair_section(state, symmetric):
    if symmetric:  # all pairs coincide
        t = symmetric_moments(state)[1]
        pair = "all" if isinstance(state, SymmetricState) else [1, 2]
        return [{"pair": pair, "matrix": [[float(x) for x in row] for row in t]}]
    table = pair_correlations(state)
    pairs = combinations(range(state.num_qubits), 2)
    return [{"pair": [i + 1, j + 1],
             "matrix": [[float(x) for x in row] for row in table[i, j]]}
            for i, j in pairs]


def _oracle_section(state, general_result):
    """Closed-form minimum variance next to the independent-angle search.

    The two coincide for pure two-qubit states and in the strongly squeezed
    regime; elsewhere the independent-angle value can be lower, so both are
    reported.  A difference within cross_check_bound, the closed form's
    rounding plus the search's stopping tolerance, is reported as 0.0.  On
    two qubits the independent-angle minimum is a closed form too, so the
    comparison is exact.
    """
    if general_result.min_variance is None:
        return {"skipped": general_result.undefined_reason.value
                if general_result.undefined_reason else "undefined"}
    if state.num_qubits > BRUTE_FORCE_MAX_QUBITS:
        return {"skipped": "state too large for the independent-angle search"}
    independent = brute_force_min_variance(state)
    closed = general_result.min_variance
    difference = closed - independent
    if abs(difference) <= cross_check_bound(state.num_qubits):
        difference = 0.0
    return {
        "common_direction_min_variance": closed,
        "independent_angle_min_variance": independent,
        "difference": difference,
    }


def _fmt(value, digits=9):
    if value is None:
        return "undefined"
    return f"{value:.{digits}g}"


def render_text(report):
    """Human-readable rendering of an analysis report."""
    lines = []
    inp = report["input"]
    lines.append(f"spinsqueeze {report['tool']['version']} analysis")
    lines.append(f"input: kind={inp['kind']} num_qubits={inp['num_qubits']}"
                 + (f" path={inp['path']}" if inp["path"] else ""))
    if inp["sha256"]:
        lines.append(f"sha256: {inp['sha256']}")
    std = report["standard"]
    if std["undefined_reason"]:
        lines.append(f"mean-spin frame: undefined ({std['undefined_reason']})")
    else:
        lines.append(f"xi1 = {_fmt(std['xi1'])}   xi2 = {_fmt(std['xi2'])}   "
                     f"(dJ)^2_min = {_fmt(std['min_variance'])}   "
                     f"|<J0>| = {_fmt(std['mean_j0'])}")
    gen = report["local_invariant_general"]
    if "skipped" in gen:
        lines.append(f"local frames: skipped ({gen['skipped']})")
    elif gen["undefined_reason"]:
        lines.append(f"local frames: undefined ({gen['undefined_reason']})")
    else:
        lines.append(f"xi1_tilde = {_fmt(gen['xi1_tilde'])}   "
                     f"xi2_tilde = {_fmt(gen['xi2_tilde'])}   "
                     f"<J0> = {_fmt(gen['mean_j0'])}")
    if report["exchange_symmetric"]:
        sym = report["local_invariant_symmetric"]
        lines.append("exchange symmetric: yes")
        if sym and not sym["undefined_reason"]:
            lines.append(f"symmetric closed form: xi1_tilde = {_fmt(sym['xi1_tilde'])}   "
                         f"xi2_tilde = {_fmt(sym['xi2_tilde'])}")
        ident = report["identity_check"]
        if ident and "residual" in ident:
            lines.append(f"invariant identity residual = {_fmt(ident['residual'], 3)}")
    else:
        lines.append("exchange symmetric: no")
    if report["concurrence"] is not None:
        lines.append(f"concurrence = {_fmt(report['concurrence'])}")
    wit = report["witness"]
    inv = wit["invariant_i"]
    lines.append(f"witness: {wit['verdict']}"
                 + (f"   pair invariant = {_fmt(inv)}" if inv is not None else ""))
    lines.append(f"  {wit['details']}")
    oracle = report["oracle_cross_check"]
    if oracle is not None and "difference" in oracle:
        lines.append(
            "min-variance cross-check: common-direction "
            f"{_fmt(oracle['common_direction_min_variance'])} vs independent-angle "
            f"{_fmt(oracle['independent_angle_min_variance'])} "
            f"(difference {_fmt(oracle['difference'], 3)})")
    return "\n".join(lines) + "\n"
