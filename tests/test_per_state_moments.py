"""Moments, Bloch vectors, pair tables and the symmetry verdict are computed once per state."""

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    PureState,
    SymmetricState,
    ValidationError,
    analyze_state,
    bloch_vectors,
    correlation_matrix,
    dicke_moments,
    embed_symmetric,
    is_exchange_symmetric,
    one_axis_twisted_state,
    pair_correlations,
    random_separable_state,
)
from spinsqueeze import operators, reductions
from spinsqueeze.cli import main
from spinsqueeze.sampling import haar_pure_state


@pytest.fixture
def operator_builds(monkeypatch):
    """Counts calls of operators.dicke_collective_operators."""
    calls = []
    original = operators.dicke_collective_operators

    def counting(num_qubits):
        calls.append(num_qubits)
        return original(num_qubits)

    monkeypatch.setattr(operators, "dicke_collective_operators", counting)
    return calls


def test_analyze_builds_dicke_operators_once(operator_builds):
    analyze_state(one_axis_twisted_state(50, 0.05))
    assert operator_builds == [50]


def test_sweep_builds_dicke_operators_once_per_row(operator_builds, capsys):
    assert main(["sweep", "twisted", "--n", "50", "--start", "0.01", "--stop", "0.05",
                 "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert operator_builds == [50, 50, 50]


def test_dicke_moments_match_the_operator_definition():
    state = one_axis_twisted_state(12, 0.3)
    d = state.dicke_amplitudes
    applied = [op @ d for op in operators.dicke_collective_operators(12)]
    mean, second = dicke_moments(state)
    assert np.array_equal(mean, [np.vdot(d, a).real for a in applied])
    assert np.array_equal(second, [[np.vdot(a, b).real for b in applied] for a in applied])


def test_dicke_moments_reject_qubit_resolved_states():
    with pytest.raises(ValidationError, match="SymmetricState"):
        dicke_moments(embed_symmetric(one_axis_twisted_state(3, 0.3)))


def test_stored_arrays_are_read_only():
    symmetric = one_axis_twisted_state(8, 0.2)
    mean, second = dicke_moments(symmetric)
    pure = embed_symmetric(symmetric)
    svecs = bloch_vectors(pure)
    for arr in (mean, second, svecs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert dicke_moments(symmetric)[0] is mean
    assert bloch_vectors(pure) is svecs
    # the public mean spin is a copy the caller may change
    total = operators.total_spin_expectation(symmetric)
    total[0] = 5.0
    assert operators.total_spin_expectation(symmetric)[0] == mean[0]


def test_pair_correlations_are_read_only_and_kept():
    state = haar_pure_state(5, np.random.default_rng(3))
    table = pair_correlations(state)
    assert table.shape == (5, 5, 3, 3)
    with pytest.raises(ValueError):
        table[0, 1, 0, 0] = 0.0
    assert pair_correlations(state) is table
    for i in range(5):
        assert not table[i, i].any()
        for j in range(i + 1, 5):
            assert np.array_equal(table[i, j], correlation_matrix(state, i + 1, j + 1).entries)
            assert np.array_equal(table[j, i], table[i, j].T)


@pytest.mark.parametrize("make, symmetric", [
    (lambda: haar_pure_state(5, np.random.default_rng(7)), False),
    (lambda: random_separable_state(4, 3, seed=2), False),
    (lambda: embed_symmetric(one_axis_twisted_state(5, 0.4)), True),
], ids=["haar5", "separable4", "embedded5"])
def test_symmetry_verdict_reads_the_pair_table(make, symmetric, monkeypatch):
    state = make()
    n = state.num_qubits
    svecs = bloch_vectors(state)
    table = pair_correlations(state)
    for i in range(n):
        for j in range(n):
            if i != j:
                rebuilt = reductions._pair_density(svecs, table, i, j)
                direct = reductions.reduce(state, [i + 1, j + 1]).matrix
                assert np.max(np.abs(rebuilt - direct)) < 1e-14

    def no_reduction(target, subset):
        raise AssertionError("the symmetry test took a partial trace")

    monkeypatch.setattr(reductions, "reduce", no_reduction)
    assert is_exchange_symmetric(state) is symmetric


def test_analyze_takes_each_pair_reduction_once(monkeypatch):
    # every pair consumer, the local-frame closed form included, reads the one
    # pair table of the state, so the state is reduced once per pair and
    # nothing else is reduced
    state = haar_pure_state(8, np.random.default_rng(5))
    reduced = []
    original_reduce = reductions.reduce

    def counting_reduce(target, subset):
        reduced.append((target, list(subset)))
        return original_reduce(target, subset)

    monkeypatch.setattr(reductions, "reduce", counting_reduce)
    analyze_state(state)

    assert len(reduced) == 28
    assert all(target is state for target, _ in reduced)
    assert sorted(tuple(subset) for _, subset in reduced) == [
        (i, j) for i in range(1, 9) for j in range(i + 1, 9)]


def _fresh_copy(state):
    if isinstance(state, SymmetricState):
        return SymmetricState(state.num_qubits, state.dicke_amplitudes.copy())
    if isinstance(state, PureState):
        return PureState(state.num_qubits, state.amplitudes.copy())
    return DensityMatrix(state.num_qubits, state.matrix.copy())


def _report(state):
    report = analyze_state(state)
    report.pop("generated_at")
    return report


@pytest.mark.parametrize("make", [
    lambda: one_axis_twisted_state(50, 0.05),
    lambda: one_axis_twisted_state(8, 0.3),
    lambda: embed_symmetric(one_axis_twisted_state(7, 0.2)),
    lambda: haar_pure_state(7, np.random.default_rng(11)),
    lambda: random_separable_state(7, 3, seed=4),
], ids=["symmetric50", "symmetric8", "embedded7", "haar7", "separable7"])
def test_repeated_analysis_equals_fresh_analysis(make):
    state = make()
    first = _report(state)
    second = _report(state)
    fresh = _report(_fresh_copy(state))
    assert first == fresh
    assert second == fresh
