"""Moments, Bloch vectors, pair tables and the symmetry verdict are computed once per state."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    PureState,
    SymmetricState,
    ValidationError,
    analyze_state,
    bloch_vectors,
    coherent_spin_state,
    correlation_matrix,
    dicke_moments,
    embed_symmetric,
    is_exchange_symmetric,
    one_axis_twisted_state,
    pair_correlations,
    random_separable_state,
    symmetric_moments,
)
from spinsqueeze import entanglement, operators, reductions, squeezing, states
from spinsqueeze.cli import main
from spinsqueeze.sampling import haar_pure_state

from oracles import dense_collective_operators


@pytest.fixture
def row_blocks(monkeypatch):
    """Records (num_qubits, start, stop) of every band write, operators._dicke_band_entries."""
    calls = []
    original = operators._dicke_band_entries

    def counting(num_qubits, start, stop):
        calls.append((num_qubits, start, stop))
        return original(num_qubits, start, stop)

    monkeypatch.setattr(operators, "_dicke_band_entries", counting)
    return calls


def _row_sweeps(calls, num_qubits):
    """How many in-order sweeps over rows 0..N the recorded blocks make; no partial sweep."""
    sweeps, expected = 0, 0
    for n, start, stop in calls:
        assert (n, start) == (num_qubits, expected) and start < stop
        expected = stop
        if stop == num_qubits + 1:
            sweeps, expected = sweeps + 1, 0
    assert expected == 0
    return sweeps


def test_analyze_builds_dicke_operators_once(row_blocks):
    analyze_state(one_axis_twisted_state(150, 0.05))
    assert _row_sweeps(row_blocks, 150) == 1
    assert len(row_blocks) == 3


def test_sweep_builds_dicke_operators_once_per_row(row_blocks, capsys):
    assert main(["sweep", "twisted", "--n", "150", "--start", "0.01", "--stop", "0.05",
                 "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert _row_sweeps(row_blocks, 150) == 3
    assert len(row_blocks) == 9


KEPT_VALUES = {
    operators: ("bloch_vectors", "dicke_moments"),
    reductions: ("pair_correlations", "symmetric_moments", "is_exchange_symmetric"),
    squeezing: ("xi_tilde_symmetric", "xi_tilde_general"),
    entanglement: ("invariant_I",),
}
MOMENTS = KEPT_VALUES[operators] + KEPT_VALUES[reductions]
LOCAL_FRAME_RESULTS = KEPT_VALUES[squeezing] + KEPT_VALUES[entanglement]


@pytest.fixture
def kept_computations(monkeypatch):
    """(name, state) of every computation behind a value kept per state, in call order."""
    calls = []  # holds every state, so no two of them share an id
    for module, names in KEPT_VALUES.items():
        for name in names:
            kept = getattr(module, name)
            assert hasattr(kept, "__wrapped__"), f"{name} is not kept per state"

            def counting(state, compute=kept.__wrapped__, name=name):
                calls.append((name, state))
                return compute(state)

            monkeypatch.setattr(kept, "__wrapped__", counting)
    return calls


def _totals(calls, names):
    return tuple(sum(called == name for called, _ in calls) for name in names)


def _each_once(calls):
    return all(count == 1 for count in Counter((name, id(state)) for name, state in calls).values())


@pytest.mark.parametrize("make, expected", [
    (lambda: one_axis_twisted_state(8, 0.3), (1, 1, 1)),
    (lambda: one_axis_twisted_state(50, 0.05), (1, 0, 1)),
    (lambda: embed_symmetric(one_axis_twisted_state(5, 0.2)), (1, 1, 1)),
    (lambda: haar_pure_state(5, np.random.default_rng(11)), (0, 1, 0)),
    (lambda: random_separable_state(4, 3, seed=4), (0, 1, 0)),
], ids=["symmetric8", "symmetric50", "embedded5", "haar5", "separable4"])
def test_analyze_computes_each_local_frame_result_once(make, expected, kept_computations):
    # the report, the witness and the identity check read the same kept results
    analyze_state(make())
    assert _totals(kept_computations, LOCAL_FRAME_RESULTS) == expected


@pytest.mark.parametrize("argv, expected", [
    (["twisted", "--n", "6"], (3, 0, 3)),
    (["schmidt"], (3, 0, 3)),
], ids=["twisted", "schmidt"])
def test_sweep_computes_each_local_frame_result_once_per_row(
        argv, expected, kept_computations, capsys):
    assert main(["sweep", *argv, "--start", "0.1", "--stop", "0.3", "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert _totals(kept_computations, LOCAL_FRAME_RESULTS) == expected


@pytest.mark.parametrize("make, expected", [
    (lambda: one_axis_twisted_state(8, 0.3), (1, 1, 1, 1, 1)),
    (lambda: embed_symmetric(one_axis_twisted_state(5, 0.2)), (1, 0, 1, 1, 1)),
    (lambda: random_separable_state(4, 3, seed=4), (1, 0, 1, 0, 1)),
], ids=["symmetric8", "embedded5", "separable4"])
def test_analyze_computes_each_moment_once(make, expected, kept_computations):
    # every consumer of a moment, the report's own sections included, reads the kept value
    state = make()
    analyze_state(state)
    assert _totals(kept_computations, MOMENTS) == expected
    assert all(computed_for is state for _, computed_for in kept_computations)
    assert _each_once(kept_computations)


def test_sweep_computes_each_moment_once_per_row(kept_computations, capsys):
    assert main(["sweep", "twisted", "--n", "6", "--start", "0.1", "--stop", "0.3",
                 "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert _totals(kept_computations, MOMENTS) == (3, 3, 0, 3, 3)
    assert len({id(state) for _, state in kept_computations}) == 3
    assert _each_once(kept_computations)


def _dense_moments(state):
    d = state.dicke_amplitudes
    applied = [op @ d for op in dense_collective_operators(state.num_qubits)]
    mean = [np.vdot(d, a).real for a in applied]
    second = [[np.vdot(a, b).real for b in applied] for a in applied]
    return mean, second


def test_dicke_moments_match_the_operator_definition():
    state = one_axis_twisted_state(12, 0.3)
    d = state.dicke_amplitudes
    applied = [op @ d for op in operators.dicke_collective_operators(12)]
    mean, second = dicke_moments(state)
    assert np.array_equal(mean, [np.vdot(d, a).real for a in applied])
    assert np.array_equal(second, [[np.vdot(a, b).real for b in applied] for a in applied])


def test_dicke_moments_equal_the_dense_operator_moments_at_n2000():
    state = coherent_spin_state(2000, 1.1, 0.4)
    mean, second = dicke_moments(state)
    dense_mean, dense_second = _dense_moments(state)
    assert (mean == dense_mean).all()
    assert (second == dense_second).all()


def _random_symmetric_state(n):
    rng = np.random.default_rng(n)
    d = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SymmetricState(n, d / np.linalg.norm(d))


BLOCK_CASES = {f"random{n}": (lambda n=n: _random_symmetric_state(n))
               for n in [*range(1, 71), 127, 128, 129, 500, 1999, 2000]}
BLOCK_CASES["twisted2000"] = lambda: one_axis_twisted_state(2000, 0.01)


@pytest.mark.parametrize("make", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_block_moments_equal_the_dense_operator_moments(make):
    # one operator row is one dot product over every column, in blocks or not
    state = make()
    mean, second = dicke_moments(state)
    dense_mean, dense_second = _dense_moments(state)
    assert (mean == dense_mean).all()
    assert (second == dense_second).all()


def test_dicke_moments_never_hold_a_dense_operator():
    state = coherent_spin_state(2000, 1.1, 0.4)
    tracemalloc.start()
    try:
        dicke_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense (N+1)^2 complex operator is 64 MB here; the three took a 192 MB peak
    assert peak < 16e6


def test_dicke_moments_reject_qubit_resolved_states():
    with pytest.raises(ValidationError, match="SymmetricState"):
        dicke_moments(embed_symmetric(one_axis_twisted_state(3, 0.3)))


def test_stored_arrays_are_read_only():
    symmetric = one_axis_twisted_state(8, 0.2)
    mean, second = dicke_moments(symmetric)
    dicke_svecs = bloch_vectors(symmetric)
    pure = embed_symmetric(symmetric)
    svecs = bloch_vectors(pure)
    dicke_st = symmetric_moments(symmetric)
    pure_st = symmetric_moments(pure)
    pair = correlation_matrix(pure, 1, 2)
    assert pair.shape == (3, 3)
    for arr in (mean, second, dicke_svecs, svecs, pair, *dicke_st, *pure_st):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert dicke_moments(symmetric)[0] is mean
    assert bloch_vectors(symmetric) is dicke_svecs
    assert bloch_vectors(pure) is svecs
    assert symmetric_moments(symmetric) is dicke_st
    assert symmetric_moments(pure) is pure_st
    # the public mean spin is a copy the caller may change
    total = operators.total_spin_expectation(symmetric)
    total[0] = 5.0
    assert operators.total_spin_expectation(symmetric)[0] == mean[0]


def test_pair_correlations_are_read_only_and_kept():
    haar = haar_pure_state(5, np.random.default_rng(3))
    symmetric = one_axis_twisted_state(5, 0.3)
    for state, pair in ((haar, lambda i, j: correlation_matrix(haar, i + 1, j + 1)),
                        (symmetric, lambda i, j: symmetric_moments(symmetric)[1])):
        table = pair_correlations(state)
        assert table.shape == (5, 5, 3, 3)
        with pytest.raises(ValueError):
            table[0, 1, 0, 0] = 0.0
        assert pair_correlations(state) is table
        for i in range(5):
            assert not table[i, i].any()
            for j in range(i + 1, 5):
                assert np.array_equal(table[i, j], pair(i, j))
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


@pytest.mark.parametrize("run", [
    lambda: analyze_state(one_axis_twisted_state(5, 0.2)),
    lambda: analyze_state(coherent_spin_state(6, 1.1, 0.4)),
    lambda: main(["sweep", "twisted", "--n", "5", "--start", "0.1", "--stop", "0.3",
                  "--points", "3"]) == 0,
], ids=["analyze-twisted5", "analyze-css6", "sweep-twisted5"])
def test_symmetric_analysis_never_embeds_or_reduces(run, monkeypatch):
    # a SymmetricState's Bloch vectors and pair table come from its Dicke
    # moments: no 2^N vector is built and no partial trace is taken
    calls = []
    embed, original_reduce = states.embed_symmetric, reductions.reduce

    def counting_embed(state):
        calls.append("embed_symmetric")
        return embed(state)

    def counting_reduce(target, subset):
        calls.append("reduce")
        return original_reduce(target, subset)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinsqueeze") and getattr(module, "embed_symmetric", None) is embed:
            monkeypatch.setattr(module, "embed_symmetric", counting_embed)
    monkeypatch.setattr(reductions, "reduce", counting_reduce)
    assert run()
    assert calls == []


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
