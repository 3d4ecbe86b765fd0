import json
import math

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    MixtureTerm,
    PureState,
    SymmetricState,
    ValidationError,
    analyze_state,
    coherent_spin_state,
    random_separable_terms,
)
from spinsqueeze.statefile import (
    document_to_state,
    dumps,
    load_state,
    realize,
    render_json,
    save_state,
    state_to_document,
)

from conftest import bell_state
from oracles import complex_pair_list, complex_rows, list_state_document


def roundtrip_text(state):
    return dumps(state_to_document(state))


def test_round_trip_is_byte_identical_for_all_kinds(tmp_path, rng):
    pure = bell_state()
    dense = DensityMatrix(2, np.outer(pure.amplitudes, pure.amplitudes.conj()))
    symmetric = coherent_spin_state(3, 1.1, 2.2)
    mixture = random_separable_terms(3, 4, seed=5)
    for idx, state in enumerate((pure, dense, symmetric, mixture)):
        first = roundtrip_text(state)
        parsed = document_to_state(json.loads(first))
        second = roundtrip_text(parsed)
        assert first == second, f"kind {idx} round trip not byte-identical"


def test_negative_zero_survives_a_file_round_trip(tmp_path):
    state = PureState(1, np.array([complex(1.0, -0.0), complex(-0.0, 0.0)]))
    path = tmp_path / "zeros.json"
    save_state(str(path), state)
    assert path.read_text().endswith('"amplitudes":[[1,-0],[-0,0]]}\n')
    loaded = load_state(str(path))
    assert np.signbit(loaded.amplitudes.imag[0]) and np.signbit(loaded.amplitudes.real[1])
    assert roundtrip_text(loaded) == path.read_text()


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    save_state(path, bell_state())
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    assert np.allclose(loaded.amplitudes, bell_state().amplitudes)


def test_mixture_realizes_to_density_matrix():
    terms = random_separable_terms(2, 3, seed=9)
    parsed = document_to_state(json.loads(roundtrip_text(terms)))
    rho = realize(parsed)
    assert isinstance(rho, DensityMatrix)


def test_seventeen_digit_floats():
    text = roundtrip_text(PureState(1, np.array([math.sqrt(1 / 3), math.sqrt(2 / 3)])))
    assert "0.57735026918962573" in text


def test_errors_name_the_offending_field():
    with pytest.raises(ValidationError, match="format_version"):
        document_to_state({"kind": "pure"})
    with pytest.raises(ValidationError, match="kind"):
        document_to_state({"format_version": "1", "kind": "wave", "num_qubits": 1})
    with pytest.raises(ValidationError, match="num_qubits"):
        document_to_state({"format_version": "1", "kind": "pure", "num_qubits": "two"})
    with pytest.raises(ValidationError, match="amplitudes"):
        document_to_state({"format_version": "1", "kind": "pure", "num_qubits": 1,
                           "amplitudes": [[1.0, 0.0], ["x", 0.0]]})
    for kind, message in [
        ("pure", "state file is missing field 'amplitudes' for kind 'pure'"),
        ("density", "state file is missing field 'matrix' for kind 'density'"),
        ("symmetric", "state file is missing field 'dicke_amplitudes' for kind 'symmetric'"),
        ("mixture", "state file is missing field 'terms' for kind 'mixture'"),
    ]:
        with pytest.raises(ValidationError) as missing:
            document_to_state({"format_version": "1", "kind": kind, "num_qubits": 1})
        assert str(missing.value) == message


def test_objects_without_a_state_kind_are_refused():
    term = random_separable_terms(2, 1, seed=3)[0]
    with pytest.raises(ValidationError) as unknown:
        state_to_document(term)
    assert str(unknown.value) == "cannot serialize MixtureTerm as a state file"
    with pytest.raises(TypeError) as unanalyzable:
        analyze_state(term)
    assert str(unanalyzable.value) == "cannot analyze MixtureTerm"


def test_json_booleans_are_not_numbers():
    with pytest.raises(ValidationError, match="num_qubits"):
        document_to_state({"format_version": "1", "kind": "pure", "num_qubits": True,
                           "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValidationError, match="amplitudes"):
        document_to_state({"format_version": "1", "kind": "pure", "num_qubits": 1,
                           "amplitudes": [[True, False], [0, 0]]})
    doc = state_to_document(random_separable_terms(2, 1, seed=3))
    doc["terms"][0]["weight"] = True
    with pytest.raises(ValidationError, match="weight"):
        document_to_state(doc)


def test_deserialization_revalidates_invariants():
    doc = {"format_version": "1", "kind": "pure", "num_qubits": 1,
           "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ValidationError):
        document_to_state(doc)


TINY = 5e-324  # the smallest subnormal double


def test_files_are_byte_identical_to_the_list_document():
    pure = PureState(2, np.array([complex(-0.0, TINY), complex(0.6, -0.0),
                                  complex(-TINY, 0.0), complex(0.0, -0.8)]))
    dense = DensityMatrix(2, np.diag([complex(0.5, -0.0), 0.5, -0.0, TINY]))
    symmetric = SymmetricState(3, np.array([complex(-0.0, 0.6), complex(TINY, -0.0),
                                            complex(0.8, -TINY), complex(-0.0, -0.0)]))
    mixture = [MixtureTerm(0.25, (np.array([[1.0, -0.0], [-0.0, TINY]]),
                                  np.array([[0.5, complex(-TINY, 0.5)],
                                            [complex(-TINY, -0.5), 0.5]]))),
               MixtureTerm(0.75, (np.eye(2) / 2, np.diag([-0.0, 1.0])))]
    states = (pure, dense, symmetric, mixture, bell_state(), coherent_spin_state(40, 1.1, 2.2),
              random_separable_terms(3, 4, seed=5))
    for state in states:
        assert dumps(state_to_document(state)) == dumps(list_state_document(state))


def test_array_rendering_matches_the_float_lists_at_the_extremes():
    values = np.array([[complex(1e308, -1e308), complex(-0.0, TINY)],
                       [complex(-TINY, -0.0), complex(2.2250738585072014e-308, 1 / 3)]])
    assert render_json(values) == render_json(complex_rows(values))
    assert render_json(values[1]) == render_json([complex_pair_list(z) for z in values[1]])
    assert render_json(values) == ("[[[1e+308,-1e+308],[-0,4.9406564584124654e-324]],"
                                   "[[-4.9406564584124654e-324,-0],"
                                   "[2.2250738585072014e-308,0.33333333333333331]]]")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_entries_cannot_be_serialized(bad):
    for part in (complex(bad, 0.0), complex(0.0, bad)):
        vector = np.array([0.5, part, 0.5])
        matrix = np.array([[0.5, 0.0], [0.0, part]])
        for doc in (vector, matrix, {"amplitudes": vector}, {"terms": [{"factors": [matrix]}]}):
            with pytest.raises(ValidationError, match="cannot serialize non-finite numbers"):
                dumps(doc)
