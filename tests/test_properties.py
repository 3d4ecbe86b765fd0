"""Property tests of the state-file format and the state validators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinsqueeze import ValidationError
from spinsqueeze.statefile import document_to_state, dumps, loads, realize, state_to_document
from spinsqueeze.states import DensityMatrix, MixtureTerm, PureState, SymmetricState

from oracles import list_state_document

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex_vectors(length):
    return st.lists(st.tuples(_parts, _parts), min_size=length, max_size=length).map(
        lambda pairs: np.array([complex(re, im) for re, im in pairs]))


def _normalized(vec):
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return vec / norm


def _density(vec, dim):
    a = vec.reshape(dim, dim)
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


@st.composite
def pure_states(draw):
    n = draw(st.integers(1, 3))
    return PureState(n, _normalized(draw(_complex_vectors(2**n))))


@st.composite
def symmetric_states(draw):
    n = draw(st.integers(1, 3))
    return SymmetricState(n, _normalized(draw(_complex_vectors(n + 1))))


@st.composite
def density_matrices(draw):
    n = draw(st.integers(1, 3))
    return DensityMatrix(n, _density(draw(_complex_vectors(4**n)), 2**n))


@st.composite
def mixtures(draw):
    n = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
    weights = weights / weights.sum()
    return [MixtureTerm(float(w), tuple(_density(draw(_complex_vectors(4)), 2)
                                        for _ in range(n)))
            for w in weights]


@PROPERTY_SETTINGS
@given(st.one_of(pure_states(), symmetric_states(), density_matrices(), mixtures()))
def test_serialize_parse_serialize_is_byte_identical(state):
    text = dumps(state_to_document(state))
    assert dumps(state_to_document(document_to_state(loads(text)))) == text
    assert dumps(list_state_document(state)) == text


def _number_slots(doc):
    """(container, key) of every number in a document except num_qubits."""
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (dict, list)):
                walk(value)
            elif isinstance(value, (int, float)) and key != "num_qubits":
                slots.append((node, key))

    walk(doc)
    return slots


@PROPERTY_SETTINGS
@given(st.one_of(pure_states(), symmetric_states(), density_matrices(), mixtures()),
       st.integers(0, 10**6),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_entry_is_rejected_without_a_warning(state, index, bad):
    _assert_rejected_without_a_warning(state, index, bad)


@PROPERTY_SETTINGS
@given(st.one_of(pure_states(), symmetric_states(), density_matrices(), mixtures()),
       st.integers(0, 10**6),
       st.sampled_from([1e308, -1e308]))
def test_an_overflowing_entry_is_rejected_without_a_warning(state, index, huge):
    _assert_rejected_without_a_warning(state, index, huge)


def _assert_rejected_without_a_warning(state, index, value):
    doc = loads(dumps(state_to_document(state)))
    slots = _number_slots(doc)
    container, key = slots[index % len(slots)]
    container[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            realize(document_to_state(doc))


def _matrix_rows_of(doc):
    if "matrix" in doc:
        return doc["matrix"]
    return [row for term in doc["terms"] for factor in term["factors"] for row in factor]


@PROPERTY_SETTINGS
@given(st.one_of(density_matrices(), mixtures()), st.integers(0, 10**6))
def test_a_ragged_matrix_is_rejected(state, index):
    doc = loads(dumps(state_to_document(state)))
    rows = _matrix_rows_of(doc)
    rows[index % len(rows)].pop()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="rows of different lengths"):
            realize(document_to_state(doc))
