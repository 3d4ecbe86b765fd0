"""Property tests of the state-file format and the state validators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinsqueeze import ValidationError
from spinsqueeze.statefile import (
    KERNEL_BATCH,
    RENDER_SLICE,
    _parse_complex_matrix,
    _parse_complex_vector,
    document_to_state,
    dumps,
    loads,
    realize,
    render_json,
    save_state,
    state_to_document,
)
from spinsqueeze.states import DensityMatrix, MixtureTerm, PureState, SymmetricState

from oracles import (
    complex_pair_list,
    complex_rows,
    list_state_document,
    parse_complex_matrix,
    parse_complex_vector,
)

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


@PROPERTY_SETTINGS
@given(state=st.one_of(pure_states(), symmetric_states(), density_matrices(), mixtures()))
def test_saved_files_are_the_dumps_text(tmp_path_factory, state):
    path = tmp_path_factory.mktemp("saved") / "state.json"
    save_state(path, state)
    assert path.read_text() == dumps(state_to_document(state))


@st.composite
def _slice_boundary_arrays(draw):
    """Complex vectors and matrices at the slice length or a kernel batch, +-1, any finite parts."""
    rows = draw(st.sampled_from([RENDER_SLICE - 1, RENDER_SLICE, RENDER_SLICE + 1,
                                 KERNEL_BATCH // 2 - 1, KERNEL_BATCH // 2, KERNEL_BATCH // 2 + 1]))
    shape = draw(st.sampled_from([(rows, 2), (rows, 2, 2)]))
    parts = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals, +-1.8e308
    return draw(arrays(float, shape, elements=parts)).view(complex)[..., 0]


@PROPERTY_SETTINGS
@given(_slice_boundary_arrays())
def test_sliced_arrays_render_as_their_float_lists(array):
    lists = (complex_rows(array) if array.ndim == 2
             else [complex_pair_list(z) for z in array])
    assert render_json(array) == render_json(lists)
    assert dumps({"a": array}) == dumps({"a": lists})


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


# Every float and integer a double holds, with the edge values by name, and
# entries the parse must refuse: pairs of length 1 or 3, pairs holding a bool,
# a string, null or a list, and entries that are not lists.
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**1023), 2**1023),
    st.sampled_from([-0.0, 0, 5e-324, -5e-324, 1e308, -1e308, 2**53 + 1, -(2**64) - 1]))
_junk = st.one_of(st.booleans(), st.text(max_size=2), st.none(), st.lists(_numbers, max_size=1))
_pairs = st.lists(_numbers, min_size=2, max_size=2)
_bad_entries = st.one_of(
    st.lists(_numbers, min_size=1, max_size=1),
    st.lists(_numbers, min_size=3, max_size=3),
    st.tuples(_numbers, _junk).map(list),
    st.tuples(_junk, _numbers).map(list),
    _junk)


@st.composite
def _vectors(draw):
    entries = draw(st.lists(_pairs, max_size=8))
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(_bad_entries))
    return entries


@st.composite
def _matrices(draw):
    shape = draw(st.sampled_from(["rectangular", "one bad entry", "ragged", "bad row", "empty"]))
    if shape == "empty":
        return draw(st.sampled_from([[], [[]], [[], []]]))
    if shape == "ragged":
        return draw(st.lists(st.lists(_pairs, max_size=3), min_size=2, max_size=3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = [[draw(_pairs) for _ in range(cols)] for _ in range(rows)]
    if shape == "one bad entry":
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(_bad_entries)
    elif shape == "bad row":
        matrix[draw(st.integers(0, rows - 1))] = draw(_junk)
    return matrix


def _assert_same_parse(parse, oracle, raw):
    try:
        expected = oracle(raw, "field")
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            parse(raw, "field")
        assert str(got.value) == str(exc)
        return
    parsed = parse(raw, "field")
    assert parsed.dtype == expected.dtype and parsed.shape == expected.shape
    assert parsed.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(_vectors(), _junk))
def test_vector_parse_equals_the_per_entry_parse(raw):
    _assert_same_parse(_parse_complex_vector, parse_complex_vector, raw)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(_matrices(), _junk))
def test_matrix_parse_equals_the_per_entry_parse(raw):
    _assert_same_parse(_parse_complex_matrix, parse_complex_matrix, raw)
