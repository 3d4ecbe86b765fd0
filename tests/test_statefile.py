import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinsqueeze import (
    DensityMatrix,
    MixtureTerm,
    PureState,
    SymmetricState,
    ValidationError,
    analyze_state,
    cli,
    coherent_spin_state,
    dicke_state,
    random_separable_terms,
)
from spinsqueeze.sampling import haar_pure_state
from spinsqueeze.statefile import (
    KERNEL_BATCH,
    RENDER_SLICE,
    _decimal,
    _render_slices,
    _scaled,
    _two_product,
    document_to_state,
    dumps,
    load_document,
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
    loaded = document_to_state(load_document(str(path))[0])
    assert np.signbit(loaded.amplitudes.imag[0]) and np.signbit(loaded.amplitudes.real[1])
    assert roundtrip_text(loaded) == path.read_text()


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    save_state(path, bell_state())
    loaded = document_to_state(load_document(path)[0])
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


def _kernel_exactness_values():
    """Doubles where a %.17g renderer can go wrong, with both signs, in a fixed order."""
    rng = np.random.default_rng(2011)
    binades = 2.0 ** np.arange(-1074, 1024)
    mantissas = np.concatenate([[1.0, np.nextafter(2.0, 0)], 1 + rng.random(4)])
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    edges = np.array([1e-6, 1e-22, 1e-28, 1e16, 1e17])
    ties = []  # m 2**-j whose 18 digits m 5**j end in 5: exact 17-digit ties
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        ties += [math.ldexp(m | 1, -j) for m in rng.integers(low, high, size=100).tolist()]
    values = np.concatenate([
        (binades[:, None] * mantissas).ravel(), [2.0**-1074, np.finfo(float).max],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        ties, 10.0 ** rng.uniform(-30, 18, size=20000), [0.0]])
    values = values[values < np.inf]
    return np.concatenate([values, -values])


def test_kernel_formats_every_float_as_percent_17g():
    values = _kernel_exactness_values()
    expected = ["%.17g" % v for v in values.tolist()]
    assert len(values) > RENDER_SLICE  # the kernel's side of the size split
    text = render_json(values.view(complex))
    assert text.replace("[", "").replace("]", "").split(",") == expected
    # the double 1e-14 lies below 10**-14, and its 17 digits round up to it in the kernel
    assert Fraction(1e-14) < Fraction(1, 10**14) and not _decimal(np.array([1e-14]))[2][0]


def test_error_free_products_are_exact():
    rng = np.random.default_rng(44)
    a = 10.0 ** rng.uniform(-28, 17, size=500)
    k = rng.integers(0, 23, size=500)
    p, e = _two_product(a, k)
    for a_i, k_i, p_i, e_i in zip(a.tolist(), k.tolist(), p.tolist(), e.tolist()):
        assert Fraction(p_i) + Fraction(e_i) == Fraction(a_i) * 10**k_i
    small = 10.0 ** rng.uniform(-28, -6, size=500)  # the two-stage products, near 1e16
    k = 16 - np.floor(np.log10(small)).astype(np.int64)
    p, rest, unsure = _scaled(small, k)
    for a_i, k_i, p_i, r_i in zip(small.tolist(), k.tolist(), p.tolist(), rest.tolist()):
        assert abs(Fraction(p_i) + Fraction(r_i) - Fraction(a_i) * 10**k_i) < Fraction(1, 2**48)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_entries_cannot_be_serialized(bad):
    for part in (complex(bad, 0.0), complex(0.0, bad)):
        vector = np.array([0.5, part, 0.5])
        matrix = np.array([[0.5, 0.0], [0.0, part]])
        for doc in (vector, matrix, {"amplitudes": vector}, {"terms": [{"factors": [matrix]}]}):
            with pytest.raises(ValidationError, match="cannot serialize non-finite numbers"):
                dumps(doc)


EXTREMES = (complex(-0.0, TINY), complex(1e308, -1e308), complex(-TINY, -0.0))
# the slice length and the kernel's size split, then the vector entries of one kernel batch
BOUNDARY_LENGTHS = (RENDER_SLICE - 1, RENDER_SLICE, RENDER_SLICE + 1,
                    KERNEL_BATCH // 2 - 1, KERNEL_BATCH // 2, KERNEL_BATCH // 2 + 1)


def _unit_vector_with_extremes(length, rng):
    """A unit complex vector that starts with -0.0 parts and subnormals."""
    planted = [complex(-0.0, TINY), complex(-TINY, -0.0), complex(-0.0, -0.0)]
    rest = rng.normal(size=length - len(planted)) + 1j * rng.normal(size=length - len(planted))
    return np.concatenate([planted, rest / np.linalg.norm(rest)])


def test_saved_files_equal_dumps_at_the_slice_boundaries(tmp_path, rng, capsys):
    symmetric = [SymmetricState(length - 1, _unit_vector_with_extremes(length, rng))
                 for length in BOUNDARY_LENGTHS]
    pure = PureState(7, _unit_vector_with_extremes(2**7, rng))
    dense = DensityMatrix(3, np.diag([complex(0.5, -0.0), 0.5, -0.0, TINY, 0, 0, 0, 0]))
    mixture = [MixtureTerm(0.25, (np.array([[1.0, -0.0], [-0.0, TINY]]), np.eye(2) / 2)),
               MixtureTerm(0.75, (np.eye(2) / 2, np.diag([-0.0, 1.0])))]
    path = tmp_path / "state.json"
    for state in (*symmetric, pure, dense, mixture, random_separable_terms(3, 4, seed=5)):
        save_state(path, state)
        expected = dumps(state_to_document(state))
        assert path.read_text() == expected == dumps(list_state_document(state))
    for n in (RENDER_SLICE, 2 * RENDER_SLICE + 1):
        expected = dumps(state_to_document(dicke_state(n, 3)))
        assert cli.main(["generate", "dicke", "--n", str(n), "--k", "3",
                         "--output", str(path)]) == 0
        assert cli.main(["generate", "dicke", "--n", str(n), "--k", "3"]) == 0
        assert path.read_text() == capsys.readouterr().out == expected


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_arrays_render_in_slices_at_the_slice_boundaries(length, rng):
    vector = rng.normal(size=length) + 1j * rng.normal(size=length)
    vector[:3] = EXTREMES
    matrix = np.stack([vector, vector[::-1], -vector], axis=1)  # length rows
    for array in (vector, matrix, np.asfortranarray(matrix), matrix[::-1, ::-2]):
        lists = complex_rows(array) if array.ndim == 2 else [complex_pair_list(z) for z in array]
        slices = list(_render_slices(array))
        assert len(slices) == -(-length // RENDER_SLICE) + 1  # the entries or rows, then "]"
        assert "".join(slices) == render_json(lists)
        assert dumps({"a": array}) == dumps({"a": lists})


def _unvalidated_pure_state(amplitudes):
    state = object.__new__(PureState)
    object.__setattr__(state, "num_qubits", 1)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_refused_document_leaves_no_file(bad, tmp_path, monkeypatch, capsys):
    amplitudes = np.full(2 * RENDER_SLICE + 1, 0.5 + 0j)
    amplitudes[-1] = bad  # in the last slice
    state = _unvalidated_pure_state(amplitudes)
    path = tmp_path / "refused.json"
    with pytest.raises(ValidationError, match="cannot serialize non-finite numbers"):
        save_state(path, state)
    assert not path.exists()
    monkeypatch.setattr(cli, "coherent_spin_state", lambda *args: state)
    assert cli.main(["generate", "css", "--n", "1", "--output", str(path)]) == 2
    assert cli.main(["generate", "css", "--n", "1"]) == 2
    assert not path.exists()
    assert capsys.readouterr() == ("", "error: cannot serialize non-finite numbers\n" * 2)


def test_an_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys):
    n = str(2 * RENDER_SLICE)
    assert cli.main(["generate", "dicke", "--n", n, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(tmp_path)!r}: ") and err.count("\n") == 1


def test_generate_holds_one_slice_of_text_at_a_time(tmp_path):
    qubits = [arg for q in range(14) for arg in ("--qubit", f"{0.3 + 0.1 * q},{0.2 * q}")]
    argv = ["generate", "product", *qubits, "--output", str(tmp_path / "product14.json")]
    assert cli.main(argv) == 0  # caches filled, as in the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the amplitudes and np.kron's last product; the file's text alone is 3.0 arrays
    assert peak < 3 * 16 * 2**14


class _Entered(Exception):
    pass


def test_analysis_starts_with_the_file_bytes_and_document_released(tmp_path, monkeypatch):
    path = tmp_path / "haar14.json"
    save_state(path, haar_pure_state(14, np.random.default_rng(14)))
    entered = []

    def stop_at_entry(state, **kwargs):
        entered.append(tracemalloc.get_traced_memory()[0])
        raise _Entered

    monkeypatch.setattr(cli, "analyze_state", stop_at_entry)
    with pytest.raises(_Entered):
        cli.main(["analyze", str(path)])  # caches filled, as in the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(_Entered):
            cli.main(["analyze", str(path)])
    finally:
        tracemalloc.stop()
    # the amplitudes; the file's bytes alone are 2.9 arrays, its parsed lists about 9
    assert entered[-1] - base <= 2 * 16 * 2**14
