import hashlib
import json
import math
import re
import warnings

import numpy as np

from spinsqueeze.cli import GENERATE_MAX_TERMS, SWEEP_MAX_POINTS, main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def test_generate_css_round_trips_through_analyze(tmp_path, capsys):
    out = tmp_path / "css.json"
    assert run_cli("generate", "css", "--n", "4", "--theta", "1.0",
                   "--phi", "0.5", "--output", str(out)) == 0
    assert run_cli("analyze", str(out)) == 0
    text = capsys.readouterr().out
    assert "xi1 = 1 " in text or "xi1 = 1\n" in text or "xi1 = 1  " in text


def test_generate_css_one_qubit_round_trips_through_analyze(tmp_path, capsys):
    # one qubit has no pair: the symmetric file reports like a one-qubit pure file
    css = tmp_path / "css1.json"
    pure = tmp_path / "pure1.json"
    assert run_cli("generate", "css", "--n", "1", "--theta", "0.7", "--phi", "0.2",
                   "--output", str(css)) == 0
    from spinsqueeze import coherent_spin_state, embed_symmetric
    from spinsqueeze.statefile import save_state

    save_state(pure, embed_symmetric(coherent_spin_state(1, 0.7, 0.2)))
    reports = []
    for path in (css, pure):
        assert run_cli("analyze", str(path), "--format", "machine") == 0
        reports.append(json.loads(capsys.readouterr().out))
    symmetric, qubit = reports
    assert symmetric["exchange_symmetric"] is qubit["exchange_symmetric"] is False
    assert symmetric["pair_correlations"] == qubit["pair_correlations"] == []
    assert symmetric["local_invariant_symmetric"] is None
    common = symmetric["bloch_vectors"]["common"]
    assert max(abs(a - b) for a, b in zip(common, qubit["bloch_vectors"]["per_qubit"][0])) < 1e-12
    assert abs(math.hypot(*common) - 1.0) < 1e-12
    assert run_cli("analyze", str(css)) == 0
    assert "exchange symmetric: no" in capsys.readouterr().out


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("generate", "random-separable", "--n", "3", "--terms", "5",
            "--seed", "11", "--output", str(a))
    run_cli("generate", "random-separable", "--n", "3", "--terms", "5",
            "--seed", "11", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_parameters(capsys):
    assert run_cli("generate", "css", "--theta", "1.0") == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("generate", "dicke", "--n", "3", "--k", "9") == 2


def test_generate_product_beyond_capacity_exits_2_without_building(monkeypatch, capsys):
    def kron(*args):
        raise AssertionError("built the product before the capacity guard")

    monkeypatch.setattr(np, "kron", kron)
    assert run_cli("generate", "product", *["--qubit=0.3,0.1"] * 28) == 2
    assert capsys.readouterr().err == (
        "error: full state vectors are limited to 20 qubits, got 28\n")


def test_generate_product_refuses_an_n_other_than_its_qubit_count(capsys):
    assert run_cli("generate", "product", "--n", "3", "--qubit", "1,2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n 3 differs from the number of --qubit values, 1\n"
    assert run_cli("generate", "product", "--n", "2", "--qubit", "1,2", "--qubit", "0.5,0") == 0
    assert json.loads(capsys.readouterr().out)["num_qubits"] == 2


def test_analyze_section3_product_state(tmp_path, capsys):
    out = tmp_path / "prod.json"
    # factors (sqrt(3)/2, 1/2) and (sqrt(3)/2, -1/2) as Bloch angles
    assert run_cli("generate", "product",
                   "--qubit", f"{math.pi / 3},0",
                   "--qubit", f"{math.pi / 3},{math.pi}",
                   "--output", str(out)) == 0
    assert run_cli("analyze", str(out), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["standard"]["xi1"] - 0.5) < 1e-9
    assert report["witness"]["verdict"] == "Inconclusive"


def test_analyze_bell_state_reports_reasons(tmp_path, capsys):
    out = tmp_path / "bell.json"
    from spinsqueeze.statefile import save_state
    from conftest import bell_state

    save_state(out, bell_state())
    assert run_cli("analyze", str(out), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["standard"]["xi1"] is None
    assert report["standard"]["undefined_reason"] == "MeanSpinZero"
    assert report["local_invariant_general"]["undefined_reason"] == "QubitBlochZero"
    text = json.dumps(report)
    assert "NaN" not in text


def test_analyze_schmidt_state_verdict(tmp_path, capsys):
    out = tmp_path / "schmidt.json"
    from spinsqueeze.statefile import save_state
    from conftest import schmidt_state

    save_state(out, schmidt_state(math.pi / 8))
    assert run_cli("analyze", str(out), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["local_invariant_general"]["xi1_tilde"] - 0.541196100146197) < 1e-9
    assert report["witness"]["verdict"] == "PairwiseEntangled"
    assert abs(report["witness"]["invariant_i"] + 0.5) < 1e-12


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version":"1","kind":"pure","num_qubits":2,"amplitudes":[[1,0]]}')
    assert run_cli("analyze", str(bad)) == 2
    assert "amplitudes" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert run_cli("analyze", str(missing)) == 2


def test_analyze_rejects_json_booleans_as_numbers(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"format_version": "1", "kind": "pure", "num_qubits": true, '
                   '"amplitudes": [[true, false], [0, 0]]}')
    assert run_cli("analyze", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_rejects_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"format_version": "1", "kind": "pure\xe9"}')
    assert run_cli("analyze", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: state file is not UTF-8")


def test_analyze_rejects_deeply_nested_file(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert run_cli("analyze", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: state file nests too deeply")


def test_analyze_rejects_nan_amplitude(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"format_version": "1", "kind": "pure", "num_qubits": 1, '
                   '"amplitudes": [[NaN, 0], [0, 0]]}')
    assert run_cli("analyze", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state norm nan ")
    assert "np.float64" not in err


def test_analyze_rejects_infinite_density_entry(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text('{"format_version": "1", "kind": "density", "num_qubits": 1, '
                   '"matrix": [[[Infinity, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's invalid-value warning would print first
        assert run_cli("analyze", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: matrix is not Hermitian: entry (0, 0) is (inf+0j), not finite")


def _pure_document(n, norm, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps *= norm / np.linalg.norm(amps)
    return {"format_version": "1", "kind": "pure", "num_qubits": n,
            "amplitudes": [[float(z.real), float(z.imag)] for z in amps]}


def _diagonal_density_document(n, low):
    # |0...00> and |0...01> weigh `low`; the other basis states share the rest
    diag = np.full(2**n, (1 - 2 * low) / (2**n - 2))
    diag[:2] = low
    return {"format_version": "1", "kind": "density", "num_qubits": n,
            "matrix": [[[float(diag[r]) if r == c else 0.0, 0.0] for c in range(2**n)]
                       for r in range(2**n)]}


def test_analyze_reads_files_inside_the_reader_tolerances(tmp_path, capsys):
    # the reader accepts a norm within 1e-12 of 1 and eigenvalues down to
    # -1e-10; the pair reductions derived from such a state are not validated
    # again, so their own trace (the norm squared) or eigenvalues cannot
    # refuse a file the reader took
    documents = {
        "pure2": _pure_document(2, 1 + 0.9e-12, 1),
        "pure3": _pure_document(3, 1 + 0.9e-12, 2),
        "density3": _diagonal_density_document(3, -9e-11),
    }
    for name, document in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        for fmt in ("text", "machine"):
            assert run_cli("analyze", str(path), "--format", fmt) == 0, (name, fmt)
            assert capsys.readouterr().err == ""


def test_analyze_refuses_files_just_outside_the_reader_tolerances(tmp_path, capsys):
    documents = {
        "pure2": (_pure_document(2, 1 + 2e-12, 1),
                  r"error: state norm 1\.00000000000[12]\d* differs from 1 by more than 1e-12\n"),
        "density3": (_diagonal_density_document(3, -2e-10),
                     r"error: matrix has an eigenvalue below the positivity tolerance\n"),
    }
    for name, (document, message) in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        for fmt in ("text", "machine"):
            assert run_cli("analyze", str(path), "--format", fmt) == 2, (name, fmt)
            assert re.fullmatch(message, capsys.readouterr().err), (name, fmt)


def _mixture_document(n, terms):
    # terms: (weight, diagonal of every factor) pairs
    def factor(diagonal):
        return [[[diagonal[r] if r == c else 0.0, 0.0] for c in range(2)] for r in range(2)]

    return {"format_version": "1", "kind": "mixture", "num_qubits": n,
            "terms": [{"weight": w, "factors": [factor(d)] * n} for w, d in terms]}


def test_analyze_mixes_weights_inside_the_reader_tolerance(tmp_path, capsys):
    # -5e-10 and 1 + 5e-10 sum to 1 and each is within 1e-9 of [0, 1]; the
    # negative weight is mixed as 0, so the file reads as the weights (0, 1)
    documents = {
        "tolerated": _mixture_document(1, [(-5e-10, (1.0, 0.0)), (1 + 5e-10, (0.0, 1.0))]),
        "exact": _mixture_document(1, [(0.0, (1.0, 0.0)), (1.0, (0.0, 1.0))]),
    }
    reports = {}
    for name, document in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        assert run_cli("analyze", str(path)) == 0, name
        out, err = capsys.readouterr()
        assert err == ""
        reports[name] = [line for line in out.split("\n")
                         if not line.startswith(("input:", "sha256:"))]
    assert reports["tolerated"] == reports["exact"]


def test_analyze_names_the_mix_when_factors_inside_the_tolerance_mix_outside(tmp_path, capsys):
    # each factor diag(1 + 1e-10, -1e-10) has its eigenvalue at the -1e-10
    # bound, and their product's -(1 + 1e-10) 1e-10 is past it
    path = tmp_path / "product.json"
    path.write_text(json.dumps(_mixture_document(2, [(1, (1 + 1e-10, -1e-10))])))
    for fmt in ("text", "machine"):
        assert run_cli("analyze", str(path), "--format", fmt) == 2, fmt
        assert capsys.readouterr().err == (
            "error: the mix of the mixture terms is not a density matrix: "
            "matrix has an eigenvalue below the positivity tolerance\n")


def test_analyze_rejects_ragged_matrix_rows(tmp_path, capsys):
    files = {
        "matrix": '{"format_version": "1", "kind": "density", "num_qubits": 1, '
                  '"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}',
        "terms[0].factors": '{"format_version": "1", "kind": "mixture", "num_qubits": 1, '
                            '"terms": [{"weight": 1, "factors": [[[[1, 0], [0, 0]], [[0, 0]]]]}]}',
    }
    for field, text in files.items():
        bad = tmp_path / "ragged.json"
        bad.write_text(text)
        assert run_cli("analyze", str(bad)) == 2
        err = capsys.readouterr().err
        assert err == f"error: field {field!r} has rows of different lengths\n"


def test_analyze_rejects_overflowing_entries_with_one_error_line(tmp_path, capsys):
    files = {
        "state norm inf ": '{"format_version": "1", "kind": "pure", "num_qubits": 1, '
                           '"amplitudes": [[1e308, 0], [1e308, 0]]}',
        "state norm inf": '{"format_version": "1", "kind": "symmetric", "num_qubits": 1, '
                          '"dicke_amplitudes": [[1e308, 1e308], [0, 0]]}',
        "trace inf ": '{"format_version": "1", "kind": "density", "num_qubits": 1, '
                      '"matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}',
        "matrix is not Hermitian": '{"format_version": "1", "kind": "density", "num_qubits": 1, '
                                   '"matrix": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]}',
        "factor 0 does not have unit trace": (
            '{"format_version": "1", "kind": "mixture", "num_qubits": 1, "terms": '
            '[{"weight": 1, "factors": [[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]}]}'),
    }
    for message, text in files.items():
        bad = tmp_path / "huge.json"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would print first
            assert run_cli("analyze", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)


def _integer_too_large_for_a_float_files(digits):
    big = "1" + "0" * digits
    return {
        "amplitudes": '{"format_version": "1", "kind": "pure", "num_qubits": 1, '
                      f'"amplitudes": [[{big}, 0], [0, 0]]}}',
        "dicke_amplitudes": '{"format_version": "1", "kind": "symmetric", "num_qubits": 1, '
                            f'"dicke_amplitudes": [[1, 0], [0, -{big}]]}}',
        "matrix": '{"format_version": "1", "kind": "density", "num_qubits": 1, '
                  f'"matrix": [[[1, 0], [0, 0]], [[0, 0], [{big}, 0]]]}}',
        "terms[0].factors": '{"format_version": "1", "kind": "mixture", "num_qubits": 1, '
                            f'"terms": [{{"weight": 1, "factors": [[[[{big}, 0], [0, 0]], '
                            '[[0, 0], [0, 0]]]]}]}',
        "term 0 field 'weight'": '{"format_version": "1", "kind": "mixture", "num_qubits": 1, '
                                 f'"terms": [{{"weight": {big}, "factors": [[[[1, 0], [0, 0]], '
                                 '[[0, 0], [0, 0]]]]}]}',
    }


def test_analyze_rejects_integers_too_large_for_a_float(tmp_path, capsys):
    # 400 digits overflow a double; 5000 are more than int() converts from a string
    for digits in (400, 5000):
        for field, text in _integer_too_large_for_a_float_files(digits).items():
            bad = tmp_path / "big.json"
            bad.write_text(text)
            assert run_cli("analyze", str(bad)) == 2
            where = field if field.startswith("term ") else f"field {field!r}"
            assert capsys.readouterr().err == (
                f"error: {where} holds an integer too large for a float\n")


def test_analyze_names_fields_with_integers_too_long_to_convert(tmp_path, capsys):
    files = {
        "field 'num_qubits' must be a positive integer":
            '{"format_version": "1", "kind": "pure", "num_qubits": 1' + "0" * 5000
            + ', "amplitudes": [[1, 0], [0, 0]]}',
        "unsupported format_version <integer of 5001 digits> (expected '1')":
            '{"format_version": 1' + "0" * 5000 + ', "kind": "pure", "num_qubits": 1}',
    }
    for message, text in files.items():
        bad = tmp_path / "long.json"
        bad.write_text(text)
        assert run_cli("analyze", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_generate_random_separable_refuses_more_qubits_than_analyze_reads(monkeypatch, capsys):
    def default_rng(*args):
        raise AssertionError("sampled before the capacity guard")

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    for n in ("11", "1000000"):
        assert run_cli("generate", "random-separable", "--n", n) == 2
        assert capsys.readouterr().err == (
            f"error: density matrices are limited to 10 qubits, got {n}\n")


def test_generate_random_separable_terms_are_bounded(capsys):
    assert run_cli("generate", "random-separable", "--n", "2",
                   "--terms", str(GENERATE_MAX_TERMS + 1)) == 2
    assert capsys.readouterr().err == (
        f"error: --terms must be at most {GENERATE_MAX_TERMS}, got {GENERATE_MAX_TERMS + 1}\n")
    assert run_cli("generate", "random-separable", "--n", "2",
                   "--terms", str(GENERATE_MAX_TERMS)) == 0
    assert capsys.readouterr().out.count('"weight"') == GENERATE_MAX_TERMS


def test_generate_rejects_negative_seed(capsys):
    assert run_cli("generate", "random-separable", "--n", "2", "--seed", "-5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -5\n"


def test_analyze_reports_the_digest_of_the_bytes_it_parsed(tmp_path, capsys):
    state = tmp_path / "css.json"
    assert run_cli("generate", "css", "--n", "3", "--output", str(state)) == 0
    assert run_cli("analyze", str(state), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["sha256"] == hashlib.sha256(state.read_bytes()).hexdigest()


def test_generate_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run_cli("generate", "css", "--n", "3", "--output", str(target)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}")


def test_analyze_to_missing_directory_exits_2(tmp_path, capsys):
    state = tmp_path / "css.json"
    assert run_cli("generate", "css", "--n", "8", "--theta", "0.5", "--output", str(state)) == 0
    target = tmp_path / "missing" / "x"
    assert run_cli("analyze", str(state), "--output", str(target)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}")


def test_analyze_is_deterministic_modulo_timestamp(tmp_path, capsys):
    out = tmp_path / "tw.json"
    run_cli("generate", "twisted", "--n", "6", "--mu", "0.3", "--output", str(out))
    run_cli("analyze", str(out), "--format", "machine")
    first = json.loads(capsys.readouterr().out)
    run_cli("analyze", str(out), "--format", "machine")
    second = json.loads(capsys.readouterr().out)
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second


def test_analyze_twisted_state_reports_squeezing(tmp_path, capsys):
    out = tmp_path / "tw.json"
    assert run_cli("generate", "twisted", "--n", "10", "--mu", "0.2",
                   "--output", str(out)) == 0
    assert run_cli("analyze", str(out), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["standard"]["xi1"] < 1.0


def test_analyze_large_symmetric_state_skips_full_vector_paths(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert run_cli("generate", "css", "--n", "200", "--theta", "0.8",
                   "--output", str(out)) == 0
    assert run_cli("analyze", str(out), "--format", "machine") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["standard"]["xi1"] - 1.0) < 1e-9
    assert "skipped" in report["local_invariant_general"]
    assert abs(report["local_invariant_symmetric"]["xi1_tilde"] - 1.0) < 1e-9


def test_sweep_schmidt_closed_forms(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "schmidt", "--start", "0", "--stop",
                   str(math.pi / 4), "--points", "64", "--output", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["parameter", "xi1", "xi2", "xi1_tilde", "xi2_tilde",
                      "concurrence", "invariant_i"]
    assert len(rows) == 64
    for row in rows:
        theta = float(row[0])
        conc = float(row[5])
        assert abs(conc - math.sin(2 * theta)) < 1e-12
        if row[1]:
            assert abs(float(row[1]) - math.sqrt(1 - math.sin(2 * theta))) < 1e-9
        if row[3]:
            assert abs(float(row[3]) - math.sqrt(1 - conc)) < 1e-9
    # theta = 0 row: unsqueezed product state
    assert abs(float(rows[0][1]) - 1.0) < 1e-12
    assert abs(float(rows[0][3]) - 1.0) < 1e-12
    assert float(rows[0][5]) == 0.0
    # theta = pi/4 row: Bell state, xi columns empty
    assert rows[-1][1] == "" and rows[-1][3] == ""
    assert abs(float(rows[-1][5]) - 1.0) < 1e-12


def test_sweep_schmidt_refuses_an_n_other_than_2(capsys):
    argv = ["sweep", "schmidt", "--start", "0", "--stop", "0.5", "--points", "2"]
    assert run_cli(*argv, "--n", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: schmidt sweeps two-qubit states; --n must be 2, got 5\n"
    assert run_cli(*argv, "--n", "2") == 0
    assert capsys.readouterr().out.count("\n") == 3


def test_parameters_a_kind_does_not_read_are_refused(tmp_path, capsys):
    sweep = ["--start", "0", "--stop", "0.2", "--points", "2"]
    cases = [
        (["generate", "css", "--n", "2", "--mu", "0.5", "--k", "7", "--terms", "9", "--seed", "3"],
         "generate css does not read --mu, --k, --terms, --seed"),
        (["generate", "css", "--n", "2", "--qubit", "1,0"], "generate css does not read --qubit"),
        # a given value is refused even when it equals the default
        (["generate", "twisted", "--n", "2", "--theta", "0", "--phi", "0"],
         "generate twisted does not read --theta, --phi"),
        (["generate", "dicke", "--n", "3", "--k", "1", "--mu", "0"],
         "generate dicke does not read --mu"),
        (["generate", "product", "--qubit", "1,0", "--seed", "0"],
         "generate product does not read --seed"),
        (["generate", "random-separable", "--n", "2", "--k", "1"],
         "generate random-separable does not read --k"),
        (["sweep", "twisted", "--n", "3", "--phi", "0.4", *sweep],
         "sweep twisted does not read --phi"),
        (["sweep", "schmidt", "--phi", "0", *sweep], "sweep schmidt does not read --phi"),
    ]
    for argv, message in cases:
        assert run_cli(*argv, "--output", str(tmp_path / "out")) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_parameters_a_kind_reads_may_be_given_at_their_defaults(capsys):
    pairs = [
        (["generate", "css", "--n", "3"], ["--theta", "0", "--phi", "0"]),
        (["generate", "twisted", "--n", "3"], ["--mu", "0"]),
        (["generate", "dicke", "--n", "3"], ["--k", "0"]),
        (["generate", "product", "--qubit", "1,0"], ["--n", "1"]),
        (["generate", "random-separable", "--n", "2"], ["--terms", "1", "--seed", "0"]),
        (["sweep", "css", "--start", "0", "--stop", "1", "--points", "2"],
         ["--n", "2", "--phi", "0"]),
        (["sweep", "twisted", "--start", "0", "--stop", "1", "--points", "2"], ["--n", "2"]),
    ]
    for argv, defaults in pairs:
        assert run_cli(*argv) == 0
        implicit = capsys.readouterr().out
        assert run_cli(*argv, *defaults) == 0
        assert capsys.readouterr().out == implicit, argv


def test_sweep_twisted_shows_squeezing(tmp_path):
    out = tmp_path / "tw.csv"
    assert run_cli("sweep", "twisted", "--n", "10", "--start", "0.05",
                   "--stop", "0.45", "--points", "9", "--output", str(out)) == 0
    _, rows = read_csv(out)
    xi1 = [float(r[1]) for r in rows]
    assert min(xi1) < 0.9


def test_sweep_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert run_cli("sweep", "schmidt", "--start", "0", "--stop", "0.5", "--points", "3",
                   "--output", str(target)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}")


def test_sweep_rejects_nan_parameter(capsys):
    assert run_cli("sweep", "schmidt", "--start", "0", "--stop", "nan", "--points", "2") == 2
    assert capsys.readouterr().err.startswith("error: --stop must be finite, got nan")


def test_non_finite_parameters_exit_2_with_one_error_line(capsys):
    cases = [
        (["generate", "product", "--qubit", "inf,0"], "--qubit 'inf,0' is not finite"),
        (["generate", "product", "--qubit", "0.5,nan"], "--qubit '0.5,nan' is not finite"),
        (["generate", "twisted", "--n", "4", "--mu", "inf"], "twisting strength mu inf"),
        (["generate", "twisted", "--n", "4", "--mu", "nan"], "twisting strength mu nan"),
        (["generate", "twisted", "--n", "4", "--mu", "1e308"], "twisting strength mu 1e+308"),
        (["generate", "css", "--n", "4", "--phi", "inf"], "azimuthal angle phi inf"),
        (["sweep", "css", "--n", "4", "--start", "0", "--stop", "1", "--points", "2",
          "--phi", "nan"], "azimuthal angle phi nan"),
        (["sweep", "twisted", "--n", "4", "--start", "0", "--stop", "1e308", "--points", "2"],
         "twisting strength mu 1e+308"),
        (["sweep", "schmidt", "--start", "0", "--stop", "inf", "--points", "2"],
         "--stop must be finite, got inf"),
        (["sweep", "schmidt", "--start", "nan", "--stop", "1", "--points", "2"],
         "--start must be finite, got nan"),
        (["sweep", "schmidt", "--start=-1e308", "--stop", "1e308", "--points", "2"],
         "--stop - --start overflows"),
    ]
    for argv, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print before the error
            assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1, argv
        assert err.startswith("error: " + message), err


def test_sweep_points_are_bounded(capsys):
    # only a value the guard rejects: the unguarded allocation is never attempted
    points = str(SWEEP_MAX_POINTS + 1)
    assert run_cli("sweep", "schmidt", "--start", "0", "--stop", "1", "--points", points) == 2
    assert capsys.readouterr().err.startswith("error: --points must be between 1 and")


def test_sweep_uses_lf_and_dot_decimal(tmp_path):
    out = tmp_path / "fmt.csv"
    run_cli("sweep", "schmidt", "--start", "0", "--stop", "0.5", "--points", "3",
            "--output", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw


def test_verify_identities_passes(capsys):
    assert run_cli("verify", "identities", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_separable_bound_passes(capsys):
    assert run_cli("verify", "separable-bound", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_verify_invariance_reports_gauge_dependence(tmp_path, capsys):
    # two-qubit invariance holds; the blanket N<=4 property is genuinely
    # false for the common-orientation evaluation, so the suite fails and
    # serializes the offending state for replay
    code = run_cli("verify", "invariance", "--seed", "1", "--output", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 1
    assert "xi_tilde invariant (two-qubit pure)" in out
    m = re.search(r"replay file: (\S+)", out)
    assert m is not None
    from spinsqueeze.statefile import document_to_state, load_document

    document_to_state(load_document(m.group(1))[0])  # replay file parses and validates


def test_verify_oracle_reports_search_gap(tmp_path, capsys):
    code = run_cli("verify", "oracle", "--seed", "1", "--output", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 1
    assert "quadratic_form_min vs 1e4-point grid" in out
    # the grid check itself passes; the gap is in the independent-angle search
    grid_line = [l for l in out.splitlines() if "grid" in l][0]
    assert "PASS" in grid_line


def test_verify_rejects_negative_seed(capsys):
    assert run_cli("verify", "identities", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


def test_verify_machine_format(capsys):
    assert run_cli("verify", "identities", "--seed", "2", "--format", "machine") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
