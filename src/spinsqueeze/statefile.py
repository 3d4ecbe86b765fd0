"""State file format: versioned JSON documents for every state kind.

Layout (format_version "1"):

    {"format_version": "1", "kind": "pure",      "num_qubits": N,
     "amplitudes": [[re, im], ...]}                       # length 2^N
    {"format_version": "1", "kind": "density",   "num_qubits": N,
     "matrix": [[[re, im], ...], ...]}                    # 2^N rows
    {"format_version": "1", "kind": "symmetric", "num_qubits": N,
     "dicke_amplitudes": [[re, im], ...]}                 # length N+1
    {"format_version": "1", "kind": "mixture",   "num_qubits": N,
     "terms": [{"weight": w, "factors": [2x2 matrix, ...]}, ...]}

Floats are written with 17 significant digits so serialize -> parse ->
serialize is byte-identical at double precision.
"""

import hashlib
import json
import math
from itertools import chain

import numpy as np

from .errors import ValidationError
from .states import DensityMatrix, MixtureTerm, PureState, SymmetricState, mix

FORMAT_VERSION = "1"
# kind -> (state class, document field holding its complex array); the
# fourth kind, "mixture", holds a list of MixtureTerms
ARRAY_KINDS = {
    "pure": (PureState, "amplitudes"),
    "density": (DensityMatrix, "matrix"),
    "symmetric": (SymmetricState, "dicke_amplitudes"),
}
KINDS = (*ARRAY_KINDS, "mixture")


class _HugeInt:
    """An integer literal with more digits than int() converts (sys.get_int_max_str_digits).

    No double holds it, so it converts to float as every integer beyond the
    double range does: with OverflowError.
    """

    def __init__(self, digits):
        self.digits = digits

    def __float__(self):
        raise OverflowError("int too large to convert to float")

    def __repr__(self):
        return f"<integer of {self.digits} digits>"


# loads gives exactly int, float or _HugeInt for a number; the types are compared
# exactly because JSON true and false load as bool, a subclass of int.
JSON_NUMBER_TYPES = frozenset({int, float, _HugeInt})
RENDER_SLICE = 128  # complex vector entries or matrix rows formatted per text slice


def _array_slices(arr):
    """A complex vector as [[re,im],...], or a matrix as rows of those, one % format a slice."""
    unit = "[%.17g,%.17g]"
    if arr.ndim == 2:
        unit = "[" + ",".join([unit] * arr.shape[1]) + "]"
    for start in range(0, max(len(arr), 1), RENDER_SLICE):
        part = np.ascontiguousarray(arr[start:start + RENDER_SLICE])
        yield ("," if start else "[") + ",".join([unit] * len(part)) % tuple(
            part.view(float).ravel().tolist())
    yield "]"


def _render_parts(obj, parts):
    """Append obj's JSON text to parts, with each complex array, checked finite, in its place."""
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj) and obj.ndim in (1, 2):
        if not np.isfinite(obj).all():
            raise ValidationError("cannot serialize non-finite numbers")
        parts.append(obj)
    elif isinstance(obj, dict):
        parts.append("{")
        for idx, (key, value) in enumerate(obj.items()):
            parts.append(("," if idx else "") + json.dumps(key) + ":")
            _render_parts(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for idx, value in enumerate(obj):
            if idx:
                parts.append(",")
            _render_parts(value, parts)
        parts.append("]")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValidationError("cannot serialize non-finite numbers")
        parts.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _render_slices(obj):
    """obj's JSON text in slices: every value is checked first, each array formatted when read."""
    parts = []
    _render_parts(obj, parts)
    return chain.from_iterable(
        (part,) if isinstance(part, str) else _array_slices(part) for part in parts)


def render_json(obj):
    """Deterministic JSON rendering with 17-significant-digit floats."""
    return "".join(_render_slices(obj))


def state_kind(state):
    """The file kind of a PureState, DensityMatrix or SymmetricState, else None."""
    for kind, (cls, _name) in ARRAY_KINDS.items():
        if isinstance(state, cls):
            return kind
    return None


def state_to_document(state):
    """Build the document, holding the state's complex arrays, for a state or MixtureTerms."""
    kind = state_kind(state)
    if kind is not None:
        name = ARRAY_KINDS[kind][1]
        return {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "num_qubits": state.num_qubits,
            name: getattr(state, name),
        }
    if isinstance(state, (list, tuple)) and all(isinstance(t, MixtureTerm) for t in state):
        terms = list(state)
        if not terms:
            raise ValidationError("mixture documents need at least one term")
        return {
            "format_version": FORMAT_VERSION,
            "kind": "mixture",
            "num_qubits": terms[0].num_qubits,
            "terms": [
                {"weight": t.weight, "factors": list(t.factors)}
                for t in terms
            ],
        }
    raise ValidationError(f"cannot serialize {type(state).__name__} as a state file")


def file_slices(document):
    """A state file's text, the document's JSON and a newline, in slices; checked on the call."""
    return chain(_render_slices(document), ("\n",))


def dumps(document):
    return "".join(file_slices(document))


def _parse_int(text):
    if text == "-0":  # dumps writes a negative zero as -0
        return -0.0
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return _HugeInt(len(text.lstrip("-")))


def loads(text):
    """Parse state-file text; "-0" stays -0.0, and an integer too long for int() is a _HugeInt."""
    return json.loads(text, parse_int=_parse_int)


def _field(doc, name, kind=None):
    if name not in doc:
        where = f" for kind {kind!r}" if kind else ""
        raise ValidationError(f"state file is missing field {name!r}{where}")
    return doc[name]


def _too_large(where):
    return ValidationError(f"{where} holds an integer too large for a float")


def _complex_array(pairs, shape, field_name):
    """The [re, im] lists `pairs` as a complex array of `shape`.

    The type and length checks run over whole lists at C level, and
    np.array(..., dtype=float) rounds each number as float() does, so every
    entry has the bits of complex(re, im), -0.0 included.
    """
    not_pairs = ValidationError(f"field {field_name!r} must contain [re, im] pairs")
    if (not all(issubclass(t, list) for t in set(map(type, pairs)))
            or not set(map(len, pairs)) <= {2}):
        raise not_pairs
    numbers = list(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= JSON_NUMBER_TYPES:
        raise not_pairs
    try:
        return np.array(numbers, dtype=float).view(complex).reshape(shape)
    except OverflowError:
        raise _too_large(f"field {field_name!r}") from None


def _parse_complex_vector(raw, field_name):
    if not isinstance(raw, list):
        raise ValidationError(f"field {field_name!r} must be a list")
    return _complex_array(raw, (len(raw),), field_name)


def _parse_complex_matrix(raw, field_name):
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValidationError(f"field {field_name!r} must be a list of rows")
    if len({len(r) for r in raw}) > 1:
        raise ValidationError(f"field {field_name!r} has rows of different lengths")
    shape = (len(raw), len(raw[0])) if raw else (0,)
    return _complex_array(list(chain.from_iterable(raw)), shape, field_name)


@np.errstate(over="ignore")  # entries near 1e308 overflow the norm and trace checks
def document_to_state(doc):
    """Parse and re-validate a state file document.

    Mixture documents return the list of MixtureTerms; call
    spinsqueeze.states.mix to realize the density matrix.
    """
    if not isinstance(doc, dict):
        raise ValidationError("state file must be a JSON object")
    version = _field(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION!r})")
    kind = _field(doc, "kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r} (expected one of {KINDS})")
    n = _field(doc, "num_qubits")
    if type(n) is not int or n < 1:
        raise ValidationError("field 'num_qubits' must be a positive integer")
    if kind in ARRAY_KINDS:
        cls, name = ARRAY_KINDS[kind]
        parse = _parse_complex_matrix if kind == "density" else _parse_complex_vector
        return cls(n, parse(_field(doc, name, kind), name))
    raw_terms = _field(doc, "terms", kind)
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValidationError("field 'terms' must be a non-empty list")
    terms = []
    for idx, raw in enumerate(raw_terms):
        if not isinstance(raw, dict):
            raise ValidationError(f"term {idx} must be an object")
        weight = _field(raw, "weight")
        if type(weight) not in JSON_NUMBER_TYPES:
            raise ValidationError(f"term {idx} field 'weight' must be a number")
        try:
            weight = float(weight)
        except OverflowError:
            raise _too_large(f"term {idx} field 'weight'") from None
        factors = _field(raw, "factors")
        if not isinstance(factors, list) or len(factors) != n:
            raise ValidationError(f"term {idx} must carry {n} factors")
        mats = tuple(_parse_complex_matrix(f, f"terms[{idx}].factors") for f in factors)
        terms.append(MixtureTerm(weight, mats))
    return terms


def realize(parsed):
    """Turn document_to_state output into an analyzable state object."""
    if isinstance(parsed, list):
        return mix(parsed)
    return parsed


def save_state(path, state):
    slices = file_slices(state_to_document(state))  # checked before the file is opened
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(slices)


def load_document(path):
    """(parsed JSON document, sha256 hex digest of its bytes) of a state file, read once."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
        del raw  # the parse holds only the text and its lists
        return loads(text), digest
    except UnicodeDecodeError as exc:
        raise ValidationError(f"state file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("state file nests too deeply to parse") from exc
