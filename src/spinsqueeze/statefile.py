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
KERNEL_BATCH = 2048  # floats formatted per call of the %.17g kernel

# The %.17g kernel.  A finite double a = |x| != 0 with decimal exponent X has
# the 17 digits N = round-half-even(a * 10**(16 - X)), 10**16 <= N < 10**17,
# where N = 10**17 carries to 10**16 and X + 1.  For X in [_EXP_MIN, _EXP_MAX]
# the kernel forms a * 10**k, k = 16 - X in [0, 44], as a sum of doubles:
# Dekker's error-free product (Numer. Math. 18, 224, 1971) with 10**k, an
# exact double for k <= 22, gives it exactly; for k > 22 a second exact stage
# with 10**(k - 22) after 10**22 gives it within 2**-48.  Values it cannot
# settle, those outside the window and second-stage products within
# _TIE_MARGIN of a half-integer, are formatted by '%.17g' itself.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, each exact
_EXP_MIN, _EXP_MAX = -28, 16
_TIE_MARGIN = 2.0 ** -30
# A float's text is laid out in 4 little-endian words, whose zero bytes are
# dropped: the separators before it (the previous float's closing ones
# first) and its sign, ending at byte 7, then a body of 3 words: its kept
# digits, with the point or the "0.000" of fixed notation below 1 inserted,
# and an "e-NN" suffix at bytes 18-21.  The text of most floats is then one
# run of bytes, which numpy compacts fastest.
_WORD = np.dtype("<u8")


def _words(rows):
    """The little-endian words of a (..., 8k) byte array, as (..., k) words."""
    return np.ascontiguousarray(rows, np.uint8).view(_WORD)


def _body_tables():
    """Tables by (X - _EXP_MIN) * 18 + kept digits: the body's digit masks, insert and shift.

    Digits before the insert stay in place and those after it move up by
    its length.  The insert is the point after the digits before it (fixed
    notation with X >= 0, scientific notation), when digits follow it, or
    the "0." and zeros of fixed notation below 1.  Built in bytes, so that
    importing the module allocates little.
    """
    exps = np.repeat(np.arange(_EXP_MIN, _EXP_MAX + 1, dtype=np.int8), 18)
    kept = np.maximum(np.tile(np.arange(18, dtype=np.int8), _EXP_MAX - _EXP_MIN + 1),
                      np.where(exps >= 0, exps + 1, 1))  # the integer digits stay
    below_1 = (exps < 0) & (exps >= -4)
    scientific = exps < -4
    at = np.where(exps >= 0, exps + 1, np.where(below_1, 0, 1))
    length = np.where(below_1, 1 - exps, kept > at)
    byte = np.arange(24, dtype=np.int8)
    insert = np.zeros((len(exps), 24), np.uint8)
    insert[(byte == at[:, None]) & (length[:, None] > 0)] = ord(".")
    insert[below_1[:, None] & (byte < length[:, None])] = ord("0")
    insert[below_1, 1] = ord(".")
    insert[scientific, 18:20] = np.frombuffer(b"e-", np.uint8)
    insert[scientific, 20] = ord("0") + -exps[scientific] // 10
    insert[scientific, 21] = ord("0") + -exps[scientific] % 10
    digit = byte < kept[:, None]
    below = _words(digit & (byte < at[:, None])).T * _WORD.type(0xFF)
    above = _words(digit & (byte >= at[:, None])).T * _WORD.type(0xFF)
    shift = 8 * length.astype(_WORD)
    return below, above, _words(insert).T, shift, 56 - shift


def _digit_tables():
    """By v in 0..9999: the word with v's 4 digits at bytes 0-3, and v's trailing zeros (4 for 0)."""
    values = np.arange(10000, dtype=np.uint16)
    chars = np.zeros((len(values), 8), np.uint8)
    trailing = np.zeros(len(values), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        chars[:, j] = values // place % 10 + ord("0")
        trailing += values % (10000 // place) == 0
    return _words(chars)[:, 0], trailing


_BELOW, _ABOVE, _INSERT, _SHIFT, _SPILL_SHIFT = _body_tables()
_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()
_DIGITS4_HIGH = _DIGITS4 << 32
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)  # the split of _two_product
_POW10_LO = _POW10 - _POW10_HI


def _two_product(a, k):
    """(p, e) with p + e == a * 10**k exactly, for doubles a and 0 <= k <= 22."""
    p = a * _POW10[k]
    a_hi = a * _SPLIT  # Veltkamp's split, then e in Dekker's order, in place
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    a_lo *= b_lo
    e += a_lo
    return p, e


def _scaled(a, k):
    """(p, rest, unsure): a * 10**k is p + rest, exactly for k <= 22 and within 2**-48 else.

    Where unsure, a k > 22 product lies too near a half-integer, or its
    side of 1e16 or 1e17, for rest to settle its rounding.
    """
    p, rest = _two_product(a, np.minimum(k, 22))
    unsure = np.zeros(len(a), bool)
    far = np.flatnonzero(k > 22)
    if far.size:
        c = k[far] - 22
        p2, e2 = _two_product(p[far], c)
        s = e2 + rest[far] * _POW10[c]  # the two roundings are below 2**-49 each
        p[far], rest[far] = p2, s
        unsure[far] = ((np.abs(np.abs(s - np.rint(s)) - 0.5) < _TIE_MARGIN)
                       | ((np.abs(s) < _TIE_MARGIN) & ((p2 == 1e16) | (p2 == 1e17))))
    return p, rest, unsure


def _out_of_range(p, rest):
    """(below, above) [1e16, 1e17) for p + rest, with p the double nearest it."""
    return (p - 1e16) + rest < 0, (p - 1e17) + rest >= 0


def _decimal(a):
    """(N, X, fallback) of doubles a > 0: the 17 digits and decimal exponent of each.

    Where fallback, N and X are not the value's.
    """
    fallback = ~((a >= 1e-28) & (a < 1e17))
    a = np.where(fallback, 1.0, a)
    exp10 = np.clip(np.floor(np.log10(a)), _EXP_MIN, _EXP_MAX).astype(np.int64)
    p, rest, unsure = _scaled(a, 16 - exp10)  # X is off by one next to a power of ten
    below, above = _out_of_range(p, rest)
    fix = np.flatnonzero(below | above)
    if fix.size:
        moved = exp10[fix] + above[fix] - below[fix].astype(np.int64)
        exp10[fix] = np.clip(moved, _EXP_MIN, _EXP_MAX)
        p[fix], rest[fix], unsure[fix] = _scaled(a[fix], 16 - exp10[fix])
        below, above = _out_of_range(p[fix], rest[fix])
        unsure[fix] |= below | above | (exp10[fix] != moved)
    fallback |= unsure
    # p is an even integer above 2**53, so p + rint(rest) rounds p + rest half-even;
    # N = 10**17 cannot occur at X = 16, where N is the double a itself
    digits = p.astype(np.int64) + np.rint(rest).astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    exp10 += carry
    return digits, exp10, fallback


def _bodies(a):
    """The '%.17g' text of each double a > 0 as 3 words (at most 24 bytes), shape (3, len(a)).

    Arrays are freed as soon as they are used, to bound a batch's memory.
    """
    digits, exp10, fallback = _decimal(a)
    # digits 0-3, 4-7, 8-11 and 12-15 of N, then digit 16
    chunks = np.empty((4, len(a)), np.int64)
    np.floor_divide(digits, 10**13, out=chunks[0])
    digits -= chunks[0] * 10**13
    np.floor_divide(digits, 10**9, out=chunks[1])
    digits -= chunks[1] * 10**9
    np.floor_divide(digits, 10**5, out=chunks[2])
    digits -= chunks[2] * 10**5
    np.floor_divide(digits, 10, out=chunks[3])
    digits -= chunks[3] * 10
    last = digits
    zeros = np.take(_TRAILING_ZEROS4, chunks)
    trailing = zeros[0]
    for j in (1, 2, 3):
        trailing *= chunks[j] == 0
        trailing += zeros[j]
    trailing += 1
    trailing *= last == 0
    case = exp10  # the table column, (X - _EXP_MIN) * 18 + kept digits
    case -= _EXP_MIN
    case *= 18
    case += 17
    case -= trailing
    del zeros, trailing
    words = np.empty((3, len(a)), _WORD)
    np.bitwise_or(np.take(_DIGITS4, chunks[::2]), np.take(_DIGITS4_HIGH, chunks[1::2]),
                  out=words[:2])
    del chunks
    np.add(last, ord("0"), out=words[2], casting="unsafe")
    del last
    above = words & np.take(_ABOVE, case, axis=1)
    words &= np.take(_BELOW, case, axis=1)
    words |= above << np.take(_SHIFT, case)
    words[1:] |= (above[:2] >> 8) >> np.take(_SPILL_SHIFT, case)
    del above
    words |= np.take(_INSERT, case, axis=1)
    rest = np.flatnonzero(fallback)
    if rest.size:
        text = ",".join(["%.17g"] * rest.size) % tuple(a[rest].tolist())
        words[:, rest] = _words(np.array(
            text.encode("ascii").split(b","), "S24").view(np.uint8).reshape(-1, 24)).T
    return words


def _format_floats(x, before, cuts, closing):
    """The '%.17g' text of the finite doubles x, each after its separator word.

    before holds each float's separator bytes as a word, ending at its high
    byte; the text is returned in pieces, cut before each float whose index
    is in cuts, after the first `closing` bytes of its separators.
    """
    nonzero = np.flatnonzero(x)
    dense = len(nonzero) == len(x)
    bodies = _bodies(np.abs(x) if dense else np.abs(x[nonzero]))
    out = np.empty((len(x), 4), _WORD)
    negative = np.signbit(x)
    np.right_shift(before, negative * _WORD.type(8), out=out[:, 0])
    out[:, 0] |= negative * _WORD.type(ord("-") << 56)
    del negative
    if dense:
        out[:, 1:] = bodies.T
    else:  # a zero is written "0"
        out[:, 1:] = (ord("0"), 0, 0)
        out[nonzero, 1:] = bodies.T
    del nonzero, bodies
    chars = out.view(np.uint8).ravel()
    kept = chars != 0
    ends, counted, previous = [], 0, 0
    for at in cuts:
        counted += np.count_nonzero(kept[32 * previous:32 * at])
        ends.append(counted + closing)
        previous = at
    chars = chars[kept]
    del out, kept
    text = str(chars.data, "ascii")
    del chars
    return [text[begin:end] for begin, end in zip([0, *ends], [*ends, len(text)])]


def _separators(columns, matrix):
    """Each float's separator word in a vector entry or matrix row, and the row's closing bytes.

    A float's separators are the closing bytes of the float before it and
    its own opening bytes, at the high end of the word.
    """
    close = [b",", b"]"] * columns
    open_ = [b",[", b""] * columns
    if matrix:
        close[-1], open_[0] = b"]]", b",[["
    return _high_word([close[j - 1] + open_[j] for j in range(2 * columns)]), close[-1].decode()


def _high_word(tokens):
    """Each of the byte strings (at most 8 bytes), as a word ending at its high byte."""
    return np.array([token.rjust(8, b"\0") for token in tokens], "S8").view(_WORD)


def _array_slices(arr):
    """A complex vector as [[re,im],...], or a matrix as rows of those, in slices of RENDER_SLICE.

    An array of at most RENDER_SLICE entries is one % format.  A larger one
    is formatted KERNEL_BATCH floats at a time by the kernel, and the text
    is cut where each slice's entries or rows start.
    """
    if arr.size <= RENDER_SLICE:
        unit = "[%.17g,%.17g]"
        if arr.ndim == 2:
            unit = "[" + ",".join([unit] * arr.shape[1]) + "]"
        yield "[" + ",".join([unit] * len(arr)) % tuple(
            np.ascontiguousarray(arr).view(float).ravel().tolist())
        yield "]"
        return
    rows = arr if arr.ndim == 2 else arr[:, None]
    width = 2 * rows.shape[1]  # floats per vector entry or matrix row
    separators, closing = _separators(rows.shape[1], arr.ndim == 2)
    first_opening = _high_word([b"[[[" if arr.ndim == 2 else b"[["])[0]
    total, per_slice = len(rows) * width, RENDER_SLICE * width
    pending = []
    for start in range(0, total, KERNEL_BATCH):
        stop = min(start + KERNEL_BATCH, total)
        first = start // width
        floats = np.ascontiguousarray(rows[first:-(-stop // width)]).view(float).ravel()
        before = separators[np.arange(start, stop) % width]
        if not start:
            before[0] = first_opening
        cuts = range(-(-start // per_slice) * per_slice or per_slice, stop, per_slice)
        *done, left = _format_floats(floats[start - first * width:stop - first * width], before,
                                     [at - start for at in cuts], len(closing))
        for piece in done:
            pending.append(piece)
            yield "".join(pending)
            pending = []
        pending.append(left)
    yield "".join([*pending, closing])
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
