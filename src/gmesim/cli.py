"""Command-line harness emitting reproducible protocol reports.

Every subcommand writes a single artifact (JSON, or CSV for scan tables)
that embeds a manifest with the fully resolved configuration, seed, tool
version and timestamp: re-running the same invocation reproduces the output
byte for byte.  Each ``cmd_*`` handler takes the parsed flags and the seed
and returns its config and payload; ``main`` builds the manifest and writes.
Floats are serialized with 17 significant digits so doubles round-trip
losslessly; complex amplitudes appear as [re, im] pairs.

Exit codes: 0 success, 2 usage or domain error, 3 internal invariant
violation.  The seed resolves from ``--seed``, then the ``GME_SEED``
environment variable, then 42.  The manifest timestamp defaults to the fixed
epoch string (for byte-identical artifacts); set ``SOURCE_DATE_EPOCH`` or
pass ``--timestamp`` to stamp a real time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .distill import distill_pipeline
from .entanglement import (
    _GHZ_OPTIMAL_ANGLES,
    SVETLICHNY_CLASSICAL_BOUND,
    SVETLICHNY_QUANTUM_BOUND,
    BipartitionReport,
    certify_entangled_all_cuts,
    certify_gme_pure,
    equatorial_observable,
    svetlichny_value,
)
from .protocols import (
    MonteCarloSummary,
    ProtocolConfig,
    ProtocolReport,
    build_prop1_example,
    build_prop1_general,
    build_prop2_state,
    build_prop3_state,
    _sigma_pair,
    _sigma_terms,
    chain_leaves,
    copy_chain,
    merge_chain_to_ghz,
    normalize_schmidt,
    replay_chain,
    run_prop1_step,
    sample_leaves,
    sigma_scan,
)
from .qcore import (
    DensityOperator,
    InvariantError,
    PartyDims,
    PureState,
    _integer,
    _probability,
    _real,
    _reals,
    basis_ket,
    bell_pair,
    fidelity_pure,
    ghz_state,
    ket,
    mix,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
DEFAULT_SHOTS = 100_000
#: Fixed manifest timestamp used when no explicit time source is given.
EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """17-significant-digit decimal form, enough to round-trip any double."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("cannot serialize non-finite numbers")
    text = format(value, ".17g")
    return "-0.0" if text == "-0" else text  # JSON reads "-0" as the integer 0


#: ``json.dumps`` of a str, and the serializable types in the order an instance of a
#: subclass is matched against them (a NumPy integer renders as an int)
_encode = json.encoder.encode_basestring_ascii
_JSON_TYPES = (type(None), bool, int, np.integer, float, str, list, tuple, dict)


def _render(obj, indent: int) -> str:
    kind = type(obj)
    if kind not in _JSON_TYPES:
        kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), kind)
    if kind is float:
        return format_float(obj)
    if kind is int or kind is np.integer:
        return str(int(obj))
    if kind is str:
        return _encode(obj)
    pad = " " * indent
    if kind is dict:
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + _encode(str(k)) + ": " + _render(v, indent + 2) for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if kind is list or kind is tuple:
        items = list(obj)
        if not items:
            return "[]"
        if not any(isinstance(i, (list, tuple, dict)) for i in items):  # scalars: one line
            return "[" + ", ".join(_render(i, 0) for i in items) + "]"
        inner = ",\n".join(pad + "  " + _render(i, indent + 2) for i in items)
        return "[\n" + inner + "\n" + pad + "]"
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} values")


def render_json(obj) -> str:
    return _render(obj, 0) + "\n"


def _render_compact(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(
            _encode(str(k)) + ":" + _render_compact(v) for k, v in obj.items()
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_compact(i) for i in obj) + "]"
    return _render(obj, 0)


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------


def _complex_pairs(values) -> list[list[float]]:
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def state_to_payload(state: PureState | DensityOperator) -> dict:
    """State-file form: dims, kind, and row-major [re, im] pairs."""
    dims = [int(d) for d in state.dims.dims]
    if isinstance(state, PureState):
        return {"dims": dims, "kind": "pure", "amplitudes": _complex_pairs(state.amplitudes)}
    return {"dims": dims, "kind": "density", "matrix": _complex_pairs(state.matrix)}


def _pairs_loop(pairs, expected: int, what: str) -> np.ndarray:
    """``expected`` [re, im] pairs of JSON numbers; an error names the pair."""
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValueError(f"{what} must be a list of {expected} [re, im] pairs")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what}[{i}] is not an [re, im] pair")
        try:
            out[i] = complex(_real(pair[0], what), _real(pair[1], what))
        except ValueError as exc:
            raise ValueError(f"{what}[{i}] is not an [re, im] pair of numbers") from exc
    return out


def _payload_fields(data) -> tuple[PartyDims, str]:
    """The dims and the name of the pair field of a decoded state file."""
    if not isinstance(data, dict):
        raise ValueError("state file must contain a JSON object")
    try:
        dims, kind = data["dims"], data["kind"]
    except KeyError as exc:
        raise ValueError(f"state file is missing a valid field: {exc}") from exc
    # JSON integers only: no floats to truncate, no strings to iterate, no bools
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ValueError(f"state file 'dims' must be a list of integers, got {dims!r}")
    # the size cap applies before any pair is read
    dims = PartyDims(tuple(dims))
    if kind == "pure":
        if "amplitudes" not in data:
            raise ValueError("pure state files need an 'amplitudes' field")
        return dims, "amplitudes"
    if kind == "density":
        if "matrix" not in data:
            raise ValueError("density state files need a 'matrix' field")
        return dims, "matrix"
    raise ValueError(f"unknown state kind {kind!r}; expected 'pure' or 'density'")


def _pair_count(dims: PartyDims, field: str) -> int:
    return dims.total if field == "amplitudes" else dims.total**2


def _state_from_values(dims: PartyDims, field: str, values: np.ndarray):
    if field == "amplitudes":
        return PureState(dims, values)
    return DensityOperator(dims, values.reshape(dims.total, dims.total))


def state_from_payload(data: dict) -> PureState | DensityOperator:
    """Build the state a decoded JSON state file describes."""
    dims, field = _payload_fields(data)
    values = _pairs_loop(data[field], _pair_count(dims, field), field)
    return _state_from_values(dims, field, values)


# A state file whose pair array is a member of its top-level object, in any
# place, and holds only JSON numbers is read from its bytes: a few vectorized
# passes check the array and flag each byte that makes its number other than
# "0" or "0.0"; every per-token step (locating, the leading-zero and length
# rules, the gather and the parse) runs on the flagged tokens alone, so past
# those passes a sparse density costs what its nonzero entries hold; ``json``
# decodes the rest of the file.  Anything else goes to ``json.load`` and
# ``state_from_payload``.

#: Byte classes inside a pair array; 0 marks a byte that has no place there.
_SPACE, _OPEN, _COMMA, _CLOSE, _ZERO, _DIGIT, _MINUS, _PLUS, _DOT, _EXP = range(1, 11)
_NUMBER = (_ZERO, _DIGIT, _MINUS, _PLUS, _DOT, _EXP)
_CLASS_BYTES = {_SPACE: b" \t\n\r", _OPEN: b"[", _COMMA: b",", _CLOSE: b"]", _ZERO: b"0",
                _DIGIT: b"123456789", _MINUS: b"-", _PLUS: b"+", _DOT: b".", _EXP: b"eE"}
_BYTE_CLASS = bytes(
    next((c for c, chars in _CLASS_BYTES.items() if byte in chars), 0) for byte in range(256)
)

#: The classes that may follow each class: the JSON number grammar up to the
#: count and order of '.' and 'e' and the leading-zero rule.
_AFTER_SEPARATOR = (_SPACE, _OPEN, _COMMA, _CLOSE, _ZERO, _DIGIT, _MINUS)
_AFTER_DIGIT = (_SPACE, _COMMA, _CLOSE, _ZERO, _DIGIT, _DOT, _EXP)
_MAY_FOLLOW = {
    _SPACE: _AFTER_SEPARATOR, _OPEN: _AFTER_SEPARATOR, _COMMA: _AFTER_SEPARATOR,
    _CLOSE: _AFTER_SEPARATOR, _ZERO: _AFTER_DIGIT, _DIGIT: _AFTER_DIGIT,
    _MINUS: (_ZERO, _DIGIT), _PLUS: (_ZERO, _DIGIT), _DOT: (_ZERO, _DIGIT),
    _EXP: (_ZERO, _DIGIT, _MINUS, _PLUS),
}

#: What a byte is, from its class and the class before it: nothing to note,
#: a number's start, the space or punctuation that ends a number, a number's
#: '.' or 'e', or punctuation.  _BAD marks a byte that may not follow.  _FLAG
#: is added for a byte that makes its number something other than "0" or
#: "0.0": a nonzero digit, a sign, an 'e', or a '0' after a digit.
(_QUIET, _START, _END, _END_COMMA, _END_CLOSE, _FRACTION, _EXPONENT,
 _OPEN_ONLY, _COMMA_ONLY, _CLOSE_ONLY) = range(10)
_BAD = 15
_FLAG = 16


def _byte_event(before: int, byte: int) -> int:
    if byte not in _MAY_FOLLOW.get(before, ()):
        return _BAD
    if byte in _NUMBER:
        flag = _FLAG * (byte in (_DIGIT, _MINUS, _PLUS, _EXP)
                        or byte == _ZERO and before in (_ZERO, _DIGIT))
        if before not in _NUMBER:
            return _START | flag
        return {_DOT: _FRACTION, _EXP: _EXPONENT}.get(byte, _QUIET) | flag
    if before in _NUMBER:
        return {_SPACE: _END, _COMMA: _END_COMMA, _CLOSE: _END_CLOSE}[byte]
    return {_OPEN: _OPEN_ONLY, _COMMA: _COMMA_ONLY, _CLOSE: _CLOSE_ONLY}.get(byte, _QUIET)


_BYTE_EVENT = bytes(_byte_event(code >> 4, code & 15) for code in range(256))
_QUIET_EVENTS = bytes([_QUIET, _QUIET | _FLAG])

#: The events that may follow each event once quiet bytes are skipped: one
#: number between a pair's '[' and ',' and one between ',' and ']', none elsewhere.
_ENDS = (_END, _END_COMMA, _END_CLOSE)
_EVENT_FOLLOWS = {
    _START: (_FRACTION, _EXPONENT) + _ENDS, _FRACTION: (_EXPONENT,) + _ENDS,
    _EXPONENT: _ENDS, _END: (_COMMA_ONLY, _CLOSE_ONLY), _END_COMMA: (_START,),
    _END_CLOSE: (_COMMA_ONLY, _CLOSE_ONLY), _OPEN_ONLY: (_START,),
    _COMMA_ONLY: (_START, _OPEN_ONLY), _CLOSE_ONLY: (_COMMA_ONLY, _CLOSE_ONLY),
}
#: An event after the first, by its code with the event before it: the
#: punctuation it carries, '!' where it may not follow, deleted otherwise.
_PUNCT = {_OPEN_ONLY: "[", _COMMA_ONLY: ",", _END_COMMA: ",", _CLOSE_ONLY: "]", _END_CLOSE: "]"}
_FOLLOW_PUNCT = bytes(
    ord(_PUNCT.get(code & 15, " ") if code & 15 in _EVENT_FOLLOWS.get(code >> 4, ()) else "!")
    for code in range(256))
_NO_PUNCT = bytes(code for code in range(256) if _FOLLOW_PUNCT[code] == ord(" "))

#: No double needs more; JSON would also refuse integers of thousands of digits.
_MAX_TOKEN = 64
#: Quiet events around the array's, so that every window below stays inside.
_PAD = 4

#: A pair key, its colon and the opening bracket of its array.
_PAIR_KEY = re.compile(rb'("amplitudes"|"matrix")[ \t\n\r]*:[ \t\n\r]*\[')


def _split_pair_array(raw: bytes) -> tuple[bytes, str, bytearray] | None:
    """The file with its pair array cut out, the array's key and the array.

    The array opens at the first pair key and ends at the last ']' before the
    next '"': any member after it starts with a quote.  The rest of the file
    must spell the key once and hold no escape, so that key is the one
    ``json`` sees wherever it sits.
    """
    match = _PAIR_KEY.search(raw)
    if match is None:
        return None
    start = match.end() - 1
    quote = raw.find(b'"', start)
    end = raw.rfind(b"]", start, len(raw) if quote < 0 else quote) + 1
    rest = raw[:start] + b"[]" + raw[end:]
    key = match.group(1)
    if not end or b"\\" in rest or rest.count(key) != 1:
        return None
    return rest, key[1:-1].decode(), bytearray(memoryview(raw)[start:end])


def _flagged_tokens(events: bytes):
    """The start and end of each flagged token, and how many tokens precede it.

    A flagged token has a flag among its first four and among its last four
    bytes (as in "-0.0"): a start is marked by a flag among the four bytes
    from it, an end by one among the four before it or the two after it,
    which marks both ends of a "0" just before a flagged token too.  The
    mark after a marked start is its end.
    """
    near = np.frombuffer(events, np.uint8) >= _FLAG
    near = near[:-1] | near[1:]
    near = near[:-2] | near[2:]  # near[k]: a flag among events k..k+3
    kind = np.frombuffer(events, np.uint8)[_PAD:-_PAD] & 15  # the event of each byte
    start = kind == _START
    kind -= _END
    marks = np.less(kind, 3, out=kind.view(np.bool_))  # an end, in kind's place
    marks &= near[:-5] | near[3:-2]
    marks |= start & near[_PAD:-1]
    del near
    bounds = np.flatnonzero(marks)
    first = np.flatnonzero(start[bounds])
    starts, ends = bounds[first], bounds[first + 1]
    # a token's index counts the starts before it, summed over segments cut
    # at each marked start and every 256 bytes, too short to overflow a byte
    cuts = np.sort(np.r_[starts, np.arange(0, len(start), 256)], kind="stable")
    cuts = cuts[np.r_[True, cuts[1:] != cuts[:-1]]]
    before = np.cumsum(np.add.reduceat(start.view(np.uint8), cuts, dtype=np.uint8), dtype=np.intp)
    return starts, ends, before[np.searchsorted(cuts, starts) - 1]


def _scan_pair_array(region: bytearray):
    """The tokens of a JSON array of [number, number] pairs, or None.

    Returns the pair count, the token count, and the indices, starts and ends
    of the tokens to parse; every other token reads as +0.0.
    """
    if not region.startswith(b"["):
        return None
    cls = np.frombuffer(region.translate(_BYTE_CLASS), np.uint8)
    # codes[b] holds the classes of bytes b - 1 and b, so events[_PAD + b] is
    # the event of byte b; the padding is quiet spaces
    pairs = bytearray(b"\x11") * (len(region) + 2 * _PAD)
    codes = np.frombuffer(pairs, np.uint8)[_PAD:]
    np.multiply(cls[:-1], 16, out=codes[1:len(region)])
    codes[1:len(region)] |= cls[1:]
    events = pairs.translate(_BYTE_EVENT)
    # buffers the size of the array go as soon as they are used, which keeps
    # the peak memory of a read below that of json.load
    del cls, codes, pairs
    if _BAD in events:
        return None
    kinds = np.frombuffer(events.translate(None, _QUIET_EVENTS), np.uint8) & 15  # flags dropped
    if not len(kinds) or kinds[0] != _OPEN_ONLY:
        return None
    # the punctuation after the first '[', with a '!' for each misplaced event
    punct = (kinds[:-1] * 16 | kinds[1:]).tobytes().translate(_FOLLOW_PUNCT, _NO_PUNCT)
    del kinds
    n = (len(punct) + 1) // 4
    if n < 1 or punct != b",],[" * (n - 1) + b",]]":
        return None
    # a token without a flag is "0" or "0.0", as the checks above leave no
    # other: it reads as +0.0 and needs none of the rules below
    starts, ends, index = _flagged_tokens(events)
    del events, punct
    chars = np.frombuffer(region, np.uint8)
    minus = chars[starts] == ord("-")
    digits = starts + minus
    zero = chars[digits] == ord("0")
    # a leading zero has a digit after it (in range: the array ends with "]]")
    if (zero & (chars[digits + 1] - ord("0") < 10)).any() or (ends - starts > _MAX_TOKEN).any():
        return None
    # "0" and "-0" are integers and read as +0.0, like "0.0"; "-0.0" is parsed
    size = ends - digits
    zero &= (size == 1) | ((size == 3) & ~minus & (chars[digits + 2] == ord("0")))
    return n, 2 * n, index[~zero], starts[~zero], ends[~zero]


def _token_values(region: bytearray, count, index, starts, ends) -> np.ndarray | None:
    """The ``count`` tokens as ``float()`` reads them, by one C-level parse of those to parse.

    Each of those tokens is copied into a row one byte wider than the
    longest, the bytes around it blanked, so the parse costs what they hold;
    ``region`` is left as it is.
    """
    values = np.zeros(count)
    if len(index):
        lengths = ends - starts
        width = int(lengths.max()) + 1
        corner = np.minimum(starts, len(region) - width)  # no row runs past the array
        rows = sliding_window_view(np.frombuffer(region, np.uint8), width)[corner]
        # bytes before or after the token, by a byte-wide distance from its start
        after = np.arange(width, dtype=np.uint8) - (starts - corner).astype(np.uint8)[:, None]
        rows[after >= lengths.astype(np.uint8)[:, None]] = ord(" ")
        parsed = np.fromstring(rows.tobytes(), sep=" ")
        if len(parsed) != len(index):
            return None
        values[index] = parsed
    return values


def _read_pairs(path: str) -> tuple[PartyDims, str, np.ndarray] | None:
    """The dims, pair field and values of a file of plain-number pairs.

    The pair array must be a member of the top-level object.  None sends the
    file to ``json.load``, which also gives a nested array its own messages.
    """
    with open(path, "rb") as fh:
        split = _split_pair_array(fh.read())
    if split is None:
        return None
    rest, field, region = split
    tokens = _scan_pair_array(region)
    if tokens is None:
        return None
    try:
        data = json.loads(rest.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or field not in data:
        return None
    # the whole file is valid JSON with the array at top level, so a dims or
    # kind error is the one json.load gives
    dims, wanted = _payload_fields(data)
    n, *bounds = tokens
    if wanted != field or n != _pair_count(dims, field):
        return None
    values = _token_values(region, *bounds)
    if values is None or not np.isfinite(values).all():
        return None
    return dims, field, values.view(complex)


def load_state_file(path: str) -> PureState | DensityOperator:
    pairs = _read_pairs(path)
    if pairs is not None:
        return _state_from_values(*pairs)
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"state file {path} nests its JSON too deeply to read") from None
    return state_from_payload(data)


def _state_file_text(state: PureState | DensityOperator) -> str:
    """``render_json(state_to_payload(state))``, its pairs formatted in one pass."""
    pure = isinstance(state, PureState)
    values = np.ascontiguousarray(state.amplitudes if pure else state.matrix, dtype=complex)
    flat = values.view(float).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("cannot serialize non-finite numbers")
    pairs = ("    [%.17g, %.17g],\n" * (flat.size // 2)) % tuple(flat.tolist())
    pairs = pairs.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")  # as format_float
    dims = ", ".join(str(int(d)) for d in state.dims.dims)
    kind, field = ("pure", "amplitudes") if pure else ("density", "matrix")
    return '{\n  "dims": [%s],\n  "kind": "%s",\n  "%s": [\n%s\n  ]\n}\n' % (
        dims, kind, field, pairs[:-2])


def save_state_file(path: str, state: PureState | DensityOperator) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_state_file_text(state))


def schema_path() -> Path:
    """Location of the JSON schema every report envelope validates against."""
    return Path(__file__).parent / "schemas" / "report-v1.json"


# ---------------------------------------------------------------------------
# seed and timestamp
# ---------------------------------------------------------------------------


def resolve_seed(value) -> int:
    source = "--seed"
    if value is None:
        source, value = "GME_SEED", os.environ.get("GME_SEED", DEFAULT_SEED)
    if isinstance(value, str):  # text that is no integer stays text, for the rule to refuse
        with contextlib.suppress(ValueError):
            value = int(value)
    return _integer(value, source, 0)


def resolve_timestamp(value) -> str:
    if value is not None:
        return str(value)
    env = os.environ.get("SOURCE_DATE_EPOCH")
    if env is None:
        return EPOCH_TIMESTAMP
    try:
        epoch = int(env)
    except ValueError:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer, got {env!r}") from None
    try:
        moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise ValueError(f"SOURCE_DATE_EPOCH is out of range, got {env!r}") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# payload pieces
# ---------------------------------------------------------------------------


def certificate_payload(report: BipartitionReport, is_gme: bool | None) -> dict:
    return {
        "n_parties": int(report.n_parties),
        "cuts": [
            {
                "cut": rec.cut.label,
                "negativity": float(rec.negativity),
                "schmidt_rank": None if rec.schmidt_rank is None else int(rec.schmidt_rank),
            }
            for rec in report.records
        ],
        "all_cuts_entangled": report.all_cuts_entangled,
        "min_negativity": float(report.min_negativity),
        "is_gme": is_gme,
    }


def run_report_payload(rep: ProtocolReport) -> dict:
    out: dict = {
        "protocol": rep.protocol,
        "success": rep.success,
        "copies_consumed": int(rep.copies_consumed),
        "analytic_success_prob": (
            None if rep.analytic_success_prob is None else float(rep.analytic_success_prob)
        ),
        "steps": [
            {
                "copy": int(s.copy_index),
                "party": s.acting_party,
                "measurement": s.measurement,
                "outcome": int(s.outcome_index),
                "probability": float(s.probability),
                "accepted": s.accepted,
            }
            for s in rep.steps
        ],
    }
    if rep.final_state is not None:
        out["final_state"] = state_to_payload(rep.final_state)
        out["certificates"] = certificate_payload(rep.certificates, rep.certificates.is_gme)
    else:
        out["final_state"] = None
        out["certificates"] = None
    return out


def mc_payload(summary: MonteCarloSummary) -> dict:
    return {
        "shots": int(summary.shots),
        "seed": int(summary.seed),
        "branches": [
            {
                "label": b.label,
                "probability": float(b.probability),
                "frequency": float(b.frequency),
                "success": b.success,
                "copies": int(b.copies),
            }
            for b in summary.branches
        ],
        "success_rate": float(summary.success_rate),
        "exact_success_prob": float(summary.exact_success_prob),
        "mean_copies_consumed": float(summary.mean_copies_consumed),
    }


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_floats(text: str, name: str) -> list[float]:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError(f"{name} must be a non-empty comma-separated list of numbers")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{name} contains a non-numeric entry: {text!r}") from None
    return list(_reals(vals, name))


def _parse_schmidt(text, n_expected: int, name: str = "--schmidt"):
    if text is None:
        return None
    vals = _parse_floats(text, name)
    if len(vals) != n_expected:
        raise ValueError(f"{name} expects {n_expected} values, got {len(vals)}")
    return normalize_schmidt(vals)


def _parse_weights(text) -> tuple[float, float, float]:
    if text is None:
        return (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    vals = _reals(_parse_floats(text, "--weights"), "--weights", 3, positive=True)
    total = sum(vals)
    if not math.isfinite(total):  # large finite values overflow the plain sum
        top = max(vals)
        vals = [v / top for v in vals]
        total = sum(vals)
    weights = tuple(v / total for v in vals)
    if 0.0 in weights:  # positive, but too small beside the largest to normalize
        raise ValueError(f"--weights {text!r}: a weight underflows to 0 when normalized")
    return weights


# ---------------------------------------------------------------------------
# builtin states
# ---------------------------------------------------------------------------

_BUILTIN_NAMES = (
    "ghz3", "ghz4", "phi+", "product3", "merged-ghz3",
    "prop1", "prop2", "prop3", "sigma",
)


def _builtin_state(name: str, p: float = 0.5, schmidt_text=None, weights_text=None):
    """The named builtin state and the resolved parameters that rebuild it."""
    name = name.lower()
    if name == "ghz3":
        return ghz_state(3), {}
    if name == "ghz4":
        return ghz_state(4), {}
    if name == "phi+":
        return bell_pair("phi+"), {}
    if name == "product3":
        return basis_ket((2, 2, 2), (0, 0, 0)), {}
    if name == "merged-ghz3":
        merged = merge_chain_to_ghz([bell_pair("phi+"), bell_pair("phi+")])
        return merged.branches[0].state, {}
    if name == "prop1":
        return build_prop1_example(_probability(p, "--p")), {"p": p}
    if name == "prop2":
        coeffs = _parse_schmidt(schmidt_text, 3) or normalize_schmidt([1.0, 1.0, 1.0])
        return build_prop2_state(coeffs, _probability(p, "--p")), {"p": p, "schmidt": list(coeffs)}
    if name == "prop3":
        coeffs = _parse_schmidt(schmidt_text, 4) or normalize_schmidt([1.0] * 4)
        weights = _parse_weights(weights_text)
        params = {"weights": list(weights), "schmidt": list(coeffs)}
        return build_prop3_state(coeffs, weights), params
    if name == "sigma":
        coeffs = _parse_schmidt(schmidt_text, 2) or normalize_schmidt([1.0, 1.0])
        checked_p, (pair, _) = _probability(p, "--p"), _sigma_pair(coeffs)
        return mix(_sigma_terms(pair, checked_p)), {"p": p, "schmidt": list(coeffs)}
    raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(_BUILTIN_NAMES)}")


def _load_input_state(args, default_builtin: str | None = None):
    """Resolve --state-file / --builtin into a state plus a source record."""
    if args.state_file and args.builtin:
        raise ValueError("pass either --state-file or --builtin, not both")
    if args.state_file:
        return load_state_file(args.state_file), {"kind": "file", "path": str(args.state_file)}
    builtin = default_builtin if args.builtin is None else args.builtin
    if builtin is None:
        raise ValueError("one of --state-file or --builtin is required")
    # svetlichny has no parameter flags: its builtins take the defaults
    flags = [getattr(args, name) for name in ("p", "schmidt", "weights") if hasattr(args, name)]
    state, params = _builtin_state(builtin, *flags)
    return state, {"kind": "builtin", "name": builtin.lower(), **params}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_prop1(args, seed: int) -> tuple[dict, dict]:
    ab = _parse_schmidt(args.pair_ab, 2, "--pair-ab") or normalize_schmidt([1.0, 1.0])
    bc = _parse_schmidt(args.pair_bc, 2, "--pair-bc") or normalize_schmidt([1.0, 1.0])
    p = _probability(args.p, "--p")
    if any(x is not None for x in (args.pair_ab, args.pair_bc, args.ref_a, args.ref_c)):
        ref_a = 1 if args.ref_a is None else args.ref_a
        ref_c = 0 if args.ref_c is None else args.ref_c
        rho = build_prop1_general(
            ket([ab[0], 0.0, 0.0, ab[1]], (2, 2)),
            basis_ket((2,), (ref_c,)),
            basis_ket((2,), (ref_a,)),
            ket([bc[0], 0.0, 0.0, bc[1]], (2, 2)),
            p,
        )
        family: dict | str = {
            "pair_ab": list(ab), "pair_bc": list(bc), "ref_a": ref_a, "ref_c": ref_c,
        }
        reference = basis_ket((2,), (ref_c,))
    else:
        rho = build_prop1_example(p)
        family = "standard"
        reference = basis_ket((2,), (0,))
    rounds = _integer(args.rounds, "--rounds", 1)

    branches = run_prop1_step(rho, reference)
    selected = 0 if args.charlie_outcome is None else args.charlie_outcome

    phi_plus = bell_pair("phi+")
    branch_payload = []
    for br in branches:
        entry: dict = {
            "outcome": int(br.outcome_index),
            "probability": float(br.probability),
            "negativity": None if br.negativity is None else float(br.negativity),
            "entangled": br.entangled,
            "fidelity_phi_plus": (
                None if br.pair_state is None else float(fidelity_pure(br.pair_state, phi_plus))
            ),
        }
        branch_payload.append(entry)

    chosen = branches[selected]
    if chosen.pair_state is None:
        distill_block: dict = {"status": "no_support"}
    else:
        pipe = distill_pipeline(chosen.pair_state, rounds)
        distill_block = {
            "status": pipe.status,
            "filtered": pipe.filtered,
            "filter_probability": float(pipe.filter_probability),
            "trajectory": [[float(f), float(q)] for f, q in pipe.trajectory],
        }

    config = {"p": args.p, "rounds": rounds, "charlie_outcome": selected, "family": family}
    payload = {
        "branches": branch_payload,
        "selected_outcome": selected,
        "selected_separable": (chosen.entangled is not None) and (not chosen.entangled),
        "distillation": distill_block,
    }
    return config, payload


def cmd_prop2(args, seed: int) -> tuple[dict, dict]:
    """The prop2 (n = 3) or prop3 (n = 4) subcommand, whichever ``args.subcommand`` names."""
    protocol = args.subcommand
    n = 3 if protocol == "prop2" else 4
    want_mc = not args.no_mc
    coeffs = _parse_schmidt(args.schmidt, n)
    weights = None if n == 3 else list(_parse_weights(args.weights))
    shots = _integer(args.shots, "--shots", 1)
    mixture = {"p": _probability(args.p, "--p")} if n == 3 else {"weights": weights}
    config_obj = ProtocolConfig(**mixture, schmidt_coeffs=coeffs, shots=shots, seed=seed)
    config = {
        **mixture,
        "schmidt": list(config_obj.coeffs_or_uniform(n)),
        "shots": shots,
        "mc": want_mc,
    }
    # one copy chain feeds both the postselected run and the exact tree
    chain = copy_chain(protocol, config_obj)
    payload = {"run": run_report_payload(replay_chain(chain, postselect_success=True))}
    payload["monte_carlo"] = (
        mc_payload(sample_leaves(protocol, chain_leaves(chain), shots, seed))
        if want_mc else None
    )
    return config, payload


cmd_prop3 = cmd_prop2


def cmd_sigma_scan(args, seed: int) -> tuple[dict, dict]:
    p_list = _parse_floats(args.p_list, "--p-list")
    n_max, shots = _integer(args.n_max, "--n-max", 0), _integer(args.shots, "--shots", 1)
    rows = sigma_scan(p_list, n_max, shots, seed)
    config = {"p_list": p_list, "n_max": n_max, "shots": shots, "format": args.format}
    payload = {
        "rows": [
            {
                "p": float(r.p),
                "n": int(r.n),
                "analytic": float(r.analytic),
                "empirical": float(r.empirical),
                "abs_error": float(r.abs_error),
            }
            for r in rows
        ]
    }
    return config, payload


def cmd_certify(args, seed: int) -> tuple[dict, dict]:
    state, source = _load_input_state(args)
    if isinstance(state, PureState):
        is_gme, report = certify_gme_pure(state)
    else:
        is_gme, report = None, certify_entangled_all_cuts(state)
    config = {
        "source": source,
        "dims": [int(d) for d in state.dims.dims],
        "state_kind": "pure" if isinstance(state, PureState) else "density",
    }
    return config, certificate_payload(report, is_gme)


def cmd_svetlichny(args, seed: int) -> tuple[dict, dict]:
    state, source = _load_input_state(args, default_builtin="ghz3")
    if not isinstance(state, PureState):
        raise ValueError("the nonlocality functional needs a pure three-qubit state")
    if args.angles is not None:
        angles = _parse_floats(args.angles, "--angles")
        if len(angles) != 6:
            raise ValueError("--angles expects six values: A, A', B, B', C, C'")
        settings_source = "custom"
    else:
        angles = list(_GHZ_OPTIMAL_ANGLES)
        settings_source = "default"
    settings = [equatorial_observable(a) for a in angles]
    if state.dims.dims != (2, 2, 2):
        raise ValueError("the functional is defined for three qubits")
    value = svetlichny_value(state, settings)
    config = {
        "source": source,
        "angles": [float(a) for a in angles],
        "settings_source": settings_source,
    }
    payload = {
        "value": float(value),
        "classical_bound": float(SVETLICHNY_CLASSICAL_BOUND),
        "quantum_bound": float(SVETLICHNY_QUANTUM_BOUND),
        "exceeds_classical": bool(value > SVETLICHNY_CLASSICAL_BOUND),
        "within_quantum": bool(value <= SVETLICHNY_QUANTUM_BOUND + 1e-9),
    }
    return config, payload


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


#: The shared flag rows.  A row is (flag, type, default, help[, choices]);
#: the type ``bool`` marks a switch.
_OUTPUT_ROWS = (
    ("--seed", int, None, "RNG seed (default: GME_SEED env var, else 42)"),
    ("--timestamp", str, None, "manifest timestamp (default: fixed epoch, or SOURCE_DATE_EPOCH)"),
    ("--out", str, None, "output path (default: stdout)"),
)
_P_ROW = ("--p", float, 0.5, "mixture weight (default 0.5)")
_MC_ROWS = (("--shots", int, DEFAULT_SHOTS, f"Monte Carlo shots (default {DEFAULT_SHOTS})"),
            ("--no-mc", bool, False, "skip the Monte Carlo block"))

#: Each subcommand's help line and flag rows, in ``--help`` order.
_SUBCOMMANDS = {
    "prop1": ("single-step three-qubit protocol plus distillation", (
        _P_ROW,
        ("--rounds", int, 3, "distillation rounds (default 3)"),
        ("--charlie-outcome", int, None, "report this branch (default 0, the entangled one)",
         (0, 1)),
        ("--pair-ab", str, None, "Schmidt coefficients a,b of a custom A-B pair"),
        ("--pair-bc", str, None, "Schmidt coefficients a,b of a custom B-C pair"),
        ("--ref-a", int, None, "custom basis level for party A's reference", (0, 1)),
        ("--ref-c", int, None, "custom basis level for party C's reference", (0, 1)),
        *_OUTPUT_ROWS,
    )),
    "prop2": ("two-copy three-qutrit activation", (
        _P_ROW,
        ("--schmidt", str, None, "three Schmidt coefficients (normalized; default uniform)"),
        *_MC_ROWS, *_OUTPUT_ROWS,
    )),
    "prop3": ("three-copy four-ququart activation", (
        ("--weights", str, None, "three mixture weights (normalized; default uniform)"),
        ("--schmidt", str, None, "four Schmidt coefficients (normalized; default uniform)"),
        *_MC_ROWS, *_OUTPUT_ROWS,
    )),
    "sigma-scan": ("success-law table for the adaptive protocol", (
        ("--p-list", str, "0.1,0.3,0.5,0.7",
         "comma-separated per-copy rates (default 0.1,0.3,0.5,0.7)"),
        ("--n-max", int, 20, "largest repeat budget (default 20)"),
        ("--shots", int, DEFAULT_SHOTS, f"samples per rate (default {DEFAULT_SHOTS})"),
        ("--format", str, "csv", "output format (default csv)", ("csv", "json")),
        *_OUTPUT_ROWS,
    )),
    "certify": ("negativity/Schmidt certificates for every cut", (
        ("--state-file", str, None, "JSON state file to certify"),
        ("--builtin", str, None, f"builtin state name ({', '.join(_BUILTIN_NAMES)})"),
        ("--p", float, 0.5, "mixture weight for parametrized builtins (default 0.5)"),
        ("--schmidt", str, None, "Schmidt coefficients for parametrized builtins"),
        ("--weights", str, None, "weights for the prop3 builtin"),
        *_OUTPUT_ROWS,
    )),
    "svetlichny": ("tripartite nonlocality functional", (
        ("--state-file", str, None, "JSON state file (pure, three qubits)"),
        ("--builtin", str, None, "builtin state name (default ghz3)"),
        ("--angles", str, None, "six equatorial angles A,A',B,B',C,C' (default: optimal)"),
        *_OUTPUT_ROWS,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmesim",
        description="Protocols and certificates for activating genuine "
                    "multipartite entanglement from biseparable states.",
    )
    parser.add_argument("--version", action="version", version=f"gmesim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, rows) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for flag, kind, default, text, *choices in rows:
            if kind is bool:
                cmd.add_argument(flag, action="store_true", help=text)
            else:
                cmd.add_argument(flag, type=kind, default=default, help=text,
                                 choices=choices[0] if choices else None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _artifact(manifest: dict, payload: dict, fmt: str) -> str:
    """The report envelope as JSON, or for ``csv`` the manifest line plus the row table."""
    if fmt != "csv":
        envelope = {"schema_version": SCHEMA_VERSION, "manifest": manifest, "payload": payload}
        return render_json(envelope)
    rows = payload["rows"]
    lines = ["# manifest: " + _render_compact(manifest), ",".join(rows[0])]
    lines += [",".join(_render(value, 0) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so the cached parser holds no handler
    handler = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        seed = resolve_seed(args.seed)
        timestamp = resolve_timestamp(args.timestamp)
        config, payload = handler(args, seed)
        manifest = {
            "subcommand": args.subcommand,
            "config": config,
            "seed": int(seed),
            "version": __version__,
            "timestamp": timestamp,
        }
        text = _artifact(manifest, payload, getattr(args, "format", "json"))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return EXIT_OK
    except InvariantError as exc:
        print(f"gmesim: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"gmesim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # no exit codes beyond 0/2/3
        print(f"gmesim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
