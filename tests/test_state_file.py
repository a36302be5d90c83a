"""The state-file boundary of ``gmesim.cli``: parsing, refusals, round trips.

A file the byte reader refuses is decoded by ``json`` and its pairs are
converted by ``_pairs_loop``, one pair at a time: each part must be a JSON
number, of any size and sign that fits a float, and a numeric string or a
boolean exits 2 naming its pair.  Values are compared with the per-item oracles in ``tests/helpers.py`` by their
bytes; every refusal names the failing pair, value or field.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import cli
from gmesim.protocols import build_prop3_state, normalize_schmidt
from gmesim.qcore import bell_pair

from helpers import loop_complex_pairs

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.2250738585072014e-308,
               1.7e308, -1.7e308, 1.7976931348623157e308]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@PROPERTY
@given(
    values=st.lists(finite_floats, min_size=2, max_size=32).filter(lambda v: len(v) % 2 == 0),
    layout=st.sampled_from(["flat", "C", "F", "transposed"]),
)
def test_complex_pairs_equal_the_per_item_loop(values, layout):
    flat = np.empty(len(values) // 2, dtype=complex)
    flat.real, flat.imag = values[0::2], values[1::2]
    arr = {
        "flat": flat,
        "C": np.ascontiguousarray(flat.reshape(-1, 1)),
        "F": np.asfortranarray(flat.reshape(1, -1)),
        "transposed": flat.reshape(1, -1).T,
    }[layout]
    got, want = cli._complex_pairs(arr), loop_complex_pairs(arr)
    assert [[x.hex() for x in p] for p in got] == [[x.hex() for x in p] for p in want]
    assert all(type(x) is float for p in got for x in p)


def _prop3_density():
    return build_prop3_state(normalize_schmidt([0.7, 1.1, 0.9, 1.3]), (0.2, 0.3, 0.5))


def test_256_dim_density_round_trips_bit_for_bit(tmp_path):
    state = _prop3_density()
    path = tmp_path / "prop3.json"
    cli.save_state_file(str(path), state)
    loaded = cli.load_state_file(str(path))
    assert loaded.dims == state.dims
    assert loaded.matrix.tobytes() == state.matrix.tobytes()
    # the file is the one the per-item writer renders
    dims = [int(d) for d in state.dims.dims]
    old = {"dims": dims, "kind": "density", "matrix": loop_complex_pairs(state.matrix)}
    assert path.read_text(encoding="utf-8") == cli.render_json(old)


def test_parse_allocates_little_beyond_its_result():
    """A whole-list NumPy conversion would hold 2 MiB more for 65,536 pairs."""
    pairs = cli.state_to_payload(_prop3_density())["matrix"]
    tracemalloc.start()
    try:
        cli._pairs_loop(pairs, len(pairs), "matrix")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20  # the 1 MiB result and small change


# ---------------------------------------------------------------------------
# refusals: every one exits 2 with a message naming what is wrong


def certify(tmp_path, capsys, doc) -> tuple[int, str]:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["certify", "--state-file", str(path)])
    return code, capsys.readouterr().err


def _bell_doc(**changes):
    doc = cli.state_to_payload(bell_pair("phi+"))
    doc.update(changes)
    return doc


def _with_pair(index, pair):
    amps = _bell_doc()["amplitudes"]
    amps[index] = pair
    return _bell_doc(amplitudes=amps)


@pytest.mark.parametrize(
    "doc, message",
    [
        (_bell_doc(amplitudes=[[0.5, 0.0]] * 3), "amplitudes must be a list of 4 [re, im] pairs"),
        (_bell_doc(amplitudes={"0": [1.0, 0.0]}), "amplitudes must be a list of 4 [re, im] pairs"),
        (_with_pair(1, [0.0]), "amplitudes[1] is not an [re, im] pair"),
        (_with_pair(1, [0.0, 0.0, 0.0]), "amplitudes[1] is not an [re, im] pair"),
        (_with_pair(2, 0.5), "amplitudes[2] is not an [re, im] pair"),
        (_with_pair(2, "ab"), "amplitudes[2] is not an [re, im] pair"),
        (_with_pair(1, [None, 0.0]), "amplitudes[1] is not an [re, im] pair of numbers"),
        (_with_pair(3, [0.0, {}]), "amplitudes[3] is not an [re, im] pair of numbers"),
        (_with_pair(1, [[0.0], 0.0]), "amplitudes[1] is not an [re, im] pair of numbers"),
        (_with_pair(1, [10**400, 0.0]), "amplitudes[1] is not an [re, im] pair of numbers"),
        (_with_pair(1, ["abc", 0.0]), "amplitudes[1] is not an [re, im] pair of numbers"),
        (_with_pair(2, ["0.5", 0.0]), "amplitudes[2] is not an [re, im] pair of numbers"),
        (_with_pair(3, [0.0, True]), "amplitudes[3] is not an [re, im] pair of numbers"),
        (_with_pair(1, [math.inf, 0.0]),
         "pure state on dims (2, 2): amplitude entry 1 is (inf+0j); entries must be finite"),
        (_with_pair(2, [0.0, -math.inf]),
         "pure state on dims (2, 2): amplitude entry 2 is -infj; entries must be finite"),
        (_with_pair(3, [math.nan, 0.0]),
         "pure state on dims (2, 2): amplitude entry 3 is (nan+0j); entries must be finite"),
    ],
    ids=["count", "not-a-list", "short", "long", "number", "string", "null", "object",
         "nested", "huge-int", "non-numeric", "numeric-string", "boolean", "inf", "-inf-imag",
         "nan"],
)
def test_malformed_pairs_exit_2_with_their_message(tmp_path, capsys, doc, message):
    code, err = certify(tmp_path, capsys, doc)
    assert code == cli.EXIT_USAGE
    assert err == f"gmesim: error: {message}\n"


@pytest.mark.parametrize("pairs", [
    [[" 0.6 ", False], ["0", "-0"], [0, "0_0"], [False, "8e-1"]],
    [[True, "0"], [False, " -0.0\n"]],
])
def test_numeric_strings_and_booleans_exit_2_naming_the_entry(tmp_path, capsys, pairs):
    code, err = certify(tmp_path, capsys, {"dims": [len(pairs)], "kind": "pure",
                                           "amplitudes": pairs})
    assert code == cli.EXIT_USAGE
    assert err == "gmesim: error: amplitudes[0] is not an [re, im] pair of numbers\n"


@pytest.mark.parametrize(
    "pair, literal, entry",
    [([0.0, math.inf], "Infinity", "infj"), ([-math.inf, 0.0], "-Infinity", "(-inf+0j)"),
     ([math.nan, 1.0], "NaN", "(nan+1j)")],
)
def test_non_finite_literals_reach_the_density_check(tmp_path, capsys, pair, literal, entry):
    payload = cli.state_to_payload(_prop3_density())
    payload["matrix"][5] = pair
    code, err = certify(tmp_path, capsys, payload)
    assert literal in (tmp_path / "state.json").read_text(encoding="utf-8")
    assert code == cli.EXIT_USAGE
    assert err == (
        f"gmesim: error: density operator on dims (4, 4, 4, 4): "
        f"matrix entry (0, 5) is {entry}; entries must be finite\n"
    )


@pytest.mark.parametrize(
    "dims, message",
    [
        ([2.9, 2.2], "state file 'dims' must be a list of integers, got [2.9, 2.2]"),
        ("22", "state file 'dims' must be a list of integers, got '22'"),
        (["2", "2"], "state file 'dims' must be a list of integers, got ['2', '2']"),
        ([True, 2], "state file 'dims' must be a list of integers, got [True, 2]"),
        (4, "state file 'dims' must be a list of integers, got 4"),
        ([1, 4], "every local dimension must be >= 2, got (1, 4)"),
        ([], "at least one party is required"),
    ],
)
def test_dims_must_be_a_list_of_integers(tmp_path, capsys, dims, message):
    code, err = certify(tmp_path, capsys, _bell_doc(dims=dims))
    assert code == cli.EXIT_USAGE
    assert err == f"gmesim: error: {message}\n"


@pytest.mark.parametrize("dims", [[64, 64, 2], [2**32, 2**32]])
def test_over_cap_dims_are_refused_before_any_pair(tmp_path, capsys, dims):
    code, err = certify(tmp_path, capsys, _bell_doc(dims=dims, amplitudes=[]))
    assert code == cli.EXIT_USAGE
    total = math.prod(dims)
    assert err == f"gmesim: error: total dimension {total} exceeds the cap 4096\n"


def test_missing_dims_names_the_field(tmp_path, capsys):
    doc = _bell_doc()
    del doc["dims"]
    code, err = certify(tmp_path, capsys, doc)
    assert code == cli.EXIT_USAGE
    assert err == "gmesim: error: state file is missing a valid field: 'dims'\n"


@pytest.mark.parametrize("doc, message", [
    ({"dims": [2], "kind": "density"}, "density state files need a 'matrix' field"),
    (_bell_doc(kind="mixed"), "unknown state kind 'mixed'; expected 'pure' or 'density'"),
], ids=["density-without-matrix", "unknown-kind"])
def test_kind_and_its_pair_field_are_checked(tmp_path, capsys, doc, message):
    code, err = certify(tmp_path, capsys, doc)
    assert code == cli.EXIT_USAGE
    assert err == f"gmesim: error: {message}\n"


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text", [_DEEP, json.dumps(_bell_doc())[:-1] + ', "extra": ' + _DEEP + "}"],
    ids=["bare", "extra-member"],
)
def test_deeply_nested_file_is_a_usage_error_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    message = f"state file {path} nests its JSON too deeply to read"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli.load_state_file(str(path))
    assert cli.main(["certify", "--state-file", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"gmesim: error: {message}\n"


# ---------------------------------------------------------------------------
# the per-pair loop runs only on files the byte reader refuses


@pytest.fixture
def loop_calls(monkeypatch):
    calls = []
    loop = cli._pairs_loop

    def counted(*args):
        calls.append(args[2])
        return loop(*args)

    monkeypatch.setattr(cli, "_pairs_loop", counted)
    return calls


def test_valid_file_never_enters_the_loop(tmp_path, loop_calls):
    path = tmp_path / "prop3.json"
    cli.save_state_file(str(path), _prop3_density())
    assert cli.load_state_file(str(path)).dims.total == 256
    cli.save_state_file(str(path), bell_pair("phi+"))
    cli.load_state_file(str(path))
    assert loop_calls == []


@pytest.mark.parametrize("index", [7, 65535])
@pytest.mark.parametrize(
    "pair, message",
    [
        ([math.nan, 0.0], "entries must be finite"),
        ([None, 0.0], "is not an [re, im] pair of numbers"),
        ([0.0], "is not an [re, im] pair"),
    ],
    ids=["nan", "null", "ragged"],
)
def test_invalid_file_enters_the_loop_once(tmp_path, loop_calls, pair, message, index):
    payload = cli.state_to_payload(_prop3_density())
    payload["matrix"][index] = pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=message.replace("[", r"\[").replace("]", r"\]")):
        cli.load_state_file(str(path))
    assert loop_calls == ["matrix"]
