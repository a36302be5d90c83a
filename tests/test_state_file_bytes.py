"""State files read from their bytes, and written in one formatting pass.

``cli.load_state_file`` reads a file whose pair array is a member of its
top-level object, in any place, and holds only JSON numbers without the
``json`` decoder, in any whitespace layout; every other file goes to
``json.load`` and ``state_from_payload``.  Each file must give what
``helpers.oracle_load_state_file`` gives: the same values bit for bit, or
the same exception with the same message.  ``save_state_file`` must write
the bytes ``render_json(state_to_payload(state))`` renders.
"""

import contextlib
import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import cli
from gmesim.protocols import build_prop3_state, normalize_schmidt
from gmesim.qcore import DensityOperator, PartyDims, PureState

from helpers import loop_pairs_to_array, oracle_load_state_file

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               2.2250738585072014e-308, 0.1, 1 / 3, -2 / 3, 1e22, 1.7976931348623157e308]

#: Spellings of one double that JSON reads back as that double.
SPELLINGS = (repr, lambda x: format(x, ".17g"), lambda x: format(x, ".17E"),
             lambda x: format(x, ".16e").replace("e", "E"))

WHITESPACE = ["", " ", "  ", "\n", "\t", "\r\n", "\n    ", " \t\r\n "]


@contextlib.contextmanager
def json_load_calls():
    """The files ``json.load`` decodes inside the block."""
    calls = []
    load = json.load

    def counted(fh, *args, **kwargs):
        calls.append(fh.name)
        return load(fh, *args, **kwargs)

    with mock.patch.object(cli.json, "load", counted):
        yield calls


def outcome(loader, path):
    """A loaded state's type, dims and value bytes, or the exception and its message."""
    try:
        state = loader(str(path))
    except Exception as exc:  # the CLI maps every exception to an exit code
        return type(exc).__name__, str(exc)
    values = state.amplitudes if isinstance(state, PureState) else state.matrix
    return type(state).__name__, state.dims.dims, values.dtype.str, values.shape, values.tobytes()


def bytes_values(raw: bytes):
    """The pair array of ``raw`` as the byte reader converts it, or None."""
    split = cli._split_pair_array(raw)
    if split is None:
        return None
    tokens = cli._scan_pair_array(split[2])
    if tokens is None:
        return None
    return cli._token_values(split[2], *tokens[1:]).view(complex)


# ---------------------------------------------------------------------------
# the number grammar


def test_number_tokens_follow_the_json_grammar():
    """Every token of up to five bytes over the number alphabet, against JSON's rule.

    '1' stands for every nonzero digit.  An accepted token must also read as
    ``float()`` reads JSON's value of it, including "-0" as +0.0.
    """
    for size in range(1, 6):
        for chars in itertools.product("01-+.eE", repeat=size):
            token = "".join(chars)
            region = bytearray(b"[[%s, 0]]" % token.encode())
            tokens = cli._scan_pair_array(region)
            assert (tokens is not None) == bool(JSON_NUMBER.fullmatch(token)), token
            if tokens is not None:
                got = cli._token_values(region, *tokens[1:])[0]
                assert got.tobytes() == np.float64(float(json.loads(token))).tobytes(), token


@pytest.mark.parametrize("token", ["1.5E-3", "-12.5e+10", "-0.000", "100000000000000000000000",
                                   "1e400", "-1e400", "5e-324", "2e-324", "-2.2250738585072011e-308"])
def test_longer_tokens_read_as_float_of_the_json_value(token):
    region = bytearray(b"[[1, %s]]" % token.encode())
    tokens = cli._scan_pair_array(region)
    got = cli._token_values(region, *tokens[1:])[1]
    assert got.tobytes() == np.float64(float(json.loads(token))).tobytes()


def test_tokens_json_would_refuse_to_convert_are_left_to_it():
    """JSON caps integer literals at thousands of digits; no double needs 65 bytes."""
    assert cli._scan_pair_array(bytearray(b"[[1%s, 0]]" % (b"0" * 64))) is None
    assert cli._scan_pair_array(bytearray(b"[[1%s, 0]]" % (b"0" * 63))) is not None


# ---------------------------------------------------------------------------
# any layout reads bit for bit as json + float() reads it


def number_tokens():
    doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    spelled = st.tuples(doubles, st.sampled_from(SPELLINGS)).map(lambda xs: xs[1](xs[0]))
    integers = st.integers(-(2**80), 2**80).map(str) | st.just("-0")
    return spelled | integers


@st.composite
def pair_files(draw):
    """A pure state file: its text, any whitespace between any two tokens."""
    count = draw(st.integers(2, 9))
    values = draw(st.lists(number_tokens(), min_size=2 * count, max_size=2 * count))
    ws = st.sampled_from(WHITESPACE)
    pairs = [f"[{draw(ws)}{re}{draw(ws)},{draw(ws)}{im}{draw(ws)}]"
             for re, im in zip(values[0::2], values[1::2])]
    array = "[" + draw(ws) + f"{draw(ws)},{draw(ws)}".join(pairs) + draw(ws) + "]"
    dims = f'"dims"{draw(ws)}:{draw(ws)}[{count}]'
    kind = f'"kind"{draw(ws)}:{draw(ws)}"pure"'
    return (f"{draw(ws)}{{{draw(ws)}{dims}{draw(ws)},{draw(ws)}{kind}{draw(ws)},{draw(ws)}"
            f'"amplitudes"{draw(ws)}:{draw(ws)}{array}{draw(ws)}}}{draw(ws)}'), count


# numbers near the double range overflow the norm that validates the state
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@PROPERTY
@given(file=pair_files())
def test_any_layout_reads_as_json_and_float_read_it(tmp_path_factory, file):
    text, count = file
    want = loop_pairs_to_array(json.loads(text)["amplitudes"], count, "amplitudes")
    got = bytes_values(text.encode())
    assert got is not None
    assert got.tobytes() == want.tobytes()
    path = tmp_path_factory.mktemp("layout") / "state.json"
    path.write_bytes(text.encode())
    with json_load_calls() as calls:
        read = outcome(cli.load_state_file, path)
    assert read == outcome(oracle_load_state_file, path)
    assert calls == []


#: Every spelling of a zero the reader may meet, each read without a parse.
ZERO_SPELLINGS = ["0", "0.0", "-0", "-0.0", "0e0", "-0E+0", "0.00", "0.0e-5"]


@PROPERTY
@given(count=st.integers(60, 600), nonzero=st.integers(0, 30), ws=st.sampled_from(WHITESPACE),
       seed=st.integers(0, 2**32 - 1))
def test_a_long_sparse_array_reads_as_json_and_float_read_it(count, nonzero, ws, seed):
    """Zeros in every spelling around a few other numbers, over many hundred bytes.

    The reader locates only the tokens that are not "0" or "0.0", so their
    starts, ends and indices must come out right wherever they sit.
    """
    rng = np.random.default_rng(seed)
    tokens = rng.choice(ZERO_SPELLINGS, size=2 * count).tolist()
    for k in rng.choice(2 * count, size=min(nonzero, 2 * count), replace=False):
        value = rng.uniform(-1.0, 1.0) * 10.0 ** int(rng.integers(-30, 30))
        tokens[k] = SPELLINGS[int(rng.integers(len(SPELLINGS)))](value)
    pairs = [f"[{re},{ws}{im}]" for re, im in zip(tokens[0::2], tokens[1::2])]
    text = f'{{"dims": [{count}], "kind": "pure", "amplitudes": [{ws}{f",{ws}".join(pairs)}]}}'
    want = loop_pairs_to_array(json.loads(text)["amplitudes"], count, "amplitudes")
    assert bytes_values(text.encode()).tobytes() == want.tobytes()


@pytest.mark.parametrize("zero", ["0", "-0.0"])
def test_a_number_on_a_256_byte_boundary_keeps_its_index(zero):
    """Token starts at bytes 256 and 768 of the array, where the starts are also counted."""
    pair = f"[{zero},{zero}],"
    head = (256 - 3) // len(pair) * pair
    pad = (252 - len(head)) * " "
    middle = (512 - 6) // len(pair) * pair
    array = f"[{pad}{head}[0,5],{middle}{(506 - len(middle)) * ' '}[0,7],{pair * 40}[0,0]]"
    assert (array.index("5"), array.index("7")) == (256, 768)
    count = array.count("[") - 1
    text = f'{{"dims": [{count}], "kind": "pure", "amplitudes": {array}}}'
    want = loop_pairs_to_array(json.loads(text)["amplitudes"], count, "amplitudes")
    assert bytes_values(text.encode()).tobytes() == want.tobytes()


def write_layouts(state, directory):
    """The state's file as save_state_file writes it and as json.dump writes it."""
    pure = isinstance(state, PureState)
    field = "amplitudes" if pure else "matrix"
    flat = (state.amplitudes if pure else state.matrix).reshape(-1)
    doc = {"dims": list(state.dims.dims), "kind": "pure" if pure else "density",
           field: np.stack([flat.real, flat.imag], axis=1).tolist()}
    saved, dumped = directory / "saved.json", directory / "dumped.json"
    cli.save_state_file(str(saved), state)
    with open(dumped, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return saved, dumped


amplitude_parts = (st.floats(-1e6, 1e6, allow_nan=False)
                   | st.sampled_from([x for x in EDGE_FLOATS if abs(x) < 1]))


@st.composite
def pure_states(draw):
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]))
    size = 2 * int(np.prod(dims))
    parts = np.array(draw(st.lists(amplitude_parts, min_size=size, max_size=size)))
    amplitudes = parts.view(complex)
    norm = np.linalg.norm(amplitudes)
    if not 1e-3 < norm < 1e7:
        amplitudes = np.zeros_like(amplitudes)
        amplitudes[draw(st.integers(0, len(amplitudes) - 1))] = 1.0
        norm = 1.0
    return PureState(dims, amplitudes / norm)


@PROPERTY
@given(state=pure_states(), density=st.booleans())
def test_both_layouts_read_as_the_oracle_reads_them(tmp_path_factory, state, density):
    if density:
        state = DensityOperator(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))
    for path in write_layouts(state, tmp_path_factory.mktemp("layouts")):
        with json_load_calls() as calls:
            read = outcome(cli.load_state_file, path)
        assert read == outcome(oracle_load_state_file, path)
        assert calls == []


def _prop3_density():
    return build_prop3_state(normalize_schmidt([0.7, 1.1, 0.9, 1.3]), (0.2, 0.3, 0.5))


def test_prop3_in_both_layouts_never_reaches_json(tmp_path):
    for path in write_layouts(_prop3_density(), tmp_path):
        with json_load_calls() as calls:
            read = outcome(cli.load_state_file, path)
        assert calls == []
        assert read == outcome(oracle_load_state_file, path)


def test_the_value_stage_parses_only_the_nonzero_tokens(tmp_path):
    """47 nonzero tokens among 131,072: under two kilobytes parsed, not the whole array."""
    for path in write_layouts(_prop3_density(), tmp_path):
        _, _, region = cli._split_pair_array(path.read_bytes())
        before = bytes(region)
        tokens = cli._scan_pair_array(region)
        parsed = []
        fromstring = np.fromstring

        def recording(text, *args, **kwargs):
            parsed.append(text)
            return fromstring(text, *args, **kwargs)

        with mock.patch.object(cli.np, "fromstring", recording):
            values = cli._token_values(region, *tokens[1:])
        assert region == before
        assert len(region) > 500_000
        assert len(parsed) == 1 and len(parsed[0]) < 2_000
        assert len(parsed[0].split()) == np.count_nonzero(values) == 47


#: The tracemalloc peak of ``_read_pairs`` on the prop3 density, over the
#: file's size, when the reader formed bounds for every token: 7.83 on the
#: save_state_file layout (6,164,468 bytes) and 8.33 on the json.dump one
#: (Python 3.11, NumPy 2.4.6).
PEAK_PER_FILE_BYTE = 7.8


def test_the_reader_costs_what_the_nonzero_tokens_hold(tmp_path):
    """No index array per token: positions, indices and the parse cover the 47 nonzero ones."""
    for path in write_layouts(_prop3_density(), tmp_path):
        _, _, region = cli._split_pair_array(path.read_bytes())
        formed, parsed = [], []
        flatnonzero, fromstring = np.flatnonzero, np.fromstring

        def recording(a, *args, **kwargs):
            formed.append(flatnonzero(a, *args, **kwargs))
            return formed[-1]

        def parsing(text, *args, **kwargs):
            parsed.append(text)
            return fromstring(text, *args, **kwargs)

        with mock.patch.object(cli.np, "flatnonzero", recording), \
                mock.patch.object(cli.np, "fromstring", parsing):
            tokens = cli._scan_pair_array(region)
            values = cli._token_values(region, *tokens[1:])
        assert tokens[:2] == (65536, 131072) and len(values) == 131072
        assert formed and max(len(a) for a in formed) < 200
        assert [len(a) for a in tokens[2:]] == [47, 47, 47]
        assert len(parsed) == 1 and len(parsed[0].split()) == 47
        tracemalloc.start()
        try:
            assert cli._read_pairs(str(path)) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_PER_FILE_BYTE * path.stat().st_size


def test_certify_artifacts_match_the_json_reader_in_both_layouts(tmp_path, capsys):
    for path in write_layouts(_prop3_density(), tmp_path):
        assert cli.main(["certify", "--state-file", str(path)]) == cli.EXIT_OK
        got = capsys.readouterr()
        with mock.patch.object(cli, "load_state_file", oracle_load_state_file):
            assert cli.main(["certify", "--state-file", str(path)]) == cli.EXIT_OK
        assert (got.out, got.err) == tuple(capsys.readouterr())


def test_negative_zero_round_trips_as_positive_zero(tmp_path):
    """.17g writes -0.0 as "-0", which JSON reads as the integer 0."""
    state = PureState((2,), np.array([complex(1.0, -0.0), 0.0]))
    saved, dumped = write_layouts(state, tmp_path)
    assert '[1, -0]' in saved.read_text(encoding="utf-8")
    assert not np.signbit(cli.load_state_file(str(saved)).amplitudes[0].imag)
    assert np.signbit(cli.load_state_file(str(dumped)).amplitudes[0].imag)


# ---------------------------------------------------------------------------
# everything else goes to json.load and gives its values or its message


BASE = PureState((2, 2), np.array([0.6, 0.0, 0.0, 0.8j]))


def first_token(new):
    """Replace the first number of the pair array by ``new``."""
    return lambda text: re.sub(r'("amplitudes"\s*:\s*\[\s*\[\s*)[-+.0-9eE]+',
                               lambda m: m.group(1) + new, text, count=1)


def insert_at(anchor, new):
    """Insert ``new`` right after the last ``anchor``."""
    def mutate(text):
        i = text.rindex(anchor) + len(anchor)
        return text[:i] + new + text[i:]
    return mutate


def drop_last(char):
    return lambda text: text[: text.rindex(char)] + text[text.rindex(char) + 1:]


def rewrite(doc_change):
    """Re-render the document after ``doc_change`` in the file's own layout."""
    def mutate(text):
        doc = json.loads(text)
        doc = doc_change(doc)
        return json.dumps(doc) if "\n" not in text.strip() else cli.render_json(doc)
    return mutate


MUTATIONS = {
    "dropped-outer-bracket": drop_last("]"),
    "dropped-inner-bracket": lambda text: re.sub(r'("amplitudes"\s*:\s*\[\s*)\[', r"\1", text),
    "duplicate-key": insert_at("{", ' "amplitudes": [[1, 0]],'),
    "key-inside-a-string": insert_at("{", ' "note": "\\"amplitudes\\": [[1, 0]]",'),
    "escaped-key": lambda text: text.replace('"amplitudes"', '"ampl\\u0069tudes"'),
    "wrong-count": rewrite(lambda d: {**d, "amplitudes": d["amplitudes"][:3]}),
    "nested-number": first_token("[0.6]"),
    "NaN": first_token("NaN"),
    "Infinity": first_token("-Infinity"),
    "overflow": first_token("1e400"),
    "null": first_token("null"),
    "leading-dot": first_token(".6"),
    "leading-zero": first_token("00.6"),
    "dangling-dot": first_token("1."),
    "dangling-exponent": first_token("6e"),
    "leading-plus": first_token("+0.6"),
    "numeric-string": first_token('"0.6"'),
    "boolean": first_token("true"),
}


@pytest.mark.parametrize("layout", [0, 1], ids=["save_state_file", "json.dump"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_mutations_reach_json_and_give_its_result(tmp_path, mutation, layout):
    path = write_layouts(BASE, tmp_path)[layout]
    text = MUTATIONS[mutation](path.read_text(encoding="utf-8"))
    assert text != path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    with json_load_calls() as calls:
        read = outcome(cli.load_state_file, path)
    assert calls == [str(path)]
    assert read == outcome(oracle_load_state_file, path)


#: Changes that keep the pair array a plain-number member of the top-level object.
MEMBER_CHANGES = {
    "members-before-the-array": insert_at("{", ' "note": {"a": [1, "]"]}, "dims": [4],'),
    "extra-key-after-the-array": insert_at("]", ', "note": 1'),
    "reordered-keys": rewrite(lambda d: {"amplitudes": d["amplitudes"], "dims": d["dims"],
                                         "kind": d["kind"]}),
}


@pytest.mark.parametrize("layout", [0, 1], ids=["save_state_file", "json.dump"])
@pytest.mark.parametrize("change", list(MEMBER_CHANGES))
def test_members_around_the_array_are_decoded_by_json(tmp_path, change, layout):
    """Extra keys, a repeated dims or another order: json's values, no fallback."""
    path = write_layouts(BASE, tmp_path)[layout]
    text = MEMBER_CHANGES[change](path.read_text(encoding="utf-8"))
    assert text != path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    with json_load_calls() as calls:
        read = outcome(cli.load_state_file, path)
    assert calls == []
    assert read == outcome(oracle_load_state_file, path)


# ---------------------------------------------------------------------------
# the pair array in any place among the top-level members


SWEEP_STATES = [BASE, DensityOperator((2,), np.array([[0.75, 0.25j], [-0.25j, 0.25]]))]

#: Members placed right before or right after the pair array.
DECOYS = {
    "none": (None, None),
    "brackets-before": ("before", lambda field: {"a": [1, "]"], "b": "[[0, 1]]"}),
    "brackets-after": ("after", lambda field: {"a": [1, "]"], "b": "[[0, 1]]"}),
    "nested-key-before": ("before", lambda field: {field: [[1, 0]]}),
    "nested-key-after": ("after", lambda field: [{field: [[1, 0]]}]),
}


def sweep_document(state, order, extras, decoy):
    """The state's members in ``order``, with extra members and a decoy around them."""
    pure = isinstance(state, PureState)
    field = "amplitudes" if pure else "matrix"
    members = {"dims": list(state.dims.dims), "kind": "pure" if pure else "density",
               "pairs": cli._complex_pairs(state.amplitudes if pure else state.matrix)}
    items = [(field if name == "pairs" else name, members[name]) for name in order]
    where, make = DECOYS[decoy]
    if where is not None:
        items.insert(order.index("pairs") + (where == "after"), ("decoy", make(field)))
    if "before" in extras:
        items.insert(0, ("before", [1, {"x": None}]))
    if "after" in extras:
        items.append(("after", {"y": [True, 2.5]}))
    return dict(items)


@pytest.mark.parametrize("decoy", list(DECOYS))
@pytest.mark.parametrize("extras", [(), ("before",), ("after",), ("before", "after")],
                         ids=["alone", "before", "after", "around"])
@pytest.mark.parametrize("order", list(itertools.permutations(("dims", "kind", "pairs"))),
                         ids="-".join)
def test_the_array_in_any_place_reads_as_the_oracle_reads_it(tmp_path, order, extras, decoy):
    """A key spelled once takes the byte path; a nested copy of it sends the file to json."""
    path = tmp_path / "state.json"
    for state, indent in itertools.product(SWEEP_STATES, (None, 2)):
        path.write_text(json.dumps(sweep_document(state, order, extras, decoy), indent=indent),
                        encoding="utf-8")
        with json_load_calls() as calls:
            read = outcome(cli.load_state_file, path)
        assert read == outcome(oracle_load_state_file, path)
        assert calls == ([str(path)] if decoy.startswith("nested-key") else [])


def nested(doc, inner):
    """The document with its pair array moved into the member ``inner`` builds."""
    return {"dims": doc["dims"], "kind": doc["kind"], "inner": inner(doc["amplitudes"])}


@pytest.mark.parametrize("wrap, message", [
    (lambda doc: {**doc, "amplitudes": None, "inner": {"amplitudes": doc["amplitudes"]}},
     "amplitudes must be a list of 4 [re, im] pairs"),
    (lambda doc: nested(doc, lambda pairs: {"amplitudes": pairs}),
     "pure state files need an 'amplitudes' field"),
    (lambda doc: nested(doc, lambda pairs: [{"amplitudes": pairs}]),
     "pure state files need an 'amplitudes' field"),
    (lambda doc: [doc], "state file must contain a JSON object"),
], ids=["beside-a-null-key", "in-an-object", "in-a-list", "document-in-a-list"])
def test_a_nested_pair_array_goes_to_json_and_gives_its_message(tmp_path, wrap, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(wrap(cli.state_to_payload(BASE))), encoding="utf-8")
    with json_load_calls() as calls:
        read = outcome(cli.load_state_file, path)
    assert calls == [str(path)]
    assert read == outcome(oracle_load_state_file, path) == ("ValueError", message)


@pytest.mark.parametrize("dims, message", [
    ("[2.0, 2]", "state file 'dims' must be a list of integers, got [2.0, 2]"),
    ("[64, 64, 2]", "total dimension 8192 exceeds the cap 4096"),
])
def test_dims_messages_come_from_the_decoded_header(tmp_path, capsys, dims, message):
    path = write_layouts(BASE, tmp_path)[1]
    path.write_text(path.read_text(encoding="utf-8").replace("[2, 2]", dims, 1), encoding="utf-8")
    with json_load_calls() as calls:
        assert cli.main(["certify", "--state-file", str(path)]) == cli.EXIT_USAGE
    assert calls == []
    assert capsys.readouterr().err == f"gmesim: error: {message}\n"
    assert outcome(oracle_load_state_file, path) == ("ValueError", message)


# ---------------------------------------------------------------------------
# the writer


@PROPERTY
@given(state=pure_states(), density=st.booleans())
def test_writer_renders_the_bytes_of_render_json(state, density):
    if density:
        state = DensityOperator(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))
    assert cli._state_file_text(state) == cli.render_json(cli.state_to_payload(state))


def test_writer_refuses_non_finite_numbers():
    state = object.__new__(PureState)
    object.__setattr__(state, "dims", PartyDims((2,)))
    object.__setattr__(state, "amplitudes", np.array([np.nan, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="cannot serialize non-finite numbers"):
        cli._state_file_text(state)
