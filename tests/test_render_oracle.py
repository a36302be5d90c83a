"""The canonical JSON renderer against its one-``isinstance``-chain form.

``cli._render`` dispatches on a value's exact type first and matches a
subclass against the serializable types in order; ``helpers.loop_render``
runs one ``isinstance`` chain per value.  Every payload below, nested
containers of the values the artifacts hold and of their edge cases, must
give the same text from both, or the same exception with the same message:
a non-finite float is a ValueError, a value of any other type (a NumPy
float32, a NumPy bool) a TypeError.  The csv artifact's manifest line and
rows are compared the same way.
"""

import collections
import enum
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmesim import cli

from helpers import loop_csv_artifact, loop_render, loop_render_compact, loop_render_json

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class Text(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Rows(list):
    pass


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0**53 + 1,
               math.nan, math.inf, -math.inf]
EDGE_TEXT = ['"', "\\", '\\"', "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", "日本", "\U0001f600",
             "\ud800", "</script>", ""]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
texts = st.text(max_size=8) | st.sampled_from(EDGE_TEXT)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    texts,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    texts.map(Text),
    st.integers().map(Count),
    st.sampled_from(list(Level)),
    st.sampled_from([np.float32(0.5), np.bool_(True), 1j, b"x"]),
)
keys = st.one_of(texts, st.integers(), st.sampled_from([True, None, 0.5]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Rows),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(collections.OrderedDict),
    )


payloads = st.recursive(scalars, containers, max_leaves=24)


def outcome(render, *args):
    """The rendered text, or the exception's type and message."""
    try:
        return render(*args)
    except Exception as exc:  # the renderers' refusals must agree too
        return type(exc), str(exc)


@PROPERTY
@given(payload=payloads, indent=st.sampled_from([0, 2, 6]))
@example(payload={"p": -0.0, "n": np.int64(3), "rows": [], "x": {}, 2: (5e-324, 1e308)}, indent=0)
@example(payload=[np.float64(0.25), True, None, 'a"b\\c\x01é'], indent=0)
@example(payload={"bad": [1.0, math.nan]}, indent=0)
@example(payload={"bad": np.float32(0.5)}, indent=0)
def test_render_equals_the_isinstance_chain(payload, indent):
    assert outcome(cli._render, payload, indent) == outcome(loop_render, payload, indent)
    assert outcome(cli.render_json, payload) == outcome(loop_render_json, payload)
    assert outcome(cli._render_compact, payload) == outcome(loop_render_compact, payload)


row_values = st.one_of(st.integers(0, 50), floats, floats.map(np.float64), st.none(), texts)


@st.composite
def csv_tables(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.lists(row_values, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=6))
    return [dict(zip(names, row)) for row in rows]


@PROPERTY
@given(manifest=st.dictionaries(texts, payloads, max_size=4), rows=csv_tables())
def test_csv_artifact_equals_the_isinstance_chain(manifest, rows):
    want = outcome(loop_csv_artifact, manifest, rows)
    assert outcome(cli._artifact, manifest, {"rows": rows}, "csv") == want


@pytest.mark.parametrize("value, error, message", [
    (math.nan, ValueError, "cannot serialize non-finite numbers"),
    (np.float64(-math.inf), ValueError, "cannot serialize non-finite numbers"),
    (np.float32(0.5), TypeError, "cannot serialize float32 values"),
    (np.bool_(False), TypeError, f"cannot serialize {np.bool_.__name__} values"),
])
def test_refusals_name_the_value(value, error, message):
    for render in (cli.render_json, loop_render_json):
        with pytest.raises(error, match=f"^{message}$"):
            render({"rows": [{"x": value}]})
