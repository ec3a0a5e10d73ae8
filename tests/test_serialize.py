import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toporeg.serialize import dump_json

from oracles import recursive_dump_json


def test_control_characters_round_trip():
    text = "a\x00b\x1f\"\\é"
    out = dump_json({"s": text})
    assert json.loads(out) == {"s": text}
    assert "é" in out  # non-ASCII stays literal UTF-8


def test_plain_strings_unchanged():
    assert dump_json(["selected_bars", "runs/metrics_seed0.jsonl", "a\tb\n"]) == (
        '["selected_bars", "runs/metrics_seed0.jsonl", "a\\tb\\n"]'
    )


@pytest.mark.parametrize(
    "key",
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "é ü 漢 \U0001f600", "lone \ud800 \udfff", ""],
    ids=["quotes", "backslash", "controls", "non_ascii", "lone_surrogates", "empty"],
)
def test_keys_and_strings_render_as_the_standard_encoder_does(key):
    encoded = json.JSONEncoder(ensure_ascii=False).encode(key)
    assert dump_json({key: key}) == f"{{{encoded}: {encoded}}}"
    assert dump_json({key: [key]}, indent=2) == f"{{\n  {encoded}: [\n    {encoded}\n  ]\n}}"


# characters the string encoder must escape or keep: controls, quotes,
# backslashes, non-ASCII text and lone surrogates
CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "é", " ", "\U0001f600"]),
    st.characters(),
)
STRINGS = st.text(CHARACTERS, max_size=8)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 0.1, 1e16, 1e22, 1e300, 1.7976931348623157e308]
EDGE_INTS = [0, -1, 2**63, -(2**63) - 1, 10**30]
SCALARS = st.one_of(
    STRINGS,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(EDGE_INTS),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
)
PAYLOADS = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4), max_leaves=24
)
EVERY_CASE = {
    "floats": EDGE_FLOATS,
    "ints": EDGE_INTS,
    "sé\x00\"\\\ud800": ["a\tb\n", "\udfff", "\U0001f600"],
    "": [True, False, None, [], {}, [[]], {"k": {}}],
}


def as_bytes(text):
    return text.encode("utf-8", "surrogatepass")  # lone surrogates pass through as they are


@settings(max_examples=200, deadline=None)
@example(payload=EVERY_CASE)
@given(payload=PAYLOADS)
def test_matches_recursive_oracle(payload):
    for indent in (0, 2):
        assert as_bytes(dump_json(payload, indent=indent)) == as_bytes(recursive_dump_json(payload, indent=indent))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_raises_value_error(value):
    with pytest.raises(ValueError):
        dump_json({"x": [1, value]})


@pytest.mark.parametrize("value", [{1}, np.int64(1), object()], ids=["set", "np_int64", "object"])
def test_unlisted_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dump_json([value])


def test_tuples_write_as_arrays_and_keys_as_strings():
    # the standard encoder's rules; no caller builds either
    assert dump_json({"t": (1, (2.5, "x"))}) == '{"t": [1, [2.5, "x"]]}'
    assert dump_json({1: 2, 0.5: True, None: 3}) == '{"1": 2, "0.5": true, "null": 3}'


def test_bools_inside_containers_are_not_ints():
    # bool is an int subclass; inside a list or dict True must still write true
    payload = {"a": True, "b": [False, 1, True, None], "c": 1}
    assert dump_json(payload) == '{"a": true, "b": [false, 1, true, null], "c": 1}'
    assert dump_json([True, {"k": False}], indent=1) == '[\n true,\n {\n  "k": false\n }\n]'


@pytest.mark.parametrize(
    "value,text",
    [
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (0.0, "0.0"),
        (2.0, "2.0"),
        (1e300, "1e+300"),
        (1e16, "1e+16"),
        (5e-324, "5e-324"),
        (1 / 3, "0.3333333333333333"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ],
)
def test_floats_print_as_shortest_round_trip_repr(value, text):
    assert dump_json([value]) == f"[{text}]"
    assert dump_json({"x": value}, indent=2) == f'{{\n  "x": {text}\n}}'
    (back,) = json.loads(dump_json([value]))
    assert back.hex() == value.hex()


def test_float_subclasses_inside_containers_format_like_floats():
    values = [0.1, -0.0, 0.0, 1e300, 1 / 3]
    assert dump_json({"x": [np.float64(v) for v in values]}) == dump_json({"x": values})
    assert dump_json({"x": np.float64(0.1), "y": [np.float64(-0.0)]}) == '{"x": 0.1, "y": [-0.0]}'
    with pytest.raises(ValueError):
        dump_json({"x": [np.float64(np.inf)]})


def test_key_order_and_layouts():
    payload = {"z": [1, 2.5], "a": {"y": None, "b": 3}, "m": {}, "c": []}
    assert dump_json(payload) == '{"z": [1, 2.5], "a": {"y": null, "b": 3}, "m": {}, "c": []}'
    assert dump_json(payload, indent=2) == (
        '{\n  "z": [\n    1,\n    2.5\n  ],\n  "a": {\n    "y": null,\n    "b": 3\n  },\n  "m": {},\n  "c": []\n}'
    )
