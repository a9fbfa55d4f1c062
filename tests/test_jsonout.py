import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.jsonout import IndentEncoder

PAYLOADS = [
    {},
    [],
    "",
    0,
    None,
    True,
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    {"nested": {"deeper": [1, [2, [3, {"x": None}]]]}, "flags": [True, False, None]},
    {"text": "café – \U0001d49c \"quoted\" \\ \n\t\x00", "ü": "key"},
    {"big": 10**400, "neg": -(10**30), "zero": 0, "tuple": (1, "two", (3,))},
    [{"identity_name": "cassini", "inputs": {"a": 1, "k": 2, "n": 3}, "lhs": "-36",
      "rhs": "-36", "residual_is_zero": True}],
    # lists of strings take the one-pass path; mixed and nested ones fall back
    ["plain", "with \"quotes\"", "back\\slash", "café – \U0001d49c", "\n\t\x00", ""],
    {"entries": [], "rows": [[], []]},
    ["2/5", 7, "-1/5", None, True, "x"],
    [1, 2, "three"],
    {"n": 2, "entries": [["2/5", "-1/5"], ["1/5", "2/5"]]},
    [[["a", "b"], ["\\"]], [[]], ["c", ["d"]]],
]


def _dumps(value, indent=2):
    return json.dumps(value, indent=indent, cls=IndentEncoder)


@pytest.mark.parametrize("payload", PAYLOADS)
def test_bytes_match_the_stock_encoder(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("indent", [0, 1, 4])
def test_other_indents(indent):
    assert _dumps(PAYLOADS[7], indent) == json.dumps(PAYLOADS[7], indent=indent)


@pytest.mark.parametrize(
    "payload",
    [{"x": 1.5, "y": float("nan")}, {1: "int key", None: [True]}, [float("inf")]],
)
def test_other_types_go_to_the_stock_encoder(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)


def test_unencodable_value_raises_like_the_stock_encoder():
    with pytest.raises(TypeError):
        _dumps({"x": object()})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_random_payloads_match(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)


string_lists = st.recursive(
    st.lists(st.text(), max_size=5),
    lambda inner: st.lists(inner | st.text() | st.integers(), max_size=4),
    max_leaves=20,
)


@given(string_lists)
def test_random_lists_of_strings_match(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)
    assert _dumps({"entries": payload}, 4) == json.dumps({"entries": payload}, indent=4)
