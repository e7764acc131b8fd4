"""values.json_text against json.dumps(indent=2, sort_keys=True), its oracle."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genera.values import json_text

# characters json escapes, or that sit at the edge of printable ASCII
SPECIAL = '"\\/\x00\x08\x1f\x7f\x80 ~\u00e9\u2028\u2029\ud800\udfff\U0001f600'

strings = st.text(st.characters(exclude_categories=()) | st.sampled_from(SPECIAL)) | st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7e))
ints = st.integers() | st.sampled_from([10**300, -10**300, 2**63, -2**63 - 1])
scalars = st.none() | st.booleans() | ints | strings
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(strings, inner, max_size=4), max_leaves=30)


@settings(max_examples=400)
@given(values)
def test_json_text_is_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    {}, [], [{}], {"a": []}, [[[]], {"b": {}}], "", True, False, None, 0, -1, 10**40,
    {"b": 1, "a": 2, "A": 3, "é": 4, "": 5}, SPECIAL, {c: [c] for c in SPECIAL},
])
def test_json_text_on_edge_values(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


# a tuple too: the writer takes lists only, where json.dumps would take it as one
@pytest.mark.parametrize("obj", [
    1.5, [0.0], {"x": float("nan")}, {1: "a"}, {"a": {None: 1}}, {"a", "b"}, b"x",
    [bytearray(b"x")], (1, 2),
])
def test_json_text_refuses_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)
