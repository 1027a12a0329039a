"""``jsonio.dumps`` writes exactly what ``json.dumps`` with sorted keys, the
",", ": " separators and indent 1 writes, and refuses what it refuses; the
scalar decoders read every real value one way."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaclose import jsonio, make_field
from deltaclose.scalar import ComplexAlgebraic


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=True, allow_infinity=True), st.text())
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_dumps_matches_json(doc):
    assert jsonio.dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), True, None,
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1e300, 2**70],
    {"é中\U0001f600": ["\x00\n\"\\", {"": {}}], "b": [[], [[]]], "a": (1, (2,))},
    {3: "int", 10: "keys", -1: "sort"}, {1.5: 0, -0.0: 1, float("inf"): 2},
    {True: 0}, {None: [False]},
])
def test_dumps_edge_cases(doc):
    assert jsonio.dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1, 2}, object(), Fraction(1, 2), 1j, [b"bytes"], {"a": {(1, 2): 0}},
    {1: 0, "a": 1},   # keys that do not sort against each other
])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        jsonio.dumps(doc)


def test_decode_complex_reads_a_real_value_as_decode_scalar_does():
    F = make_field([-2, 0, 1], (1, 2))
    for obj in (2.0, {"coords": ["1"]}, "1/2", 3, {"coords": ["0/1", "1/1"]}):
        assert jsonio.decode_complex(F, obj) == ComplexAlgebraic(jsonio.decode_scalar(F, obj))
    assert jsonio.decode_scalar(F, 2.0) == F.rational(2)
    assert jsonio.decode_scalar(F, {"coords": ["1"]}) == F.one()
    assert jsonio.decode_scalar(F, "1/2") == F.rational(Fraction(1, 2))
    assert jsonio.decode_scalar(F, 3) == F.rational(3)
    assert jsonio.decode_scalar(F, {"coords": ["0/1", "1/1"]}) == F.gen()
