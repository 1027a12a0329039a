"""``jsonio.dumps`` writes exactly what ``json.dumps`` with sorted keys, the
",", ": " separators and indent 1 writes, scalar leaves and dicts that appear
more than once included, and refuses what it refuses; the scalar decoders
read every real value one way, and ``decode_scalar`` reads a leaf as
``NumberField.element`` of its ``parse_frac`` coordinates does;
``parse_frac`` reads every string as ``Fraction`` does, ``encode_scalar``
writes what ``frac_str`` of the coordinates writes, ``decode_exppoly`` sums
the monomials as the fold of ``ExpPolynomial.monomial`` does, and
``decode_field`` keeps one field per declaration."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaclose import jsonio, make_field
from deltaclose.errors import FieldMismatch, MalformedInput, NoSignChange, NotSquareFree
from deltaclose.exppoly import ExpPolynomial
from deltaclose.scalar import ComplexAlgebraic, NumberField

from conftest import random_exppoly, rng_for

SQRT2 = make_field([-2, 0, 1], (1, 2))
QUARTIC = make_field([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10)))


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=True, allow_infinity=True), st.text())
# {"coords": ...} dicts: the scalar leaves dumps writes in one step, and the
# near misses (empty lists, non-str entries, tuples, extra keys) it must not
coords_leaves = st.one_of(
    st.builds(lambda c: {"coords": c}, st.lists(st.text(), min_size=1, max_size=4)),
    st.builds(lambda c: {"coords": c}, st.lists(leaves, max_size=4)),
    st.builds(lambda c: {"coords": tuple(c)}, st.lists(st.text(), max_size=3)),
    st.builds(lambda c, k, v: {"coords": c, k: v}, st.lists(st.text(), min_size=1, max_size=3),
              st.text(max_size=8), leaves))
documents = st.recursive(
    st.one_of(leaves, coords_leaves),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_dumps_matches_json(doc):
    assert jsonio.dumps(doc) == reference(doc)


@st.composite
def sharing_documents(draw):
    """Documents that hold one dict object several times, at the same depth
    and at different depths, and a dict that holds another shared one."""
    inner = draw(st.dictionaries(st.text(max_size=8), documents, min_size=1, max_size=3))
    outer = draw(st.dictionaries(st.text(max_size=8), st.one_of(documents, st.just(inner)),
                                 min_size=1, max_size=3))
    outer["inner"] = inner
    tree = draw(st.recursive(
        st.one_of(leaves, st.just(inner), st.just(outer)),
        lambda c: st.one_of(st.lists(c, max_size=4),
                            st.dictionaries(st.text(max_size=8), c, max_size=4)),
        max_leaves=20))
    return {"same": [inner, inner, outer, outer], "deeper": [[inner], {"k": [outer]}],
            "tree": tree, "last": [inner]}


@settings(max_examples=100, deadline=None)
@given(sharing_documents())
def test_dumps_copies_repeated_dicts_as_json_writes_them(doc):
    assert jsonio.dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), True, None,
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1e300, 2**70],
    {"é中\U0001f600": ["\x00\n\"\\", {"": {}}], "b": [[], [[]]], "a": (1, (2,))},
    {3: "int", 10: "keys", -1: "sort"}, {1.5: 0, -0.0: 1, float("inf"): 2},
    {True: 0}, {None: [False]},
    {"coords": []}, {"coords": ["1/2"]}, [{"coords": ["0/1", "-3/2"]}, {"coords": ["é\n"]}],
    {"coords": ("1/2",)}, {"coords": ["1/2", 3]}, {"coords": ["1/2", None]},
    {"coords": ["1/2"], "den": 1}, {"coords": "1/2"}, {"coords": [["1/2"]]},
    {"a": {"coords": ["1/1"]}, "coords": [{"coords": ["2/1"]}]},
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


# -- parse_frac: the canonical fast path reads what Fraction reads ------------

def _read(reader, s):
    """The value ``reader`` reads from ``s``, or "malformed"; ``Fraction``'s
    own errors count as malformed, as ``parse_frac`` maps them."""
    try:
        return reader(s)
    except (MalformedInput, ValueError, OverflowError, ZeroDivisionError):
        return "malformed"


FRACTION_TABLE = [
    "1/2", "-3/4", "0/1", "-0/5", "007/010", "12345678901234567890/3", "4/2", "2/4",
    "1/0", "1/00", "-1/0", "0/0",
    "+1/2", " 1/2", "1/2 ", "1 /2", "1/ 2", "1_0/3", "1/1_0", "_1/2",
    "\u0661/2", "1/\u0662", "\u00b2/3", "\uff11/2",
    "1.5", "-2.25", "1e3", "1E-3", ".5", "5.", "3", "-7", "+0",
    "", "-", "/", "/2", "1/", "1/-2", "--1/2", "-+1/2", "1//2", "1/2/3", "a/b", "nan", "inf",
    "9" * 5000 + "/1", "1/" + "9" * 5000, "-" + "9" * 5000 + "/7",
]


@pytest.mark.parametrize("s", FRACTION_TABLE)
def test_parse_frac_reads_what_fraction_reads(s):
    assert _read(jsonio.parse_frac, s) == _read(Fraction, s)


digits = st.text(st.sampled_from("0123456789"), min_size=1, max_size=30)
odd_chars = st.sampled_from("0123456789-+_ ./eE\u0661\u00b2\uff11")
numerals = st.one_of(
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(["", "-", "+"]), digits, digits),
    st.builds(lambda p, e: f"{p}e{e}", digits, st.integers(-5, 5)),
    st.builds(lambda p, q: f"{p}.{q}", digits, digits),
    st.text(odd_chars, max_size=12),
    st.builds(lambda n, q: "9" * n + "/" + q, st.integers(4290, 4310), digits))


@settings(max_examples=300, deadline=None)
@given(numerals)
def test_parse_frac_matches_fraction_generated(s):
    assert _read(jsonio.parse_frac, s) == _read(Fraction, s)


def test_parse_frac_errors_name_the_input():
    for s in ("1/0", "1/00", "9" * 5000 + "/1"):
        with pytest.raises(MalformedInput, match="bad rational"):
            jsonio.parse_frac(s)


# -- decode_scalar: canonical leaves on integers, as NumberField.element -------

def _element_reference(field, obj):
    """What ``NumberField.element`` of the ``parse_frac`` coordinates gives:
    the (num, den) of the scalar, or the type and message of the error."""
    try:
        x = field.element([jsonio.parse_frac(c) for c in obj["coords"]])
    except (KeyError, TypeError):
        return MalformedInput, f"bad scalar {obj!r}"
    except MalformedInput as e:
        return MalformedInput, str(e)
    return x.num, x.den


def _decoded(field, obj):
    try:
        x = jsonio.decode_scalar(field, obj)
    except MalformedInput as e:
        return MalformedInput, str(e)
    return x.num, x.den


canonical = st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(["", "-"]),
                      digits, digits)
entries = st.one_of(canonical, canonical, numerals, st.integers(-10**6, 10**6),
                    st.sampled_from(["0/1", "1/1", "-0/3", "6/4", "1/0", "0/0"]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([make_field([0, 1], (-1, 1)), SQRT2, QUARTIC]), st.data())
def test_decode_scalar_matches_element_reference(F, data):
    coords = data.draw(st.lists(entries, max_size=F.degree + 1))
    obj = {"coords": coords}
    assert _decoded(F, obj) == _element_reference(F, obj)


def test_decode_scalar_leaves_on_integers(monkeypatch):
    cases = [["1/2", "-3/4"], ["6/4"], [], ["0/1", "0/5"], ["-0/3", "2/1"], ["007/010"],
             ["12345678901234567890/3", "1/6"]]
    odd = [["1/2", 3], ["1.5"], ["1/2", "+1/2"], [" 1/2"], ["1/0"], ["1/2", "1/2", "1/2"],
           ["9" * 5000 + "/1"], "1/2", [["1/2"]], ["\u0661/2"]]
    want = {i: _element_reference(SQRT2, {"coords": c}) for i, c in enumerate(cases + odd)}
    element = NumberField.element
    calls = []

    def counted(self, coords):
        calls.append(coords)
        return element(self, coords)

    monkeypatch.setattr(NumberField, "element", counted)
    for i, c in enumerate(cases):
        x = jsonio.decode_scalar(SQRT2, {"coords": c})
        assert (x.num, x.den) == want[i] and x.field is SQRT2
    assert not calls
    for i, c in enumerate(odd, len(cases)):
        assert _decoded(SQRT2, {"coords": c}) == want[i], c
    assert _decoded(SQRT2, {"cords": ["1/2"]}) == _element_reference(SQRT2, {"cords": ["1/2"]})
    assert _decoded(SQRT2, {"coords": ["1/2"], "den": 7}) == ((1, 0), 2)


# -- encode_scalar: written on integers, as frac_str of the coordinates -------

coordinate = st.one_of(st.just(Fraction(0)), st.integers(-10**6, 10**6).map(Fraction),
                       st.fractions(max_denominator=10**9))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([make_field([0, 1], (-1, 1)), SQRT2, QUARTIC]), st.data())
def test_encode_scalar_matches_frac_str_of_coords(F, data):
    x = F.element(data.draw(st.lists(coordinate, min_size=F.degree, max_size=F.degree)))
    assert jsonio.encode_scalar(x) == {"coords": [jsonio.frac_str(c) for c in x.coords]}


def test_encode_scalar_edge_coordinates():
    for coords in ([0, 0], [-3, 0], [Fraction(-1, 2), Fraction(1, 3)], [0, Fraction(-7, 4)],
                   [5, -6], [Fraction(6, 4), 0]):
        x = SQRT2.element(coords)
        assert jsonio.encode_scalar(x)["coords"] == [jsonio.frac_str(c) for c in x.coords]
    assert jsonio.encode_scalar(SQRT2.zero()) == {"coords": ["0/1", "0/1"]}


# -- decode_exppoly: one pass, the sum of the monomial fold ------------------

def _fold(field, obj):
    """The reading of ``obj`` by the fold ``out + ExpPolynomial.monomial``."""
    dim = jsonio.parse_int(obj["dim"], "dim")
    out = ExpPolynomial.zero(field, dim)
    for entry in obj["terms"]:
        freq = tuple(jsonio.decode_complex(field, z) for z in entry["lambda"])
        for mono in entry["poly"]:
            alpha = tuple(jsonio.parse_int(a, "alpha entry") for a in mono["alpha"])
            coeff = jsonio.decode_expcoef(field, mono["coeff"])
            out = out + ExpPolynomial.monomial(field, dim, alpha, coeff, freq=freq)
    return out


def _layout(f):
    return [(freq, list(poly.items())) for freq, poly in f.terms.items()]


def test_decode_exppoly_sums_as_the_fold():
    rng = rng_for("decode_exppoly_fold")
    for _ in range(40):
        dim = rng.randint(1, 3)
        docs = [jsonio.encode_exppoly(random_exppoly(rng, SQRT2, dim=dim, max_freqs=3))
                for _ in range(3)]
        # repeated frequencies and monomials, some cancelling to zero
        terms = [t for d in docs for t in d["terms"]]
        neg = jsonio.encode_exppoly(-random_exppoly(rng, SQRT2, dim=dim, max_freqs=3))
        terms += terms[:2] + neg["terms"] + [{"lambda": t["lambda"], "poly": []}
                                             for t in terms[:1]]
        if rng.random() < 0.5:
            terms += jsonio.encode_exppoly(-jsonio.decode_exppoly(
                SQRT2, {"dim": dim, "terms": terms}))["terms"][:1]
        rng.shuffle(terms)
        obj = {"dim": dim, "terms": terms}
        got, want = jsonio.decode_exppoly(SQRT2, obj), _fold(SQRT2, obj)
        assert got == want
        assert _layout(got) == _layout(want)   # the same order: the float plans read it


def test_decode_exppoly_cancelling_to_zero_and_back():
    zero = [[{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]]
    theta = [[{"coords": ["0/1", "1/1"]}, {"coords": ["0/1", "0/1"]}]]
    obj = {"dim": 1, "terms": [
        {"lambda": zero, "poly": [{"alpha": [1], "coeff": "1"}, {"alpha": [0], "coeff": "2"}]},
        {"lambda": theta, "poly": [{"alpha": [0], "coeff": "1/2"}]},
        {"lambda": zero, "poly": [{"alpha": [1], "coeff": "-1"}, {"alpha": [0], "coeff": "-2"}]},
        {"lambda": zero, "poly": [{"alpha": [0], "coeff": "0"}, {"alpha": [1], "coeff": "3"}]}]}
    got, want = jsonio.decode_exppoly(SQRT2, obj), _fold(SQRT2, obj)
    assert got == want and _layout(got) == _layout(want)
    assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("mono, lam", [
    ({"alpha": [-1], "coeff": "1"}, [["0/1", "0/1"]]),           # negative exponent
    ({"alpha": [1, 0], "coeff": "1"}, [["0/1", "0/1"]]),         # multi-index length
    ({"alpha": [1], "coeff": "1"}, [["0/1", "0/1"], ["0/1", "0/1"]]),  # frequency length
    ({"alpha": [1], "coeff": "x/y"}, [["0/1", "0/1"]]),          # malformed coefficient
    ({"alpha": [1], "coeff": {"terms": [{"mu": "1"}]}}, [["0/1", "0/1"]]),
    ({"alpha": [1.5], "coeff": "1"}, [["0/1", "0/1"]]),
    ({"alpha": [-1, 0], "coeff": "1/0"}, [["0/1", "0/1"]]),      # coefficient read first
])
def test_decode_exppoly_errors_are_the_folds(mono, lam):
    obj = {"dim": 1, "terms": [{"lambda": lam, "poly": [mono]}]}

    def error(read):
        try:
            read(SQRT2, obj)
        except MalformedInput as e:
            return type(e), str(e)
        except (KeyError, TypeError, ValueError) as e:   # the fold is not wrapped
            return MalformedInput, f"bad exponential polynomial: {e}"
        raise AssertionError("no error")

    assert error(jsonio.decode_exppoly) == error(_fold)


# -- decode_field: one field object per declaration ---------------------------

def test_decode_field_one_object_per_declaration():
    a = jsonio.decode_field({"minpoly": ["-2/1", "0/1", "1/1"], "interval": ["1/1", "2/1"]})
    b = jsonio.decode_field({"minpoly": ["-4/2", "0", 1], "interval": ["2/2", "2"]})
    assert a is b and a == SQRT2
    assert jsonio.decode_field(jsonio.encode_field(SQRT2)) is a
    # the library's own constructors still make new objects
    assert make_field([-2, 0, 1], (1, 2)) is not a
    assert NumberField([-2, 0, 1], (1, 2)) is not a


def test_decode_field_distinct_interval_is_distinct_field():
    a = jsonio.decode_field({"minpoly": ["-2", "0", "1"], "interval": ["1", "2"]})
    c = jsonio.decode_field({"minpoly": ["-2", "0", "1"], "interval": ["1", "3"]})
    assert a is not c and a != c
    with pytest.raises(FieldMismatch):
        a.coerce(c.gen())


@pytest.mark.parametrize("doc, error", [
    ({"minpoly": ["-1", "0", "1"], "interval": ["2", "3"]}, NoSignChange),
    ({"minpoly": ["1", "2", "1"], "interval": ["-2", "0"]}, NotSquareFree),
    ({"minpoly": ["-2", "0", "2"], "interval": ["1", "2"]}, MalformedInput),
    ({"minpoly": ["-2", "0", "1"], "interval": ["2", "1"]}, MalformedInput),
])
def test_decode_field_failing_declaration_is_not_kept(doc, error):
    for _ in range(2):
        with pytest.raises(error):
            jsonio.decode_field(doc)
    key = (tuple(Fraction(c) for c in doc["minpoly"]),
           tuple(Fraction(c) for c in doc["interval"]))
    assert key not in jsonio._FIELDS


def test_decode_field_table_is_bounded():
    first = jsonio.decode_field({"minpoly": ["-2", "0", "1"], "interval": ["1", "2"]})
    for k in range(jsonio._FIELDS_CAP + 5):
        jsonio.decode_field({"minpoly": ["0", "1"], "interval": [f"-1/{k + 2}", "7"]})
        assert len(jsonio._FIELDS) <= jsonio._FIELDS_CAP
    again = jsonio.decode_field({"minpoly": ["-2", "0", "1"], "interval": ["1", "2"]})
    assert again == first
