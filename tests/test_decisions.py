"""Zero, unit and rational-equality decisions against slow oracles.

The scalar layer answers ``is_zero``, ``is_rational`` and ``==`` from the
coordinates it already holds, and ``ExpCoefficient.has_unit_den`` from a flag
decided when the coefficient is built.  The oracles here take the long way:
they build the other side by hand (``F.element([q])``) and compare coordinate
tuples and fields, or inspect the denominator dict term by term.
"""

from collections import Counter
from fractions import Fraction

import pytest

from deltaclose import ExpCoefficient, jsonio, make_field, rational_field, scalar
from deltaclose.scalar import AlgebraicScalar, ComplexAlgebraic, NumberField

from conftest import rng_for


@pytest.fixture(scope="module", params=[1, 2, 4], ids=lambda d: f"degree{d}")
def fields(request, quartic_field):
    """(field, a field declared the same way, a different field of the same
    degree)."""
    if request.param == 1:
        return rational_field(), rational_field(), make_field([-5, 1], (4, 6))
    if request.param == 2:
        return (make_field([-2, 0, 1], (1, 2)), make_field([-2, 0, 1], (1, 2)),
                make_field([-3, 0, 1], (1, 2)))
    other_root = make_field([1, 0, -10, 0, 1], (Fraction(-32, 10), Fraction(-31, 10)))
    return (quartic_field, make_field([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10))),
            other_root)


def sparse_scalar(rng, F):
    """Coordinates that are often zero, so that zero and rational values and
    values equal to small rationals turn up often."""
    coords = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.5 else 0
              for _ in range(F.degree)]
    return F.element(coords)


def rationals(rng):
    return [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), rng.randint(-3, 3),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))]


def same(x: AlgebraicScalar, y: AlgebraicScalar) -> bool:
    return x.field == y.field and x.coords == y.coords


def rational_by_hand(F, q) -> AlgebraicScalar:
    return F.element([q] + [0] * (F.degree - 1))


def test_scalar_decisions_match_oracle(fields):
    F, G, H = fields
    rng = rng_for(f"scalar-decisions-{F.degree}")
    zero = rational_by_hand(F, 0)
    for _ in range(300):
        x = sparse_scalar(rng, F)
        assert x.is_zero() == all(c == Fraction(0) for c in x.coords)
        assert x.is_zero() == same(x, zero)
        assert x.is_rational() == all(c == Fraction(0) for c in x.coords[1:])
        for q in rationals(rng):
            expect = same(x, rational_by_hand(F, q))
            assert (x == q) is expect and (q == x) is expect, (x, q)
            assert (x != q) is (not expect)
            if expect:
                assert hash(x) == hash(q)
        y = sparse_scalar(rng, F)
        assert (x == y) is same(x, y)
        if x == y:
            assert hash(x) == hash(y)
        # the same declaration is the same field; another one never is
        twin = AlgebraicScalar(G, x.coords)
        assert x == twin and hash(x) == hash(twin)
        assert x != AlgebraicScalar(H, x.coords)


def value_sign(x: AlgebraicScalar) -> int:
    """Sign of the coordinate polynomial at a rational point within 2^-80
    of theta; exact for these small sparse values, which are 0 or far from 0."""
    lo, _ = x.field.enclosure(Fraction(1, 2**80))
    v = sum(c * lo ** i for i, c in enumerate(x.coords))
    return (v > 0) - (v < 0)


def test_scalar_sign_and_enclosure_of_rationals(fields):
    F, _, _ = fields
    rng = rng_for(f"scalar-sign-{F.degree}")
    for _ in range(100):
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        x = rational_by_hand(F, q)
        assert x.sign() == (q > 0) - (q < 0)
        assert x.value_enclosure(Fraction(1, 2**30)) == (q, q)
        y = sparse_scalar(rng, F)
        assert same(x * y, rational_by_hand(F, q) * y) and same(y * x, x * y)
        # the rational short-cuts must not catch an irrational value
        assert y.sign() == value_sign(y)
        lo, hi = y.value_enclosure(Fraction(1, 2**30))
        assert (lo < hi) is not y.is_rational() and (y - lo).sign() >= 0 >= (y - hi).sign()


def test_complex_decisions_match_oracle(fields):
    F, G, H = fields
    rng = rng_for(f"complex-decisions-{F.degree}")
    zero = rational_by_hand(F, 0)
    for _ in range(300):
        z = ComplexAlgebraic(sparse_scalar(rng, F), sparse_scalar(rng, F))
        real = same(z.im, zero)
        assert z.is_zero() == (same(z.re, zero) and real)
        for q in rationals(rng) + [sparse_scalar(rng, F)]:
            qs = q if isinstance(q, AlgebraicScalar) else rational_by_hand(F, q)
            expect = real and same(z.re, qs)
            assert (z == q) is expect and (q == z) is expect, (z, q)
            assert (z != q) is (not expect)
            if expect:
                assert hash(z) == hash(q)
        w = ComplexAlgebraic(sparse_scalar(rng, F), sparse_scalar(rng, F))
        expect = same(z.re, w.re) and same(z.im, w.im)
        assert (z == w) is expect
        if expect:
            assert hash(z) == hash(w)
        twin = ComplexAlgebraic(AlgebraicScalar(G, z.re.coords), AlgebraicScalar(G, z.im.coords))
        assert z == twin and hash(z) == hash(twin)
        assert z != ComplexAlgebraic(AlgebraicScalar(H, z.re.coords),
                                     AlgebraicScalar(H, z.im.coords))
        assert z != AlgebraicScalar(H, z.re.coords)


# -- unit denominators ----------------------------------------------------------

def unit_den_by_dict(c: ExpCoefficient) -> bool:
    """The denominator is one term, with zero exponent and coefficient 1."""
    if len(c.den) != 1:
        return False
    ((mu, d),) = c.den.items()
    F = c.field
    return (same(mu.re, rational_by_hand(F, 0)) and same(mu.im, rational_by_hand(F, 0))
            and same(d.re, rational_by_hand(F, 1)) and same(d.im, rational_by_hand(F, 0)))


def small_expcoef(rng, F, terms):
    """A sum of ``terms`` exponentials with small exponents, never zero."""
    out = ExpCoefficient.zero(F)
    while out.is_zero():
        for _ in range(terms):
            mu = ComplexAlgebraic(F.rational(rng.randint(-2, 2)),
                                  F.rational(rng.randint(-1, 1)))
            out = out + ExpCoefficient.exponential(F, mu, Fraction(rng.randint(1, 3)))
    return out


def test_has_unit_den_matches_dict_test(fields):
    F, _, _ = fields
    rng = rng_for(f"unit-den-{F.degree}")
    seen = Counter()

    def check(c):
        assert c.has_unit_den is unit_den_by_dict(c), c
        # every unit-denominator coefficient shares the field's one den dict
        assert (c.den is F._unit_den) is c.has_unit_den
        assert c.is_scalar() is (unit_den_by_dict(c) and all(mu == 0 for mu in c.num))
        seen[c.has_unit_den] += 1
        return c

    mu = ComplexAlgebraic(F.rational(1), F.rational(-1))
    s = ComplexAlgebraic(F.rational(Fraction(-3, 2)), F.rational(2))
    for _ in range(4):
        a = check(small_expcoef(rng, F, rng.randint(1, 3)))
        b = check(small_expcoef(rng, F, rng.randint(2, 3)))
        # quotients by a multi-term element keep a denominator unless exact
        p = check(a / b)
        q = check(b / a)
        for u, v in ((a, b), (p, q), (a, q), (p, b)):
            assert (u == v) is (u - v).is_zero()
            check(u + v)
            check(u - v)
            check(u * v)
            check(u / v)
            check(-u)
            check(u.shift(mu))
            check(u.scale_scalar(s))
            check(u.conjugate())
            check(u + 1)
            check(1 - u)
        check(p * b)
        check((a * b).divexact(b))
        check(ExpCoefficient.zero(F))
        check(ExpCoefficient.scalar(F, s))
        check(p / p)
        # a multi-term denominator survives an encode/decode round trip
        back = check(jsonio.decode_expcoef(F, jsonio.encode_expcoef(p)))
        assert back == p and back.has_unit_den is p.has_unit_den
    assert seen[True] > 0 and seen[False] > 0


# -- no scalar is built to answer a yes/no question ----------------------------

@pytest.fixture
def builds(monkeypatch):
    """Counts NumberField.rational calls and scalar constructions: the trusted
    builder ``scalar._make``, through which every scalar but those of the
    public ``AlgebraicScalar(field, coords)`` is built, and the public
    constructors."""
    counts = Counter()
    for owner, name in ((NumberField, "rational"), (scalar, "_make"),
                        (AlgebraicScalar, "__init__"), (ComplexAlgebraic, "__init__")):
        original = vars(owner)[name]
        key = f"{owner.__name__}.{name}"

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_decisions_build_no_scalar(quartic_field, builds):
    F = quartic_field
    rng = rng_for("no-scalar-built")
    xs = [sparse_scalar(rng, F) for _ in range(20)] + [F.zero(), F.one(), F.rational(3)]
    zs = [ComplexAlgebraic(x, y) for x, y in zip(xs, reversed(xs))]
    a = small_expcoef(rng, F, 2)
    b = small_expcoef(rng, F, 3)
    cs = [a, b, a * b, a / b, -(a / b), (a / b).shift(zs[0]), ExpCoefficient.one(F)]
    builds.clear()
    answers = []
    for x in xs:
        answers += [x.is_zero(), x.is_rational(), x == 0, x == 1, x == Fraction(-3, 2),
                    0 == x, x == F.one(), x == xs[0], hash(x)]
        if x.is_rational():
            answers.append(x.sign())
    for z in zs:
        answers += [z.is_zero(), z == 0, z == 1, z == Fraction(1, 2), 1 == z,
                    z == F.one(), z == xs[1], z == zs[0], hash(z)]
    for c in cs:
        answers += [c.has_unit_den, c.is_zero()]
        if c.has_unit_den:
            answers.append(c == a)
    assert sum(builds.values()) == 0, dict(builds)
    # the counters do see a build when there is one
    xs[0] + 1
    assert builds["NumberField.rational"] == 1 and builds["deltaclose.scalar._make"] >= 2
