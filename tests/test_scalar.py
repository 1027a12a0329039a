import math
import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaclose import ExpCoefficient, calg, make_field, rational_field
from deltaclose.errors import FieldMismatch, MalformedInput, NoSignChange, NotSquareFree
from deltaclose.scalar import AlgebraicScalar, ComplexAlgebraic

from conftest import (random_complex, random_expcoef, random_fraction, random_nonzero_scalar,
                      random_scalar, rng_for)


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def to_scalar(F, pair):
    return F.element(list(pair))


# -- field declaration ---------------------------------------------------------

def test_rational_field_is_degree_one():
    Q = rational_field()
    assert Q.degree == 1
    assert Q.gen() == 0


def test_sqrt2_declaration(F):
    th = F.gen()
    assert th * th == 2
    # bisection oracle: the root the interval isolates is ~1.41421356
    assert abs(float(th) - math.sqrt(2)) < 1e-12


def test_no_real_root_rejected():
    with pytest.raises(NoSignChange):
        make_field([1, 0, 1], (0, 2))  # x^2 + 1


def test_square_free_check():
    with pytest.raises(NotSquareFree):
        make_field([0, 0, 1], (-1, 1))  # x^2


# -- scalar construction -------------------------------------------------------

def test_field_constants_are_shared(F, quartic_field):
    for K in (rational_field(), F, quartic_field):
        assert K.zero() is K.zero() and K.one() is K.one()
        assert K.zero().is_zero() and K.one() == 1
        # arithmetic builds new values and leaves the shared ones intact
        x = K.one() + K.one()
        assert x == 2 and K.one() == 1 and K.zero() == 0


def test_rational_matches_element(F, quartic_field):
    for K in (rational_field(), F, quartic_field):
        for q in (0, 1, -7, Fraction(3, 5), Fraction(-22, 7)):
            a, b = K.rational(q), K.element([q])
            assert a == b and a.coords == b.coords
            assert len(a.coords) == K.degree


def test_coerce_lifts_rationals(F, quartic_field):
    for K in (rational_field(), F, quartic_field):
        for v, q in ((5, 5), (Fraction(-3, 4), Fraction(-3, 4)), ("7/3", Fraction(7, 3))):
            x = K.coerce(v)
            assert x.coords == K.rational(q).coords
        th = K.gen()
        assert K.coerce(th) is th


def test_coerce_rejects_foreign_and_float(F):
    other = make_field([-3, 0, 1], (1, 2))   # sqrt(3)
    with pytest.raises(FieldMismatch):
        F.coerce(other.gen())
    with pytest.raises(FieldMismatch):
        F.coerce(other.one())
    with pytest.raises(TypeError):
        F.coerce(0.5)
    # an equal but separately declared field is the same field
    twin = make_field([-2, 0, 1], (1, 2))
    assert F.coerce(twin.gen()) == F.gen()


# -- sign decisions --------------------------------------------------------------

def test_ordering_against_unsupported_operand(F):
    x = F.rational(1)
    for cmp in (lambda a, b: a < b, lambda a, b: a <= b,
                lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError, match="not supported between"):
            cmp(x, 1.5)
        with pytest.raises(TypeError, match="not supported between"):
            cmp(1.5, x)
    assert x < F.gen() and x <= 1 and F.gen() > 1 and 2 >= F.gen()
    assert (x < 1, x > Fraction(1, 2), x >= F.one()) == (False, True, True)


def test_sign_examples(F):
    th = F.gen()
    assert F.zero().sign() == 0
    assert (1 - th).sign() == -1
    assert (-3 + th * 3).sign() == 1


def test_sign_agrees_with_256_bit_interval(F):
    rng = rng_for("sign-oracle")
    for _ in range(1000):
        x = random_nonzero_scalar(rng, F)
        lo, hi = x.value_enclosure(Fraction(1, 2**256))
        assert lo <= hi
        oracle = 1 if lo > 0 else (-1 if hi < 0 else 0)
        # a nonzero algebraic value separates from 0 at this precision
        assert oracle != 0
        assert x.sign() == oracle


def test_floor(F):
    th = F.gen()
    assert (th * 10).floor() == 14
    assert (-th).floor() == -2
    assert F.rational(Fraction(7, 2)).floor() == 3
    assert F.rational(-3).floor() == -3


# -- field axioms (property-based) -----------------------------------------------

@settings(max_examples=250, deadline=None)
@given(a=st.tuples(fractions, fractions), b=st.tuples(fractions, fractions),
       c=st.tuples(fractions, fractions))
def test_field_axioms(a, b, c):
    F = test_field_axioms.F
    x, y, z = to_scalar(F, a), to_scalar(F, b), to_scalar(F, c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == F.one()


test_field_axioms.F = make_field([-2, 0, 1], (1, 2))


def test_field_axioms_bulk(F):
    # exact equality on 1000 random triples, plain rng alongside hypothesis
    rng = rng_for("field-bulk")
    for _ in range(1000):
        x = random_nonzero_scalar(rng, F)
        y = random_nonzero_scalar(rng, F)
        z = random_nonzero_scalar(rng, F)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * x.inverse() == F.one()


@settings(max_examples=100, deadline=None)
@given(a=st.tuples(fractions, fractions), b=st.tuples(fractions, fractions))
def test_complex_field_roundtrip(a, b):
    F = test_field_axioms.F
    z = ComplexAlgebraic(to_scalar(F, a), to_scalar(F, b))
    if not z.is_zero():
        assert z * z.inverse() == ComplexAlgebraic(F.one())
    assert z.conjugate().conjugate() == z


def test_zero_divisor_surfaces():
    # a reducible declaration is assumed irreducible; inverting a factor
    # must fail loudly rather than silently
    B = make_field([-1, 0, 1], (Fraction(1, 2), 2))  # x^2 - 1, root 1
    x = B.element([1, -1])  # theta - 1 ... (theta-1)(theta+1) = 0
    with pytest.raises(ZeroDivisionError):
        (B.element([1, 1])).inverse() * x.inverse()


# -- exponential coefficients ------------------------------------------------------

def test_expcoef_inverse_exponents(F):
    mu = calg(F, F.gen())
    a = ExpCoefficient.exponential(F, mu)
    b = ExpCoefficient.exponential(F, -mu)
    assert a * b == ExpCoefficient.one(F)


def test_expcoef_difference_of_squares(F):
    mu = calg(F, F.gen())
    a = ExpCoefficient.exponential(F, mu)
    assert (a - 1) * (a + 1) == ExpCoefficient.exponential(F, mu + mu) - 1


def test_expcoef_eval_matches_high_precision(F):
    # e^(sqrt 2) - 1
    a = ExpCoefficient.exponential(F, calg(F, F.gen())) - 1
    v = a.evaluate()
    assert abs(v.real - (math.exp(math.sqrt(2)) - 1)) < 1e-12
    assert abs(v.imag) < 1e-15
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(220):
        oracle = mpmath.exp(mpmath.sqrt(2)) - 1
    assert abs(v.real - float(oracle)) < 1e-14


def test_library_runs_without_mpmath():
    # mpmath is a test oracle only: with it blocked, the package imports,
    # solves exactly and evaluates a float plan
    code = textwrap.dedent("""
        import sys
        sys.modules["mpmath"] = None
        import numpy as np
        from deltaclose import calg, make_field
        from deltaclose.exppoly import ExpPolynomial
        from deltaclose.solver import DifferenceSystem, solve_difference_system
        F = make_field([-2, 0, 1], (1, 2))
        f = ExpPolynomial.monomial(F, 1, (2,), 3, freq=(calg(F, F.gen()),))
        steps = [((F.one(),), 1), ((F.gen(),), 1)]
        sol = solve_difference_system(
            DifferenceSystem(F, 1, steps, [f.forward_difference(h, m) for h, m in steps]))
        assert sol.particular == f
        x = np.array([[0.5], [-1.25]])
        want = 3 * x[:, 0] ** 2 * np.exp(2 ** 0.5 * x[:, 0])
        assert np.allclose(sol.particular.evaluate_array(x), want, rtol=1e-13, atol=0)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr


def test_expcoef_eval_is_ring_homomorphism(F):
    rng = rng_for("expcoef-eval")
    for _ in range(12):
        a = random_expcoef(rng, F)
        b = random_expcoef(rng, F)
        lhs = (a * b).evaluate()
        rhs = a.evaluate() * b.evaluate()
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-12
        lhs = (a + b).evaluate()
        rhs = a.evaluate() + b.evaluate()
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-12


def test_expcoef_ring_axioms_random(F):
    rng = rng_for("expcoef-ring")
    for _ in range(200):
        a = random_expcoef(rng, F)
        b = random_expcoef(rng, F)
        c = random_expcoef(rng, F)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + ExpCoefficient.zero(F) == a
        assert a * ExpCoefficient.one(F) == a


def test_expcoef_zero_iff_empty(F):
    mu = random_complex(rng_for("zero-test"), F)
    a = ExpCoefficient.exponential(F, mu) - ExpCoefficient.exponential(F, mu)
    assert a.is_zero() and not a.num


def test_fraction_collapse(F):
    mu = calg(F, F.gen())
    a = ExpCoefficient.exponential(F, mu) - 1
    q = (a * Fraction(7, 3)) / a
    assert q.has_unit_den
    assert q == ExpCoefficient.scalar(F, Fraction(7, 3))
    # division by a pure monomial is always exact
    m = ExpCoefficient.exponential(F, mu, Fraction(2, 5))
    r = (a + 3) / m
    assert r.has_unit_den


def test_canonicalization_idempotent(F):
    rng = rng_for("canon")
    for _ in range(50):
        a = random_expcoef(rng, F)
        b = ExpCoefficient(F, dict(a.num), dict(a.den))
        assert a.num == b.num and a.den == b.den


def test_empty_and_unit_eval(F):
    assert ExpCoefficient.zero(F).evaluate() == 0
    assert ExpCoefficient.one(F).evaluate() == 1.0


def test_hash_agrees_with_equality(F):
    th = F.gen()
    pairs = [
        (F.rational(3), 3),
        (F.rational(Fraction(-5, 7)), Fraction(-5, 7)),
        (ComplexAlgebraic(F.rational(3)), 3),
        (calg(F, Fraction(1, 2)), Fraction(1, 2)),
        (ComplexAlgebraic(F.rational(4)), F.rational(4)),
        (ComplexAlgebraic(th), th),
        (F.zero(), 0),
        (F.one(), Fraction(1)),
        (F.zero(), F.rational(0)),
        (F.one(), F.element([1])),
        (ComplexAlgebraic(F.one()), F.one()),
        (calg(F, 0), F.zero()),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert b in {a} and a in {b}
        assert {a: 1}[b] == 1 and {b: 1}[a] == 1
    # distinct irrational and non-real values stay distinct keys
    assert len({th, th + 1, calg(F, 0, 1), calg(F, th, 1), calg(F, th)}) == 4


def test_field_mismatch_rejected(F):
    other = make_field([-3, 0, 1], (1, 2))   # sqrt(3)
    with pytest.raises(FieldMismatch):
        F.gen() + other.gen()
    a = ExpCoefficient.exponential(F, calg(F, F.gen()))
    b = ExpCoefficient.exponential(other, calg(other, other.gen()))
    with pytest.raises(FieldMismatch):
        a * b


def test_sign_queries_are_thread_safe(F):
    # concurrent refinement of the shared enclosure must stay monotone
    import threading
    G = make_field([-2, 0, 1], (1, 2))
    values = [G.element([Fraction(k, 7), Fraction(1)]) for k in range(-8, 8)]
    results = {}

    def worker(tag):
        out = [x.sign() for x in values]
        results[tag] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expect = [x.sign() for x in values]
    assert all(v == expect for v in results.values())


@settings(max_examples=150, deadline=None)
@given(data=st.lists(st.tuples(fractions, fractions, fractions, fractions),
                     min_size=1, max_size=3))
def test_expcoef_product_shape(data):
    # hypothesis sweep: products of binomials stay canonical (no zero terms,
    # distinct exponents) and match their own re-normalization
    F = test_field_axioms.F
    acc = ExpCoefficient.one(F)
    for re1, im1, re2, im2 in data:
        mu = calg(F, to_scalar(F, (re1, im1)), to_scalar(F, (re2, im2)))
        acc = acc * (ExpCoefficient.exponential(F, mu) - 1)
    for muK, c in acc.num.items():
        assert not c.is_zero()
    again = ExpCoefficient(F, dict(acc.num), dict(acc.den))
    assert again == acc


# -- the integer kernel against a Fraction reference ---------------------------------

def fraction_rows(minpoly):
    """Coordinates of theta^k, k = n .. 2n-2, as Fractions."""
    n = len(minpoly) - 1
    rows = [[-Fraction(c) for c in minpoly[:n]]]
    for _ in range(n - 2):
        prev = rows[-1]
        nxt = [Fraction(0)] + prev[:n - 1]
        nxt = [a + prev[n - 1] * b for a, b in zip(nxt, rows[0])]
        rows.append(nxt)
    return rows


def fraction_mul(K, a, b):
    """Convolution of two Fraction coordinate vectors, then reduction by the
    Fraction rows."""
    n = K.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = prod[:n]
    for k, row in enumerate(fraction_rows(K.minpoly)[:n - 1]):
        out = [o + prod[n + k] * r for o, r in zip(out, row)]
    return tuple(out)


def enclosed_value(x, width=Fraction(1, 2**200)):
    """Exact interval of the Fraction coordinate polynomial over a tight
    enclosure of theta (a 200-bit box separates these small values from 0
    and from the integers)."""
    lo_t, hi_t = x.field.enclosure(width)
    lo = hi = Fraction(0)
    for c in reversed(x.coords):
        vals = (lo * lo_t, lo * hi_t, hi * lo_t, hi * hi_t)
        lo, hi = min(vals) + c, max(vals) + c
    return lo, hi


def in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1 and len(x.num) == x.field.degree


@pytest.fixture(scope="module", params=["Q", "sqrt2", "quartic", "half"])
def kernel_field(request, quartic_field):
    if request.param == "Q":
        return rational_field()
    if request.param == "sqrt2":
        return make_field([-2, 0, 1], (1, 2))
    if request.param == "quartic":
        return quartic_field
    # x^2 - 1/2: the reduction rows need a row denominator
    K = make_field([Fraction(-1, 2), 0, 1], (0, 1))
    assert K._row_den == 2
    return K


def test_integer_kernel_matches_fraction_reference(kernel_field):
    K = kernel_field
    rng = rng_for(f"integer-kernel-{K.minpoly}")
    for _ in range(150):
        x, y = random_scalar(rng, K), random_scalar(rng, K)
        s, p = x + y, x * y
        assert s.coords == tuple(a + b for a, b in zip(x.coords, y.coords))
        assert p.coords == fraction_mul(K, x.coords, y.coords)
        assert (x - y).coords == tuple(a - b for a, b in zip(x.coords, y.coords))
        for v in (x, y, s, p, -x, x - y):
            assert in_lowest_terms(v), v
        if not x.is_zero():
            inv = x.inverse()
            assert in_lowest_terms(inv)
            assert fraction_mul(K, x.coords, inv.coords) == K.one().coords
        lo, hi = enclosed_value(x)
        assert x.sign() == (1 if lo > 0 else -1 if hi < 0 else 0)
        assert lo == hi or 0 < lo or hi < 0
        assert x.floor() == math.floor(lo) == math.floor(hi)


def test_equal_values_built_apart_are_equal(kernel_field):
    K = kernel_field
    half = [K.element(["1/2"] + [0] * (K.degree - 1)), K.rational(Fraction(1, 2)),
            K.one() / 2, AlgebraicScalar(K, [Fraction(1, 2)] + [0] * (K.degree - 1))]
    for x in half:
        assert in_lowest_terms(x) and x.num[0] == 1 and x.den == 2
        assert all(x == y and hash(x) == hash(y) for y in half)
        assert x == Fraction(1, 2) and hash(x) == hash(Fraction(1, 2))
    for q in (0, 1, -3, Fraction(7, 4), Fraction(-22, 6), "5/10"):
        x = K.rational(q)
        assert hash(x) == hash(Fraction(q)) and x == Fraction(q) and in_lowest_terms(x)
    if K.degree > 1:
        t = K.gen()
        assert (t + 1) / 3 == K.element([Fraction(1, 3), Fraction(1, 3)])
        assert hash((t + 1) / 3) == hash(K.element([Fraction(2, 6), Fraction(1, 3)]))


def _fraction_pair(coords):
    """(num, den) of Fraction coordinates over their least common
    denominator: the representation the reference gives."""
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def test_trivial_operands_match_fraction_reference(kernel_field):
    """A product or sum with a zero, unit or rational operand has the
    (num, den) of the Fraction-coordinate reference, in every degree; a zero
    or unit factor, and a zero term, return the other operand (or the zero)
    itself."""
    K = kernel_field
    rng = rng_for(f"trivial-operands-{K.minpoly}")
    n = K.degree
    zero, one = K.zero(), K.one()
    trivial = [zero, one, K.element([0] * n), K.rational(1), -one,
               K.rational(Fraction(-3, 4)), K.rational(5)]
    for _ in range(40):
        x = random_scalar(rng, K)
        for c in trivial + [K.rational(random_fraction(rng))]:
            for a, b in ((x, c), (c, x), (c, c)):
                p, s = a * b, a + b
                assert (p.num, p.den) == _fraction_pair(fraction_mul(K, a.coords, b.coords))
                assert (s.num, s.den) == _fraction_pair(
                    [u + v for u, v in zip(a.coords, b.coords)])
                assert p.field is K and s.field is K
                assert in_lowest_terms(p) and in_lowest_terms(s)
        for q in (0, 1, -1, Fraction(2, 3)):
            want = _fraction_pair(fraction_mul(K, x.coords, K.rational(q).coords))
            assert ((x * q).num, (x * q).den) == ((q * x).num, (q * x).den) == want
        if x:   # for x = 0 either operand is the answer
            assert x * zero is zero and zero * x is zero
            assert x + zero is x and zero + x is x
        if x != 1:
            assert x * one is x and one * x is x
        # a complex value times a real scalar: both parts scaled directly
        z = random_complex(rng, K)
        for c in (zero, one, x, K.rational(Fraction(-3, 4))):
            got, want = z * c, z * ComplexAlgebraic(c)
            assert got == want == c * z
            assert (got.re.num, got.re.den, got.im.num, got.im.den) == \
                (want.re.num, want.re.den, want.im.num, want.im.den)
        assert z * zero is K.complex_zero() and z * one is z


def test_zero_of_another_field_still_mismatches(kernel_field):
    K = kernel_field
    G = make_field([-7, 0, 1], (2, 3))
    x = K.element([Fraction(1, 2)] + [3] * (K.degree - 1))
    for a, b in ((x, G.zero()), (G.zero(), x), (K.zero(), G.zero()), (K.one(), G.zero()),
                 (K.zero(), G.one())):
        for op in (operator.mul, operator.add):
            with pytest.raises(FieldMismatch):
                op(a, b)
    with pytest.raises(FieldMismatch):
        calg(K, 1, 1) * G.zero()
    with pytest.raises(FieldMismatch):
        K.complex_one() * G.zero()


def test_public_constructor_checks_its_input(F):
    x = AlgebraicScalar(F, ["3/6", 2])
    assert (x.num, x.den) == ((1, 4), 2) and x == F.element([Fraction(1, 2), 2])
    with pytest.raises(MalformedInput):
        AlgebraicScalar(F, [1])
    with pytest.raises(TypeError):
        AlgebraicScalar(F, [0.5, 0])


# -- float values ------------------------------------------------------------------

def test_float_refines_each_value_once_per_field(monkeypatch):
    # two declarations of the same field keep separate memos
    F1, F2 = make_field([-2, 0, 1], (1, 2)), make_field([-2, 0, 1], (1, 2))
    refined = []
    enclosure = AlgebraicScalar.value_enclosure

    def counting(self, eps):
        refined.append((id(self.field), self.num, self.den))
        return enclosure(self, eps)

    monkeypatch.setattr(AlgebraicScalar, "value_enclosure", counting)
    coords = [[0, 1], [1, 1], [Fraction(-3, 7), Fraction(5, 2)], [2, -1]]
    first = {}
    for _ in range(3):
        for G in (F1, F2):
            for c in coords:
                x = G.element(c)  # a new instance each round
                v = float(x)
                assert first.setdefault((id(G), x.num, x.den), v) == v
                assert complex(ComplexAlgebraic(G.rational(2), x)) == complex(2, v)
    assert sorted(refined) == sorted(first)
    assert len(refined) == 2 * len(coords)
    # rational values are num / den, correctly rounded, with no refinement
    for q in (Fraction(1, 3), Fraction(-22, 7), Fraction(10 ** 30 + 1, 3)):
        assert float(F1.rational(q)) == float(q)
    assert len(refined) == 2 * len(coords)
    # the memo keeps the value the enclosure midpoint gives
    monkeypatch.undo()
    for (fid, num, den), v in first.items():
        x = F1.element([Fraction(a, den) for a in num])
        lo, hi = x.value_enclosure(Fraction(1, 2 ** 64))
        assert v == float((lo + hi) / 2)


@pytest.mark.parametrize("minpoly, interval", [
    ([-2, 0, 1], (1, 2)),
    ([-2, 0, 1], (Fraction(5, 4), Fraction(3, 2))),
    ([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10))),
    ([-1, 0, 1], (0, 2)),   # theta = 1 is the first midpoint: a degenerate box
    ([3, -4, 1], (2, 6)),   # theta = 3 is a midpoint of the second level
])
def test_float_does_not_depend_on_refinement_history(minpoly, interval):
    # a field whose theta was refined far past 2^-64 (a large coefficient, a
    # deep enclosure) gives every value the float and enclosure a newly
    # declared field gives; values within 10^-4 of zero have ulps below the
    # 2^-64 enclosure width, so their midpoint would show the box
    G = make_field(minpoly, interval)
    theta = float(make_field(minpoly, interval).gen())
    t = G.gen()
    float(t * 10 ** 30)
    G.enclosure(Fraction(1, 2 ** 300))
    values = [t, t * 3 - Fraction(17, 4)]
    for den in (70, 408, 985, 5741):
        values.append(t - Fraction(round(theta * den), den))
    for x in values:
        fresh = make_field(minpoly, interval).element(list(x.coords))
        assert float(x) == float(fresh), x
        for k in (8, 64, 100):
            fresh = make_field(minpoly, interval).element(list(x.coords))
            assert x.value_enclosure(Fraction(1, 2 ** k)) == \
                fresh.value_enclosure(Fraction(1, 2 ** k)), (x, k)


def test_float_memo_is_thread_safe():
    # threads racing on one field's memo store the same floats: at worst a
    # value is refined twice
    import sys
    import threading
    G = make_field([-2, 0, 1], (1, 2))
    values = [G.element([Fraction(k, 7), Fraction(1, k % 5 + 1)]) for k in range(-20, 20)]
    expect = []
    for x in values:
        lo, hi = x.value_enclosure(Fraction(1, 2 ** 64))
        expect.append(float((lo + hi) / 2))
    results = {}

    def worker(tag):
        results[tag] = [float(G.element(list(x.coords))) for x in values * 3]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r == expect * 3 for r in results.values())
    assert sorted(G._floats.values()) == sorted(expect)


# -- integer bisection of the root enclosure --------------------------------------

class _FractionBisection:
    """The enclosure refinement over Fractions: the oracle for the integer
    bisection of ``NumberField.enclosure``."""

    def __init__(self, minpoly, interval):
        self.p = [Fraction(c) for c in minpoly]
        self.lo, self.hi = Fraction(interval[0]), Fraction(interval[1])

    def _eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.p):
            acc = acc * x + c
        return acc

    def enclosure(self, width):
        lo, hi = self.lo, self.hi
        slo = self._eval(lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            smid = self._eval(mid)
            if smid == 0:
                lo = hi = mid
                break
            if (smid > 0) == (slo > 0):
                lo, slo = mid, smid
            else:
                hi = mid
        self.lo, self.hi = lo, hi
        return lo, hi


ENCLOSURE_CASES = [
    ([-2, 0, 1], (1, 2)),                                        # sqrt 2
    ([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10))),   # sqrt2 + sqrt3
    ([-1, -3, 0, 1], (1, 2)),                                    # x^3 - 3x - 1
    ([Fraction(-1, 2), 0, 1], (0, 1)),                           # x^2 - 1/2
    ([Fraction(-3, 2), 1], (1, 2)),                              # the midpoint is the root
]


@pytest.mark.parametrize("minpoly, interval", ENCLOSURE_CASES)
def test_enclosure_integer_bisection_matches_fraction_bisection(minpoly, interval):
    widths = [Fraction(1, 2**k) for k in range(8, 101)]
    # refined step by step on one field, and in one jump on a fresh field per width
    F, oracle = make_field(minpoly, interval), _FractionBisection(minpoly, interval)
    for w in widths:
        got, want = F.enclosure(w), oracle.enclosure(w)
        assert got == want, w
        assert all(isinstance(v, Fraction) for v in got)
        assert (got[0].numerator, got[0].denominator) == (want[0].numerator, want[0].denominator)
        assert got[1] - got[0] <= w
    for w in widths[::23] + [widths[-1]]:
        got = make_field(minpoly, interval).enclosure(w)
        assert got == _FractionBisection(minpoly, interval).enclosure(w), w
    if minpoly == [Fraction(-3, 2), 1]:
        assert F.enclosure(widths[-1]) == (Fraction(3, 2), Fraction(3, 2))


@pytest.mark.parametrize("minpoly, interval", ENCLOSURE_CASES + [
    ([-1, 0, 1], (0, 2)),   # theta = 1, the first midpoint
    ([3, -4, 1], (2, 6)),   # theta = 3, a midpoint of the second level
])
def test_schedule_box_is_the_box_of_a_newly_declared_field(minpoly, interval):
    # whatever F has refined before, step k's box is the one a new field's
    # enclosure gives after steps 0 .. k of the schedule
    rng = rng_for(f"schedule-box-{minpoly}-{interval}")
    steps = 40
    oracle, want = _FractionBisection(minpoly, interval), []
    for k in range(steps):
        want.append(oracle.enclosure(Fraction(1, 2 ** (8 + 2 * k))))
    for _ in range(6):
        F = make_field(minpoly, interval)
        F.enclosure(Fraction(rng.randint(1, 9), 2 ** rng.randint(0, 120)))
        for k in range(steps):
            a, b, D = F._schedule_box(k)
            assert (Fraction(a, D), Fraction(b, D)) == want[k], k


# -- Fraction polynomial oracles -----------------------------------------------------
# Polynomials are lists of Fractions, lowest degree first, with no trailing zeros.

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _poly_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _poly_divmod(p, q):
    r = _trim(p)
    quo = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    while len(r) >= len(q):
        shift = len(r) - len(q)
        c = r[-1] / q[-1]
        quo[shift] = c
        r = _trim([x - c * q[i - shift] if i >= shift else x for i, x in enumerate(r)])
    return _trim(quo), r


def euclid_inverse(x):
    """The inverse by the extended Euclidean algorithm over Fractions; a zero
    divisor raises ZeroDivisionError."""
    K = x.field
    minpoly = [Fraction(c) for c in K.minpoly]
    r0, r1 = minpoly, _trim(x.coords)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("zero divisor")
    _, rem = _poly_divmod([c / r0[0] for c in s0], minpoly)
    return K.element(rem)


def fraction_square_free(minpoly):
    """gcd(p, p') over Fractions is a constant."""
    a = _trim(Fraction(c) for c in minpoly)
    b = _trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return len(a) == 1


def fraction_interval_horner(p, box):
    """Interval Horner of the Fraction polynomial p over the Fraction box."""
    lo = hi = Fraction(0)
    for c in reversed(_trim(p)):
        vals = (lo * box[0], lo * box[1], hi * box[0], hi * box[1])
        lo, hi = min(vals) + c, max(vals) + c
    return lo, hi


# the fields of degree > 1 above, and a cubic with Fraction coefficients
INVERSE_FIELDS = ENCLOSURE_CASES[:4] + [
    ([Fraction(-1, 3), Fraction(1, 2), Fraction(-5, 4), 1], (0, 2))]


def test_rational_inverse_matches_euclid(F, quartic_field):
    for K in (F, quartic_field):
        for q in (1, 3, -1, -5, Fraction(2, 7), Fraction(-9, 4), Fraction(6, 4), 10 ** 12 + 1):
            x = K.rational(q)
            inv = x.inverse()
            want = euclid_inverse(x)
            assert (inv.num, inv.den) == (want.num, want.den)
            assert inv == 1 / Fraction(q) and in_lowest_terms(inv)
            assert x * inv == K.one()
    # irrational values: the fraction-free solve gives the Euclid inverse
    for minpoly, interval in INVERSE_FIELDS:
        K = make_field(minpoly, interval)
        assert fraction_square_free(minpoly)
        rng = rng_for(f"bareiss-inverse-{minpoly}")
        t = K.gen()
        values = [t, t - 3, (t * t + 1) / 5]
        while len(values) < 200:
            x = K.element([Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                           for _ in range(K.degree)])
            if not x.is_rational():
                values.append(x)
        for x in values:
            inv, want = x.inverse(), euclid_inverse(x)
            assert (inv.num, inv.den) == (want.num, want.den), x
            assert in_lowest_terms(inv) and x * inv == K.one()
    # x^3 - 5x^2 - 2x + 10 = (x^2 - 2)(x - 5): theta^2 - 2 and theta - 5 are
    # zero divisors for both algorithms
    B = make_field([10, -2, -5, 1], (1, 2))
    for x in (B.element([-2, 0, 1]), B.element([-5, 1])):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            euclid_inverse(x)
        with pytest.raises(ZeroDivisionError, match="zero divisor encountered"):
            x.inverse()


def test_square_free_decision_matches_fraction_gcd():
    rng = rng_for("square-free-oracle")

    def factor():
        return [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 4]))
                for _ in range(rng.randint(1, 2))] + [Fraction(1)]

    cases = [[Fraction(1, 4), -1, 1], [0, 0, 1], [-2, 0, 1], [Fraction(-3, 2), 1]]
    for _ in range(400):
        f, g = factor(), factor()
        cases.append(_poly_mul(_poly_mul(f, f), g) if rng.random() < 0.5 else _poly_mul(f, g))
    decisions = set()
    for p in cases:
        want = fraction_square_free(p)
        decisions.add(want)
        try:
            make_field(p, (-100, 100))
            got = True
        except NotSquareFree:
            got = False
        except NoSignChange:
            got = True  # square-free, but no sign change on the interval
        assert got == want, p
    assert decisions == {True, False}


@pytest.mark.parametrize("minpoly, interval", INVERSE_FIELDS)
def test_enclosures_match_fraction_interval_horner(minpoly, interval):
    # the integer Horner gives the endpoints of the Horner over Fractions on
    # the same box; a fresh field per width keeps the boxes apart
    from deltaclose.scalar import _interval_horner

    rng = rng_for(f"interval-horner-{minpoly}")
    coords = []
    while len(coords) < 40:
        c = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in minpoly[1:]]
        if any(c[1:]):
            coords.append(c)
    declared = {}
    for k in (8, 40, 70):
        K = make_field(minpoly, interval)
        box = K.enclosure(Fraction(1, 2 ** k))
        for c in coords:
            x = K.element(c)
            lo, hi, scale = _interval_horner(x.num, box)
            assert (Fraction(lo, scale), Fraction(hi, scale)) == \
                fraction_interval_horner([Fraction(a) for a in x.num], box)
            # value_enclosure quarters the width from 2^-8 until the value's
            # enclosure is within eps, on the boxes of a newly declared field
            # (not K's, already refined to 2^-k): replay it over the Fraction
            # coordinates
            eps, width = Fraction(1, 2 ** k), Fraction(1, 2 ** 8)
            while True:
                if width not in declared:
                    declared[width] = make_field(minpoly, interval).enclosure(width)
                want = fraction_interval_horner(list(x.coords), declared[width])
                if want[1] - want[0] <= eps:
                    break
                width /= 4
            assert x.value_enclosure(eps) == want
    # sign against a 200-bit Fraction enclosure, on a field of its own
    K = make_field(minpoly, interval)
    box = make_field(minpoly, interval).enclosure(Fraction(1, 2 ** 200))
    for c in coords:
        x = K.element(c)
        lo, hi = fraction_interval_horner(list(x.coords), box)
        assert lo > 0 or hi < 0
        assert x.sign() == (1 if lo > 0 else -1)


def _loop_sign(x):
    """The sign loop as it stood before the shared refinement schedule."""
    from deltaclose.scalar import _interval_horner

    width = Fraction(1, 2**8)
    while True:
        lo, hi, _ = _interval_horner(x.num, x.field.enclosure(width))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        width /= 4


def _loop_value_enclosure(x, eps):
    """The value_enclosure loop as it stood before the shared schedule."""
    from deltaclose.scalar import _interval_horner

    width = Fraction(1, 2**8)
    while True:
        lo, hi, scale = _interval_horner(x.num, x.field.enclosure(width))
        if (hi - lo) * eps.denominator <= eps.numerator * x.den * scale:
            return Fraction(lo, x.den * scale), Fraction(hi, x.den * scale)
        width /= 4


def _loop_floor(x):
    """The floor loop as it stood before the shared schedule."""
    eps = Fraction(1, 2**20)
    while True:
        lo, hi = _loop_value_enclosure(x, eps)
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        eps /= 16


@pytest.mark.parametrize("minpoly, interval", ENCLOSURE_CASES[:2])
def test_refinement_schedule_matches_former_loops(minpoly, interval):
    # sign gives what the former loop gave, call for call on two fresh fields
    # that refine theta in step; value_enclosure and float give what the
    # former loop gives on a newly declared field, and refine theta as far as
    # the former loop does; floor, which stops at its own first decisive
    # width, gives the same exact answer
    rng = rng_for(f"refinement-schedule-{minpoly}")
    coords = []
    while len(coords) < 60:
        c = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in minpoly[1:]]
        if any(c[1:]):
            coords.append(c)
    theta = float(make_field(minpoly, interval).gen())
    K, R = make_field(minpoly, interval), make_field(minpoly, interval)

    def declared(y):
        return make_field(minpoly, interval).element(list(y.coords))

    t = K.gen()
    # values near zero and near integers need many refinements
    near = [t * 10 ** 6 - int(theta * 10 ** 6), t * 7 - math.floor(theta * 7)]
    for x in [K.element(c) for c in coords] + near:
        y = R.element(list(x.coords))
        assert x.sign() == _loop_sign(y)
        for k in (8, 30, 64, 120):
            eps = Fraction(1, 2 ** k)
            assert x.value_enclosure(eps) == _loop_value_enclosure(declared(y), eps)
            _loop_value_enclosure(y, eps)
        lo, hi = _loop_value_enclosure(declared(y), Fraction(1, 2 ** 64))
        assert float(x) == float((lo + hi) / 2)
        assert K.enclosure(Fraction(1)) == R.enclosure(Fraction(1))
    for c in coords + [list(v.coords) for v in near]:
        x = make_field(minpoly, interval).element(c)
        assert x.floor() == _loop_floor(make_field(minpoly, interval).element(c))


def test_complex_reflected_division(F):
    z = calg(F, F.gen(), 1)
    for num in (1, -3, Fraction(2, 5), F.gen()):
        q = num / z
        assert isinstance(q, ComplexAlgebraic)
        assert q == ComplexAlgebraic(F.coerce(num)) * z.inverse()
        assert q * z == ComplexAlgebraic(F.coerce(num))
    with pytest.raises(ZeroDivisionError):
        1 / calg(F, 0)


# -- shortcuts of the complex and group-ring arithmetic ------------------------

@pytest.mark.parametrize("field_name", ["sqrt2_field", "quartic_field"])
def test_complex_arithmetic_matches_part_formulas(field_name, request):
    # +, -, negation and * skip zero imaginary parts; each result must still
    # be the (re, im) formula, on pairs with real, imaginary, unit and mixed
    # parts
    K = request.getfixturevalue(field_name)
    rng = rng_for("complex-part-formulas")

    def part(p):
        r = rng.random()
        return K.zero() if r < 1 - p else (K.one() if r < 1 - p / 2 else random_scalar(rng, K))

    real_pairs = 0
    for _ in range(300):
        x, y = ComplexAlgebraic(part(0.9), part(0.4)), ComplexAlgebraic(part(0.9), part(0.4))
        real_pairs += x.im.is_zero() and y.im.is_zero()
        for z, re, im in ((x + y, x.re + y.re, x.im + y.im),
                          (x - y, x.re - y.re, x.im - y.im),
                          (-x, -x.re, -x.im),
                          (x * y, x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)):
            assert (z.re, z.im) == (re, im)
            assert z.re.field is K and z.im.field is K
            assert z == ComplexAlgebraic(re, im) and hash(z) == hash(ComplexAlgebraic(re, im))
    assert real_pairs > 80


def test_complex_arithmetic_across_fields(F):
    other = make_field([-3, 0, 1], (1, 2))   # sqrt(3)
    twin = make_field([-2, 0, 1], (1, 2))    # F, declared apart
    x, y = calg(F, F.gen()), calg(other, other.gen())
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(FieldMismatch):
            op(x, y)
        with pytest.raises(FieldMismatch):
            op(y, x)
        # an equal field built apart, and plain rationals and scalars, take
        # the checked path and give the same values
        assert op(x, calg(twin, twin.gen(), 1)) == op(x, calg(F, F.gen(), 1))
        for v in (2, Fraction(-1, 3), F.gen()):
            assert op(x, v) == op(x, ComplexAlgebraic(F.coerce(v)))


def test_unit_denominator_quotient_matches_dict_mul_path(F, quartic_field):
    # a quotient of two unit-denominator coefficients hands the numerators
    # to the normalisation directly; the general path multiplies each one by
    # the other's unit denominator first
    from deltaclose.expcoef import _dict_mul

    def via_dict_mul(a, b):
        return ExpCoefficient(a.field, _dict_mul(a.num, b.den), _dict_mul(a.den, b.num))

    def same(q, want):
        assert list(q.num.items()) == list(want.num.items())
        assert list(q.den.items()) == list(want.den.items())
        assert q.has_unit_den == want.has_unit_den

    for K in (F, quartic_field):
        rng = rng_for("unit-quotient")
        kept = exact = 0
        for _ in range(60):
            a, b = random_expcoef(rng, K), random_expcoef(rng, K)
            if b.is_zero():
                continue
            for num in (a, a * b):
                q = num / b
                same(q, via_dict_mul(num, b))
                kept += not q.has_unit_den
                exact += q.has_unit_den and len(b.num) > 1
        assert kept > 5 and exact > 5
    one, e = ExpCoefficient.one(F), ExpCoefficient.exponential(F, calg(F, F.gen()))
    for num, den in ((one, one + e),                      # inexact: keeps its denominator
                     (one + e, ExpCoefficient.exponential(F, calg(F, 1), 3)),  # one term
                     (ExpCoefficient.zero(F), one + e),   # zero numerator
                     (e * e - one, e + one)):             # exact
        same(num / den, via_dict_mul(num, den))
    assert not (one / (one + e)).has_unit_den
    assert (ExpCoefficient.zero(F) / (one + e)).is_zero()
    assert (e * e - one) / (e + one) == e - one


def _divexact_by_division(num, den, step_cap):
    """``expcoef._dict_divexact`` with every quotient term formed by a
    division through ``ComplexAlgebraic.__truediv__``, unit or not."""
    from deltaclose.expcoef import _add_term

    lead = max(den, key=lambda mu: mu.sort_key())
    rem, quo = dict(num), {}
    for _ in range(step_cap):
        if not rem:
            return quo
        r_lead = max(rem, key=lambda mu: mu.sort_key())
        t_exp, t_coeff = r_lead - lead, rem[r_lead] / den[lead]
        quo[t_exp] = t_coeff
        for nu, d in den.items():
            _add_term(rem, t_exp + nu, -t_coeff * d)
    return None if rem else quo


def test_divexact_unit_lead_matches_division_path(F, quartic_field, monkeypatch):
    # a divisor with leading coefficient 1 takes the remainder's leading
    # coefficient as the quotient term; the quotients, exact or not, are
    # those of the division path, and no ComplexAlgebraic division is made
    from deltaclose.expcoef import _dict_divexact, _leading, _ring_element

    divisions = {"n": 0}
    real_div = ComplexAlgebraic.__truediv__

    def counting_div(self, other):
        divisions["n"] += 1
        return real_div(self, other)

    monkeypatch.setattr(ComplexAlgebraic, "__truediv__", counting_div)
    for K in (F, quartic_field):
        rng = rng_for("divexact-unit-lead")
        seen = {True: 0, False: 0}
        for _ in range(40):
            a, b = random_expcoef(rng, K), random_expcoef(rng, K)
            if b.is_zero():
                continue
            lc = b.num[_leading(b.num)]
            monic = _ring_element(K, {mu: c / lc for mu, c in b.num.items()})
            for den in (b, monic):
                unit = den.num[_leading(den.num)] == 1
                seen[unit] += 1
                for num, cap in (((a * den).num, None), (a.num, 8)):
                    divisions["n"] = 0
                    got = _dict_divexact(num, den.num, cap)
                    if unit:
                        assert divisions["n"] == 0
                    want = _divexact_by_division(num, den.num, cap or 10_000)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert list(got.items()) == list(want.items())
        assert seen[True] > 20 and seen[False] > 5

