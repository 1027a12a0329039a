from fractions import Fraction
from math import comb

import numpy as np
import pytest

from deltaclose import ExpCoefficient, calg, make_field
from deltaclose import exppoly
from deltaclose.errors import FieldMismatch
from deltaclose.exppoly import ExpPolynomial
from deltaclose.opalg import (
    TranslationPolynomial,
    divisibility_factor,
    telescope_expansion,
    telescope_pigeonhole_ok,
    telescope_total,
)
from deltaclose.construct import ExpPolyLeaf, difference_values, make_triangle_wave

from conftest import random_expcoef, random_exppoly, random_scalar, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def random_op(rng, F, dim=1, max_terms=3):
    out = TranslationPolynomial.zero(F, dim)
    for _ in range(rng.randint(0, max_terms)):
        y = tuple(random_scalar(rng, F) for _ in range(dim))
        out = out + TranslationPolynomial.tau(F, y, dim) * Fraction(rng.randint(-3, 3))
    return out


def test_delta_zero_is_identity(F):
    assert TranslationPolynomial.delta(F, (1,), 0) == TranslationPolynomial.identity(F, 1)


def test_delta_two_binomial(F):
    T = TranslationPolynomial.tau
    want = T(F, (2,)) - T(F, (1,)) * 2 + T(F, (0,))
    assert TranslationPolynomial.delta(F, (1,), 2) == want


def test_identity_neutral(F):
    rng = rng_for("op-identity")
    A = random_op(rng, F)
    assert A * TranslationPolynomial.identity(F, 1) == A


def test_shifted_difference_product(F):
    T = TranslationPolynomial.tau
    one = TranslationPolynomial.identity(F, 1)
    h = F.rational(Fraction(2, 3))
    assert (T(F, (h,)) - one) * (T(F, (h,)) + one) == T(F, (h * 2,)) - one


def test_iterated_first_difference_is_delta_m(F):
    h = F.gen()
    D1 = TranslationPolynomial.delta(F, (h,), 1)
    acc = D1
    for m in range(2, 5):
        acc = acc * D1
        assert acc == TranslationPolynomial.delta(F, (h,), m)


def test_ring_axioms_random(F):
    rng = rng_for("op-ring")
    for _ in range(500):
        A = random_op(rng, F)
        B = random_op(rng, F)
        C = random_op(rng, F)
        assert (A + B) + C == A + (B + C)
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C
        assert A * B == B * A


def test_apply_matches_forward_difference(F):
    # oracle built here from translates: sum_k C(m,k) (-1)^(m-k) f(x + k h)
    rng = rng_for("op-apply")
    for _ in range(30):
        f = random_exppoly(rng, F, dim=1, max_freqs=3, max_deg=2)
        h = random_scalar(rng, F)
        m = rng.randint(1, 3)
        want = ExpPolynomial.zero(F, 1)
        for k in range(m + 1):
            want = want + f.translate((h * k,)).scale(Fraction(comb(m, k) * (-1) ** (m - k)))
        assert TranslationPolynomial.delta(F, (h,), m).apply(f) == want
        assert f.forward_difference((h,), m) == want


# -- the one-pass action ------------------------------------------------------------
# apply accumulates every c_y f(x + y) into one dict; the reference below
# builds each translate, scales it and adds it, one polynomial at a time

def reference_apply(L, f):
    acc = ExpPolynomial.zero(L.field, L.dim)
    for y, c in L.terms.items():
        acc = acc + f.translate(y).scale(c)
    return acc


def assert_canonical(g):
    for poly in g.terms.values():
        assert poly
        assert all(not c.is_zero() for c in poly.values())


def several_exponentials(rng, F):
    """A group-ring coefficient with at least two exponentials."""
    while True:
        c = random_expcoef(rng, F, max_terms=3)
        if len(c.num) >= 2:
            return c


def random_shift(rng, F, d, kind):
    if kind == "zero":
        return (F.zero(),) * d
    if kind == "negative":
        return tuple(-F.rational(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                     for _ in range(d))
    return tuple(random_scalar(rng, F) + F.gen() * rng.choice([-1, 1]) for _ in range(d))


def random_mixed_op(rng, F, d):
    """Zero, negative and irrational shifts, with integer and group-ring
    coefficients."""
    terms = {}
    for kind in ("zero", "negative", "irrational", "irrational"):
        y = random_shift(rng, F, d, kind)
        c = several_exponentials(rng, F) if rng.random() < 0.5 else \
            ExpCoefficient.scalar(F, rng.choice([-3, -1, 2]))
        terms[y] = c
    return TranslationPolynomial(F, d, terms)


@pytest.mark.parametrize("field_name", ["sqrt2_field", "quartic_field"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_apply_equals_translate_scale_add(request, field_name, d):
    F = request.getfixturevalue(field_name)
    rng = rng_for(f"apply-fused-{field_name}-{d}")
    rounds = 1 if d == 0 else (6 if F.degree == 2 else 3)
    for _ in range(rounds):
        if d == 0:
            f = ExpPolynomial(F, 0, {(): {(): several_exponentials(rng, F)}})
        else:
            f = random_exppoly(rng, F, dim=d, max_freqs=2, max_deg=2)
        L = random_mixed_op(rng, F, d)
        got = L.apply(f)
        assert got == reference_apply(L, f)
        assert_canonical(got)


def test_apply_drops_a_cancelled_frequency(sqrt2_field):
    # (tau_h - e^(lambda h) tau_0) kills e^(lambda x) and keeps x; tau_(2h)
    # brings the frequency back after it cancelled
    F = sqrt2_field
    lam, h = calg(F, F.gen()), F.rational(Fraction(-3, 2))
    f = ExpPolynomial.exponential(F, 1, (lam,)) + ExpPolynomial.monomial(F, 1, (1,))
    T = TranslationPolynomial.tau
    unit = ExpCoefficient.exponential(F, lam * h)
    L = T(F, (h,)) - TranslationPolynomial.identity(F, 1) * unit
    got = L.apply(f)
    assert got == reference_apply(L, f) == ExpPolynomial.monomial(F, 1, (0,), h) + \
        ExpPolynomial.monomial(F, 1, (1,), ExpCoefficient.one(F) - unit)
    assert (lam,) not in got.terms
    assert_canonical(got)
    L2 = L + T(F, (h * 2,))
    got2 = L2.apply(f)
    assert got2 == reference_apply(L2, f)
    assert (lam,) in got2.terms
    assert_canonical(got2)
    # every frequency cancels: the zero polynomial, with no empty component
    g = ExpPolynomial.exponential(F, 1, (lam,))
    assert L.apply(g).terms == {}


@pytest.mark.parametrize("field_name", ["sqrt2_field", "quartic_field"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_apply_matches_shifted_float_values(request, field_name, d):
    # float oracle, no exact code shared: sum_y c_y f(X + y) from the values of f
    F = request.getfixturevalue(field_name)
    rng = rng_for(f"apply-float-{field_name}-{d}")
    X = np.random.default_rng(d).uniform(-1.5, 1.5, size=(25, d))
    if d == 0:
        f = ExpPolynomial(F, 0, {(): {(): several_exponentials(rng, F)}})
    else:
        f = random_exppoly(rng, F, dim=d, max_freqs=2, max_deg=2)
    L = random_mixed_op(rng, F, d)
    want = np.zeros(len(X), dtype=complex)
    size = np.zeros(len(X))
    for y, c in L.terms.items():
        term = c.evaluate() * f.evaluate_array(X + np.array([float(v) for v in y]))
        want += term
        size += np.abs(term)
    got = L.apply(f).evaluate_array(X)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(size)))


def test_apply_rejects_a_function_over_another_field(F):
    G = make_field([-3, 0, 1], (1, 2))
    L = TranslationPolynomial.delta(F, (F.gen(),), 2)
    with pytest.raises(FieldMismatch):
        L.apply(ExpPolynomial.monomial(G, 1, (1,)))
    # an equal declaration is the same field
    F2 = make_field([-2, 0, 1], (1, 2))
    f = ExpPolynomial.monomial(F2, 1, (2,))
    assert L.apply(f) == reference_apply(L, f)


@pytest.mark.parametrize("shifts", [1, 2, 3, 5])
def test_apply_builds_one_polynomial_and_no_table_for_zero_shift(F, monkeypatch, shifts):
    rng = rng_for(f"apply-count-{shifts}")
    d = 2
    f = random_exppoly(rng, F, dim=d, max_freqs=2, max_deg=2)
    terms = {(F.zero(),) * d: ExpCoefficient.scalar(F, 2)}
    while len(terms) < shifts:
        y = tuple(F.rational(rng.randint(1, 5)) + F.gen() * rng.randint(-2, 2)
                  for _ in range(d))
        terms[y] = several_exponentials(rng, F)
    L = TranslationPolynomial(F, d, terms)
    built, tabled = [0], []
    init, table = ExpPolynomial.__init__, exppoly._shift_table

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counting_table(y_i, top):
        tabled.append(y_i)
        return table(y_i, top)

    monkeypatch.setattr(ExpPolynomial, "__init__", counting_init)
    monkeypatch.setattr(exppoly, "_shift_table", counting_table)
    L.apply(f)
    assert built[0] == 1
    assert len(tabled) == d * (shifts - 1)
    assert not any(y_i.is_zero() for y_i in tabled)


@pytest.mark.parametrize("d", [1, 2])
def test_apply_each_equals_translates_with_one_table_set_per_shift(F, monkeypatch, d):
    # a list mixing degrees 0..3 and frequencies, with the zero function and
    # the real frequencies (0, ..) and (1, 0, ..), which compare and hash
    # like the integer multi-indices (0, ..) and (1, 0, ..)
    rng = rng_for(f"apply-each-{d}")
    zero_freq = (calg(F, 0),) * d
    one_freq = (calg(F, 1),) + zero_freq[1:]
    assert zero_freq == (0,) * d and hash(zero_freq) == hash((0,) * d)
    assert one_freq == (1,) + (0,) * (d - 1) and hash(one_freq) == hash((1,) + (0,) * (d - 1))
    fs = [ExpPolynomial.monomial(F, d, (0,) * d, 1, freq=zero_freq),
          ExpPolynomial.monomial(F, d, (3,) + (0,) * (d - 1), -2, freq=one_freq)
          + ExpPolynomial.monomial(F, d, (1,) * d, several_exponentials(rng, F), freq=one_freq)
          + ExpPolynomial.monomial(F, d, (1,) + (0,) * (d - 1), 3, freq=zero_freq),
          ExpPolynomial.zero(F, d)]
    fs += [random_exppoly(rng, F, dim=d, max_freqs=3, max_deg=3) for _ in range(4)]
    L = random_mixed_op(rng, F, d)
    assert (F.zero(),) * d in L.terms
    tabled = []
    table = exppoly._shift_table

    def counting_table(y_i, top):
        tabled.append(y_i)
        return table(y_i, top)

    monkeypatch.setattr(exppoly, "_shift_table", counting_table)
    got = L.apply_each(fs)
    assert len(tabled) == d * (len(L.terms) - 1)
    monkeypatch.undo()
    assert len(got) == len(fs)
    for f, g in zip(fs, got):
        assert g == reference_apply(L, f) == L.apply(f)
        assert list(g.terms) == list(L.apply(f).terms)
        assert_canonical(g)
    assert got[2].is_zero()
    assert L.apply_each([]) == []


# -- divisibility -------------------------------------------------------------------

def test_divisibility_examples(F):
    h = (F.rational(Fraction(1, 2)),)
    one = TranslationPolynomial.identity(F, 1)
    T = TranslationPolynomial.tau
    assert divisibility_factor(F, h, 1, 1) == one
    assert divisibility_factor(F, h, 2, 1) == T(F, (h[0],)) + one
    assert divisibility_factor(F, h, -1, 1) == -T(F, (-h[0],))


def test_divisibility_identity_full_range(F):
    h = (F.gen(),)
    T = TranslationPolynomial.tau
    one = TranslationPolynomial.identity(F, 1)
    for p in (-3, -2, -1, 1, 2, 3):
        for n in (1, 2, 3):
            Q = divisibility_factor(F, h, p, n)
            lhs = (T(F, (h[0] * p,)) - one) ** n
            assert lhs == Q * ((T(F, h) - one) ** n), (p, n)


def test_period_propagation_consequence(F):
    # delta_h^m f = 0 forces delta_(p h)^m f = 0, through the exact factor
    rng = rng_for("lemma5")
    h = F.rational(Fraction(1, 3))
    for m in (1, 2, 3):
        f = ExpPolynomial.zero(F, 1)
        for d in range(m):
            f = f + ExpPolynomial.monomial(F, 1, (d,), Fraction(rng.randint(1, 5)))
        assert f.forward_difference((h,), m).is_zero()
        for p in (-3, -2, 2, 3):
            D = TranslationPolynomial.delta(F, (h * p,), m)
            assert D.apply(f).is_zero(), (m, p)


# -- telescoping -----------------------------------------------------------------

def test_telescope_single_step(F):
    s = telescope_expansion(F, [(F.gen(),)], [2], 3)
    total = telescope_total(F, [(F.gen(),)], [2], 3)
    acc = TranslationPolynomial.zero(F, 1)
    for sm in s:
        acc = acc + sm.op
    assert acc == total and len(s) == 1


def test_telescope_two_steps_base_case(F):
    h1 = (F.one(), F.zero())
    h2 = (F.zero(), F.one())
    s = telescope_expansion(F, [h1, h2], [1, 1], 1)
    total = telescope_total(F, [h1, h2], [1, 1], 1)
    acc = TranslationPolynomial.zero(F, 2)
    for sm in s:
        acc = acc + sm.op
    assert acc == total
    assert telescope_pigeonhole_ok(s, 1, 2)


def test_telescope_random_instances(F):
    rng = rng_for("telescope")
    for _ in range(100):
        t = rng.randint(1, 3)
        d = rng.randint(1, 2)
        steps = [tuple(random_scalar(rng, F) for _ in range(d)) for _ in range(t)]
        powers = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(t)]
        N = rng.randint(1, 4)
        summands = telescope_expansion(F, steps, powers, N)
        total = telescope_total(F, steps, powers, N)
        acc = TranslationPolynomial.zero(F, d)
        for sm in summands:
            acc = acc + sm.op
        assert acc == total
        assert telescope_pigeonhole_ok(summands, N, t)


# -- sampled differences ---------------------------------------------------------
# the float counterpart of the operators: construct.difference_values on a grid

def test_grid_identity(F):
    pts = np.linspace(-2, 2, 41)
    f = ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (2,)))
    out = difference_values(f, (F.one(),), 0, pts)
    assert np.allclose(out, pts ** 2)


def test_grid_second_difference_of_square(F):
    pts = np.linspace(-2, 2, 41)
    h = F.rational(Fraction(1, 10))
    f = ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (2,)))
    out = difference_values(f, (h,), 2, pts)
    assert out.shape == (41,)
    assert np.allclose(out, 2 * 0.1 ** 2)


def test_grid_wave_periodicity(F):
    wave = make_triangle_wave(F.one())
    pts = np.linspace(-5, 5, 101)
    out = difference_values(wave, (F.one(),), 1, pts)
    assert np.max(np.abs(out)) <= 1e-12
