"""The shared sparse-sum kernel of the exact algebras (``expcoef._add_term``,
``_dict_add``, ``_dict_mul``) and the zero-free contract of the public
constructors built on it."""

import numpy as np
import pytest

from deltaclose import ExpCoefficient, calg, jsonio, make_field
from deltaclose.errors import MalformedInput
from deltaclose.expcoef import _add_term, _dict_add, _dict_mul, _vec_add
from deltaclose.exppoly import ExpPolynomial
from deltaclose.opalg import TranslationPolynomial

from conftest import random_exppoly, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def poly_dict_mul_oracle(a: dict, b: dict) -> dict:
    """Product of multi-index-keyed sparse polynomials: accumulate every
    product without dropping anything, then filter the zeros once."""
    out: dict = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            key = tuple(x + y for x, y in zip(alpha, beta))
            out[key] = ca * cb if key not in out else out[key] + ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def _random_sparse_poly(rng, F, dim, terms):
    """Small multi-index polynomial with field coefficients +-1 and
    +-theta; few distinct keys make cancellations in products common."""
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        out[alpha] = rng.choice([-1, 1]) * rng.choice([F.one(), F.one(), F.gen()])
    return out


def test_dict_mul_with_vec_add_matches_oracle(F):
    rng = rng_for("dict-mul-vec-add")
    cancelled = 0
    for _ in range(200):
        dim = rng.randint(1, 2)
        a = _random_sparse_poly(rng, F, dim, rng.randint(0, 6))
        b = _random_sparse_poly(rng, F, dim, rng.randint(0, 6))
        got = _dict_mul(a, b, _vec_add)
        want = poly_dict_mul_oracle(a, b)
        assert got == want
        assert all(not v.is_zero() for v in got.values())
        cancelled += len({_vec_add(x, y) for x in a for y in b}) - len(got)
    assert cancelled > 10  # keys that cancelled: the inputs exercise the drop


def test_add_term_keeps_no_zero_value(F):
    rng = rng_for("add-term")
    for _ in range(50):
        out: dict = {}
        naive: dict = {}
        for _ in range(rng.randint(1, 20)):
            key = rng.randint(0, 3)
            c = F.rational(rng.randint(-2, 2))
            _add_term(out, key, c)
            naive[key] = naive.get(key, F.zero()) + c
            assert all(not v.is_zero() for v in out.values())
        assert out == {k: v for k, v in naive.items() if not v.is_zero()}
        assert _dict_add({}, out) == out


def test_exppoly_constructor_drops_zeros(F):
    zero, one = ExpCoefficient.zero(F), ExpCoefficient.one(F)
    lam = (calg(F, F.gen()),)
    nil = (calg(F, 0),)
    f = ExpPolynomial(F, 1, {nil: {(0,): one, (1,): zero}, lam: {(2,): zero}, (calg(F, 1),): {}})
    assert f.terms == {nil: {(0,): one}}
    assert f == ExpPolynomial.monomial(F, 1, (0,))
    assert ExpPolynomial(F, 1, {lam: {(0,): zero}}).is_zero()
    assert ExpPolynomial.monomial(F, 1, (3,), 0, freq=lam).terms == {}


def test_translation_polynomial_constructor_drops_zeros(F):
    zero, one = ExpCoefficient.zero(F), ExpCoefficient.one(F)
    T = TranslationPolynomial(F, 1, {(F.zero(),): one, (F.one(),): zero})
    assert T.terms == {(F.zero(),): one}
    assert T == TranslationPolynomial.identity(F, 1)
    assert TranslationPolynomial(F, 1, {(F.one(),): zero}).is_zero()


def test_decoders_drop_zero_terms(F):
    op = {"dim": 1, "terms": [{"shift": ["0/1"], "coeff": "1/1"},
                              {"shift": ["1/1"], "coeff": "0/1"}]}
    T = jsonio.decode_op(F, op)
    assert T.terms == {(F.zero(),): ExpCoefficient.one(F)}
    z = [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]
    th = [{"coords": ["0/1", "1/1"]}, {"coords": ["0/1", "0/1"]}]
    doc = {"dim": 1, "terms": [
        {"lambda": [z], "poly": [{"alpha": [0], "coeff": "2/1"},
                                 {"alpha": [1], "coeff": "0/1"}]},
        {"lambda": [th], "poly": [{"alpha": [0], "coeff": "0/1"}]}]}
    f = jsonio.decode_exppoly(F, doc)
    assert f == ExpPolynomial.monomial(F, 1, (0,), 2)
    assert list(f.terms) == [(calg(F, 0),)]
    # repeated keys are summed, as in decode_exppoly, and a sum that
    # cancels leaves no term
    tau1 = {"shift": ["1/1"], "coeff": "1/1"}
    T2 = jsonio.decode_op(F, {"dim": 1, "terms": [tau1, tau1]})
    assert T2 == TranslationPolynomial.tau(F, (F.one(),)) * 2
    e1 = {"mu": "1", "c": "1"}
    assert jsonio.decode_expcoef(F, {"terms": [e1, e1]}) == \
        ExpCoefficient.exponential(F, calg(F, 1), 2)
    assert jsonio.decode_expcoef(F, {"terms": [e1, {"mu": "1", "c": "-1"}]}).is_zero()
    with pytest.raises(MalformedInput, match="bad exponential coefficient"):
        jsonio.decode_expcoef(F, {"terms": [e1], "den": [e1, {"mu": "1", "c": "-1"}]})
    assert jsonio.encode_exppoly(f)["terms"] == [
        {"lambda": [z], "poly": [{"alpha": [0], "coeff": {"terms": [
            {"mu": z, "c": [{"coords": ["2/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]}]}}]}]


@pytest.mark.parametrize("dim", [1, 2])
def test_delta_with_zero_step_is_zero(F, dim):
    zero_step = (F.zero(),) * dim
    for m in range(1, 6):
        D = TranslationPolynomial.delta(F, zero_step, m)
        assert D.is_zero() and D.terms == {}
        f = ExpPolynomial.monomial(F, dim, (1,) * dim)
        assert D.apply(f).is_zero()
    assert TranslationPolynomial.delta(F, zero_step, 0) == TranslationPolynomial.identity(F, dim)


def test_substitute_linear_merges_colliding_frequencies(F):
    th = F.gen()
    lx, ly = (calg(F, 1), calg(F, 0)), (calg(F, 0), calg(F, 1))
    M = [[F.one()], [F.one()]]  # (x, y) = (t, t): both frequencies land on 1
    ex = ExpPolynomial.exponential(F, 2, lx)
    ey = ExpPolynomial.exponential(F, 2, ly)
    one_t = (calg(F, 1),)
    assert (ex + ey).substitute_linear(M) == ExpPolynomial.exponential(F, 1, one_t, 2)
    assert (ex - ey).substitute_linear(M).is_zero()
    # x e^x - y e^y + theta y e^y  ->  theta t e^t : the collision keeps the
    # surviving part of the merged polynomial
    xex = ExpPolynomial.monomial(F, 2, (1, 0), 1, freq=lx)
    yey = ExpPolynomial.monomial(F, 2, (0, 1), 1, freq=ly)
    f = xex - yey + yey.scale(th)
    g = f.substitute_linear(M)
    assert g == ExpPolynomial.monomial(F, 1, (1,), th, freq=one_t)
    assert list(g.terms) == [one_t]


def test_substitute_linear_collisions_match_evaluation(F):
    rng = rng_for("substitute-collide")
    M = [[F.one(), F.rational(2)], [F.one(), F.rational(2)], [F.zero(), F.gen()]]
    pts = np.array([[0.3, -0.2], [-0.7, 0.4], [0.1, 0.9]])
    for _ in range(15):
        f = random_exppoly(rng, F, dim=3, max_freqs=3, max_deg=2)
        g = f.substitute_linear(M)
        Mf = np.array([[float(x) for x in row] for row in M])
        want = f.evaluate_array(pts @ Mf.T)
        assert np.allclose(g.evaluate_array(pts), want, atol=1e-9 * max(1.0, np.max(np.abs(want))))
        assert all(poly and all(not c.is_zero() for c in poly.values())
                   for poly in g.terms.values())
