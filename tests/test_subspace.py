from fractions import Fraction

import pytest

from deltaclose import calg, make_field
from deltaclose import subspace
from deltaclose.errors import PreconditionNotInvariant
from deltaclose.exppoly import ExpPolynomial, translation_hull
from deltaclose.opalg import TranslationPolynomial
from deltaclose.subspace import (
    FunctionSubspace,
    invariant_closure,
    one_step_closure,
    saturate,
)

from conftest import random_exppoly, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def delta(F, h, m=1):
    return TranslationPolynomial.delta(F, (h,), m)


def test_span_examples(F):
    x = ExpPolynomial.monomial(F, 1, (1,))
    assert FunctionSubspace.span([ExpPolynomial.zero(F, 1)], dim=1, field=F).dim == 0
    assert FunctionSubspace.span([x, x.scale(2)]).dim == 1
    lam = calg(F, F.gen())
    e = ExpPolynomial.exponential(F, 1, (lam,))
    xe = ExpPolynomial.monomial(F, 1, (1,), 1, freq=(lam,))
    assert FunctionSubspace.span([e, xe, e + xe]).dim == 2


def test_membership_reduction_idempotent(F):
    rng = rng_for("idempotent")
    gens = [random_exppoly(rng, F, max_freqs=2, max_deg=2) for _ in range(4)]
    V = FunctionSubspace.span(gens)
    W = FunctionSubspace.span(V.basis_polynomials())
    assert V.equals(W)
    assert [len(r) for r in V.rows] == [len(r) for r in W.rows]
    # canonical rows agree entry by entry
    for r1, r2 in zip(V.rows, W.rows):
        assert all(a == b for a, b in zip(r1, r2))


def test_one_step_closure_already_invariant(F):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (1,)),
                               ExpPolynomial.monomial(F, 1, (0,))])
    W = one_step_closure(V, delta(F, F.one()), 1)
    assert W.equals(V)


def test_one_step_closure_saturates_square(F):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    W = one_step_closure(V, delta(F, F.one()), 3)
    assert W.dim == 3
    for a in ((0,), (1,), (2,)):
        assert W.contains(ExpPolynomial.monomial(F, 1, a))


def test_one_step_closure_precondition(F):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    with pytest.raises(PreconditionNotInvariant):
        one_step_closure(V, delta(F, F.one()), 1)


def test_diamond_example_and_relabeling(F):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    ops = [(delta(F, F.one()), 3), (delta(F, F.gen()), 3)]
    A = invariant_closure(V, ops)
    B = invariant_closure(V, list(reversed(ops)))
    assert A.dim == 3 and A.equals(B)


def test_diamond_reports_offending_index(F):
    # x^2 is killed by a third difference but not by a first one; the first
    # power that fails is reported, wherever it sits in the list
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    steps = [F.one(), F.gen(), F.rational(Fraction(1, 2))]
    for t in (1, 2, 3):
        for bad in range(t):
            ops = [(delta(F, steps[k]), 1 if k == bad else 3) for k in range(t)]
            with pytest.raises(PreconditionNotInvariant) as ei:
                invariant_closure(V, ops)
            assert ei.value.index == bad
            assert str(ei.value) == \
                f"subspace not invariant under operator power (index {bad})"


def test_saturation_oracle_examples(F):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    res = saturate(V, [delta(F, F.one())], cap=10)
    assert not res.capped and res.space.dim == 3 and res.iterations == 2
    lam = calg(F, 1)
    E = FunctionSubspace.span([ExpPolynomial.exponential(F, 1, (lam,))])
    res_e = saturate(E, [delta(F, F.one())], cap=5)
    assert res_e.iterations == 0 and res_e.space.equals(E)


def _difference_closed_instance(rng, F, dim=1, max_ops=2, max_power=2):
    """Random (V, ops) with V invariant under each listed operator power:
    V = span{f} + (translation hull of the differences of f)."""
    f = random_exppoly(rng, F, dim=dim, max_freqs=2, max_deg=2)
    t = rng.randint(1, max_ops)
    ops = []
    hull = []
    for _ in range(t):
        h = tuple(F.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
                  if i == 0 else F.gen() * Fraction(rng.randint(0, 1))
                  for i in range(dim))
        m = rng.randint(1, max_power)
        ops.append((TranslationPolynomial.delta(F, h, 1, dim=dim), m))
        hull.extend(translation_hull(f.forward_difference(h, m)))
    V = FunctionSubspace.span([f] + hull, dim=dim, field=F)
    return V, ops


def test_diamond_matches_saturation_on_constructed_instances(F):
    rng = rng_for("diamond-oracle")
    for _ in range(20):
        V, ops = _difference_closed_instance(rng, F)
        closed = invariant_closure(V, ops)
        res = saturate(V, [L for L, _ in ops], cap=64)
        assert not res.capped
        assert closed.equals(res.space)
        assert closed.contains_all(V.basis_polynomials())
        for L, _ in ops:
            assert closed.is_invariant_under(L)
        bound = V.dim
        for _, s in ops:
            bound *= s + 1
        assert closed.dim <= bound


def test_composite_difference_chain(F):
    # W = span{f}, H = hull of the differences, V = W + H; the closure under
    # every single difference is invariant and contains W and H
    rng = rng_for("composite")
    f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=2)
    steps = [(F.one(), 2), (F.gen(), 2)]
    hull = []
    for h, m in steps:
        hull.extend(translation_hull(f.forward_difference((h,), m)))
    V = FunctionSubspace.span([f] + hull)
    ops = [(delta(F, h), m) for h, m in steps]
    Z = invariant_closure(V, ops)
    assert Z.contains(f)
    assert Z.contains_all(hull)
    for h, _ in steps:
        assert Z.is_invariant_under(delta(F, h))


def _closure_by_one_step_chain(V, ops):
    """The former construction of invariant_closure: one checked one-step
    closure per operator."""
    cur = V
    for L, s in ops:
        cur = one_step_closure(cur, L, s)
    return cur


def test_closure_matches_one_step_chain_and_saturation(F):
    rng = rng_for("closure-vs-chain")
    for k in range(12):
        V, ops = _difference_closed_instance(rng, F, dim=1 + k % 2, max_ops=3, max_power=3)
        closed = invariant_closure(V, ops)
        chain = _closure_by_one_step_chain(V, ops)
        assert closed.atoms == chain.atoms and closed.pivots == chain.pivots
        assert all(a == b for r1, r2 in zip(closed.rows, chain.rows) for a, b in zip(r1, r2))
        assert len(closed.rows) == len(chain.rows)
        res = saturate(V, [L for L, _ in ops], cap=64)
        assert not res.capped and closed.equals(res.space)


def test_closure_checks_input_once_and_result_once(F, monkeypatch):
    rng = rng_for("closure-count")
    instances = [_difference_closed_instance(rng, F, max_ops=3, max_power=3) for _ in range(6)]
    calls = {"contains": 0, "one_step": 0}
    real_contains = FunctionSubspace.contains

    def contains(self, f):
        calls["contains"] += 1
        return real_contains(self, f)

    def one_step(*args):
        calls["one_step"] += 1
        return one_step_closure(*args)

    monkeypatch.setattr(FunctionSubspace, "contains", contains)
    monkeypatch.setattr(subspace, "one_step_closure", one_step)
    for V, ops in instances:
        calls.update(contains=0, one_step=0)
        W = invariant_closure(V, ops)
        t = len(ops)
        assert calls == {"contains": t * V.dim + t * W.dim, "one_step": 0}
