from fractions import Fraction

import pytest

from deltaclose import calg, make_field
from deltaclose import jsonio, subspace
from deltaclose.errors import DeltaCloseError, InternalError, PreconditionNotInvariant
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
    # f of degree <= 2 gives an invariant V; a second input adds a monomial
    # of degree 2 or 3, which the squared differences lower, so its V is not
    steps = [(F.one(), 2), (F.gen(), 2)]
    ops = [(delta(F, h), m) for h, m in steps]
    invariant = []
    for g in (f, f + ExpPolynomial.monomial(F, 1, (rng.randint(2, 3),), rng.randint(1, 3))):
        hull = []
        for h, m in steps:
            hull.extend(translation_hull(g.forward_difference((h,), m)))
        V = FunctionSubspace.span([g] + hull)
        Z = invariant_closure(V, ops)
        invariant.append(Z is V)
        assert Z.contains(g)
        assert Z.contains_all(hull)
        for h, _ in steps:
            assert Z.is_invariant_under(delta(F, h))
    assert invariant == [True, False]


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


def _orbit_reference(V, L, n):
    cur = V.basis_polynomials()
    gens = list(cur)
    for _ in range(n):
        cur = L.apply_each(cur)
        gens.extend(cur)
    return FunctionSubspace.span(gens, dim=V.dim_ambient, field=V.field)


def _three_pass_closure(V, ops):
    """The former invariant_closure, kept as the reference: each L_i^(s_i)
    built by squaring and applied to V up front, then every orbit step, then
    the result checked against every L_i."""
    basis = V.basis_polynomials()
    for i, (L, s) in enumerate(ops):
        if not V.contains_all((L ** s).apply_each(basis)):
            raise PreconditionNotInvariant(i)
    cur = V
    for L, s in ops:
        cur = _orbit_reference(cur, L, s)
    for i, (L, _) in enumerate(ops):
        if not cur.is_invariant_under(L):
            raise PreconditionNotInvariant(i, "iterated closure lost invariance")
    return cur


def _closure_outcome(closure, V, ops):
    try:
        return "ok", jsonio.encode_space(closure(V, ops))
    except DeltaCloseError as e:
        return type(e), getattr(e, "index", None), str(e)


def _random_ops_instance(rng, F, t, kind):
    """(V, ops) with t difference operators of random steps.  ``kind``:
    "hull" makes V a translation hull (invariant under every operator);
    "closed" makes V = span{f} + hull(Delta_i^(m_i) f), which meets every
    precondition and is mostly not invariant; "zero" is "closed" with one power
    set to 0; "low" is "closed" with one power set to m_i - 1, which most
    often fails that precondition; "mixed" is "closed" with one operator
    built as Delta_i^(m_i) at power 1, which V is invariant under, while it
    is mostly not invariant under the others."""
    # a polynomial part of degree 2 or 3, which a difference lowers, and
    # powers m_i >= 2 keep most "closed" spaces from being invariant
    f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=2) + \
        ExpPolynomial.monomial(F, 1, (rng.randint(2, 3),), rng.randint(1, 3))
    steps = [(F.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
              + F.gen() * Fraction(rng.randint(0, 1)), rng.randint(2, 3)) for _ in range(t)]
    if kind == "hull":
        gens = translation_hull(f)
    else:
        gens = [f]
        for h, m in steps:
            gens.extend(translation_hull(f.forward_difference((h,), m)))
    V = FunctionSubspace.span(gens, dim=1, field=F)
    powers = [m for _, m in steps]
    ops = [(delta(F, h), s) for (h, _), s in zip(steps, powers)]
    if kind in ("zero", "low"):
        k = rng.randrange(t)
        ops[k] = (ops[k][0], 0 if kind == "zero" else powers[k] - 1)
    elif kind == "mixed":
        k = rng.randrange(t)
        ops[k] = (delta(F, steps[k][0], steps[k][1]), 1)
    return V, ops


def test_closure_matches_three_pass_reference(F):
    rng = rng_for("closure-vs-three-pass")
    failed_at = set()
    kinds = {"hull": 0, "closed": 0, "zero": 0, "low": 0, "mixed": 0}
    fast = slow = mixed = 0
    for k in range(60):
        kind = list(kinds)[k % 4] if k < 48 else "mixed"
        V, ops = _random_ops_instance(rng, F, 2 + k // 4 % 2, kind)
        got = _closure_outcome(invariant_closure, V, ops)
        assert got == _closure_outcome(_three_pass_closure, V, ops)
        invariant = all(V.is_invariant_under(L) for L, _ in ops)
        fast += invariant
        slow += not invariant
        mixed += 0 < sum(V.is_invariant_under(L) for L, _ in ops) < len(ops)
        if got[0] == "ok":
            kinds[kind] += 1
            res = saturate(V, [L for L, _ in ops], cap=64)
            assert not res.capped
            assert jsonio.encode_space(res.space) == got[1]
        elif got[0] is PreconditionNotInvariant and kind == "low":
            failed_at.add((len(ops), got[1]))
    assert kinds["hull"] == 12 and kinds["closed"] == 12 and kinds["zero"] > 0
    assert fast >= 12 and slow > 12
    assert kinds["mixed"] == 12 and mixed >= 12
    assert {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)} <= failed_at


def test_closure_errors_match_three_pass_reference(F):
    # each precondition failure index, a power-0 entry whose operator V is
    # not invariant under (the final check fails), and a negative power
    x2 = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    steps = [F.one(), F.gen(), F.rational(Fraction(1, 2))]
    cases = []
    for t in (1, 2, 3):
        for bad in range(t):
            cases.append([(delta(F, steps[k]), 1 if k == bad else 3) for k in range(t)])
            cases.append([(delta(F, steps[k]), 0 if k == bad else 3) for k in range(t)])
            cases.append([(delta(F, steps[k]), -1 if k == bad else 3) for k in range(t)])
    messages = set()
    for ops in cases:
        got = _closure_outcome(invariant_closure, x2, ops)
        assert got == _closure_outcome(_three_pass_closure, x2, ops)
        if got[0] != "ok":
            messages.add(got[2].split(" (index")[0])
    assert messages >= {"subspace not invariant under operator power",
                        "iterated closure lost invariance",
                        "operator powers must be >= 0"}


def _count_closure_work(monkeypatch):
    """Counters of the contains calls per space (by id), of the spans, and of
    the generators passed to each span."""
    calls = {"contains": {}, "span": 0, "generators": []}
    real_contains, real_span = FunctionSubspace.contains, FunctionSubspace.span

    def contains(self, f):
        calls["contains"][id(self)] = calls["contains"].get(id(self), 0) + 1
        return real_contains(self, f)

    def span(generators, *args, **kwargs):
        calls["span"] += 1
        calls["generators"].append(len(generators))
        return real_span(generators, *args, **kwargs)

    monkeypatch.setattr(FunctionSubspace, "contains", contains)
    monkeypatch.setattr(FunctionSubspace, "span", staticmethod(span))
    return calls


def test_closure_cost_structure(F, monkeypatch):
    # an invariant V costs one membership test per first image and no span;
    # otherwise the input is checked through at most two image lists per
    # operator (the first images, then L_i^(s_i)(B)), the result once per
    # operator, and exactly one orbit is spanned per operator that V is not
    # invariant under
    rng = rng_for("closure-count")
    instances = [_random_ops_instance(rng, F, 1 + k % 3, ("hull", "closed", "mixed")[k % 3])
                 for k in range(18)]
    orbits = [sum(not V.is_invariant_under(L) for L, _ in ops) for V, ops in instances]
    calls = _count_closure_work(monkeypatch)
    invariant_seen = other_seen = skipped_seen = 0
    for (V, ops), n_orbits in zip(instances, orbits):
        calls.update(contains={}, span=0, generators=[])
        W = invariant_closure(V, ops)
        t = len(ops)
        if W is V:
            invariant_seen += 1
            assert n_orbits == 0
            assert calls == {"contains": {id(V): t * V.dim}, "span": 0, "generators": []}
        else:
            other_seen += 1
            skipped_seen += n_orbits < t
            assert calls["contains"].pop(id(W)) == t * W.dim
            assert calls["contains"].pop(id(V)) <= 2 * t * V.dim
            assert calls["contains"] == {}
            assert calls["span"] == n_orbits
    assert invariant_seen >= 6 and other_seen >= 6 and skipped_seen >= 3


def test_orbit_stops_below_the_operator_power(F, monkeypatch):
    # once L^s(V) lies in V the orbit V + L(V) + ... + L^(s-1)(V) is already
    # L-invariant: a one-operator closure spans s * dim V generators, and
    # one_step_closure n * dim V
    rng = rng_for("orbit-length")
    instances = [_random_ops_instance(rng, F, 1, "closed") for _ in range(8)]
    calls = _count_closure_work(monkeypatch)
    seen = 0
    for V, [(L, s)] in instances:
        calls["generators"].clear()
        W = invariant_closure(V, [(L, s)])
        if W is V:
            continue
        seen += 1
        assert calls["generators"] == [s * V.dim]
        calls["generators"].clear()
        assert one_step_closure(V, L, s).equals(W)
        assert calls["generators"] == [s * V.dim]
    assert seen >= 4


def test_one_step_closure_builds_no_span_before_its_precondition(F, monkeypatch):
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (3,))])
    calls = _count_closure_work(monkeypatch)
    for n in (1, 2, 3):
        with pytest.raises(PreconditionNotInvariant) as ei:
            one_step_closure(V, delta(F, F.one()), n)
        assert str(ei.value) == f"space is not invariant under the {n}-th operator power"
    assert calls["span"] == 0
    with pytest.raises(PreconditionNotInvariant, match="closure order must be >= 0"):
        one_step_closure(V, delta(F, F.one()), -1)
    W = one_step_closure(V, delta(F, F.one()), 4)
    assert W.dim == 4 and calls["span"] == 1


def test_closure_bound_breach_is_a_typed_error(F, monkeypatch):
    # dim V = 1 with one power 3 bounds the closure by 4; an orbit step that
    # returns an invariant space of dimension 6 must raise, also under -O
    V = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (2,))])
    big = FunctionSubspace.span([ExpPolynomial.monomial(F, 1, (k,)) for k in range(6)])
    monkeypatch.setattr(subspace, "_orbit_span", lambda *args: big)
    with pytest.raises(InternalError) as ei:
        invariant_closure(V, [(delta(F, F.one()), 3)])
    assert str(ei.value) == "closure reached dimension 6, above its construction bound 4"
