import math
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from deltaclose import ExpCoefficient, calg, make_field
from deltaclose import exppoly
from deltaclose.errors import DimensionMismatch, MalformedInput
from deltaclose.expcoef import _add_term
from deltaclose.exppoly import ExpPolynomial, translation_hull
from deltaclose.linalg import _dot, ff_echelon
from deltaclose.opalg import TranslationPolynomial
from deltaclose.scalar import ComplexAlgebraic
from deltaclose.solver import _multi_indices
from deltaclose.subspace import FunctionSubspace

from conftest import (
    random_expcoef,
    random_exppoly,
    random_nonzero_scalar,
    random_scalar,
    rng_for,
    structured_freq_pool,
)


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def test_translate_polynomial(F):
    f = ExpPolynomial.monomial(F, 1, (2,))
    g = f.translate((1,))
    want = (ExpPolynomial.monomial(F, 1, (2,)) +
            ExpPolynomial.monomial(F, 1, (1,), 2) +
            ExpPolynomial.monomial(F, 1, (0,), 1))
    assert g == want


def test_translate_exponential_picks_up_formal_factor(F):
    lam = calg(F, F.gen())
    e = ExpPolynomial.exponential(F, 1, (lam,))
    h = F.rational(Fraction(1, 3))
    g = e.translate((h,))
    factor = ExpCoefficient.exponential(F, lam * h)
    assert g == e.scale(factor)


def test_translate_on_r0_is_identity(F):
    f = ExpPolynomial.monomial(F, 0, (), 3)
    assert f.translate(()) == f


def test_translate_eval_commutes(F):
    rng = rng_for("translate-eval")
    for _ in range(25):
        f = random_exppoly(rng, F, dim=1, max_freqs=3, max_deg=2)
        y = random_scalar(rng, F)
        x = rng.uniform(-2, 2)
        lhs = f.translate((y,)).evaluate((x,))
        rhs = f.evaluate((x + float(y),))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def translate_per_pair(f, y):
    """The binomial expansion with the weight C(alpha, beta) and the powers
    y_i^(a_i - b_i) computed afresh for every (alpha, beta) pair."""
    field = f.field
    out = {}
    for freq, poly in f.terms.items():
        factor = ExpCoefficient.exponential(field, _dot(freq, y))
        new_poly = out[freq] = {}
        for alpha, c in poly.items():
            base = c * factor
            for beta in product(*(range(a + 1) for a in alpha)):
                w = Fraction(1)
                scal = field.one()
                for a_i, b_i, y_i in zip(alpha, beta, y):
                    w *= math.comb(a_i, b_i)
                    scal = scal * y_i ** (a_i - b_i)
                if not scal.is_zero():
                    _add_term(new_poly, beta, base.scale_scalar(
                        ComplexAlgebraic(scal * field.rational(w))))
    return ExpPolynomial(field, f.dim, out)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_translate_matches_per_pair_expansion(F, dim):
    rng = rng_for(f"translate-tables-{dim}")
    kinds = [lambda: random_nonzero_scalar(rng, F) + F.gen(),
             lambda: F.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
             F.zero]
    for _ in range(12):
        f = random_exppoly(rng, F, dim=dim, max_freqs=3, max_deg=4 if dim == 1 else 3)
        y = tuple(rng.choice(kinds)() for _ in range(dim))
        got, want = f.translate(y), translate_per_pair(f, y)
        assert got == want
        # the same terms in the same order, so canonical outputs stay put
        assert [(fr, list(p)) for fr, p in got.terms.items()] == \
            [(fr, list(p)) for fr, p in want.terms.items()]


def test_second_difference_of_square(F):
    f = ExpPolynomial.monomial(F, 1, (2,))
    assert f.forward_difference((1,), 2) == ExpPolynomial.monomial(F, 1, (0,), 2)


def test_difference_of_exponential(F):
    lam = calg(F, F.gen())
    e = ExpPolynomial.exponential(F, 1, (lam,))
    h = F.rational(Fraction(1, 2))
    got = e.forward_difference((h,), 1)
    assert got == e.scale(ExpCoefficient.exponential(F, lam * h) - 1)


def test_difference_of_x_exponential(F):
    lam = calg(F, 1)
    xe = ExpPolynomial.monomial(F, 1, (1,), 1, freq=(lam,))
    got = xe.forward_difference((1,), 1)
    elam = ExpCoefficient.exponential(F, lam)
    want = (ExpPolynomial.monomial(F, 1, (1,), elam - 1, freq=(lam,)) +
            ExpPolynomial.monomial(F, 1, (0,), elam, freq=(lam,)))
    assert got == want


def test_differences_commute(F):
    rng = rng_for("diff-commute")
    for _ in range(50):
        f = random_exppoly(rng, F, dim=1, max_freqs=3, max_deg=3)
        h = random_nonzero_scalar(rng, F)
        k = random_nonzero_scalar(rng, F)
        a = f.forward_difference((h,), 1).forward_difference((k,), 1)
        b = f.forward_difference((k,), 1).forward_difference((h,), 1)
        assert a == b


def test_mth_difference_is_iterated_first_difference(F):
    rng = rng_for("diff-iterate")
    for _ in range(20):
        f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=3)
        h = random_nonzero_scalar(rng, F)
        m = rng.randint(2, 3)
        direct = f.forward_difference((h,), m)
        iterated = f
        for _ in range(m):
            iterated = iterated.forward_difference((h,), 1)
        assert direct == iterated


def test_difference_injective_at_nonorthogonal_frequency(F):
    # a nonzero lambda-component survives differencing when lambda.h != 0
    rng = rng_for("diff-injective")
    for _ in range(20):
        lam = calg(F, random_nonzero_scalar(rng, F), random_scalar(rng, F))
        h = random_nonzero_scalar(rng, F)
        if (lam * h).is_zero():
            continue
        deg = rng.randint(0, 2)
        f = ExpPolynomial.monomial(F, 1, (deg,), 1, freq=(lam,))
        g = f.forward_difference((h,), rng.randint(1, 3))
        assert g.degree_at((lam,)) == deg


def test_degree_drop_at_orthogonal_frequency(F):
    # zero frequency: each difference lowers the degree by the order
    f = ExpPolynomial.monomial(F, 1, (3,))
    g = f.forward_difference((1,), 2)
    assert g.degree_at((calg(F, 0),)) == 1


def test_dimension_mismatch(F):
    f = ExpPolynomial.monomial(F, 1, (1,))
    with pytest.raises(DimensionMismatch):
        f.translate((1, 2))
    with pytest.raises(DimensionMismatch):
        f.forward_difference((1, 2), 2)


def test_negative_difference_order_rejected(F):
    f = ExpPolynomial.monomial(F, 1, (1,))
    with pytest.raises(MalformedInput):
        f.forward_difference((1,), -1)


# -- the closed form of delta_h^m ---------------------------------------------------

def test_difference_closed_form_matches_apply_and_translates(sqrt2_field, quartic_field):
    """forward_difference writes delta_h^m in closed form; the operator's
    general action, TranslationPolynomial.delta(h, m).apply, and the explicit
    sum of translates, scalings and additions sum_k C(m, k) (-1)^(m - k)
    f(x + k h) are the oracles."""
    rng = rng_for("closed-form-delta")
    seen = {"orthogonal": 0, "transverse": 0, "imaginary": 0}
    for K in (sqrt2_field, quartic_field):
        t = K.gen()
        steps = [K.one(), t, K.rational(Fraction(-3, 2)), t * 2 - 1, t * t / 3, K.zero()]
        singles = [calg(K, 0), calg(K, 1), calg(K, t), calg(K, 0, 1), calg(K, 0, t),
                   calg(K, Fraction(-1, 2), 1)]
        for dim in (1, 2, 3):
            atoms = _multi_indices(dim, 3 if dim < 3 else 2)
            for m in range(6):
                for trial in range(2):
                    h = tuple(rng.choice(steps) for _ in range(dim))
                    if all(x.is_zero() for x in h):
                        h = (t,) + h[1:]
                    if trial == 0 and dim > 1:
                        # a nonzero frequency with lambda.h = 0
                        a, b = h[0], h[1]
                        lam = (calg(K, b, b), calg(K, -a, -a)) if not (a.is_zero() and b.is_zero()) \
                            else (calg(K, 1), calg(K, 0, 1))
                        freq = lam + tuple(calg(K, 0) for _ in range(dim - 2))
                    else:
                        freq = tuple(rng.choice(singles) for _ in range(dim))
                    lam_h = sum((f * x for f, x in zip(freq, h)), calg(K, 0))
                    seen["orthogonal" if lam_h.is_zero() else "transverse"] += 1
                    seen["imaginary"] += any(not f.im.is_zero() for f in freq)
                    D = TranslationPolynomial.delta(K, h, m, dim=dim)
                    for alpha in atoms:
                        mono = ExpPolynomial.monomial(K, dim, alpha, 1, freq=freq)
                        assert mono.forward_difference(h, m) == D.apply(mono)
                    # a function over two frequencies, with coefficients of
                    # several exponentials
                    other = tuple(rng.choice(singles) for _ in range(dim))
                    f = ExpPolynomial.zero(K, dim)
                    for fr in (freq, other):
                        for alpha in rng.sample(atoms, min(4, len(atoms))):
                            f = f + ExpPolynomial.monomial(K, dim, alpha, random_expcoef(rng, K),
                                                           freq=fr)
                    by_translates = ExpPolynomial.zero(K, dim)
                    for k in range(m + 1):
                        by_translates = by_translates + f.translate(tuple(x * k for x in h)) \
                            .scale(comb(m, k) * (-1) ** (m - k))
                    assert f.forward_difference(h, m) == D.apply(f) == by_translates
    assert min(seen.values()) > 20, seen


def test_folded_scalar_expansion_matches_unfolded_and_apply(sqrt2_field, quartic_field):
    """A scalar coefficient a folded into ``_expand_into`` as its ``scale``
    adds, key for key and in the same order, what the unfolded expansion
    with the weights a * S_k adds; and forward_difference, which folds
    every scalar coefficient, agrees with TranslationPolynomial.apply on
    functions mixing scalar and group-ring coefficients.  d = 1-3,
    m = 0-5, zero, rational and irrational step coordinates."""
    rng = rng_for("folded-scalar-expansion")
    seen = {"scalar": 0, "group-ring": 0, "zero coordinate": 0, "unit scale": 0}
    for K in (sqrt2_field, quartic_field):
        t = K.gen()
        coords = [K.zero(), K.one(), t, K.rational(Fraction(-3, 2)), t * 2 - 1, t * t / 3]
        freqs = [calg(K, 0), calg(K, 1), calg(K, t), calg(K, 0, 1), calg(K, Fraction(-1, 2), t)]
        scalars = [calg(K, 1), calg(K, -1), calg(K, Fraction(2, 3)), calg(K, t),
                   calg(K, 0, 1), calg(K, t - 1, Fraction(-1, 2))]
        for dim in (1, 2, 3):
            atoms = _multi_indices(dim, 3 if dim < 3 else 2)
            for m, trial in product(range(6), range(2)):
                h = tuple(rng.choice(coords) for _ in range(dim))
                if trial and dim > 1:
                    h = h[:-1] + (K.zero(),)
                if all(x.is_zero() for x in h):
                    h = (t,) + h[1:]
                seen["zero coordinate"] += any(x.is_zero() for x in h)
                freq = tuple(rng.choice(freqs) for _ in range(dim))
                tables = exppoly._shift_tables(h, atoms)
                S = exppoly._difference_sums(K, _dot(freq, h), m, max(map(sum, atoms)))
                for alpha in atoms:
                    c = rng.choice(scalars)
                    seen["unit scale"] += c == 1
                    a = ExpCoefficient.scalar(K, c)
                    folded, unfolded = {}, {}
                    exppoly._expand_into(folded, alpha, tables, S, c)
                    exppoly._expand_into(unfolded, alpha, tables,
                                         [a * s if s else s for s in S[:sum(alpha) + 1]])
                    assert list(folded.items()) == list(unfolded.items())
                D = TranslationPolynomial.delta(K, h, m, dim=dim)
                f = ExpPolynomial.zero(K, dim)
                for fr in (freq, tuple(rng.choice(freqs) for _ in range(dim))):
                    for alpha in rng.sample(atoms, min(5, len(atoms))):
                        coeff = rng.choice(scalars) if rng.random() < 0.6 else \
                            random_expcoef(rng, K) + ExpCoefficient.exponential(K, calg(K, t))
                        f = f + ExpPolynomial.monomial(K, dim, alpha, coeff, freq=fr)
                for poly in f.terms.values():
                    for a in poly.values():
                        seen["scalar" if a.is_scalar() else "group-ring"] += 1
                assert f.forward_difference(h, m) == D.apply(f)
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("d,m,freqs", [(1, 0, 1), (1, 3, 2), (2, 1, 3), (2, 5, 1), (3, 2, 2)])
def test_forward_difference_builds_one_polynomial_and_d_tables(F, monkeypatch, d, m, freqs):
    rng = rng_for(f"fd-count-{d}-{m}-{freqs}")
    pool = structured_freq_pool(F, d)
    f = ExpPolynomial.zero(F, d)
    for fr in rng.sample(pool, freqs):
        f = f + ExpPolynomial.monomial(F, d, tuple(rng.randint(0, 3) for _ in range(d)),
                                       random_expcoef(rng, F) or 1, freq=fr)
    assert len(f.terms) == freqs
    h = tuple(F.rational(rng.randint(1, 4)) + F.gen() * rng.randint(-1, 1) for _ in range(d))
    built, ops, tabled = [0], [0], [0]
    init, op_init, table = ExpPolynomial.__init__, TranslationPolynomial.__init__, \
        exppoly._shift_table

    def counting(counter, wrapped):
        def run(*args, **kwargs):
            counter[0] += 1
            return wrapped(*args, **kwargs)
        return run

    monkeypatch.setattr(ExpPolynomial, "__init__", counting(built, init))
    monkeypatch.setattr(TranslationPolynomial, "__init__", counting(ops, op_init))
    monkeypatch.setattr(exppoly, "_shift_table", counting(tabled, table))
    f.forward_difference(h, m)
    assert (built[0], ops[0], tabled[0]) == (1, 0, d)


def test_zero_coordinates_and_unit_scales_build_nothing(F, quartic_field):
    """The shift table of a zero coordinate is C(a, b) 0^(a - b), the
    identity; a coefficient scaled by 1 is itself; the k = 0 shift of
    delta_h^m is the zero vector."""
    rng = rng_for("zero-coordinates")
    for K in (F, quartic_field):
        for top in range(5):
            assert exppoly._shift_table(K.zero(), top) == [
                [K.rational(comb(a, b) * 0 ** (a - b)) for b in range(a + 1)]
                for a in range(top + 1)]
        for _ in range(10):
            e = random_expcoef(rng, K)
            assert e.scale_scalar(K.complex_one()) is e
        D = TranslationPolynomial.delta(K, (K.one(), K.gen()), 3)
        assert len(D.terms) == 4 and D.terms[(K.zero(), K.zero())] == -1


# -- linear substitution ----------------------------------------------------------

def test_substitute_linear_rectangular_matches_evaluation(F):
    # f(M x) for a d x k matrix M, checked against float evaluation
    rng = rng_for("subst-rect")
    th = F.gen()
    for d, k in ((1, 2), (2, 3)):
        for _ in range(6):
            f = random_exppoly(rng, F, dim=d, max_freqs=2, max_deg=2)
            M = [[F.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                  + th * Fraction(rng.randint(-1, 1)) for _ in range(k)]
                 for _ in range(d)]
            g = f.substitute_linear(M)
            assert g.dim == k
            Mf = np.array([[float(x) for x in row] for row in M])
            for _ in range(4):
                x = np.array([rng.uniform(-1, 1) for _ in range(k)])
                want = f.evaluate(Mf @ x)
                assert abs(g.evaluate(x) - want) <= 1e-9 * max(1.0, abs(want))


def test_substitute_linear_wrong_row_count(F):
    f = ExpPolynomial.monomial(F, 2, (1, 1))
    with pytest.raises(DimensionMismatch):
        f.substitute_linear([[1, 0, 2]])
    with pytest.raises(DimensionMismatch):
        f.substitute_linear([[1, 0], [0, 1], [1, 1]])


# -- translation hull -------------------------------------------------------------

def test_hull_examples(F):
    one = calg(F, 1)
    assert len(translation_hull(ExpPolynomial.exponential(F, 1, (one,)))) == 1
    xe = ExpPolynomial.monomial(F, 1, (1,), 1, freq=(one,))
    assert len(translation_hull(xe)) == 2
    assert len(translation_hull(ExpPolynomial.monomial(F, 1, (2,)))) == 3


def test_hull_is_translation_invariant(F):
    rng = rng_for("hull-invariance")
    for _ in range(5):
        f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=2)
        space = FunctionSubspace.span(translation_hull(f), dim=1, field=F)
        for _ in range(20):
            y = (F.rational(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
                 + F.gen() * Fraction(rng.randint(-2, 2)),)
            assert space.contains(f.translate(y))


def test_hull_spans_the_function_itself(F):
    rng = rng_for("hull-member")
    for _ in range(10):
        f = random_exppoly(rng, F, dim=2, max_freqs=2, max_deg=2)
        basis = translation_hull(f)
        space = FunctionSubspace.span(basis, dim=2, field=F)
        assert space.contains(f)


def test_hull_of_dependent_gradient(F):
    # x + y: shifts only reach x+y and constants
    f = (ExpPolynomial.monomial(F, 2, (1, 0)) +
         ExpPolynomial.monomial(F, 2, (0, 1)))
    assert len(translation_hull(f)) == 2


def _hull_by_elimination(f):
    """The former translation_hull body, kept as the oracle: per frequency,
    all derivatives of the polynomial part as rows over their own atom list,
    one ff_echelon, and one polynomial per echelon row."""
    field, d = f.field, f.dim
    out = []
    for freq, poly in f.terms.items():
        betas = {b for alpha in poly for b in product(*(range(a + 1) for a in alpha))}
        derivs = []
        for beta in sorted(betas, key=lambda b: (sum(b), b)):
            dp = {}
            for alpha, c in poly.items():
                if all(a >= b for a, b in zip(alpha, beta)):
                    w = math.prod(math.perm(a, b) for a, b in zip(alpha, beta))
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    _add_term(dp, gamma, c.scale_scalar(ComplexAlgebraic(field.rational(w))))
            if dp:
                derivs.append(dp)
        atom_list = sorted({a for dp in derivs for a in dp}, key=lambda a: (sum(a), a))
        col = {a: i for i, a in enumerate(atom_list)}
        rows = []
        for dp in derivs:
            row = [ExpCoefficient.zero(field) for _ in atom_list]
            for a, c in dp.items():
                row[col[a]] = c
            rows.append(row)
        ech, _ = ff_echelon(rows)
        for row in ech:
            terms = {freq: {atom_list[i]: c for i, c in enumerate(row) if not c.is_zero()}}
            out.append(ExpPolynomial(field, d, terms))
    return out


def test_hull_basis_matches_elimination_oracle(F):
    rng = rng_for("hull-oracle")
    lam = (calg(F, F.gen()), calg(F, 0, 1))
    x, y = ExpPolynomial.monomial(F, 2, (1, 0)), ExpPolynomial.monomial(F, 2, (0, 1))
    xe = ExpPolynomial.monomial(F, 2, (1, 0), 1, freq=lam)
    ye = ExpPolynomial.monomial(F, 2, (0, 1), 1, freq=lam)
    sq = (ExpPolynomial.monomial(F, 2, (2, 0)) + ExpPolynomial.monomial(F, 2, (1, 1), 2)
          + ExpPolynomial.monomial(F, 2, (0, 2)))
    # dependent gradients: x + y and (x + y)^2, alone and next to a second
    # frequency carrying (x + y) e^(lambda.x)
    fs = [x + y, sq, sq + xe + ye,
          x + y + (xe + ye).scale(3) + ExpPolynomial.exponential(F, 2, lam)]
    for dim in (1, 2):
        for _ in range(10):
            fs.append(random_exppoly(rng, F, dim=dim, max_freqs=3, max_deg=3))
    for f in fs:
        got, want = translation_hull(f), _hull_by_elimination(f)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w
            assert list(g.terms) == list(w.terms)
            assert [list(p) for p in g.terms.values()] == [list(p) for p in w.terms.values()]


# -- numeric evaluation -------------------------------------------------------------

def test_eval_zero_and_exponential(F):
    z = ExpPolynomial.zero(F, 1)
    assert z.evaluate((0.7,)) == 0
    e = ExpPolynomial.exponential(F, 1, (calg(F, 1),))
    assert abs(e.evaluate((1.0,)) - math.e) < 1e-12


def test_eval_difference_matches_summation_oracle(F):
    rng = rng_for("eval-diff")
    for _ in range(10):
        f = random_exppoly(rng, F, dim=1, max_freqs=3, max_deg=2)
        h = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        m = rng.randint(1, 2)
        g = f.forward_difference((h,), m)
        for x in (rng.uniform(-2, 2) for _ in range(5)):
            direct = sum(math.comb(m, k) * (-1) ** (m - k) * f.evaluate((x + k * float(h),))
                         for k in range(m + 1))
            assert abs(g.evaluate((x,)) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_eval_array_matches_pointwise(F):
    rng = rng_for("eval-array")
    f = random_exppoly(rng, F, dim=2, max_freqs=2, max_deg=2)
    pts = np.array([[0.1, -0.3], [1.5, 2.0], [-2.2, 0.7]])
    arr = f.evaluate_array(pts)
    for i, p in enumerate(pts):
        assert abs(arr[i] - f.evaluate(tuple(p))) < 1e-12


def _difference_sums_by_add_term(field, mu, m, top):
    """S_0..S_top accumulated term by term through ``_add_term``, every
    exponent j mu formed by a product: the loop that the direct build of
    ``exppoly._difference_sums`` replaced, kept as its oracle."""
    shifts = [(j, mu * j, comb(m, j) * (-1) ** (m - j)) for j in range(m + 1)]
    S = []
    for k in range(top + 1):
        terms: dict = {}
        for j, exponent, c in shifts:
            _add_term(terms, exponent, ComplexAlgebraic(field.rational(c * j ** k)))
        S.append(ExpCoefficient(field, terms))
    return S


@pytest.mark.parametrize("field_name", ["sqrt2_field", "quartic_field"])
def test_difference_sums_match_add_term_loop(field_name, request):
    K = request.getfixturevalue(field_name)
    mus = [calg(K, 0), calg(K, 1), calg(K, K.gen()), calg(K, 0, 1),
           calg(K, Fraction(-1, 2), K.gen())]
    for mu in mus:
        for m in range(6):
            got = exppoly._difference_sums(K, mu, m, m + 3)
            want = _difference_sums_by_add_term(K, mu, m, m + 3)
            assert len(got) == len(want) == m + 4
            for s, w in zip(got, want):
                assert list(s.num.items()) == list(w.num.items()), (mu, m)
                assert s.has_unit_den
            if mu.is_zero():
                # one scalar per k, m! S(k, m), which vanishes below m
                assert all(len(s.num) <= 1 for s in got)
                assert not any(got[:m]) and all(got[m:] if m else got[:1])


def test_from_monomials_is_the_sum_of_the_monomials(F):
    # in order, with the default zero frequency, plain scalar coefficients,
    # repeated monomials that add up, and a frequency that cancels to empty
    # and comes back
    rng = rng_for("from_monomials")
    theta = (calg(F, F.gen()), calg(F, 0))
    for _ in range(20):
        monos = []
        for _ in range(rng.randint(0, 8)):
            alpha = (rng.randint(0, 2), rng.randint(0, 2))
            freq = rng.choice([None, theta, (calg(F, 1), calg(F, 0, 1))])
            coeff = rng.choice([random_scalar(rng, F), rng.randint(-2, 2),
                                random_expcoef(rng, F, 2)])
            monos.append((alpha, coeff, freq))
        monos += [(a, -c, f) for a, c, f in monos[:rng.randint(0, len(monos))]]
        rng.shuffle(monos)
        want = ExpPolynomial.zero(F, 2)
        for alpha, coeff, freq in monos:
            want = want + ExpPolynomial.monomial(F, 2, alpha, coeff, freq)
        got = ExpPolynomial.from_monomials(F, 2, monos)
        assert got == want
        assert list(got.terms) == list(want.terms)
    for bad, error in [(((1,), 1, None), DimensionMismatch),
                       (((1, -1), 1, None), MalformedInput),
                       (((1, 0), 1, theta[:1]), DimensionMismatch)]:
        with pytest.raises(error):
            ExpPolynomial.from_monomials(F, 2, [((0, 0), 1, None), bad])
