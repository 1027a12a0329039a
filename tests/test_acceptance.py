"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity next to its pinned tolerance."""

import time
from fractions import Fraction

import numpy as np
import pytest

from deltaclose import calg, make_field
from deltaclose.construct import (
    corner_witness,
    difference_values,
    grid_membership_residual,
    make_antidifference,
    make_counterexample,
    make_fm,
    make_triangle_wave,
    verify_space_invariance,
)
from deltaclose.exppoly import ExpPolynomial, translation_hull
from deltaclose.groups import (
    build_frame,
    dual_witness,
    group_closure,
    verify_orthogonality,
    verify_reconstruction,
    witness_checks,
)
from deltaclose.opalg import (
    TranslationPolynomial,
    divisibility_factor,
    telescope_expansion,
    telescope_pigeonhole_ok,
    telescope_total,
)
from deltaclose.solver import (
    DifferenceSystem,
    fit_coset_slices,
    in_kernel_span,
    solve_difference_system,
)
from deltaclose.subspace import FunctionSubspace, invariant_closure, saturate

from conftest import random_exppoly, random_fraction, random_scalar, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


@pytest.fixture(scope="module")
def G4():
    return make_field([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10)))


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_acceptance_1_telescoping(F):
    """Multinomial expansion sums back to the combined-step difference,
    exactly, on 100 random instances (t <= 3, |m_k| <= 3, N <= 4, d <= 2)."""
    rng = rng_for("acc1")
    checked = 0
    for _ in range(100):
        t = rng.randint(1, 3)
        d = rng.randint(1, 2)
        steps = [tuple(random_scalar(rng, F) for _ in range(d)) for _ in range(t)]
        powers = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(t)]
        N = rng.randint(1, 4)
        summands = telescope_expansion(F, steps, powers, N)
        total = telescope_total(F, steps, powers, N)
        acc = TranslationPolynomial.zero(F, d)
        for s in summands:
            acc = acc + s.op
        assert acc == total
        assert telescope_pigeonhole_ok(summands, N, t)
        checked += 1
    _report(1, f"telescoping identity exact on {checked}/100 random instances "
               "(tolerance: none, exact group-ring equality)")


def test_acceptance_2_divisibility(F):
    """Exact difference-step factorization, and the vanishing of the tower's
    m-th difference at integer multiples of the base step."""
    T = TranslationPolynomial.tau
    one = TranslationPolynomial.identity(F, 1)
    pairs = 0
    for h in (F.rational(Fraction(1, 2)), F.gen()):
        for p in (-3, -2, -1, 1, 2, 3):
            for n in (1, 2, 3):
                Q = divisibility_factor(F, (h,), p, n)
                lhs = (T(F, (h * p,)) - one) ** n
                rhs = Q * ((T(F, (h,)) - one) ** n)
                assert lhs == rhs, (p, n)
                pairs += 1
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-20.0, 20.0, 10000)[:, None]
    worst = 0.0
    for m in (1, 2, 3):
        fm = make_fm(m, F.one())
        for p in (1, 2, 3):
            resid = float(np.max(np.abs(difference_values(fm, (float(p),), m, xs))))
            worst = max(worst, resid)
            assert resid <= 1e-9, (m, p, resid)
    _report(2, f"factor identity exact on {pairs} (h, p, n) triples; "
               f"max |scaled-step m-th difference of tower| = {worst:.2e} "
               "<= 1e-9 at 10^4 points of [-20, 20]")


def test_acceptance_3_diamond_closure(F):
    """Iterated invariant closure equals the saturation oracle, contains the
    input, is invariant under every operator, and survives relabeling, on 50
    precondition-satisfying instances."""
    rng = rng_for("acc3")
    checked = 0
    for _ in range(50):
        f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=2)
        t = rng.randint(1, 2)
        ops, hull = [], []
        for _ in range(t):
            h = (F.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2))),)
            m = rng.randint(1, 2)
            ops.append((TranslationPolynomial.delta(F, h, 1, dim=1), m))
            hull.extend(translation_hull(f.forward_difference(h, m)))
        V = FunctionSubspace.span([f] + hull, dim=1, field=F)
        closed = invariant_closure(V, ops)
        relabeled = invariant_closure(V, list(reversed(ops)))
        oracle = saturate(V, [L for L, _ in ops], cap=64)
        assert not oracle.capped
        assert closed.equals(oracle.space)
        assert closed.equals(relabeled)
        assert closed.contains_all(V.basis_polynomials())
        for L, _ in ops:
            assert closed.is_invariant_under(L)
        bound = V.dim
        for _, s in ops:
            bound *= s + 1
        assert closed.dim <= bound
        checked += 1
    _report(3, f"closure == saturation oracle (exact span equality), invariant, "
               f"relabeling-independent on {checked}/50 instances")


def test_acceptance_4_roundtrip(F, G4):
    """Reconstruction from forward differences recovers the function modulo
    the computed kernel, exactly, on 100 random instances within 120 s."""
    t0 = time.time()
    rng = rng_for("acc4")
    th = F.gen()
    mu = G4.gen()
    s2 = (mu ** 3 - mu * 9) / 2
    s3 = (mu * 11 - mu ** 3) / 2
    checked = 0
    for i in range(100):
        if i % 10 < 7:
            field, dim = F, 1
            steps = [((field.one(),), rng.randint(1, 3)), ((th,), rng.randint(1, 3))]
            if rng.random() < 0.5:
                h3 = field.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
                steps.append(((h3,), rng.randint(1, 3)))
        else:
            field, dim = G4, 2
            steps = [((field.one(), field.zero()), rng.randint(1, 2)),
                     ((field.zero(), field.one()), rng.randint(1, 2)),
                     ((s2, s3), rng.randint(1, 2))]
        f = random_exppoly(rng, field, dim=dim, max_freqs=4, max_deg=3)
        rhs = [f.forward_difference(h, m) for h, m in steps]
        sys = DifferenceSystem(field, dim, steps, rhs)
        sol = solve_difference_system(sys)
        assert in_kernel_span(sol.particular - f, sol.kernel_basis)
        for (h, m), g in zip(sys.steps, sys.rhs):
            assert sol.particular.forward_difference(h, m) == g
        checked += 1
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"round-trip suite took {elapsed:.1f}s"
    _report(4, f"{checked}/100 exact round trips (forward residual identically "
               f"zero, recovery modulo kernel) in {elapsed:.1f}s <= 120s")


def test_acceptance_5_constructions(F):
    """Antidifference inverts the forward difference, towers vanish at their
    order, and the corner witnesses are where they must be."""
    wave = make_triangle_wave(F.one())
    anti = make_antidifference(wave, F.one())
    rng = np.random.default_rng(5)
    xs = rng.uniform(-20.0, 20.0, 10000)[:, None]
    r_anti = float(np.max(np.abs(
        difference_values(anti, (1.0,), 1, xs) - wave.eval_array(xs))))
    assert r_anti <= 1e-10
    worst_top = 0.0
    for m in (1, 2, 3, 4):
        fm = make_fm(m, F.one())
        r_top = float(np.max(np.abs(difference_values(fm, (1.0,), m, xs))))
        worst_top = max(worst_top, r_top)
        assert r_top <= 1e-9, m
    w0 = corner_witness(wave, [(-0.4, 0.4)])
    assert w0 is not None
    assert abs(w0.gap - 2.0) <= 0.01
    assert abs(w0.point[0]) < 1e-3
    for m in (2, 3, 4):
        fm = make_fm(m, F.one())
        wm = corner_witness(fm, [(0.6, float(m + 2))])
        assert wm is not None and wm.gap > 0.1, m
    _report(5, f"antidifference residual {r_anti:.2e} <= 1e-10 at 10^4 points; "
               f"tower residual {worst_top:.2e} <= 1e-9; wave corner at "
               f"x = {w0.point[0]:.1e} with gap {w0.gap:.6f} (2 +/- 0.01); "
               "corners found for every tower up to order 4")


def _counterexample_instance(F, dim):
    th = F.gen()
    if dim == 2:
        gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
        freq = (calg(F, 1), calg(F, 0))
    else:
        gens = [(F.one(), F.zero(), F.zero()), (th, F.zero(), F.zero()),
                (F.zero(), F.one(), F.zero())]
        freq = (calg(F, 1), calg(F, 0), calg(F, 0))
    closure = group_closure(gens, field=F)
    frame = build_frame(closure)
    outer = ExpPolynomial.exponential(F, dim, freq)
    return gens, closure, frame, outer


def test_acceptance_6_counterexample_certificates(F):
    """The hyperplane construction certifies, for d = 2 and d = 3: exact
    invariance of H, grid membership of the m-th differences, and a corner."""
    lines = []
    for dim in (2, 3):
        gens, closure, frame, outer = _counterexample_instance(F, dim)
        m = 1
        phi, H = make_counterexample(frame, outer, m)
        assert verify_space_invariance(H, gens)
        xs = np.linspace(-2.0, 2.0, 41)
        mesh = np.meshgrid(*([xs] * dim), indexing="ij")
        pts = np.stack([a.ravel() for a in mesh], axis=-1)
        worst = 0.0
        for h in gens:
            dv = difference_values(phi, [float(x) for x in h], m, pts)
            worst = max(worst, grid_membership_residual(dv, pts, H))
        assert worst <= 1e-8
        wdir = tuple(float(x) for x in frame.w)
        witness = corner_witness(phi, [(-1.4, 1.4)] * dim, directions=[wdir])
        assert witness is not None
        lines.append(f"d={dim}: H invariance exact, membership residual "
                     f"{worst:.2e} <= 1e-8 on a 41^{dim} grid, corner gap "
                     f"{witness.gap:.3f}")
    _report(6, "; ".join(lines))


def test_acceptance_7_group_closure(F):
    """Stated closure cases exact, plus duality-oracle consistency on a
    30-case randomized suite."""
    c1 = group_closure([(1,), (Fraction(1, 2),), (Fraction(1, 4),)], field=F)
    assert not c1.dense and c1.v_basis == []
    assert len(c1.lambda_basis) == 1 and c1.lambda_basis[0][0] == Fraction(1, 4)
    th = F.gen()
    c2 = group_closure([(1,), (th,)], field=F)
    assert c2.dense
    c3 = group_closure([(1, 0), (th, F.zero()), (0, 1)], field=F)
    assert not c3.dense
    assert len(c3.v_basis) == 1 and c3.v_basis[0][0] == 1 and c3.v_basis[0][1].is_zero()
    assert len(c3.lambda_basis) == 1
    assert c3.lambda_basis[0][0].is_zero() and c3.lambda_basis[0][1] == 1
    for c in (c1, c2, c3):
        assert verify_reconstruction(c) and verify_orthogonality(c)
    rng = rng_for("acc7")
    consistent = 0
    for _ in range(30):
        d = rng.randint(1, 2)
        t = rng.randint(1, 3)
        gens = []
        for _ in range(t):
            vec = tuple(random_fraction(rng, num=3, den=3) + th * Fraction(rng.randint(-1, 1))
                        for _ in range(d))
            gens.append(vec)
        if all(all(x.is_zero() for x in g) for g in gens):
            gens[0] = (F.one(),) * d
        c = group_closure(gens, field=F)
        w = dual_witness(gens, F)
        if c.dense:
            assert w is None
        else:
            assert w is not None and witness_checks(w[0], gens, F)
        consistent += 1
    _report(7, "dyadic chain -> (1/4)Z, {1, sqrt2} -> dense, mixed plane -> "
               f"x-axis + Z(0,1), all exact; duality oracle consistent on "
               f"{consistent}/30 randomized cases")


def test_acceptance_8_coset_slices(F):
    """Fitted coset slices of the counterexample: held-out residuals within
    1e-8, and the two slices differ by the inner profile's value at one
    lattice step (which the lattice-vanishing construction makes zero)."""
    gens, closure, frame, outer = _counterexample_instance(F, 2)
    m = 1
    phi, H = make_counterexample(frame, outer, m)
    orders = [(g, 1, 1) for g in gens]
    lam = tuple(closure.lambda_basis[-1])
    lambdas = [(F.zero(), F.zero()), lam]
    report = fit_coset_slices(phi, closure, orders, H, lambdas)
    worst = max(s.residual for s in report.slices)
    assert worst <= 1e-8
    offset = phi.inner.eval_float((float(frame.s_value(lam) / frame.r),)).real
    pts = np.linspace(-2.0, 2.0, 33)[:, None] * np.array([[1.0, 0.0]])
    gap = report.slices[1].function.eval_array(pts) - \
        report.slices[0].function.eval_array(pts)
    dev = float(np.max(np.abs(gap - offset)))
    assert dev <= 1e-8
    _report(8, f"slice residuals <= {worst:.2e} (tolerance 1e-8); fitted "
               f"slices differ by the inner-profile constant {offset!r} "
               f"within {dev:.2e} <= 1e-8")
