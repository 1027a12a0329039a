import hashlib
from fractions import Fraction

import numpy as np
import pytest

from deltaclose import calg, make_field
from deltaclose.construct import ExpPolyLeaf, make_counterexample
from deltaclose.errors import (
    DenseGroup,
    DimensionMismatch,
    FieldMismatch,
    Inconsistent,
    MalformedInput,
    NotDense,
)
from deltaclose.expcoef import ExpCoefficient
from deltaclose.exppoly import ExpPolynomial, translation_hull
from deltaclose.groups import build_frame, group_closure
from deltaclose.opalg import TranslationPolynomial, telescope_expansion
from deltaclose.solver import (
    DifferenceSystem,
    ansatz_atoms,
    fit_coset_slices,
    in_kernel_span,
    polynomial_kernel,
    solve_difference_system,
)
from deltaclose.subspace import FunctionSubspace, invariant_closure

from conftest import random_exppoly, rng_for, structured_freq_pool


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def dense_steps_1d(F, rng, t=2):
    th = F.gen()
    steps = [((F.one(),), rng.randint(1, 3)), ((th,), rng.randint(1, 3))]
    for _ in range(t - 2):
        h = F.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        steps.append(((h,), rng.randint(1, 3)))
    return steps


def test_ansatz_degree_bound(F):
    # g = delta_1^2 x^3 has degree 1; the zero-frequency bound must reach 3
    f = ExpPolynomial.monomial(F, 1, (3,))
    steps = [((F.one(),), 2), ((F.gen(),), 2)]
    sys = DifferenceSystem(F, 1, steps, [f.forward_difference(h, m) for h, m in steps])
    atoms = dict((fr, b) for fr, b in ansatz_atoms(sys))
    zero = (calg(F, 0),)
    assert atoms[zero] == 3


def test_ansatz_bound_grows_along_orthogonal_step(F):
    # f = x2 e^(lambda.x) with lambda orthogonal to the first step: that
    # equation cannot see the degree, so the bound must add its order
    i_unit = calg(F, 0, 1)
    zero = calg(F, 0)
    lam = (i_unit, zero)              # lambda . (0, 1) = 0
    f = ExpPolynomial.monomial(F, 2, (0, 1), 1, freq=lam)
    th = F.gen()
    steps = [((F.zero(), F.one()), 2),   # orthogonal to lambda
             ((F.one(), F.zero()), 1),
             ((th, F.zero()), 1),
             ((F.zero(), th), 1)]
    rhs = [f.forward_difference(h, m) for h, m in steps]
    sys = DifferenceSystem(F, 2, steps, rhs)
    bounds = dict(ansatz_atoms(sys))
    assert bounds[lam] >= f.degree_at(lam)
    # the orthogonal equation annihilates the component entirely, so the
    # bound must add that step's order on top of the unseen degree
    assert bounds[lam] == 2
    sol = solve_difference_system(sys)
    assert in_kernel_span(sol.particular - f, sol.kernel_basis)


def test_roundtrip_simple(F):
    th = F.gen()
    f = ExpPolynomial.monomial(F, 1, (2,)) + ExpPolynomial.exponential(F, 1, (calg(F, th),))
    steps = [((F.one(),), 2), ((th,), 2)]
    sys = DifferenceSystem(F, 1, steps, [f.forward_difference(h, m) for h, m in steps])
    sol = solve_difference_system(sys)
    assert in_kernel_span(sol.particular - f, sol.kernel_basis)
    kern_atoms = sorted(a for k in sol.kernel_basis for a, _ in k.atoms())
    assert kern_atoms == [(0,), (1,)]


def test_roundtrip_random_batch(F):
    rng = rng_for("solver-roundtrip")
    for _ in range(15):
        dim = rng.choice([1, 1, 2])
        f = random_exppoly(rng, F, dim=dim, max_freqs=3, max_deg=3)
        if dim == 1:
            steps = dense_steps_1d(F, rng, t=rng.randint(2, 3))
        else:
            th = F.gen()
            steps = [((F.one(), F.zero()), rng.randint(1, 2)),
                     ((F.zero(), F.one()), rng.randint(1, 2)),
                     ((th, F.zero()), rng.randint(1, 2)),
                     ((F.zero(), th), rng.randint(1, 2))]
        sys = DifferenceSystem(F, dim, steps,
                               [f.forward_difference(h, m) for h, m in steps])
        sol = solve_difference_system(sys)
        diff = sol.particular - f
        assert in_kernel_span(diff, sol.kernel_basis)
        for (h, m), g in zip(sys.steps, sys.rhs):
            assert sol.particular.forward_difference(h, m) == g


def test_solution_requiring_denominators(F):
    # right-hand side with a bare unit coefficient: the unique frequency
    # component is e^(lam x) / (e^(lam) - 1), an honest fraction-field value
    th = F.gen()
    lam = calg(F, 1)
    e = ExpPolynomial.exponential(F, 1, (lam,))
    den1 = ExpCoefficient.exponential(F, lam) - 1
    den2 = ExpCoefficient.exponential(F, lam * th) - 1
    g1 = e                                   # delta_1 f = e^(lam x)
    g2 = e.scale(den2 / den1)                # the only consistent companion
    sys = DifferenceSystem(F, 1, [((F.one(),), 1), ((th,), 1)], [g1, g2])
    sol = solve_difference_system(sys)
    expect = e.scale(ExpCoefficient.one(F) / den1)
    diff = sol.particular - expect
    assert in_kernel_span(diff, sol.kernel_basis)
    for (h, m), g in zip(sys.steps, sys.rhs):
        assert sol.particular.forward_difference(h, m) == g


def test_zero_rhs_gives_kernel_constants(F):
    steps = [((F.one(),), 1), ((F.gen(),), 1)]
    sys = DifferenceSystem(F, 1, steps, [ExpPolynomial.zero(F, 1)] * 2)
    sol = solve_difference_system(sys)
    assert sol.particular.is_zero()
    assert len(sol.kernel_basis) == 1
    assert sol.kernel_basis[0].degree_at((calg(F, 0),)) == 0


def test_not_dense_gate(F):
    sys = DifferenceSystem(F, 1, [((F.one(),), 1)], [ExpPolynomial.zero(F, 1)])
    with pytest.raises(NotDense):
        solve_difference_system(sys)
    with pytest.raises(NotDense):
        polynomial_kernel(F, 1, [((F.one(),), 1)], 2)


def test_foreign_step_rejected_at_construction(F):
    G = make_field([-3, 0, 1], (1, 2))   # sqrt(3)
    with pytest.raises(FieldMismatch):
        DifferenceSystem(F, 1, [((G.gen(),), 1)], [ExpPolynomial.zero(F, 1)])


def test_inconsistent_detected_exactly(F):
    g1 = ExpPolynomial.monomial(F, 1, (0,))
    sys = DifferenceSystem(F, 1, [((F.one(),), 1), ((F.gen(),), 1)],
                           [g1, ExpPolynomial.zero(F, 1)])
    with pytest.raises(Inconsistent, match=r"zero-frequency polynomial block "
                                           r"\(2 unknowns, 4 equations\)"):
        solve_difference_system(sys)
    # a nonzero frequency is fitted to its pivot, the first step, alone; the
    # final exact check of the other steps names the step it fails
    e1 = ExpPolynomial.exponential(F, 1, (F.complex_one(),))
    sys = DifferenceSystem(F, 1, [((F.one(),), 1), ((F.gen(),), 1)],
                           [e1, ExpPolynomial.zero(F, 1)])
    with pytest.raises(Inconsistent, match=r"step 1 \(h = \(\[0, 1\]\), m = 1\)"):
        solve_difference_system(sys)


def test_zero_block_with_group_ring_coefficients(F):
    # right-hand sides at frequency 0 whose coefficients hold e^theta: the
    # scalar matrix and the group-ring right-hand side share one elimination.
    # The digest is that of an elimination over ExpCoefficient entries alone.
    from deltaclose import jsonio

    th = F.gen()
    e = ExpCoefficient.exponential(F, calg(F, th))
    q = (e - 1) / (e + 1)
    f = (ExpPolynomial.monomial(F, 1, (2,), e) + ExpPolynomial.monomial(F, 1, (1,), q)
         + ExpPolynomial.monomial(F, 1, (0,), 3))
    steps = [((F.one(),), 1), ((th,), 2)]
    sol = solve_difference_system(
        DifferenceSystem(F, 1, steps, [f.forward_difference(h, m) for h, m in steps]))
    doc = {"particular": jsonio.encode_exppoly(sol.particular),
           "kernel": [jsonio.encode_exppoly(k) for k in sol.kernel_basis]}
    assert hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest() == \
        "40419f6410e8e1abb5dec3db08bca248094fb533963f15b2ebd605e55439d952"
    assert in_kernel_span(sol.particular - f, sol.kernel_basis)
    # delta_1 f = e^theta forces f = e^theta x + c, whose delta_theta is
    # theta e^theta, not e^theta
    g = ExpPolynomial.monomial(F, 1, (0,), e)
    sys = DifferenceSystem(F, 1, [((F.one(),), 1), ((th,), 1)], [g, g])
    with pytest.raises(Inconsistent, match=r"block \(2 unknowns, 4 equations\) admits"):
        solve_difference_system(sys)


def test_kernel_examples(F):
    th = F.gen()
    kern = polynomial_kernel(F, 1, [((F.one(),), 2), ((th,), 2)], 3)
    space = FunctionSubspace.span(kern)
    assert space.dim == 2
    assert space.contains(ExpPolynomial.monomial(F, 1, (0,)))
    assert space.contains(ExpPolynomial.monomial(F, 1, (1,)))
    assert not space.contains(ExpPolynomial.monomial(F, 1, (2,)))
    kern1 = polynomial_kernel(F, 1, [((F.one(),), 1), ((th,), 1)], 2)
    assert len(kern1) == 1


def test_kernel_matches_brute_force(F):
    # brute force: eliminate over the full atom space and compare spans
    rng = rng_for("kernel-brute")
    th = F.gen()
    for _ in range(5):
        m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
        cap = rng.randint(1, 4)
        steps = [((F.one(),), m1), ((th,), m2)]
        kern = polynomial_kernel(F, 1, steps, cap)
        brute = []
        for d in range(cap + 1):
            p = ExpPolynomial.monomial(F, 1, (d,))
            if all(p.forward_difference(h, m).is_zero() for h, m in steps):
                brute.append(p)
        ks = FunctionSubspace.span(kern, dim=1, field=F)
        bs = FunctionSubspace.span(brute, dim=1, field=F)
        # monomial survivors are a basis here: degree < min(m1, m2)
        assert ks.dim == bs.dim == min(m1, m2, cap + 1)
        assert all(ks.contains(b) for b in brute)


def test_equation_order_invariance(F):
    rng = rng_for("order-invariance")
    th = F.gen()
    f = random_exppoly(rng, F, dim=1, max_freqs=3, max_deg=2)
    steps = [((F.one(),), 2), ((th,), 1), ((F.rational(Fraction(1, 2)),), 2)]
    rhs = [f.forward_difference(h, m) for h, m in steps]
    sol1 = solve_difference_system(DifferenceSystem(F, 1, steps, rhs))
    perm = [2, 0, 1]
    sol2 = solve_difference_system(DifferenceSystem(
        F, 1, [steps[i] for i in perm], [rhs[i] for i in perm]))
    k1 = FunctionSubspace.span(sol1.kernel_basis, dim=1, field=F)
    k2 = FunctionSubspace.span(sol2.kernel_basis, dim=1, field=F)
    assert k1.equals(k2)
    assert in_kernel_span(sol1.particular - sol2.particular, sol1.kernel_basis)


def test_telescoped_membership_chain(F):
    # if every delta_(h_i)^(n_i) f lies in a translation-stable H, then the
    # N-th difference along any integer combination of the steps does too,
    # with N the sum of the orders; verified through the expansion summands
    rng = rng_for("telescope-membership")
    th = F.gen()
    f = random_exppoly(rng, F, dim=1, max_freqs=2, max_deg=2)
    steps = [(F.one(),), (th,)]
    orders = [1, 2]
    hull = []
    for (h,), n in zip(steps, orders):
        hull.extend(translation_hull(f.forward_difference((h,), n)))
    H = FunctionSubspace.span(hull, dim=1, field=F) if hull else \
        FunctionSubspace.span([], dim=1, field=F)
    # close under both shift directions so H is stable under the step group
    ops = [(TranslationPolynomial.tau(F, (h,)), 1) for (h,) in steps]
    ops += [(TranslationPolynomial.tau(F, (-h,)), 1) for (h,) in steps]
    H = invariant_closure(H, ops)
    N = sum(orders)
    for ms in ((1, 1), (2, -1), (-2, 3)):
        summands = telescope_expansion(F, steps, list(ms), N)
        for s in summands:
            assert H.contains(s.op.apply(f))
        h_comb = sum((h[0] * m for h, m in zip(steps, ms)), start=F.zero())
        total = f.forward_difference((h_comb,), N)
        assert H.contains(total)


def test_limit_step_membership_numeric(F):
    # steps in the closure of the group but outside it: checked on a grid
    th = F.gen()
    f = random_exppoly(rng_for("limit-step"), F, dim=1, max_freqs=2, max_deg=2)
    hull = translation_hull(f)
    H = FunctionSubspace.span(hull, dim=1, field=F)
    basis = H.basis_polynomials()
    pts = np.linspace(-3, 3, 401)[:, None]
    cols = np.stack([b.evaluate_array(pts) for b in basis], axis=1)
    h_limit = 1.0 / 3.0  # in the closure of Z + theta Z, not in the group
    g = ExpPolyLeaf(f)
    from deltaclose.construct import difference_values
    vals = difference_values(g, (h_limit,), 3, pts)
    coef, *_ = np.linalg.lstsq(cols, vals, rcond=None)
    resid = float(np.max(np.abs(vals - cols @ coef)))
    assert resid < 1e-8


# -- coset slices ------------------------------------------------------------------

def test_coset_fit_exact_leaf(F):
    th = F.gen()
    gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    e = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    H = FunctionSubspace.span(translation_hull(e), dim=2, field=F)
    orders = [(g, 1, 1) for g in gens]
    lambdas = [(F.zero(), F.zero()), (F.zero(), F.one())]
    report = fit_coset_slices(ExpPolyLeaf(e), closure, orders, H, lambdas)
    for s in report.slices:
        assert s.residual <= 1e-10
    # the slice at a lattice point matches the translated function on V
    lam = lambdas[1]
    pts = np.linspace(-2, 2, 17)[:, None] * np.array([[1.0, 0.0]])
    shifted = e.translate(lam)
    fitted = report.slices[1].function
    resid = np.max(np.abs(fitted.eval_array(pts) - shifted.evaluate_array(pts)))
    assert resid < 1e-10


def test_coset_fit_counterexample_slices(F):
    th = F.gen()
    gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    frame = build_frame(closure)
    outer = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    phi, H = make_counterexample(frame, outer, 1)
    orders = [(g, 1, 1) for g in gens]
    lambdas = [(F.zero(), F.zero()), tuple(closure.lambda_basis[-1])]
    report = fit_coset_slices(phi, closure, orders, H, lambdas)
    assert all(s.residual <= 1e-8 for s in report.slices)
    # both slices scale the same leaf objects, one per candidate
    leaves = [[term.child for term in s.function.children] for s in report.slices]
    assert len(leaves[0]) == report.candidate_dim
    assert all(a is b for a, b in zip(*leaves))
    # slices differ by the inner profile value at one lattice step
    inner_offset = phi.inner.eval_float((1.0,)).real
    pts = np.linspace(-2, 2, 33)[:, None] * np.array([[1.0, 0.0]])
    d = report.slices[1].function.eval_array(pts) - report.slices[0].function.eval_array(pts)
    assert np.max(np.abs(d - inner_offset)) < 1e-8


def test_coset_fit_plane_subspace_part(F):
    # V two-dimensional inside d = 3: kernel candidates live in two fit
    # variables and are mapped back through a non-square linear form
    th = F.gen()
    z, o = F.zero(), F.one()
    gens = [(o, z, z), (th, z, z), (z, o, z), (z, th, z), (z, z, o)]
    closure = group_closure(gens, field=F)
    assert len(closure.v_basis) == 2 and len(closure.lambda_basis) == 1
    frame = build_frame(closure)
    outer = (ExpPolynomial.monomial(F, 3, (1, 0, 0), 1,
                                    freq=(calg(F, 1), calg(F, 0), calg(F, 0))) +
             ExpPolynomial.exponential(F, 3, (calg(F, 0), calg(F, 0, 1), calg(F, 0))))
    phi, H = make_counterexample(frame, outer, 1)
    orders = [(g, 1, 1) for g in gens]
    lambdas = [(z, z, z), tuple(closure.lambda_basis[-1])]
    report = fit_coset_slices(phi, closure, orders, H, lambdas, grid_count=9)
    assert all(s.residual <= 1e-8 for s in report.slices)
    assert report.condition < 1e6


def test_coset_fit_gates(F):
    th = F.gen()
    dense_closure = group_closure([(F.one(),), (th,)], field=F)
    e = ExpPolynomial.monomial(F, 1, (0,))
    H = FunctionSubspace.span([e])
    with pytest.raises(DenseGroup):
        fit_coset_slices(ExpPolyLeaf(e), dense_closure, [((F.one(),), 1, 1)], H,
                         [(F.zero(),)])
    closure = group_closure([(F.one(),)], field=F)
    with pytest.raises(MalformedInput):
        fit_coset_slices(ExpPolyLeaf(e), closure, [((F.one(),), 1, 1)], H,
                         [(F.rational(Fraction(1, 2)),)])
    # over the lattice Z, V = {0}: each slice is the one value f(lambda), so
    # one fitting point serves two candidates
    x = ExpPolynomial.monomial(F, 1, (1,))
    H2 = FunctionSubspace.span([e, x])
    report = fit_coset_slices(ExpPolyLeaf(x), closure, [((F.one(),), 2, 2)], H2,
                              [(F.zero(),), (F.rational(3),)])
    assert report.candidate_dim == 2
    for s, value in zip(report.slices, (0.0, 3.0)):
        assert s.residual <= 1e-12
        assert abs(s.function.eval_array(np.zeros((1, 1)))[0] - value) <= 1e-12


def test_coset_fit_checks_vector_lengths(F):
    th = F.gen()
    gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    e = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    H = FunctionSubspace.span(translation_hull(e), dim=2, field=F)
    orders = [(g, 1, 1) for g in gens]
    for lam in [(F.zero(),), (F.zero(), F.zero(), F.zero())]:
        with pytest.raises(DimensionMismatch, match="lattice point of length"):
            fit_coset_slices(ExpPolyLeaf(e), closure, orders, H, [lam])
    with pytest.raises(DimensionMismatch, match="step of length 1"):
        fit_coset_slices(ExpPolyLeaf(e), closure, [((F.one(),), 1, 1)], H,
                         [(F.zero(), F.zero())])


def test_coset_fit_refuses_empty_space_of_another_dimension(F):
    # a space with no basis keeps its ambient dimension, which the closure's
    # difference operators must share
    gens = [(F.one(), F.zero()), (F.gen(), F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    e = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    H = FunctionSubspace.span([], dim=1, field=F)
    with pytest.raises(DimensionMismatch,
                       match="operator 0 acts in dimension 2, the space in dimension 1"):
        fit_coset_slices(ExpPolyLeaf(e), closure, [(g, 1, 1) for g in gens], H,
                         [(F.zero(), F.zero())])


# -- closed-form difference images ---------------------------------------------

def test_closed_form_images_match_apply(sqrt2_field, quartic_field):
    """_images writes delta_h^m(x^alpha e^(lambda.x)) in closed form; the
    operator's general action through translates is the oracle."""
    from deltaclose.linalg import _dot
    from deltaclose.solver import _images, _multi_indices

    rng = rng_for("closed-form-images")
    seen = {"orthogonal": 0, "transverse": 0, "imaginary": 0}
    for K in (sqrt2_field, quartic_field):
        t = K.gen()
        steps = [K.one(), t, K.rational(Fraction(-3, 2)), t * 2 - 1, t * t / 3, K.zero()]
        singles = [calg(K, 0), calg(K, 1), calg(K, t), calg(K, 0, 1), calg(K, 0, t),
                   calg(K, Fraction(-1, 2), 1)]
        for dim in (1, 2, 3):
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
                    atoms = _multi_indices(dim, 3 if dim < 3 else 2)
                    images = _images(K, h, m, _dot(freq, h), atoms)
                    D = TranslationPolynomial.delta(K, h, m, dim=dim)
                    for alpha in atoms:
                        want = D.apply(ExpPolynomial.monomial(K, dim, alpha, 1, freq=freq))
                        assert ExpPolynomial(K, dim, {freq: images[alpha]}) == want
                        assert all(not c.is_zero() for c in images[alpha].values())
    assert min(seen.values()) > 20, seen


def test_d2_solve_makes_no_product_with_a_zero_factor(quartic_field, monkeypatch):
    # the triangular block visits only the entries above its diagonal that
    # are there, and skips solved coefficients that are zero; the final
    # check skips the zero weights S_k below the order
    G4 = quartic_field
    mu = G4.gen()
    s2, s3 = (mu ** 3 - mu * 9) / 2, (mu * 11 - mu ** 3) / 2
    zero, one, th = calg(G4, 0), calg(G4, 1), calg(G4, mu)
    f = (ExpPolynomial.monomial(G4, 2, (2, 1), 3, (one, zero))
         + ExpPolynomial.monomial(G4, 2, (0, 2), -1, (one, zero))
         + ExpPolynomial.monomial(G4, 2, (1, 1), mu, (zero, calg(G4, 0, 1)))
         + ExpPolynomial.monomial(G4, 2, (0, 0), 2, (th, one))
         + ExpPolynomial.monomial(G4, 2, (2, 0), 1)
         + ExpPolynomial.monomial(G4, 2, (0, 1), -2))
    steps = [((G4.one(), G4.zero()), 2), ((G4.zero(), G4.one()), 1), ((s2, s3), 2)]
    system = DifferenceSystem(G4, 2, steps, [f.forward_difference(h, m) for h, m in steps])

    def zero_factor(x):
        return x.is_zero() if isinstance(x, ExpCoefficient) else x == 0

    seen = []
    real = ExpCoefficient.__mul__

    def mul(a, b):
        seen.append(zero_factor(a) or zero_factor(b))
        return real(a, b)

    monkeypatch.setattr(ExpCoefficient, "__mul__", mul)
    monkeypatch.setattr(ExpCoefficient, "__rmul__", mul)
    sol = solve_difference_system(system)
    monkeypatch.undo()
    assert seen and not any(seen)
    assert in_kernel_span(sol.particular - f, sol.kernel_basis)


# -- each equation decided once --------------------------------------------------

def _roundtrip_systems(rng, F, G4, count):
    """(field, dim, steps, f, pool) shaped like the benchmark's round trips:
    d = 1 over Q(sqrt2) with steps 1, theta and sometimes a rational third,
    orders 1-3; d = 2 over Q(sqrt2+sqrt3) with steps e1, e2 and a diagonal
    step of independent irrational coordinates, orders 1-2."""
    mu = G4.gen()
    diag = ((mu ** 3 - mu * 9) / 2, (mu * 11 - mu ** 3) / 2)   # (sqrt2, sqrt3)
    for i in range(count):
        if i % 3:
            steps = [((F.one(),), rng.randint(1, 3)), ((F.gen(),), rng.randint(1, 3))]
            if rng.random() < 0.5:
                steps.append(((F.rational(Fraction(rng.randint(1, 3), rng.randint(1, 2))),),
                              rng.randint(1, 3)))
            field, dim = F, 1
        else:
            steps = [((G4.one(), G4.zero()), rng.randint(1, 2)),
                     ((G4.zero(), G4.one()), rng.randint(1, 2)), (diag, rng.randint(1, 2))]
            field, dim = G4, 2
        pool = structured_freq_pool(field, dim)
        f = random_exppoly(rng, field, dim=dim, max_freqs=4, max_deg=3, freq_pool=pool)
        if dim == 2:
            # a frequency orthogonal to the diagonal step
            pool = pool + [(calg(G4, diag[1]), calg(G4, -diag[0]))]
        yield field, dim, steps, f, pool


def _lambda_dot(freq, h):
    return sum((c * x for c, x in zip(freq, h)), calg(h[0].field, 0))


def test_solve_decides_each_equation_once_oracle(F, quartic_field):
    """Consistent round trips pass a full re-verification; a system with one
    g_k perturbed by e^(lambda.x) is refused, naming the step the skipped
    equations leave as the first that fails."""
    rng = rng_for("solver-each-equation-once")
    seen = {"non-pivot": 0, "pivot": 0, "orthogonal": 0, "zero": 0}
    for field, dim, steps, f, pool in _roundtrip_systems(rng, F, quartic_field, 24):
        rhs = [f.forward_difference(h, m) for h, m in steps]
        sol = solve_difference_system(DifferenceSystem(field, dim, steps, rhs))
        for (h, m), g in zip(steps, rhs):
            assert sol.particular.forward_difference(h, m) == g
        assert in_kernel_span(sol.particular - f, sol.kernel_basis)

        lam = rng.choice([fr for fr in pool if any(not c.is_zero() for c in fr)])
        mus = [_lambda_dot(lam, h) for h, _ in steps]
        pivot = next(k for k, mu in enumerate(mus) if not mu.is_zero())
        e = ExpPolynomial.exponential(field, dim, lam)
        for k in range(len(steps)):
            if k == pivot:
                # the pivot block absorbs the change; the next step that
                # sees lambda fails
                named = next(j for j, mu in enumerate(mus) if j != k and not mu.is_zero())
                seen["pivot"] += 1
            else:
                named = k
                seen["orthogonal" if mus[k].is_zero() else "non-pivot"] += 1
            bad = rhs[:k] + [rhs[k] + e] + rhs[k + 1:]
            with pytest.raises(Inconsistent, match=rf"function: step {named} \(h = "):
                solve_difference_system(DifferenceSystem(field, dim, steps, bad))

        # g_k + 1 needs a polynomial p of degree >= m_k whose top form the
        # other steps annihilate: none exists when m_k is the largest order
        # (d = 1), or when m_k >= m_a + m_b - 1 for the two other,
        # independent, directions (d = 2)
        orders = [m for _, m in steps]
        k = orders.index(max(orders))
        others = orders[:k] + orders[k + 1:]
        if dim == 2 and orders[k] < sum(others) - 1:
            continue
        seen["zero"] += 1
        bad = rhs[:k] + [rhs[k] + ExpPolynomial.monomial(field, dim, (0,) * dim)] + rhs[k + 1:]
        with pytest.raises(Inconsistent, match="zero-frequency polynomial block"):
            solve_difference_system(DifferenceSystem(field, dim, steps, bad))
    assert min(seen.values()) >= 4, seen


@pytest.mark.parametrize("case", ["d1", "d2"])
def test_solve_differences_each_step_at_most_once(F, quartic_field, monkeypatch, case):
    """One forward_difference per step that has an open frequency (one whose
    pivot is another step), and never of a zero-frequency term."""
    if case == "d1":
        K, dim = F, 1
        th = calg(K, K.gen())
        steps = [((K.one(),), 2), ((K.gen(),), 1), ((K.rational(Fraction(1, 2)),), 3)]
        freqs = [(calg(K, 1),), (th,), (calg(K, 0, 1),), (calg(K, Fraction(-1, 2), 1),)]
    else:
        K, dim = quartic_field, 2
        mu = K.gen()
        diag = ((mu ** 3 - mu * 9) / 2, (mu * 11 - mu ** 3) / 2)
        steps = [((K.one(), K.zero()), 2), ((K.zero(), K.one()), 1), (diag, 2)]
        z = calg(K, 0)
        freqs = [(calg(K, 1), z), (z, calg(K, mu)), (calg(K, 0, 1), calg(K, 1)),
                 (calg(K, diag[1]), calg(K, -diag[0]))]
    f = ExpPolynomial.monomial(K, dim, (2,) + (0,) * (dim - 1))
    for i, fr in enumerate(freqs):
        f = f + ExpPolynomial.monomial(K, dim, (i % 2,) + (0,) * (dim - 1), i + 1, fr)
    system = DifferenceSystem(K, dim, steps, [f.forward_difference(h, m) for h, m in steps])
    pivots = [next(k for k, (h, _) in enumerate(steps) if not _lambda_dot(fr, h).is_zero())
              for fr in freqs]
    expected = sum(1 for k in range(len(steps)) if any(p != k for p in pivots))

    differenced = []
    real = ExpPolynomial.forward_difference

    def counted(self, h, m=1):
        differenced.append(self)
        return real(self, h, m)

    monkeypatch.setattr(ExpPolynomial, "forward_difference", counted)
    sol = solve_difference_system(system)
    monkeypatch.undo()
    assert len(differenced) == expected <= len(steps)
    zero = (calg(K, 0),) * dim
    assert all(zero not in p.terms for p in differenced)
    assert in_kernel_span(sol.particular - f, sol.kernel_basis)


# -- the polynomial block, one degree at a time ----------------------------------

def _stacked_zero_block(sys, atoms):
    """The reference: every step's equations at frequency 0 stacked into one
    exact linear system over the ansatz atoms, solved by one
    ``field_solve``."""
    from deltaclose.linalg import field_solve
    from deltaclose.solver import _images

    field, dim = sys.field, sys.dim
    zero_freq = (field.complex_zero(),) * dim
    col = {a: i for i, a in enumerate(atoms)}
    rows, rhs_vec = [], []
    zero = field.complex_zero()
    for (h, m), g in zip(sys.steps, sys.rhs):
        images = _images(field, h, m, zero, atoms)
        out_atoms = sorted({b for img in images.values() for b in img} | set(atoms),
                           key=lambda a: (sum(a), a))
        for beta in out_atoms:
            row = [zero] * len(atoms)
            for alpha in atoms:
                t = images[alpha].get(beta)
                if t is not None:
                    row[col[alpha]] = t.scalar_value()
            rows.append(row)
            b = g.coefficient(beta, zero_freq)
            rhs_vec.append(b.scalar_value() if b.is_scalar() else b)
    part, kern = field_solve(rows, rhs_vec, len(atoms), zero, field.complex_one())
    if part is None:
        raise Inconsistent(f"the zero-frequency polynomial block ({len(atoms)} unknowns, "
                           f"{len(rows)} equations) admits no solution")

    def lift(c):
        return c if isinstance(c, ExpCoefficient) else ExpCoefficient.scalar(field, c)

    comp = ExpPolynomial(field, dim, {zero_freq: {a: lift(c) for a, c in zip(atoms, part)}})
    kernel = [ExpPolynomial(field, dim, {zero_freq: {a: lift(c) for a, c in zip(atoms, kv)}})
              for kv in kern]
    return comp, kernel


def _zero_block_systems(rng, F, G4):
    """DifferenceSystems with their atoms, every combination of d = 1-3,
    Q(sqrt2) or the quartic field, and four kinds of right-hand side:
    differences of one polynomial, the same with a group-ring coefficient,
    the first perturbed by a low monomial, and random ones.  Orders 1-4,
    caps 0-6 (0-4 at d = 3), zero, rational and irrational step
    coordinates, dense or not: the block itself has no density gate."""
    from deltaclose.solver import _multi_indices

    kinds = ("consistent", "group-ring", "perturbed", "random")
    for i in range(48):
        kind, field, dim = kinds[i % 4], (F, G4)[i // 4 % 2], 1 + i // 8 % 3
        cap = rng.randint(0, {1: 6, 2: 6, 3: 4}[dim])
        th = field.gen()

        def coord():
            return rng.choice([field.zero(), field.one(), th, th + 1,
                               field.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))])

        steps = [(tuple(coord() for _ in range(dim)), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
        zero_freq = (calg(field, 0),) * dim

        def poly(top):
            return random_exppoly(rng, field, dim, max_freqs=1, max_deg=top,
                                  freq_pool=[zero_freq])

        if kind == "random":
            rhs = [poly(cap) for _ in steps]
        else:
            f = poly(cap) + poly(cap)
            if kind == "group-ring":
                e = ExpCoefficient.exponential(field, calg(field, th))
                alpha = tuple(rng.randint(0, cap // dim) for _ in range(dim))
                f = f + ExpPolynomial.monomial(field, dim, alpha, e + 2)
            rhs = [f.forward_difference(h, m) for h, m in steps]
            if kind == "perturbed":
                rhs[-1] = rhs[-1] + poly(max(cap - steps[-1][1], 0))
        yield kind, DifferenceSystem(field, dim, steps, rhs), _multi_indices(dim, cap)


def test_zero_block_by_degree_matches_stacked_oracle(F, quartic_field):
    """The degree-by-degree solve returns the particular solution and kernel
    basis of the stacked system, encoding for encoding, and refuses the
    same systems with the same text."""
    from deltaclose import jsonio
    from deltaclose.solver import _solve_zero_block

    def outcome(solve, sys, atoms):
        try:
            part, kern = solve(sys, atoms)
        except Inconsistent as e:
            return "inconsistent", str(e)
        return "solved", jsonio.dumps([jsonio.encode_exppoly(p) for p in [part] + kern])

    rng = rng_for("solver-zero-block-by-degree")
    seen = {}
    for kind, sys, atoms in _zero_block_systems(rng, F, quartic_field):
        got = outcome(_solve_zero_block, sys, atoms)
        assert got == outcome(_stacked_zero_block, sys, atoms), (kind, sys.steps)
        seen[kind, got[0]] = seen.get((kind, got[0]), 0) + 1
    for kind in ("consistent", "group-ring"):
        assert seen.get((kind, "solved"), 0) == 12, seen
    assert seen.get(("perturbed", "inconsistent"), 0) >= 4, seen
    assert seen.get(("random", "inconsistent"), 0) >= 4, seen


def test_zero_block_makes_one_field_solve_per_degree(F, monkeypatch):
    from deltaclose import solver
    from deltaclose.solver import _multi_indices, _solve_zero_block

    calls = []
    real = solver.field_solve

    def counted(rows, rhs, ncols, zero, one):
        calls.append(ncols)
        return real(rows, rhs, ncols, zero, one)

    monkeypatch.setattr(solver, "field_solve", counted)
    steps = [((F.one(), F.zero()), 2), ((F.gen(), F.one()), 1)]
    f = ExpPolynomial.monomial(F, 2, (2, 1)) + ExpPolynomial.monomial(F, 2, (0, 3), 5)
    sys = DifferenceSystem(F, 2, steps, [f.forward_difference(h, m) for h, m in steps])
    _solve_zero_block(sys, _multi_indices(2, 5))
    # degrees 5 .. 0, each block as wide as its atoms
    assert calls == [6, 5, 4, 3, 2, 1]


# -- coset fits: one float evaluation per point set --------------------------------

def _prop7_instances(rng, F, count):
    """(phi, closure, orders, H, lambdas) of seeded counterexamples shaped
    like the benchmark's: d = 2 or 3, m = 1 or 2, generators 1, theta and
    e2 rescaled, sometimes with an extra rational generator, outer
    frequency 1, theta, i or -1/2 along the first axis; one in eight adds
    e3 and theta e3, so that V is a plane."""
    one, zero, th = F.one(), F.zero(), F.gen()
    for i in range(count):
        dim, m = 2 + i % 2, 1 + i // 2 % 2
        pad = (zero,) * (dim - 2)
        q = [rng.choice([1, Fraction(1, 2), Fraction(3, 2), 2]) for _ in range(3)]
        gens = [(one * q[0], zero) + pad, (th * q[1], zero) + pad, (zero, one * q[2]) + pad]
        if rng.random() < 0.3:
            gens.append((F.rational(Fraction(rng.randint(1, 3), 4)),
                         F.rational(rng.randint(1, 3))) + pad)
        if i % 8 == 5:
            # a plane V (d = 3, m = 1): the third axis is dense too
            gens += [(zero, zero, one), (zero, zero, th)]
        freq = (rng.choice([calg(F, 1), calg(F, th), calg(F, 0, 1), calg(F, Fraction(-1, 2))]),) \
            + (calg(F, 0),) * (dim - 1)
        closure = group_closure(gens, field=F)
        phi, H = make_counterexample(build_frame(closure), ExpPolynomial.exponential(F, dim, freq), m)
        lambdas = [(zero,) * dim, tuple(closure.lambda_basis[-1]),
                   tuple(-x for x in closure.lambda_basis[-1])]
        yield phi, closure, [(g, m, m) for g in gens], H, lambdas


def _per_grid_fit(f, closure, candidates, lambdas, grid_count, grid_halfwidth):
    """The reference: each candidate evaluated on the fitting and held-out
    grids in two calls, and f on each grid shifted by each lattice point in
    its own call.  Returns (condition, [(coefficients, residual)])."""
    from deltaclose.construct import mesh_points

    B = np.array([[float(x) for x in v] for v in closure.v_basis])
    vdim = len(B)
    xgrid, xgrid_out = (mesh_points([np.linspace(-grid_halfwidth, grid_halfwidth, n)] * vdim) @ B
                        for n in (grid_count, grid_count + 7))
    design = np.stack([c.evaluate_array(xgrid) for c in candidates], axis=1)
    design_out = np.stack([c.evaluate_array(xgrid_out) for c in candidates], axis=1)
    out = []
    for lv in lambdas:
        lam_float = np.array([float(x) for x in lv])
        vals = f.eval_array(xgrid + lam_float)
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        vals_out = f.eval_array(xgrid_out + lam_float)
        out.append((list(coeffs), float(np.max(np.abs(vals_out - design_out @ coeffs)))))
    return float(np.linalg.cond(design)), out


def test_coset_fit_matches_per_grid_oracle(F):
    """Coefficients, residuals and condition of the stacked evaluations are
    those of the per-grid, per-point loop, bit for bit."""
    rng = rng_for("solver-fit-per-grid-oracle")
    for phi, closure, orders, H, lambdas in _prop7_instances(rng, F, 8):
        grid_count = rng.choice([12, 16])
        report = fit_coset_slices(phi, closure, orders, H, lambdas, grid_count=grid_count)
        candidates = [leaf.child.poly for leaf in report.slices[0].function.children]
        assert len(candidates) == report.candidate_dim
        cond, fits = _per_grid_fit(phi, closure, candidates, lambdas, grid_count, 2.0)
        assert report.condition == cond
        for s, (coeffs, resid) in zip(report.slices, fits):
            assert s.coefficients == [complex(c) for c in coeffs]
            assert s.residual == resid


def test_coset_fit_evaluates_each_point_set_once(F, monkeypatch):
    from deltaclose.construct import CosetBuild

    phi, closure, orders, H, lambdas = next(_prop7_instances(rng_for("fit-calls"), F, 1))
    f_calls, candidates = [], []
    real_f, real_c = CosetBuild.eval_array, ExpPolynomial.evaluate_array

    def f_counted(self, pts):
        f_calls.append(len(pts))
        return real_f(self, pts)

    def c_counted(self, pts):
        # phi's one call evaluates its outer polynomial inside
        if self is not phi.outer:
            candidates.append(id(self))
        return real_c(self, pts)

    monkeypatch.setattr(CosetBuild, "eval_array", f_counted)
    monkeypatch.setattr(ExpPolynomial, "evaluate_array", c_counted)
    report = fit_coset_slices(phi, closure, orders, H, lambdas)
    assert len(f_calls) == 1
    assert len(candidates) == len(set(candidates)) == report.candidate_dim


def test_coset_fit_refuses_points_outside_the_lattice(F):
    """(0, 1/2) lies in the span of Lambda = Z e2 but not in Lambda, (1, 0)
    lies in V; both are named.  A half-width that is not finite and > 0 is
    refused before any fit."""
    th = F.gen()
    gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    e = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    H = FunctionSubspace.span(translation_hull(e), dim=2, field=F)
    orders = [(g, 1, 1) for g in gens]
    half = F.rational(Fraction(1, 2))
    for point, text in (((F.zero(), half), r"\(0, 1/2\)"), ((F.one(), F.zero()), r"\(1, 0\)")):
        with pytest.raises(MalformedInput, match=rf"lattice point {text} is not in the "
                                                  "lattice Lambda of the closure"):
            fit_coset_slices(ExpPolyLeaf(e), closure, orders, H, [point])
    for width in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(MalformedInput, match="grid half-width must be finite and > 0"):
            fit_coset_slices(ExpPolyLeaf(e), closure, orders, H, [(F.zero(), F.zero())],
                             grid_halfwidth=width)
