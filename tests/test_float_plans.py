"""Float plans: ``ExpPolynomial.evaluate_array`` floats its constants once per
object, and ``difference_values`` evaluates the shifts of one grid in one
stacked call, so for the counterexample it splits and exponentiates once per
call."""

import cmath
import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from deltaclose import ExpCoefficient, calg, jsonio, make_field
from deltaclose.cli import main
from deltaclose.construct import (
    CosetBuild,
    ExpPolyLeaf,
    Project,
    Scale,
    Sum,
    difference_values,
    make_counterexample,
    make_fm,
    make_triangle_wave,
)
from deltaclose.exppoly import ExpPolynomial
from deltaclose.groups import HyperplaneFrame, build_frame, group_closure

from conftest import random_complex, random_exppoly, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


def _grid(d, n):
    xs = np.linspace(-2.0, 2.0, n)
    mesh = np.meshgrid(*([xs] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _instance(F, d, m):
    th = F.gen()
    pad = (F.zero(),) * (d - 2)
    gens = [(F.one(), F.zero()) + pad, (th, F.zero()) + pad, (F.zero(), F.one()) + pad]
    frame = build_frame(group_closure(gens, field=F))
    outer = ExpPolynomial.exponential(F, d, (calg(F, 1),) + (calg(F, 0),) * (d - 1))
    phi, H = make_counterexample(frame, outer, m)
    return gens, phi, H


def _assert_matches_pointwise(f, pts):
    arr = f.evaluate_array(pts)
    pts2 = pts[:, None] if pts.ndim == 1 else pts
    assert arr.shape == (len(pts2),) and arr.dtype == complex
    for i, p in enumerate(pts2):
        want = f.evaluate(tuple(p))
        assert abs(arr[i] - want) <= 1e-12 * max(1.0, abs(want)), (i, arr[i], want)


def test_evaluate_array_multi_frequency_shared_index(F):
    # the multi-index (1, 0) appears at three frequencies, (0, 2) at two
    lams = [(calg(F, 1), calg(F, 0)), (calg(F, 0), calg(F, F.gen())),
            (calg(F, Fraction(-1, 2)), calg(F, 1))]
    f = ExpPolynomial.zero(F, 2)
    for j, lam in enumerate(lams):
        f = f + ExpPolynomial.monomial(F, 2, (1, 0), j + 2, freq=lam)
        if j:
            f = f + ExpPolynomial.monomial(F, 2, (0, 2), Fraction(1, j + 2), freq=lam)
    assert len(f.terms) == 3
    rng = np.random.default_rng(0)
    _assert_matches_pointwise(f, rng.uniform(-1.5, 1.5, (20, 2)))


def test_evaluate_array_imaginary_and_complex_frequencies(F):
    rng = rng_for("float-plan-complex")
    i_freq = (calg(F, 0, 1), calg(F, 0))                      # purely imaginary
    c_freq = (calg(F, Fraction(1, 3), F.gen()), calg(F, 0, -1))  # complex
    f = (ExpPolynomial.monomial(F, 2, (2, 0), calg(F, 1, 2), freq=i_freq)
         + ExpPolynomial.monomial(F, 2, (0, 1), calg(F, -1, F.gen()), freq=c_freq)
         + ExpPolynomial.monomial(F, 2, (0, 0), 3))
    np_rng = np.random.default_rng(1)
    _assert_matches_pointwise(f, np_rng.uniform(-2, 2, (20, 2)))
    # random complex coefficients and frequencies in d = 3
    for _ in range(5):
        g = random_exppoly(rng, F, dim=3, max_freqs=3, max_deg=2, wild=True)
        g = g.scale(ExpCoefficient.scalar(F, random_complex(rng, F)))
        _assert_matches_pointwise(g, np_rng.uniform(-1, 1, (10, 3)))


def test_evaluate_array_zero_polynomial_and_1d_points(F):
    z = ExpPolynomial.zero(F, 2)
    out = z.evaluate_array(np.ones((4, 2)))
    assert out.dtype == complex and np.array_equal(out, np.zeros(4))
    f = (ExpPolynomial.monomial(F, 1, (3,), Fraction(-2, 3), freq=(calg(F, F.gen()),))
         + ExpPolynomial.exponential(F, 1, (calg(F, 0, 1),)))
    xs = np.linspace(-1.0, 1.0, 9)
    _assert_matches_pointwise(f, xs)
    assert np.array_equal(f.evaluate_array(xs), f.evaluate_array(xs[:, None]))
    x = 0.37
    want = (-2 / 3) * x**3 * cmath.exp(float(F.gen()) * x) + cmath.exp(1j * x)
    assert abs(f.evaluate_array(np.array([x]))[0] - want) <= 1e-12


def test_second_evaluate_array_floats_nothing(F, monkeypatch):
    rng = rng_for("float-plan-once")
    f = random_exppoly(rng, F, dim=2, max_freqs=3, max_deg=2)
    pts = np.random.default_rng(2).uniform(-1, 1, (7, 2))
    calls = []
    original = ExpCoefficient.evaluate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExpCoefficient, "evaluate", counting)
    first = f.evaluate_array(pts)
    assert len(calls) == sum(len(p) for p in f.terms.values())
    calls.clear()
    second = f.evaluate_array(pts[::-1])
    assert calls == []
    assert np.array_equal(second, first[::-1])


def test_frame_float_cache_is_not_part_of_the_value(F):
    gens, _, _ = _instance(F, 2, 1)
    a = build_frame(group_closure(gens, field=F))
    b = build_frame(group_closure(gens, field=F))
    a.split_float(np.zeros((1, 2)))
    assert a._floats is not None and b._floats is None
    assert a == b
    assert repr(a) == repr(b)
    w, wn, r = a.float_constants()
    assert list(w) == [float(x) for x in a.w]
    assert wn == float(sum((x * x for x in a.w), start=F.zero()))
    assert r == float(a.r)


# -- difference_values: the shifts of one grid in one call ---------------------

# steps with s(h) = 0 and s(h) != 0 for the frames below (w along x_2)
SHIFTS = [(0.5, 0.0, 0.0), (3 * 2 ** 0.5, 0.0, 0.0), (0.0, 3.0, 0.0),
          (0.3, -1.7, 0.25), (-1.1, 0.45, -2.0)]


def _difference_per_shift(f, h, m, pts):
    """The reference: delta_h^m f from one ``eval_array`` call per shifted
    copy pts + k h, combined in the order of ``difference_values``."""
    acc = np.zeros(len(pts), dtype=complex)
    for k in range(m + 1):
        acc = acc + comb(m, k) * (-1) ** (m - k) * f.eval_array(pts if k == 0 else pts + k * h)
    return acc


def _assert_stacked_matches(f, pts):
    for y in SHIFTS:
        h = np.asarray(y[:f.dim])
        for m in range(4):
            got, want = difference_values(f, h, m, pts), _difference_per_shift(f, h, m, pts)
            assert got.shape == want.shape == (len(pts),)
            assert got.tobytes() == want.tobytes(), (y, m)


def _frame3(F):
    zero, one, th = F.zero(), F.one(), F.gen()
    gens = [(one, zero, zero), (th, zero, zero), (zero, one, zero)]
    return build_frame(group_closure(gens, field=F))


@pytest.mark.parametrize("m", [1, 2])
def test_coset_build_stacked_difference_matches_per_shift(F, m):
    frame = _frame3(F)
    zero = calg(F, 0)
    pts = np.random.default_rng(3).uniform(-2, 2, (60, 3))
    outers = [ExpPolynomial.exponential(F, 3, (lam, zero, zero))
              for lam in (calg(F, 1), calg(F, F.gen()), calg(F, 0, 1),
                          calg(F, Fraction(-1, 2)))]
    outers.append(ExpPolynomial.monomial(F, 3, (1, 0, 2), calg(F, 2, -1),
                                         freq=(calg(F, F.gen()), calg(F, 0, 1), zero))
                  + ExpPolynomial.monomial(F, 3, (0, 1, 0), 3))
    for outer in outers:
        _assert_stacked_matches(CosetBuild(frame, outer, make_fm(m, F.one())), pts)


def test_tree_nodes_stacked_difference_matches_per_shift(F):
    rng = rng_for("on-grid-nodes")
    p = random_exppoly(rng, F, dim=3, max_freqs=3, max_deg=2, wild=True)
    q = random_exppoly(rng, F, dim=3, max_freqs=2, max_deg=1)
    th = F.gen()
    matrix = [[F.one(), th, F.zero()], [F.zero(), F.one(), F.rational(Fraction(1, 2))],
              [th, F.zero(), F.one()]]
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, (40, 3))
    leaf = ExpPolyLeaf(p)
    for f in (leaf, Scale(th, leaf), Project(ExpPolyLeaf(q), matrix),
              Sum([leaf, Scale(Fraction(-2, 3), Project(ExpPolyLeaf(q), matrix))])):
        _assert_stacked_matches(f, pts)
    xs = np.linspace(-3.3, 3.3, 67)[:, None]
    for m in (1, 2):
        _assert_stacked_matches(make_fm(m, F.one()), xs)


@pytest.mark.parametrize("steps, m", [(1, 1), (3, 1), (3, 2), (4, 3)])
def test_membership_residual_splits_once_and_exponentiates_once(F, monkeypatch, steps, m):
    frame = _frame3(F)
    zero = calg(F, 0)
    outer = ExpPolynomial.exponential(F, 3, (calg(F, F.gen()), zero, zero))
    phi, _ = make_counterexample(frame, outer, m)
    gens = [(F.one(), F.zero(), F.zero()), (F.gen(), F.zero(), F.zero()),
            (F.zero(), F.one(), F.zero()),
            (F.rational(Fraction(1, 2)), F.rational(2), F.zero())][:steps]
    splits, passes = [], []
    split, evaluate = HyperplaneFrame.split_float, ExpPolynomial.evaluate_array

    def counting_split(self, z):
        splits.append(len(z))
        return split(self, z)

    def counting_evaluate(self, points):
        if self is phi.outer:
            passes.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(HyperplaneFrame, "split_float", counting_split)
    monkeypatch.setattr(ExpPolynomial, "evaluate_array", counting_evaluate)
    pts = _grid(3, 5)
    for h in gens:
        # the grid and its m shifts are split and exponentiated in one call
        splits.clear()
        passes.clear()
        difference_values(phi, h, m, pts)
        assert splits == [(m + 1) * len(pts)], h
        assert passes == [(m + 1) * len(pts)], h


def test_tightest_benchmark_instance_passes_membership(F, capsys):
    # d = 3, m = 2, outer e^(theta x_1): the benchmark's construct prop7
    # input (seeds 0-19) whose float membership residual came closest to the
    # old grid bound, about 7e-9; membership is now decided exactly
    zero, th = F.zero(), F.gen()
    half = F.rational(Fraction(1, 2))
    gens = [(half, zero, zero), (th * 3, zero, zero), (zero, F.rational(3), zero)]
    outer = ExpPolynomial.exponential(F, 3, (calg(F, th), calg(F, 0), calg(F, 0)))
    rc = main(["construct", "prop7", "--field", jsonio.dumps(jsonio.encode_field(F)),
               "--generators", jsonio.dumps([jsonio.encode_vector(g) for g in gens]),
               "--outer", jsonio.dumps(jsonio.encode_exppoly(outer)), "-m", "2"])
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 0
    assert certs["membership"] == "exact-pass"


def _wave_points(scale):
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.uniform(-50, 50, 20000), rng.uniform(-1e6, 1e6, 2000),
        np.arange(-40, 41) * 0.5, [0.0, -0.0, 1e-30, -1e-30, 5e-324, -5e-324,
                                    1 - 2**-53, -1 + 2**-53, 2**52 + 0.5]])
    return xs * scale


def test_unit_wave_matches_np_mod_bit_for_bit(F):
    xs = _wave_points(1.0)
    r = np.mod(xs, 1.0)
    want = np.minimum(r, 1.0 - r).astype(complex)
    got = make_triangle_wave(F.one()).eval_array(xs[:, None])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("period", ["theta", "3/7"])
def test_wave_of_other_period_matches_exact(F, period):
    h = F.gen() if period == "theta" else F.rational(Fraction(3, 7))
    wave = make_triangle_wave(h)
    got = wave.eval_array(_wave_points(float(h))[:, None]).real
    assert got.min() >= 0.0 and got.max() <= float(h) / 2
    rng = rng_for(f"wave-exact-{period}")
    points = [h * Fraction(rng.randint(-4000, 4000), rng.choice((1, 2, 3, 7, 97)))
              + F.rational(Fraction(rng.randint(-50, 50), 11)) for _ in range(300)]
    got = wave.eval_array(np.array([float(z) for z in points])[:, None])
    want = np.array([float(wave.eval_exact((z,))) for z in points])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("freqs", [1, 3])
def test_exponentials_only_path_matches_monomial_path(F, freqs):
    # the plan of a sum of pure exponentials has the one multi-index 0; the
    # monomial path multiplied the coefficients by a column of ones
    lams = [calg(F, 1), calg(F, 0, F.gen()), calg(F, Fraction(-1, 2), 1)][:freqs]
    f = ExpPolynomial.zero(F, 2)
    for j, lam in enumerate(lams):
        f = f + ExpPolynomial.monomial(F, 2, (0, 0), calg(F, j + 1, Fraction(1, 3)),
                                       freq=(lam, calg(F, F.gen() * j)))
    pts = _grid(2, 17)
    got = f.evaluate_array(pts)
    lam_re, lam_im, alphas, coeffs = f._plan
    assert alphas == [(0, 0)] and (lam_im is None) == (freqs == 1)
    # pts @ lambda^T, as evaluate_array forms it
    exponent = pts @ lam_re.T if lam_im is None else pts @ lam_re.T + 1j * (pts @ lam_im.T)
    want = ((np.ones((len(pts), 1)) @ coeffs) * np.exp(exponent)).sum(axis=1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
