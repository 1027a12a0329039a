"""``AntiDifference.eval_array`` against the nested partial-sum loop.

``NestedAntiDifference`` below is the one-level-at-a-time evaluation: every
level loops over the lattice offsets and calls its child, so a depth-m
tower makes O(K^m) base calls.  It is kept here only as the reference that
both float paths must reproduce: the closed form C(k, m) g(x) of a tower
over a triangle wave whose period is the step (one wave call per
evaluation), and the orbit walk of every other base (equal-step chains
fused, one pass per orbit).  ``eval_exact`` always walks, so it is the
exact oracle of the closed form.
"""

import json
from fractions import Fraction
from math import comb, floor

import numpy as np
import pytest

from deltaclose import construct, jsonio, make_field
from deltaclose.cli import main
from deltaclose.construct import (
    AntiDifference,
    EvaluableFunction,
    ExpPolyLeaf,
    Scale,
    Sum,
    TriangleWave,
    difference_values,
    make_antidifference,
    make_fm,
    make_triangle_wave,
)
from deltaclose.errors import LatticeValuesNonzero, MalformedInput
from deltaclose.exppoly import ExpPolynomial


class NestedAntiDifference(EvaluableFunction):
    """Reference antidifference: one nested loop per level, no fusion."""

    def __init__(self, child, step):
        self.child = child
        self.step = step
        self.dim = 1

    def eval_array(self, pts):
        pts = np.asarray(pts, dtype=float)
        z = pts[:, 0] if pts.ndim == 2 else pts
        h = float(self.step)
        k = np.floor(z / h).astype(np.int64)
        out = np.zeros(z.shape, dtype=complex)
        kmax = int(k.max(initial=0))
        if kmax > 0:
            x0 = z - k * h
            for j in range(kmax):
                mask = k > j
                if mask.any():
                    out[mask] += self.child.eval_array((x0[mask] + j * h)[:, None])
        kmin = int(k.min(initial=0))
        if kmin < 0:
            for i in range(-kmin):
                mask = k < -i
                if mask.any():
                    out[mask] -= self.child.eval_array((z[mask] + i * h)[:, None])
        return out

    def eval_exact(self, z):
        z = z[0] if isinstance(z, (tuple, list)) else z
        z = self.step.field.coerce(z)
        k = (z / self.step).floor()
        acc = self.step.field.zero()
        if k > 0:
            x0 = z - self.step * k
            for j in range(k):
                v = self.child.eval_exact((x0 + self.step * j,))
                if v is None:
                    return None
                acc = acc + v
        for i in range(-k):
            v = self.child.eval_exact((z + self.step * i,))
            if v is None:
                return None
            acc = acc - v
        return acc


class CountingBase(EvaluableFunction):
    """Wraps a 1-d function and counts its ``eval_array`` and ``eval_exact``
    calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = 1
        self.calls = 0
        self.exact_calls = 0

    def eval_array(self, pts):
        self.calls += 1
        return self.inner.eval_array(pts)

    def eval_exact(self, z):
        self.exact_calls += 1
        return self.inner.eval_exact(z)


class CountingWave(TriangleWave):
    """A triangle wave that counts its ``eval_array`` calls."""

    calls = 0

    def eval_array(self, pts):
        self.calls += 1
        return super().eval_array(pts)


def tower(base, step, depth, node):
    f = base
    for _ in range(depth):
        f = node(f, step)
    return f


def assert_close(walk, nested):
    """Agreement to 1e-12 relative to the largest value on the window."""
    assert walk.shape == nested.shape
    scale = max(1.0, float(np.max(np.abs(nested), initial=0.0)))
    assert np.max(np.abs(walk - nested), initial=0.0) <= 1e-12 * scale


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


@pytest.fixture(scope="module", params=["one", "sqrt2"])
def period(request, F):
    return F.one() if request.param == "one" else F.gen()


WINDOWS = {"across_zero": (-7.3, 9.1), "negative": (-12.4, -0.6),
           "positive": (0.3, 11.7)}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("depth", range(1, 9))
def test_walk_matches_nested_loop(F, period, depth, window):
    wave = make_triangle_wave(period)
    h = float(period)
    lo, hi = WINDOWS[window]
    rng = np.random.default_rng(depth)
    xs = np.concatenate([np.linspace(lo * h, hi * h, 301),
                         rng.uniform(lo * h, hi * h, 200)])[:, None]
    walk = tower(wave, period, depth, AntiDifference)
    assert walk.depth == depth and walk.base is wave
    assert_close(walk.eval_array(xs),
                 tower(wave, period, depth, NestedAntiDifference).eval_array(xs))


@pytest.mark.parametrize("depth", (1, 3, 6, 8))
def test_walk_on_seams_and_empty(F, period, depth):
    wave = make_triangle_wave(period)
    walk = tower(wave, period, depth, AntiDifference)
    nested = tower(wave, period, depth, NestedAntiDifference)
    # the tower vanishes on the lattice, so the seam values are rounding
    # noise; the window's own values set the scale they are compared at
    seams = np.arange(-10, 11) * float(period)
    xs = np.concatenate([seams, np.nextafter(seams, -np.inf),
                         np.nextafter(seams, np.inf), np.linspace(seams[0], seams[-1], 201)])
    assert_close(walk.eval_array(xs[:, None]), nested.eval_array(xs[:, None]))
    assert_close(walk.eval_array(xs), nested.eval_array(xs))
    empty = np.zeros((0, 1))
    assert walk.eval_array(empty).shape == (0,)


def test_walk_over_sum_scale_and_zero_children(F):
    one = F.one()
    wave = make_triangle_wave(one)
    zero = ExpPolyLeaf(ExpPolynomial.zero(F, 1))
    xs = np.linspace(-9.7, 8.9, 401)[:, None]

    def build(node):
        inner = tower(wave, one, 2, node)
        mixed = Sum([inner, Scale(F.gen(), wave), Scale(-0.5 + 0.25j, inner), zero])
        return tower(mixed, one, 3, node)

    walk = build(AntiDifference)
    assert walk.depth == 3 and isinstance(walk.base, Sum)
    assert_close(walk.eval_array(xs), build(NestedAntiDifference).eval_array(xs))
    zero_tower = tower(zero, one, 4, AntiDifference)
    assert np.max(np.abs(zero_tower.eval_array(xs))) == 0


def test_mixed_step_chain_is_not_fused(F):
    one, two = F.one(), F.rational(2)
    wave = make_triangle_wave(one)
    xs = np.linspace(-13.3, 14.1, 501)[:, None]

    def build(node):
        return node(node(node(node(wave, one), two), one), one)

    walk = build(AntiDifference)
    assert walk.depth == 2 and walk.base is walk.child.child
    assert walk.base.depth == 1 and walk.base.step == two
    assert walk.base.base.depth == 1 and walk.base.base.base is wave
    assert_close(walk.eval_array(xs), build(NestedAntiDifference).eval_array(xs))


def test_walk_exact_equals_nested_loop(F):
    th = F.gen()
    for period in (F.one(), th):
        wave = make_triangle_wave(period)
        points = [F.rational(Fraction(p, 3)) * period for p in (-29, -16, -1, 0, 2, 17, 31)]
        points += [th * Fraction(7, 2) - 9, th * 5 + Fraction(1, 5), th * -3 + 1]
        for depth in range(1, 5):
            walk = tower(wave, period, depth, AntiDifference)
            nested = tower(wave, period, depth, NestedAntiDifference)
            for z in points:
                assert abs((z / period).floor()) <= 10
                assert walk.eval_exact((z,)) == nested.eval_exact((z,)), (depth, z)


def test_walk_exact_over_nonperiodic_base(F):
    # a base that is not periodic in the step tells the orbit's offsets apart
    one, two = F.one(), F.rational(2)
    base = AntiDifference(make_triangle_wave(one), one)
    points = [F.rational(Fraction(p, 3)) for p in (-59, -20, -1, 5, 31, 61)]
    points += [F.gen() * 7 - Fraction(1, 2), F.gen() * -9 + 1]
    for depth in range(1, 5):
        walk = tower(base, two, depth, AntiDifference)
        nested = tower(base, two, depth, NestedAntiDifference)
        for z in points:
            assert abs((z / two).floor()) <= 10
            assert walk.eval_exact((z,)) == nested.eval_exact((z,)), (depth, z)


def test_base_calls_do_not_grow_with_depth(F):
    one = F.one()
    xs = np.linspace(-9.5, 12.3, 401)[:, None]
    kmax = int(np.max(np.abs(np.floor(xs))))
    counts = []
    for depth in range(1, 9):
        base = CountingBase(make_triangle_wave(one))
        tower(base, one, depth, AntiDifference).eval_array(xs)
        assert base.calls <= 2 * kmax, depth
        counts.append(base.calls)
    assert len(set(counts)) == 1


def test_periodic_tower_calls_wave_once(F, period):
    # the closed form needs only g(x) at each point, however many periods
    # the window spans; the walk would call the wave once per offset
    h = float(period)
    for lo, hi in list(WINDOWS.values()) + [(-400.2, 900.7)]:
        xs = np.linspace(lo * h, hi * h, 257)[:, None]
        for depth in (1, 4, 8):
            wave = CountingWave(period)
            walk = tower(wave, period, depth, AntiDifference)
            assert walk.eval_array(xs).shape == (257,)
            assert wave.calls == 1, (lo, hi, depth)


def test_closed_form_matches_exact_walk(F, period):
    th = F.gen()
    points = [F.rational(Fraction(p, 3)) * period
              for p in (-29, -16, -1, 0, 2, 17, 31)]
    points += [th * Fraction(7, 2) - 9, th * 5 + Fraction(1, 5), th * -3 + 1]
    xs = np.array([float(z) for z in points])[:, None]
    for depth in range(1, 7):
        walk = tower(make_triangle_wave(period), period, depth, AntiDifference)
        exact = np.array([float(walk.eval_exact((z,))) for z in points], dtype=complex)
        assert_close(walk.eval_array(xs), exact)


def test_wave_of_another_period_is_walked(F):
    # a unit wave vanishes on 2Z, but its period is not the step, so the
    # closed form is not selected and its tower of step 2 walks, one wave
    # call per offset
    one, two = F.one(), F.rational(2)
    xs = np.linspace(-13.3, 14.1, 501)[:, None]
    kmin, kmax = np.floor(xs.min() / 2), np.floor(xs.max() / 2)
    for depth in (1, 3):
        wave = CountingWave(one)
        walk = make_antidifference(wave, two, depth=depth)
        assert walk.base is wave and walk.depth == depth
        values = walk.eval_array(xs)
        assert wave.calls == kmax - kmin
        assert_close(values, tower(make_triangle_wave(one), two, depth,
                                   NestedAntiDifference).eval_array(xs))


def test_tower_skips_lattice_check(F, monkeypatch):
    # a wave of period h vanishes on h Z by its definition; f_m pays no
    # exact evaluation to prove it
    calls = []
    for cls in (TriangleWave, AntiDifference):
        exact = cls.eval_exact
        monkeypatch.setattr(cls, "eval_exact",
                            lambda self, z, exact=exact: calls.append(z) or exact(self, z))
    make_fm(3, F.one())
    make_antidifference(make_triangle_wave(F.gen()), F.gen(), depth=2)
    assert calls == []
    # other bases are still checked, exactly where they can be
    make_antidifference(make_triangle_wave(F.one()), F.rational(2))
    assert len(calls) == 101


def test_nonvanishing_base_rejected(F):
    one, th = F.one(), F.gen()
    for g, step in [(make_triangle_wave(one), F.rational(Fraction(1, 2))),
                    (make_triangle_wave(th), one),
                    (make_triangle_wave(one), th),
                    (ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (0,))), one)]:
        with pytest.raises(LatticeValuesNonzero):
            make_antidifference(g, step)


def test_nonfinite_points_rejected(F):
    f = make_fm(3, F.one())
    for bad in (np.nan, np.inf, -np.inf):
        xs = np.array([0.5, -2.0, bad, 3.0])[:, None]
        with pytest.raises(MalformedInput, match="point 2"):
            f.eval_array(xs)


def test_far_points_rejected_before_walking(F):
    # 1e9 periods out would walk 1e9 offsets; the offset limit refuses the
    # point before the base is evaluated once
    one = F.one()
    base = CountingBase(make_triangle_wave(one))
    f = tower(base, one, 2, AntiDifference)
    with pytest.raises(MalformedInput, match="point 2 is 1000000000.0"):
        f.eval_array(np.array([0.5, -2.0, 1e9, 3.0])[:, None])
    with pytest.raises(MalformedInput, match="1000000000 lattice offsets"):
        f.eval_exact((F.rational(-10**9),))
    assert base.calls == 0 and base.exact_calls == 0


def test_offset_limit_boundary(F, monkeypatch):
    monkeypatch.setattr(construct, "MAX_ORBIT_OFFSETS", 5)
    one = F.one()
    walk = tower(make_triangle_wave(one), one, 3, AntiDifference)
    nested = tower(make_triangle_wave(one), one, 3, NestedAntiDifference)
    # |floor(z / h)| = 5 is walked, 6 is refused, in both directions
    inside = np.array([-5.0, -4.5, 5.0, 5.9])[:, None]
    assert_close(walk.eval_array(inside), nested.eval_array(inside))
    for z in (-5, Fraction(59, 10)):
        assert walk.eval_exact((F.rational(z),)) == nested.eval_exact((F.rational(z),))
    for z in (-5.5, 6.0):
        with pytest.raises(MalformedInput, match="6 lattice offsets"):
            walk.eval_array(np.array([[0.0], [z]]))
    for z in (Fraction(-11, 2), 6):
        with pytest.raises(MalformedInput, match="6 lattice offsets"):
            walk.eval_exact((F.rational(z),))


def test_offset_limit_covers_f8_window():
    # the in-process f_8 check below walks at most 20 + 8 offsets
    assert construct.MAX_ORBIT_OFFSETS >= 1000 * 28


def test_tower_order_below_one_rejected(F):
    wave = make_triangle_wave(F.one())
    with pytest.raises(MalformedInput, match="got 0"):
        make_fm(0, F.one())
    with pytest.raises(MalformedInput, match="got -1"):
        make_antidifference(wave, F.one(), depth=-1)


def test_tower_weights_are_exact_binomials(F):
    # C(k, m - 1) from math.comb, floated once: correctly rounded where the
    # float falling product overflowed, and refused beyond the float range
    one = F.one()
    xs = np.array([-20.5, -3.25, 0.5, 7.75, 160.5])[:, None]
    for m in (2, 5, 170, 200, construct.MAX_TOWER_ORDER):
        got = make_fm(m, one).eval_array(xs)
        d = m - 1
        want = [float(comb(k, d) if k >= 0 else (-1) ** d * comb(d - k - 1, d))
                * min(x - k, k + 1 - x) for x, k in ((x, floor(x)) for x in xs[:, 0])]
        assert np.array_equal(got, np.array(want, dtype=complex)), m
    with pytest.raises(MalformedInput, match=r"C\(k, 399\) for offsets k in \[-701, 0\]"):
        make_fm(400, one).eval_array(np.array([[-700.5]]))
    with pytest.raises(MalformedInput, match="must be <= 400, got 401"):
        make_fm(construct.MAX_TOWER_ORDER + 1, one)


def test_negative_difference_order_rejected(F):
    with pytest.raises(MalformedInput):
        difference_values(make_fm(2, F.one()), (1.0,), -1, np.zeros((3, 1)))


def test_verify_grid_reaches_f8(F, capsys):
    doc = jsonio.dumps(jsonio.manifest(F, {
        "function": jsonio.encode_function(make_fm(8, F.one()))}))
    rc = main(["verify", "grid", "--function", doc, "--op", "delta h=1 m=8",
               "--grid=-20,20,401"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificates"]["residual_within_tolerance"] == "exact-pass"


def test_wide_windows_weigh_only_the_occurring_offsets(F, monkeypatch):
    # five points about a million offsets apart: one exact binomial per
    # point, and the weights of the table over the whole window; a window no
    # wider than the point count keeps that table
    calls = []
    real = construct.comb
    monkeypatch.setattr(construct, "comb", lambda n, k: calls.append(n) or real(n, k))
    tower = make_fm(4, F.one())
    xs = np.array([-3.5, 0.25, 2.5e5 + 0.5, 6e5 + 0.75, 9.9e5 + 0.5])[:, None]
    got = tower.eval_array(xs)
    assert len(calls) == len(xs)
    want = [float(comb(k, 3) if k >= 0 else -comb(2 - k, 3)) * min(x - k, k + 1 - x)
            for x, k in ((x, floor(x)) for x in xs[:, 0])]
    assert np.array_equal(got, np.array(want, dtype=complex))
    calls.clear()
    grid = np.linspace(-20, 20, 401)[:, None]
    tower.eval_array(grid)
    assert len(calls) == 41   # offsets -20 .. 20
