import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from deltaclose import calg, make_field
from deltaclose.construct import (
    CosetBuild,
    ExpPolyLeaf,
    Scale,
    certify_counterexample,
    corner_witness,
    difference_membership,
    difference_values,
    frame_corner,
    grid_membership_residual,
    make_antidifference,
    make_counterexample,
    make_fm,
    make_triangle_wave,
    mesh_points,
    verify_space_invariance,
)
from deltaclose.errors import (
    DimensionMismatch,
    FieldMismatch,
    LatticeValuesNonzero,
    NonpositivePeriod,
)
from deltaclose.exppoly import ExpPolynomial
from deltaclose.groups import build_frame, frame_on_hyperplane, group_closure
from deltaclose.subspace import FunctionSubspace
from conftest import rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


@pytest.fixture(scope="module")
def wave(F):
    return make_triangle_wave(F.one())


def test_wave_values(F, wave):
    assert wave.eval_float((0.0,)) == 0
    assert abs(wave.eval_float((0.5,)) - 0.5) < 1e-15
    assert abs(wave.eval_float((-0.25,)) - 0.25) < 1e-15
    assert wave.eval_exact((F.rational(Fraction(1, 2)),)) == Fraction(1, 2)
    assert wave.eval_exact((F.rational(Fraction(-1, 4)),)) == Fraction(1, 4)
    # exact at an irrational field point too
    v = wave.eval_exact((F.gen(),))
    assert abs(float(v) - (math.sqrt(2) - 1)) < 1e-12


def test_wave_periodicity(F, wave):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-12, 12, 1000)
    a = wave.eval_array(xs[:, None])
    b = wave.eval_array((xs + 1.0)[:, None])
    assert np.max(np.abs(a - b)) < 1e-12


def test_wave_needs_positive_period(F):
    with pytest.raises(NonpositivePeriod):
        make_triangle_wave(F.zero())


def test_antidifference_zero(F, wave):
    zero = ExpPolyLeaf(ExpPolynomial.zero(F, 1))
    f = make_antidifference(zero, F.one())
    xs = np.linspace(-7, 7, 101)[:, None]
    assert np.max(np.abs(f.eval_array(xs))) == 0


def test_antidifference_partial_sum_values(F, wave):
    f = make_antidifference(wave, F.one())
    # f(1/2 + 3) = 3 * wave(1/2) = 3/2, against the direct sum oracle
    assert f.eval_exact((F.rational(Fraction(7, 2)),)) == Fraction(3, 2)
    rng = rng_for("antidiff-oracle")
    for _ in range(1000):
        k = rng.randint(-12, 12)
        x0 = rng.random()
        z = x0 + k
        direct = 0.0
        if k > 0:
            direct = sum(wave.eval_float((x0 + j,)) for j in range(k)).real
        elif k < 0:
            direct = -sum(wave.eval_float((z + i,)) for i in range(-k)).real
        assert abs(f.eval_float((z,)).real - direct) < 1e-10


def test_antidifference_defining_property(F, wave):
    f = make_antidifference(wave, F.one())
    rng = np.random.default_rng(3)
    xs = rng.uniform(-20, 20, 10000)[:, None]
    resid = difference_values(f, (1.0,), 1, xs) - wave.eval_array(xs)
    assert np.max(np.abs(resid)) < 1e-10


def test_difference_values_checks_step_and_point_lengths(F):
    """A step or a point array whose length is not f.dim is refused, naming
    both lengths: a two-entry step on f_2 dropped its 7.0, a one-entry step
    on a 2-d node broadcast to (1, 1), and a bare leaf raised ValueError."""
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    with pytest.raises(DimensionMismatch, match="step of length 2 .* dimension 1"):
        difference_values(make_fm(2, F.one()), (0.5, 7.0), 2, xs)
    x1 = ExpPolyLeaf(ExpPolynomial.monomial(F, 2, (1, 0)))
    pts = np.zeros((4, 2))
    with pytest.raises(DimensionMismatch, match="step of length 1 .* dimension 2"):
        difference_values(Scale(F.gen(), x1), (1.0,), 1, pts)
    with pytest.raises(DimensionMismatch, match="step of length 1 .* dimension 2"):
        difference_values(x1, (1.0,), 1, pts)
    with pytest.raises(DimensionMismatch, match="points of length 3 .* dimension 2"):
        difference_values(x1, (1.0, 0.0), 1, np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch, match="points of length 1 .* dimension 2"):
        difference_values(x1, (1.0, 0.0), 1, np.zeros(4))


def test_antidifference_vanishes_on_lattice(F, wave):
    f = make_antidifference(wave, F.one())
    for k in range(-50, 51):
        assert f.eval_exact((F.rational(k),)).is_zero()


def test_antidifference_rejects_foreign_point(F, wave):
    G = make_field([-3, 0, 1], (1, 2))   # sqrt(3)
    f = make_antidifference(wave, F.one())
    for z in (G.gen(), G.rational(3)):
        with pytest.raises(FieldMismatch):
            f.eval_exact((z,))


def test_antidifference_rejects_nonvanishing(F):
    one = ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (0,)))
    with pytest.raises(LatticeValuesNonzero):
        make_antidifference(one, F.one())


def test_antidifference_continuity_at_seams(F, wave):
    # continuity across lattice seams, spot-checked at shrinking offsets
    f = make_antidifference(wave, F.one())
    for k in (-3, -1, 0, 1, 2, 5):
        base = f.eval_float((float(k),))
        for eps in (1e-6, 1e-9):
            assert abs(f.eval_float((k - eps,)) - base) < 1e-5
            assert abs(f.eval_float((k + eps,)) - base) < 1e-5


def test_fm_tower(F, wave):
    rng = np.random.default_rng(11)
    xs = rng.uniform(-20, 20, 10000)[:, None]
    for m in (1, 2, 3, 4):
        fm = make_fm(m, F.one())
        top = difference_values(fm, (1.0,), m, xs)
        assert np.max(np.abs(top)) < 1e-9, m
        if m > 1:
            below = difference_values(fm, (1.0,), m - 1, xs)
            assert np.max(np.abs(below - wave.eval_array(xs))) < 1e-9, m


def test_fm_scaled_period_consequence(F):
    # vanishing at the base step propagates to integer multiples of it
    rng = np.random.default_rng(13)
    xs = rng.uniform(-20, 20, 10000)[:, None]
    for m in (1, 2, 3):
        fm = make_fm(m, F.one())
        for p in (1, 2, 3):
            resid = difference_values(fm, (float(p),), m, xs)
            assert np.max(np.abs(resid)) < 1e-9, (m, p)


def test_corner_of_wave_at_origin(F, wave):
    w = corner_witness(wave, [(-0.4, 0.4)])
    assert w is not None
    assert abs(w.gap - 2.0) < 0.01
    assert abs(w.point[0]) < 1e-3


def test_smooth_function_has_no_corner(F):
    f = ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (2,)))
    assert corner_witness(f, [(-1.0, 1.0)]) is None
    e = ExpPolyLeaf(ExpPolynomial.exponential(F, 1, (calg(F, 1),)))
    assert corner_witness(e, [(-1.0, 1.0)]) is None


def test_corner_of_towers(F):
    for m in (2, 3, 4):
        fm = make_fm(m, F.one())
        w = corner_witness(fm, [(0.6, float(m + 2))])
        assert w is not None and w.gap >= 0.5, m


# -- the hyperplane counterexample -------------------------------------------------

@pytest.fixture(scope="module")
def plane_instance(F):
    th = F.gen()
    gens = [(F.one(), F.zero()), (th, F.zero()), (F.zero(), F.one())]
    closure = group_closure(gens, field=F)
    frame = build_frame(closure)
    outer = ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0)))
    return gens, closure, frame, outer


def test_counterexample_certificates(F, plane_instance):
    gens, closure, frame, outer = plane_instance
    for m in (1, 2):
        phi, H = make_counterexample(frame, outer, m)
        assert verify_space_invariance(H, gens)
        pts = _grid2(41)
        worst = 0.0
        for h in gens:
            dv = difference_values(phi, [float(x) for x in h], m, pts)
            worst = max(worst, grid_membership_residual(dv, pts, H))
        assert worst <= 1e-8, (m, worst)
        wdir = tuple(float(x) for x in frame.w)
        witness = corner_witness(phi, [(-1.4, 1.4)] * 2, directions=[wdir])
        assert witness is not None


def test_counterexample_higher_order_membership(F, plane_instance):
    # differences of any order n >= m stay in H
    gens, closure, frame, outer = plane_instance
    m = 1
    phi, H = make_counterexample(frame, outer, m)
    pts = _grid2(25)
    for h in gens:
        for n in (m, m + 1, m + 2):
            dv = difference_values(phi, [float(x) for x in h], n, pts)
            assert grid_membership_residual(dv, pts, H) <= 1e-8


def test_counterexample_values(F, plane_instance):
    _, _, frame, outer = plane_instance
    phi, _ = make_counterexample(frame, outer, 1)
    val = phi.eval_float((0.3, 0.25))
    assert abs(val - (math.exp(0.3) + 0.25)) < 1e-12


def _grid2(n):
    xs = np.linspace(-2, 2, n)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_frame_corner_agrees_with_search(F, plane_instance):
    # corner_witness, the search oracle, over a box around z0 whose s / r
    # stays inside the lattice cell (-1, 0) finds the same jump
    _, _, frame, outer = plane_instance
    w = np.array([float(x) for x in frame.w])
    r = float(frame.r)
    for m in (1, 2, 3):
        phi, _ = make_counterexample(frame, outer, m)
        corner = frame_corner(phi)
        assert corner is not None and corner.direction == tuple(w)
        z0 = np.array(corner.point)
        assert abs((z0 @ w) / (w @ w) / r + 0.5) < 1e-15
        half = 0.4 * r * (w @ w) / np.abs(w).sum()   # |s(z - z0)| < 0.4 r
        found = corner_witness(phi, [(c - half, c + half) for c in z0], directions=[tuple(w)])
        assert found is not None
        assert abs(found.gap - corner.gap) <= 1e-3 * corner.gap, (m, found.gap, corner.gap)
        s = (np.array(found.point) @ w) / (w @ w) / r
        assert abs(s + 0.5) < 1e-4, (m, s)


def test_frame_corner_needs_a_unit_tower(F, plane_instance):
    _, _, frame, outer = plane_instance
    th = F.gen()
    leaf = ExpPolyLeaf(ExpPolynomial.monomial(F, 1, (2,)))
    for inner in (leaf, make_fm(1, th), make_fm(3, th), make_triangle_wave(F.rational(2)),
                  make_antidifference(make_triangle_wave(F.one()), F.rational(2))):
        assert frame_corner(CosetBuild(frame, outer, inner)) is None, inner
    # the gap rule of corner_witness: a frame with r |w| = 50 has a jump of
    # 0.04, below the 0.1 every step must reach
    far = build_frame(group_closure([(F.one(), F.zero()), (th, F.zero()),
                                     (F.zero(), F.rational(50))], field=F))
    phi, _ = make_counterexample(far, outer, 2)
    assert float(far.r) * np.linalg.norm([float(x) for x in far.w]) == 50.0
    assert frame_corner(phi) is None


def _meshgrid_stack(coords):
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_mesh_points_equals_meshgrid_stack():
    for coords in ([np.linspace(-2.0, 2.0, 41)], [np.linspace(-2.0, 2.0, 41)] * 3,
                   [np.linspace(0.0, 1.0, 5), np.linspace(-3.0, 3.0, 7)],
                   [np.array([0.5]), np.linspace(-1e12, 1e12, 4), np.array([-0.0, 2.0])]):
        got, want = mesh_points(coords), _meshgrid_stack(coords)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_certify_counterexample_equals_the_inline_triple(F):
    """The triple construct prop7 prints: exact invariance of H under every
    generator, the exact membership decision, and the frame corner.  The
    per-step residual of the m-th differences on the 41^d grid of [-2, 2]^d
    is the float oracle of the membership verdict."""
    o, z, th = F.one(), F.zero(), F.gen()
    cases = []
    for d, orders in ((2, (1, 2)), (3, (1,))):
        pad = (z,) * (d - 2)
        closure = group_closure([(o, z) + pad, (th, z) + pad, (z, o) + pad], field=F)
        cases += [(build_frame(closure), d, m) for m in orders]
    tilted = group_closure([(o, z, z), (th, z, z), (z, o, z), (z, z, o)], field=F)
    cases.append((frame_on_hyperplane(tilted, [(1, 0, 0), (0, 1, 1)]), 3, 1))
    for frame, d, m in cases:
        outer = ExpPolynomial.exponential(F, d, (calg(F, 1),) + (calg(F, 0),) * (d - 1))
        phi, H = make_counterexample(frame, outer, m)
        gens = frame.closure.generators
        got = certify_counterexample(phi, H, m)
        assert got == (verify_space_invariance(H, gens), True, frame_corner(phi)), (d, m)
        assert got[0] and got[2] is not None, (d, m)
        pts = _meshgrid_stack([np.linspace(-2.0, 2.0, 41)] * d)
        loop = max(grid_membership_residual(difference_values(phi, h, m, pts), pts, H)
                   for h in gens)
        assert loop <= 1e-8, (d, m, loop)


def _oracle_residual(phi, H, m):
    pts = _grid2(41)
    return max(grid_membership_residual(difference_values(phi, h, m, pts), pts, H)
               for h in phi.frame.closure.generators)


def test_difference_membership_fails_off_the_construction(F, plane_instance):
    """Each exact check fails on its own, and the float oracle agrees: an
    inner tower one order above m, an inner wave of period 2, a frame level
    p_k that disagrees with s(h_k) / r, a frame whose r is doubled, so that
    the level p_k / 2 it records is not an integer, and a space H that does
    not hold the differences of the outer part."""
    _, _, frame, outer = plane_instance
    last = len(frame.p) - 1
    moved = dataclasses.replace(frame, p=frame.p[:last] + [frame.p[last] + 1])
    halved = dataclasses.replace(frame, r=frame.r * 2, p=[Fraction(p, 2) for p in frame.p])
    for m in (1, 2):
        phi, H = make_counterexample(frame, outer, m)
        assert difference_membership(phi, H, m)
        assert difference_membership(phi, H, m + 1)
        for bad in (CosetBuild(frame, outer, make_fm(m + 1, F.one())),
                    CosetBuild(frame, outer, make_triangle_wave(F.rational(2))),
                    CosetBuild(halved, outer, make_fm(m, F.one()))):
            assert not difference_membership(bad, H, m), (m, bad.inner, bad.frame.r)
            assert _oracle_residual(bad, H, m) > 1e-2, (m, bad.inner, bad.frame.r)
        # phi itself does not read p, so only the frame's record is wrong
        assert not difference_membership(CosetBuild(moved, outer, phi.inner), H, m)
        # a space without the differences of outer(P z)
        zero = FunctionSubspace.span([], dim=2, field=F)
        assert not difference_membership(phi, zero, m)
        assert _oracle_residual(phi, zero, m) > 1e-2


def _corner_gaps_per_step(phi):
    """The reference: z0 and the direction as ``frame_corner`` forms them,
    and the gap under each step from its own three calls of phi."""
    from deltaclose.construct import CORNER_STEPS

    point = np.array([float(phi.frame.r * Fraction(-1, 2) * x) for x in phi.frame.w])
    direction = tuple(float(x) for x in phi.frame.w)
    u = np.asarray(direction) / np.linalg.norm(direction)

    def gap(delta):
        fw = phi.eval_array(point[None, :] + delta * u)
        bk = phi.eval_array(point[None, :] - delta * u)
        md = phi.eval_array(point[None, :])
        return float(np.abs((fw - 2 * md + bk) / delta)[0])

    return point, direction, [gap(delta) for delta in sorted(CORNER_STEPS, reverse=True)]


def test_frame_corner_matches_per_step_evaluations(F):
    """One evaluation of phi on the seven corner points gives the gaps of
    the per-step evaluations bit for bit: the batch equals the single-point
    values, and the witness is the one the per-step gaps give."""
    from deltaclose.construct import CORNER_MIN_GAP, CORNER_STEPS

    rng = rng_for("frame-corner-batch")
    o, z, th = F.one(), F.zero(), F.gen()
    freqs = [calg(F, 1), calg(F, th), calg(F, 0, 1), calg(F, Fraction(-1, 2))]
    seen = 0
    for i in range(24):
        d, m = 2 + i % 2, 1 + i // 2 % 3
        pad = (z,) * (d - 2)
        q = [rng.choice([1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), 3]) for _ in range(3)]
        gens = [(o * q[0], z) + pad, (th * q[1], z) + pad, (z, o * q[2]) + pad]
        outer = ExpPolynomial.exponential(F, d, (rng.choice(freqs),) + (calg(F, 0),) * (d - 1))
        phi, _ = make_counterexample(build_frame(group_closure(gens, field=F)), outer, m)
        point, direction, gaps = _corner_gaps_per_step(phi)
        u = np.asarray(direction) / np.linalg.norm(direction)
        pts = [point]
        for delta in sorted(CORNER_STEPS, reverse=True):
            pts += [point + delta * u, point - delta * u]
        batch = phi.eval_array(np.stack(pts))
        single = np.array([phi.eval_array(p[None, :])[0] for p in pts])
        assert batch.tobytes() == single.tobytes()
        corner = frame_corner(phi)
        if min(gaps) < CORNER_MIN_GAP:
            assert corner is None
            continue
        seen += 1
        assert corner.point == tuple(point) and corner.direction == direction
        assert corner.gap == gaps[-1]
    assert seen >= 20


def test_frame_corner_evaluates_once(F, plane_instance, monkeypatch):
    _, _, frame, outer = plane_instance
    phi, _ = make_counterexample(frame, outer, 2)
    calls = []
    real = CosetBuild.eval_array
    monkeypatch.setattr(CosetBuild, "eval_array",
                        lambda self, pts: calls.append(len(pts)) or real(self, pts))
    assert frame_corner(phi) is not None
    assert calls == [7]
