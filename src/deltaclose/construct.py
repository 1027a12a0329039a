"""Explicitly evaluable functions: the triangle wave, lattice antidifferences,
the tower with vanishing m-th difference, and the hyperplane counterexample.

Functions are closed combinator trees.  Every node evaluates at float points
(vectorized over numpy arrays); the triangle wave and antidifference nodes
also evaluate exactly at field points, which the seam and lattice checks use.

The antidifference of g with step h > 0, defined when g vanishes on h Z, is
the lattice partial sum

    f(x + k h) = sum_{j=0}^{k-1} g(x + j h)        (k > 0, x in [0, h))
    f(x)       = 0                                 (x in [0, h))
    f(z)       = -sum_{i=0}^{|k|-1} g(z + i h)     (k < 0)

and satisfies  delta_h f = g  and  f(h Z) = {0} pointwise.  Iterating it on
the triangle wave gives, for each m, a continuous f_m with
delta_h^(m-1) f_m equal to the wave and delta_h^m f_m identically zero,
while f_m itself keeps corners and therefore is not an exponential
polynomial.

A chain of antidifferences whose steps are equal (exactly, by ``==``) is
fused into one node of some depth over its first other node, the base.  The
depth-fold antidifference at x + k h depends only on the base's values
g(x + j h) along the orbit, so each point's orbit is walked once, j = 0, 1,
..., k - 1 for k > 0 and j = -1, ..., k for k < 0, carrying one running sum
per level:

    f_r(j + 1) = f_r(j) + f_(r-1)(j)     (walking up, top level first)
    f_r(j)     = f_r(j + 1) - f_(r-1)(j) (walking down, bottom level first)

with f_0 = g and f_r(0) = 0.  For N points with lattice offsets |k| <= K
that is at most 2 K base evaluations and O(N K m) work for a depth-m tower.
A point whose offset exceeds ``MAX_ORBIT_OFFSETS`` is refused with
``MalformedInput`` before the walk starts, so a far point fails at once
instead of walking for hours.

When the base is a triangle wave whose period equals the step (exactly,
by ``==``), as in every f_m, all terms of the partial sum are g(x), and
the hockey-stick identity sum_{j<k} C(j, m-1) = C(k, m) (Graham, Knuth
and Patashnik, *Concrete Mathematics*, 5.1) gives the closed form

    f_m(x + k h) = C(k, m) g(x)        (x in [0, h), any integer k)

with the generalised binomial C(k, m) = k (k-1) ... (k-m+1) / m! for
k < 0.  ``eval_array`` then makes one wave evaluation on the N points and
O(N) arithmetic after a table of the weights: one exact ``math.comb`` per
lattice offset of the window, C(k, m) = (-1)^m C(m-k-1, m) for k < 0,
floated once, so a weight is correctly rounded for any order, and a weight
beyond the float range raises ``MalformedInput``.  ``make_fm`` refuses
orders above ``MAX_TOWER_ORDER``, since encoding a tower recurses once per
level.  The same exact predicate proves that the base vanishes on the
step lattice, so ``make_antidifference`` skips its lattice check for it.
``eval_exact`` always walks, and is the exact oracle of the closed form.

Float constants are derived once per node, on first use: the wave's
period, the antidifference step, the ``Scale`` factor and the ``Project``
matrix, and ``CosetBuild`` reads w, <w, w> and r from its frame's cache.

Shifts.  Where f is needed on several shifts of one point set
(``shifted_values``, the slope gaps), the shifted copies are stacked and
evaluated in one ``eval_array`` call; ``binomial_difference`` forms
delta_h^m f from those rows, and ``difference_values`` is the two in turn.

Membership.  ``difference_membership`` decides exactly, from the construction,
that the counterexample's m-th differences lie in H; ``difference_values``
and ``grid_membership_residual`` are the tests' float oracle for it.

The frame corner.  In phi = outer(P z) + f_m(s(z) / r) over a unit tower
f_m, only the tower has corners, and the frame names one: at z0 = -(r/2) w,
exact in the field, P z0 = 0 and s(z0) / r = -1/2, the peak of the wave in
lattice cell k = -1, where f_m(x - 1) = C(-1, m-1) g(x) = +-g(x).  Along w
the outer part is constant there, so the slope of phi along w / |w| jumps
by exactly 2 / (r |w|).  ``frame_corner`` tests the gap at z0 alone, under
the steps and the bound of ``corner_witness``, from one evaluation on z0
and z0 +- delta u for every step; that search, a 4,000-point
scan and a ladder of 1,601-point zooms, stays the oracle for it and the
witness of every other function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, floor

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameInvalid,
    LatticeValuesNonzero,
    MalformedInput,
    NonpositivePeriod,
)
from .exppoly import ExpPolynomial, translation_hull
from .groups import HyperplaneFrame
from .opalg import TranslationPolynomial
from .scalar import AlgebraicScalar
from .subspace import FunctionSubspace

# Largest lattice offset |k| an antidifference walks to.  Far above every
# window the library and its checks use (tens of periods), far below a walk
# that would run for hours (each offset costs one base evaluation).
MAX_ORBIT_OFFSETS = 10**6

# Largest tower order m that ``make_fm`` builds.  Encoding, decoding and
# writing a tower recurse once per antidifference, so an order near
# Python's default recursion limit of 1000 frames would fail there.
MAX_TOWER_ORDER = 400


class EvaluableFunction:
    """Base combinator node; subclasses set ``dim`` and the eval methods."""

    dim: int

    def eval_float(self, z) -> complex:
        arr = np.asarray([z], dtype=float).reshape(1, self.dim)
        return complex(self.eval_array(arr)[0])

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_exact(self, z):
        """Exact value at a field point, or None when not available."""
        return None


class ExpPolyLeaf(EvaluableFunction):
    def __init__(self, poly: ExpPolynomial):
        self.poly = poly
        self.dim = poly.dim

    def eval_array(self, pts):
        return self.poly.evaluate_array(np.asarray(pts, dtype=float))


class TriangleWave(EvaluableFunction):
    """h-periodic, equals |x| on [-h/2, h/2]; vanishes on h Z, even, with
    slope jumps of size 2 at the lattice and -2 at half-lattice points."""

    def __init__(self, period: AlgebraicScalar):
        if period.sign() <= 0:
            raise NonpositivePeriod("triangle wave needs period > 0")
        self.period = period
        self.dim = 1

    def eval_array(self, pts):
        pts = np.asarray(pts, dtype=float)
        z = pts[:, 0] if pts.ndim == 2 else pts
        h = self._period_float
        # z - floor(z/h) h is np.mod(z, h) bit for bit at h = 1, and about
        # three times faster; at other h a rounding can put r just outside
        # [0, h], which the absolute value folds back onto the distance to h Z
        r = z - np.floor(z / h) * h
        return np.abs(np.minimum(r, h - r)).astype(complex)

    @cached_property
    def _period_float(self) -> float:
        return float(self.period)

    def eval_exact(self, z):
        z = z[0] if isinstance(z, (tuple, list)) else z
        z = self.period.field.coerce(z)
        t = z / self.period
        r = t - t.floor()
        half = Fraction(1, 2)
        val = r if (r - half).sign() <= 0 else (1 - r)
        return val * self.period


class AntiDifference(EvaluableFunction):
    """Partial-sum antidifference of a 1-d function vanishing on h Z.

    A chain of antidifferences with equal steps (compared exactly, with
    ``==``) is fused at construction into ``(base, depth)``: ``base`` is the
    first node down the chain that is not an antidifference with this step,
    and ``self`` is ``depth`` antidifferences of it.  ``child`` and ``step``
    keep the tree as built.  Evaluation walks each point's lattice orbit
    once and carries ``depth`` running sums, so N points with lattice
    offsets |k| <= K cost at most 2 K calls of ``base`` on at most N points
    each, O(N K depth) arithmetic and O(N depth) memory.  A triangle-wave
    base of period ``step`` is not walked: ``eval_array`` returns
    C(k, depth) g(z - k h) from one call of the wave.  An offset beyond
    ``MAX_ORBIT_OFFSETS`` raises ``MalformedInput`` before either path.
    """

    def __init__(self, child: EvaluableFunction, step: AlgebraicScalar):
        if child.dim != 1:
            raise DimensionMismatch("antidifference acts on 1-d functions")
        if step.sign() <= 0:
            raise NonpositivePeriod("antidifference needs step > 0")
        self.child = child
        self.step = step
        self.dim = 1
        if isinstance(child, AntiDifference) and child.step == step:
            self.base, self.depth = child.base, child.depth + 1
        else:
            self.base, self.depth = child, 1
        self._closed_form = _is_periodic_wave(self.base, step)

    def eval_array(self, pts):
        pts = np.asarray(pts, dtype=float)
        z = pts[:, 0] if pts.ndim == 2 else pts
        h = self._step_float
        k = z / h
        lo, hi = k.min(initial=0.0), k.max(initial=0.0)   # nan propagates
        if not (np.isfinite(lo) and np.isfinite(hi)):
            i = int(np.argmin(np.isfinite(k)))
            raise MalformedInput(f"antidifference needs finite points; point {i} is {z[i]}")
        k = np.floor(k, out=k)   # lattice offsets, kept as floats
        kmin, kmax = floor(lo), floor(hi)
        if max(-kmin, kmax) > MAX_ORBIT_OFFSETS:
            i = int(np.argmax(np.abs(k)))
            raise _too_far(f"{i} is {z[i]}", int(k[i]))
        x0 = k * h
        np.subtract(z, x0, out=x0)   # x0 = z - k h without a temporary
        if self._closed_form:
            return _binomial_k(k, self.depth, kmin, kmax) * self.base.eval_array(x0)
        # acc[r] holds the (r+1)-fold running sums; a point drops out of the
        # walk, its sums kept, after its last offset (j = k - 1 up, j = k down)
        acc = [np.zeros(z.shape, dtype=complex) for _ in range(self.depth)]
        for up in (True, False):
            for t in range(kmax if up else -kmin):
                j = t if up else -(t + 1)
                on = k > j if up else k <= j
                active = [row[on] for row in acc]
                _orbit_step(active, self.base.eval_array((x0[on] + j * h)[:, None]), up)
                for row, a in zip(acc, active):
                    row[on] = a
        return acc[-1]

    @cached_property
    def _step_float(self) -> float:
        return float(self.step)

    def eval_exact(self, z):
        z = z[0] if isinstance(z, (tuple, list)) else z
        z = self.step.field.coerce(z)
        k = (z / self.step).floor()
        if abs(k) > MAX_ORBIT_OFFSETS:
            raise _too_far(f"is {z}", k)
        acc = [self.step.field.zero()] * self.depth
        x0 = z - self.step * k
        for j in (range(k) if k > 0 else range(-1, k - 1, -1)):
            g = self.base.eval_exact((x0 + self.step * j,))
            if g is None:
                return None
            _orbit_step(acc, g, k > 0)
        return acc[-1]


def _is_periodic_wave(g: EvaluableFunction, step) -> bool:
    """True when g is a triangle wave of period exactly ``step``: then g is
    step-periodic and vanishes on step Z by its definition."""
    return isinstance(g, TriangleWave) and g.period == step


def _binomial_k(k: np.ndarray, d: int, kmin: int, kmax: int) -> np.ndarray:
    """C(k, d) = k (k-1) ... (k-d+1) / d! for float integers k in [kmin, kmax]
    of any sign: a table of exact values over the offsets, with C(k, d) =
    (-1)^d C(d-k-1, d) for k < 0, floated once and indexed by k.  The table
    costs one ``math.comb`` per offset of the window; a window wider than
    the number of points takes only the offsets that occur.  |C(k, d)|
    grows with |k|, so both tables overflow together: at kmin or kmax."""
    if kmax - kmin + 1 > k.size:
        offsets, index = np.unique(k, return_inverse=True)
        offsets = [int(j) for j in offsets]
    else:
        offsets, index = range(kmin, kmax + 1), (k - kmin).astype(np.intp)
    try:
        table = np.array([float(comb(j, d) if j >= 0 else (-1) ** d * comb(d - j - 1, d))
                          for j in offsets])
    except OverflowError:
        raise MalformedInput(
            f"tower weights C(k, {d}) for offsets k in [{kmin}, {kmax}] "
            f"exceed the float range") from None
    return table[index]


def _too_far(point: str, k: int) -> MalformedInput:
    return MalformedInput(
        f"antidifference point {point}: its orbit walks {abs(k)} lattice offsets, "
        f"more than the limit of {MAX_ORBIT_OFFSETS}")


def _orbit_step(acc, g, up):
    """Move the running sums acc[r] = f_(r+1)(j) one lattice offset, given
    g = g(x + j h) (up) or g(x + (j - 1) h) (down)."""
    if up:
        # f_r(j + 1) = f_r(j) + f_(r-1)(j), top row first
        for r in range(len(acc) - 1, 0, -1):
            acc[r] += acc[r - 1]
        acc[0] += g
    else:
        # f_r(j - 1) = f_r(j) - f_(r-1)(j - 1), bottom row first
        acc[0] -= g
        for r in range(1, len(acc)):
            acc[r] -= acc[r - 1]


class Sum(EvaluableFunction):
    def __init__(self, children):
        children = list(children)
        if not children:
            raise DimensionMismatch("empty sum")
        self.children = children
        self.dim = children[0].dim
        if any(c.dim != self.dim for c in children):
            raise DimensionMismatch("summands of different dimension")

    def eval_array(self, pts):
        acc = self.children[0].eval_array(pts)
        for c in self.children[1:]:
            acc = acc + c.eval_array(pts)
        return acc

    def eval_exact(self, z):
        vals = [c.eval_exact(z) for c in self.children]
        if any(v is None for v in vals):
            return None
        acc = vals[0]
        for v in vals[1:]:
            acc = acc + v
        return acc


class Scale(EvaluableFunction):
    def __init__(self, factor, child: EvaluableFunction):
        self.factor = factor
        self.child = child
        self.dim = child.dim

    def eval_array(self, pts):
        return self._factor_complex * self.child.eval_array(pts)

    @cached_property
    def _factor_complex(self) -> complex:
        f = self.factor
        if isinstance(f, AlgebraicScalar):
            return complex(float(f))
        return complex(f)

    def eval_exact(self, z):
        if not isinstance(self.factor, (AlgebraicScalar, Fraction, int)):
            return None
        v = self.child.eval_exact(z)
        if v is None:
            return None
        return v * self.factor


class Project(EvaluableFunction):
    """z |-> child(M z) for a fixed square matrix (rows) of side child.dim."""

    def __init__(self, child: EvaluableFunction, matrix):
        self.child = child
        self.matrix = [list(row) for row in matrix]
        self.dim = len(self.matrix)
        if self.dim != child.dim or any(len(row) != child.dim for row in self.matrix):
            raise DimensionMismatch(
                f"projection matrix must be square of side {child.dim}, the child's dimension")

    def eval_array(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.child.eval_array(pts @ self._float_matrix.T)

    @cached_property
    def _float_matrix(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix])

    def eval_exact(self, z):
        if not all(isinstance(x, AlgebraicScalar) for row in self.matrix for x in row):
            return None
        w = tuple(sum((row[j] * z[j] for j in range(len(row))),
                      start=self.matrix[0][0].field.zero())
                  for row in self.matrix)
        return self.child.eval_exact(w)


class CosetBuild(EvaluableFunction):
    """phi(z) = outer(P(z)) + inner(s(z) / r) for a hyperplane frame."""

    def __init__(self, frame: HyperplaneFrame, outer: ExpPolynomial,
                 inner: EvaluableFunction):
        if outer.dim != frame.dim:
            raise DimensionMismatch("outer polynomial dimension differs from frame")
        if inner.dim != 1:
            raise DimensionMismatch("inner profile must be 1-d")
        self.frame = frame
        self.outer = outer
        self.inner = inner
        self.dim = frame.dim

    def eval_array(self, pts):
        proj, s = self.frame.split_float(pts)
        r = self.frame.float_constants()[2]
        return self.outer.evaluate_array(proj) + self.inner.eval_array((s / r)[:, None])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_triangle_wave(period) -> TriangleWave:
    return TriangleWave(period)


def check_vanishes_on_lattice(g: EvaluableFunction, step):
    """Verify g(k h) = 0 for k in [-50, 50]; exact where g is exact, else
    to within 1e-10."""
    for k in range(-50, 51):
        zk = step * k
        exact = g.eval_exact((zk,))
        if exact is not None:
            if not exact.is_zero():
                raise LatticeValuesNonzero(f"g({k} h) != 0 exactly")
            continue
        if abs(g.eval_float((float(zk),))) > 1e-10:
            raise LatticeValuesNonzero(f"|g({k} h)| > 1e-10")


def make_antidifference(g: EvaluableFunction, step, depth: int = 1) -> EvaluableFunction:
    """Iterated antidifference: delta_h^depth (result) = g.

    Requires g to vanish on the step lattice: a triangle wave of period
    ``step``, or an antidifference of that step over one, does by its
    definition; any other g is checked on [-50, 50] h, exactly where g
    supports exact evaluation.
    """
    if isinstance(step, (int, Fraction)):
        raise TypeError("step must be an AlgebraicScalar; build it from the field")
    if depth < 1:
        raise MalformedInput(f"antidifference depth must be >= 1, got {depth}")
    if not (_is_periodic_wave(g, step)
            or isinstance(g, AntiDifference) and g._closed_form and g.step == step):
        check_vanishes_on_lattice(g, step)
    f = g
    for _ in range(depth):
        f = AntiDifference(f, step)
    return f


def make_fm(m: int, period) -> EvaluableFunction:
    """The tower function f_m: delta_h^(m-1) f_m is the triangle wave of the
    given period and delta_h^m f_m = 0;  f_1 is the wave itself."""
    if m < 1:
        raise MalformedInput(f"tower order m must be >= 1, got {m}")
    if m > MAX_TOWER_ORDER:
        raise MalformedInput(f"tower order m must be <= {MAX_TOWER_ORDER}, got {m}")
    wave = make_triangle_wave(period)
    if m == 1:
        return wave
    return make_antidifference(wave, period, depth=m - 1)


def difference_values(f: EvaluableFunction, h, m: int, pts: np.ndarray) -> np.ndarray:
    """delta_h^m f at float points, from the binomial expansion
    sum_k C(m, k) (-1)^(m - k) f(x + k h), k = 0 .. m in order, with f
    evaluated once on the m + 1 shifted copies of ``pts`` stacked.  A step
    or a point whose length is not ``f.dim`` raises ``DimensionMismatch``."""
    return binomial_difference(shifted_values(f, h, m, pts), m)


def shifted_values(f: EvaluableFunction, h, m: int, pts: np.ndarray) -> np.ndarray:
    """f at pts + k h, k = 0 .. m: row k of the (m + 1, N) result, from one
    ``eval_array`` call on the shifted copies stacked.  A step or a point
    whose length is not ``f.dim`` raises ``DimensionMismatch``."""
    if m < 0:
        raise MalformedInput(f"difference order must be >= 0, got {m}")
    pts = np.asarray(pts, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    h = np.asarray([float(x) for x in (h if hasattr(h, "__len__") else (h,))])
    if len(h) != f.dim or pts.shape[1] != f.dim:
        raise DimensionMismatch(
            f"step of length {len(h)} and points of length {pts.shape[1]} "
            f"for a function of dimension {f.dim}")
    vals = f.eval_array(np.concatenate([pts] + [pts + k * h for k in range(1, m + 1)]))
    return vals.reshape(m + 1, len(pts))


def binomial_difference(shifted: np.ndarray, m: int) -> np.ndarray:
    """sum_k C(m, k) (-1)^(m - k) shifted[k], k = 0 .. m in order: delta_h^m
    f from the rows f(x + k h) of ``shifted_values`` (rows past m unread)."""
    acc = np.zeros(shifted.shape[1], dtype=complex)
    for k in range(m + 1):
        acc = acc + comb(m, k) * (-1) ** (m - k) * shifted[k]
    return acc


def mesh_points(coords) -> np.ndarray:
    """The points of the grid whose axes hold ``coords``, one per row, the
    last axis varying fastest."""
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def make_counterexample(frame: HyperplaneFrame, outer: ExpPolynomial, m: int
                        ) -> tuple[CosetBuild, FunctionSubspace]:
    """The hyperplane construction: a continuous non-exponential-polynomial
    phi together with the finite-dimensional space H absorbing its
    differences.

    phi(z) = outer(P(z)) + f_m(s(z)/r), where f_m has unit period; H is the
    translation hull of ``outer`` composed with the frame projection.  For
    every generator h_k of the frame's closure, delta_(h_k)(H) lies in H
    exactly, and delta_(h_k)^n phi lies in H for n >= m (the inner tower
    telescopes away because s moves by integer multiples of r along the
    generators).
    """
    if m < 1:
        raise FrameInvalid("difference order m must be >= 1")
    if outer.dim != frame.dim:
        raise FrameInvalid("outer polynomial dimension differs from frame")
    inner = make_fm(m, frame.field.one())
    phi = CosetBuild(frame, outer, inner)
    P = frame.projection_matrix()
    hull = translation_hull(outer)
    composed = [g.substitute_linear(P) for g in hull]
    H = FunctionSubspace.span(composed, dim=frame.dim, field=frame.field)
    return phi, H


def verify_space_invariance(H: FunctionSubspace, steps) -> bool:
    """Exact check that delta_h(H) lies in H for every step."""
    for h in steps:
        D = TranslationPolynomial.delta(H.field, h, 1, dim=H.dim_ambient)
        if not H.is_invariant_under(D):
            return False
    return True


def grid_membership_residual(values: np.ndarray, pts: np.ndarray,
                             space: FunctionSubspace) -> float:
    """Max absolute residual of the least-squares projection of sampled
    values onto the space's basis functions evaluated on the same points
    (for the zero space, the largest |value|)."""
    basis = space.basis_polynomials()
    if not basis:
        return float(np.max(np.abs(values))) if len(values) else 0.0
    cols = np.stack([b.evaluate_array(pts) for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(cols, values, rcond=None)
    return float(np.max(np.abs(values - cols @ coef)))


def _unit_tower_order(f: EvaluableFunction) -> int | None:
    """m when f is the unit tower f_m, a triangle wave of period 1 or m - 1
    fused antidifferences of step 1 over one (decided exactly); else None."""
    if isinstance(f, AntiDifference):
        return f.depth + 1 if f.step == 1 and f._closed_form else None
    return 1 if isinstance(f, TriangleWave) and f.period == 1 else None


def difference_membership(phi: CosetBuild, H: FunctionSubspace, m: int) -> bool:
    """Whether delta_(h_k)^m phi lies in H for every generator h_k of the
    frame's closure, decided exactly.  Along h_k, P z moves by P h_k and
    s(z) / r by the integer p_k = s(h_k) / r, so for phi = outer(P z) + f(s / r)

        delta_(h_k)^m phi = delta_(h_k)^m (outer o P) + (delta_(p_k)^m f)(s / r).

    delta_p = delta_1 (1 + tau_1 + ... + tau_1^(p-1)) for p > 0, delta_(-p) =
    -tau_(-p) delta_p and delta_0 = 0, so the last term is 0 when f is a unit
    tower of order <= m.  It therefore suffices that f is one, that every
    s(h_k) equals r p_k with an integer p_k, and that H contains each
    delta_(h_k)^m (outer o P); False means not certified."""
    order = _unit_tower_order(phi.inner)
    if order is None or order > m:
        return False
    frame = phi.frame
    gens = frame.closure.generators
    # int(p): a level the frame records as a non-integer p fails here
    if [frame.s_value(h) for h in gens] != [frame.r * int(p) for p in frame.p]:
        return False
    outer = phi.outer.substitute_linear(frame.projection_matrix())
    return all(H.contains(outer.forward_difference(h, m)) for h in gens)


# ---------------------------------------------------------------------------
# corner witness
# ---------------------------------------------------------------------------

@dataclass
class CornerWitness:
    point: tuple
    direction: tuple
    gap: float


def _directional_gaps(f: EvaluableFunction, pts: np.ndarray, u: np.ndarray,
                      deltas) -> list:
    """|f(x + delta u) - 2 f(x) + f(x - delta u)| / delta on the points x of
    ``pts``, one array per delta, from one evaluation of f on ``pts`` and
    its 2 len(deltas) shifts stacked."""
    shifted = [pts]
    for delta in deltas:
        shifted += [pts + delta * u, pts - delta * u]
    vals = f.eval_array(np.concatenate(shifted)).reshape(len(shifted), len(pts))
    md = vals[0]
    return [np.abs((fw - 2 * md + bk) / delta)
            for delta, fw, bk in zip(deltas, vals[1::2], vals[2::2])]


# Step sizes of the slope-gap test, and the gap every one of them must reach.
CORNER_STEPS = (1e-2, 1e-3, 1e-4)
CORNER_MIN_GAP = 0.1


def corner_witness(f: EvaluableFunction, window, steps=CORNER_STEPS,
                   directions=None, min_gap: float = CORNER_MIN_GAP):
    """Search for a point and direction where one-sided slopes stably
    disagree; returns a CornerWitness or None.

    The slope gap must exceed ``min_gap`` for every listed step size.  A
    coarse scan (detection step at least the scan spacing, so no corner can
    fall between probes) localizes a candidate, a nested zoom ladder along
    the direction pins it under the finest step, and the reported gap is the
    one at the finest step at the pinned point.
    """
    d = f.dim
    window = [(float(lo), float(hi)) for lo, hi in window]
    if directions is None:
        directions = [tuple(1.0 if i == j else 0.0 for j in range(d))
                      for i in range(d)]
    best = None
    steps = sorted(steps, reverse=True)
    for u in directions:
        u_arr = np.asarray(u, dtype=float)
        u_arr = u_arr / np.linalg.norm(u_arr)
        if d == 1:
            base = np.linspace(window[0][0], window[0][1], 1601)[:, None]
            spacing = (window[0][1] - window[0][0]) / 1600
        else:
            per_axis = max(7, int(round(4000 ** (1 / d))))
            base = mesh_points([np.linspace(lo, hi, per_axis) for lo, hi in window])
            spacing = max((hi - lo) / (per_axis - 1) for lo, hi in window)
        delta_detect = max(steps[0], spacing)
        gaps = _directional_gaps(f, base, u_arr, [delta_detect])[0]
        idx = int(np.argmax(gaps))
        if gaps[idx] < min_gap:
            continue
        center = base[idx]
        # nested zoom: each window covers the previous stage's localization
        # error, each grid is fine enough for the tent peak of its step
        ladder = [(steps[0], max(2 * spacing, 4 * steps[0]))]
        for k in range(1, len(steps)):
            ladder.append((steps[k], 4 * steps[k - 1]))
        ladder.append((steps[-1], 4 * steps[-1]))
        ladder.append((steps[-1], steps[-1] / 12))
        t_center = 0.0
        for delta, width in ladder:
            ts = np.linspace(t_center - width, t_center + width, 1601)
            pts = center[None, :] + ts[:, None] * u_arr[None, :]
            g = _directional_gaps(f, pts, u_arr, [delta])[0]
            t_center = float(ts[int(np.argmax(g))])
        point = center + t_center * u_arr
        gap_by_step = [float(g[0]) for g in _directional_gaps(f, point[None, :], u_arr, steps)]
        if min(gap_by_step) >= min_gap:
            wit = CornerWitness(tuple(float(x) for x in point), tuple(u),
                                gap_by_step[-1])
            if best is None or wit.gap > best.gap:
                best = wit
    return best


def frame_corner(phi: CosetBuild):
    """The corner of phi = outer(P z) + f_m(s(z) / r) that the frame names,
    as a CornerWitness, or None when the inner profile is not a unit-period
    tower (``_unit_tower_order``).

    At z0 = -(r/2) w, computed in the field, s(z0) / r = -1/2 and P z0 = 0,
    so along w the outer part is constant and the inner one sits at the peak
    of f_m(x - 1) = C(-1, m-1) g(x) = +-g(x): the slope along w / |w| jumps
    by 2 / (r |w|).  The gap is tested at z0 under every step of
    ``CORNER_STEPS``, with the rule of ``corner_witness``, which is its
    search oracle."""
    if _unit_tower_order(phi.inner) is None:
        return None
    half_r = phi.frame.r * Fraction(-1, 2)
    point = np.array([float(half_r * x) for x in phi.frame.w])
    direction = tuple(float(x) for x in phi.frame.w)
    u = np.asarray(direction) / np.linalg.norm(direction)
    gaps = [float(g[0]) for g in
            _directional_gaps(phi, point[None, :], u, sorted(CORNER_STEPS, reverse=True))]
    if min(gaps) < CORNER_MIN_GAP:
        return None
    return CornerWitness(tuple(float(x) for x in point), direction, gaps[-1])


def certify_counterexample(phi: CosetBuild, H: FunctionSubspace, m: int):
    """The certificate of the counterexample ``(phi, H)`` of
    ``make_counterexample`` of order m, as ``(invariant, membership,
    corner)``: ``invariant`` is the exact check that every generator's
    difference maps H into H, ``membership`` the exact decision of
    ``difference_membership`` that the m-th differences of phi along the
    generators lie in H, and ``corner`` the frame corner or None."""
    gens = phi.frame.closure.generators
    return (verify_space_invariance(H, gens), difference_membership(phi, H, m),
            frame_corner(phi))
