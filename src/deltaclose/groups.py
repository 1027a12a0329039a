"""Closure decomposition of finitely generated subgroups of R^d.

For generators h_1..h_t with coordinates in the declared field, the closure
of  h_1 Z + ... + h_t Z  splits as  V + Lambda  with V a linear subspace and
Lambda a discrete lattice orthogonal to V.  The algorithm:

1. kernel over the field of  n |-> sum n_k h_k;
2. rational closure of the kernel: expand each kernel basis vector over the
   power basis of theta and take the Q-span of the component vectors;
3. V is the span of the images of those rational vectors under the generator
   matrix (this equals the closure's connected component: an integer vector z
   annihilates all field kernel vectors iff it annihilates every component
   vector, so the achievable integer characters are exactly the annihilator
   of the rational closure);
4. project the generators onto the orthogonal complement of V and extract a
   canonical lattice basis by Hermite normal form on the flattened rational
   coordinates; each generator's integer coordinates are read off its
   echelon rows by back-substitution (``linalg.lattice_coords``);
5. repeat on the projections while they still produce a nonzero subspace
   part (equivalently: while the projected kernel is not rationally spanned);
   each round strictly grows V, so at most d rounds run.  Once V = R^d the
   group is dense and every projection onto the complement {0} is zero, so
   the rounds stop there, with no projection and no further round.

``dual_witness`` is the independent check: it searches, by pure rational
linear algebra on the dual side, for a nonzero field vector y with every
product <y, h_k> an integer.  Such a witness exists iff the group is not
dense, so agreement of the two routes certifies every density verdict.

The transverse hyperplane frames of a non-dense closure are built here too:
``frame_on_hyperplane`` builds the frame (normal w, step r, generator levels
p_k) on any hyperplane that contains V, and ``build_frame`` picks the
constructive hyperplane and calls it.  A frame forms 1/<w, w> and its
projection matrix once and keeps them.  Orthogonal projections onto V and
onto hyperplanes read one coordinate map off one reduction
(``projection_coords``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import (
    DenseGroup,
    DimensionMismatch,
    EmptyInput,
    FrameInvalid,
    InternalError,
    NonIntegralRatio,
)
from .linalg import _dot, field_kernel, field_rref, lattice_basis, lattice_coords
from .scalar import AlgebraicScalar, NumberField


def _as_vector(field: NumberField, v, dim: int, what: str = "generator"):
    vec = tuple(field.coerce(x) for x in v)
    if len(vec) != dim:
        raise DimensionMismatch(f"{what} of length {len(vec)} in ambient dimension {dim}")
    return vec


def _flatten(vec) -> list:
    out = []
    for x in vec:
        out.extend(x.coords)
    return out


def _unflatten(field: NumberField, flat, dim: int):
    n = field.degree
    return tuple(field.element(flat[i * n:(i + 1) * n]) for i in range(dim))


def projection_coords(rows):
    """T = G^(-1) B for the independent field rows B and their Gram matrix G,
    read off one reduced form of [G | B].  For any x, T x are the
    coordinates of the orthogonal projection of x in the rows."""
    k = len(rows)
    gram = [[_dot(rows[i], rows[j]) for j in range(k)] for i in range(k)]
    red, pivots = field_rref([g + list(b) for g, b in zip(gram, rows)])
    if pivots != list(range(k)):
        raise InternalError("projection basis is not linearly independent")
    return [row[k:] for row in red]


def orthogonal_parts(rows, xs) -> list:
    """x - P x for each x in xs, with P the orthogonal projection onto the
    span of the independent field rows; one coordinate map serves all xs."""
    if not rows:
        return [tuple(x) for x in xs]
    T = projection_coords(rows)
    cols = list(zip(*rows))
    out = []
    for x in xs:
        c = [_dot(t, x) for t in T]
        out.append(tuple(a - _dot(c, col) for a, col in zip(x, cols)))
    return out


@dataclass
class GroupClosure:
    field: NumberField
    dim: int
    generators: list
    v_basis: list
    lambda_basis: list
    dense: bool
    reconstruction: list  # per generator: (v_part, integer lattice coords)


def group_closure(generators, field: NumberField) -> GroupClosure:
    if not generators:
        raise EmptyInput("need at least one generator")
    dim = len(generators[0])
    gens = [_as_vector(field, g, dim) for g in generators]

    # the generators minus their projections onto the V found so far
    v_rows: list = []
    projected = gens
    for _ in range(dim + 1):
        # field kernel of the generator matrix (rows indexed by coordinates)
        a_rows = [[g[i] for g in projected] for i in range(dim)]
        kernel = field_kernel(a_rows, len(projected), field.zero(), field.one())
        # rational closure of the kernel
        rat_rows = []
        for kv in kernel:
            for slot in range(field.degree):
                row = [x.coords[slot] for x in kv]
                if any(f != 0 for f in row):
                    rat_rows.append(row)
        rat_basis, _ = field_rref(rat_rows)
        # image of the rational closure under the generator matrix
        new_v = []
        for r in rat_basis:
            img = [field.zero() for _ in range(dim)]
            for coef, g in zip(r, projected):
                if not coef:
                    continue
                cs = field.rational(coef)
                for i, x in enumerate(g):
                    if x:
                        img[i] = img[i] + cs * x
            if any(not x.is_zero() for x in img):
                new_v.append(tuple(img))
        if not new_v:
            break
        v_rows, _ = field_rref(v_rows + new_v)
        v_rows = [tuple(r) for r in v_rows]
        if len(v_rows) == dim:
            # V = R^d: every projection onto its complement {0} is zero
            projected = [(field.zero(),) * dim for _ in gens]
            break
        projected = orthogonal_parts(v_rows, gens)
    else:
        raise InternalError("closure recursion exceeded the ambient dimension")

    lam_flat = lattice_basis([_flatten(p) for p in projected])
    lam = [_unflatten(field, row, dim) for row in lam_flat]
    if lam:
        rank_rows, _ = field_rref([list(v) for v in lam])
        if len(rank_rows) != len(lam):
            raise InternalError(
                "projected generators do not form a discrete group; "
                "subspace part was not fully extracted")
    dense = len(v_rows) == dim
    reconstruction = []
    for g, p in zip(gens, projected):
        coords = lattice_coords(lam_flat, _flatten(p))
        if coords is None:
            raise InternalError("generator does not decompose over the lattice basis")
        v_part = tuple(a - b for a, b in zip(g, p))
        reconstruction.append((v_part, coords))
    return GroupClosure(field, dim, gens, v_rows, lam, dense, reconstruction)


def verify_reconstruction(c: GroupClosure) -> bool:
    """Each generator equals its V-component plus the recorded integer
    combination of the lattice basis, exactly."""
    for g, (v_part, coords) in zip(c.generators, c.reconstruction):
        acc = list(v_part)
        for n, lam in zip(coords, c.lambda_basis):
            for i, x in enumerate(lam):
                acc[i] = acc[i] + x * n
        if any(not (a - b).is_zero() for a, b in zip(acc, g)):
            return False
    # every V-component must lie in the span of the V-basis
    resids = orthogonal_parts(c.v_basis, [v_part for v_part, _ in c.reconstruction])
    return all(x.is_zero() for r in resids for x in r)


def verify_orthogonality(c: GroupClosure) -> bool:
    for lam in c.lambda_basis:
        for v in c.v_basis:
            if not _dot(lam, v).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# dual-side witness search (independent oracle)
# ---------------------------------------------------------------------------

def dual_witness(generators, field: NumberField):
    """Nonzero field vector y with <y, h_k> in Z for every generator, or None.

    Built from the dual side only: rational kernel of the irrationality
    constraints, then scaling into the integer character lattice.  Returns
    (y, height) or None; None certifies density because the solve is exact
    rather than an enumeration.
    """
    if not generators:
        raise EmptyInput("need at least one generator")
    dim = len(generators[0])
    gens = [_as_vector(field, g, dim) for g in generators]
    n = field.degree
    unknowns = n * dim
    theta_pows = [field.one()]
    for _ in range(n - 1):
        theta_pows.append(theta_pows[-1] * field.gen())

    # coords of <y, h_k> as a Q-linear map of the nd unknowns
    maps = []
    for g in gens:
        mk = [[Fraction(0)] * unknowns for _ in range(n)]
        for j in range(dim):
            for i in range(n):
                prod = theta_pows[i] * g[j]
                for slot in range(n):
                    mk[slot][j * n + i] = prod.coords[slot]
        maps.append(mk)

    irr_rows = [row for mk in maps for row in mk[1:]]
    kern = field_kernel(irr_rows, unknowns, Fraction(0), Fraction(1))
    if not kern:
        return None
    # any rational-product direction scales into the integer character lattice
    q = kern[0]
    prods = [sum(mk[0][i] * q[i] for i in range(unknowns)) for mk in maps]
    scale = lcm(*(p.denominator for p in prods), 1)
    q = [x * scale for x in q]
    y = _unflatten(field, q, dim)
    height = max(max(abs(x.numerator) for x in q), max(x.denominator for x in q))
    return y, height


def witness_checks(y, generators, field: NumberField) -> bool:
    """Exact check that every product <y, h_k> is a rational integer."""
    dim = len(y)
    for g in generators:
        gv = _as_vector(field, g, dim)
        p = _dot(y, gv)
        if not p.is_rational() or p.as_rational().denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# hyperplane frame
# ---------------------------------------------------------------------------

@dataclass
class HyperplaneFrame:
    """Transverse frame for a non-dense closure: a hyperplane Vt containing
    V, a field normal w (not unit), the positive step r with s(Lambda) = r Z,
    and the integer levels p_k of the generators, where
    s(h) = <h, w> / <w, w> (so s(w) = 1 and  z = P(z) + s(z) w  exactly).

    The float evaluators read w, <w, w> and r as floats through
    ``float_constants``, which derives them on first use and keeps them in
    ``_floats``.  The exact 1/<w, w> and the matrix of P are kept the same
    way, in ``_inv_wnorm2`` (``frame_on_hyperplane`` sets it) and
    ``_projection``.  These caches take no part in ``==`` or ``repr``."""

    field: NumberField
    dim: int
    vt_basis: list
    w: tuple
    r: AlgebraicScalar
    p: list
    closure: GroupClosure
    _floats: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)
    _inv_wnorm2: AlgebraicScalar | None = dc_field(default=None, init=False, repr=False,
                                                   compare=False)
    _projection: list | None = dc_field(default=None, init=False, repr=False, compare=False)

    def s_value(self, z) -> AlgebraicScalar:
        return _dot(self.w, z) * self._inv_wn()

    def _wnorm2(self) -> AlgebraicScalar:
        return _dot(self.w, self.w)

    def _inv_wn(self) -> AlgebraicScalar:
        """1/<w, w>, inverted once per frame."""
        if self._inv_wnorm2 is None:
            self._inv_wnorm2 = self._wnorm2().inverse()
        return self._inv_wnorm2

    def split(self, z):
        """(P(z), s(z)) with z = P(z) + s(z) w, both exact."""
        z = _as_vector(self.field, z, self.dim)
        s = self.s_value(z)
        proj = tuple(a - s * b for a, b in zip(z, self.w))
        return proj, s

    def float_constants(self):
        """(w as a float array, <w, w>, r), floated once per frame."""
        if self._floats is None:
            self._floats = (np.array([float(x) for x in self.w]),
                            float(self._wnorm2()), float(self.r))
        return self._floats

    def split_float(self, z: np.ndarray):
        """Vectorized float split of an (N, d) array: (projections, s-values)."""
        w, wn, _ = self.float_constants()
        z = np.asarray(z, dtype=float)
        s = (z @ w) / wn
        proj = z - np.outer(s, w)
        return proj, s

    def projection_matrix(self):
        """Field matrix of P (rows), P z = z - s(z) w, formed once, with no
        product where a coordinate of w is zero; each call returns fresh row
        lists."""
        if self._projection is None:
            one, zero, inv = self.field.one(), self.field.zero(), self._inv_wn()
            self._projection = rows = []
            for i, wi in enumerate(self.w):
                row = []
                for j, wj in enumerate(self.w):
                    e = one if i == j else zero
                    row.append(e - wi * wj * inv if wi and wj else e)
                rows.append(row)
        return [list(row) for row in self._projection]


def frac_gcd(values) -> Fraction:
    """gcd of a finite family of rationals: gcd of numerators over lcm of
    denominators (0 for an empty or all-zero family)."""
    values = list(values)
    return Fraction(gcd(*(v.numerator for v in values)), lcm(*(v.denominator for v in values)))


def frame_on_hyperplane(closure: GroupClosure, rows) -> HyperplaneFrame:
    """Transverse frame on the hyperplane Vt spanned by the field vectors
    ``rows``, which must span d - 1 dimensions and contain V.

    w is the kernel normal of the rows, oriented so that the first nonzero
    lattice level s(lambda_i) is positive.  r is the positive generator of
    the nonzero levels, which must be rational multiples of each other; with
    every level zero, r = 1.  Rows breaking these conditions raise
    FrameInvalid.  1/<w, w> and 1/(<w, w> r) are each formed once, for
    every lattice level s(lambda_i) = <w, lambda_i> / <w, w> and every
    generator level p_k = s(g_k) / r; a p_k that is not an integer raises
    NonIntegralRatio.  The frame keeps 1/<w, w> for ``s_value``.
    """
    if closure.dense:
        raise DenseGroup("dense closures admit no transverse hyperplane")
    field, dim = closure.field, closure.dim
    rows, _ = field_rref([_as_vector(field, v, dim, "hyperplane row") for v in rows])
    if len(rows) != dim - 1:
        raise FrameInvalid(f"hyperplane has dimension {len(rows)}, not d - 1 = {dim - 1}")
    rows = [tuple(r) for r in rows]
    w = tuple(field_kernel(rows, dim, field.zero(), field.one())[0])
    # Vt is the orthogonal complement of w, so it contains V iff V is orthogonal to w
    if any(not _dot(v, w).is_zero() for v in closure.v_basis):
        raise FrameInvalid("hyperplane does not contain V")
    inv_wn = _dot(w, w).inverse()
    levels = [s for s in (_dot(w, lam) * inv_wn for lam in closure.lambda_basis)
              if not s.is_zero()]
    r = field.one()
    if levels:
        ratios = [s / levels[0] for s in levels]
        if not all(q.is_rational() for q in ratios):
            raise FrameInvalid("lattice levels on the hyperplane normal are not commensurable")
        base = levels[0]
        if base.sign() < 0:
            base, w = -base, tuple(-x for x in w)
        r = base * frac_gcd(q.as_rational() for q in ratios)
    inv_wn_r = inv_wn / r
    p = []
    for g in closure.generators:
        level = _dot(w, g) * inv_wn_r
        if not level.is_rational() or level.as_rational().denominator != 1:
            raise NonIntegralRatio("generator level is not an integer multiple of r")
        p.append(int(level.as_rational()))
    frame = HyperplaneFrame(field, dim, rows, w, r, p, closure)
    frame._inv_wnorm2 = inv_wn
    return frame


def build_frame(closure: GroupClosure) -> HyperplaneFrame:
    """Constructive transverse frame for a non-dense closure.

    The hyperplane is V + all lattice directions but the last + the full
    orthogonal complement of V + Lambda-span, so the last lattice direction
    has the only nonzero level, which is r.  With no lattice part any field
    hyperplane containing V works and r = 1.
    """
    field, dim = closure.field, closure.dim
    v_rows, lam_rows = closure.v_basis, closure.lambda_basis
    comp = field_kernel(v_rows + lam_rows, dim, field.zero(), field.one())
    if lam_rows:
        rows = v_rows + lam_rows[:-1] + comp
    else:
        rows = v_rows + comp[:dim - 1 - len(v_rows)]
    frame = frame_on_hyperplane(closure, rows)
    if lam_rows and frame.s_value(lam_rows[-1]).is_zero():
        raise InternalError("last lattice direction lies in the hyperplane")
    return frame
