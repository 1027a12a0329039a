"""Finite-dimensional subspaces of the exponential-polynomial space.

A subspace is stored as a fraction-free reduced echelon matrix over the atom
list (multi-index, frequency) of its basis; membership, invariance, and the
one-step / iterated invariant closures are all exact.

This module owns the row layout of a function space: ``_coordinates`` turns
an ``ExpPolynomial`` into its row over a numbered atom list, for ``span``,
``contains`` and, through ``span``, ``translation_hull``.

Both closure constructions rest on the paper's closure step: when
L_i^(s_i)(V) lies in V for commuting operators L_i, the smallest subspace
containing V invariant under every L_i is the sum of the products
L_1^(k_1)...L_t^(k_t)(V) with k_i < s_i.  Two helpers build it:
``_power_maps_into`` decides L^s(V) in V from the first images L(B) of V's
basis B, with no operator power built and no span, and ``_orbit_span``
spans one orbit V + L(V) + ... + L^(s-1)(V).  The orbit stops below L^s
because L^s(V) lies in V already.

* ``one_step_closure(V, L, n)`` is the smallest L-invariant superspace when
  V is L^n-invariant (precondition and result are checked exactly);
* ``invariant_closure(V, [(L_1, s_1), ..., (L_t, s_t)])`` is the smallest
  subspace containing V invariant under every L_i, independent of the
  operator labelling.  It applies each L_i to B once: an operator whose
  images lie in V meets its precondition and gets no orbit, since the
  products of the other operators' powers are already invariant under it;
  V invariant under every L_i is returned with no span built.  Every other
  operator gets one orbit, and the result is checked once against every
  L_i.

``saturate`` is the independent fixed-point oracle: it keeps adjoining
operator images until the dimension stabilizes, with an iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InternalError,
    MalformedInput,
    PreconditionNotInvariant,
)
from .expcoef import ExpCoefficient
from .exppoly import ExpPolynomial, atom_sort_key
from .linalg import ff_echelon, ff_is_member
from .opalg import TranslationPolynomial
from .scalar import NumberField


def _coordinates(f: ExpPolynomial, col: dict):
    """Coefficients of f over the atoms numbered by ``col`` ((alpha, freq) ->
    column), or None when f uses an atom outside them."""
    row = [ExpCoefficient.zero(f.field)] * len(col)
    for freq, poly in f.terms.items():
        for alpha, c in poly.items():
            i = col.get((alpha, freq))
            if i is None:
                return None
            row[i] = c
    return row


class FunctionSubspace:
    __slots__ = ("field", "dim_ambient", "atoms", "rows", "pivots", "_col")

    def __init__(self, field: NumberField, dim_ambient: int, atoms, rows, pivots):
        self.field = field
        self.dim_ambient = dim_ambient
        self.atoms = tuple(atoms)
        self._col = {a: i for i, a in enumerate(self.atoms)}
        self.rows = [list(r) for r in rows]
        self.pivots = list(pivots)

    # -- construction -----------------------------------------------------

    @staticmethod
    def span(generators, dim: int | None = None, field: NumberField | None = None
             ) -> "FunctionSubspace":
        gens = [g for g in generators if not g.is_zero()]
        if not gens and (dim is None or field is None):
            raise DimensionMismatch(
                "spanning the zero space needs explicit dim and field")
        if gens:
            field = gens[0].field
            dim = gens[0].dim
            for g in gens:
                if g.dim != dim:
                    raise DimensionMismatch("generators of different dimension")
                if not (g.field is field or g.field == field):
                    raise FieldMismatch("generators over different fields")
        atoms = sorted({(alpha, freq) for g in gens for freq, poly in g.terms.items()
                        for alpha in poly}, key=lambda af: atom_sort_key(*af))
        col = {a: i for i, a in enumerate(atoms)}
        ech, piv = ff_echelon([_coordinates(g, col) for g in gens])
        return FunctionSubspace(field, dim, atoms, ech, piv)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_polynomials(self):
        # the ExpPolynomial constructor drops the zero entries of each row
        out = []
        for row in self.rows:
            terms: dict = {}
            for (alpha, freq), c in zip(self.atoms, row):
                terms.setdefault(freq, {})[alpha] = c
            out.append(ExpPolynomial(self.field, self.dim_ambient, terms))
        return out

    # -- membership ----------------------------------------------------------

    def contains(self, f: ExpPolynomial) -> bool:
        if f.is_zero():
            return True
        if f.dim != self.dim_ambient:
            raise DimensionMismatch("membership test across dimensions")
        vec = _coordinates(f, self._col)
        if vec is None:
            return False
        return ff_is_member(vec, self.rows, self.pivots)

    def contains_all(self, fs) -> bool:
        return all(self.contains(f) for f in fs)

    def equals(self, other: "FunctionSubspace") -> bool:
        return (self.contains_all(other.basis_polynomials())
                and other.contains_all(self.basis_polynomials()))

    def is_invariant_under(self, L: TranslationPolynomial) -> bool:
        return self.contains_all(L.apply_each(self.basis_polynomials()))


def _power_maps_into(V: FunctionSubspace, L: TranslationPolynomial, images: list,
                     s: int) -> bool:
    """Whether L^s(V) lies in V, given the first images L(B) of V's basis B:
    L is applied s - 1 more times, and no span is built."""
    if s == 0:
        return True
    for _ in range(s - 1):
        images = L.apply_each(images)
    return V.contains_all(images)


def _orbit_span(V: FunctionSubspace, L: TranslationPolynomial, n: int) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V) (V itself for n < 1), with no invariance checks."""
    gens = images = V.basis_polynomials()
    for _ in range(n):
        images = L.apply_each(images)
        gens = gens + images
    return FunctionSubspace.span(gens, dim=V.dim_ambient, field=V.field)


def one_step_closure(V: FunctionSubspace, L: TranslationPolynomial, n: int
                     ) -> FunctionSubspace:
    """V + L(V) + ... + L^(n-1)(V); requires L^n(V) contained in V.

    The result is L-invariant, since L maps its last summand into L^n(V), a
    subspace of V, and it is the smallest L-invariant superspace of V.  No
    span is built before the precondition is decided.
    """
    if n < 0:
        raise PreconditionNotInvariant(0, "closure order must be >= 0")
    if n and not _power_maps_into(V, L, L.apply_each(V.basis_polynomials()), n):
        raise PreconditionNotInvariant(
            0, f"space is not invariant under the {n}-th operator power")
    out = _orbit_span(V, L, n - 1)
    if not out.is_invariant_under(L):
        raise PreconditionNotInvariant(0, "one-step closure failed invariance")
    return out


def invariant_closure(V: FunctionSubspace, ops) -> FunctionSubspace:
    """Smallest subspace containing V invariant under every listed operator.

    ``ops`` is a list of (operator, power) pairs (L_i, s_i).  Each L_i is
    applied to every vector of V's basis B once, in order, through the
    one-function action ``apply`` (so the operator layer is timed on its
    own by the benchmark's layer trace).  When L_i(B) lies in V, V is
    L_i-invariant and meets the precondition L_i^(s_i)(V) in V; otherwise
    the first images decide that precondition and the first failing index
    raises.  When every L_i(B) lies in V, V is its own smallest invariant
    superspace and is returned with no span built.

    Otherwise each operator that V is not invariant under takes one orbit
    step, V + L_i(V) + ... + L_i^(s_i - 1)(V), and the result is checked
    against every L_i.  Since the operators commute, the result is the sum
    of the products L_1^(k_1)...L_t^(k_t)(V) over k_i < s_i, with k_i = 0
    for every L_i that V is invariant under.  L_i raises k_i by one, and
    maps a product with k_i = s_i - 1 into the one with k_i = 0, as
    L_i^(s_i)(V) lies in V; an L_i that V is invariant under maps each
    product into itself.  So orbit terms L_i^(s_i)(V), or orbits of those
    operators, would add nothing.  Each product lies in the smallest
    invariant superspace W of V, and a result that passes the final check
    is invariant and contains V, so it is W.
    """
    basis = V.basis_polynomials()
    orbits = []
    for i, (L, s) in enumerate(ops):
        if s < 0:
            raise MalformedInput("operator powers must be >= 0")
        if L.dim != V.dim_ambient:
            raise DimensionMismatch(f"operator {i} acts in dimension {L.dim}, "
                                    f"the space in dimension {V.dim_ambient}")
        first = [L.apply(f) for f in basis]
        if V.contains_all(first):
            continue
        if not _power_maps_into(V, L, first, s):
            raise PreconditionNotInvariant(i)
        orbits.append((L, s))
    if not orbits:
        return V
    cur = V
    for L, s in orbits:
        cur = _orbit_span(cur, L, s - 1)
    for i, (L, _) in enumerate(ops):
        if not cur.is_invariant_under(L):
            raise PreconditionNotInvariant(i, "iterated closure lost invariance")
    bound = V.dim
    for _, s in ops:
        bound *= s + 1
    if cur.dim > bound:
        raise InternalError(
            f"closure reached dimension {cur.dim}, above its construction bound {bound}")
    return cur


@dataclass
class SaturationResult:
    space: FunctionSubspace
    iterations: int
    capped: bool


def saturate(V: FunctionSubspace, ops, cap: int = 32) -> SaturationResult:
    """Fixed-point oracle: adjoin operator images until the span stabilizes.

    ``ops`` is a plain list of operators.  Stops early when every image is
    already a member; flags ``capped`` instead of raising when the iteration
    budget runs out.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    cur = V
    for it in range(cap):
        images = []
        stable = True
        for L in ops:
            for img in L.apply_each(cur.basis_polynomials()):
                if not cur.contains(img):
                    stable = False
                    images.append(img)
        if stable:
            return SaturationResult(cur, it, False)
        cur = FunctionSubspace.span(cur.basis_polynomials() + images,
                                    dim=V.dim_ambient, field=V.field)
    return SaturationResult(cur, cap, True)
