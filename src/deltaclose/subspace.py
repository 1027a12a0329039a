"""Finite-dimensional subspaces of the exponential-polynomial space.

A subspace is stored as a fraction-free reduced echelon matrix over the atom
list (multi-index, frequency) of its basis; membership, invariance, and the
one-step / iterated invariant closures are all exact.

This module owns the row layout of a function space: ``_coordinates`` turns
an ``ExpPolynomial`` into its row over a numbered atom list, for ``span``,
``contains`` and, through ``span``, ``translation_hull``.

The two closure constructions share one orbit step V + L(V) + ... + L^n(V):

* ``one_step_closure(V, L, n)`` is the smallest L-invariant superspace when
  V is L^n-invariant (precondition and result are checked exactly);
* ``invariant_closure(V, [(L_1, s_1), ..., (L_t, s_t)])`` takes the orbit
  step once per operator and yields the smallest subspace containing V
  invariant under every L_i, independent of the operator labelling.  It
  checks its input once and its result once: the operators commute, so no
  check in between could fail.

``saturate`` is the independent fixed-point oracle: it keeps adjoining
operator images until the dimension stabilizes, with an iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, FieldMismatch, PreconditionNotInvariant
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


def _orbit_span(V: FunctionSubspace, L: TranslationPolynomial, n: int
                ) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V), with no invariance checks."""
    cur = V.basis_polynomials()
    gens = list(cur)
    for _ in range(n):
        cur = L.apply_each(cur)
        gens.extend(cur)
    return FunctionSubspace.span(gens, dim=V.dim_ambient, field=V.field)


def one_step_closure(V: FunctionSubspace, L: TranslationPolynomial, n: int
                     ) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V); requires L^n(V) contained in V.

    The result is L-invariant and is the smallest L-invariant superspace of V.
    """
    if n < 0:
        raise PreconditionNotInvariant(0, "closure order must be >= 0")
    Ln = L ** n
    if not V.contains_all(Ln.apply_each(V.basis_polynomials())):
        raise PreconditionNotInvariant(
            0, f"space is not invariant under the {n}-th operator power")
    out = _orbit_span(V, L, n)
    if not out.is_invariant_under(L):
        raise PreconditionNotInvariant(0, "one-step closure failed invariance")
    return out


def invariant_closure(V: FunctionSubspace, ops) -> FunctionSubspace:
    """Smallest subspace containing V invariant under every listed operator.

    ``ops`` is a list of (operator, power) pairs (L_i, s_i).  V is checked
    against every L_i^(s_i) up front, the orbit step runs once per operator,
    and the result is checked against every L_i.  Checks in between would
    add nothing.  The operators commute, so L_i^(s_i)(V) in V gives every
    later step's precondition.  Each step adds only L_i-images of vectors
    already in the closure, so every intermediate space lies inside the
    smallest invariant superspace W of V; a result that passes the final
    check is invariant and contains V, so it is W.
    """
    basis = V.basis_polynomials()
    for i, (L, s) in enumerate(ops):
        Ls = L ** s
        if not V.contains_all(Ls.apply_each(basis)):
            raise PreconditionNotInvariant(i)
    cur = V
    for L, s in ops:
        cur = _orbit_span(cur, L, s)
    for i, (L, _) in enumerate(ops):
        if not cur.is_invariant_under(L):
            raise PreconditionNotInvariant(i, "iterated closure lost invariance")
    bound = V.dim
    for _, s in ops:
        bound *= s + 1
    assert cur.dim <= bound, "closure exceeded its construction bound"
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
