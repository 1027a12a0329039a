"""Finite-dimensional subspaces of the exponential-polynomial space.

A subspace is stored as a fraction-free reduced echelon matrix over the atom
list (multi-index, frequency) of its basis; membership, invariance, and the
one-step / iterated invariant closures are all exact.

The two closure constructions:

* ``one_step_closure(V, L, n)``  computes V + L(V) + ... + L^n(V), which is
  the smallest L-invariant superspace when V is L^n-invariant (the
  precondition is checked exactly and enforced);
* ``invariant_closure(V, [(L_1, s_1), ..., (L_t, s_t)])`` iterates the
  one-step closure and yields the smallest subspace containing V invariant
  under every L_i, independent of the operator labelling.

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


class FunctionSubspace:
    __slots__ = ("field", "dim_ambient", "atoms", "rows", "pivots")

    def __init__(self, field: NumberField, dim_ambient: int, atoms, rows, pivots):
        self.field = field
        self.dim_ambient = dim_ambient
        self.atoms = tuple(atoms)
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
        atoms = sorted({a for g in gens for a in g.atoms()},
                       key=lambda af: atom_sort_key(*af))
        col = {a: i for i, a in enumerate(atoms)}
        rows = []
        for g in gens:
            row = [ExpCoefficient.zero(field) for _ in atoms]
            for alpha, freq in g.atoms():
                row[col[(alpha, freq)]] = g.coefficient(alpha, freq)
            rows.append(row)
        ech, piv = ff_echelon(rows)
        return FunctionSubspace(field, dim, atoms, ech, piv)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_polynomials(self):
        out = []
        for row in self.rows:
            terms: dict = {}
            for (alpha, freq), c in zip(self.atoms, row):
                if not c.is_zero():
                    terms.setdefault(freq, {})[alpha] = c
            out.append(ExpPolynomial(self.field, self.dim_ambient, terms))
        return out

    # -- membership ----------------------------------------------------------

    def _vector_of(self, f: ExpPolynomial):
        """Coordinates of f over this space's atoms, or None if f uses an
        atom outside the span's support."""
        col = {a: i for i, a in enumerate(self.atoms)}
        vec = [ExpCoefficient.zero(self.field) for _ in self.atoms]
        for alpha, freq in f.atoms():
            i = col.get((alpha, freq))
            if i is None:
                return None
            vec[i] = f.coefficient(alpha, freq)
        return vec

    def contains(self, f: ExpPolynomial) -> bool:
        if f.is_zero():
            return True
        if f.dim != self.dim_ambient:
            raise DimensionMismatch("membership test across dimensions")
        vec = self._vector_of(f)
        if vec is None:
            return False
        return ff_is_member(vec, self.rows, self.pivots)

    def contains_all(self, fs) -> bool:
        return all(self.contains(f) for f in fs)

    def equals(self, other: "FunctionSubspace") -> bool:
        return (self.contains_all(other.basis_polynomials())
                and other.contains_all(self.basis_polynomials()))

    def is_invariant_under(self, L: TranslationPolynomial) -> bool:
        return self.contains_all(L.apply(b) for b in self.basis_polynomials())


def one_step_closure(V: FunctionSubspace, L: TranslationPolynomial, n: int
                     ) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V); requires L^n(V) contained in V.

    The result is L-invariant and is the smallest L-invariant superspace of V.
    """
    if n < 0:
        raise PreconditionNotInvariant(0, "closure order must be >= 0")
    basis = V.basis_polynomials()
    Ln = L ** n
    for b in basis:
        if not V.contains(Ln.apply(b)):
            raise PreconditionNotInvariant(
                0, f"space is not invariant under the {n}-th operator power")
    gens = list(basis)
    cur = basis
    for _ in range(n):
        cur = [L.apply(b) for b in cur]
        gens.extend(cur)
    out = FunctionSubspace.span(gens, dim=V.dim_ambient, field=V.field)
    if not out.is_invariant_under(L):
        raise PreconditionNotInvariant(0, "one-step closure failed invariance")
    return out


def invariant_closure(V: FunctionSubspace, ops) -> FunctionSubspace:
    """Smallest subspace containing V invariant under every listed operator.

    ``ops`` is a list of (operator, power) pairs; V must be invariant under
    the power of each operator, which is checked exactly up front.
    """
    basis = V.basis_polynomials()
    for i, (L, s) in enumerate(ops):
        Ls = L ** s
        for b in basis:
            if not V.contains(Ls.apply(b)):
                raise PreconditionNotInvariant(i)
    cur = V
    for L, s in ops:
        cur = one_step_closure(cur, L, s)
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
            for b in cur.basis_polynomials():
                img = L.apply(b)
                if not cur.contains(img):
                    stable = False
                    images.append(img)
        if stable:
            return SaturationResult(cur, it, False)
        cur = FunctionSubspace.span(cur.basis_polynomials() + images,
                                    dim=V.dim_ambient, field=V.field)
    return SaturationResult(cur, cap, True)
