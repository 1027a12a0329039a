"""Finite-dimensional subspaces of the exponential-polynomial space.

A subspace is stored as a fraction-free reduced echelon matrix over the atom
list (multi-index, frequency) of its basis; membership, invariance, and the
one-step / iterated invariant closures are all exact.

This module owns the row layout of a function space: ``_coordinates`` turns
an ``ExpPolynomial`` into its row over a numbered atom list, for ``span``,
``contains`` and, through ``span``, ``translation_hull``.

The two closure constructions share one orbit step V + L(V) + ... + L^n(V),
spanned from the image chain L(B), L^2(B), ..., L^n(B) of V's basis B.  Each
image is computed once: the chain's last images span L^n(V), so they decide
the precondition L^n(V) in V with no operator power L^n built, and the same
chain then spans the orbit.

* ``one_step_closure(V, L, n)`` is the smallest L-invariant superspace when
  V is L^n-invariant (precondition and result are checked exactly);
* ``invariant_closure(V, [(L_1, s_1), ..., (L_t, s_t)])`` takes the orbit
  step once per operator and yields the smallest subspace containing V
  invariant under every L_i, independent of the operator labelling.  Its
  fast path applies each L_i to B once: when every image lies in V, V is
  invariant, meets every precondition, and is its own closure, so it is
  returned with no span built and no check lost.  Otherwise those images
  start each operator's chain; the input is checked once and the result
  once, since the operators commute and no check in between could fail.

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


def _image_chain(L: TranslationPolynomial, fs: list, n: int) -> list:
    """[L(fs), L^2(fs), ..., L^n(fs)], each image list from the one before."""
    chain = []
    for _ in range(n):
        fs = L.apply_each(fs)
        chain.append(fs)
    return chain


def _orbit_span(V: FunctionSubspace, L: TranslationPolynomial, n: int,
                chain: list | None = None) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V), with no invariance checks.  ``chain`` is the
    image chain ``_image_chain(L, basis, n)`` of V's basis when already known."""
    basis = V.basis_polynomials()
    if chain is None:
        chain = _image_chain(L, basis, n)
    gens = basis + [g for images in chain for g in images]
    return FunctionSubspace.span(gens, dim=V.dim_ambient, field=V.field)


def one_step_closure(V: FunctionSubspace, L: TranslationPolynomial, n: int
                     ) -> FunctionSubspace:
    """V + L(V) + ... + L^n(V); requires L^n(V) contained in V.

    The result is L-invariant and is the smallest L-invariant superspace of V.
    The precondition is read off the last images of the orbit chain, which
    span L^n(V); no span is built before it is decided.
    """
    if n < 0:
        raise PreconditionNotInvariant(0, "closure order must be >= 0")
    basis = V.basis_polynomials()
    chain = _image_chain(L, basis, n)
    if chain and not V.contains_all(chain[-1]):
        raise PreconditionNotInvariant(
            0, f"space is not invariant under the {n}-th operator power")
    out = _orbit_span(V, L, n, chain)
    if not out.is_invariant_under(L):
        raise PreconditionNotInvariant(0, "one-step closure failed invariance")
    return out


def invariant_closure(V: FunctionSubspace, ops) -> FunctionSubspace:
    """Smallest subspace containing V invariant under every listed operator.

    ``ops`` is a list of (operator, power) pairs (L_i, s_i).  Each L_i is
    applied to every vector of V's basis B once, in order, through the
    one-function action ``apply`` (so the operator layer is timed on its
    own by the benchmark's layer trace).  When L_i(B) lies in V, V is
    L_i-invariant and so meets the precondition L_i^(s_i)(V) in V; when
    that holds for every i, V is its own smallest invariant superspace and
    is returned with no span built.  Otherwise the first images start the
    chain L_i(B), ..., L_i^(s_i)(B), whose last images span L_i^(s_i)(V)
    exactly and decide the precondition; the first failing index raises.
    The orbit step runs once per operator (the first operator's is B plus
    its chain, when that was built), and the result is checked against
    every L_i.
    Checks in between would add nothing: the operators commute, so
    L_i^(s_i)(V) in V gives every later step's precondition, and each step
    adds only L_i-images of vectors already in the closure, so every
    intermediate space lies inside the smallest invariant superspace W of
    V; a result that passes the final check is invariant and contains V, so
    it is W.
    """
    basis = V.basis_polynomials()
    invariant = True
    chain0 = None  # the first operator's chain, reused for its orbit step
    for i, (L, s) in enumerate(ops):
        if s < 0:
            raise MalformedInput("operator powers must be >= 0")
        first = [L.apply(f) for f in basis]
        if V.contains_all(first):
            continue
        invariant = False
        chain = [first] + _image_chain(L, first, s - 1)
        # first is not in V, so for s = 1 the precondition has failed already
        if s == 1 or s > 1 and not V.contains_all(chain[-1]):
            raise PreconditionNotInvariant(i)
        if i == 0:
            chain0 = chain[:s]
    if invariant:
        return V
    cur = V
    for i, (L, s) in enumerate(ops):
        cur = _orbit_span(cur, L, s, chain0 if i == 0 else None)
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
