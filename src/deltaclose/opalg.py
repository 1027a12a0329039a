"""Group ring of translation operators on R^d.

A ``TranslationPolynomial`` is a finite combination  sum_y  c_y tau_y  with
shifts y in the declared field and coefficients in the exponential ring; the
identity is tau_0.  Composition is the (commutative) convolution of shifts.
Operators act on exponential polynomials; forward differences are

    delta(h, m) = sum_k C(m,k) (-1)^(m-k) tau_(k h).

The module also provides the two exact operator identities the rest of the
library leans on: the factor Q with (tau_(p h) - 1)^n = Q (tau_h - 1)^n, and
the multinomial expansion of (tau_(m1 h1 + ... + mt ht) - 1)^N into summands
each divisible by some (tau_(h_k)^(m_k) - 1)^(alpha_k).

Operators act on the left with the function-side (forward shift) convention
throughout: (sum_y c_y tau_y) f = sum_y c_y f(x + y).  ``apply_each``
accumulates that sum for a list of functions in one pass through
``exppoly._apply_terms``, with one set of shift tables per shift for the
whole list; ``apply`` is its one-function case.  It is the path of general
operators: the invariance checks and closures of ``subspace`` act through
it, and the tests keep it as the oracle for the closed form of delta_h^m.
The adjoint convention, where a pairing against test functions flips the
shift sign, is not implemented.  Negative powers of a translation are shifts
by the negated vector, so the terms range over the full group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DimensionMismatch, EmptyInput, FieldMismatch, MalformedInput
from .expcoef import ExpCoefficient, _add_term, _dict_add, _dict_mul, _dict_neg, _vec_add
from .exppoly import ExpPolynomial, _apply_terms
from .groups import _as_vector
from .scalar import NumberField


class TranslationPolynomial:
    __slots__ = ("field", "dim", "terms")

    def __init__(self, field: NumberField, dim: int, terms: dict):
        self.field = field
        self.dim = dim
        self.terms = {y: c for y, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: NumberField, dim: int) -> "TranslationPolynomial":
        return TranslationPolynomial(field, dim, {})

    @staticmethod
    def identity(field: NumberField, dim: int) -> "TranslationPolynomial":
        return TranslationPolynomial.tau(field, (field.zero(),) * dim, dim)

    @staticmethod
    def tau(field: NumberField, y, dim: int | None = None) -> "TranslationPolynomial":
        dim = dim if dim is not None else len(y)
        key = _as_vector(field, y, dim, "shift")
        return TranslationPolynomial(field, dim, {key: ExpCoefficient.one(field)})

    @staticmethod
    def delta(field: NumberField, h, m: int, dim: int | None = None) -> "TranslationPolynomial":
        """The forward-difference operator delta_h^m (m = 0 gives the identity)."""
        if m < 0:
            raise MalformedInput("difference order must be >= 0")
        dim = dim if dim is not None else len(h)
        h = _as_vector(field, h, dim, "step")
        terms: dict = {}
        for k in range(m + 1):
            shift = (field.zero(),) * dim if k == 0 else tuple(v * k for v in h)
            _add_term(terms, shift, ExpCoefficient.scalar(field, comb(m, k) * (-1) ** (m - k)))
        return TranslationPolynomial(field, dim, terms)

    # -- ring operations --------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("operators of different dimension")
        if not (self.field is other.field or self.field == other.field):
            raise FieldMismatch("operators over different fields")

    def _coerce(self, other):
        if isinstance(other, TranslationPolynomial):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, ExpCoefficient)):
            c = other if isinstance(other, ExpCoefficient) else \
                ExpCoefficient.scalar(self.field, other)
            z = tuple(self.field.zero() for _ in range(self.dim))
            return TranslationPolynomial(self.field, self.dim, {z: c})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TranslationPolynomial(self.field, self.dim, _dict_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return TranslationPolynomial(self.field, self.dim, _dict_neg(self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """Composition (convolution of shifts); commutative."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TranslationPolynomial(self.field, self.dim,
                                     _dict_mul(self.terms, o.terms, _vec_add))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise MalformedInput("operator powers must be >= 0")
        out = TranslationPolynomial.identity(self.field, self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (DimensionMismatch, FieldMismatch):
            return False
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    def shifts_sorted(self):
        return sorted(self.terms.keys(), key=lambda y: tuple(v.coords for v in y))

    # -- actions -------------------------------------------------------------

    def apply(self, f: ExpPolynomial) -> ExpPolynomial:
        """(sum_y c_y tau_y) f = sum_y c_y f(x + y): the one-function case of
        ``apply_each``."""
        return self.apply_each([f])[0]

    def apply_each(self, fs: list) -> list:
        """The images of the functions ``fs``, in order, accumulated in one
        pass (``exppoly._apply_terms``) with no translate or partial sum per
        shift; each shift's tables are built once for the list ``fs``."""
        for f in fs:
            if f.dim != self.dim:
                raise DimensionMismatch("operator and function dimensions differ")
            if not (f.field is self.field or f.field == self.field):
                raise FieldMismatch("operator and function over different fields")
        return _apply_terms(self.field, self.dim, self.terms, fs)

    def __repr__(self):
        bits = []
        for y in self.shifts_sorted():
            bits.append(f"tau_{tuple(str(v.coords) for v in y)}")
        return "TranslationPolynomial(" + " + ".join(bits) + ")" if bits else \
            "TranslationPolynomial(0)"


def divisibility_factor(field: NumberField, h, p: int, n: int,
                        dim: int | None = None) -> TranslationPolynomial:
    """The exact factor Q with (tau_(p h) - 1)^n = Q (tau_h - 1)^n.

    For positive p this is the geometric sum (1 + tau_h + ... + tau_h^(p-1))^n;
    for negative p the sign identity tau_(-h) - 1 = -tau_(-h)(tau_h - 1)
    contributes an extra unit (-tau_(p h))^n.
    """
    if p == 0:
        raise MalformedInput("p must be a nonzero integer")
    if n < 0:
        raise MalformedInput("n must be >= 0")
    dim = dim if dim is not None else len(h)
    h = _as_vector(field, h, dim, "step")
    q = abs(p)
    geo = TranslationPolynomial.zero(field, dim)
    for j in range(q):
        geo = geo + TranslationPolynomial.tau(field, tuple(v * j for v in h), dim)
    Q = geo ** n
    if p < 0:
        unit = -TranslationPolynomial.tau(field, tuple(v * p for v in h), dim)
        Q = (unit ** n) * Q
    return Q


@dataclass(frozen=True)
class TelescopeSummand:
    alpha: tuple
    op: TranslationPolynomial


def telescope_expansion(field: NumberField, steps, powers, N: int):
    """Multinomial expansion of (tau_(sum_k m_k h_k) - 1)^N.

    ``steps`` is a list of field shift vectors h_k and ``powers`` the integer
    exponents m_k.  Returns the list of summands

        N!/(a_1! ... a_t!) * prod_i tau_(sum_{j>i} m_j h_j)^(a_i)
                                    * (tau_(m_i h_i) - 1)^(a_i)

    over all multi-indices (a_1..a_t) with sum N; their sum equals the
    expanded left side exactly, and every summand has some a_k >= ceil(N/t).
    """
    t = len(steps)
    if t == 0:
        raise EmptyInput("need at least one step")
    if len(powers) != t:
        raise MalformedInput("steps and powers must have equal length")
    if N < 1:
        raise MalformedInput("N must be >= 1")
    dim = len(steps[0])
    hs = [_as_vector(field, h, dim, "step") for h in steps]
    ms = [int(m) for m in powers]

    def scaled(vec, k):
        return tuple(v * k for v in vec)

    zero_vec = tuple(field.zero() for _ in range(dim))
    suffix = [zero_vec] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix[i] = _vec_add(suffix[i + 1], scaled(hs[i], ms[i]))
    # suffix[i] = sum_{j >= i} m_j h_j ; the prefix operator for index i is tau_(suffix[i+1])

    summands = []
    for alpha in _compositions(N, t):
        coeff = factorial(N)
        for a in alpha:
            coeff //= factorial(a)
        op = TranslationPolynomial.identity(field, dim) * Fraction(coeff)
        for i, a_i in enumerate(alpha):
            if a_i == 0:
                continue
            op = op * TranslationPolynomial.tau(field, scaled(suffix[i + 1], a_i), dim)
            op = op * TranslationPolynomial.delta(field, scaled(hs[i], ms[i]), a_i, dim)
        summands.append(TelescopeSummand(tuple(alpha), op))
    return summands


def telescope_total(field: NumberField, steps, powers, N: int) -> TranslationPolynomial:
    """(tau_(sum m_k h_k) - 1)^N, the left side of the telescoping identity."""
    dim = len(steps[0])
    hs = [_as_vector(field, h, dim, "step") for h in steps]
    total = tuple(field.zero() for _ in range(dim))
    for h, m in zip(hs, powers):
        total = tuple(a + v * int(m) for a, v in zip(total, h))
    return TranslationPolynomial.delta(field, total, N, dim)


def telescope_pigeonhole_ok(summands, N: int, t: int) -> bool:
    bound = -(-N // t)
    return all(max(s.alpha) >= bound for s in summands)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
