"""Group ring of formal exponentials e^mu with algebraic exponents.

An element is a finite sum  sum_j  c_j * e^(mu_j)  with pairwise distinct
exponents mu_j and nonzero coefficients c_j, both complex algebraic over the
declared field.  Multiplication follows e^a * e^b = e^(a+b).  Zero testing is
exact: the element is zero iff it has no stored term.  Soundness of that test
rests on the linear independence of exponentials with distinct algebraic
exponents (Lindemann-Weierstrass); it is the decision that makes exact
forward differencing of exponentials possible.

The class also carries an optional denominator so that quotients produced by
linear solving remain representable.  Freshly constructed ring elements have
unit denominator; the invariants quoted above apply to that canonical case.
Whenever a quotient divides out exactly the denominator is removed, so a/b
collapses back to a plain ring element when it can.  A quotient of two
unit-denominator coefficients hands ``num`` and the divisor's ``num``
straight to the normalisation, with nothing multiplied by the unit e^0 * 1.

Whether the denominator is the unit is decided once, when a coefficient is
built and normalised, and kept in a flag that ``has_unit_den`` reads; after
normalisation a one-term denominator is always the unit e^0 * 1.  Every
coefficient with the unit denominator shares one ``den`` dict per field,
``NumberField._unit_den``, built once from the field's shared complex
constants.  Negation, ``shift`` and ``scale_scalar`` change only the
numerator, so the result shares the operand's ``den`` dict and flag.
Sharing is safe because no code mutates a ``den`` (or ``num``) dict in
place: every operation builds new dicts.

The public constructor ``ExpCoefficient(field, num, den)`` drops zero
coefficients from ``num`` and normalises ``den``.  Ring results whose ``num``
is already zero-free (those of ``_dict_add``, ``_dict_mul`` and
``_dict_divexact``) and whose denominator is the unit are built by the
trusted ``_ring_element`` instead, which checks nothing.

Sparse sums.  This ring, the translation operators of ``opalg`` and the
exponential polynomials of ``exppoly`` all store an element as a dict from
keys (exponents, shift vectors, multi-indices) to coefficients, and keep one
invariant: no stored value is zero, so an element is zero iff its dict is
empty.  Every accumulation goes through ``_add_term``, the one place that
drops a key whose sum cancels; ``_dict_add`` and ``_dict_mul`` are built on
it.

Exponents are totally ordered by the lexicographic order on their coordinate
vectors.  That order is translation-invariant, which makes the ring an
integral domain and makes leading-term exact division well defined.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction

from .errors import FieldMismatch, InternalError
from .scalar import AlgebraicScalar, ComplexAlgebraic, NumberField

_DIV_STEP_HARD_CAP = 20000


def _coerce_coeff(field: NumberField, v) -> ComplexAlgebraic:
    if isinstance(v, ComplexAlgebraic):
        return v
    return ComplexAlgebraic(field.coerce(v))


def _is_one(c: ComplexAlgebraic) -> bool:
    """``c == 1`` read off the integers of c, with no ``__eq__`` call."""
    re = c.re
    return re.den == 1 and re.num[0] == 1 and not any(re.num[1:]) and not any(c.im.num)


def _add_term(out: dict, key, c) -> None:
    """``out[key] += c`` in place, dropping ``key`` when the sum is zero:
    a sparse dict built only through this never holds a zero value."""
    acc = out.get(key)
    s = c if acc is None else acc + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mu, c in b.items():
        _add_term(out, mu, c)
    return out


def _dict_neg(a: dict) -> dict:
    return {mu: -c for mu, c in a.items()}


def _vec_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _dict_mul(a: dict, b: dict, key_sum=operator.add) -> dict:
    """Product of two sparse sums: the terms of ``a`` times the terms of
    ``b``, keys combined by ``key_sum`` (exponent addition by default;
    ``_vec_add`` for shift vectors and multi-indices)."""
    out: dict = {}
    for mu, c in a.items():
        for nu, d in b.items():
            _add_term(out, key_sum(mu, nu), c * d)
    return out


def _dict_scale(a: dict, c: ComplexAlgebraic) -> dict:
    if c.is_zero():
        return {}
    return {mu: v * c for mu, v in a.items()}


def _leading(a: dict) -> ComplexAlgebraic:
    return max(a, key=lambda mu: mu.sort_key())


def _dict_divexact(num: dict, den: dict, step_cap: int | None):
    """Quotient num/den in the group ring, or None if not exactly divisible.

    Leading-term division with respect to the lexicographic exponent order;
    terminates unconditionally on exact input, and via ``step_cap`` when used
    as a divisibility probe.
    """
    if not num:
        return {}
    den_lead = _leading(den)
    den_lc = den[den_lead]
    unit_lc = _is_one(den_lc)  # then each quotient term is the remainder's lead
    rem = dict(num)
    quo: dict = {}
    steps = 0
    while rem:
        steps += 1
        if step_cap is not None and steps > step_cap:
            return None
        if steps > _DIV_STEP_HARD_CAP:
            raise InternalError("group-ring exact division failed to terminate")
        r_lead = _leading(rem)
        t_exp = r_lead - den_lead
        t_coeff = rem[r_lead] if unit_lc else rem[r_lead] / den_lc
        quo[t_exp] = t_coeff
        neg_t = -t_coeff
        for nu, d in den.items():
            _add_term(rem, t_exp + nu, neg_t * d)
    return quo


class ExpCoefficient:
    """Finite formal sum of exponentials, closed under +, -, *, exact /."""

    __slots__ = ("field", "num", "den", "_unit")

    def __init__(self, field: NumberField, num: dict, den: dict | None = None):
        self.field = field
        self.num = {mu: c for mu, c in num.items() if not c.is_zero()}
        self.den, self._unit = field._unit_den, True
        if den is not None:
            self._normalize({mu: c for mu, c in den.items() if not c.is_zero()})

    def _with_num(self, num: dict) -> "ExpCoefficient":
        """``num`` (no zero coefficient) over this coefficient's ``den``,
        shared together with its unit flag."""
        out = ExpCoefficient.__new__(ExpCoefficient)
        out.field, out.num, out.den, out._unit = self.field, num, self.den, self._unit
        return out

    # -- canonical form ----------------------------------------------------

    def _normalize(self, den: dict):
        """Divide ``num`` by ``den``, which holds no zero coefficient:
        exactly where possible, which leaves the unit denominator, else scale
        both so the leading denominator term is e^0 * 1 and keep that
        denominator."""
        if not den:
            raise ZeroDivisionError("zero denominator in exponential coefficient")
        if not self.num:
            return
        if len(den) == 1:
            ((mu, c),) = den.items()
            if not (mu.is_zero() and _is_one(c)):
                cinv = c.inverse()
                self.num = {nu - mu: v * cinv for nu, v in self.num.items()}
            return
        # multi-term denominator: try to divide out, else normalise its lead
        cap = 4 * (len(self.num) + len(den)) + 64
        quo = _dict_divexact(self.num, den, cap)
        if quo is not None:
            self.num = quo
            return
        lead = _leading(den)
        lc = den[lead]
        if not (lead.is_zero() and _is_one(lc)):
            cinv = lc.inverse()
            self.num = {nu - lead: v * cinv for nu, v in self.num.items()}
            den = {nu - lead: v * cinv for nu, v in den.items()}
        self.den, self._unit = den, False

    @property
    def has_unit_den(self) -> bool:
        """Whether the denominator is the unit e^0 * 1.  Decided once, when
        the coefficient is built and normalised (a one-term denominator is
        always divided out), and shared by ``-c``, ``shift`` and
        ``scale_scalar``; reading it builds nothing."""
        return self._unit

    def terms_sorted(self):
        return sorted(self.num.items(), key=lambda kv: kv[0].sort_key())

    def den_terms_sorted(self):
        return sorted(self.den.items(), key=lambda kv: kv[0].sort_key())

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: NumberField) -> "ExpCoefficient":
        return _ring_element(field, {})

    @staticmethod
    def one(field: NumberField) -> "ExpCoefficient":
        return ExpCoefficient.scalar(field, 1)

    @staticmethod
    def scalar(field: NumberField, c) -> "ExpCoefficient":
        cc = _coerce_coeff(field, c)
        return _ring_element(field, {} if cc.is_zero() else {field.complex_zero(): cc})

    @staticmethod
    def exponential(field: NumberField, mu: ComplexAlgebraic, coeff=1) -> "ExpCoefficient":
        cc = _coerce_coeff(field, coeff)
        return _ring_element(field, {} if cc.is_zero() else {mu: cc})

    # -- ring / field operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExpCoefficient):
            if not (self.field is other.field or self.field == other.field):
                raise FieldMismatch("exponential coefficients over different fields")
            return other
        if isinstance(other, (int, Fraction, AlgebraicScalar, ComplexAlgebraic)):
            return ExpCoefficient.scalar(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.has_unit_den and o.has_unit_den:
            return _ring_element(self.field, _dict_add(self.num, o.num))
        num = _dict_add(_dict_mul(self.num, o.den), _dict_mul(o.num, self.den))
        return ExpCoefficient(self.field, num, _dict_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return self._with_num(_dict_neg(self.num))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.has_unit_den and o.has_unit_den:
            # a single-term factor acts by shift and scale
            unit, other = (self, o) if len(self.num) == 1 else (o, self)
            if len(unit.num) == 1:
                ((mu, c),) = unit.num.items()
                out = other if mu.is_zero() else other.shift(mu)
                return out if _is_one(c) else out.scale_scalar(c)
            return _ring_element(self.field, _dict_mul(self.num, o.num))
        return ExpCoefficient(self.field, _dict_mul(self.num, o.num),
                              _dict_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero exponential coefficient")
        if self._unit and o._unit:
            # (num / 1) / (o.num / 1) = num / o.num: nothing to multiply out
            out = _ring_element(self.field, self.num)
            out._normalize(o.num)
            return out
        return ExpCoefficient(self.field, _dict_mul(self.num, o.den),
                              _dict_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (ExpCoefficient.one(self.field) / self) ** (-k)
        out = ExpCoefficient.one(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    def is_scalar(self) -> bool:
        if not self.has_unit_den:
            return False
        if not self.num:
            return True
        return len(self.num) == 1 and next(iter(self.num)).is_zero()

    def scalar_value(self) -> ComplexAlgebraic:
        """The value as a complex algebraic number; requires is_scalar()."""
        if not self.is_scalar():
            raise InternalError("coefficient is not a pure scalar")
        if not self.num:
            return self.field.complex_zero()
        return next(iter(self.num.values()))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return False
        if o is None:
            return NotImplemented
        if self.has_unit_den and o.has_unit_den:
            return self.num == o.num
        return _dict_mul(self.num, o.den) == _dict_mul(o.num, self.den)

    __hash__ = None

    def conjugate(self) -> "ExpCoefficient":
        num = {mu.conjugate(): c.conjugate() for mu, c in self.num.items()}
        den = {mu.conjugate(): c.conjugate() for mu, c in self.den.items()}
        return ExpCoefficient(self.field, num, den)

    # -- structure helpers used by the exact linear algebra --------------------

    def shift(self, mu: ComplexAlgebraic) -> "ExpCoefficient":
        """Multiply by the unit e^mu."""
        return self._with_num({nu + mu: c for nu, c in self.num.items()})

    def scale_scalar(self, c: ComplexAlgebraic) -> "ExpCoefficient":
        if c.is_zero():
            return ExpCoefficient.zero(self.field)
        return self._with_num(_dict_scale(self.num, c))

    def leading_term(self):
        """(exponent, coefficient) with lexicographically largest exponent."""
        mu = _leading(self.num)
        return mu, self.num[mu]

    def min_exponent(self) -> ComplexAlgebraic:
        return min(self.num, key=lambda m: m.sort_key())

    def divexact(self, other: "ExpCoefficient") -> "ExpCoefficient":
        """Exact quotient in the ring; both operands must have unit denominator
        and the division must come out exact (used by fraction-free elimination)."""
        if not (self.has_unit_den and other.has_unit_den):
            raise InternalError("divexact expects canonical ring elements")
        if other.is_zero():
            raise ZeroDivisionError("exact division by zero")
        return _ring_element(self.field, _dict_divexact(self.num, other.num, None))

    # -- numerics ---------------------------------------------------------------

    def evaluate(self, precision: int = 53) -> complex:
        """Numerical value  sum c_j exp(mu_j) / sum d_j exp(nu_j).

        Computed with a certified rational enclosure of theta.  For
        ``precision`` above 53 bits the sum is accumulated with mpmath and
        rounded to a machine complex at the end; the accumulation error is
        bounded by 2^(1-precision) * (term count) * max |term|.
        """
        if precision <= 53:
            den = sum(complex(c) * cmath.exp(complex(mu)) for mu, c in self.den.items())
            if not self.num:
                return 0j
            num = sum(complex(c) * cmath.exp(complex(mu)) for mu, c in self.num.items())
            return num / den
        import mpmath

        with mpmath.workprec(precision + 30):
            def term(mu, c):
                def mpq(q):
                    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

                lo, hi = mu.re.value_enclosure(Fraction(1, 2 ** (precision + 30)))
                re = (mpq(lo) + mpq(hi)) / 2
                lo, hi = mu.im.value_enclosure(Fraction(1, 2 ** (precision + 30)))
                im = (mpq(lo) + mpq(hi)) / 2
                lo, hi = c.re.value_enclosure(Fraction(1, 2 ** (precision + 30)))
                cre = (mpq(lo) + mpq(hi)) / 2
                lo, hi = c.im.value_enclosure(Fraction(1, 2 ** (precision + 30)))
                cim = (mpq(lo) + mpq(hi)) / 2
                return mpmath.mpc(cre, cim) * mpmath.exp(mpmath.mpc(re, im))

            den = mpmath.fsum((term(mu, c) for mu, c in self.den.items()))
            if not self.num:
                return 0j
            num = mpmath.fsum((term(mu, c) for mu, c in self.num.items()))
            val = num / den
            return complex(val)

    def __repr__(self):
        if self.is_zero():
            return "ExpCoefficient(0)"
        bits = []
        for mu, c in self.terms_sorted():
            if mu.is_zero():
                bits.append(f"({c.re.coords},{c.im.coords})")
            else:
                bits.append(f"({c.re.coords},{c.im.coords})*e^{mu.re.coords},{mu.im.coords}")
        s = " + ".join(bits)
        if not self.has_unit_den:
            s = f"({s}) / (...)"
        return f"ExpCoefficient({s})"


def _ring_element(field: NumberField, num: dict) -> ExpCoefficient:
    """The trusted constructor: ``num``, which must hold no zero coefficient,
    over the field's shared unit denominator."""
    out = ExpCoefficient.__new__(ExpCoefficient)
    out.field, out.num, out.den, out._unit = field, num, field._unit_den, True
    return out
