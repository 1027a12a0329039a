"""Exact arithmetic in a declared real algebraic number field Q(theta).

A field is declared once by a monic square-free minimal polynomial together
with an isolating interval bracketing exactly one real root theta.  Every
scalar in the library is a rational-coefficient vector over the power basis
1, theta, ..., theta^(n-1); arithmetic reduces modulo the minimal polynomial,
so equality and sign are decidable.  Sign determination refines the isolating
interval by bisection until an exact rational interval enclosure of the value
excludes zero, which terminates for every nonzero algebraic number.

Irreducibility of the minimal polynomial and uniqueness of the root in the
interval are assumed, not verified.  A reducible declaration is not caught
reliably: an element vanishing at theta through another factor of the
polynomial keeps nonzero coordinates, so ``is_zero`` answers wrongly and
``sign()`` refines forever (for example x^3 - 5x^2 - 2x + 10 = (x^2 - 2)(x - 5)
on (1, 2) with theta^2 - 2).  Inverting such an element may raise a
zero-divisor error, but nothing guarantees that it is reached first.
Certifying the declaration is future work.

Scalars are built in one of four ways.  ``NumberField.element`` is the
checked entry for an outside list of power-basis coordinates.
``NumberField.rational`` builds a rational value directly, and ``zero()`` and
``one()`` return instances built once per field and shared by every caller
(scalars are immutable, so sharing is safe).  ``NumberField.coerce`` lifts any
caller-supplied value (a scalar of the same field, an int, a Fraction or a
"p/q" string) and is the one place that checks a scalar's field.  A raw
``AlgebraicScalar(field, coords)`` is built only by the arithmetic in this
module.  The complex constants ``complex_zero()`` and ``complex_one()`` are
built once per field in the same way.

Yes/no questions build nothing.  ``is_zero``, ``is_rational``, the sign and
enclosure of a rational value, and ``==`` against an int, a Fraction or a
scalar all read the coordinates they already have (for a complex value, the
coordinates of its real and imaginary parts); no operand is lifted into a
new scalar just to be compared.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import FieldMismatch, MalformedInput, NoSignChange, NotSquareFree
from .qmath import (
    frac,
    ival_poly_eval,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
)


class NumberField:
    """The real algebraic number field Q(theta).

    Instances are immutable apart from a monotonically refined enclosure of
    theta, which is guarded by a lock so values can be shared across threads.
    """

    __slots__ = ("minpoly", "degree", "_init_interval", "_lo", "_hi", "_lock",
                 "_reduction_rows", "_tail", "_zero", "_one", "_czero", "_cone")

    def __init__(self, minpoly, interval):
        minpoly = tuple(frac(c) for c in minpoly)
        if len(minpoly) < 2:
            raise MalformedInput("minimal polynomial must have degree >= 1")
        if poly_trim(list(minpoly)) != list(minpoly):
            raise MalformedInput("minimal polynomial has trailing zero coefficients")
        if minpoly[-1] != 1:
            raise MalformedInput("minimal polynomial must be monic")
        g = poly_gcd(list(minpoly), poly_deriv(list(minpoly)))
        if len(g) > 1:
            raise NotSquareFree("minimal polynomial is not square-free")
        a, b = frac(interval[0]), frac(interval[1])
        if not a < b:
            raise MalformedInput("isolating interval must satisfy a < b")
        ea, eb = poly_eval(list(minpoly), a), poly_eval(list(minpoly), b)
        if ea == 0 or eb == 0 or (ea > 0) == (eb > 0):
            raise NoSignChange("isolating interval does not bracket a root")
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self._init_interval = (a, b)
        self._lo, self._hi = a, b
        self._lock = threading.Lock()
        self._reduction_rows = self._build_reduction_rows()
        self._tail = (Fraction(0),) * (self.degree - 1)
        self._zero = self.rational(0)
        self._one = self.rational(1)
        self._czero = ComplexAlgebraic(self._zero, self._zero)
        self._cone = ComplexAlgebraic(self._one, self._zero)

    def _build_reduction_rows(self):
        # coords of theta^k for k = degree .. 2*degree-2, used to reduce products
        n = self.degree
        rows = []
        # theta^n = -(c0 + c1 theta + ... + c_{n-1} theta^{n-1})
        cur = [-c for c in self.minpoly[:n]]
        rows.append(tuple(cur))
        for _ in range(n - 2):
            nxt = [Fraction(0)] * n
            carry = cur[n - 1]
            for i in range(n - 1):
                nxt[i + 1] += cur[i]
            if carry:
                for i in range(n):
                    nxt[i] += carry * rows[0][i]
            cur = nxt
            rows.append(tuple(cur))
        return rows

    # -- root enclosure -------------------------------------------------

    def enclosure(self, width: Fraction):
        """Rational interval around theta of width <= ``width``."""
        with self._lock:
            lo, hi = self._lo, self._hi
            if hi - lo <= width:
                return lo, hi
            p = list(self.minpoly)
            slo = poly_eval(p, lo)
            while hi - lo > width:
                mid = (lo + hi) / 2
                smid = poly_eval(p, mid)
                if smid == 0:
                    lo = hi = mid
                    break
                if (smid > 0) == (slo > 0):
                    lo, slo = mid, smid
                else:
                    hi = mid
            self._lo, self._hi = lo, hi
            return lo, hi

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "AlgebraicScalar":
        coords = list(coords)
        if len(coords) > self.degree:
            raise MalformedInput("too many coordinates for field degree")
        coords = coords + [0] * (self.degree - len(coords))
        return AlgebraicScalar(self, tuple(frac(c) for c in coords))

    def rational(self, q) -> "AlgebraicScalar":
        return AlgebraicScalar(self, (frac(q),) + self._tail)

    def zero(self) -> "AlgebraicScalar":
        return self._zero

    def one(self) -> "AlgebraicScalar":
        return self._one

    def complex_zero(self) -> "ComplexAlgebraic":
        return self._czero

    def complex_one(self) -> "ComplexAlgebraic":
        return self._cone

    def coerce(self, v) -> "AlgebraicScalar":
        """``v`` as a scalar of this field: a scalar of this field as it is,
        an int, Fraction or "p/q" string as that rational.  A scalar of
        another field raises FieldMismatch, anything else TypeError."""
        if isinstance(v, AlgebraicScalar):
            if v.field is self or v.field == self:
                return v
            raise FieldMismatch("scalar from a different number field")
        return self.rational(v)

    def gen(self) -> "AlgebraicScalar":
        """theta itself (equals the rational root for degree-1 fields)."""
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return self.element([0, 1])

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        return (self.minpoly == other.minpoly
                and self._init_interval == other._init_interval)

    def __hash__(self):
        return hash((self.minpoly, self._init_interval))

    def __repr__(self):
        return f"NumberField(minpoly={[str(c) for c in self.minpoly]}, interval={self._init_interval})"


def make_field(minpoly, interval) -> NumberField:
    """Declare Q(theta) from a monic minimal polynomial and isolating interval."""
    return NumberField(minpoly, interval)


def rational_field() -> NumberField:
    """The degree-1 field encoding plain Q (theta = 0)."""
    return NumberField([0, 1], (-1, 1))


class AlgebraicScalar:
    """An element of the declared field, stored over the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(coords)

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (AlgebraicScalar, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicScalar(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.field, tuple(-a for a in self.coords))

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
        n = self.field.degree
        if n == 1:
            return AlgebraicScalar(self.field, (self.coords[0] * o.coords[0],))
        # rational factors avoid the full convolution and reduction
        if not any(self.coords[1:]):
            q = self.coords[0]
            if q == 1:
                return o
            return AlgebraicScalar(self.field, tuple(q * b for b in o.coords))
        if not any(o.coords[1:]):
            q = o.coords[0]
            if q == 1:
                return self
            return AlgebraicScalar(self.field, tuple(q * a for a in self.coords))
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:n])
        rows = self.field._reduction_rows
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                row = rows[k - n]
                for i in range(n):
                    out[i] += c * row[i]
        return AlgebraicScalar(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """Multiplicative inverse via the extended Euclidean algorithm.

        Raises ZeroDivisionError for zero and for zero divisors (the latter
        only occur if the declared minimal polynomial was reducible).
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        n = self.field.degree
        if n == 1:
            return AlgebraicScalar(self.field, (1 / self.coords[0],))
        # extended gcd of the coordinate polynomial with the minimal polynomial
        r0, r1 = list(self.field.minpoly), poly_trim(list(self.coords))
        s0, s1 = [], [Fraction(1)]  # coefficients of the second argument
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        if len(r0) != 1:
            raise ZeroDivisionError(
                "zero divisor encountered: declared minimal polynomial is reducible")
        inv = [c / r0[0] for c in s0]
        _, rem = poly_divmod(inv, list(self.field.minpoly))
        return self.field.element(rem)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- decision procedures ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """-1, 0, or +1; exact, via interval refinement of theta."""
        if not any(self.coords[1:]):
            q = self.coords[0]
            return (q > 0) - (q < 0)
        width = Fraction(1, 2**8)
        p = poly_trim(list(self.coords))
        while True:
            box = self.field.enclosure(width)
            lo, hi = ival_poly_eval(p, box)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            width /= 4

    def value_enclosure(self, eps: Fraction):
        """Exact rational interval of width <= eps containing the value."""
        if not any(self.coords[1:]):
            return (self.coords[0], self.coords[0])
        width = Fraction(1, 2**8)
        p = poly_trim(list(self.coords))
        while True:
            lo, hi = ival_poly_eval(p, self.field.enclosure(width))
            if hi - lo <= eps:
                return lo, hi
            width /= 4

    def __float__(self):
        lo, hi = self.value_enclosure(Fraction(1, 2**64))
        return float((lo + hi) / 2)

    def floor(self) -> int:
        """Exact floor of the real value."""
        if self.is_rational():
            q = self.coords[0]
            return q.numerator // q.denominator
        eps = Fraction(1, 2**20)
        while True:
            lo, hi = self.value_enclosure(eps)
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi:
                return flo
            # an irrational value cannot sit on an integer, so this terminates
            eps /= 16

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise MalformedInput("value is not rational")
        return self.coords[0]

    def abs(self) -> "AlgebraicScalar":
        return -self if self.sign() < 0 else self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            return self.coords == other.coords and (
                self.field is other.field or self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and not any(self.coords[1:])
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() >= 0

    def __hash__(self):
        # rational values hash like the equal int / Fraction
        if self.is_rational():
            return hash(self.coords[0])
        return hash(self.coords)

    def __repr__(self):
        return "AlgebraicScalar(" + ", ".join(str(c) for c in self.coords) + ")"


class ComplexAlgebraic:
    """Complexification of the declared field: re + i*im."""

    __slots__ = ("re", "im", "_hash", "_key")

    def __init__(self, re: AlgebraicScalar, im: AlgebraicScalar | None = None):
        self.re = re
        self.im = im if im is not None else re.field.zero()
        self._hash = None
        self._key = None

    @property
    def field(self) -> NumberField:
        return self.re.field

    def _coerce(self, other):
        if isinstance(other, ComplexAlgebraic):
            if other.re.field is not self.re.field:
                self.field.coerce(other.re)  # raises FieldMismatch for another field
            return other
        if isinstance(other, (AlgebraicScalar, int, Fraction)):
            return ComplexAlgebraic(self.field.coerce(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexAlgebraic(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexAlgebraic(-self.re, -self.im)

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
        if self.im.is_zero():
            if o.im.is_zero():
                return ComplexAlgebraic(self.re * o.re)
            return ComplexAlgebraic(self.re * o.re, self.re * o.im)
        if o.im.is_zero():
            return ComplexAlgebraic(self.re * o.re, self.im * o.re)
        return ComplexAlgebraic(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexAlgebraic":
        return ComplexAlgebraic(self.re, -self.im)

    def inverse(self) -> "ComplexAlgebraic":
        norm = self.re * self.re + self.im * self.im
        inv = norm.inverse()
        return ComplexAlgebraic(self.re * inv, -(self.im * inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def is_zero(self) -> bool:
        return not (any(self.re.coords) or any(self.im.coords))

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, ComplexAlgebraic):
            return self.re == other.re and self.im.coords == other.im.coords
        if isinstance(other, (AlgebraicScalar, int, Fraction)):
            return not any(self.im.coords) and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values hash like the equal AlgebraicScalar (hence int / Fraction)
        if self._hash is None:
            self._hash = hash(self.re) if self.im.is_zero() else \
                hash((self.re.coords, self.im.coords))
        return self._hash

    def sort_key(self):
        """Total order key compatible with addition; used for canonical forms."""
        if self._key is None:
            self._key = self.re.coords + self.im.coords
        return self._key

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexAlgebraic({self.re!r}, {self.im!r})"


def calg(field: NumberField, re=0, im=0) -> ComplexAlgebraic:
    """Convenience constructor from rationals / coordinate lists."""
    def mk(v):
        if isinstance(v, (list, tuple)):
            return field.element(v)
        return field.coerce(v)
    return ComplexAlgebraic(mk(re), mk(im))
