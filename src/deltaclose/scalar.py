"""Exact arithmetic in a declared real algebraic number field Q(theta).

A field is declared once by a monic square-free minimal polynomial together
with an isolating interval bracketing exactly one real root theta.  Every
scalar in the library is a vector over the power basis 1, theta, ...,
theta^(n-1) with rational coordinates; arithmetic reduces modulo the minimal
polynomial, so equality and sign are decidable.  Sign determination refines
the isolating interval by bisection until an exact rational interval
enclosure of the value excludes zero, which terminates for every nonzero
algebraic number.

Irreducibility of the minimal polynomial and uniqueness of the root in the
interval are assumed, not verified.  A reducible declaration is not caught
reliably: an element vanishing at theta through another factor of the
polynomial keeps nonzero coordinates, so ``is_zero`` answers wrongly and
``sign()`` refines forever (for example x^3 - 5x^2 - 2x + 10 = (x^2 - 2)(x - 5)
on (1, 2) with theta^2 - 2).  Inverting such an element may raise a
zero-divisor error, but nothing guarantees that it is reached first.
Certifying the declaration is future work.

Representation.  A scalar stores its coordinates as a tuple ``num`` of n
integer numerators over one common denominator ``den`` > 0, in lowest terms:
gcd(den, *num) = 1.  Each value therefore has exactly one representation,
and all ring arithmetic and every zero, unit, equality and sign decision
works on Python ints.  Products reduce modulo the minimal polynomial with
reduction rows scaled to integers once per field, over one row denominator
(1 when the minimal polynomial has integer coefficients).  ``coords``, the
coordinates as ``Fraction``s, is a read-only view derived from ``num`` and
``den`` on first read and cached; encoders, displays and canonical sort keys
read it, the arithmetic does not.

Inverse and square-free test.  One fraction-free (Bareiss) solve,
``_unit_solve``, of the integer multiplication matrix of a numerator
polynomial gives an irrational value's inverse, and finds a zero divisor by
a singular matrix.  The declaration is square-free iff p'(theta) is a unit,
so the same solve runs on the integer derivative; the bracket test reads the
sign of the integer minimal polynomial at both ends.  ``sign``,
``value_enclosure`` and ``floor`` share one refinement schedule: interval
Horner on integer numerators over powers of the box's common denominator
(``_interval_horner``), whose endpoints are those of the same Horner over
Fractions, at theta-widths 2^-8, 2^-10, ....  ``sign`` and ``floor`` walk
it over the field's current boxes (``_refinements``); ``value_enclosure``
reads the boxes a newly declared field reaches at each step
(``NumberField._schedule_box``), so an enclosure, and a float, depends on
the value and the field's declaration only.

Construction.  Every scalar is built by one trusted builder, ``_make``, from
a ``num`` and ``den`` that are already in lowest terms; ``_lowest`` divides
out their gcd first, and every arithmetic result goes through one of the
two.  Three checked entries normalise outside input and then call the
builder: ``NumberField.element`` (a list of power-basis coordinates),
``NumberField.rational`` (one rational) and the public
``AlgebraicScalar(field, coords)``.  ``zero()`` and ``one()`` return
instances built once per field and shared by every caller (scalars are
immutable, so sharing is safe), as do ``complex_zero()`` and
``complex_one()``.  Complex values come from the public
``ComplexAlgebraic(re, im)`` or, for arithmetic results, from the trusted
``_complex``; a sum, difference or product of two values of the same field
object works on the imaginary parts only where they are nonzero, so real
values do real arithmetic alone.  ``NumberField.coerce`` lifts any
caller-supplied value (a scalar of the same field, an int, a Fraction or a
"p/q" string) and is the one place that checks a foreign scalar's field; the
arithmetic passes an operand of the same field object straight through.

Floats.  ``float(x)`` of a rational value is num/den, correctly rounded.
An irrational value is refined to a 2^-64 enclosure once per field: the
result is kept in a memo on the ``NumberField`` under ``(num, den)``, which
equal values share, so scalars carry no float slot and repeated evaluation
of the same constants refines nothing.  The float is the midpoint of the
enclosure ``value_enclosure`` gives, which is the one a newly declared
field gives, however far theta was already refined; so a float does not
depend on what the process computed before.  The CLI decodes one field
object per declaration and process (``jsonio.decode_field``), so the memo
and the refined enclosure of theta are shared by every document of the
process that declares the field.

Yes/no questions build nothing.  ``is_zero``, ``is_rational``, the sign and
enclosure of a rational value, and ``==`` against an int, a Fraction or a
scalar all read ``num`` and ``den`` (for a complex value, those of its real
and imaginary parts); no operand is lifted into a new scalar just to be
compared.  A rational value hashes like the equal int or Fraction; any other
value hashes its ``(num, den)`` pair, which equal values share.

A zero or unit factor builds nothing.  Most coordinates the engine
multiplies are 0 or 1: the steps of a construction are unit vectors, their
theta-multiples and a few rationals.  So, once the operand's field is
checked, a product with a zero factor returns that zero operand and a
product with the unit 1 returns the other operand; a sum with a zero term
returns the other term.  A complex value times a real scalar of the same
field object multiplies the two parts by it directly, with no complex
wrapper around the scalar; a zero scalar gives the shared
``complex_zero()`` and the scalar 1 the complex value itself.  Every result
is the value the full product or sum gives, in the same lowest terms.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, MalformedInput, NoSignChange, NotSquareFree


_FLOAT_MEMO_CAP = 1 << 12  # entries of one field's float memo before it is cleared


class NumberField:
    """The real algebraic number field Q(theta).

    Instances are immutable apart from a monotonically refined enclosure of
    theta, which is guarded by a lock so values can be shared across threads.
    """

    __slots__ = ("minpoly", "degree", "_init_interval", "_lo", "_hi", "_lock",
                 "_int_minpoly", "_reduction_rows", "_row_den", "_tail", "_zero", "_one",
                 "_czero", "_cone", "_unit_den", "_floats", "_boxes")

    def __init__(self, minpoly, interval):
        minpoly = tuple(_frac(c) for c in minpoly)
        if len(minpoly) < 2:
            raise MalformedInput("minimal polynomial must have degree >= 1")
        if minpoly[-1] == 0:
            raise MalformedInput("minimal polynomial has trailing zero coefficients")
        if minpoly[-1] != 1:
            raise MalformedInput("minimal polynomial must be monic")
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        # a positive integer multiple of the minimal polynomial: same signs
        scale = lcm(*(c.denominator for c in minpoly))
        self._int_minpoly = p = tuple(c.numerator * (scale // c.denominator) for c in minpoly)
        self._reduction_rows, self._row_den = _reduction_rows(p)
        # p is square-free iff gcd(p, p') = 1, iff p'(theta) is a unit
        if _unit_solve(self, tuple(i * c for i, c in enumerate(p))[1:]) is None:
            raise NotSquareFree("minimal polynomial is not square-free")
        a, b = _frac(interval[0]), _frac(interval[1])
        if not a < b:
            raise MalformedInput("isolating interval must satisfy a < b")
        sa = _homogeneous_sign(p, a.numerator, a.denominator)
        sb = _homogeneous_sign(p, b.numerator, b.denominator)
        if sa == 0 or sb == 0 or sa == sb:
            raise NoSignChange("isolating interval does not bracket a root")
        self._init_interval = (a, b)
        self._lo, self._hi = a, b
        self._lock = threading.Lock()
        self._tail = (0,) * (self.degree - 1)
        self._zero = self.rational(0)
        self._one = self.rational(1)
        self._czero = ComplexAlgebraic(self._zero, self._zero)
        self._cone = ComplexAlgebraic(self._one, self._zero)
        # the unit denominator {e^0: 1} that every unit-denominator
        # ExpCoefficient of this field shares (see expcoef); never mutated
        self._unit_den = {self._czero: self._cone}
        # float(x) of irrational values, keyed by (num, den); see __float__
        self._floats = {}
        # the boxes of the refinement schedule, by step; see _schedule_box
        self._boxes = {}

    # -- root enclosure -------------------------------------------------

    def enclosure(self, width: Fraction):
        """Rational interval around theta of width <= ``width``.

        Bisection on integers: the interval is (lo, hi) = (a, b) / den, each
        step doubles den and tests the midpoint a + b, and the sign of the
        minimal polynomial there is that of its integer homogenisation.  The
        midpoints and the returned Fractions are those of a bisection over
        Fractions."""
        with self._lock:
            lo, hi = self._lo, self._hi
            if hi - lo <= width:
                return lo, hi
            den = lcm(lo.denominator, hi.denominator)
            a = lo.numerator * (den // lo.denominator)
            b = hi.numerator * (den // hi.denominator)
            p = self._int_minpoly
            slo = _homogeneous_sign(p, a, den)
            wn, wd = width.numerator, width.denominator
            while (b - a) * wd > wn * den:
                mid = a + b
                a, b, den = 2 * a, 2 * b, 2 * den
                smid = _homogeneous_sign(p, mid, den)
                if smid == 0:
                    a = b = mid
                    break
                if smid == slo:
                    a = mid
                else:
                    b = mid
            self._lo, self._hi = lo, hi = Fraction(a, den), Fraction(b, den)
            return lo, hi

    def _schedule_box(self, k: int):
        """Step k of the refinement schedule, theta-width 2^-8 / 4^k, on a
        newly declared field: the integers (a, b, D) of the box (a/D, b/D)
        its ``enclosure`` returns there, whatever this field has refined
        since.  A bisection box of level j is a0 + [i, i + 1] (b0 - a0) / 2^j
        for the declared (a0, b0), nested in the boxes above it, so it is
        this field's box rounded outward to that grid; a root hit exactly at
        a midpoint (a point box) is that point from its own level on.  Kept
        in ``_boxes`` by step (``value_enclosure`` asks for the steps in
        order, so they are 0 .. len - 1); threads racing on a step store the
        same box."""
        box = self._boxes.get(k)
        if box is not None:
            return box
        # over D0 2^j, with a0 = A / D0 and b0 - a0 = W / D0
        a0, b0 = self._init_interval
        D0 = lcm(a0.denominator, b0.denominator)
        A = a0.numerator * (D0 // a0.denominator)
        W = b0.numerator * (D0 // b0.denominator) - A
        # level j: the first with w0 / 2^j <= 2^-8 / 4^k, i.e. 2^j >= c
        c = -(-(W << (8 + 2 * k)) // D0)
        j = (c - 1).bit_length() if c > 1 else 0
        lo, hi = self.enclosure(Fraction(W, D0 << j))
        p, q = lo.numerator, lo.denominator
        i, rem = divmod((p * D0 - A * q) << j, W * q)
        a = (A << j) + i * W
        box = (a, a, D0 << j) if lo == hi and not rem else (a, a + W, D0 << j)
        self._boxes[k] = box
        return box

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "AlgebraicScalar":
        coords = list(coords)
        if len(coords) > self.degree:
            raise MalformedInput("too many coordinates for field degree")
        coords += [0] * (self.degree - len(coords))
        return _make(self, *_common_den(coords))

    def rational(self, q) -> "AlgebraicScalar":
        if not isinstance(q, (int, Fraction)):
            q = _frac(q)  # an int or Fraction is already in lowest terms
        return _make(self, (q.numerator,) + self._tail, q.denominator)

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


def _common_den(coords):
    """``(num, den)`` for a list of rationals: each coordinate over their
    least common denominator, which leaves gcd(den, *num) = 1."""
    qs = [_frac(c) for c in coords]
    den = lcm(*(q.denominator for q in qs))
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


class AlgebraicScalar:
    """An element of the declared field, stored over the power basis as
    integer numerators ``num`` over one denominator ``den`` (see the module
    docstring)."""

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field: NumberField, coords):
        coords = list(coords)
        if len(coords) != field.degree:
            raise MalformedInput("scalar needs one coordinate per power of theta")
        self.field = field
        self.num, self.den = _common_den(coords)
        self._coords = None

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as ``Fraction``s (a cached view)."""
        if self._coords is None:
            d = self.den
            self._coords = tuple(Fraction(a, d) for a in self.num)
        return self._coords

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicScalar):
            return other if other.field is self.field else self.field.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        if type(other) is AlgebraicScalar and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        # a zero term builds nothing
        if not any(o.num):
            return self
        if not any(self.num):
            return o
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(operator.add, self.num, o.num))
            return _make(self.field, num, 1) if da == 1 else _lowest(self.field, num, da)
        # over lcm(da, db); coprime denominators leave the sum in lowest terms
        g = gcd(da, db)
        sa, sb = db // g, da // g
        num = tuple(a * sa + b * sb for a, b in zip(self.num, o.num))
        return (_make if g == 1 else _lowest)(self.field, num, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple(map(operator.neg, self.num)), self.den)

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
        if type(other) is AlgebraicScalar and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b = self.num, o.num
        # a zero or unit factor builds nothing
        if not any(a):
            return self
        if not any(b):
            return o
        field = self.field
        # rational factors (every factor of a degree-1 field) avoid the full
        # convolution and reduction
        if not any(a[1:]):
            q = a[0]
            if q == 1 and self.den == 1:
                return o
            if b[0] == 1 and o.den == 1 and not any(b[1:]):
                return self
            return _lowest(field, tuple(q * c for c in b), self.den * o.den)
        if not any(b[1:]):
            q = b[0]
            if q == 1 and o.den == 1:
                return self
            return _lowest(field, tuple(q * c for c in a), self.den * o.den)
        n = field.degree
        den = self.den * o.den
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # theta^k = rows[k - n] / R for k >= n, so scale the low part by R
        R = field._row_den
        out = prod[:n] if R == 1 else [R * c for c in prod[:n]]
        rows = field._reduction_rows
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                for i, r in enumerate(rows[k - n]):
                    if r:
                        out[i] += c * r
        return _lowest(field, tuple(out), den * R)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """Multiplicative inverse: d/a for a rational value a/d, else R*den*y/det
        from the fraction-free solve ``_unit_solve`` of the multiplication
        matrix.

        Raises ZeroDivisionError for zero and for zero divisors (the latter
        only occur if the declared minimal polynomial was reducible).
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        field = self.field
        if not any(self.num[1:]):
            # a rational value a/d (every value of a degree-1 field): d/a
            a, d, tail = self.num[0], self.den, field._tail
            return _make(field, (d,) + tail, a) if a > 0 else _make(field, (-d,) + tail, -a)
        solved = _unit_solve(field, self.num)
        if solved is None:
            raise ZeroDivisionError(
                "zero divisor encountered: declared minimal polynomial is reducible")
        y, det = solved
        # num(theta) * y(theta) = det / R, and the value is num(theta) / den
        scale = field._row_den * self.den if det > 0 else -field._row_den * self.den
        return _lowest(field, tuple(scale * c for c in y), abs(det))

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
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def sign(self) -> int:
        """-1, 0, or +1; exact, via interval refinement of theta.  Since
        den > 0, the value has the sign of the numerator polynomial."""
        num = self.num
        if not any(num[1:]):
            q = num[0]
            return (q > 0) - (q < 0)
        for lo, hi, _ in _refinements(self.field, num):
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def value_enclosure(self, eps: Fraction):
        """Exact rational interval of width <= eps containing the value: the
        enclosure over the box of the first step of the refinement schedule
        at which a newly declared field's box gives one
        (``NumberField._schedule_box``).  So it depends on the value and the
        field's declaration only, not on how far theta was already refined."""
        den = self.den
        if not any(self.num[1:]):
            q = Fraction(self.num[0], den)
            return (q, q)
        field, num = self.field, self.num
        en, ed = eps.numerator, eps.denominator

        def at(k):
            # the numerator polynomial's enclosure (lo, hi) / scale is den
            # times the value's, so its width is at most eps iff
            # hi - lo <= eps*den*scale
            lo, hi, scale = _integer_horner(num, *field._schedule_box(k))
            if (hi - lo) * ed <= en * den * scale:
                return Fraction(lo, den * scale), Fraction(hi, den * scale)
            return None

        # the boxes are nested from step to step, so the enclosures are too,
        # and their widths only shrink: the first step that gives one is
        # found by bisection among the steps already kept, past them by
        # walking on
        last = len(field._boxes) - 1
        found = at(last) if last >= 0 else None
        if found is None:
            k = last + 1
            while (found := at(k)) is None:
                k += 1
            return found
        first = 0
        while first < last:
            mid = (first + last) // 2
            got = at(mid)
            if got is None:
                first = mid + 1
            else:
                last, found = mid, got
        return found

    def __float__(self):
        """The midpoint of ``value_enclosure(2^-64)``, rounded.  A rational
        value is num/den, correctly rounded; an irrational one is refined
        once per field and kept in ``NumberField._floats`` under its
        ``(num, den)``, which equal values share (cleared when it reaches
        ``_FLOAT_MEMO_CAP`` entries).  Threads racing on one value may both
        refine it; they store the same float, so the memo needs no lock."""
        num, den = self.num, self.den
        if not any(num[1:]):
            return num[0] / den
        memo = self.field._floats
        key = (num, den)
        v = memo.get(key)
        if v is None:
            lo, hi = self.value_enclosure(Fraction(1, 2**64))
            v = float((lo + hi) / 2)
            if len(memo) >= _FLOAT_MEMO_CAP:
                memo.clear()
            memo[key] = v
        return v

    def floor(self) -> int:
        """Exact floor of the real value."""
        if self.is_rational():
            return self.num[0] // self.den
        # an irrational value cannot sit on an integer, so this terminates
        for lo, hi, scale in _refinements(self.field, self.num):
            flo, fhi = lo // (self.den * scale), hi // (self.den * scale)
            if flo == fhi:
                return flo

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise MalformedInput("value is not rational")
        return Fraction(self.num[0], self.den)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            return self.num == other.num and self.den == other.den and (
                self.field is other.field or self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and not any(self.num[1:]))
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
        if self.is_rational():
            # like the equal int / Fraction
            q, d = self.num[0], self.den
            return hash(q) if d == 1 else hash(Fraction(q, d))
        return hash((self.num, self.den))

    def __repr__(self):
        return "AlgebraicScalar(" + ", ".join(str(c) for c in self.coords) + ")"


def _homogeneous_sign(p, num: int, den: int) -> int:
    """Sign of the integer polynomial p (coefficients lowest degree first)
    at num / den, den > 0: the sign of den^deg * p(num / den)."""
    acc, dpow = p[-1], 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _refinements(field: NumberField, num):
    """The one refinement schedule of ``sign`` and ``floor``: the integer
    enclosures ``_interval_horner(num, box)`` of the numerator polynomial
    over theta boxes of width 2^-8, 2^-10, ..., without end; each caller
    stops at its own test."""
    width = Fraction(1, 2**8)
    while True:
        yield _interval_horner(num, field.enclosure(width))
        width /= 4


def _interval_horner(num, box):
    """Interval Horner of the integer polynomial ``num`` (lowest degree first,
    not all zero) over the rational box around its argument, in integers:
    ``(lo, hi, scale)`` for the enclosure (lo, hi) / scale, scale = D^k with D
    the box's common denominator.  Scaling by D > 0 keeps every min/max
    choice, so the endpoints are those of the same Horner over Fractions."""
    D = lcm(box[0].denominator, box[1].denominator)
    a, b = (q.numerator * (D // q.denominator) for q in box)
    return _integer_horner(num, a, b, D)


def _integer_horner(num, a, b, D):
    """``_interval_horner`` over the box (a/D, b/D), D > 0, given as
    integers."""
    k = len(num) - 1
    while not num[k]:
        k -= 1
    lo = hi = num[k]
    scale = 1
    for c in reversed(num[:k]):
        scale *= D
        v = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(v) + c * scale, max(v) + c * scale
    return lo, hi, scale


def _reduction_rows(p):
    """Integer rows R * coords(theta^k), k = n .. 2n-2, which reduce products,
    and their least common denominator R, for the integer minimal polynomial
    p of degree n.  theta^k is a row over s^(k-n+1), s the leading
    coefficient of p; the common factor is divided out at the end."""
    n, s = len(p) - 1, p[-1]
    rows = [[-c for c in p[:n]]]
    for _ in range(n - 2):
        # theta * cur / s^j = (s * shift(cur) + cur[n-1] * rows[0]) / s^(j+1)
        cur = rows[-1]
        rows.append([s * x + cur[n - 1] * f for x, f in zip([0] + cur[:-1], rows[0])])
    top = len(rows)
    rows = [[c * s ** (top - 1 - j) for c in row] for j, row in enumerate(rows)]
    g = gcd(s ** top, *(c for row in rows for c in row))
    return [tuple(c // g for c in row) for row in rows], s ** top // g


def _unit_solve(field: NumberField, num):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of [A | e_0], A the
    integer matrix R * (multiplication by num(theta)), R = ``field._row_den``.
    Returns ``(y, det)`` with A y = det e_0, det = +-det(A), so that
    num(theta) y(theta) = det / R; ``None`` when A is singular, that is when
    num(theta) is zero or a zero divisor.  Every division is exact."""
    n, R, red = field.degree, field._row_den, field._reduction_rows
    A = [[0] * n + [int(i == 0)] for i in range(n)]
    for j in range(n):  # column j: R * coords(num(theta) * theta^j)
        for t, c in enumerate(num):
            if c and t + j < n:
                A[t + j][j] += R * c
            elif c:
                for i, r in enumerate(red[t + j - n]):
                    A[i][j] += c * r
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            return None
        A[k], A[p] = A[p], A[k]
        top, piv = A[k], A[k][k]
        A = [row if i == k else [(piv * x - row[k] * y) // prev for x, y in zip(row, top)]
             for i, row in enumerate(A)]
        prev = piv
    return [row[n] for row in A], prev


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _make(field: NumberField, num: tuple, den: int) -> AlgebraicScalar:
    """The trusted builder: ``num`` and ``den`` > 0 must already be in lowest
    terms."""
    x = object.__new__(AlgebraicScalar)
    x.field = field
    x.num = num
    x.den = den
    x._coords = None
    return x


def _complex(re: AlgebraicScalar, im: AlgebraicScalar) -> "ComplexAlgebraic":
    """The trusted builder of complex values: ``re`` and ``im`` must be
    scalars of the same field."""
    z = object.__new__(ComplexAlgebraic)
    z.re = re
    z.im = im
    z._hash = None
    z._key = None
    return z


def _lowest(field: NumberField, num: tuple, den: int) -> AlgebraicScalar:
    """``num``/``den`` (den > 0) with their gcd divided out, then built."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return _make(field, num, den)


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
        if type(other) is not ComplexAlgebraic or other.re.field is not self.re.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            return ComplexAlgebraic(self.re + o.re, self.im + o.im)
        a, b = self.im, other.im
        if not any(b.num):
            im = a
        elif not any(a.num):
            im = b
        else:
            im = a + b
        return _complex(self.re + other.re, im)

    __radd__ = __add__

    def __neg__(self):
        im = self.im
        return _complex(-self.re, -im if any(im.num) else im)

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
        if type(other) is AlgebraicScalar and other.field is self.re.field:
            # a real factor scales both parts, with no complex wrapper
            b = other.num
            if not any(b):
                return other.field._czero
            if b[0] == 1 and other.den == 1 and not any(b[1:]):
                return self
            im = self.im
            return _complex(self.re * other, im * other if any(im.num) else other.field._zero)
        if type(other) is not ComplexAlgebraic or other.re.field is not self.re.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        re, a, b = self.re, self.im, other.im
        if not any(b.num):
            if not any(a.num):
                return _complex(re * other.re, re.field._zero)
            return _complex(re * other.re, a * other.re)
        if not any(a.num):
            return _complex(re * other.re, re * b)
        return _complex(re * other.re - a * b, re * b + a * other.re)

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self) -> bool:
        return not (any(self.re.num) or any(self.im.num))

    def __bool__(self):
        return any(self.re.num) or any(self.im.num)

    def __eq__(self, other):
        if isinstance(other, ComplexAlgebraic):
            return (self.re == other.re and self.im.num == other.im.num
                    and self.im.den == other.im.den)
        if isinstance(other, (AlgebraicScalar, int, Fraction)):
            return not any(self.im.num) and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values hash like the equal AlgebraicScalar (hence int / Fraction)
        if self._hash is None:
            self._hash = hash(self.re) if self.im.is_zero() else \
                hash((self.re, self.im))
        return self._hash

    def sort_key(self):
        """Total order key compatible with addition; used for canonical forms.
        The coordinates of re, then of im; a part with denominator 1 gives
        its integer numerators as they are, which order and tie exactly as
        their ``Fraction`` coordinates do."""
        if self._key is None:
            re, im = self.re, self.im
            self._key = (re.num if re.den == 1 else re.coords) + \
                (im.num if im.den == 1 else im.coords)
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
