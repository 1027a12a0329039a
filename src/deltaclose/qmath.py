"""Rational polynomial arithmetic and exact interval helpers.

Polynomials are lists of ``Fraction`` in ascending power order with no
trailing zeros.  Intervals are ``(lo, hi)`` pairs of ``Fraction`` with
``lo <= hi``; endpoints may coincide.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_neg(p):
    return [-c for c in p]


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    lead = q[-1]
    while len(poly_trim(r)) >= len(q):
        r = poly_trim(r)
        shift = len(r) - len(q)
        c = r[-1] / lead
        quo[shift] = c
        for i, b in enumerate(q):
            r[shift + i] -= c * b
    return poly_trim(quo), poly_trim(r)


def poly_gcd(p, q):
    """Monic gcd over the rationals."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_deriv(p):
    return poly_trim([Fraction(i) * c for i, c in enumerate(p)][1:])


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# Interval arithmetic with exact rational endpoints.

def ival_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def ival_poly_eval(p, box):
    """Horner evaluation of p over an interval enclosure of its argument."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        acc = ival_mul(acc, box)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def frac_gcd(values) -> Fraction:
    """gcd of a finite family of rationals: gcd of numerators over lcm of denominators.

    Returns 0 for an empty or all-zero family.
    """
    num = 0
    den = 1
    for v in values:
        if v == 0:
            continue
        num = gcd(num, abs(v.numerator))
        den = lcm(den, v.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)
