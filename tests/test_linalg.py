from fractions import Fraction

import pytest

from deltaclose.errors import InternalError
from deltaclose.linalg import (
    _dot,
    field_kernel,
    field_rref,
    field_solve,
    lattice_basis,
    lattice_coords,
)
from deltaclose.scalar import ComplexAlgebraic

from conftest import rng_for

ZERO, ONE = Fraction(0), Fraction(1)


def _matvec(rows, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in rows]


def test_field_solve_kernel_matches_field_kernel():
    # low-rank products give nontrivial kernels; random right-hand sides are
    # then often inconsistent, and a zeroed row of A can carry a nonzero b
    rng = rng_for("field-solve-kernel")
    seen = {True: 0, False: 0}
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rank = rng.randint(0, min(nrows, ncols))
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
                 for _ in range(rank)]
        rows = [[sum((l[t] * right[t][j] for t in range(rank)), ZERO) for j in range(ncols)]
                for l in left]
        if rng.random() < 0.5:
            rhs = _matvec(rows, [Fraction(rng.randint(-2, 2)) for _ in range(ncols)])
        else:
            rhs = [Fraction(rng.randint(-2, 2)) for _ in range(nrows)]
        part, kern = field_solve(rows, rhs, ncols, ZERO, ONE)
        assert kern == field_kernel(rows, ncols, ZERO, ONE)
        for v in kern:
            assert _matvec(rows, v) == [ZERO] * nrows
        rank_a = len(field_rref(rows)[0])
        assert len(kern) == ncols - rank_a
        consistent = len(field_rref([r + [b] for r, b in zip(rows, rhs)])[0]) == rank_a
        assert (part is not None) == consistent
        if part is not None:
            assert _matvec(rows, part) == rhs
        seen[consistent] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_rational_content_reads_num_and_den(sqrt2_field, quartic_field):
    """The row content read off num/den equals ``frac_gcd`` over the Fraction
    coordinates of every numerator coefficient."""
    from deltaclose import ExpCoefficient
    from deltaclose.linalg import _rational_content
    from deltaclose.groups import frac_gcd

    from conftest import random_complex, random_expcoef

    rng = rng_for("rational-content")
    seen_den = seen_im = 0
    for field in (sqrt2_field, quartic_field):
        for _ in range(60):
            row = []
            for _ in range(rng.randint(1, 4)):
                e = random_expcoef(rng, field)
                if rng.random() < 0.5:
                    # complex coefficients with imaginary parts
                    e = e.scale_scalar(random_complex(rng, field))
                if rng.random() < 0.3:
                    d = random_expcoef(rng, field, max_terms=2)
                    if not d.is_zero():
                        e = e / d   # a non-unit denominator
                row.append(e)
            nonzero = [e for e in row if not e.is_zero()]
            coeffs = [c for e in nonzero for c in e.num.values()]
            seen_den += any(x.den != 1 for c in coeffs for x in (c.re, c.im))
            seen_im += any(not c.im.is_zero() for c in coeffs)
            want = frac_gcd(f for c in coeffs for f in c.re.coords + c.im.coords)
            got = _rational_content(nonzero)
            assert got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert seen_den > 20 and seen_im > 20
    assert _rational_content([ExpCoefficient.zero(sqrt2_field)]) == 0


# -- field_rref: one inverse per pivot -------------------------------------------

def per_entry_rref(rows, pivot_values=None):
    """Gauss-Jordan dividing every pivot-row entry by the pivot: the
    reference for field_rref, which inverts each pivot that is not 1 once.
    Each pivot's value, before the division, is appended to
    ``pivot_values`` when one is given."""
    work = [list(r) for r in rows if any(bool(e) for e in r)]
    out, pivots = [], []
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(len(out), len(work)) if bool(work[i][col])), None)
        if piv is None:
            continue
        r = len(out)
        work[r], work[piv] = work[piv], work[r]
        if pivot_values is not None:
            pivot_values.append(work[r][col])
        work[r] = [e / work[r][col] for e in work[r]]
        for i in range(len(work)):
            if i != r and bool(work[i][col]):
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        out.append(work[r])
        pivots.append(col)
    return work[:len(out)], pivots


def _rank_deficient(rng, entry, zero, nrows, ncols):
    """Random rows with zero entries; with probability one half the last row
    is a combination of the others."""
    rows = [[entry() if rng.random() < 0.6 else zero for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        a, b = entry(), entry()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def _entry_kinds(rng, field):
    from deltaclose import ExpCoefficient

    from conftest import random_complex, random_expcoef, random_fraction, random_scalar

    return [
        ("fraction", lambda: random_fraction(rng), ZERO),
        ("scalar", lambda: random_scalar(rng, field), field.zero()),
        ("complex", lambda: random_complex(rng, field), field.complex_zero()),
        ("expcoef", lambda: random_expcoef(rng, field, max_terms=2),
         ExpCoefficient.zero(field)),
    ]


def test_field_rref_matches_per_entry_division(sqrt2_field, quartic_field):
    rng = rng_for("field-rref-one-inverse")
    deficient = 0
    for field in (sqrt2_field, quartic_field):
        for name, entry, zero in _entry_kinds(rng, field):
            for _ in range(12 if name == "expcoef" else 30):
                nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
                rows = _rank_deficient(rng, entry, zero, nrows, ncols)
                got, got_piv = field_rref(rows)
                want, want_piv = per_entry_rref(rows)
                assert got_piv == want_piv
                assert got == want
                deficient += len(got) < nrows
    assert deficient > 40


def test_field_rref_inverts_once_per_pivot(sqrt2_field, quartic_field, monkeypatch):
    from deltaclose.scalar import AlgebraicScalar

    calls = [0]
    inverse = AlgebraicScalar.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(AlgebraicScalar, "inverse", counted)
    rng = rng_for("field-rref-inverse-count")
    unit_pivots = 0
    for field in (sqrt2_field, quartic_field):
        for name, entry, zero in _entry_kinds(rng, field)[1:3]:
            one = field.one() if name == "scalar" else field.complex_one()
            for units in (False, True):
                # with units, about a third of the entries are 1, so that
                # some pivots are 1 when they are reached
                draw = (lambda: one if rng.random() < 0.35 else entry()) if units else entry
                for _ in range(20):
                    rows = _rank_deficient(rng, draw, zero, rng.randint(2, 4), rng.randint(3, 5))
                    values = []
                    per_entry_rref(rows, values)
                    calls[0] = 0
                    _, pivots = field_rref(rows)
                    assert len(pivots) == len(values), name
                    assert calls[0] == sum(v != 1 for v in values), name
                    unit_pivots += sum(v == 1 for v in values)
    assert unit_pivots > 40


# -- _dot: the dense sum of every product is the reference -----------------------

def dense_dot(u, v):
    """sum_i u_i v_i with every product formed, zeros included: the
    reference for ``linalg._dot``."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def test_dot_matches_dense_reference(sqrt2_field, quartic_field):
    from conftest import random_complex, random_scalar

    rng = rng_for("dot-dense-reference")
    kinds = seen = 0
    for field in (sqrt2_field, quartic_field):
        zero, czero = field.zero(), field.complex_zero()
        for left, lzero in ((lambda: random_scalar(rng, field), zero),
                            (lambda: random_complex(rng, field), czero)):
            kinds += 1
            for _ in range(60):
                n = rng.randint(1, 4)
                u = [left() if rng.random() < 0.5 else lzero for _ in range(n)]
                v = [random_scalar(rng, field) if rng.random() < 0.5 else
                     rng.choice([zero, field.one()]) for _ in range(n)]
                got, want = _dot(u, v), dense_dot(u, v)
                assert got == want and type(got) is type(want)
                if isinstance(want, ComplexAlgebraic):
                    assert (got.re.num, got.re.den, got.im.num, got.im.den) == \
                        (want.re.num, want.re.den, want.im.num, want.im.den)
                else:
                    assert (got.num, got.den) == (want.num, want.den)
                seen += not want
    assert kinds == 4 and seen > 20


# -- sparse row updates: the dense update is the reference ------------------------

def dense_update(p, row, c, other):
    """p*row - c*other with every product formed, zeros included: the
    reference for ``linalg._cross_update``."""
    return [p * a - c * b for a, b in zip(row, other)]


def _half_zero(rng, entry, zero, nrows, ncols):
    """rows x cols of nonzero ``entry()`` values and zeros, at least half of
    the entries zero; with probability one half the last row is a multiple of
    the first, so that ranks fall short."""
    def nonzero():
        while True:
            e = entry()
            if e:
                return e

    while True:
        rows = [[nonzero() if rng.random() < 0.4 else zero for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            a = nonzero()
            rows[-1] = [a * x for x in rows[0]]
        zeros = sum(not e for r in rows for e in r)
        if 2 * zeros >= nrows * ncols and any(e for r in rows for e in r):
            return rows


def _terms(rows):
    """Each entry's stored numerator terms in insertion order and its unit
    flag: equal only for bit-identical rows."""
    return [[(tuple(e.num.items()), e.has_unit_den) for e in r] for r in rows]


def test_ff_elimination_matches_dense_update(sqrt2_field, monkeypatch):
    from deltaclose import ExpCoefficient, linalg

    from conftest import random_expcoef

    F = sqrt2_field
    rng = rng_for("ff-sparse-update")
    zero = ExpCoefficient.zero(F)
    cases = []
    for _ in range(40):
        ncols = rng.randint(2, 5)
        rows = _half_zero(rng, lambda: random_expcoef(rng, F, max_terms=2), zero,
                          rng.randint(1, 4), ncols)
        a, b = random_expcoef(rng, F, max_terms=2), random_expcoef(rng, F, max_terms=2)
        member = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
        other = _half_zero(rng, lambda: random_expcoef(rng, F, max_terms=2), zero, 1, ncols)[0]
        cases.append((rows, [member, other]))

    def eliminate():
        out = []
        for rows, vecs in cases:
            ech, piv = linalg.ff_echelon(rows)
            out.append((_terms(ech), piv, _terms(linalg.ff_reduce(v, ech, piv) for v in vecs)))
        return out

    got = eliminate()
    monkeypatch.setattr(linalg, "_cross_update", dense_update)
    want = eliminate()
    assert got == want
    # back-substitution ran, and both members and non-members were reduced
    assert sum(len(piv) >= 2 for _, piv, _ in got) > 10
    remainders = [any(n for n, _ in r) for _, _, rems in got for r in rems]
    assert remainders.count(False) > 20 and remainders.count(True) > 10


def test_field_rref_matches_dense_update_on_half_zero_rows(sqrt2_field):
    rng = rng_for("field-rref-sparse-update")
    deficient = 0
    for name, entry, zero in _entry_kinds(rng, sqrt2_field):
        for _ in range(12 if name == "expcoef" else 30):
            nrows, ncols = rng.randint(2, 4), rng.randint(2, 5)
            rows = _half_zero(rng, entry, zero, nrows, ncols)
            got, got_piv = field_rref(rows)
            want, want_piv = per_entry_rref(rows)
            assert got_piv == want_piv, name
            assert got == want, name
            assert all(type(e) is type(zero) for r in got for e in r), name
            deficient += len(got) < nrows
    assert deficient > 30


# -- lattice coordinates by back-substitution -----------------------------------

def _int_solve_exact(basis_rows, target):
    """The reference: solve over Q with one elimination, then check that the
    coordinates are integers."""
    if not basis_rows:
        return [] if all(f == 0 for f in target) else None
    ncols = len(basis_rows)
    rows = [[basis_rows[j][i] for j in range(ncols)] for i in range(len(target))]
    part, kern = field_solve(rows, list(target), ncols, ZERO, ONE)
    assert not kern
    if part is None or any(f.denominator != 1 for f in part):
        return None
    return [int(f) for f in part]


def test_lattice_coords_matches_rational_solve():
    """On HNF bases from ``lattice_basis``: integer combinations of the
    generators, their halves, small perturbations and random rationals."""
    rng = rng_for("lattice-coords")
    seen = {True: 0, False: 0}
    for _ in range(200):
        ncols = rng.randint(1, 6)
        gens = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 4])) for _ in range(ncols)]
                for _ in range(rng.randint(0, 4))]
        if gens and rng.random() < 0.3:
            gens.append([2 * x - y for x, y in zip(gens[0], gens[-1])])   # a dependent one
        basis = lattice_basis(gens)
        combo = [sum((rng.randint(-3, 3) * g[i] for g in gens), ZERO) for i in range(ncols)]
        targets = [combo, [x / 2 for x in combo], [ZERO] * ncols,
                   [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(ncols)]]
        bump = list(combo)
        bump[rng.randrange(ncols)] += Fraction(1, rng.randint(2, 5))
        targets.append(bump)
        for target in targets:
            got = lattice_coords(basis, target)
            assert got == _int_solve_exact(basis, target), (basis, target)
            seen[got is not None] += 1
    assert min(seen.values()) > 100, seen


def test_lattice_coords_refuses_rows_out_of_echelon_form():
    for rows in ([[ONE, ZERO], [ONE, ONE]], [[ZERO, ONE], [ONE, ZERO]], [[ONE, ZERO], [ZERO, ZERO]]):
        with pytest.raises(InternalError, match="echelon"):
            lattice_coords(rows, [ZERO, ZERO])
