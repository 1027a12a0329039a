"""Exact linear algebra kernels.

Three layers, by coefficient structure:

* ``ff_*``   -- fraction-free elimination over the exponential-coefficient
               integral domain (cross-multiplication updates, divisions only
               by rational content, unit monomials, and scalar leading
               coefficients, all exact in the domain);
* ``field_*`` -- classical Gauss-Jordan over any exact division ring
               (Fraction, AlgebraicScalar, ComplexAlgebraic, or the
               exponential-coefficient fraction field);
* integer routines -- Hermite normal form, canonical lattice bases, and
               the integer coordinates of a vector in such a basis, read off
               its echelon rows by back-substitution.

Row updates are sparse: every update p*row - c*other of the ``ff_*``
routines goes through ``_cross_update``, which forms no product with a zero
factor, and ``field_rref`` skips the zeros of its pivot row.  ``_dot``
skips a term with a zero factor, and ``field_rref`` neither inverts nor
rescales a pivot that is already 1.  The results are those of the dense
update, which the tests keep as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalError
from .expcoef import _Divisor, _dict_divexact, _ring_element
from .scalar import ComplexAlgebraic


def _dot(u, v):
    """Exact dot product  sum_i u_i v_i  of two nonempty vectors of equal
    length (field or complex field scalars).  A term with a zero factor is
    skipped; with every term skipped the result is the zero u_0 v_0."""
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return u[0] * v[0] if acc is None else acc


# ---------------------------------------------------------------------------
# fraction-free elimination over ExpCoefficient rows
# ---------------------------------------------------------------------------

def _row_is_zero(row):
    return all(e.is_zero() for e in row)


def _cross_update(p, row, c, other):
    """p*row - c*other entrywise with no product by a zero: a zero
    ``other[j]`` gives p*row[j], a zero ``row[j]`` gives -(c*other[j])."""
    out = []
    for a, b in zip(row, other):
        if not b.num:    # b is zero
            out.append(p * a if a.num else a)
        elif not a.num:
            out.append(-(c * b))
        else:
            out.append(p * a - c * b)
    return out


def _row_content_normalize(row):
    """Scale a row by a rational content and a unit monomial; exact and
    rank-preserving, keeps intermediate entries small."""
    nonzero = [e for e in row if not e.is_zero()]
    if not nonzero:
        return row
    field = nonzero[0].field
    g = _rational_content(nonzero)
    if g not in (0, 1):
        inv = ComplexAlgebraic(field.rational(1 / g))
        row = [e.scale_scalar(inv) for e in row]
        nonzero = [e for e in row if not e.is_zero()]
    mu_min = min((e.min_exponent() for e in nonzero), key=lambda m: m.sort_key())
    if not mu_min.is_zero():
        row = [e.shift(-mu_min) if not e.is_zero() else e for e in row]
    return row


def _rational_content(entries) -> Fraction:
    """gcd of every rational coordinate of the entries' numerator
    coefficients (``groups.frac_gcd`` of them), read off ``num``/``den``: a
    nonzero scalar in lowest terms has content gcd(*num)/den, and the content
    of a family is the gcd of the numerators over the lcm of the
    denominators."""
    n, d = 0, 1
    for e in entries:
        for c in e.num.values():
            for x in (c.re, c.im):
                if any(x.num):
                    n = gcd(n, *x.num)
                    d = lcm(d, x.den)
    return Fraction(n, d)


def _row_pivot_normalize(row, pivot_col):
    _, lc = row[pivot_col].leading_term()
    if lc != 1:
        inv = lc.inverse()
        row = [e.scale_scalar(inv) for e in row]
    return row


def _row_divide_if_exact(row, divisor):
    """Divide every entry by ``divisor`` when all divisions are exact
    (all-or-nothing: the row must scale uniformly); otherwise normalize the
    rational content only.  Row rescaling by a nonzero ring element is always
    rank- and span-preserving because spans live over the fraction field."""
    if all(e.is_zero() for e in row):
        return row
    if divisor is None or divisor.is_scalar():
        return _row_content_normalize(row)
    cap = 16 * (1 + max(len(e.num) for e in row if not e.is_zero()))
    prepared = _Divisor(divisor.num)  # one lead read for the whole row
    quotients = []
    for e in row:
        if e.is_zero():
            quotients.append(e)
            continue
        if not e.has_unit_den:
            return _row_content_normalize(row)
        q = _dict_divexact(e.num, prepared, cap)
        if q is None:
            return _row_content_normalize(row)
        quotients.append(_ring_element(e.field, q))
    return _row_content_normalize(quotients)


def _row_pivot_divide(row, pivot_col):
    """Scale the row so the pivot entry becomes one: divide by the whole
    pivot entry when that divides every entry exactly, else by the pivot's
    leading coefficient and the common unit monomial."""
    piv = row[pivot_col]
    if not piv.is_scalar():
        scaled = _row_divide_if_exact(list(row), piv)
        if scaled[pivot_col].is_scalar():
            row = scaled
    return _row_pivot_normalize(_row_content_normalize(row), pivot_col)


def ff_echelon(rows):
    """Reduced echelon form of rows over the group-ring domain.

    Fraction-free one-step elimination: a row update is the cross-multiplied
    combination  pivot*row - row[col]*pivot_row  followed by exact division
    by the last pivot that participated in this row's updates (deferred per
    row, so rows that already have zeros under the pivots are never touched).
    Returns (rows, pivot_columns); rows are canonical: pivot columns strictly
    increasing, zero entries above and below every pivot, minimal exponent
    zero, pivot leading coefficient one.  Re-running reproduces the output.
    """
    work = [list(r) for r in rows if not _row_is_zero(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    prev = [None] * len(work)  # last pivot that updated each row
    out, pivots, out_prev = [], [], []
    for col in range(ncols):
        # prefer the sparsest candidate row: less frequency mixing downstream
        best = None
        for i, r in enumerate(work):
            if r[col].is_zero():
                continue
            weight = (sum(1 for e in r if not e.is_zero()),
                      sum(len(e.num) for e in r), i)
            if best is None or weight < best[0]:
                best = (weight, i)
        if best is None:
            continue
        idx = best[1]
        pivot_row, pivot_prev = work.pop(idx), prev.pop(idx)
        rest, rest_prev = work, prev
        piv = pivot_row[col]
        new_rest, new_prev = [], []
        for r, pr in zip(rest, rest_prev):
            if not r[col].is_zero():
                r = _row_divide_if_exact(_cross_update(piv, r, r[col], pivot_row), pr)
                pr = piv
            if not _row_is_zero(r):
                new_rest.append(r)
                new_prev.append(pr)
        out.append(pivot_row)
        pivots.append(col)
        out_prev.append(pivot_prev)
        work, prev = new_rest, new_prev
        if not work:
            break
    # normalize forward-echelon rows, then eliminate above the pivots
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    out = [out[i] for i in order]
    pivots = [pivots[i] for i in order]
    out = [_row_pivot_divide(r, p) for r, p in zip(out, pivots)]
    for i in range(len(out) - 1, -1, -1):
        p_col = pivots[i]
        for j in range(i):
            if not out[j][p_col].is_zero():
                out[j] = _row_content_normalize(
                    _cross_update(out[i][p_col], out[j], out[j][p_col], out[i]))
    out = [_row_pivot_divide(r, p) for r, p in zip(out, pivots)]
    return out, pivots


def ff_reduce(vec, rows, pivots):
    """Remainder of vec after elimination against an echelon basis.

    The remainder is a nonzero multiple of the true residual by a product of
    pivots, which is all membership testing needs.
    """
    vec = list(vec)
    prev = None
    for row, p in zip(rows, pivots):
        c = vec[p]
        if not c.is_zero():
            vec = _row_divide_if_exact(_cross_update(row[p], vec, c, row), prev)
            prev = row[p]
    return vec


def ff_is_member(vec, rows, pivots) -> bool:
    return all(e.is_zero() for e in ff_reduce(vec, rows, pivots))


# ---------------------------------------------------------------------------
# Gauss-Jordan over an exact division ring (duck-typed entries)
# ---------------------------------------------------------------------------

def field_rref(rows):
    """Reduced row echelon form with unit pivots. Returns (rows, pivots).

    Each pivot that is not already 1 is inverted once (``1 / pivot``, which
    every entry type supports) and the nonzero entries of its row are
    multiplied by that inverse; a pivot of 1 leaves its row as it is."""
    work = [list(r) for r in rows]
    work = [r for r in work if any(bool(e) for e in r)]
    if not work:
        return [], []
    ncols = len(work[0])
    out, pivots = [], []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if bool(work[i][col]):
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv_row = work[r]
        if inv_row[col] != 1:
            inv = 1 / inv_row[col]
            inv_row = work[r] = [e * inv if bool(e) else e for e in inv_row]
        for i in range(len(work)):
            if i != r and bool(work[i][col]):
                c = work[i][col]
                work[i] = [a - c * b if b else a for a, b in zip(work[i], inv_row)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _rref_kernel(rref, pivots, ncols, zero, one):
    """Right-kernel basis read off a reduced echelon form of the first ncols
    columns: one vector per free column."""
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [zero] * ncols
        v[j] = one
        for i, p in enumerate(pivots):
            v[p] = zero - rref[i][j]
        basis.append(v)
    return basis


def field_kernel(rows, ncols, zero, one):
    """Basis of the right kernel {x : A x = 0} of the matrix given by rows."""
    rref, pivots = field_rref(rows)
    return _rref_kernel(rref, pivots, ncols, zero, one)


def field_solve(rows, rhs, ncols, zero, one):
    """Solve A x = b exactly.

    Returns (particular, kernel_basis); particular is None when inconsistent.
    Free variables are set to zero, so the answer is deterministic for a
    fixed column order.  One elimination of [A | b] serves both parts: its
    rows with a pivot left of column ncols are the reduced form of A.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = field_rref(aug)
    if ncols in pivots:
        # inconsistent: the last pivot row reads 0 = 1 and is left out
        return None, _rref_kernel(rref, pivots[:-1], ncols, zero, one)
    particular = [zero] * ncols
    for i, p in enumerate(pivots):
        particular[p] = rref[i][ncols]
    return particular, _rref_kernel(rref, pivots, ncols, zero, one)


# ---------------------------------------------------------------------------
# integer lattice routines
# ---------------------------------------------------------------------------

def hnf(mat):
    """Row-style Hermite normal form without its zero rows: pivots positive,
    entries above each pivot reduced modulo it."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    H = [[int(x) for x in row] for row in mat]
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if H[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        for i in range(r + 1, m):
            while H[i][col] != 0:
                q = H[r][col] // H[i][col]
                H[r] = [a - q * b for a, b in zip(H[r], H[i])]
                H[r], H[i] = H[i], H[r]
        if H[r][col] < 0:
            H[r] = [-a for a in H[r]]
        for i in range(r):
            q = H[i][col] // H[r][col]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
        if r == m:
            break
    return [row for row in H if any(row)]


def lattice_basis(generators):
    """Canonical basis (HNF rows, ascending pivots) of the Z-span of rational
    row vectors.  Returns a list of Fraction rows."""
    gens = [row for row in generators if any(f != 0 for f in row)]
    if not gens:
        return []
    denom = lcm(*(f.denominator for row in gens for f in row), 1)
    intm = [[int(f * denom) for f in row] for row in gens]
    rows = hnf(intm)
    return [[Fraction(x, denom) for x in row] for row in rows]


def lattice_coords(basis_rows, target):
    """Integer coordinates of the rational vector ``target`` in the lattice
    basis ``basis_rows``, echelon rows as ``lattice_basis`` returns them, or
    None when target is not in their Z-span.

    Back-substitution: each row's pivot is its first nonzero entry and the
    pivots strictly increase, so the coordinate of row i is the target's
    remainder at pivot i, after the earlier rows are subtracted, over that
    pivot.  A quotient that is not an integer, or a remainder left at the
    end, returns None; rows not in echelon form raise InternalError."""
    rest = list(target)
    coords = []
    prev = -1
    for row in basis_rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None or p <= prev:
            raise InternalError("lattice basis rows are not in echelon form")
        q = rest[p] / row[p]
        if q.denominator != 1:
            return None
        if q:
            rest = [a - q * b for a, b in zip(rest, row)]
        coords.append(int(q))
        prev = p
    return None if any(rest) else coords
