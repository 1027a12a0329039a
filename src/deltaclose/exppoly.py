"""Exponential polynomials  sum_j p_j(x) e^(lambda_j . x)  on R^d.

Frequencies are vectors of complex algebraic numbers over the declared field;
polynomial coefficients live in the exponential-coefficient ring so the class
is closed under translation and forward differencing: translating by y
multiplies the lambda-term by the formal exponential e^(lambda . y).

Canonical form: frequencies pairwise distinct, every stored polynomial
nonempty, every stored coefficient nonzero.  The constructor enforces it on
any input, and the arithmetic accumulates through ``expcoef._add_term``.

Translation and differencing share one binomial expansion, ``_expand_into``.
A translate weights every drop |alpha| - |beta| by one factor c e^(lambda.y)
(``_apply_terms``, behind ``translate`` and the operators of ``opalg``).
``forward_difference`` and the solver weight drop k by S_k
(``_difference_sums``), so delta_h^m builds no translate.

Float evaluation.  Instances are immutable, so the float constants of
``evaluate_array`` are derived once per object, on its first call, and kept
in the ``_plan`` slot: the frequencies as a real matrix (plus an imaginary
one when some frequency is not real), the multi-indices, and a complex
coefficient matrix over (multi-index x frequency) floated once through
``ExpCoefficient.evaluate``.  At N points X the value is the row sum of
(monomials(X) @ coefficients) * exp(X @ frequencies^T), a few array
operations whatever the term count.  The plan is never built in
``__init__``: the exact paths build many polynomials and evaluate none.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, MalformedInput
from .expcoef import ExpCoefficient, _add_term, _dict_add, _dict_mul, _ring_element, _vec_add
from .groups import _as_vector
from .linalg import _dot
from .scalar import ComplexAlgebraic, NumberField


def _shift_table(y_i, top: int) -> list:
    """table[a][b] = C(a, b) * y_i^(a - b) for 0 <= b <= a <= top: the
    coefficient of x^b in (x + y_i)^a, one power of y_i per a.  For y_i = 0
    it is the identity table, 1 on the diagonal and 0 below it."""
    one = y_i.field.one()
    if not y_i:
        return [[y_i] * a + [one] for a in range(top + 1)]
    powers = [one, y_i][:top + 1]
    for _ in range(top - 1):
        powers.append(powers[-1] * y_i)
    return [[powers[a - b] if b in (0, a) else powers[a - b] * comb(a, b)
             for b in range(a + 1)] for a in range(top + 1)]


def _freq_key_sort(freq):
    return tuple(c.sort_key() for c in freq)


def atom_sort_key(alpha, freq):
    """Graded-lexicographic atom order used everywhere for determinism."""
    return (sum(alpha), alpha, _freq_key_sort(freq))


class ExpPolynomial:
    __slots__ = ("field", "dim", "terms", "_plan")

    def __init__(self, field: NumberField, dim: int, terms: dict):
        self.field = field
        self.dim = dim
        self._plan = None  # float plan, built by the first evaluate_array
        self.terms = {}
        for freq, poly in terms.items():
            poly = {alpha: c for alpha, c in poly.items() if not c.is_zero()}
            if poly:
                self.terms[freq] = poly

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: NumberField, dim: int) -> "ExpPolynomial":
        return ExpPolynomial(field, dim, {})

    @staticmethod
    def from_monomials(field: NumberField, dim: int, monomials) -> "ExpPolynomial":
        """The sum of the monomials ``(alpha, coeff, freq)`` coeff x^alpha
        e^(freq . x), taken in order (freq None is zero): a repeated monomial
        adds up, and is dropped when the sum is zero.  An alpha of another
        length than ``dim`` or with a negative entry, or a frequency of
        another length, raises."""
        zero_freq = (field.complex_zero(),) * dim
        terms: dict = {}
        for alpha, coeff, freq in monomials:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise DimensionMismatch("multi-index length must equal dim")
            if min(alpha, default=0) < 0:
                raise MalformedInput(f"multi-index {list(alpha)} has a negative exponent")
            freq = zero_freq if freq is None else tuple(freq)
            if len(freq) != dim:
                raise DimensionMismatch("frequency length must equal dim")
            c = coeff if isinstance(coeff, ExpCoefficient) else ExpCoefficient.scalar(field, coeff)
            if c.is_zero():
                continue
            poly = terms.get(freq)
            if poly is None:
                terms[freq] = {alpha: c}
            else:
                _add_term(poly, alpha, c)
                if not poly:
                    del terms[freq]
        return ExpPolynomial(field, dim, terms)

    @staticmethod
    def monomial(field: NumberField, dim: int, alpha, coeff=1, freq=None) -> "ExpPolynomial":
        return ExpPolynomial.from_monomials(field, dim, [(alpha, coeff, freq)])

    @staticmethod
    def exponential(field: NumberField, dim: int, freq, coeff=1) -> "ExpPolynomial":
        return ExpPolynomial.monomial(field, dim, (0,) * dim, coeff, freq)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def frequencies(self):
        return sorted(self.terms.keys(), key=_freq_key_sort)

    def atoms(self):
        """All (alpha, freq) labels carrying a nonzero coefficient, in the
        canonical graded-lexicographic order."""
        out = [(alpha, freq) for freq, poly in self.terms.items() for alpha in poly]
        out.sort(key=lambda af: atom_sort_key(*af))
        return out

    def coefficient(self, alpha, freq) -> ExpCoefficient:
        poly = self.terms.get(tuple(freq))
        if not poly:
            return ExpCoefficient.zero(self.field)
        return poly.get(tuple(alpha), ExpCoefficient.zero(self.field))

    def degree_at(self, freq) -> int:
        """Max total degree of the polynomial part at the given frequency;
        -1 when the component is absent."""
        poly = self.terms.get(tuple(freq))
        if not poly:
            return -1
        return max(sum(alpha) for alpha in poly)

    def __eq__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        return (self.dim == other.dim and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    # -- linear structure -----------------------------------------------------

    def _check(self, other: "ExpPolynomial"):
        if self.dim != other.dim:
            raise DimensionMismatch("exponential polynomials of different dimension")
        if not (self.field is other.field or self.field == other.field):
            raise FieldMismatch("exponential polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for freq, poly in other.terms.items():
            mine = terms.get(freq)
            terms[freq] = poly if mine is None else _dict_add(mine, poly)
        return ExpPolynomial(self.field, self.dim, terms)

    def __neg__(self):
        return ExpPolynomial(
            self.field, self.dim,
            {f: {a: -c for a, c in p.items()} for f, p in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "ExpPolynomial":
        """c f for a coefficient c (an ``ExpCoefficient``, or anything
        ``ExpCoefficient.scalar`` takes).  Public API; ``apply`` folds its
        coefficients into the translation instead of calling this."""
        c = c if isinstance(c, ExpCoefficient) else ExpCoefficient.scalar(self.field, c)
        if c.is_zero():
            return ExpPolynomial.zero(self.field, self.dim)
        return ExpPolynomial(
            self.field, self.dim,
            {f: {a: v * c for a, v in p.items()} for f, p in self.terms.items()})

    # -- the operators ----------------------------------------------------------

    def translate(self, y) -> "ExpPolynomial":
        """Exact translate x |-> f(x + y) for a field vector y: the operator
        tau_y applied by ``_apply_terms``."""
        terms = {_as_vector(self.field, y, self.dim, "shift"): ExpCoefficient.one(self.field)}
        return _apply_terms(self.field, self.dim, terms, [self])[0]

    def forward_difference(self, h, m: int = 1) -> "ExpPolynomial":
        """delta_h^m f = sum_k C(m,k) (-1)^(m-k) f(x + k h) in closed form:
        one set of shift tables of h per call and one list of weights S_k
        (``_difference_sums``) per frequency, expanded by ``_expand_into``."""
        if m < 0:
            raise MalformedInput("difference order must be >= 0")
        h = _as_vector(self.field, h, self.dim, "step")
        tables = _shift_tables(h, (alpha for poly in self.terms.values() for alpha in poly))
        out: dict = {}
        for freq, poly in self.terms.items():
            S = _difference_sums(self.field, _dot(freq, h), m, max(map(sum, poly)))
            acc = out[freq] = {}
            for alpha, a in poly.items():
                _expand_into(acc, alpha, tables, [a * s if s else s for s in S[:sum(alpha) + 1]])
        return ExpPolynomial(self.field, self.dim, out)

    def substitute_linear(self, matrix) -> "ExpPolynomial":
        """Exact composition x |-> f(M x) for a field matrix M (rows) with
        ``dim`` rows and k columns; the result lives on R^k."""
        d = self.dim
        if len(matrix) != d:
            raise DimensionMismatch("substitution matrix needs one row per variable")
        k = len(matrix[0])
        M = [[self.field.coerce(x) for x in row] for row in matrix]
        columns = list(zip(*M))
        out: dict = {}
        for freq, poly in self.terms.items():
            new_poly = out.setdefault(tuple(_dot(freq, col) for col in columns), {})
            for alpha, c in poly.items():
                expanded = {(0,) * k: self.field.one()}
                for i, a_i in enumerate(alpha):
                    if a_i:
                        expanded = _dict_mul(expanded, _linear_form_power(M[i], a_i, self.field),
                                             _vec_add)
                for beta, w in expanded.items():
                    _add_term(new_poly, beta, c.scale_scalar(ComplexAlgebraic(w)))
        return ExpPolynomial(self.field, k, out)

    # -- numerics ------------------------------------------------------------

    def evaluate(self, x) -> complex:
        x = tuple(float(v) for v in x)
        total = 0j
        for freq, poly in self.terms.items():
            lam_dot = sum(complex(z) * v for z, v in zip(freq, x))
            pv = 0j
            for alpha, c in poly.items():
                mono = 1.0
                for a_i, x_i in zip(alpha, x):
                    mono *= x_i ** a_i
                pv += c.evaluate() * mono
            total += pv * cmath.exp(lam_dot)
        return total

    def evaluate_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, d) array of points (a 1-D array
        is N points of R^1)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if self._plan is None:
            self._plan = _float_plan(self.terms, self.dim)
        lam_re, lam_im, alphas, coeffs = self._plan
        if not alphas:
            return np.zeros(points.shape[0], dtype=complex)
        waves = points @ lam_re.T
        if lam_im is not None:
            waves = waves + 1j * (points @ lam_im.T)
        waves = np.exp(waves)
        if not any(map(any, alphas)):
            # coeffs is one row, for the zero multi-index: no monomials
            return (coeffs * waves).sum(axis=1)
        monos = np.ones((points.shape[0], len(alphas)))
        for k, alpha in enumerate(alphas):
            for i, a_i in enumerate(alpha):
                if a_i:
                    monos[:, k] *= points[:, i] ** a_i
        return ((monos @ coeffs) * waves).sum(axis=1)

    def __repr__(self):
        if self.is_zero():
            return "ExpPolynomial(0)"
        parts = []
        for freq in self.frequencies():
            poly = self.terms[freq]
            for alpha in sorted(poly, key=lambda a: (sum(a), a)):
                parts.append(f"x^{alpha} e^({_freq_key_sort(freq)})")
        return "ExpPolynomial(" + " + ".join(parts) + ")"


def _apply_terms(field: NumberField, dim: int, terms: dict, fs: list) -> list:
    """sum_y c_y f(x + y) for each f of ``fs``, over the operator terms
    {y: c_y}: one ``ExpPolynomial`` per f, accumulated through ``_add_term``.

    Per shift y, one set of shift tables over the union of the multi-indices
    of ``fs`` serves every f, and each c e^(lambda.y) weighting the drops of
    x^alpha e^(lambda.x) is formed once per frequency; both live only for
    the call.  A zero shift (the k = 0 term of every delta_h^m) builds no
    table.  A frequency whose terms all cancel is left as an empty dict,
    which the ``ExpPolynomial`` constructor drops."""
    alphas = {alpha for f in fs for poly in f.terms.values() for alpha in poly}
    outs = [{} for _ in fs]
    for y, c in terms.items():
        if all(v.is_zero() for v in y):
            for f, out in zip(fs, outs):
                for freq, poly in f.terms.items():
                    acc = out.setdefault(freq, {})
                    for alpha, a in poly.items():
                        _add_term(acc, alpha, c * a)
            continue
        tables = _shift_tables(y, alphas)
        factors: dict = {}
        for f, out in zip(fs, outs):
            for freq, poly in f.terms.items():
                factor = factors.get(freq)
                if factor is None:
                    factor = factors[freq] = c * ExpCoefficient.exponential(field, _dot(freq, y))
                acc = out.setdefault(freq, {})
                for alpha, a in poly.items():
                    _expand_into(acc, alpha, tables, [a * factor] * (sum(alpha) + 1))
    return [ExpPolynomial(field, dim, out) for out in outs]


def _expand_into(acc: dict, alpha, tables, weights) -> None:
    """Add sum over beta <= alpha of prod_i tables[i][alpha_i][beta_i]
    * weights[|alpha| - |beta|] x^beta to ``acc`` through ``_add_term``.
    With the tables of y this is the expansion of (x + y)^alpha, weighted
    per drop; zero weights and zero products are skipped, and a product
    of 1 (always at beta = alpha) adds the weight itself."""
    rows = [table[a_i] for table, a_i in zip(tables, alpha)]
    for beta, k in _below(alpha):
        w = weights[k]
        if w.is_zero():
            continue
        if not k:
            _add_term(acc, beta, w)
            continue
        scal = rows[0][beta[0]]
        for row, b in zip(rows[1:], beta[1:]):
            scal = scal * row[b]
        if scal == 1:
            _add_term(acc, beta, w)
        elif not scal.is_zero():
            _add_term(acc, beta, w.scale_scalar(ComplexAlgebraic(scal)))


@lru_cache(maxsize=4096)
def _below(alpha: tuple) -> tuple:
    """The pairs (beta, |alpha| - |beta|) for beta <= alpha, in product
    order; memoised, since translation and differencing expand the same
    multi-indices over and over."""
    return tuple((beta, sum(alpha) - sum(beta))
                 for beta in product(*(range(a_i + 1) for a_i in alpha)))


def _shift_tables(y, alphas) -> list:
    """One ``_shift_table`` per coordinate of y, up to that coordinate's
    largest exponent among the multi-indices ``alphas``."""
    return [_shift_table(y_i, top)
            for y_i, top in zip(y, map(max, zip((0,) * len(y), *alphas)))]


def _difference_sums(field: NumberField, mu, m: int, top: int) -> list:
    """S_0..S_top with S_k = sum_j C(m, j) (-1)^(m - j) j^k e^(j mu), j = 0..m,
    the weight of a drop by k in delta_h^m for mu = lambda.h.  For mu != 0
    the m + 1 exponents j mu are distinct, so S_k is built term by term from
    them, formed once; only j = 0 drops out, for k > 0.  For mu = 0 every
    exponent is 0 and S_k is the one scalar m! S(k, m) (Stirling numbers of
    the second kind), which vanishes for k < m."""
    weights = [comb(m, j) * (-1) ** (m - j) for j in range(m + 1)]
    if mu.is_zero():
        zero, S = field.complex_zero(), []
        for k in range(top + 1):
            s = sum(c * j ** k for j, c in enumerate(weights))
            S.append(_ring_element(field, {zero: ComplexAlgebraic(field.rational(s))}
                                   if s else {}))
        return S
    exponents = [field.complex_zero()]
    for _ in range(m):
        exponents.append(exponents[-1] + mu)
    return [_ring_element(field, {e: ComplexAlgebraic(field.rational(c * j ** k))
                                  for j, (e, c) in enumerate(zip(exponents, weights))
                                  if j or not k})
            for k in range(top + 1)]


def _float_plan(terms: dict, dim: int):
    """(real frequency matrix, imaginary one or None when every frequency is
    real, multi-indices, complex coefficient matrix over multi-index x
    frequency) for ``ExpPolynomial.evaluate_array``."""
    lam = np.array([[complex(z) for z in freq] for freq in terms],
                   dtype=complex).reshape(len(terms), dim)
    lam_im = lam.imag if lam.imag.any() else None
    index: dict = {}
    for poly in terms.values():
        for alpha in poly:
            index.setdefault(alpha, len(index))
    coeffs = np.zeros((len(index), len(terms)), dtype=complex)
    for j, poly in enumerate(terms.values()):
        for alpha, c in poly.items():
            coeffs[index[alpha], j] = c.evaluate()
    return np.ascontiguousarray(lam.real), lam_im, list(index), coeffs


def _linear_form_power(row, power: int, field) -> dict:
    """Multi-index expansion of (sum_j row_j x_j)^power with field coefficients."""
    d = len(row)
    base = {}
    for j, r in enumerate(row):
        if not r.is_zero():
            key = tuple(1 if i == j else 0 for i in range(d))
            base[key] = r
    out = {(0,) * d: field.one()}
    for _ in range(power):
        out = _dict_mul(out, base, _vec_add)
    return out


def translation_hull(f: ExpPolynomial):
    """Basis of the smallest translation-invariant subspace containing f.

    Per frequency component p e^(lambda.x) the hull is spanned by all partial
    derivatives of p times the same exponential; the returned list is reduced
    to a linearly independent set.
    """
    from .subspace import FunctionSubspace

    field, d = f.field, f.dim
    basis_polys = []
    for freq, poly in f.terms.items():
        deriv_indices = {beta for alpha in poly for beta, _ in _below(alpha)}
        derivs = []
        for beta in sorted(deriv_indices, key=lambda b: (sum(b), b)):
            dp = {}
            for alpha, c in poly.items():
                if all(a >= b for a, b in zip(alpha, beta)):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    w = Fraction(1)
                    for a_i, b_i in zip(alpha, beta):
                        # falling factorial a_i (a_i-1) ... (a_i-b_i+1)
                        for s in range(b_i):
                            w *= a_i - s
                    _add_term(dp, gamma, c.scale_scalar(ComplexAlgebraic(field.rational(w))))
            derivs.append(ExpPolynomial(field, d, {freq: dp}))
        # one span per frequency keeps the output order of the components
        basis_polys.extend(
            FunctionSubspace.span(derivs, dim=d, field=field).basis_polynomials())
    return basis_polys
