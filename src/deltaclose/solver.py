"""Reconstruction of exponential polynomials from prescribed forward
differences, joint difference kernels, and coset-slice fitting for
non-dense step groups.

``solve_difference_system`` inverts  g_k = delta_(h_k)^(m_k) f  when the
steps span a dense subgroup.  The ansatz frequencies are those of the g_k
plus zero: density forbids a nonzero frequency orthogonal to every step,
and a frequency with lambda.h nonzero survives differencing because
e^(lambda.h) differs from one for nonzero algebraic exponents.  Each nonzero
frequency block is triangular in the graded monomial order with diagonal
(e^(lambda.h)-1)^m, so its component is unique.  The block is sparse: the
image of x^beta holds x^alpha only for alpha <= beta, so back substitution
reads, for each alpha, only the images that hold it, and skips a solved
coefficient that is zero; no product has a zero factor.  The zero-frequency
block is an exact linear system whose nullspace is the polynomial kernel.
On polynomials delta_h^m is (h.grad)^m times an invertible operator, so the
system splits by homogeneous degree, and ``_solve_zero_block`` solves it one
degree at a time from the top down, one elimination per degree.  The
returned particular solution has its free coordinates set to zero under the
fixed graded-lexicographic atom order.

Each (step k, frequency lambda) equation is decided once and exactly.  The
zero block imposes every step's equations at frequency 0.  Each nonzero block
imposes every equation of its pivot step, the first step with lambda.h
nonzero.  The degree bounds of the ansatz cover every monomial of every g_k,
and delta keeps frequencies apart, so what remains are the open frequencies
of each step, those whose pivot is another step; one ``forward_difference``
of the particular solution restricted to them decides that step.  The CLI
``solve`` certificate ``residual_zero`` and the tests still difference the
whole solution against every step.

Both blocks, and ``polynomial_kernel`` through the zero block, read the
images delta_h^m(x^alpha e^(lambda.x)) of the ansatz monomials from
``_images``, and the final check calls ``forward_difference``: both go
through the one closed form of ``exppoly._expand_into``.  Each lambda.h is
formed once per solve, in ``_ansatz``.  So are each step's shift tables,
up to the ansatz's largest degree bound, and the mu = 0 weights of each
order (``_step_tables``): the zero block and every nonzero block pivoting
on a step share them.  Each nonzero block divides by one diagonal entry,
prepared once per block (``expcoef._Divisor``); a residual that is a
scalar multiple of it is divided term by term, any other by
``ExpCoefficient.__truediv__``.  Nothing outlives the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .construct import EvaluableFunction, ExpPolyLeaf, Scale, Sum, mesh_points
from .errors import (
    DenseGroup,
    DimensionMismatch,
    EmptyInput,
    IllConditionedFit,
    Inconsistent,
    InternalError,
    MalformedInput,
    NotDense,
)
from .expcoef import ExpCoefficient, _Divisor
from .exppoly import ExpPolynomial, _difference_sums, _expand_into, _shift_tables
from .groups import GroupClosure, group_closure, _as_vector, _flatten, projection_coords
from .linalg import _dot, field_kernel, field_solve, lattice_coords
from .opalg import TranslationPolynomial
from .scalar import NumberField
from .subspace import FunctionSubspace, invariant_closure

# Largest condition number of a coset-slice design that ``fit_coset_slices``
# fits; above it the fit raises ``IllConditionedFit``.
COND_CAP = 1e12


@dataclass
class DifferenceSystem:
    field: NumberField
    dim: int
    steps: list          # [(step vector, order m_k)]
    rhs: list            # [ExpPolynomial]

    def __post_init__(self):
        if len(self.steps) != len(self.rhs):
            raise MalformedInput("steps and right-hand sides must pair up")
        if not self.steps:
            raise MalformedInput("need at least one equation")
        norm = []
        for h, m in self.steps:
            h = _as_vector(self.field, h, self.dim, "step")
            if int(m) < 1:
                raise MalformedInput("difference orders must be >= 1")
            norm.append((h, int(m)))
        self.steps = norm
        for g in self.rhs:
            if g.dim != self.dim:
                raise DimensionMismatch("right-hand side dimension mismatch")


@dataclass
class SolutionBundle:
    particular: ExpPolynomial
    kernel_basis: list
    ansatz: list         # [(frequency, degree bound)]


def _zero_freq(field: NumberField, dim: int):
    return (field.complex_zero(),) * dim


def _density_gate(sys: DifferenceSystem) -> GroupClosure:
    c = group_closure([h for h, _ in sys.steps], field=sys.field)
    if not c.dense:
        raise NotDense("steps do not span a dense subgroup")
    return c


def ansatz_atoms(sys: DifferenceSystem):
    """Frequencies with degree bounds sufficient to contain every solution."""
    return _ansatz(sys)[0]


def _ansatz(sys: DifferenceSystem):
    """``ansatz_atoms`` and, for each nonzero frequency lambda, the list of
    lambda.h_k over the steps: the one place a solve forms lambda.h.  At the
    zero frequency every lambda.h is zero and no product is formed."""
    _density_gate(sys)
    zero = _zero_freq(sys.field, sys.dim)
    out, products = [], {}
    for fr in dict.fromkeys([zero] + [fr for g in sys.rhs for fr in g.terms]):
        if fr == zero:
            bound = max(max(g.degree_at(fr), 0) + m for (_, m), g in zip(sys.steps, sys.rhs))
        else:
            mus = products[fr] = [_dot(fr, h) for h, _ in sys.steps]
            bound = max(max(g.degree_at(fr), 0) + (m if mu.is_zero() else 0)
                        for (_, m), g, mu in zip(sys.steps, sys.rhs, mus))
        out.append((fr, bound))
    out.sort(key=lambda fb: tuple(c.sort_key() for c in fb[0]))
    return out, products


def _multi_indices(dim: int, max_total: int):
    idx = [a for a in product(range(max_total + 1), repeat=dim)
           if sum(a) <= max_total]
    idx.sort(key=lambda a: (sum(a), a))
    return idx


def solve_difference_system(sys: DifferenceSystem) -> SolutionBundle:
    field, dim = sys.field, sys.dim
    ansatz, products = _ansatz(sys)
    zero = _zero_freq(field, dim)
    tables, zero_sums = _step_tables(sys, max(bound for _, bound in ansatz))
    terms: dict = {}
    kernel: list = []
    pivots = {}
    for freq, bound in ansatz:
        atoms = _multi_indices(dim, bound)
        if freq == zero:
            comp, kern = _solve_zero_block(sys, atoms, tables, zero_sums)
            kernel.extend(kern)
        else:
            comp, pivots[freq] = _solve_nonzero_block(sys, freq, atoms, products[freq], tables)
        terms.update(comp.terms)
    # the blocks decided every step at frequency 0 and each frequency at its
    # pivot step; only the open (step, frequency) equations remain
    for k, ((h, m), g) in enumerate(zip(sys.steps, sys.rhs)):
        open_freqs = [fr for fr, p in pivots.items() if p != k]
        if not open_freqs:
            continue
        part = ExpPolynomial(field, dim, {fr: terms[fr] for fr in open_freqs if fr in terms})
        want = ExpPolynomial(field, dim, {fr: g.terms[fr] for fr in open_freqs if fr in g.terms})
        if part.forward_difference(h, m) != want:
            raise Inconsistent(
                "prescribed differences are not simultaneous differences of one "
                f"function: step {k} (h = {_vector_text(h)}, m = {m}) is not met")
    return SolutionBundle(ExpPolynomial(field, dim, terms), kernel, ansatz)


def _vector_text(v) -> str:
    """A field vector for a message: rational entries as p/q, the others as
    their power-basis coordinate lists."""
    return "(" + ", ".join(
        str(x.as_rational()) if x.is_rational() else "[" + ", ".join(map(str, x.coords)) + "]"
        for x in v) + ")"


def _step_tables(sys: DifferenceSystem, top: int):
    """Per step: its shift tables up to degree ``top`` in every coordinate,
    and the mu = 0 weights S_0..S_top of its order, one list per order.
    Built once per solve and shared by every block that reads the step."""
    field, corner = sys.field, [(top,) * sys.dim]
    sums: dict = {}
    for _, m in sys.steps:
        if m not in sums:
            sums[m] = _difference_sums(field, field.complex_zero(), m, top)
    return [_shift_tables(h, corner) for h, _ in sys.steps], [sums[m] for _, m in sys.steps]


def _images(tables, S, atoms) -> dict:
    """delta_h^m of each ansatz monomial x^alpha e^(lambda.x) as
    ``{alpha: {beta: coefficient of x^beta e^(lambda.x)}}``, zeros left out,
    from the shift tables of h (up to at least the atoms' degrees) and the
    weights S_k of mu = lambda.h and m (``_difference_sums``)."""
    images = {}
    for alpha in atoms:
        _expand_into(images.setdefault(alpha, {}), alpha, tables, S)
    return images


def _solve_nonzero_block(sys: DifferenceSystem, freq, atoms, mus, tables):
    """Unique frequency component and its pivot, the first step k with
    mu_k = lambda.h_k nonzero (``mus`` lists them over the steps): the
    triangular block of that step imposes each of its equations at lambda.
    The equations of the other steps at lambda are left to the final check of
    ``solve_difference_system``.  ``tables`` are the steps' shift tables."""
    field, dim = sys.field, sys.dim
    for pivot, mu in enumerate(mus):
        if not mu.is_zero():
            break
    else:
        raise InternalError("dense steps cannot all annihilate a nonzero frequency")
    (_, m), g = sys.steps[pivot], sys.rhs[pivot]
    S = _difference_sums(field, mu, m, max(map(sum, atoms)))
    images = _images(tables[pivot], S, atoms)
    order = sorted(atoms, key=lambda a: (sum(a), a), reverse=True)
    # the image of beta holds x^alpha only for alpha <= beta, so column[alpha]
    # lists the (beta, coefficient) above the diagonal in solve order
    column: dict = {}
    for beta in order:
        for alpha, t in images[beta].items():
            if alpha != beta:
                column.setdefault(alpha, []).append((beta, t))
    # every diagonal entry is S_0 = (e^mu - 1)^m, the tables' diagonal being
    # 1; it is nonzero, its m + 1 exponents j mu being distinct
    diag = S[0]
    divisor = _Divisor(diag.num)
    coeffs: dict = {}
    for alpha in order:
        resid = g.coefficient(alpha, freq)
        for beta, t in column.get(alpha, ()):
            c = coeffs[beta]
            if c:
                resid = resid - t * c
        q = divisor.scalar_quotient(resid)
        coeffs[alpha] = resid / diag if q is None else q
    return ExpPolynomial(field, dim, {freq: coeffs}), pivot


def _solve_zero_block(sys: DifferenceSystem, atoms, tables, zero_sums):
    """Exact solve of the polynomial block, one homogeneous degree at a time,
    from each step's shift tables and mu = 0 weights (``_step_tables``).

    On polynomials delta_h^m = (h.grad)^m U_h with U_h = ((e^(h.grad) - 1)
    / (h.grad))^m = 1 + (terms that lower the degree), and U_h is
    invertible.  So each step's rows of delta_h^m span the row space of
    (h.grad)^m, which maps homogeneous degree j to degree j - m.  The
    stacked system therefore has the reduced echelon form, pivots, kernel
    and particular solution (free coordinates zero) of a system that is
    block-diagonal by degree.

    The equation (k, beta) leads the block j = |beta| + m_k: its entries
    over the atoms of degree j are those of (h_k.grad)^(m_k).  The blocks
    are solved from the top degree down, one ``field_solve`` each; an
    equation's right-hand side is g_k's coefficient minus its image terms
    over the atoms of the blocks already solved.  An equation with
    |beta| > top - m_k leads no block: no image reaches it, so its
    right-hand side must be zero.  Kernel vectors come back in ascending
    graded order, the free columns of the stacked system.

    At frequency 0 the images are field scalars, so the matrix holds
    ``ComplexAlgebraic`` values; a right-hand-side entry stays an
    ``ExpCoefficient`` only when it is not a scalar, and each elimination
    serves both (``ComplexAlgebraic`` defers to ``ExpCoefficient``)."""
    field, dim = sys.field, sys.dim
    zero_freq = _zero_freq(field, dim)
    zero, one = field.complex_zero(), field.complex_one()
    degree = {a: sum(a) for a in atoms}
    top = max(degree.values())
    columns = [[] for _ in range(top + 1)]
    for a in atoms:
        columns[degree[a]].append(a)
    # per block j: (entries over the degree-j atoms, entries over higher
    # atoms, right-hand side) of each equation it leads
    blocks = [[] for _ in range(top + 1)]
    unreached, n_eqs = [], 0
    for (_, m), g, tabs, S in zip(sys.steps, sys.rhs, tables, zero_sums):
        rows: dict = {}
        for alpha, img in _images(tabs, S, atoms).items():
            for beta, t in img.items():
                rows.setdefault(beta, {})[alpha] = t.scalar_value()
        out_atoms = rows.keys() | degree.keys()
        n_eqs += len(out_atoms)
        for beta in out_atoms:
            b = g.coefficient(beta, zero_freq)
            b = b.scalar_value() if b.is_scalar() else b
            j = sum(beta) + m
            if j > top:
                unreached.append(b)
                continue
            row = rows.get(beta, {})
            blocks[j].append(({a: t for a, t in row.items() if degree[a] == j},
                              [(a, t) for a, t in row.items() if degree[a] > j], b))

    def inconsistent():
        return Inconsistent(f"the zero-frequency polynomial block ({len(atoms)} unknowns, "
                            f"{n_eqs} equations) admits no solution")

    if any(unreached):
        raise inconsistent()
    solved: dict = {}
    kernels = []
    for j in range(top, -1, -1):
        cols = columns[j]
        mat, rhs = [], []
        for diag, above, b in blocks[j]:
            for a, t in above:
                c = solved[a]
                if c:
                    b = b - t * c
            mat.append([diag.get(a, zero) for a in cols])
            rhs.append(b)
        part, kern = field_solve(mat, rhs, len(cols), zero, one)
        if part is None:
            raise inconsistent()
        solved.update(zip(cols, part))
        kernels.append([dict(zip(cols, kv)) for kv in kern])

    def poly(coeffs):
        return ExpPolynomial(field, dim, {zero_freq: {
            a: c if isinstance(c, ExpCoefficient) else ExpCoefficient.scalar(field, c)
            for a, c in coeffs.items()}})

    comp = poly({a: solved[a] for a in atoms})
    return comp, [poly(kv) for kern in reversed(kernels) for kv in kern]


def polynomial_kernel(field: NumberField, dim: int, steps, cap: int):
    """Basis of polynomials of total degree <= cap annihilated by every
    delta_(h_k)^(m_k); requires dense steps."""
    if cap < 0:
        raise MalformedInput(f"kernel degree cap must be >= 0, got {cap}")
    sys = DifferenceSystem(field, dim, list(steps),
                           [ExpPolynomial.zero(field, dim) for _ in steps])
    _density_gate(sys)
    atoms = _multi_indices(dim, cap)
    _, kern = _solve_zero_block(sys, atoms, *_step_tables(sys, cap))
    return kern


def in_kernel_span(diff: ExpPolynomial, kernel_basis) -> bool:
    """Exact membership of diff in the span of the kernel basis."""
    if diff.is_zero():
        return True
    space = FunctionSubspace.span(kernel_basis, dim=diff.dim, field=diff.field) \
        if kernel_basis else None
    if space is None:
        return False
    return space.contains(diff)


# ---------------------------------------------------------------------------
# coset-slice fitting for non-dense step groups
# ---------------------------------------------------------------------------

@dataclass
class FittedSlice:
    lattice_point: tuple
    residual: float
    coefficients: list
    function: EvaluableFunction


@dataclass
class CosetFitReport:
    slices: list
    candidate_dim: int
    condition: float
    completion_steps: list


def fit_coset_slices(f: EvaluableFunction, closure: GroupClosure, orders,
                     H: FunctionSubspace, lambdas, grid_count: int = 16,
                     grid_halfwidth: float = 2.0) -> CosetFitReport:
    """Least-squares slices  e_lambda with  f(x + lambda) ~ e_lambda(x) on V.

    ``orders`` lists triples (h_k, n_k, m_k): n_k bounds the order of the
    difference of f lying in H, m_k is the invariance order of H (checked
    exactly).  H is first replaced by its closure invariant under every
    single difference.  The candidate space is that closure restricted to V plus the joint
    polynomial kernel of the projected steps at order N = sum n_k.  Residuals
    are reported on a held-out grid offset from the fitting grid; this is a
    numerical verification, not a proof.  An empty candidate space, and
    fewer fitting points than candidates on a nonzero V, are refused with
    ``MalformedInput`` before any fit.

    Each candidate is evaluated once, on the fitting and held-out grids
    stacked, and f once, on both grids shifted by every lattice point; the
    per-point fits then read their rows of those values.  Every slice is a
    sum over the same ``ExpPolyLeaf`` objects, one per candidate.  A lattice
    point outside the closure's lattice Lambda, and a grid half-width that
    is not finite and > 0, are refused with ``MalformedInput``.
    """
    if grid_count < 1:
        raise MalformedInput(f"grid count must be >= 1, got {grid_count}")
    if not (math.isfinite(grid_halfwidth) and grid_halfwidth > 0):
        raise MalformedInput(f"grid half-width must be finite and > 0, got {grid_halfwidth}")
    field = closure.field
    d = closure.dim
    if closure.dense:
        raise DenseGroup("slices are only defined for non-dense step groups")
    norm_orders = [(_as_vector(field, h, d, "step"), int(n), int(m)) for h, n, m in orders]
    # the closure's lattice rows, flattened, are the echelon rows of its HNF
    lam_flat = [_flatten(v) for v in closure.lambda_basis]
    lam_vecs = []
    for lam in lambdas:
        lv = _as_vector(field, lam, d, "lattice point")
        if lattice_coords(lam_flat, _flatten(lv)) is None:
            raise MalformedInput(f"lattice point {_vector_text(lv)} is not in the "
                                 "lattice Lambda of the closure")
        lam_vecs.append(lv)

    ops = [(TranslationPolynomial.delta(field, h, 1, dim=d), m)
           for h, _, m in norm_orders]
    H_closed = invariant_closure(H, ops)

    v_basis = closure.v_basis
    vdim = len(v_basis)
    N = sum(n for _, n, _ in norm_orders)

    # fit variables t relate to ambient points by t = T x with T = G^(-1) B,
    # G the Gram matrix of the V basis B; so T h is the fit-coordinate vector
    # of h projected onto V.  polynomial_kernel's density gate checks that
    # the projected steps are dense inside V.
    kern = []
    if vdim:
        T = projection_coords(v_basis)
        proj_steps = [(tuple(_dot(row, h) for row in T), N) for h, _, _ in norm_orders]
        try:
            kern = polynomial_kernel(field, vdim, proj_steps, N)
        except NotDense as e:
            raise InternalError("projected steps must be dense inside V") from e

    # completion directions recorded for the report: an orthogonal field basis
    # of the complement of V, plain and scaled by theta
    comp = field_kernel([list(v) for v in v_basis], d, field.zero(), field.one())
    completion = [tuple(v) for v in comp] + \
                 [tuple(x * field.gen() for x in v) for v in comp]

    # fit and held-out grids inside V
    if vdim:
        B = np.array([[float(x) for x in v] for v in v_basis])
        xgrid, xgrid_out = (
            mesh_points([np.linspace(-grid_halfwidth, grid_halfwidth, n)] * vdim) @ B
            for n in (grid_count, grid_count + 7))
    else:
        xgrid = np.zeros((1, d))
        xgrid_out = np.zeros((1, d))

    candidates: list[ExpPolynomial] = list(H_closed.basis_polynomials())
    candidates.extend(p.substitute_linear(T) for p in kern)
    if not candidates:
        raise EmptyInput("candidate space is empty: the invariant closure of H "
                         "and the polynomial kernel on V have no basis function")
    # over V = {0} a slice is one value, which the one point determines
    if vdim and len(xgrid) < len(candidates):
        raise MalformedInput(f"{len(xgrid)} fitting points for {len(candidates)} "
                             "candidates; the fit needs at least as many points as "
                             "candidates")

    # one evaluation of each candidate on both grids, and one of f on both
    # grids shifted by every lattice point; rows split at n_fit
    n_fit, n_all = len(xgrid), len(xgrid) + len(xgrid_out)
    both = np.concatenate([xgrid, xgrid_out])
    design_all = np.stack([c.evaluate_array(both) for c in candidates], axis=1)
    design, design_out = design_all[:n_fit], design_all[n_fit:]
    cond = float(np.linalg.cond(design))
    if cond > COND_CAP:
        raise IllConditionedFit(f"design condition {cond:.3e} exceeds {COND_CAP:.1e}")

    # one leaf per candidate, which every slice shares
    leaves = [ExpPolyLeaf(b) for b in candidates]
    shifted = [np.array([float(x) for x in lv]) for lv in lam_vecs]
    f_vals = f.eval_array(np.concatenate(
        [g + lam for lam in shifted for g in (xgrid, xgrid_out)])) if lam_vecs else None
    slices = []
    for i, lv in enumerate(lam_vecs):
        vals = f_vals[i * n_all:i * n_all + n_fit]
        vals_out = f_vals[i * n_all + n_fit:(i + 1) * n_all]
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = float(np.max(np.abs(vals_out - design_out @ coeffs)))
        fitted = Sum([Scale(complex(c), leaf) for c, leaf in zip(coeffs, leaves)])
        slices.append(FittedSlice(lv, resid, [complex(c) for c in coeffs], fitted))
    return CosetFitReport(slices, len(candidates), cond, completion)
