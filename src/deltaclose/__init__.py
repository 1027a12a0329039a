"""deltaclose: exact forward-difference operator algebra on exponential
polynomials, subgroup closure geometry, and the constructions they certify."""

from .scalar import (
    AlgebraicScalar,
    ComplexAlgebraic,
    NumberField,
    calg,
    make_field,
    rational_field,
)
from .expcoef import ExpCoefficient
from .exppoly import ExpPolynomial, translation_hull
from .opalg import (
    TranslationPolynomial,
    divisibility_factor,
    telescope_expansion,
    telescope_total,
)
from .subspace import FunctionSubspace, invariant_closure, one_step_closure, saturate
from .groups import (
    GroupClosure,
    HyperplaneFrame,
    build_frame,
    dual_witness,
    group_closure,
)
from .construct import (
    corner_witness,
    difference_values,
    make_antidifference,
    make_counterexample,
    make_fm,
    make_triangle_wave,
)
from .solver import (
    DifferenceSystem,
    SolutionBundle,
    ansatz_atoms,
    fit_coset_slices,
    polynomial_kernel,
    solve_difference_system,
)

__all__ = [
    "AlgebraicScalar",
    "ComplexAlgebraic",
    "DifferenceSystem",
    "ExpCoefficient",
    "ExpPolynomial",
    "FunctionSubspace",
    "GroupClosure",
    "HyperplaneFrame",
    "NumberField",
    "SolutionBundle",
    "TranslationPolynomial",
    "ansatz_atoms",
    "build_frame",
    "calg",
    "corner_witness",
    "difference_values",
    "divisibility_factor",
    "dual_witness",
    "fit_coset_slices",
    "group_closure",
    "invariant_closure",
    "make_antidifference",
    "make_counterexample",
    "make_field",
    "make_fm",
    "make_triangle_wave",
    "one_step_closure",
    "polynomial_kernel",
    "rational_field",
    "saturate",
    "solve_difference_system",
    "telescope_expansion",
    "telescope_total",
    "translation_hull",
]
