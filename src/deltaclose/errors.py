"""Exception hierarchy shared by all deltaclose modules.

Exit-code mapping used by the CLI lives in ``cli.py``; library code only
raises, it never exits.
"""


class DeltaCloseError(Exception):
    """Base class for all library errors."""


class MalformedInput(DeltaCloseError):
    """Input document or argument does not match the expected schema."""


class NotSquareFree(MalformedInput):
    """Declared minimal polynomial shares a factor with its derivative."""


class NoSignChange(MalformedInput):
    """Isolating interval does not bracket a real root."""


class FieldMismatch(MalformedInput):
    """Operands belong to different declared number fields."""


class DimensionMismatch(MalformedInput):
    """Ambient dimensions of the operands disagree."""


class EmptyInput(MalformedInput):
    """An operation that needs at least one generator got none."""


class NonpositivePeriod(MalformedInput):
    """Triangle wave requires a strictly positive period."""


class LatticeValuesNonzero(MalformedInput):
    """Antidifference input does not vanish on the step lattice."""


class FrameInvalid(MalformedInput):
    """Hyperplane frame does not satisfy its construction invariants."""


class Inconsistent(DeltaCloseError):
    """The prescribed differences admit no common solution."""


class NotDense(DeltaCloseError):
    """Steps do not span a dense subgroup; dense-only operation refused."""


class DenseGroup(DeltaCloseError):
    """Group closure is all of space; non-dense-only operation refused."""


class PreconditionNotInvariant(DeltaCloseError):
    """Subspace is not invariant under the required operator power."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"subspace not invariant under operator power (index {index})")


class NonIntegralRatio(DeltaCloseError):
    """Internal consistency failure: transverse lattice not discrete."""


class IllConditionedFit(DeltaCloseError):
    """Least-squares design matrix condition estimate too large."""


class InternalError(DeltaCloseError):
    """Invariant violated inside the library; indicates a bug."""
