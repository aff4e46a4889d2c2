"""Exception types raised across the package."""


class QLatticeError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QLatticeError):
    """Operands live in Hilbert spaces of different ambient dimension."""


class InvalidMatrix(QLatticeError, ValueError):
    """A matrix argument is not 1-d or 2-d, or has non-finite entries."""


class NonHermitianInput(QLatticeError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NoConvergence(QLatticeError):
    """An iterative solver hit its sweep cap before converging."""


class TooManyArguments(QLatticeError):
    """Subset enumeration over the arguments would be intractable."""


class InternalInconsistency(QLatticeError):
    """Two supposedly equivalent computations disagree beyond tolerance."""


class PreconditionViolated(QLatticeError):
    """Supplied subspaces do not satisfy a required lattice relation."""


class NegativeVariance(QLatticeError):
    """A variance came out below the negative round-off allowance."""


class InvalidPartition(QLatticeError):
    """The supplied blocks do not partition the sample space."""


class EvenDimension(QLatticeError):
    """Coherent families require odd dimension so that 2 is invertible mod d."""


class NonUnitFiducial(QLatticeError):
    """The fiducial vector is not normalized."""


class LinearlyDependentState(QLatticeError):
    """A new coherent state lies (numerically) in the span already built."""


class DuplicateLabel(QLatticeError):
    """A phase-space label was supplied twice."""


class ShiftDependenceFailure(QLatticeError):
    """Some displaced copy of an aggregate hits linear dependence."""


class ParseError(QLatticeError):
    """A JSON document does not match the expected schema."""


class UnknownCheck(QLatticeError):
    """A sweep was asked for a check name that is not registered."""


class InvalidConfig(QLatticeError):
    """A sweep configuration fails its basic sanity constraints."""
