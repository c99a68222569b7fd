"""Exception hierarchy for the clearing engine."""


class ModelError(Exception):
    """Base class for all domain errors."""


class EmptyCurve(ModelError):
    """A net curve was built from an empty node list."""


class NonMonotoneCurve(ModelError):
    """Curve nodes are not monotone (price up, quantity down)."""


class ValidationError(ModelError):
    """An instance-level invariant is violated."""


class SchemaError(ModelError):
    """A document does not match the expected shape; carries the field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownId(ModelError):
    """A solution references a bid or segment id not in the instance."""


class ClearingViolated(ModelError):
    """The clearing balance (executed net demand vs. net import) does not hold."""


class PriceInfeasible(ModelError):
    """No loss-free linear price supports the given execution."""


class EmptyLossSets(ModelError):
    """A bid cut was requested for empty loss sets."""


class TooLarge(ModelError):
    """The instance exceeds the enumeration cap of the brute-force oracle."""


class OutputError(Exception):
    """An output document could not be written (``--out`` names a missing
    directory, a directory or a file without write permission)."""


class SolverFailure(RuntimeError):
    """A numerical subproblem did not reach a verdict (iteration limit,
    phase-1 non-convergence or an unexpected status)."""


class TimeLimit(RuntimeError):
    """A solve passed the deadline its caller set, or heuristic mode's leaf
    test reached its cap; the caller turns this into a ``limit`` result."""
