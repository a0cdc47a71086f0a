"""Exception types shared across the solver modules."""


class DimensionMismatchError(ValueError):
    """Shapes of contracts, experiments, priors, or garblings disagree."""


class BoundaryPointError(ValueError):
    """Derivatives requested at an experiment with (near-)zero entries."""


class NoConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class DegeneratePriorError(ValueError):
    """The prior lies outside the posterior grid of a curve."""


class NoPatternFoundError(RuntimeError):
    """The contract solvers cannot take the problem: its cost has no logit
    rule (a tabulated uncertainty function)."""


class InconsistentProfileError(ValueError):
    """A (contract, experiment) pair does not satisfy the optimality system."""


class OutOfRangeError(ValueError):
    """A requested agent utility lies outside the achievable range."""


class TooLargeError(ValueError):
    """Problem dimensions exceed what the exhaustive oracle supports."""


class MalformedProblemError(ValueError):
    """A problem failed validation, whether read from a file or built as a
    `ProblemInstance`.

    Carries a JSON-pointer style path to the offending key of the problem
    file.
    """

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
