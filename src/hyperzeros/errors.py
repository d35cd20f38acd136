"""Exception types shared across the package.

The CLI maps these onto exit codes: InvalidInputError and
SaddleAtSeedError -> 2, NonConvergenceError and BranchCollisionError -> 3,
missing files (FileNotFoundError) -> 4.
"""


class InvalidInputError(ValueError):
    """A precondition on user-supplied data is violated."""


class DenominatorParameterError(InvalidInputError):
    """An instantiated denominator parameter is a forbidden nonpositive integer."""

    def __init__(self, j, value, n):
        self.j = j
        self.value = value
        self.n = n
        super().__init__(
            f"denominator parameter b_{j}({n}) = {value} is a nonpositive "
            f"integer >= -{n}; the series coefficients are undefined"
        )


class NonConvergenceError(RuntimeError):
    """An iterative computation failed to reach its accuracy target.

    Carries a ``trace`` list of per-stage diagnostics so the caller can
    decide whether to retry at higher precision.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class PoleError(ZeroDivisionError):
    """Evaluation was requested at (or too close to) a pole."""


class BranchCollisionError(RuntimeError):
    """Two branches of the algebraic function came too close along a path.

    The path must be rerouted away from the offending point.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class SaddleAtSeedError(RuntimeError):
    """A level-curve trace was seeded at a critical point.

    ``point`` is the critical point and ``directions`` the four outgoing
    level-set directions (radians) from the local quadratic model.
    """

    def __init__(self, point, directions):
        self.point = point
        self.directions = directions
        super().__init__(
            f"the seed lies at the critical point {point} of the level function; "
            f"reseed along one of its outgoing directions "
            f"{', '.join(f'{d:.6f}' for d in directions)} (radians)"
        )
