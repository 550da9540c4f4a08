"""Exception types shared across the solvers."""


class SolverLimitError(RuntimeError):
    """A configured solver limit (instance size, iterations, budget) was hit."""


class InfeasibleMasterError(RuntimeError):
    """The restricted master program has no feasible solution."""


class NumericalFailureError(RuntimeError):
    """The linear-programming machinery lost numerical reliability."""


class InvariantError(RuntimeError):
    """A solver broke an invariant its result depends on (an internal fault)."""
