"""Shared exception types for the laboratory."""


class ResourceBudgetError(RuntimeError):
    """Raised when an enumeration or a simulation would exceed its budget.

    Carries the estimated cost so callers (and the CLI, which maps this to
    exit code 2) can report how far over budget the request was.
    """

    def __init__(self, message: str, estimated: float, budget: float):
        super().__init__(message)
        self.estimated = float(estimated)
        self.budget = float(budget)


class SimulationBlowup(RuntimeError):
    """Raised when the time stepper detects NaN/overflow.

    The last finite state is attached so experiments can report how far the
    run got before losing the solution.
    """

    def __init__(self, message: str, t_last_good: float, state=None):
        super().__init__(message)
        self.t_last_good = float(t_last_good)
        self.state = state
