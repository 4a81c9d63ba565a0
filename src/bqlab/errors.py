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

    def __reduce__(self):
        # the constructor's arguments and every attribute, so the error
        # survives a pickle round trip (a worker process sends it back)
        return type(self), (self.args[0], self.estimated, self.budget), \
            self.__dict__


class SimulationBlowup(RuntimeError):
    """Raised when the time stepper detects NaN/overflow.

    The last finite state is attached so experiments can report how far the
    run got before losing the solution.
    """

    def __init__(self, message: str, t_last_good: float, state=None):
        super().__init__(message)
        self.t_last_good = float(t_last_good)
        self.state = state

    def __reduce__(self):
        return type(self), (self.args[0], self.t_last_good, self.state), \
            self.__dict__
