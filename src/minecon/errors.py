"""Exception types shared across the engine."""


class MineconError(Exception):
    """Base class for engine errors."""


class ValidationError(MineconError, ValueError):
    """Bad input: parameter outside its documented domain."""


class CertainRuinError(MineconError, ValueError):
    """A positive-probability outcome drives wealth to zero or below,
    so the log-growth rate is -inf."""


class ConvergenceError(MineconError, RuntimeError):
    """An iterative numerical scheme exhausted its refinement budget.

    Carries the best available estimate and the error actually achieved.
    """

    def __init__(self, message, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class NumericalError(MineconError, ArithmeticError):
    """A numerical invariant failed at run time: a non-finite result, a
    series that never terminated, or a value outside its proven range."""


class NoViableStrategyError(MineconError, ValueError):
    """No budget split produces a finite growth rate."""


class NoRootError(MineconError, ValueError):
    """A root-bracketing search found no sign change."""


def require(cond: bool, msg: str) -> None:
    """Raise ValidationError(msg) unless cond holds."""
    if not cond:
        raise ValidationError(msg)
