"""Exception types shared across the package."""


class FracGraphError(Exception):
    """Base class for all package errors."""


class LengthMismatch(FracGraphError, ValueError):
    """Vertex function length differs from the graph's vertex count."""


class InvalidGraph(FracGraphError, ValueError):
    """Graph failed validation; carries the violation report."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NoConvergence(FracGraphError, RuntimeError):
    """Eigendecomposition did not converge."""


class ExponentOutOfRange(FracGraphError, ValueError):
    """Fractional or integrability exponent outside its admissible range."""


class DomainError(FracGraphError, ValueError):
    """Argument outside the supported domain."""


class PositivityViolation(FracGraphError, RuntimeError):
    """Kernel weight matrix has a significantly negative off-diagonal entry."""


class QuadratureNotConverged(FracGraphError, RuntimeError):
    """Improper-integral quadrature failed its internal consistency check."""


class NonPositiveState(FracGraphError, ValueError):
    """Flow state has a vertex value <= 0 where positivity is required."""


class StepSizeUnderflow(FracGraphError, RuntimeError):
    """Adaptive step size was forced below the representable floor."""


class StepBudgetExceeded(FracGraphError, RuntimeError):
    """Adaptive integration used up its step budget before the horizon."""


class BoundViolation(FracGraphError, RuntimeError):
    """Trajectory left the [min u0, max u0] band beyond tolerance."""


class PicardNotConverged(FracGraphError, RuntimeError):
    """Frozen-coefficient iteration hit its cap; carries the distance history."""

    def __init__(self, history):
        self.history = list(history)
        super().__init__(
            f"no convergence after {len(self.history)} iterations "
            f"(last sup-distance {self.history[-1]:.3e})"
        )
