"""Exception types shared across the package.

Argument validation uses plain ValueError; the classes below mark numerical
degeneracies that callers (notably the CLI) may want to distinguish from
usage errors.
"""


class FileFormatError(OSError):
    """A data file exists but its content does not match the expected format."""


class NumericalDegeneracyError(RuntimeError):
    """Base class for data-dependent numerical failures."""


class DegenerateRowError(NumericalDegeneracyError):
    """A row became (numerically) linearly dependent during orthogonalization."""

    def __init__(self, row: int, norm: float):
        self.row = row
        self.norm = norm
        super().__init__(f"row {row} is linearly dependent (residual norm {norm:.3e})")


class DegenerateComponentError(NumericalDegeneracyError):
    """A factor component collapsed during the alternating-regression sweep."""

    def __init__(self, mode: int, component: int):
        self.mode = mode
        self.component = component
        super().__init__(f"degenerate component {component} in mode {mode}")


class DegenerateVarianceError(NumericalDegeneracyError):
    """A component the chi-square statistic needs carries no variance.

    value is its posterior variance (not positive) or, on the matrix routes,
    its squared singular value (at or below the noise floor).
    """

    def __init__(self, component: int, value: float):
        self.component = component
        self.value = value
        super().__init__(f"component {component} has degenerate variance {value:.3e}")


class SigmaOptimizationError(NumericalDegeneracyError):
    """No usable candidate was found while optimizing the null standard deviation."""


class DivergenceError(NumericalDegeneracyError):
    """A simulated trajectory left the admissible range."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"trajectory diverged at step {step}")
