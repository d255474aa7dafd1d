"""Exception types shared across the package."""


class InvalidSpectrumError(ValueError):
    """A phonon spectrum entry is unusable (nonpositive frequency or nonfinite coupling)."""


class ConfigError(ValueError):
    """A run/sweep configuration is malformed or violates a constraint.

    `line` carries the 1-based line number in the config text when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrationDivergedError(RuntimeError):
    """The integrator produced a nonfinite state, or a step past the stability limit.

    `t_last` is the last sample time at which the state was still finite and
    inside the norm bound.
    """

    def __init__(self, message, t_last):
        super().__init__(message)
        self.t_last = t_last


class GridMismatchError(ValueError):
    """Two trajectories meant to be compared were sampled on different time grids."""
