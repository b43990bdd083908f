"""Exception types shared across the solver modules."""


class RobinSlabError(Exception):
    """Base class for all solver errors."""


class ConfigError(RobinSlabError):
    """Invalid or inconsistent run configuration."""


class ResonanceError(RobinSlabError):
    """Robin coefficient collides with a lateral mode rate.

    Carries the offending (k1, k2) pairs so callers can report them.
    """

    def __init__(self, message, modes=()):
        super().__init__(message)
        self.modes = tuple(modes)


class SingularSystemError(RobinSlabError):
    """A per-mode linear system is numerically singular."""


class NonFiniteError(RobinSlabError):
    """A field or norm stopped being finite during iteration."""


class NoConvergenceError(RobinSlabError):
    """Fixed-point iteration hit the sweep cap while still moving."""


class WorkerError(RobinSlabError):
    """A forked worker process ended before sending its whole result."""
