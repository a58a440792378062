"""Error taxonomy shared by all farfield modules.

Four failure families: bad caller input, numerical breakdown (a failed
iteration, integration or linear solve), profiles that cannot reach their
limit value, and internal cross-checks that disagree. The CLI maps these
onto process exit codes.
"""


class FarfieldError(Exception):
    pass


class InputError(FarfieldError, ValueError):
    """Caller handed us something outside an operation's domain."""


class ConfigError(InputError):
    """Malformed or inconsistent experiment configuration."""


class NumericError(FarfieldError, RuntimeError):
    """An iteration, integration or linear solve failed or missed its tolerance."""


class InfeasibleProfileError(NumericError):
    """Requested limit value cannot be attained by a monotone profile."""


class ConsistencyError(FarfieldError, RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance."""
