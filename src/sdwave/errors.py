"""Exception hierarchy: one class per CLI exit code.

Each class carries its exit code and the label `cli.main` prints before
the message; `main` maps every failure through these two attributes.
"""


class SdwaveError(Exception):
    """Base class for all toolkit errors; no module raises it bare."""

    exit_code = 1
    label = "error"


class ConfigError(SdwaveError):
    """Malformed or incomplete configuration, or an unusable input file."""

    exit_code = 1
    label = "config error"


class ModelInvalidError(SdwaveError):
    """Model ingredients violate a structural requirement, or a speed has no
    decay roots (at or below the threshold speed)."""

    exit_code = 2
    label = "model error"


class VerificationError(SdwaveError):
    """A stored result failed re-verification."""

    exit_code = 3
    label = "verification failed"


class NonconvergenceError(SdwaveError):
    """Iteration budget exhausted, or a scheme failure (instability or an
    invariant band violated).

    Carries the per-iteration sup-difference trace for diagnostics.
    """

    exit_code = 4
    label = "solver failed"

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
