"""Exception types shared across the package."""

from __future__ import annotations


class NldiffError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(NldiffError):
    """A parameter or precondition was violated while setting something up."""


class GridMismatchError(NldiffError):
    """A field was combined with a grid it does not live on."""


class KernelValidationError(NldiffError):
    """A kernel table failed a structural requirement (evenness, sign).

    ``offenders`` lists the offsets or indices that broke the rule so the
    caller can see exactly what to fix.
    """

    def __init__(self, message: str, offenders=None):
        super().__init__(message)
        self.offenders = list(offenders) if offenders is not None else []


class AssumptionViolationError(NldiffError):
    """The solver refused to run because the problem data is nonconformant.

    ``report`` is the :class:`~nldiff.kernels.RunReport` of
    :func:`~nldiff.kernels.validate_assumptions`, every check with its
    measured value and threshold; pass ``allow_nonconformant=True`` to run
    anyway (the a priori estimates are then void).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NumericalBlowupError(NldiffError):
    """A state stopped being finite mid-run.

    Attributes
    ----------
    step : int
        Index of the step that produced the non-finite state.
    t : float
        Time at that step.
    last_state : Field
        The last state that was still finite.
    """

    def __init__(self, message: str, step: int, t: float, last_state=None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.last_state = last_state


class ConfigParseError(ConfigurationError):
    """A run-configuration file could not be parsed.

    ``line`` is the 1-based line number the error points at, or 0 when the
    problem is not tied to a single line (a missing required key, say).
    """

    def __init__(self, message: str, line: int = 0, path: str = ""):
        loc = f"{path or 'config'}"
        if line:
            loc += f", line {line}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.path = path


class PgmFormatError(NldiffError):
    """A PGM image file is malformed or uses an unsupported variant."""


class UndefinedRatioError(NldiffError):
    """A stability ratio was requested for trajectories with equal starts."""
