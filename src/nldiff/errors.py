"""Exception types shared across the package, and :class:`_Helper`, the
one way it runs work in another process, with the reply format."""

from __future__ import annotations

import copyreg
import os
import pickle
import sys
import warnings


class NldiffError(Exception):
    """Base class for every error raised by this package.

    Errors pickle with their class, message and attributes, so that one
    raised in a helper process reaches the caller unchanged.
    """

    def __reduce__(self):
        # Rebuilt without __init__, whose signature varies by subclass and
        # may reformat the message: BaseException.__new__ keeps the final
        # message as args, and the attributes come back as state.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
    anyway (the a priori estimates are then void), unless the range kernel
    failed its oddness check.
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


def _caught(fn, *args):
    """``fn(*args)`` or the exception it raised, and its warnings as
    (message, category, filename, lineno): a helper's reply."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _unpack(reply):
    """The result of a :func:`_caught` reply, after its warnings, each
    issued under the module name and once-registry of the file that raised
    it, as in this process; its exception, if any, is raised."""
    result, caught = reply
    for message, category, filename, lineno in caught:
        where = next((vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__file__", None) == filename), {})
        warnings.warn_explicit(message, category, filename, lineno, where.get("__name__"),
                               where.setdefault("__warningregistry__", {}))
    if isinstance(result, Exception):
        raise result
    return result


# Set in a helper right after its fork, so that no helper forks another.
_in_helper = False


def _cpus() -> int:
    """The CPUs this process may use; 1 in a helper."""
    return 1 if _in_helper or not hasattr(os, "sched_getaffinity") else len(os.sched_getaffinity(0))


class _Helper:
    """A forked child process, which inherits everything, serving ``fn`` on
    the pickled requests of :meth:`send` until they end or it fails; its
    :func:`_caught` replies are unpacked in order by :meth:`reply`, and a
    dead child raises :class:`RuntimeError` naming ``what`` it served.
    :meth:`close` closes both pipe ends, which ends a child waiting or
    blocked writing, and reaps it.  A child holds the parent's pipe ends of
    earlier helpers, so helpers are closed in the reverse order of forks."""

    def __init__(self, fn, what: str):
        self.lost = f"the helper process of {what} ended without a reply"
        (rq, self.requests), (self.replies, rp) = os.pipe(), os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            global _in_helper
            _in_helper = True
            try:
                os.close(self.requests)
                os.close(self.replies)
                requests, replies = open(rq, "rb"), open(rp, "wb")
                while True:  # until EOFError at the end of the requests, or any other error
                    # pickled whole first: a reply that does not pickle sends nothing
                    replies.write(pickle.dumps(_caught(fn, *pickle.load(requests))))
                    replies.flush()
            finally:
                os._exit(0)
        os.close(rq)
        os.close(rp)
        self.replies = open(self.replies, "rb")

    def send(self, *request):
        try:
            os.write(self.requests, pickle.dumps(request))  # a small request: one write
        except BrokenPipeError:
            raise RuntimeError(self.lost) from None

    def reply(self):
        try:
            reply = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(self.lost) from None
        return _unpack(reply)

    def close(self):
        os.close(self.requests)
        self.replies.close()
        os.waitpid(self.pid, 0)
