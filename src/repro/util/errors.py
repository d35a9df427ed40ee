"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of ``repro`` with a single except clause while
still being able to distinguish failure classes.
"""

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape, dtype, or layout."""


class FormatError(ReproError, ValueError):
    """A sparse-matrix container is malformed (bad indptr, indices, ...)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure (e.g. Lanczos bounds) failed to converge."""


class PartitionError(ReproError, ValueError):
    """A row partition is invalid (non-contiguous, wrong total, bad weights)."""


class SimulationError(ReproError, RuntimeError):
    """A hardware/distributed simulation entered an inconsistent state."""


class BackendError(ReproError, RuntimeError):
    """A kernel backend is unknown or unavailable on this host."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, truncated, or fails its integrity check.

    Raised by :class:`repro.core.checkpoint.KpmCheckpoint` instead of the
    raw ``zipfile``/``KeyError`` soup NumPy produces on damaged ``.npz``
    archives, so the resilience supervisor can classify the failure and
    fall back to an older checkpoint (or a fresh start) deliberately.
    """


class SpectralScaleError(ReproError, ValueError):
    """The spectrum escapes the spectral map ``(a, b)``: a block partial
    of eta exceeded its column's anchor (DESIGN §19), which a scale
    enclosing the spectrum never allows.

    Raised by every engine with the scale, the column and the moment;
    the resilience supervisor neither retries nor degrades on it — no
    attempt can succeed on the same scale.
    """

    kind = "scale"

    def __init__(self, message: str, *, a=None, b=None, column=None,
                 moment=None) -> None:
        super().__init__(message)
        self.a, self.b, self.column, self.moment = a, b, column, moment


class FaultInjected(ReproError, RuntimeError):
    """An injected fault fired in an in-process engine (sim or serial).

    The multiprocess engine injects *real* faults (``os._exit``, stalls in
    worker processes); the sequential engines surface the same fault plan
    as this exception so the supervisor exercises an identical recovery
    path without killing the host interpreter.  ``kind`` carries the fault
    kind (``'crash'``, ``'raise'``, ``'stall'``, ...).
    """

    def __init__(self, message: str, kind: str = "raise") -> None:
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class WorkerFault:
    """One worker's contribution to a failed multiprocess run.

    ``kind`` is one of ``'exception'`` (the worker raised and forwarded
    the message), ``'death'`` (the process died without reporting —
    a crash, OOM kill, or injected ``os._exit``), ``'stall'`` (the
    parent's heartbeat monitor declared it wedged), or ``'timeout'``
    (the whole-run deadline expired).
    """

    rank: int
    kind: str
    detail: str = ""
    exit_code: int | None = None

    def describe(self) -> str:
        bits = [f"rank {self.rank}: {self.kind}"]
        if self.detail:
            bits.append(self.detail)
        if self.exit_code is not None:
            bits.append(f"exit code {self.exit_code}")
        return " — ".join(bits)


class WorkerFailure(SimulationError):
    """A multiprocess run failed, with a structured per-worker payload.

    Subclasses :class:`SimulationError` so existing ``except`` clauses
    keep working; carries machine-readable :class:`WorkerFault` records
    plus the latest checkpointed iteration (``resume_m``, None when no
    checkpoint was taken) so a supervisor can classify the failure and
    resume instead of parsing the message string.
    """

    def __init__(
        self,
        message: str,
        failures: list[WorkerFault] | tuple[WorkerFault, ...] = (),
        resume_m: int | None = None,
    ) -> None:
        super().__init__(message)
        self.failures = list(failures)
        self.resume_m = resume_m

    @property
    def kinds(self) -> set[str]:
        return {f.kind for f in self.failures}


class RetryExhaustedError(ReproError, RuntimeError):
    """The resilience supervisor ran out of attempts (and ladder rungs).

    ``history`` lists one ``(engine, attempt, error_class, detail)`` tuple
    per failed attempt, in order.
    """

    def __init__(self, message: str, history: list | None = None) -> None:
        super().__init__(message)
        self.history = list(history or [])
