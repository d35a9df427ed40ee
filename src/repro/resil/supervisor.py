"""The resilience supervisor: retries, recovery, graceful degradation.

At the paper's headline scale (1024 nodes, Section VII) component
failure is the expected case; the KPM's structure makes it cheap to
survive, because the stochastic trace is a sum of independent Chebyshev
recurrences whose state (two block vectors + the eta prefix) checkpoints
in O(N·R) bytes.  The :class:`Supervisor` wraps every execution engine
with that observation:

1. run an attempt (mp / sim / serial engine, any kernel backend);
2. on failure, *classify* it — worker death, stall, corrupt checkpoint,
   backend failure — and record it through the observability layer;
3. retry under a declarative :class:`~repro.resil.policy.RetryPolicy`,
   resuming from the latest atomic :class:`KpmCheckpoint` instead of
   restarting from m=0;
4. when an engine keeps failing, degrade along ``mp → sim → serial``
   (and ``native → numpy`` for backend-classified failures) rather than
   give up.

Invariant (asserted by ``tests/resil/``): recovery never changes
numerics — a resumed run is bitwise equal to an uninterrupted one on the
same engine, because the checkpoint is an exact snapshot of the
recurrence state and the moment prefix.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, RunContext, _npz_path
from repro.obs.metrics import NULL_METRICS, one_sink
from repro.resil.faults import FaultPlan, corrupt_checkpoint_file
from repro.resil.policy import RetryPolicy
from repro.util.errors import (
    BackendError,
    CheckpointError,
    FaultInjected,
    FormatError,
    ReproError,
    RetryExhaustedError,
    SpectralScaleError,
    WorkerFailure,
)
from repro.util.knobs import ExecConfig, run_engine

#: Degradation ladders: the engines tried, in order, starting from the
#: one the caller asked for.  ``sim`` replays the identical data-parallel
#: schedule sequentially (no processes to die), ``serial`` drops the
#: partitioning altogether.
ENGINE_LADDERS = {
    "mp": ("mp", "sim", "serial"),
    "sim": ("sim", "serial"),
    "serial": ("serial",),
}

#: Error classes the supervisor distinguishes (reported per class).
ERROR_CLASSES = (
    "worker_death", "stall", "worker_exception", "checkpoint", "backend",
    "engine", "unknown",
)


def classify_error(exc: BaseException) -> str:
    """Map an attempt's exception onto one of :data:`ERROR_CLASSES`."""
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, BackendError):
        return "backend"
    if isinstance(exc, WorkerFailure):
        kinds = exc.kinds
        if "stall" in kinds or "timeout" in kinds:
            return "stall"
        if "death" in kinds:
            return "worker_death"
        if "exception" in kinds:
            return "worker_exception"
        return "engine"
    if isinstance(exc, FaultInjected):
        return "stall" if exc.kind == "stall" else "worker_exception"
    if isinstance(exc, ReproError):
        return "engine"
    return "unknown"


@dataclass
class AttemptRecord:
    """One failed attempt, as recorded in the resilience report."""

    attempt: int
    engine: str
    backend: str
    error_class: str
    detail: str
    resumed_from: int | None = None


@dataclass
class ResilienceReport:
    """What faulted, what retried, and what the recovery cost."""

    attempts: list[AttemptRecord] = field(default_factory=list)
    faults: int = 0
    retries: int = 0
    resumes: int = 0
    resume_m: int | None = None
    engine_degradations: int = 0
    backend_degradations: int = 0
    checkpoint_discards: int = 0
    final_engine: str | None = None
    final_backend: str | None = None
    # elastic execution (populated by an elastic attempt)
    rebalances: int = 0
    membership_joins: int = 0
    membership_leaves: int = 0

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        elastic = ""
        if self.rebalances or self.membership_joins or self.membership_leaves:
            elastic = (
                f"; elastic: {self.rebalances} rebalance(s), "
                f"{self.membership_joins} join(s), "
                f"{self.membership_leaves} leave(s)"
            )
        if not self.faults:
            return (
                f"resilience: clean first attempt "
                f"(engine={self.final_engine}, backend={self.final_backend})"
                + elastic
            )
        classes = ", ".join(
            sorted({a.error_class for a in self.attempts})
        )
        bits = [
            f"resilience: {self.faults} fault(s) [{classes}]",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.resumes:
            bits.append(f"resumed from checkpoint at m={self.resume_m}")
        if self.engine_degradations:
            bits.append(f"degraded engine {self.engine_degradations}x")
        if self.backend_degradations:
            bits.append("degraded backend native->numpy")
        bits.append(
            f"finished on engine={self.final_engine} backend={self.final_backend}"
        )
        return ", ".join(bits) + elastic


@dataclass
class Resilience:
    """Declarative resilience configuration for :class:`KPMSolver`.

    Handed to ``KPMSolver(resilience=...)`` (or built by the CLI from
    ``--retries/--fault-plan/--checkpoint-every/--degrade``); the solver
    runs every solve under a :class:`Supervisor` of it.  A
    ``checkpoint_path`` needs a ``checkpoint_every``: without one it
    would never be written.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_every: int = 0
    checkpoint_path: str | Path | None = None
    degrade: bool = True
    fault_plan: FaultPlan | str | None = None
    mp_timeouts: object | None = None  # repro.dist.mp.MpTimeouts

    def __post_init__(self) -> None:
        if self.checkpoint_path and not self.checkpoint_every:
            raise ValueError("checkpoint_path requires checkpoint_every")


class Supervisor:
    """Runs one eta computation to completion despite faults.

    ``policy`` is a :class:`~repro.resil.policy.RetryPolicy` and the
    other :class:`Resilience` fields keywords — or a whole
    :class:`Resilience`, the keywords replacing its fields.  Every fault,
    retry, resume and degradation lands in the one sink of ``metrics``/
    ``counters`` (:func:`~repro.obs.metrics.one_sink`); ``seed`` keys
    the backoff jitter and a fault-plan string.
    """

    def __init__(
        self,
        policy: RetryPolicy | Resilience | None = None,
        *,
        metrics=NULL_METRICS,
        counters=NULL_METRICS,
        seed: int | None = None,
        sleep=time.sleep,
        **resilience,
    ) -> None:
        self.resilience = (
            replace(policy, **resilience) if isinstance(policy, Resilience)
            else Resilience(policy or RetryPolicy(), **resilience)
        )
        #: ElasticReport of the most recent elastic mp attempt (or None)
        self.last_elastic_report = None
        self.sink = one_sink(counters, metrics)
        self.seed = 0 if seed is None else int(seed)
        self._sleep = sleep
        self.report = ResilienceReport()
        #: communicator of the most recent distributed attempt (or None)
        self.last_world = None

    @classmethod
    def from_config(cls, config: Resilience, **kw) -> "Supervisor":
        """``Supervisor(config, **kw)``."""
        return cls(config, **kw)

    # ------------------------------------------------------------------
    def run_eta(
        self,
        H,
        scale,
        n_moments: int,
        start_block: np.ndarray,
        *,
        kernel: str = "aug_spmmv",
        progress=None,
        progress_every: int = 0,
        config: ExecConfig | None = None,
        **knobs,
    ) -> np.ndarray:
        """Compute eta under supervision; the engine's usual return value.

        ``config``/knobs are the :class:`~repro.util.knobs.ExecConfig` of
        the first attempt (``overlap`` off unless given), validated
        before any attempt runs.  Every attempt runs it through
        :func:`~repro.util.knobs.run_engine`; degrading replaces only
        ``engine`` (down :data:`ENGINE_LADDERS`) or ``backend`` (to
        ``'numpy'`` after a backend fault), so retries and fallbacks
        never change the precision, the threads or any other knob of the
        run.

        The run controls (DESIGN §17) are the :class:`Resilience` plus
        ``progress``/``progress_every``; each attempt runs the context
        with its number and the checkpoint it resumes from (a retry
        re-streams from there).  Every attempt runs the stage ``kernel``
        (stages 0/1 refuse a cadence or a stream before any attempt).

        Raises :class:`~repro.util.errors.RetryExhaustedError` only after
        every attempt on every remaining ladder rung has failed — and a
        :class:`~repro.util.errors.SpectralScaleError` at once: no
        attempt or rung can succeed on the same scale.
        """
        cfg = ExecConfig.of(config, knobs, overlap=False)
        res = self.resilience
        RunContext(checkpoint_every=res.checkpoint_every,
                   progress=progress).check_stage(kernel, cfg.engine)
        ladder = ENGINE_LADDERS[cfg.engine] if res.degrade else (cfg.engine,)
        timeouts = res.mp_timeouts
        if timeouts is None and res.policy.attempt_deadline is not None:
            from repro.dist.mp import MpTimeouts

            timeouts = MpTimeouts(run=res.policy.attempt_deadline)
        ctx = RunContext.of(
            seed=self.seed, metrics=self.sink,
            fault_plan=res.fault_plan, progress=progress,
            progress_every=progress_every, timeouts=timeouts,
        )
        ckpt_path, own_dir = res.checkpoint_path, None
        if res.checkpoint_every > 0:
            if ckpt_path is None:
                own_dir = Path(tempfile.mkdtemp(prefix="repro-resil-"))
                ckpt_path = own_dir / "attempt.npz"
            ctx = replace(ctx, checkpoint_every=res.checkpoint_every,
                          checkpoint_path=ckpt_path)

        history: list[tuple] = []
        attempt = 0
        last_exc: Exception | None = None
        try:
            for rung, eng in enumerate(ladder):
                cfg = replace(cfg, engine=eng)
                if rung > 0:
                    self.report.engine_degradations += 1
                    self.sink.count("resil.engine_degraded")
                for _ in range(res.policy.max_attempts):
                    attempt += 1
                    if attempt > 1:
                        self.report.retries += 1
                        self.sink.count("resil.retries")
                        delay = res.policy.backoff(attempt - 1, seed=self.seed)
                        if delay > 0:
                            self._sleep(delay)
                    run = replace(ctx, attempt=attempt)
                    resume = self._prepare_resume(run, ckpt_path, cfg,
                                                  n_moments, scale,
                                                  start_block)
                    try:
                        with self.sink.span(
                            "resil.attempt", phase="resil", engine=eng,
                            attempt=attempt,
                            resumed_from=(resume.next_m if resume else None),
                        ):
                            eta, world, erep = run_engine(
                                cfg, replace(run, resume_from=resume),
                                H, scale, n_moments, start_block,
                                kernel=kernel,
                            )
                    except SpectralScaleError:
                        raise
                    except Exception as exc:  # noqa: BLE001 - classified below
                        last_exc = exc
                        cls_name = classify_error(exc)
                        detail = f"{type(exc).__name__}: {exc}"
                        self.report.faults += 1
                        self.report.attempts.append(AttemptRecord(
                            attempt, eng, self._backend_name(cfg.backend),
                            cls_name, detail[:300],
                            resume.next_m if resume else None,
                        ))
                        history.append((eng, attempt, cls_name, detail[:300]))
                        self.sink.count("resil.faults")
                        self.sink.count(f"resil.faults.{cls_name}")
                        with self.sink.span(
                            "resil.fault", phase="resil", engine=eng,
                            attempt=attempt, error_class=cls_name,
                        ):
                            pass  # zero-length span: one trace record per fault
                        cfg = self._maybe_degrade_backend(cls_name, cfg, detail)
                        continue
                    if world is not None:
                        self.last_world = world
                    if erep is not None:
                        self.last_elastic_report = erep
                        self.report.rebalances += erep.rebalances
                        self.report.membership_joins += erep.joins
                        self.report.membership_leaves += erep.leaves
                    self.report.final_engine = eng
                    self.report.final_backend = self._backend_name(cfg.backend)
                    return eta
        finally:
            if own_dir is not None:
                shutil.rmtree(own_dir, ignore_errors=True)
        raise RetryExhaustedError(
            f"KPM run failed after {attempt} attempt(s) across engines "
            f"{list(ladder)}: {last_exc}",
            history=history,
        ) from last_exc

    # ------------------------------------------------------------------
    @staticmethod
    def _backend_name(backend) -> str:
        return backend if isinstance(backend, str) else getattr(
            backend, "name", str(backend)
        )

    def _maybe_degrade_backend(self, cls_name: str, cfg: ExecConfig,
                               detail: str) -> ExecConfig:
        """``native → numpy`` when the failure is backend-classified."""
        name = self._backend_name(cfg.backend)
        if cls_name != "backend" or name not in ("auto", "native"):
            return cfg
        from repro.sparse.backend import report_backend_failure

        report_backend_failure("native", detail)
        self.report.backend_degradations += 1
        self.sink.count("resil.backend_degraded")
        return replace(cfg, backend="numpy")

    def _prepare_resume(
        self, ctx: RunContext, path: str | Path | None, cfg: ExecConfig,
        n_moments: int, scale, start_block: np.ndarray,
    ) -> KpmCheckpoint | None:
        """The checkpoint at ``path`` attempt ``ctx.attempt`` resumes, if
        any (after any planned corruption drill).  A corrupt or foreign
        file — another solve's (its nu_0 digest), one for another M, map
        or profile, or an older format — is counted, discarded, and the attempt
        starts fresh; never a crash of the supervisor itself.
        """
        if path is None:
            return None
        for _spec in ctx.fault_plan.checkpoint_faults(ctx.attempt) \
                if ctx.fault_plan else ():
            corrupt_checkpoint_file(path, seed=ctx.fault_plan.seed)
        on_disk = _npz_path(path)
        if not on_disk.exists():
            return None
        try:
            ck = replace(ctx, resume_from=on_disk).resume(
                n_moments, scale, cfg.precision, start_block)
        except (CheckpointError, FormatError) as exc:
            self.report.checkpoint_discards += 1
            self.sink.count("resil.checkpoint_discarded")
            with self.sink.span(
                "resil.fault", phase="resil", attempt=ctx.attempt,
                error_class="checkpoint", detail=str(exc)[:200],
            ):
                pass
            on_disk.unlink(missing_ok=True)
            return None
        self.report.resumes += 1
        self.report.resume_m = ck.next_m
        self.sink.count("resil.resumes")
        self.sink.gauge("resil.resume_m", ck.next_m)
        return ck
