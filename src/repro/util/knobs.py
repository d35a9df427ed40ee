"""How a solve executes: :class:`ExecConfig` and the one engine dispatch.

Every public entry point funnels its execution keywords into one frozen
:class:`ExecConfig` — the only place they are validated and the only
place ``threads='auto'`` resolves — and :func:`run_engine` is the only
place that turns a config into a serial, simulated, multiprocess or
elastic run.  Below the entry points the config travels whole, never as
loose knobs, down to where :class:`~repro.core.recurrence.Recurrence`
asks the backend for a kernel plan.

This module imports nothing from ``repro`` at import time, so reading a
``choices=`` tuple (the CLI parser) or validating a knob does not load
the layer the knob configures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: Valid values of the user-facing ``backend=`` knob.
BACKEND_CHOICES = ("auto", "numpy", "native")

#: Valid values of the user-facing ``overlap=`` knob.
OVERLAP_CHOICES = ("off", "on", "auto")

#: Valid values of the user-facing ``precision=`` knob.
PRECISION_CHOICES = ("fp64", "fp32", "fp16v")

#: Valid values of the user-facing ``simd=`` knob (``None`` ≡ ``auto``).
SIMD_CHOICES = ("auto", "on", "off")

#: Execution engines, in degradation order (``None`` ≡ ``serial``).
ENGINE_CHOICES = ("serial", "sim", "mp")


def resolve_overlap(overlap: str | bool | None, n_ranks: int) -> bool:
    """Turn the user-facing ``overlap`` knob into an execution decision.

    ``'auto'`` (or None) enables task mode whenever there is more than
    one rank — a single rank has no halo to hide.  Booleans pass
    through so programmatic callers can skip the string vocabulary.
    """
    if isinstance(overlap, bool):
        return overlap
    choice = "auto" if overlap is None else str(overlap).lower()
    if choice not in OVERLAP_CHOICES:
        raise ValueError(
            f"overlap must be one of {OVERLAP_CHOICES}, got {overlap!r}"
        )
    if choice == "auto":
        return n_ranks > 1
    return choice == "on"


def resolve_simd(simd: str | None) -> str:
    """Normalize the ``simd`` knob (``None`` means ``'auto'``); a bad
    value is a :class:`~repro.util.errors.BackendError`."""
    if simd is None:
        return "auto"
    if isinstance(simd, str) and simd.lower() in SIMD_CHOICES:
        return simd.lower()
    from repro.util.errors import BackendError

    raise BackendError(
        f"invalid simd selector {simd!r}; choose from {[None, *SIMD_CHOICES]}"
    )


#: ``threads='auto'`` runs a kernel call with less work than this —
#: stored entries times block columns — on one thread.  Below it a team
#: gains little and, under libgomp's default wait policy, can lose a lot
#: when Python paces the calls (2-vCPU host, DESIGN §10): the Lanczos
#: sweep of a 1,024-row operator (12k entries) took 333 ms on two threads
#: against 8 ms on one, and 64 moments at R = 4 and 8 took 1.14× the
#: one-thread time; from 2,048 rows at R = 4 (102k) two threads won.
AUTO_MIN_WORK = 1 << 17


class _Share(int):
    """``threads='auto'`` decided for a rank (:meth:`ExecConfig.for_ranks`):
    its share of the cores, still one thread for a small kernel call."""


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    host has one (``taskset -c 0`` leaves one of two), else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecConfig:
    """Every execution knob of one solve, validated once at construction.

    ``engine``
        ``'serial'`` (or None), ``'sim'`` (the sequential SPMD simulator)
        or ``'mp'`` (real worker processes over shared memory).
    ``workers`` / ``weights``
        Rank count of the distributed engines and optional per-rank
        partition weights, one per worker (paper Section VI-B); equal
        split by default.
    ``backend``
        ``'auto'`` (native C kernels when compilable, else NumPy),
        ``'numpy'``, ``'native'``, or a ``KernelBackend`` instance.
    ``precision``
        Storage profile ``'fp64'``/``'fp32'``/``'fp16v'`` (or a
        ``Precision``); kept as its name.
    ``threads``
        Native intra-rank kernel threads: ``'auto'`` (the default) — the
        cores this process may run on, split across the ranks, one for a
        small kernel call (:meth:`kernel_threads`) — or None or an
        int >= 1 (the OpenMP team over eta blocks and rows; None runs
        one).
    ``simd``
        Native vectorized kernels: ``'auto'`` (None), ``'on'`` (scalar
        fallback when not compiled in) or ``'off'``.
    ``overlap``
        Task-mode halo/compute overlap of the distributed engines:
        ``'on'``/True, ``'off'``/False, or ``'auto'``/None (on with more
        than one rank).
    ``reduction``
        ``'end'`` (one deferred global eta reduction) or ``'every'``
        (reduce each iteration: the Table III ablation).
    ``rebalance`` / ``membership``
        Elastic execution (:mod:`repro.dist.elastic`): None/``'off'``,
        ``'auto'``/True, a skew threshold or a ``RebalancePolicy``
        (stored resolved); planned joins/leaves as a ``MembershipPlan``
        or its string form.

    Which knobs may move bits: only ``precision``, which changes the
    arithmetic (DESIGN §19).  The eta reduction is one exact contract
    and the backends round alike, so ``backend`` (per rank too),
    ``threads``, ``simd``, ``engine``, ``workers``, ``weights``,
    ``overlap``, ``reduction``, ``rebalance`` and ``membership`` return
    the same bits in every profile.

    Entry points keep their own keyword names and defaults and build the
    config in one statement (:meth:`of`); degradation is a
    :func:`dataclasses.replace`.
    """

    engine: str | None = "serial"
    workers: int = 2
    weights: tuple | None = None
    backend: object = "auto"
    precision: object = "fp64"
    threads: int | str | None = "auto"
    simd: str | None = "auto"
    overlap: bool | str | None = "auto"
    reduction: str = "end"
    rebalance: object = None
    membership: object = None

    def __post_init__(self) -> None:
        def put(name, value):
            object.__setattr__(self, name, value)

        put("engine", self.engine or "serial")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}"
            )
        if not int(self.workers) >= 1:
            raise ValueError(
                f"workers (n_workers) must be positive, got {self.workers!r}"
            )
        put("workers", int(self.workers))
        if self.weights is not None:
            put("weights", tuple(float(w) for w in self.weights))
            if len(self.weights) != self.workers:
                raise ValueError(
                    f"weights must have one entry per worker "
                    f"({self.workers}), got {len(self.weights)}"
                )
        backend = self.backend or "auto"
        if isinstance(backend, str):
            backend = backend.lower()
            if backend not in BACKEND_CHOICES:
                from repro.util.errors import BackendError

                raise BackendError(
                    f"unknown kernel backend {self.backend!r}; choose from "
                    f"{list(BACKEND_CHOICES)}"
                )
        put("backend", backend)
        name = getattr(self.precision, "name", self.precision) or "fp64"
        if str(name).lower() not in PRECISION_CHOICES:
            raise ValueError(
                f"unknown precision {self.precision!r}; choose from "
                f"{sorted(PRECISION_CHOICES)}"
            )
        put("precision", str(name).lower())
        if self.threads is not None and self.threads != "auto":
            if not str(self.threads).isdigit() or int(self.threads) < 1:
                raise ValueError(
                    f"threads must be a positive integer, 'auto' or None, "
                    f"got {self.threads!r}"
                )
            if not isinstance(self.threads, _Share):
                put("threads", int(self.threads))
        put("simd", resolve_simd(self.simd))
        resolve_overlap(self.overlap, 1)
        if self.reduction not in ("end", "every"):
            raise ValueError(
                f"reduction must be 'end' or 'every', got {self.reduction!r}"
            )
        if self.rebalance is not None or self.membership is not None:
            from repro.dist.elastic import as_membership_plan, resolve_rebalance

            put("rebalance", resolve_rebalance(self.rebalance))
            put("membership", as_membership_plan(self.membership))

    @classmethod
    def of(cls, config: ExecConfig | None = None, knobs: dict | None = None,
           **defaults) -> ExecConfig:
        """The config an entry point runs: ``config`` — or, without one,
        the entry's own ``defaults`` — with the caller's ``knobs`` on top.
        An unknown knob name is a :class:`TypeError`."""
        if config is None:
            return cls(**{**defaults, **(knobs or {})})
        return replace(config, **knobs) if knobs else config

    def kernel_threads(self, n_ranks: int = 1,
                       work: int | None = None) -> int | None:
        """Per-rank kernel threads: ``'auto'`` gives each of ``n_ranks``
        ranks its share of :func:`usable_cores` (the paper's hybrid MPI +
        OpenMP shape: one process per socket, threads inside) — and one
        thread to a kernel whose ``work`` per call (stored entries times
        block columns) is below :data:`AUTO_MIN_WORK`; a share
        :meth:`for_ranks` decided keeps that rule."""
        small = work is not None and work < AUTO_MIN_WORK
        if self.threads == "auto":
            return 1 if small else max(1, usable_cores() // n_ranks)
        return 1 if small and isinstance(self.threads, _Share) \
            else self.threads

    def for_ranks(self, n_ranks: int) -> ExecConfig:
        """This config with ``threads`` and ``overlap`` decided for a
        world of ``n_ranks`` ranks (``'auto'`` threads: each rank's share,
        still one thread for a small kernel call)."""
        threads = _Share(self.kernel_threads(n_ranks)) \
            if self.threads == "auto" else self.threads
        return replace(self, threads=threads,
                       overlap=resolve_overlap(self.overlap, n_ranks))


def check_rebalance(config: ExecConfig, supervised: bool) -> None:
    """A rebalance policy or a membership plan needs a distributed
    engine — or a supervisor, whose lower rungs run the solve without it
    (the same bits)."""
    if config.engine == "serial" and not supervised and (
            config.rebalance is not None or config.membership is not None):
        raise ValueError(
            "rebalance and membership require a distributed engine "
            "(engine 'sim'/'mp') or a resilience config"
        )


def run_engine(config: ExecConfig, ctx, H, scale, n_moments: int,
               start_block, *, kernel: str = "aug_spmmv"):
    """Run one eta solve as ``config`` says: ``(eta, world, elastic_report)``.

    ``ctx``, the solve's :class:`~repro.core.checkpoint.RunContext`,
    travels whole into the rank program (``run_ranks``) on the world
    ``config`` names: ``'sim'`` and ``'mp'`` partition ``H`` by
    ``config.weights`` on 64-row eta blocks (or take it partitioned) and
    run stage 2 on a fresh world; ``'serial'`` has none — one rank over
    ``H`` in this process runs ``kernel``.  A rebalance policy or a
    membership plan runs ``'sim'`` and ``'mp'`` through the elastic
    driver; ``'serial'`` runs without them, returning the same bits.
    ``world`` and ``elastic_report`` are None where the path has none.
    """
    ctx.check_stage(kernel, config.engine)
    if config.engine != "serial" and (config.rebalance is not None
                                      or config.membership is not None):
        from repro.dist.elastic import run_elastic

        eta, report = run_elastic(config, ctx, H, scale, n_moments,
                                  start_block)
        return eta, None, report
    from repro.core.checkpoint import run_ranks

    world = None
    if config.engine != "serial":
        from repro.dist.comm import SimWorld
        from repro.dist.halo import DistributedMatrix, partition_matrix
        from repro.dist.mp import MpWorld
        from repro.dist.partition import RowPartition
        from repro.sparse.fused import ETA_BLOCK

        n_ranks = config.workers
        if not isinstance(H, DistributedMatrix):
            H = partition_matrix(H, RowPartition.from_weights(
                H.n_rows, config.weights or [1.0] * n_ranks, align=ETA_BLOCK))
        world = (MpWorld(n_ranks, timeouts=ctx.timeouts)
                 if config.engine == "mp" else SimWorld(n_ranks))
    eta = run_ranks(config, ctx, H, scale, n_moments, start_block, world,
                    kernel=kernel)
    return eta, world, None


def run_supervised(config: ExecConfig, ctx, resilience, seed, H, scale,
                   n_moments: int, start_block, *, kernel: str = "aug_spmmv"):
    """:func:`run_engine` — under a fresh :class:`~repro.resil.Supervisor`
    of ``resilience`` (``seed`` keys its jitter) when one is given:
    ``(eta, world, elastic_report, resilience_report)``."""
    if resilience is None:
        return (*run_engine(config, ctx, H, scale, n_moments, start_block,
                            kernel=kernel), None)
    from repro.resil import Supervisor

    sup = Supervisor(resilience, metrics=ctx.sink, seed=seed)
    eta = sup.run_eta(H, scale, n_moments, start_block, config=config,
                      kernel=kernel, progress=ctx.progress,
                      progress_every=ctx.progress_every)
    return eta, sup.last_world, sup.last_elastic_report, sup.report
