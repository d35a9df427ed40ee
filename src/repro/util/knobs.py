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
        Native intra-rank kernel threads: None (the sequential kernels),
        an int >= 1 (the block-grid ``_mt`` kernels), or ``'auto'`` —
        the host's cores split across the ranks (:meth:`kernel_threads`).
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

    Which knobs may move fp64 bits.  ``simd`` never does, nor does
    ``'sim'`` against ``'mp'`` on one schedule.  ``threads`` is bitwise
    across every *integer* count (per-block Kahan partials combined in
    block order), but None is the flat per-row reduction and differs from
    them in the last bits; only an order-independent eta reduction would
    remove that difference.  Under a rebalance policy (grid-eta mode)
    neither ``workers``, ``weights`` nor membership events move them.
    Otherwise the rank count, ``weights`` and ``overlap`` change the
    reduction order, and ``backend`` and ``precision`` the arithmetic:
    those agree to rounding tolerance only.

    Entry points keep their own keyword names and defaults and build the
    config in one statement (:meth:`of`); degradation is a
    :func:`dataclasses.replace`.
    """

    engine: str | None = "serial"
    workers: int = 2
    weights: tuple | None = None
    backend: object = "auto"
    precision: object = "fp64"
    threads: int | str | None = None
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

    def kernel_threads(self, n_ranks: int = 1) -> int | None:
        """Per-rank kernel threads: ``'auto'`` gives each of ``n_ranks``
        ranks its share of the host's cores (the paper's hybrid MPI +
        OpenMP shape: one process per socket, threads inside)."""
        if self.threads == "auto":
            return max(1, (os.cpu_count() or 1) // n_ranks)
        return self.threads

    @property
    def eta_grid(self) -> int:
        """Rows per eta-grid block of the rebalance policy (0: none, the
        per-rank reduction)."""
        return 0 if self.rebalance is None else self.rebalance.grid

    def for_ranks(self, n_ranks: int) -> ExecConfig:
        """This config with ``threads`` and ``overlap`` decided for a
        world of ``n_ranks`` ranks."""
        return replace(self, threads=self.kernel_threads(n_ranks),
                       overlap=resolve_overlap(self.overlap, n_ranks))


def check_rebalance(config: ExecConfig, supervised: bool) -> None:
    """A rebalance policy needs a distributed engine — or a supervisor,
    whose serial rung replays the grid-eta reduction on one rank."""
    if config.rebalance is not None and config.engine == "serial" \
            and not supervised:
        raise ValueError(
            "rebalance requires a distributed engine (engine 'sim'/'mp') "
            "or a resilience config"
        )


def run_engine(config: ExecConfig, ctx, H, scale, n_moments: int,
               start_block, *, kernel: str = "aug_spmmv"):
    """Run one eta solve as ``config`` says: ``(eta, world, elastic_report)``.

    ``ctx``, the solve's :class:`~repro.core.checkpoint.RunContext`,
    travels whole into whichever engine runs.  ``'serial'`` drives the
    recurrence in-process (``checkpointed_eta``; ``compute_eta`` for the
    stage-0/1 ``kernel``s).  ``'sim'`` and ``'mp'`` partition ``H`` by
    ``config.weights`` — aligned to the rebalance grid, or 4 rows — and
    run ``distributed_eta`` on a fresh world; ``H`` may also arrive
    already partitioned.  ``'mp'`` under a rebalance policy runs the
    elastic driver.  Any other config with a policy replays the same
    grid-eta reduction on a fixed world (``'serial'``: one rank), so every
    rung a supervisor degrades to returns the same fp64 bits.  ``world``
    and ``elastic_report`` are None where the path has none.
    """
    if config.rebalance is not None and config.engine == "mp":
        from repro.dist.elastic import run_elastic

        eta, report = run_elastic(config, ctx, H, scale, n_moments,
                                  start_block)
        return eta, None, report
    if config.engine == "serial" and config.rebalance is None:
        if kernel != "aug_spmmv":
            from repro.core.moments import compute_eta

            return compute_eta(H, scale, n_moments, start_block, kernel,
                               ctx.counters, metrics=ctx.metrics,
                               config=config), None, None
        from repro.core.checkpoint import run_serial

        return run_serial(config, ctx, H, scale, n_moments,
                          start_block), None, None

    from repro.dist.comm import SimWorld
    from repro.dist.halo import DistributedMatrix
    from repro.dist.kpm_parallel import run_distributed
    from repro.dist.mp import MpWorld
    from repro.dist.partition import RowPartition

    grid = config.eta_grid
    n_ranks = 1 if config.engine == "serial" else config.workers
    part = None
    if not isinstance(H, DistributedMatrix):
        part = (
            RowPartition.from_weights(H.n_rows, config.weights,
                                      align=grid or 4)
            if config.weights is not None and n_ranks > 1
            else RowPartition.equal(H.n_rows, n_ranks, align=grid or 4)
        )
    world = (MpWorld(n_ranks, timeouts=ctx.timeouts) if config.engine == "mp"
             else SimWorld(n_ranks))
    eta = run_distributed(config, ctx, H, part, scale, n_moments, start_block,
                          world, eta_grid=grid)
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

    sup = Supervisor(resilience, metrics=ctx.metrics, counters=ctx.counters,
                     seed=seed)
    eta = sup.run_eta(H, scale, n_moments, start_block, config=config,
                      progress=ctx.progress, progress_every=ctx.progress_every)
    return eta, sup.last_world, sup.last_elastic_report, sup.report
