"""Distributed KPM driver on the simulated SPMD world.

Executes the blocked (stage-2) KPM iteration over a row-partitioned
matrix exactly as the paper's heterogeneous production code does:

1. each rank assembles its send buffers ("the assembly of communication
   buffers ... only the elements which need to be transferred are
   copied", Section VI-A) and halo-exchanges the current block vector;
2. each rank runs the augmented SpMMV on its local rows (local + halo
   column layout), computing its partial dot products on the fly;
3. the per-iteration eta contributions are either reduced globally every
   iteration (the ``aug_spmmv()*`` variant of Table III) or accumulated
   locally and reduced **once at the very end** — "a careful
   implementation reduces the amount of global reductions in the dot
   products to a single one at the end of the inner loop" (Section II).

Each rank is one :class:`repro.core.recurrence.Recurrence` — the same
loop body the serial engines drive — so with one rank (empty halo,
overlap off) the moments equal the serial solver's **bitwise** at fp64;
with more ranks they agree to floating-point reduction order (the
per-rank partial dots are summed across ranks) for any rank count and
any weighting.  The test suite asserts both.

:func:`prepare_run` is the prologue this simulated world and the
multiprocess one (:mod:`repro.dist.mp`) share: one validation, one
exception per bad input, whichever world runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, RunContext
from repro.core.recurrence import Recurrence, check_moments
from repro.core.scaling import SpectralScale
from repro.dist.comm import SimWorld, log_allreduce
from repro.dist.halo import DistributedMatrix, partition_matrix
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition, eta_slots
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import SimulationError
from repro.util.knobs import ExecConfig
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_block_vector


def _halo_exchange(
    world: SimWorld,
    dist: DistributedMatrix,
    recs: list[Recurrence],
    phase: str,
) -> None:
    """Fill the halo tail of every rank's kernel input ``x = [v | halo]``.

    Each rank's own block is already staged by its :class:`Recurrence`;
    the tail receives the halo rows from its neighbours' current ``v``,
    logging every message — no per-iteration buffer allocation.
    """
    for block in dist.blocks:
        x = recs[block.rank].x
        pos = block.n_local
        for src, cnt in zip(block.halo_sources.tolist(), block.halo_counts.tolist()):
            send_rows = dist.pattern.send_rows[(src, block.rank)]
            if send_rows.size != cnt:
                raise SimulationError("inconsistent halo pattern")
            buf = recs[src].v[send_rows, :]  # buffer assembly at the source
            x[pos : pos + cnt] = world.send(src, block.rank, buf, phase)
            pos += cnt


@dataclass
class RunSetup:
    """One validated distributed run, as either world executes it.

    ``cfg`` has ``threads`` and ``overlap`` decided for the world's rank
    count and ``ctx`` holds the run controls; ``half`` is the exclusive
    bound of the inner iterations run (``stop_m``, or M/2) and ``first_m``
    the first one (1 fresh, the resumed checkpoint ``ck``'s ``next_m``).
    """

    dist: DistributedMatrix
    cfg: ExecConfig
    ctx: RunContext
    prec: Precision
    a: float
    b: float
    n_moments: int
    r: int
    first_m: int
    half: int
    grid: int
    stop_m: int | None
    ck: KpmCheckpoint | None
    start_block: np.ndarray | None
    run_id: str

    @property
    def final_cols(self) -> int:
        """Eta columns the final allreduce moves: all M, or those this
        segment computed (``2·stop_m`` fresh, ``2·(stop_m − first_m)``
        resumed), so the charges of a segmented run sum to one run's."""
        if self.stop_m is None:
            return self.n_moments
        return 2 * self.half if self.first_m == 1 \
            else 2 * (self.half - self.first_m)

    def splice(self, eta_acc: np.ndarray, stop: int, width: int) -> np.ndarray:
        """The globally reduced eta ``[0, stop)`` in a zeroed (R, width)
        array: a resumed run's checkpointed prefix ``[0, 2·first_m)``
        copied verbatim (never re-reduced, so resumed == uninterrupted
        bitwise), the rest ``eta_acc`` (slots, M, R) summed over its slot
        axis in slot order."""
        out = np.zeros((self.r, width), dtype=DTYPE)
        col0 = 0
        if self.ck is not None:
            col0 = 2 * self.first_m
            out[:, :col0] = self.ck.eta[:, :col0]
        out[:, col0:stop] = eta_acc[:, col0:stop].sum(axis=0).T
        return out

    def state(self, v: np.ndarray, w: np.ndarray, eta: np.ndarray,
              next_m: int) -> KpmCheckpoint:
        """The checkpoint of global ``(v, w)`` and reduced ``eta`` after
        iteration ``next_m − 1`` — exactly what the serial engine saves."""
        return KpmCheckpoint(
            v=v, w=w, eta=eta, next_m=next_m, n_moments=self.n_moments,
            a=self.a, b=self.b, precision=self.prec.name, eta_grid=self.grid,
            run_id=self.run_id,
        )


def prepare_run(
    cfg: ExecConfig, ctx: RunContext, A, partition, scale: SpectralScale,
    n_moments: int, start_block, world, *, eta_grid: int = 0,
    stop_m: int | None = None,
) -> RunSetup:
    """The sim/mp prologue: validate every input, partition, load any
    checkpoint.  A bad argument is a :class:`ValueError`; an operator,
    partition, checkpoint or world that do not fit together is a
    :class:`~repro.util.errors.SimulationError` — on either world."""
    check_moments(n_moments)
    half = n_moments // 2 if stop_m is None else int(stop_m)
    if not 1 <= half <= n_moments // 2:
        raise ValueError(
            f"stop_m must be in [1, {n_moments // 2}], got {stop_m}"
        )
    grid = int(eta_grid or 0)
    prec = get_precision(cfg.precision)
    if grid < 0:
        raise ValueError(f"eta_grid must be non-negative, got {eta_grid}")
    if grid and cfg.reduction != "end":
        raise ValueError("eta_grid requires reduction='end'")
    if grid and prec.half_vectors:
        raise ValueError(
            "eta_grid requires full-width vector storage (fp64/fp32); "
            f"got precision {prec.name!r}"
        )
    if isinstance(A, DistributedMatrix):
        dist = A
    elif partition is None:
        raise ValueError("partition is required with a global matrix")
    else:
        dist = partition_matrix(A, partition)
    if world.n_ranks != dist.n_ranks:
        raise SimulationError(
            f"world has {world.n_ranks} ranks, partition has {dist.n_ranks}"
        )
    for blk in dist.blocks if grid else ():
        if blk.row_start % grid:
            raise SimulationError(
                f"rank {blk.rank} starts at row {blk.row_start}, not "
                f"aligned to the eta grid of {grid} rows — build the "
                f"partition with align={grid}"
            )
    n = dist.n_global
    ck = ctx.resume(n_moments, scale, prec, start_block, grid)
    if ck is not None:
        if ck.v.shape[0] != n:
            raise SimulationError(
                f"checkpoint holds {ck.v.shape[0]} rows, matrix has {n}"
            )
        if ck.next_m > half:
            raise SimulationError(
                f"checkpoint resumes at m={ck.next_m}, beyond stop_m={half}"
            )
        r, first_m = ck.v.shape[1], ck.next_m
    else:
        start_block = check_block_vector("start_block", start_block, n)
        r, first_m = start_block.shape[1], 1
    return RunSetup(
        dist=dist, cfg=cfg.for_ranks(world.n_ranks), ctx=ctx, prec=prec,
        a=scale.a, b=scale.b, n_moments=n_moments, r=r, first_m=first_m,
        half=half, grid=grid, stop_m=stop_m, ck=ck, start_block=start_block,
        run_id=ctx.run_id(ck, start_block, prec),
    )


def distributed_eta(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    world,
    *,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    checkpoint_every: int = 0,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    fault_plan=None,
    attempt: int = 1,
    progress=None,
    progress_every: int = 0,
    eta_grid: int = 0,
    stop_m: int | None = None,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Distributed equivalent of :func:`repro.core.moments.compute_eta`.

    Parameters
    ----------
    A:
        Global matrix (partitioned on the fly) or a pre-partitioned
        :class:`DistributedMatrix`.
    partition:
        Required when ``A`` is a global matrix; ignored otherwise.
    start_block:
        Global (N, R) start block; each rank gets its row slice.
    world:
        The communicator: a :class:`SimWorld` executes the rank loop
        sequentially in-process, a :class:`~repro.dist.mp.MpWorld` runs
        it in real worker processes over shared memory (same results —
        bitwise per schedule — and same message accounting).  Must match
        the partition's rank count.
    counters / metrics / checkpoint_every / checkpoint_path / resume_from /
    fault_plan / attempt / progress / progress_every:
        The run controls (:class:`~repro.core.checkpoint.RunContext`,
        DESIGN §17) over the global state.  Counter totals equal a serial
        run's (only ``calls`` is rank-multiplied); a resumed run
        (``start_block`` may then be None) is bitwise equal to an
        uninterrupted one on the same world type and partition.
    eta_grid:
        ``B > 0`` switches the eta reduction to *grid mode*
        (:mod:`repro.dist.elastic`): the per-iteration dot products are
        recomputed per fixed global block of ``B`` rows (the kernels'
        fused per-rank dots are discarded) and the final reduction sums
        the ``ceil(N / B)`` block partials in block order.  The
        reduction order then depends only on ``(N, B)`` — never on the
        partition, rank count, schedule, or engine — which is what makes
        a mid-run repartition bitwise invisible.  Requires a
        ``B``-aligned partition, ``reduction='end'``, and a full-width
        storage profile (fp64/fp32).
    stop_m:
        Optional exclusive upper bound on the inner-iteration range: the
        run executes ``[first_m, stop_m)`` instead of ``[first_m, M/2)``
        and returns eta with only the columns ``[0, 2·stop_m)``
        meaningful.  The elastic driver runs a sequence of such segments
        — chained through their boundary states — whose concatenation is
        bitwise equal to one uninterrupted run under grid mode.
    config / knobs:
        The :class:`~repro.util.knobs.ExecConfig` (``overlap`` off unless
        given).  Here ``overlap`` runs each rank's interior rows while
        the halo is in flight and the boundary rows after, combining the
        eta partials in the fixed order interior + boundary; ``reduction``
        picks one deferred allreduce or one per iteration.

    Returns
    -------
    eta:
        (R, M) complex, matching the serial engines: bitwise at fp64 on
        a one-rank world with overlap off, to reduction-order tolerance
        otherwise.
    """
    return run_distributed(
        ExecConfig.of(config, knobs, overlap=False),
        RunContext.of(counters=counters, metrics=metrics,
                      checkpoint_every=checkpoint_every,
                      checkpoint_path=checkpoint_path, resume_from=resume_from,
                      fault_plan=fault_plan, attempt=attempt,
                      progress=progress, progress_every=progress_every),
        A, partition, scale, n_moments, start_block, world,
        eta_grid=eta_grid, stop_m=stop_m,
    )


def run_distributed(cfg: ExecConfig, ctx: RunContext, A, partition,
                    scale: SpectralScale, n_moments: int, start_block, world,
                    *, eta_grid: int = 0, stop_m: int | None = None):
    """:func:`distributed_eta` on a built config and context."""
    from repro.dist.mp import MpWorld, run_mp

    run = prepare_run(cfg, ctx, A, partition, scale, n_moments, start_block,
                      world, eta_grid=eta_grid, stop_m=stop_m)
    return (run_mp if isinstance(world, MpWorld) else run_sim)(run, world)


def run_sim(run: RunSetup, world: SimWorld) -> np.ndarray:
    """Execute a prepared run on the simulated world; returns eta (R, M).
    The last checkpoint state it reached stays on
    ``world.last_checkpoint``."""
    dist, ctx, ck, first_m, r = run.dist, run.ctx, run.ck, run.first_m, run.r
    metrics = ctx.metrics
    world.last_checkpoint = None
    injectors = [inj for inj in map(ctx.injector, range(world.n_ranks)) if inj]

    # Per-rank persistent state, sized once: one Recurrence each (the
    # local (v, w) blocks, the rectangular x = [v | halo] kernel input,
    # the workspace plans).  Grid mode accumulates one eta partial per
    # global row block instead of one per rank — ceil(N / B) slots whose
    # axis-0 sum is the fixed partition-independent reduction order.
    slots, recs = [], []  # per rank: its eta_acc slot(s), its Recurrence
    for blk in dist.blocks:
        slot, dot_blocks = eta_slots(blk.rank, blk.row_start, blk.row_stop,
                                     run.grid)
        rec = Recurrence(
            blk.matrix, run.a, run.b, r, config=run.cfg,
            counters=ctx.counters, metrics=metrics, dot_blocks=dot_blocks,
            split=task_split(blk) if run.cfg.overlap else None,
        )
        rows = slice(blk.row_start, blk.row_stop)
        if ck is not None:
            rec.load(ck.v[rows], ck.w[rows])
        else:
            rec.load(run.start_block[rows])
        slots.append(slot)
        recs.append(rec)
    n_slots = -(-dist.n_global // run.grid) if run.grid else world.n_ranks
    eta_acc = np.zeros((n_slots, run.n_moments, r), dtype=DTYPE)

    every_iter = run.cfg.reduction == "every"
    if ck is None:
        # nu_1 = a (H nu_0 - b nu_0), distributed
        for inj in injectors:
            inj.at_iteration(0)
        with metrics.span("halo_exchange", phase="dist"):
            _halo_exchange(world, dist, recs, phase="halo_init")
        for rec, slot in zip(recs, slots):
            eta_acc[slot, 0], eta_acc[slot, 1] = rec.bootstrap()
        if every_iter:
            with metrics.span("allreduce", phase="dist"):
                for m_i in (0, 1):
                    world.allreduce_sum(
                        list(eta_acc[:, m_i]), phase="allreduce_iter"
                    )

    for m in range(first_m, run.half):
        for inj in injectors:
            inj.at_iteration(m)
        for rec in recs:
            rec.swap()
        with metrics.span("halo_exchange", phase="dist"):
            _halo_exchange(world, dist, recs, phase="halo")
        # Task mode runs each update as interior + boundary split phases:
        # the interior rows reference local columns only, so the values
        # are independent of when the halo tail of x landed — bitwise
        # what the mp engine's genuinely overlapped schedule computes.
        for rec, slot in zip(recs, slots):
            eta_acc[slot, 2 * m], eta_acc[slot, 2 * m + 1] = rec.update()
        if every_iter:
            with metrics.span("allreduce", phase="dist"):
                world.allreduce_sum(
                    list(eta_acc[:, 2 * m]), phase="allreduce_iter"
                )
                world.allreduce_sum(
                    list(eta_acc[:, 2 * m + 1]), phase="allreduce_iter"
                )
        n_eta = 2 * (m + 1)
        if ctx.progress_due(m, first_m):
            ctx.stream(n_eta, run.splice(eta_acc, n_eta, n_eta))
        if ctx.checkpoint_due(m, first_m):
            world.last_checkpoint = state = run.state(
                np.concatenate([rec.v for rec in recs], axis=0),
                np.concatenate([rec.w for rec in recs], axis=0),
                run.splice(eta_acc, n_eta, run.n_moments), m + 1,
            )
            ctx.save(state)

    # The one deferred reduction of the columns this run computed, summed
    # in slot order: rank order, or in grid mode block order — the
    # canonical reduction whose order depends only on (N, B).
    with metrics.span("allreduce", phase="dist"):
        if run.final_cols:
            log_allreduce(world.log, world.n_ranks,
                          run.final_cols * r * np.dtype(DTYPE).itemsize,
                          "allreduce_final")
        return run.splice(eta_acc, run.n_moments, run.n_moments)


def distributed_dos(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    n_moments: int,
    n_vectors: int,
    world,
    *,
    scale: SpectralScale | None = None,
    seed: int | None = None,
    kernel: str = "jackson",
    n_points: int | None = None,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    config: ExecConfig | None = None,
    **knobs,
):
    """Full distributed KPM-DOS application: the paper's production code.

    Estimates the spectral map (Lanczos on the global operator), draws
    the stochastic block, runs the distributed blocked solver on the
    simulated ranks, and reconstructs rho(E). Returns a
    :class:`repro.core.solver.DOSResult` identical (bit-for-bit moments)
    to the serial :class:`~repro.core.solver.KPMSolver` with the same
    seed and scale.  ``config``/knobs as for :func:`distributed_eta`.
    """
    from repro.core.moments import eta_to_moments
    from repro.core.reconstruct import reconstruct_dos
    from repro.core.scaling import lanczos_scale
    from repro.core.solver import DOSResult
    from repro.core.stochastic import make_block_vector

    if isinstance(A, DistributedMatrix):
        dist = A
        global_for_scale = None
    else:
        dist = None
        global_for_scale = A
    if scale is None:
        if global_for_scale is None:
            raise ValueError(
                "pass an explicit scale when starting from a "
                "DistributedMatrix (the global operator is unavailable)"
            )
        scale = lanczos_scale(global_for_scale, seed=seed)
    n = (dist.n_global if dist is not None else A.n_rows)
    block = make_block_vector(n, n_vectors, seed=seed)
    eta = distributed_eta(
        A, partition, scale, n_moments, block, world, counters=counters,
        metrics=metrics, config=config, **knobs,
    )
    mu = eta_to_moments(eta).mean(axis=0).real
    pts = n_points if n_points is not None else max(2 * n_moments, 256)
    energies, rho = reconstruct_dos(
        mu, scale, n_points=pts, kernel=kernel
    )
    return DOSResult(energies, rho, mu, scale, n_vectors, kernel)


def distributed_dos_moments(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    world,
    *,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Distributed stochastic-trace moments (mean over the R vectors)."""
    from repro.core.moments import eta_to_moments

    eta = distributed_eta(
        A, partition, scale, n_moments, start_block, world, counters=counters,
        metrics=metrics, config=config, **knobs,
    )
    return eta_to_moments(eta).mean(axis=0).real
