"""Distributed KPM driver on the simulated SPMD world.

Executes the blocked (stage-2) KPM iteration over a row-partitioned
matrix exactly as the paper's heterogeneous production code does:

1. each rank packs its send lists straight into its neighbours' halo
   tails ("the assembly of communication buffers ... only the elements
   which need to be transferred are copied", Section VI-A);
2. each rank runs the augmented SpMMV on its local rows (local + halo
   column layout), computing its partial dot products on the fly;
3. the per-iteration eta contributions are either reduced globally every
   iteration (the ``aug_spmmv()*`` variant of Table III) or accumulated
   locally and reduced **once at the very end** — "a careful
   implementation reduces the amount of global reductions in the dot
   products to a single one at the end of the inner loop" (Section II).

Each rank runs the one rank program (:mod:`repro.dist.rank`) on one
:class:`repro.core.recurrence.Recurrence` — the same loop body the
serial engines drive — and hands back the bins of the one eta reduction
(DESIGN §19), which add exactly across ranks: the moments equal the
serial solver's **bitwise**, for any rank count, weighting, overlap
schedule or reduction frequency, on any 64-row aligned partition.  Here
the programs run over the in-process transport, stepped in lock-step;
:mod:`repro.dist.mp` runs them over shared memory.

:func:`prepare_run` is the prologue this simulated world and the
multiprocess one (:mod:`repro.dist.mp`) share: one validation, one
exception per bad input, whichever world runs.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, RunContext, splice_eta
from repro.core.recurrence import Recurrence, check_moments
from repro.core.scaling import SpectralScale
from repro.dist.comm import MessageLog, SimWorld
from repro.dist.halo import DistributedMatrix, partition_matrix
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition
from repro.dist.rank import (RankState, Schedule, buffer_layout, rank_links,
                             rank_program, send_edges)
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import ETA_BLOCK, eta_anchors
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import SimulationError
from repro.util.knobs import ExecConfig
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_block_vector


@dataclass
class RunSetup:
    """One validated distributed run, as either world executes it.

    ``cfg`` has ``threads`` and ``overlap`` decided for the world's rank
    count and ``ctx`` holds the run controls; ``half`` is the exclusive
    bound of the inner iterations run (``stop_m``, or M/2) and ``first_m``
    the first one (1 fresh, the resumed checkpoint ``ck``'s ``next_m``).
    ``anchors`` are the run's eta anchors: the global start block's, or
    the checkpoint's.
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
    anchors: np.ndarray
    stop_m: int | None
    ck: KpmCheckpoint | None
    start_block: np.ndarray | None
    run_id: str

    @property
    def final_bytes(self) -> int:
        """Bytes the final allreduce moves: the bins (2, 3R), 48R bytes,
        of each iteration whose moments this run computed — all M/2, or
        a segment's ``stop_m`` fresh, ``stop_m − first_m`` resumed — so
        the charges of a segmented run sum to one run's."""
        if self.stop_m is None:
            iters = self.n_moments // 2
        else:
            iters = self.half - (0 if self.first_m == 1 else self.first_m)
        return 48 * self.r * iters

    def schedule(self, ctx: RunContext) -> Schedule:
        """The :class:`~repro.dist.rank.Schedule` every rank runs, by the
        run controls ``ctx``."""
        return Schedule(first_m=self.first_m, half=self.half,
                        overlap=self.cfg.overlap,
                        every=self.cfg.reduction == "every",
                        final_bytes=self.final_bytes, ctx=ctx)

    def record(self, world, logs: list[MessageLog]) -> None:
        """Check the ranks' recorded halo messages against the
        communication pattern — a fresh run exchanges M/2 times (the
        bootstrap and M/2 − 1 iterations), a resumed one skips the
        bootstrap and the iterations before ``first_m``, a segment stops
        at ``stop_m`` — then append the logs to ``world.log``, rank by
        rank.  A rank that skipped a halo pack is a :class:`~repro.util.
        errors.SimulationError`."""
        want = np.zeros((2, self.dist.n_ranks), dtype=np.int64)
        for (p, _q), rows in self.dist.pattern.send_rows.items():
            if rows.size:
                want[:, p] += (1, rows.size * self.r * self.prec.s_vector)
        want *= self.half - self.first_m + (self.first_m == 1)
        got = np.zeros_like(want)
        for p, log in enumerate(logs):
            for rec in log.records:
                if rec.phase in ("halo_init", "halo"):
                    got[:, p] += (1, rec.nbytes)
        if not np.array_equal(got, want):
            raise SimulationError(
                f"halo accounting mismatch: ranks moved {got[1].tolist()} "
                f"bytes, pattern predicts {want[1].tolist()}"
            )
        for log in logs:
            for rec in log.records:
                world.log.add(rec.src, rec.dst, rec.nbytes, rec.phase)

    def splice(self, bins: np.ndarray, stop: int, width: int) -> np.ndarray:
        """The globally reduced eta ``[0, stop)`` (:func:`~repro.core.
        checkpoint.splice_eta`) of ``bins`` (ranks, M/2, 2, 3R), summed
        over ranks — exact, so resumed == uninterrupted bitwise."""
        return splice_eta(bins.sum(axis=0), stop, width, self.ck)

    def state(self, v: np.ndarray, w: np.ndarray, eta: np.ndarray,
              next_m: int) -> KpmCheckpoint:
        """The checkpoint of global ``(v, w)`` and reduced ``eta`` after
        iteration ``next_m − 1`` — exactly what the serial engine saves."""
        return KpmCheckpoint(
            v=v, w=w, eta=eta, next_m=next_m, n_moments=self.n_moments,
            a=self.a, b=self.b, anchors=self.anchors,
            precision=self.prec.name, run_id=self.run_id,
        )


def prepare_run(
    cfg: ExecConfig, ctx: RunContext, A, partition, scale: SpectralScale,
    n_moments: int, start_block, world, *, stop_m: int | None = None,
) -> RunSetup:
    """The sim/mp prologue: validate every input, partition, load any
    checkpoint.  A bad argument is a :class:`ValueError`; an operator,
    partition, checkpoint or world that do not fit together — a rank
    that does not start on a 64-row eta block among them — is a
    :class:`~repro.util.errors.SimulationError` — on either world."""
    check_moments(n_moments)
    half = n_moments // 2 if stop_m is None else int(stop_m)
    if not 1 <= half <= n_moments // 2:
        raise ValueError(
            f"stop_m must be in [1, {n_moments // 2}], got {stop_m}"
        )
    prec = get_precision(cfg.precision)
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
    n = dist.n_global
    for blk in dist.blocks:
        if blk.row_start % ETA_BLOCK and blk.row_start != n:
            raise SimulationError(
                f"rank {blk.rank} starts at row {blk.row_start}, not on a "
                f"{ETA_BLOCK}-row eta block — build the partition with "
                f"align={ETA_BLOCK}"
            )
    ck = ctx.resume(n_moments, scale, prec, start_block)
    if ck is not None:
        if ck.v.shape[0] != n:
            raise SimulationError(
                f"checkpoint holds {ck.v.shape[0]} rows, matrix has {n}"
            )
        if ck.next_m > half:
            raise SimulationError(
                f"checkpoint resumes at m={ck.next_m}, beyond stop_m={half}"
            )
        r, first_m, anchors = ck.v.shape[1], ck.next_m, ck.anchors
    else:
        start_block = check_block_vector("start_block", start_block, n)
        r, first_m = start_block.shape[1], 1
        anchors = eta_anchors(start_block)
    return RunSetup(
        dist=dist, cfg=cfg.for_ranks(world.n_ranks), ctx=ctx, prec=prec,
        a=scale.a, b=scale.b, n_moments=n_moments, r=r, first_m=first_m,
        half=half, anchors=anchors, stop_m=stop_m, ck=ck,
        start_block=start_block, run_id=ctx.run_id(ck, start_block, prec),
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
        Required when ``A`` is a global matrix; ignored otherwise.  Every
        rank must start on a 64-row eta block (``align=64``).
    start_block:
        Global (N, R) start block; each rank gets its row slice.
    world:
        The communicator: a :class:`SimWorld` steps the ranks' programs
        in lock-step in-process, a :class:`~repro.dist.mp.MpWorld` runs
        them in real worker processes over shared memory (bitwise the
        same results, and the same recorded messages).  Must match the
        partition's rank count.
    counters / metrics / checkpoint_every / checkpoint_path / resume_from /
    fault_plan / attempt / progress / progress_every:
        The run controls (:class:`~repro.core.checkpoint.RunContext`,
        DESIGN §17) over the global state.  Counter totals equal a serial
        run's (only ``calls`` is rank-multiplied); a resumed run
        (``start_block`` may then be None) is bitwise equal to an
        uninterrupted one, on any world and partition.  ``progress``
        fires per world: a :class:`SimWorld` calls it every
        ``progress_every`` iterations, an ``MpWorld`` with each
        checkpoint its parent captures, so never without
        ``checkpoint_every`` (at M = 16 with ``checkpoint_every=3`` and
        ``progress_every=1``: mp at ``n_eta`` 8 and 14, sim at 4, 6,
        ..., 16).
    stop_m:
        Optional exclusive upper bound on the inner-iteration range: the
        run executes ``[first_m, stop_m)`` instead of ``[first_m, M/2)``
        and returns eta with only the columns ``[0, 2·stop_m)``
        meaningful.  The elastic driver runs a sequence of such segments
        — chained through their boundary states — whose concatenation is
        bitwise equal to one uninterrupted run.
    config / knobs:
        The :class:`~repro.util.knobs.ExecConfig` (``overlap`` off unless
        given).  Here ``overlap`` runs each rank's interior eta blocks
        while the halo is in flight and the boundary blocks after;
        ``reduction`` picks one deferred allreduce or one per iteration.

    Returns
    -------
    eta:
        (R, M) complex, bitwise the serial engines'.
    """
    return run_distributed(
        ExecConfig.of(config, knobs, overlap=False),
        RunContext.of(counters=counters, metrics=metrics,
                      checkpoint_every=checkpoint_every,
                      checkpoint_path=checkpoint_path, resume_from=resume_from,
                      fault_plan=fault_plan, attempt=attempt,
                      progress=progress, progress_every=progress_every),
        A, partition, scale, n_moments, start_block, world, stop_m=stop_m,
    )


def run_distributed(cfg: ExecConfig, ctx: RunContext, A, partition,
                    scale: SpectralScale, n_moments: int, start_block, world,
                    *, stop_m: int | None = None):
    """:func:`distributed_eta` on a built config and context."""
    from repro.dist.mp import MpWorld, run_mp

    run = prepare_run(cfg, ctx, A, partition, scale, n_moments, start_block,
                      world, stop_m=stop_m)
    return (run_mp if isinstance(world, MpWorld) else run_sim)(run, world)


class _InProcess:
    """One rank's in-process transport.  The engine steps the rank
    programs in lock-step in one address space, so the halo and
    reduction ops have nothing to wait for; the last rank of each step
    — every peer's bins and state slots are in place by then — does the
    parent's part of ``publish``."""

    def __init__(self, publish=None) -> None:
        self.publish = publish or (lambda m, k: None)

    def exchange(self, *_) -> None:
        pass

    reduce = probe = complete = release = exchange

    def post(self, _q: int, _m: int):
        return nullcontext()


def run_sim(run: RunSetup, world: SimWorld) -> np.ndarray:
    """Execute a prepared run on the simulated world: the ranks' programs
    (:func:`~repro.dist.rank.rank_program`) step in lock-step in this
    process; returns eta (R, M).  ``progress`` fires every
    ``progress_every`` iterations; the last checkpoint state the run
    reached stays on ``world.last_checkpoint``."""
    dist, ctx, ck, r = run.dist, run.ctx, run.ck, run.r
    world.last_checkpoint = None
    bins = np.zeros((world.n_ranks, run.n_moments // 2, 2, 3 * r))
    vshape = run.prec.vec_shape(2, dist.n_global, r)
    slots = tuple(np.empty(vshape, run.prec.vector_dtype) for _ in "vw") \
        if ctx.checkpoint_every > 0 else None
    bufs = {key: np.empty(shape, dtype) for key, (shape, dtype) in
            buffer_layout(dist, r, run.prec).items()}

    def publish(m: int, k: int) -> None:
        n_eta = 2 * (m + 1)
        if ctx.progress_due(m, run.first_m):
            ctx.stream(n_eta, run.splice(bins, n_eta, n_eta))
        if k:
            v, w = (a[k % 2].copy() for a in slots)
            world.last_checkpoint = state = run.state(
                v, w, run.splice(bins, n_eta, run.n_moments), m + 1)
            ctx.save(state)

    states, programs = [], []
    sched = run.schedule(ctx)
    for blk, edges in zip(dist.blocks, send_edges(dist)):
        rec = Recurrence(
            blk.matrix, run.a, run.b, r, config=run.cfg,
            counters=ctx.counters, metrics=ctx.metrics,
            split=task_split(blk) if run.cfg.overlap else None,
        )
        rows, x = slice(blk.row_start, blk.row_stop), bufs[f"x{blk.rank}"]
        if ck is not None:
            rec.load(ck.v[rows], ck.w[rows], anchors=run.anchors,
                     m=run.first_m, bufs=x)
        else:
            rec.load(run.start_block[rows], anchors=run.anchors, bufs=x)
        s = RankState(blk.rank, rec, rows, bins,
                      *rank_links(blk, edges, bufs), slots,
                      ctx.injector(blk.rank) or None, ctx.metrics)
        last = blk.rank == world.n_ranks - 1
        states.append(s)
        programs.append(rank_program(s, sched, _InProcess(publish if last
                                                          else None)))
    # one round steps every program to its next yield, rank by rank
    for _ in itertools.zip_longest(*programs):
        pass
    run.record(world, [s.log for s in states])
    return run.splice(bins, run.n_moments, run.n_moments)
