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

Each rank runs the one rank program (:func:`repro.core.recurrence.
rank_program`) — the program a serial solve runs on one rank — with the
halo wiring of a world with peers (:class:`RankState`): its iterates
live in two full-height ``[local | halo]`` buffers, ``nu_m`` in buffer
``m % 2``, which *are* its recurrence's kernel inputs, and its peers
pack straight into their halo tails.  The ranks hand back the bins of
the one eta reduction (DESIGN §19), which add exactly across ranks: the
moments equal the serial solver's **bitwise**, for any rank count,
weighting, overlap schedule or reduction frequency, on any 64-row
aligned partition, one that changes between two iterations included
(:mod:`repro.dist.elastic`).  Here the programs run over the in-process
transport, stepped in lock-step; :mod:`repro.dist.mp` runs them over
shared memory.

:func:`run_distributed` runs the prologue this simulated world and the
multiprocess one (:mod:`repro.dist.mp`) share — every engine's
(:meth:`repro.core.checkpoint.Run.of`) plus the partition's checks: one
validation, one exception per bad input, whichever world runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core import recurrence
from repro.core.checkpoint import KpmCheckpoint, Run, RunContext
from repro.core.scaling import SpectralScale
from repro.dist.comm import MessageLog, SimWorld
from repro.dist.halo import DistributedMatrix, partition_matrix
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition
from repro.obs.metrics import NULL_METRICS
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import ETA_BLOCK
from repro.util.errors import SimulationError
from repro.util.knobs import ExecConfig


@dataclass
class RankState(recurrence.RankState):
    """One rank of a world with peers: its packs and its shares of each
    reduction, recorded into its own ``log``."""

    log: MessageLog = field(default_factory=MessageLog)

    def pack(self, m: int, q: int, rows, win, vec, phase: str) -> None:
        """Pack one edge's halo into ``win``, q's tail of parity m % 2."""
        _pack(self, m, q, rows, win, vec, phase)

    def allreduce(self, nbytes: int, phase: str) -> None:
        """Record this rank's share of one recursive-doubling allreduce of
        ``nbytes``: one message to its partner in every stage it has one."""
        n = self.bins.shape[0]
        for stage in range((n - 1).bit_length()):
            partner = self.rank ^ (1 << stage)
            if partner < n:
                self.log.add(self.rank, partner, nbytes, phase)

    def handover(self, offsets) -> None:
        """Record the ``(v, w)`` rows this rank hands to their owners
        under the partition ``offsets``: one message per new owner."""
        lo, hi = self.rows.start, self.rows.stop
        row = 2 * self.rec.prec.s_vector * (self.bins.shape[-1] // 3)
        for q in range(len(offsets) - 1):
            n = min(hi, offsets[q + 1]) - max(lo, offsets[q])
            if q != self.rank and n > 0:
                self.log.add(self.rank, q, n * row, "reslice")


def send_edges(dist: DistributedMatrix) -> list[list[tuple]]:
    """Each rank's outgoing halo edges ``(q, rows, tail)``, by ``q``;
    ``tail`` is the slice of q's buffer rows the edge fills."""
    edges: list[list] = [[] for _ in range(dist.n_ranks)]
    for q, blk in enumerate(dist.blocks):
        pos = blk.n_local
        for p, cnt in zip(blk.halo_sources.tolist(), blk.halo_counts.tolist()):
            edges[p].append((q, dist.pattern.send_rows[p, q],
                             slice(pos, pos + cnt)))
            pos += cnt
    return edges


def buffer_layout(dist: DistributedMatrix, r: int, prec,
                  elastic: bool = False) -> dict:
    """``{"x<p>": (shape, dtype)}``: rank p's two full-height
    ``[local | halo]`` buffers, stacked — of N rows each in an
    ``elastic`` run, which fit any block the rank takes."""
    return {f"x{blk.rank}": (prec.vec_shape(
        2, dist.n_global if elastic else blk.matrix.n_cols, r),
        prec.vector_dtype) for blk in dist.blocks}


def rank_piece(blk, edges: list, bufs: dict, rec) -> tuple:
    """Rank ``blk.rank``'s ``(rows, recurrence, (sends, sources),
    buffers)`` on the run's buffers: its block's recurrence ``rec``, its
    sends into its peers' buffers and its own two buffers cut to the
    block's columns."""
    sends = [(q, rows, bufs[f"x{q}"][:, tail]) for q, rows, tail in edges]
    return (slice(blk.row_start, blk.row_stop), rec,
            (sends, blk.halo_sources.tolist()),
            bufs[f"x{blk.rank}"][:, :blk.matrix.n_cols])


def _pack_halo(vec: np.ndarray, rows: np.ndarray, win: np.ndarray) -> None:
    """Pack one edge's send rows into ``win``, allocation-free.

    The gather writes straight into the receiver's halo tail — no
    temporary is materialized, so the steady-state iteration loop does
    not allocate per exchange (tested with tracemalloc).  ``mode='clip'``
    is what makes ``np.take`` buffer-free; it is safe because the row
    lists come from the communication pattern, validated in range at
    construction.
    """
    np.take(vec, rows, axis=0, out=win, mode="clip")


def _pack(s: RankState, m: int, q: int, rows, win, vec, phase: str) -> None:
    """Pack one edge's halo ("only the elements which need to be
    transferred are copied", Section VI-A) and record the message."""
    _pack_halo(vec, rows, win)
    if s.inj is not None:
        s.inj.corrupt_window(m, win)
    s.log.add(s.rank, q, win.nbytes, phase)


@dataclass
class RunSetup(Run):
    """One validated distributed run, as either world executes it: the
    :class:`~repro.core.checkpoint.Run` over the partition ``dist``.

    An ``elastic`` run (:mod:`repro.dist.elastic`) names its global
    operator (``elastic.A``), its boundaries (``elastic.bounds``), at
    each its next :class:`~repro.dist.partition.RowPartition`
    (``elastic(m, busy)`` from the ranks' busy seconds, None to keep the
    weights), and the ``(m, partition)`` ``epochs`` it took."""

    dist: DistributedMatrix
    elastic: object = None

    def schedule(self):
        sched = super().schedule()
        if self.elastic is None:
            return sched
        return replace(sched, bounds=self.elastic.bounds(self.first_m,
                                                         self.half))

    def record(self, world, logs: list[MessageLog]) -> None:
        """Check the ranks' recorded halo messages against the
        communication pattern of each partition the run took — a fresh
        run exchanges M/2 times (the bootstrap and M/2 − 1 iterations), a
        resumed one skips the bootstrap and the iterations before
        ``first_m`` — then append the logs to ``world.log``, rank by
        rank.  A rank that skipped a halo pack is a :class:`~repro.util.
        errors.SimulationError`."""
        want = np.zeros((2, self.dist.n_ranks), dtype=np.int64)
        epochs = self.elastic.epochs if self.elastic else []
        starts = [0 if self.first_m == 1 else self.first_m,
                  *(m for m, _ in epochs)]
        dists = [self.dist, *(partition_matrix(self.elastic.A, part)
                              for _, part in epochs)]
        for dist, lo, hi in zip(dists, starts, [*starts[1:], self.half]):
            for (p, _q), rows in dist.pattern.send_rows.items():
                if rows.size:
                    want[:, p] += (hi - lo) * np.array(
                        (1, rows.size * self.r * self.prec.s_vector))
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


def run_distributed(cfg: ExecConfig, ctx: RunContext, A, partition,
                    scale: SpectralScale, n_moments: int, start_block, world,
                    *, elastic=None):
    """:func:`distributed_eta` on a built config and context — an
    ``elastic`` one re-slicing at its boundaries (:class:`RunSetup`).

    The sim/mp prologue is every engine's (:meth:`~repro.core.checkpoint.
    Run.of`), over a partition that fits the world.  A bad argument is a
    :class:`ValueError`; an operator, partition, checkpoint or world that
    do not fit together — a rank that does not start on a 64-row eta
    block among them — is a :class:`~repro.util.errors.SimulationError`
    — on either world."""
    from repro.dist.mp import MpWorld, run_mp

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
    run = RunSetup.of(cfg, ctx, scale, n_moments, start_block, n,
                      n_ranks=world.n_ranks, dist=dist, elastic=elastic)
    if run.ck is not None and run.ck.v.shape[0] != n:
        raise SimulationError(
            f"checkpoint holds {run.ck.v.shape[0]} rows, matrix has {n}"
        )
    return (run_mp if isinstance(world, MpWorld) else run_sim)(run, world)


def distributed_eta(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    world,
    *,
    counters=NULL_METRICS,
    metrics=NULL_METRICS,
    checkpoint_every: int = 0,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    fault_plan=None,
    attempt: int = 1,
    progress=None,
    progress_every: int = 0,
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
        DESIGN §17) over the global state; ``counters``/``metrics`` are
        the one sink.  Its traffic folds to a serial run's (only
        ``calls`` is rank-multiplied); a resumed run
        (``start_block`` may then be None) is bitwise equal to an
        uninterrupted one, on any world and partition.
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
        A, partition, scale, n_moments, start_block, world,
    )


def run_sim(run: RunSetup, world: SimWorld) -> np.ndarray:
    """Execute a prepared run on the simulated world: the ranks' programs
    step in lock-step in this process (:meth:`~repro.core.checkpoint.
    Run.lockstep`); returns eta (R, M)."""
    elastic = run.elastic is not None
    bins = np.zeros((world.n_ranks, run.n_moments // 2, 2, 3 * run.r))
    bufs = {key: np.empty(shape, dtype) for key, (shape, dtype) in
            buffer_layout(run.dist, run.r, run.prec, elastic).items()}
    slots = tuple(np.empty(run.prec.vec_shape(2, run.dist.n_global, run.r),
                           run.prec.vector_dtype) for _ in "vw") \
        if elastic else None

    def pieces(dist):
        return [rank_piece(blk, edges, bufs, run.recurrence(
            blk.matrix, split=task_split(blk) if run.cfg.overlap else None))
            for blk, edges in zip(dist.blocks, send_edges(dist))]

    def reslice(m: int):
        part = run.elastic(m, None)
        return None if part is None else [
            (*piece, part.offsets)
            for piece in pieces(partition_matrix(run.elastic.A, part))]

    states = [run.rank(p, rec, rows, bins, bufs=x, links=links, slots=slots,
                       cls=RankState)
              for p, (rows, rec, links, x) in enumerate(pieces(run.dist))]
    eta = run.lockstep(states, reslice if elastic else None)
    run.record(world, [s.log for s in states])
    return eta
