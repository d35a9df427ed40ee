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

from repro.core.checkpoint import KpmCheckpoint, resolve_resume, run_digest
from repro.core.recurrence import Recurrence, check_moments
from repro.core.scaling import SpectralScale
from repro.dist.comm import SimWorld, log_allreduce
from repro.dist.halo import DistributedMatrix, partition_matrix
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition, eta_slots
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil.faults import FaultInjector, FaultPlan
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
    count; ``half`` is the exclusive bound of the inner iterations run
    (``stop_m``, or M/2) and ``first_m`` the first one (1 fresh, the
    checkpoint's ``next_m`` resumed, whose reduced prefix is ``base_eta``).
    """

    dist: DistributedMatrix
    cfg: ExecConfig
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
    base_eta: np.ndarray | None
    start_block: np.ndarray | None
    counters: PerfCounters
    metrics: MetricsRegistry
    checkpoint_every: int
    checkpoint_path: str | Path | None
    fault_plan: FaultPlan | None
    attempt: int
    progress: object
    progress_every: int

    @property
    def final_cols(self) -> int:
        """Eta columns the final allreduce moves: all M, or those this
        segment computed (``2·stop_m`` fresh, ``2·(stop_m − first_m)``
        resumed), so the charges of a segmented run sum to one run's."""
        if self.stop_m is None:
            return self.n_moments
        return 2 * self.half if self.first_m == 1 \
            else 2 * (self.half - self.first_m)


def prepare_run(
    A, partition, scale: SpectralScale, n_moments: int, start_block, world,
    cfg: ExecConfig, *, counters, metrics, checkpoint_every, checkpoint_path,
    resume_from, fault_plan, attempt, progress, progress_every, eta_grid,
    stop_m,
) -> RunSetup:
    """The sim/mp prologue: validate every input, partition, load any
    checkpoint.  A bad argument is a :class:`ValueError`; an operator,
    partition, checkpoint or world that do not fit together is a
    :class:`~repro.util.errors.SimulationError` — on either world."""
    check_moments(n_moments)
    if checkpoint_every and checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
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
    ck = base_eta = None
    if resume_from is not None:
        ck = resolve_resume(resume_from, n_moments, scale.a, scale.b, metrics,
                            prec, eta_grid=grid, start_block=start_block)
        if ck.v.shape[0] != n:
            raise SimulationError(
                f"checkpoint holds {ck.v.shape[0]} rows, matrix has {n}"
            )
        if ck.next_m > half:
            raise SimulationError(
                f"checkpoint resumes at m={ck.next_m}, beyond stop_m={half}"
            )
        r, first_m = ck.v.shape[1], ck.next_m
        base_eta = ck.eta[:, : 2 * first_m].astype(DTYPE, copy=True)
    else:
        start_block = check_block_vector("start_block", start_block, n)
        r, first_m = start_block.shape[1], 1
    return RunSetup(
        dist=dist, cfg=cfg.for_ranks(world.n_ranks), prec=prec, a=scale.a,
        b=scale.b, n_moments=n_moments, r=r, first_m=first_m, half=half,
        grid=grid, stop_m=stop_m, ck=ck, base_eta=base_eta,
        start_block=start_block, counters=counters, metrics=metrics,
        checkpoint_every=int(checkpoint_every),
        checkpoint_path=checkpoint_path, fault_plan=fault_plan,
        attempt=int(attempt), progress=progress,
        progress_every=progress_every,
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
    fault_plan: FaultPlan | None = None,
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
    counters:
        Traffic/flop sink.  Every rank's kernel charges accumulate here
        (the mp engine merges per-worker counters in), so the numeric
        totals equal the serial run on the same problem — only the
        per-kernel ``calls`` tallies are rank-multiplied.
    metrics:
        Span registry.  The sim world records kernel spans inline plus
        ``halo_exchange``/``allreduce`` phase spans; the mp engine ships
        per-worker snapshots back and merges them ``rank<p>.``-prefixed.
    checkpoint_every / checkpoint_path:
        With ``checkpoint_every = k > 0`` the global recurrence state is
        saved atomically to ``checkpoint_path`` after every k inner
        iterations (in the mp engine by the *parent*, which survives
        worker crashes).
    resume_from:
        A :class:`KpmCheckpoint` (or path) to continue from;
        ``start_block`` is then ignored (and may be None).  A resumed
        run is bitwise equal to an uninterrupted one on the same world
        type and partition.
    fault_plan / attempt:
        Optional :class:`~repro.resil.FaultPlan` injected at the same
        probe points in both engines (the sim world surfaces
        process-level faults as
        :class:`~repro.util.errors.FaultInjected`); ``attempt`` selects
        which of the plan's faults are armed.
    progress / progress_every:
        Optional streaming callback ``progress(n_eta, eta_prefix)``
        fired after every ``progress_every`` iterations with the
        globally-reduced eta prefix of every column (the serve layer's
        partial-spectrum stream).  The sim world fires it inline; the
        mp engine fires it from the parent's checkpoint autosave, so it
        needs ``checkpoint_every > 0`` there.
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
        — chained through boundary checkpoints — whose concatenation is
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
    from repro.dist.mp import MpWorld, run_mp

    run = prepare_run(
        A, partition, scale, n_moments, start_block, world,
        ExecConfig.of(config, knobs, overlap=False), counters=counters,
        metrics=metrics, checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path, resume_from=resume_from,
        fault_plan=fault_plan, attempt=attempt, progress=progress,
        progress_every=progress_every, eta_grid=eta_grid, stop_m=stop_m,
    )
    if isinstance(world, MpWorld):
        return run_mp(run, world)
    dist, ck, first_m, half, grid = (run.dist, run.ck, run.first_m, run.half,
                                     run.grid)
    r, base_eta, every = run.r, run.base_eta, run.checkpoint_every
    injectors = None
    if fault_plan:
        injectors = [
            FaultInjector(fault_plan, rank=rank, attempt=run.attempt,
                          in_process=True)
            for rank in range(world.n_ranks)
        ]

    def probe_faults(m: int) -> None:
        if injectors is not None:
            for inj in injectors:
                inj.at_iteration(m)

    # Per-rank persistent state, sized once: one Recurrence each (the
    # local (v, w) blocks, the rectangular x = [v | halo] kernel input,
    # the workspace plans).  Grid mode accumulates one eta partial per
    # global row block instead of one per rank — ceil(N / B) slots whose
    # axis-0 sum is the fixed partition-independent reduction order.
    slots, recs = [], []  # per rank: its eta_acc slot(s), its Recurrence
    for blk in dist.blocks:
        slot, dot_blocks = eta_slots(blk.rank, blk.row_start, blk.row_stop,
                                     grid)
        rec = Recurrence(
            blk.matrix, run.a, run.b, r, config=run.cfg, counters=counters,
            metrics=metrics, dot_blocks=dot_blocks,
            split=task_split(blk) if run.cfg.overlap else None,
        )
        rows = slice(blk.row_start, blk.row_stop)
        if ck is not None:
            rec.load(ck.v[rows], ck.w[rows])
        else:
            rec.load(run.start_block[rows])
        slots.append(slot)
        recs.append(rec)
    n_slots = -(-dist.n_global // grid) if grid else world.n_ranks
    eta_acc = np.zeros((n_slots, n_moments, r), dtype=DTYPE)
    run_id = "" if ck is None else ck.run_id
    if ck is None and every:
        run_id = run_digest(*(rec.v for rec in recs))

    def reduced_prefix(m: int, width: int) -> np.ndarray:
        # Globally-reduced eta prefix [0 : 2(m+1)) in an (R, width) array:
        # the checkpointed base spliced in verbatim, the rest a slot sum.
        out = np.zeros((r, width), dtype=DTYPE)
        col0 = 2 * first_m if base_eta is not None else 0
        if base_eta is not None:
            out[:, :col0] = base_eta
        out[:, col0 : 2 * (m + 1)] = (
            eta_acc[:, col0 : 2 * (m + 1)].sum(axis=0).T
        )
        return out

    def save_checkpoint(m: int) -> None:
        # State after iteration m, exactly as the serial engine saves it:
        # (v, w) post-step, eta prefix [0 : 2(m+1)) globally reduced.
        eta_full = reduced_prefix(m, n_moments)
        with metrics.span("checkpoint_save", phase="ckpt") as sp:
            state = KpmCheckpoint(
                v=np.concatenate([rec.v for rec in recs], axis=0),
                w=np.concatenate([rec.w for rec in recs], axis=0),
                eta=eta_full, next_m=m + 1, n_moments=n_moments, a=run.a,
                b=run.b, precision=run.prec.name, eta_grid=grid,
                run_id=run_id,
            )
            saved = state.save(checkpoint_path)
            sp.note(file_bytes=saved.stat().st_size,
                    payload_bytes=state.payload_bytes, next_m=m + 1)

    every_iter = run.cfg.reduction == "every"
    if ck is None:
        # nu_1 = a (H nu_0 - b nu_0), distributed
        probe_faults(0)
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

    for m in range(first_m, half):
        probe_faults(m)
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
        if progress is not None and progress_every > 0 \
                and (m - first_m + 1) % progress_every == 0:
            progress(2 * (m + 1), reduced_prefix(m, 2 * (m + 1)))
        if every and (m - first_m + 1) % every == 0:
            save_checkpoint(m)

    # final reduction over ranks: one collective for the whole eta array
    with metrics.span("allreduce", phase="dist"):
        if grid or stop_m is not None:
            # Grid mode: the K block partials are summed in block order
            # (NumPy's axis-0 reduce is sequential in k per element) —
            # the canonical reduction whose order depends only on (N, B).
            # The wire cost is still one P-rank allreduce of the columns
            # this run computed, logged explicitly because the slot axis
            # no longer matches the rank count.
            eta_global = eta_acc.sum(axis=0)
            if run.final_cols:
                log_allreduce(world.log, world.n_ranks,
                              run.final_cols * r * np.dtype(DTYPE).itemsize,
                              "allreduce_final")
        else:
            eta_global = world.allreduce_sum(
                [eta_acc[rank] for rank in range(world.n_ranks)],
                phase="allreduce_final",
            )
    if first_m > 1:
        # Splice the checkpointed prefix in verbatim (never re-reduced),
        # matching the mp engine's resumed composition bitwise.
        eta_global[: 2 * first_m] = base_eta.T
    return eta_global.T.copy()  # (R, M)


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
