"""The rank program: one rank's schedule of a distributed KPM run.

Paper Section VI-A's MPI+X rank — bootstrap, halo exchange (vector or
task mode), the local augmented SpMMV, one deferred reduction — written
once: :func:`rank_program` runs it on a :class:`RankState` over a
*transport*.  Every rank keeps its iterates in two full-height
``[local | halo]`` buffers, ``nu_m`` in buffer ``m % 2``, which *are*
its recurrence's kernel inputs; a halo exchange packs each send list
straight into the receiver's halo tail of the buffer with parity
``m % 2`` ("only the elements which need to be transferred are
copied") — no window, no gather.  The program fires the
``corrupt_window`` fault hook on each packed tail, times the spans,
fills the rank's eta bins and records its messages into its own
:class:`~repro.dist.comm.MessageLog` — a halo message when it is
packed, a reduction as the rank's share of a recursive-doubling
allreduce.  Its only communication is seven transport ops:

* ``exchange()`` — vector mode: every rank has packed this iteration;
* ``post(q, m)`` — task mode: a context manager around the pack of
  iteration ``m`` into ``q``, entered once ``q`` consumed ``m − 2``;
* ``complete(src, m)`` / ``release(src, m)`` — task mode: ``src``'s
  tail of iteration ``m`` has landed / been consumed by the kernel;
* ``reduce()`` — every rank's bins of this iteration are in place;
* ``publish(m, k)`` — after iteration ``m``, the ``k``-th checkpoint
  (0: none is due) is in the state slots;
* ``probe()`` — the heartbeat, after the fault probe.

The program is a generator that yields where the shared-memory
transport (:mod:`repro.dist.mp`) may wait for a peer — the same points
on every rank.  That transport runs one program per worker to the end,
blocking in its ops; the in-process one (:mod:`repro.dist.
kpm_parallel`) steps the P programs in lock-step, rank by rank, so no
rank reads a halo tail before every rank has packed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import RunContext
from repro.core.recurrence import Recurrence
from repro.dist.comm import MessageLog
from repro.dist.halo import DistributedMatrix
from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class Schedule:
    """What every rank of one run shares: the inner iterations
    ``[first_m, half)`` (a fresh run bootstraps first), the halo mode,
    the reduction frequency, the bytes of the final reduction (0: none)
    and the run controls the ranks act on (the checkpoint cadence)."""

    first_m: int
    half: int
    overlap: bool
    every: bool
    final_bytes: int
    ctx: RunContext


@dataclass
class RankState:
    """What one rank owns for one run.

    ``rec`` holds the loaded local block in its two buffers; ``bins`` is
    the run's ``(P, M/2, 2, 3R)`` array, of which the rank writes row
    ``rank``; ``sends`` lists ``(q, send rows, tails)`` per outgoing
    edge, ``tails`` being the ``(2, rows, R)`` view of the rows of q's
    two buffers it fills, and ``sources`` the ranks it receives from;
    ``slots`` are the checkpoint's double-buffered global ``(v, w)``
    arrays, None without checkpoints.
    """

    rank: int
    rec: Recurrence
    rows: slice
    bins: np.ndarray
    sends: list
    sources: list
    slots: tuple | None
    inj: object
    metrics: MetricsRegistry
    log: MessageLog = field(default_factory=MessageLog)


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


def buffer_layout(dist: DistributedMatrix, r: int, prec) -> dict:
    """``{"x<p>": (shape, dtype)}``: rank p's two full-height
    ``[local | halo]`` buffers, stacked."""
    return {f"x{blk.rank}": (prec.vec_shape(2, blk.matrix.n_cols, r),
                             prec.vector_dtype) for blk in dist.blocks}


def rank_links(blk, edges: list, bufs: dict) -> tuple[list, list]:
    """Rank ``blk.rank``'s ``(sends, sources)`` over the run's buffers."""
    sends = [(q, rows, bufs[f"x{q}"][:, tail]) for q, rows, tail in edges]
    return sends, blk.halo_sources.tolist()


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


def _allreduce(s: RankState, nbytes: int, phase: str) -> None:
    """Record this rank's share of one recursive-doubling allreduce of
    ``nbytes``: one message to its partner in every stage it has one."""
    n = s.bins.shape[0]
    for stage in range((n - 1).bit_length()):
        partner = s.rank ^ (1 << stage)
        if partner < n:
            s.log.add(s.rank, partner, nbytes, phase)


def rank_program(s: RankState, sched: Schedule, t):
    """Run one rank's schedule over transport ``t``; a generator that
    yields where the shared-memory transport may wait for a peer."""
    rec, span, r = s.rec, s.metrics.span, s.bins.shape[-1] // 3

    def probe(m: int) -> None:
        # ``rank_busy`` times this rank's own work — the fault probe (an
        # injected straggler's sleeps) and the kernels, not the waits
        # where fast ranks absorb a slow peer's skew: the elastic
        # rebalancer's skew signal.
        with span("rank_busy"):
            if s.inj is not None:
                s.inj.at_iteration(m)
        t.probe()

    def step(m: int, vec: np.ndarray, phase: str, kernel):
        # Exchange vec's halo of iteration m, then run ``kernel`` on the
        # complete input: its bins are the rank's share of iteration m.
        slot = m % 2
        if not sched.overlap:
            with span("halo_exchange", phase="dist"):
                for q, rows, tails in s.sends:
                    _pack(s, m, q, rows, tails[slot], vec, phase)
                t.exchange()  # every tail of this parity is filled
                yield
        else:
            # Task mode: pack into each peer once it drained the slot —
            # no global synchronisation; then update the interior rows
            # while the exchange is in flight (they reference local
            # columns only).  Time still spent waiting for the incoming
            # tails is exposed communication: the ``halo_wait`` span.
            with span("halo_pack", phase="dist"):
                for q, rows, tails in s.sends:
                    with t.post(q, m):
                        _pack(s, m, q, rows, tails[slot], vec, phase)
            if phase == "halo":  # the bootstrap has no compute to hide
                with span("rank_busy"):
                    rec.interior()
            with span("halo_wait", phase="dist"):
                yield
                for src in s.sources:
                    t.complete(src, m)
        with span("rank_busy"):
            s.bins[s.rank, m] = kernel()
        if sched.overlap:
            for src in s.sources:
                t.release(src, m)  # the peer may refill this parity
        if sched.every:
            yield from reduce(m)

    def reduce(m: int):
        # reduction="every": the even moment's bins, then the odd one's
        with span("allreduce", phase="dist"):
            for width in (r, 2 * r):
                _allreduce(s, 16 * width, "allreduce_iter")
            t.reduce()
            yield
            s.bins[:, m].sum(axis=0)  # every rank forms the global sum

    if sched.first_m == 1:
        # nu_1 = a (H nu_0 - b nu_0) on the local rows
        probe(0)
        yield from step(0, rec.v, "halo_init", rec.bootstrap)

    for m in range(sched.first_m, sched.half):
        probe(m)
        yield from step(m, rec.swap(), "halo", rec.update)
        k = sched.ctx.checkpoint_due(m, sched.first_m)
        if k:
            # Double-buffered: the k-th checkpoint writes slot k % 2, so
            # the previously published slot stays intact meanwhile.
            v, w = s.slots
            v[k % 2, s.rows], w[k % 2, s.rows] = rec.v, rec.w
        t.publish(m, k)
        if k:
            yield

    # the one deferred reduction of the bins this run computed
    if sched.final_bytes:
        _allreduce(s, sched.final_bytes, "allreduce_final")
