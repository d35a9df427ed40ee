"""The rank program: one rank's schedule of a distributed KPM run.

Paper Section VI-A's MPI+X rank — bootstrap, halo exchange (vector or
task mode), the local augmented SpMMV, one deferred reduction — written
once: :func:`rank_program` runs it on a :class:`RankState` over a
*transport*.  The program packs and gathers the halo windows, fires the
``corrupt_window`` fault hook, times the spans, fills the rank's eta
bins and records its messages into its own :class:`~repro.dist.comm.
MessageLog` — a halo window when it is packed, a reduction as the
rank's share of a recursive-doubling allreduce.  Its only communication
is six transport ops:

* ``exchange()`` — vector mode: every rank has packed its windows (the
  second time: consumed them);
* ``post(q, slot)`` / ``complete(src, slot)`` — task mode: context
  managers around the pack of one outgoing and the gather of one
  incoming window slot;
* ``reduce()`` — every rank's bins of this iteration are in place;
* ``publish(m, k)`` — after iteration ``m``, the ``k``-th checkpoint
  (0: none is due) is in the state slots;
* ``probe()`` — the heartbeat, after the fault probe.

The program is a generator that yields where the shared-memory
transport (:mod:`repro.dist.mp`) may wait for a peer — the same points
on every rank.  That transport runs one program per worker to the end,
blocking in its ops; the in-process one (:mod:`repro.dist.
kpm_parallel`) steps the P programs in lock-step, rank by rank, so no
rank gathers a window before every rank has packed it.  (A task-mode
post needs no yield: the slot it packs was drained a round earlier.)
"""

from __future__ import annotations

from contextlib import nullcontext
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

    ``rec`` holds the loaded local block; ``bins`` is the run's
    ``(P, M/2, 2, 3R)`` array, of which the rank writes row ``rank``;
    ``wins_out`` lists ``(q, send rows, window)`` per outgoing edge and
    ``wins_in`` ``(src, count, window)`` per incoming one, in halo order
    (task-mode windows have two slots); ``slots`` are the checkpoint's
    double-buffered global ``(v, w)`` arrays, None without checkpoints.
    """

    rank: int
    rec: Recurrence
    rows: slice
    bins: np.ndarray
    wins_out: list
    wins_in: list
    slots: tuple | None
    inj: object
    metrics: MetricsRegistry
    log: MessageLog = field(default_factory=MessageLog)


_IDLE = nullcontext()


def send_edges(dist: DistributedMatrix) -> list[list[tuple[int, np.ndarray]]]:
    """Each rank's non-empty outgoing halo edges ``(q, rows)``, by ``q``."""
    edges: list[list] = [[] for _ in range(dist.n_ranks)]
    for (p, q), rows in sorted(dist.pattern.send_rows.items()):
        if rows.size:
            edges[p].append((q, rows))
    return edges


def window_layout(dist: DistributedMatrix, r: int, prec,
                  task_mode: bool) -> dict:
    """``{"w<p>_<q>": (shape, dtype)}``: one window per directed edge,
    two slots (``m % 2``) in task mode."""
    out = {}
    for p, edges in enumerate(send_edges(dist)):
        for q, rows in edges:
            shape = prec.vec_shape(rows.size, r)
            out[f"w{p}_{q}"] = ((2, *shape) if task_mode else shape,
                                prec.vector_dtype)
    return out


def rank_windows(blk, edges: list, wins: dict) -> tuple[list, list]:
    """Rank ``blk.rank``'s ``(wins_out, wins_in)`` out of the run's windows."""
    p = blk.rank
    out = [(q, rows, wins[f"w{p}_{q}"]) for q, rows in edges]
    into = [(src, cnt, wins[f"w{src}_{p}"]) for src, cnt in
            zip(blk.halo_sources.tolist(), blk.halo_counts.tolist())]
    return out, into


def _pack_halo(vec: np.ndarray, rows: np.ndarray, win: np.ndarray) -> None:
    """Assemble one edge's send window, allocation-free.

    The gather writes straight into the window — no temporary is
    materialized, so the steady-state iteration loop does not allocate
    per exchange (tested with tracemalloc).  ``mode='clip'`` is what
    makes ``np.take`` buffer-free; it is safe because the row lists come
    from the communication pattern, validated in range at construction.
    """
    np.take(vec, rows, axis=0, out=win, mode="clip")


def _pack(s: RankState, m: int, q: int, rows, win, vec, phase: str) -> None:
    """Pack one send window ("only the elements which need to be
    transferred are copied", Section VI-A) and record the message."""
    _pack_halo(vec, rows, win)
    if s.inj is not None:
        s.inj.corrupt_window(m, win)
    s.log.add(s.rank, q, win.nbytes, phase)


def _gather(s: RankState, slot: int | None = None, complete=None) -> None:
    """Fill the halo tail of the kernel input ``x = [v | halo]``."""
    x, pos = s.rec.x, s.rows.stop - s.rows.start
    for src, cnt, win in s.wins_in:
        with complete(src, slot) if complete else _IDLE:
            x[pos : pos + cnt] = win if slot is None else win[slot]
        pos += cnt


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

    def halo(m: int, vec: np.ndarray, phase: str):
        if not sched.overlap:
            with span("halo_exchange", phase="dist"):
                for q, rows, win in s.wins_out:
                    _pack(s, m, q, rows, win, vec, phase)
                t.exchange()  # every window packed
                yield
                _gather(s)
                t.exchange()  # every window consumed, reusable
                yield
            return
        # Task mode: claim this iteration's window slot, pack, signal —
        # no global synchronisation; then update the interior rows while
        # the exchange is in flight (they reference local columns only)
        # and gather the halo.  Time still spent waiting there is
        # exposed communication: the ``halo_wait`` span.
        slot = m % 2
        with span("halo_pack", phase="dist"):
            for q, rows, win in s.wins_out:
                with t.post(q, slot):
                    _pack(s, m, q, rows, win[slot], vec, phase)
        if phase == "halo":  # the bootstrap has no compute to hide behind
            with span("rank_busy"):
                rec.interior()
        with span("halo_wait", phase="dist"):
            yield
            _gather(s, slot, t.complete)

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
        yield from halo(0, rec.v, "halo_init")
        with span("rank_busy"):
            s.bins[s.rank, 0] = rec.bootstrap()
        if sched.every:
            yield from reduce(0)

    for m in range(sched.first_m, sched.half):
        probe(m)
        yield from halo(m, rec.swap(), "halo")
        with span("rank_busy"):
            s.bins[s.rank, m] = rec.update()
        if sched.every:
            yield from reduce(m)
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

