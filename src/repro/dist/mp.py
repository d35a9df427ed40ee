"""True multiprocess shared-memory KPM execution engine.

Where :class:`repro.dist.comm.SimWorld` *simulates* the paper's
data-parallel scheme sequentially in one process, this module runs the
identical rank loop of :mod:`repro.dist.kpm_parallel` in real OS
processes: every rank is a worker (``multiprocessing.Process``) that
owns a contiguous weighted row block (:mod:`repro.dist.partition`),
drives one :class:`repro.core.recurrence.Recurrence` on it with its own
kernel backend, and meets its neighbours at per-iteration barriers.

One persistent world (paper Section VI-A: the ranks live for the whole
run).  :class:`MpWorld` is a cheap handle; its runs lease a *parked*
world from a process-wide pool keyed by (worker count, start method,
``REPRO_*`` environment, native-backend quarantine set) and return it
after a clean run.  A worker loops: receive a run, run the rank loop,
reply.  Between runs it keeps its rank block (shipped once per operator
partition, see :func:`~repro.dist.halo.partition_matrix`'s memo) and its
recurrence with the kernel plans.  The barrier and the task-mode event
slots are created once per world, at fork — the only way such objects
reach a live process.  Workers exit when their control pipe reaches EOF:
:meth:`MpWorld.close`, interpreter exit, or the parent's death.

Communication structure (paper Section VI-A, mapped onto one node):

* each world owns one shared-memory arena (:mod:`repro.dist.shm`),
  mapped by every rank and ``shm_unlink``\\ ed as soon as they all have
  it; the start block is published there once per run — workers slice
  their rows zero-copy instead of receiving pickles;
* each directed halo edge (p → q) owns a shared *window* sized to its
  transfer list; one halo exchange is: every rank packs its send
  windows, a barrier, every rank gathers its ``[local | halo]`` kernel
  input from the windows it receives from, a barrier ("the assembly of
  communication buffers ... only the elements which need to be
  transferred are copied");
* with ``overlap=True`` the exchange is *asynchronous* (task mode,
  paper Section VII's pipelining outlook): the windows are
  double-buffered (slot ``m % 2``) and signalled per directed edge with
  ready/free event pairs instead of the global barrier; each worker
  posts its outgoing halo, computes the **interior** rows (the
  contiguous halo-free range of :func:`repro.dist.overlap.task_split`)
  with the split kernels while the exchange is in flight, then waits
  for its incoming windows and finishes the **boundary** rows.  The
  per-phase eta partials are combined in the fixed order interior +
  boundary, so the overlapped moments are bitwise equal to the
  simulator running the same task-mode schedule;
* per-rank eta contributions accumulate in a shared ``(P, M, R)`` array
  and are reduced **once** after the workers report — the single
  deferred global reduction of Section II.  ``reduction='every'``
  instead synchronizes and sums after every iteration (the Table III
  ``aug_spmmv()*`` ablation).

Accounting: the engine charges :class:`~repro.dist.comm.MessageLog`
records equivalent to what :class:`SimWorld` logs for the same run
(halo volumes from the communication pattern, reductions priced as
recursive doubling via :func:`~repro.dist.comm.log_allreduce`), and
cross-checks the halo volume against byte counters the workers maintain
while actually copying the windows — so the network cost model keeps
working on real runs, and a worker that skipped communication is caught.

Failure model: any worker exception (or hard death) aborts the shared
barrier, which unblocks every peer; the parent tears the whole world
down (the next lease forks a fresh one) and raises a structured
:class:`~repro.util.errors.WorkerFailure` (a ``SimulationError``) — no
hang, no leaked ``/dev/shm`` entry (asserted by the test suite).
Liveness is supervised by a shared *heartbeat* array each worker bumps
every iteration: the parent, asleep on the workers' pipes and process
sentinels, wakes to check it and declares the world wedged when no
heartbeat advances within :attr:`MpTimeouts.stall`.  A worker whose
parent died abandons its run at the next iteration.

Checkpoints (the run controls of DESIGN §17): the workers
double-buffer their state into shared *checkpoint slots*; rank 0
publishes a slot with one atomic state word after a barrier, and the
**parent** — which survives worker crashes — captures it
(``MpWorld.last_checkpoint``) for the run's context to save and stream,
salvaging the latest one even when the run fails.
"""

from __future__ import annotations

import atexit
import itertools
import json
import multiprocessing
import os
import signal
import struct
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import wait
from threading import BrokenBarrierError

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, RunContext
from repro.core.recurrence import Recurrence
from repro.dist.comm import MessageLog, log_allreduce
from repro.dist.halo import DistributedMatrix, RankBlock
from repro.dist.kpm_parallel import RunSetup, distributed_eta
from repro.dist.overlap import task_split
from repro.dist.partition import eta_slots
from repro.dist.shm import ShmArena, carve, layout
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, backend_health
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import SimulationError, WorkerFailure, WorkerFault
from repro.util.knobs import ExecConfig
from repro.util.validation import check_positive

#: acct columns maintained by each worker (its row; no locking needed):
#: actual halo messages/bytes it packed, actual reduction events/bytes.
_ACCT_COLS = 4

#: Per-rank capacity of the observability return channel: one row of the
#: ``obs`` shared array holds an 8-byte length prefix plus a JSON blob
#: of the worker's PerfCounters dump and MetricsRegistry snapshot (a few
#: KB in practice — the metric namespace is the fixed kernel vocabulary).
_OBS_BLOB_SIZE = 1 << 16

#: Parked worker processes per interpreter; beyond it the least recently
#: used worlds are closed.
_MAX_PARKED = 8

#: Rank blocks a parked worker keeps (the operator partitions it served
#: most recently), and recurrences (kernel plans) per block.
_MAX_BLOCKS = 4
_MAX_RECS = 4


@dataclass(frozen=True)
class MpTimeouts:
    """The engine's liveness knobs, gathered in one declarative object.

    Parameters
    ----------
    barrier:
        Seconds any worker may wait at a barrier before declaring its
        peers gone (``BrokenBarrierError``).
    join:
        Seconds the parent gives the workers to report (and then to
        exit) after an abort before escalating to ``terminate()``.
    stall:
        Heartbeat window: the parent tears the world down when *no*
        worker's per-iteration heartbeat advances for this long.  This
        replaces the old whole-run deadline — a long healthy run is
        fine, a wedged one is caught within one window.
    run:
        Optional whole-run wall-clock budget (None: unlimited).  Kept
        for callers that genuinely want a hard cap, e.g. a
        :class:`~repro.resil.RetryPolicy` per-attempt deadline.
    """

    barrier: float = 120.0
    join: float = 5.0
    stall: float = 120.0
    run: float | None = None

    def __post_init__(self) -> None:
        for name in ("barrier", "join", "stall"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MpTimeouts.{name} must be positive")
        if self.run is not None and self.run <= 0:
            raise ValueError("MpTimeouts.run must be positive (or None)")


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _pack_obs_blob(row: np.ndarray, payload: dict) -> None:
    """Serialize ``payload`` into one length-prefixed ``obs`` row."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    if len(blob) > row.size - 8:
        raise RuntimeError(
            f"observability blob ({len(blob)} B) exceeds the shared "
            f"channel capacity ({row.size - 8} B)"
        )
    row[:8] = np.frombuffer(struct.pack("<q", len(blob)), dtype=np.uint8)
    row[8 : 8 + len(blob)] = np.frombuffer(blob, dtype=np.uint8)


def _unpack_obs_blob(row: np.ndarray) -> dict | None:
    """Parse one worker's length-prefixed JSON blob (None when empty)."""
    (length,) = struct.unpack("<q", row[:8].tobytes())
    if length <= 0:
        return None
    return json.loads(row[8 : 8 + length].tobytes().decode())


class MpWorld:
    """A communicator of ``n_workers`` real OS processes.

    Drop-in peer of :class:`~repro.dist.comm.SimWorld` for the
    distributed drivers: :func:`repro.dist.kpm_parallel.distributed_eta`
    (and everything built on it) dispatches on the world type, so
    ``distributed_dos(..., world=MpWorld(4))`` runs the rank loop in
    parallel while ``SimWorld(4)`` simulates it sequentially.

    The object is a handle: each run leases parked workers from the
    process-wide pool (forking only when none fit) and parks them again
    after a clean run, so constructing one per solve costs nothing.

    Parameters
    ----------
    n_workers:
        Number of worker processes (one per partition rank).
    devices:
        Optional ``'cpu'``/``'gpu'`` label per rank, as in ``SimWorld``
        (feeds the network cost model's PCIe staging surcharge).
    backend:
        Kernel backend override: ``None`` (use the driver's ``backend=``
        argument for every rank), a single name, or one name per rank —
        heterogeneous worlds can run native kernels on "fast" ranks and
        numpy on others.
    timeouts:
        An :class:`MpTimeouts`; None uses the defaults.
    start_method:
        ``'fork'``/``'spawn'``/``'forkserver'``; default prefers fork
        where the platform offers it.
    """

    def __init__(
        self,
        n_workers: int,
        devices: list[str] | None = None,
        *,
        backend=None,
        timeouts: MpTimeouts | None = None,
        start_method: str | None = None,
    ) -> None:
        check_positive("n_workers", n_workers)
        self.n_ranks = int(n_workers)
        if devices is None:
            devices = ["cpu"] * self.n_ranks
        if len(devices) != self.n_ranks:
            raise SimulationError(
                f"need one device label per rank ({self.n_ranks}), "
                f"got {len(devices)}"
            )
        for d in devices:
            if d not in ("cpu", "gpu"):
                raise SimulationError(f"unknown device label {d!r}")
        self.devices = list(devices)
        self.backend = backend
        self.timeouts = timeouts if timeouts is not None else MpTimeouts()
        self.start_method = start_method or _default_start_method()
        self.log = MessageLog()
        #: OS names of the arena segment(s) of the most recent run (leak
        #: checks in tests: every one is unlinked before the run starts).
        self.last_segment_names: list[str] = []
        #: pids of the workers that ran the most recent run.
        self.last_pids: list[int] = []
        #: per-rank (halo_msgs, halo_bytes, reduce_events, reduce_bytes)
        #: actually performed by the workers in the most recent run.
        self.last_acct: np.ndarray | None = None
        #: per-rank observability snapshots of the most recent run
        #: (``{"counters": ..., "metrics": ...}`` dicts); None until a
        #: run with live counters/metrics completes.
        self.last_obs: list[dict | None] | None = None
        #: latest checkpoint state the parent captured from shared memory
        #: in the most recent run (autosaved or salvaged); None when the
        #: run did not checkpoint.
        self.last_checkpoint: KpmCheckpoint | None = None

    def __repr__(self) -> str:
        return (
            f"MpWorld(n_workers={self.n_ranks}, devices={self.devices}, "
            f"start_method={self.start_method!r})"
        )

    def close(self) -> None:
        """Stop every parked worker of this process (the pool all handles
        share); the next run forks afresh."""
        _POOL.close()


def _backend_names(world: MpWorld, backend) -> list[str]:
    """One backend *name* per rank (workers resolve instances themselves)."""
    spec = world.backend if world.backend is not None else backend
    if isinstance(spec, KernelBackend):
        spec = spec.name
    if spec is None or isinstance(spec, str):
        return [spec or "auto"] * world.n_ranks
    names = [s.name if isinstance(s, KernelBackend) else str(s) for s in spec]
    if len(names) != world.n_ranks:
        raise SimulationError(
            f"need one backend per rank ({world.n_ranks}), got {len(names)}"
        )
    return names


@dataclass(frozen=True)
class _RunConfig:
    """Picklable per-run parameters shared by every worker."""

    a: float
    b: float
    n_moments: int
    r: int
    timeouts: MpTimeouts
    want_obs: bool
    first_m: int  # 1 for a fresh run, checkpoint.next_m when resuming
    #: threads/overlap resolved for the world; the backend is per rank
    #: and the elastic knobs are the parent's business
    exec: ExecConfig
    #: the run controls a worker runs by (RunContext.for_workers)
    run: RunContext
    eta_grid: int = 0  # B > 0: per-global-block eta partials (elastic)
    stop_m: int = 0  # 0 = run to M/2; else exclusive segment bound


# ---------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------

def _pack_halo(vec: np.ndarray, rows: np.ndarray, win: np.ndarray) -> int:
    """Assemble one edge's send window, allocation-free.

    The gather writes straight into the (shared-memory) window — no
    temporary is materialized, so the steady-state iteration loop does
    not allocate per exchange (tested with tracemalloc).  ``mode='clip'``
    is what makes ``np.take`` buffer-free; it is safe because the row
    lists come from the communication pattern, validated in range at
    construction.  Returns the window byte count for the traffic
    accounting.
    """
    np.take(vec, rows, axis=0, out=win, mode="clip")
    return win.nbytes


def _worker(rank: int, conn, barrier, events) -> None:
    """One parked rank (module-level: spawn-picklable).

    Serves the parent until its control pipe reaches EOF: ``map``
    attaches the world's (grown) arena, ``run`` runs the rank loop once
    and replies.  Rank blocks arrive once per operator partition and
    stay, with their recurrences, until the parent says to drop them.
    SIGINT is the parent's to handle: a worker lives as long as its pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ppid = os.getppid()
    seg = None
    # token -> (rank block, its send lists, its recurrences)
    blocks: dict[int, tuple[RankBlock, list, dict]] = {}
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg[0] == "map":
            if seg is not None:
                seg.close()
            seg = shared_memory.SharedMemory(name=msg[1])
            conn.send(("mapped",))
            continue
        _, cfg, specs, backend_name, token, shipped, drop = msg
        for old in drop:
            blocks.pop(old, None)
        if shipped is not None:
            blocks[token] = (*shipped, {})
        reply = _run_rank(
            rank, conn, ppid, *blocks[token], carve(seg.buf, specs),
            barrier, events, backend_name, cfg,
        )
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            break
    if seg is not None:
        seg.close()


def _run_rank(
    rank: int,
    conn,
    ppid: int,
    blk: RankBlock,
    send_edges: list[tuple[int, np.ndarray]],
    recs: dict[tuple, Recurrence],
    att: dict[str, np.ndarray],
    barrier,
    events,
    backend_name: str,
    cfg: _RunConfig,
) -> tuple:
    """One rank's full KPM loop for one run; returns the parent's reply."""
    abort = att["abort"]
    try:
        start, eta, acct = att["start"], att["eta"], att["acct"]
        hb = att["hb"]
        lo, hi = blk.row_start, blk.row_stop
        n_local = hi - lo
        bt = cfg.timeouts.barrier
        inj = cfg.run.injector(rank, in_process=False)

        # Local observability state: the parent cannot share its own
        # counters/metrics across the process boundary, so each worker
        # accumulates privately and ships a snapshot back through the
        # ``obs`` shared array after its loop completes.
        if cfg.want_obs:
            w_counters: PerfCounters = PerfCounters()
            w_metrics: MetricsRegistry = MetricsRegistry()
        else:
            w_counters = NULL_COUNTERS
            w_metrics = NULL_METRICS

        # Grid mode: this rank's fixed global eta blocks (each block has
        # exactly one writer, so the shared (K, M, R) array needs no
        # locking either); otherwise the rank's own slot.
        eslot, dot_blocks = eta_slots(rank, lo, hi, cfg.eta_grid)
        # The block's recurrences and kernel plans outlive the run: a
        # parked worker rebinds one to the next run's scale and sinks.
        key = (backend_name, cfg.r, cfg.exec, cfg.eta_grid)
        rec = recs.pop(key, None)
        if rec is None:
            rec = Recurrence(
                blk.matrix, cfg.a, cfg.b, cfg.r,
                split=task_split(blk) if cfg.exec.overlap else None,
                config=replace(cfg.exec, backend=backend_name),
                dot_blocks=dot_blocks, counters=w_counters, metrics=w_metrics,
            )
        else:
            rec.rebind(cfg.a, cfg.b, w_counters, w_metrics)
        recs[key] = rec  # most recently used last
        while len(recs) > _MAX_RECS:
            recs.pop(next(iter(recs)))
        w_metrics.count(f"kernels.{rec.kernel_family}")
        half = cfg.stop_m if cfg.stop_m else cfg.n_moments // 2
        wins_out = [(q, rows, att[f"w{rank}_{q}"]) for q, rows in send_edges]
        wins_in = [
            (src, int(cnt), att[f"w{src}_{rank}"])
            for src, cnt in zip(
                blk.halo_sources.tolist(), blk.halo_counts.tolist()
            )
        ]
        ckv, ckw, ckst = att.get("ckv"), att.get("ckw"), att.get("ckst")

        def ev_wait(ev) -> None:
            # Poll so a dead peer (parent sets the shared abort flag and
            # breaks the barrier) unblocks this wait too — events have no
            # abort() of their own.
            deadline = time.monotonic() + bt
            while not ev.wait(0.05):
                if abort[0]:
                    raise BrokenBarrierError
                if time.monotonic() > deadline:
                    raise BrokenBarrierError

        def exchange(m: int, vec: np.ndarray) -> None:
            with w_metrics.span("halo_exchange", phase="dist"):
                for _q, rows, win in wins_out:
                    # buffer assembly at the source, allocation-free
                    nbytes = _pack_halo(vec, rows, win)
                    if inj is not None:
                        inj.corrupt_window(m, win)
                    acct[rank, 0] += 1
                    acct[rank, 1] += nbytes
                barrier.wait(bt)  # all windows packed
                xbuf, pos = rec.x, n_local
                for _src, cnt, win in wins_in:
                    xbuf[pos : pos + cnt] = win
                    pos += cnt
                barrier.wait(bt)  # all windows consumed, reusable

        def post_exchange(m: int, vec: np.ndarray) -> None:
            # Task mode, send side: claim this iteration's window slot
            # (free once the receiver has drained its previous use),
            # pack, and signal readiness — no global synchronization.
            slot = m % 2
            with w_metrics.span("halo_pack", phase="dist"):
                for q, rows, win in wins_out:
                    ready, free = events[(rank, q)][slot]
                    ev_wait(free)
                    free.clear()
                    nbytes = _pack_halo(vec, rows, win[slot])
                    if inj is not None:
                        inj.corrupt_window(m, win[slot])
                    acct[rank, 0] += 1
                    acct[rank, 1] += nbytes
                    ready.set()

        def complete_exchange(m: int) -> None:
            # Task mode, receive side: runs *after* the interior phase;
            # any time still spent blocking here is exposed (un-hidden)
            # communication — the ``halo_wait`` span measures exactly it.
            slot = m % 2
            with w_metrics.span("halo_wait", phase="dist"):
                xbuf, pos = rec.x, n_local
                for src, cnt, win in wins_in:
                    ready, free = events[(src, rank)][slot]
                    ev_wait(ready)
                    xbuf[pos : pos + cnt] = win[slot]
                    ready.clear()
                    free.set()
                    pos += cnt

        def reduce_now(m: int) -> None:
            # The contributions already sit in the shared eta array; a
            # barrier makes every rank's slice visible, then each rank
            # forms the global sum locally (allreduce semantics).
            with w_metrics.span("allreduce", phase="dist"):
                acct[rank, 2] += 2
                acct[rank, 3] += 2 * eta[rank, 2 * m].nbytes
                barrier.wait(bt)
                eta[:, 2 * m].sum(axis=0)
                eta[:, 2 * m + 1].sum(axis=0)

        def publish_checkpoint(m: int, k: int) -> None:
            # Double-buffered: the k-th checkpoint of this run writes
            # slot k % 2, so the previously *published* slot stays
            # intact while this one is being filled — a crash mid-write
            # can never damage a state the parent might be saving.
            slot = k % 2
            ckv[slot, lo:hi] = rec.v
            ckw[slot, lo:hi] = rec.w
            barrier.wait(bt)  # every rank's slice is in the slot
            if rank == 0:
                # One aligned int64 store publishes (next_m, slot); the
                # note wakes the parent's autosave.
                ckst[0] = (m + 1) * 2 + slot
                conn.send(("ckpt",))

        # ``rank_busy`` spans time this rank's own work — the fault probe
        # (so an injected straggler's sleeps are measured) and the kernel
        # compute, but *not* the exchange barriers where fast ranks absorb
        # a slow peer's skew.  Their per-rank totals are the elastic
        # rebalancer's skew signal.
        def probe(m: int) -> None:
            if os.getppid() != ppid:
                raise SimulationError("the parent process is gone")
            with w_metrics.span("rank_busy"):
                if inj is not None:
                    inj.at_iteration(m)
            hb[rank] += 1

        if cfg.first_m == 1:
            rec.load(start[lo:hi])
            probe(0)
            if cfg.exec.overlap:
                # Bootstrap has no prior compute to hide the exchange
                # behind: post and complete back to back.
                post_exchange(0, rec.v)
                complete_exchange(0)
            else:
                exchange(0, rec.v)
            # nu_1 = a (H nu_0 - b nu_0) on the local rows
            with w_metrics.span("rank_busy"):
                eta[eslot, 0], eta[eslot, 1] = rec.bootstrap()
            if cfg.exec.reduction == "every":
                reduce_now(0)
        else:
            # Resume: the parent seeded the checkpointed (v, w) blocks
            # into the ``start`` / ``rw`` arrays; no bootstrap.
            rec.load(start[lo:hi], att["rw"][lo:hi])

        for m in range(cfg.first_m, half):
            probe(m)
            v = rec.swap()
            if cfg.exec.overlap:
                # Task mode: publish the outgoing halo, update the
                # interior rows while the exchange is in flight (they
                # reference local columns only), then finish the
                # boundary rows once the halo has landed.  The fixed
                # interior + boundary combine keeps the moments
                # schedule-independent.
                post_exchange(m, v)
                with w_metrics.span("rank_busy"):
                    rec.interior()
                complete_exchange(m)
            else:
                exchange(m, v)
            with w_metrics.span("rank_busy"):
                eta[eslot, 2 * m], eta[eslot, 2 * m + 1] = rec.update()
            if cfg.exec.reduction == "every":
                reduce_now(m)
            k = cfg.run.checkpoint_due(m, cfg.first_m)
            if k:
                publish_checkpoint(m, k)

        if cfg.want_obs:
            _pack_obs_blob(
                att["obs"][rank],
                {
                    "counters": w_counters.to_dict(),
                    "metrics": w_metrics.snapshot(),
                },
            )
        return ("done",)
    except BrokenBarrierError:
        return ("broken",)  # a peer failed; the parent reports the cause
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        abort[0] = 1  # unblock peers parked on halo events
        try:
            barrier.abort()  # unblock every waiting peer immediately
        except Exception:  # pragma: no cover
            pass
        kind = getattr(exc, "kind", None) or "exception"
        return ("fail", kind, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------
# the pool of parked worlds
# ---------------------------------------------------------------------

#: Every live world's parent-side pipe ends.  A forked child closes them
#: all (``_after_fork_in_child``): if it kept one, that worker would not
#: see EOF when this process dies.
_PARENT_ENDS: set = set()
_FORK_LOCK = threading.Lock()
_TOKENS = itertools.count(1)


class _World:
    """``n`` parked workers, the synchronisation objects they inherited
    at fork, the arena they mapped, and the rank blocks they hold."""

    def __init__(self, key: tuple, n: int, start_method: str) -> None:
        ctx = multiprocessing.get_context(start_method)
        self.key, self.n = key, n
        self.barrier = ctx.Barrier(n)
        # Task-mode halo signalling: a ready/free event pair per ordered
        # rank pair and window slot; free starts set (both slots drained)
        # and a clean run leaves every pair that way again.
        self.events: dict[tuple[int, int], list] = {}
        for p, q in itertools.permutations(range(n), 2):
            slots = [(ctx.Event(), ctx.Event()) for _slot in range(2)]
            for _ready, free in slots:
                free.set()
            self.events[(p, q)] = slots
        self.arena = ShmArena()
        self.abort_flag: np.ndarray | None = None  # of the run in flight
        self.shipped: list[dict[int, None]] = [{} for _ in range(n)]
        self.procs: list = []
        self.conns: list = []
        errors: list[BaseException] = []

        def fork_all() -> None:
            try:
                with _FORK_LOCK:
                    for rank in range(n):
                        ours, theirs = ctx.Pipe()
                        _PARENT_ENDS.add(ours)
                        self.conns.append(ours)
                        proc = ctx.Process(
                            target=_worker,
                            args=(rank, theirs, self.barrier, self.events),
                            daemon=True,
                        )
                        proc.start()
                        theirs.close()
                        self.procs.append(proc)
            except BaseException as exc:  # re-raised by the caller
                errors.append(exc)

        # Workers must share this process's resource tracker (each would
        # start its own on first attach, which would then "clean up" the
        # long-unlinked arena at exit): start it before forking.
        resource_tracker.ensure_running()
        # Fork from a fresh thread: OpenMP keeps its thread pool per
        # thread, and a child inheriting a used one (this thread may have
        # run the threaded kernels) deadlocks in its first parallel region.
        forker = threading.Thread(target=fork_all, name="repro-mp-fork")
        forker.start()
        forker.join()
        if errors:
            self.close()
            raise errors[0]

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def map_arena(self, name: str, timeout: float) -> None:
        """Every worker attaches segment ``name``; then it loses its name."""
        for conn in self.conns:
            conn.send(("map", name))
        for rank, conn in enumerate(self.conns):
            try:
                ok = conn.poll(timeout) and conn.recv() == ("mapped",)
            except (EOFError, OSError):
                ok = False
            if not ok:
                raise WorkerFailure(
                    f"multiprocess KPM run failed: worker {rank} did not "
                    "map the shared arena",
                    failures=[WorkerFault(rank=rank, kind="death",
                                          detail="no attach acknowledgement")],
                )
        self.arena.unlink()

    def send_run(self, cfg: _RunConfig, specs: dict, names: list[str],
                 dist: DistributedMatrix, send_edges: list) -> None:
        """Start one run; ship each rank's block unless it holds it."""
        for rank, conn in enumerate(self.conns):
            blk = dist.blocks[rank]
            token = getattr(blk.matrix, "_mp_token", None)
            if token is None:
                token = blk.matrix._mp_token = next(_TOKENS)
            held = self.shipped[rank]
            shipped, drop = None, []
            if token in held:
                del held[token]
            else:
                shipped = (blk, send_edges[rank])
            held[token] = None  # most recently used last
            while len(held) > _MAX_BLOCKS:
                drop.append(next(iter(held)))
                del held[drop[-1]]
            conn.send(("run", cfg, specs, names[rank], token, shipped, drop))

    def collect(self, hb: np.ndarray, timeouts: MpTimeouts, autosave):
        """Wait for every rank's reply to the run just sent.

        Sleeps on the control pipes and process sentinels; rank 0's
        ``ckpt`` notes trigger ``autosave``.  Every wake-up — at the
        latest four times per stall window — samples the heartbeats and
        the whole-run deadline.  The first failure, death, stall or
        timeout aborts the run; peers then get ``timeouts.join`` seconds
        to report before the silent ones are terminated.  Returns
        ``(replies, heartbeats, stalled, timed_out)``; a rank without a
        reply died or was terminated.
        """
        replies: dict[int, tuple] = {}
        waiting = {}
        for rank, (conn, proc) in enumerate(zip(self.conns, self.procs)):
            waiting[conn] = waiting[proc.sentinel] = rank
        now = time.monotonic()
        deadline = None if timeouts.run is None else now + timeouts.run
        hb_last, hb_t = hb.copy(), now
        stalled = timed_out = False
        abort_at = None
        while waiting:
            if abort_at is not None:
                until = abort_at + timeouts.join
            else:
                until = min(hb_t + timeouts.stall, now + timeouts.stall / 4,
                            deadline if deadline is not None else np.inf)
            ready = wait(list(waiting), max(0.0, until - time.monotonic()))
            now = time.monotonic()
            for obj in ready:
                rank = waiting.get(obj)
                if rank is None:
                    continue  # settled earlier in this wake-up
                msg = ("dead",)
                if obj is self.conns[rank]:
                    try:
                        msg = obj.recv()
                    except (EOFError, OSError):
                        pass
                    if msg == ("ckpt",):
                        autosave()
                        continue
                replies[rank] = msg
                del waiting[self.conns[rank]], waiting[self.procs[rank].sentinel]
                if msg[0] != "done" and abort_at is None:
                    self.abort()
                    abort_at = now
            if abort_at is not None:
                if now >= abort_at + timeouts.join:
                    for rank in set(waiting.values()):
                        self.procs[rank].terminate()  # wedged past the abort
                    break
                continue
            if not np.array_equal(hb, hb_last):
                hb_last, hb_t = hb.copy(), now
            elif now - hb_t >= timeouts.stall:
                stalled = True
            if not stalled and deadline is not None and now >= deadline:
                timed_out = True
            if stalled or timed_out:
                self.abort()
                abort_at = now
        return replies, hb_last, stalled, timed_out

    def abort(self) -> None:
        # Both wake-up channels: the shared flag unblocks event waits
        # (task mode), barrier.abort() unblocks barrier waits.
        if self.abort_flag is not None:
            self.abort_flag[0] = 1
        self.barrier.abort()

    def close(self, join: float = 5.0) -> None:
        """Tear down: abort any run in flight, close the control pipes
        (workers exit on EOF), reap them, release the arena."""
        self.abort()
        self.abort_flag = None
        with _FORK_LOCK:
            for conn in self.conns:
                _PARENT_ENDS.discard(conn)
                conn.close()
        for proc in self.procs:
            proc.join(join)
            if proc.is_alive():
                proc.terminate()
                proc.join(join)
        self.arena.close()


def _lease_key(n: int, start_method: str) -> tuple:
    """What a parked world must match: workers inherit the environment
    (``native.py`` reads ``REPRO_*`` on every call) and the native
    quarantine at fork, so both select the world."""
    env = tuple(sorted(
        (k, v) for k, v in os.environ.items() if k.startswith("REPRO_")
    ))
    quarantined = frozenset(
        name for name, entry in backend_health().items()
        if entry["quarantined"]
    )
    return (n, start_method, env, quarantined)


class _Pool:
    """This process's parked worlds, leased one run at a time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._parked: list[_World] = []

    def lease(self, n: int, start_method: str) -> _World:
        key = _lease_key(n, start_method)
        with self._lock:
            world = next(
                (w for w in reversed(self._parked) if w.key == key), None
            )
            if world is not None:
                self._parked.remove(world)
        if world is not None:
            if world.alive():
                return world
            world.close()  # a worker died while parked
        return _World(key, n, start_method)

    def release(self, world: _World) -> None:
        with self._lock:
            self._parked.append(world)
            evicted = []
            while (len(self._parked) > 1
                   and sum(w.n for w in self._parked) > _MAX_PARKED):
                evicted.append(self._parked.pop(0))
        for w in evicted:
            w.close()

    def close(self) -> None:
        with self._lock:
            worlds, self._parked = self._parked, []
        for w in worlds:
            w.close()


_POOL = _Pool()
atexit.register(_POOL.close)


def _after_fork_in_child() -> None:
    # Any fork — our workers or a caller's — must neither hold our
    # workers' pipes open nor lease them.
    global _FORK_LOCK
    for conn in list(_PARENT_ENDS):
        conn.close()
    _PARENT_ENDS.clear()
    _FORK_LOCK = threading.Lock()
    _POOL.__init__()


os.register_at_fork(after_in_child=_after_fork_in_child)


# ---------------------------------------------------------------------
# parent driver
# ---------------------------------------------------------------------

def _charge_log(log: MessageLog, run: RunSetup) -> None:
    """Charge the run to ``log`` exactly as :class:`SimWorld` would.

    Record-for-record equivalent to the simulator executing the same
    partition/reduction (and, with ``first_m > 1``, the same *resumed*
    iteration range) — asserted by the differential tests, and the
    contract that keeps :mod:`repro.dist.network` pricing mp runs.  Halo
    messages move the profile's vector storage; reductions always move
    fp64 eta scalars, the final one :attr:`RunSetup.final_cols` columns.
    """
    itemsize = np.dtype(DTYPE).itemsize
    dist, r, every = run.dist, run.r, run.cfg.reduction == "every"

    def halo(phase: str) -> None:
        for block in dist.blocks:
            for src, cnt in zip(
                block.halo_sources.tolist(), block.halo_counts.tolist()
            ):
                log.add(src, block.rank, cnt * r * run.prec.s_vector, phase)

    if run.first_m == 1:
        halo("halo_init")
        if every:
            for _ in range(2):
                log_allreduce(log, dist.n_ranks, r * itemsize, "allreduce_iter")
    for _m in range(run.first_m, run.half):
        halo("halo")
        if every:
            for _ in range(2):
                log_allreduce(log, dist.n_ranks, r * itemsize, "allreduce_iter")
    if run.final_cols:
        log_allreduce(log, dist.n_ranks, run.final_cols * r * itemsize,
                      "allreduce_final")


def _expected_halo_acct(run: RunSetup) -> tuple[np.ndarray, np.ndarray]:
    """(messages, bytes) per source rank over the run's halo exchanges.

    A fresh run exchanges M/2 times (one bootstrap + M/2 − 1 loop
    iterations); a run resumed at ``first_m`` skips the bootstrap and
    the first ``first_m − 1`` loop exchanges; a segment bounded by
    ``stop_m`` stops its loop exchanges there.
    """
    msgs = np.zeros(run.dist.n_ranks, dtype=np.int64)
    nbytes = np.zeros(run.dist.n_ranks, dtype=np.int64)
    for (p, _q), rows in run.dist.pattern.send_rows.items():
        if rows.size:
            msgs[p] += 1
            nbytes[p] += rows.size * run.r * run.prec.s_vector
    n_exchanges = run.half - run.first_m + (1 if run.first_m == 1 else 0)
    return msgs * n_exchanges, nbytes * n_exchanges


def mp_eta(A, partition, scale, n_moments, start_block, world, **kwargs):
    """Multiprocess equivalent of :func:`repro.dist.kpm_parallel.distributed_eta`.

    Same signature and same result with a :class:`MpWorld` in place of
    the :class:`SimWorld` (bitwise per schedule; against the serial
    engines bitwise at fp64 with one worker and overlap off, to
    reduction-order tolerance otherwise); both worlds share one
    prologue.  The run controls are DESIGN §17's; here faults are real
    (a ``crash`` kills the worker) and ``progress`` fires with every
    checkpoint the parent captures, so it needs ``checkpoint_every > 0``.

    With a live ``counters`` or ``metrics``, every worker accumulates its
    own :class:`PerfCounters` / :class:`MetricsRegistry` and ships a JSON
    snapshot back through the ``obs`` shared array; the parent merges
    worker counters into ``counters`` (numeric totals then equal a serial
    run of the same problem) and worker metrics into ``metrics`` under a
    ``rank<p>.`` prefix — including one ``kernels.<family>`` count per
    run naming the kernels the rank ran.  The raw per-rank snapshots
    stay available as ``world.last_obs``.
    """
    if not isinstance(world, MpWorld):
        raise SimulationError(f"mp_eta needs an MpWorld, got {world!r}")
    return distributed_eta(A, partition, scale, n_moments, start_block, world,
                           **kwargs)


def run_mp(run: RunSetup, world: MpWorld) -> np.ndarray:
    """Execute a prepared run (:func:`~repro.dist.kpm_parallel.prepare_run`)
    on the parked workers of ``world``; returns eta (R, M)."""
    dist, prec, r, n_moments, ctx = (run.dist, run.prec, run.r,
                                     run.n_moments, run.ctx)
    counters, metrics = ctx.counters, ctx.metrics
    timeouts = world.timeouts
    names = _backend_names(world, run.cfg.backend)

    send_edges: list[list[tuple[int, np.ndarray]]] = [
        [] for _ in range(dist.n_ranks)
    ]
    for (p, q), rows in sorted(dist.pattern.send_rows.items()):
        if rows.size:
            send_edges[p].append((q, rows))

    want_obs = bool(counters.enabled or metrics.enabled)
    cfg = _RunConfig(
        a=run.a, b=run.b, n_moments=n_moments, r=r, timeouts=timeouts,
        want_obs=want_obs, first_m=run.first_m,
        exec=replace(run.cfg, backend="auto", rebalance=None,
                     membership=None), run=ctx.for_workers(),
        eta_grid=run.grid, stop_m=int(run.stop_m or 0),
    )

    # The run's shared arrays, carved from the world's resident arena.
    # Halo windows: task mode double-buffers each directed edge (slot
    # m % 2), signalled by the world's per-pair event slots.
    vec_dt = np.dtype(prec.vector_dtype).str
    vshape = prec.vec_shape(dist.n_global, r)
    n_slots = -(-dist.n_global // run.grid) if run.grid else world.n_ranks
    arrays = {"start": (vshape, vec_dt)}
    if run.ck is not None:
        arrays["rw"] = (vshape, vec_dt)
    arrays.update(
        eta=((n_slots, n_moments, r), DTYPE),
        acct=((world.n_ranks, _ACCT_COLS), "int64"),
        hb=((world.n_ranks,), "int64"),
        abort=((1,), "int64"),
    )
    if want_obs:
        arrays["obs"] = ((world.n_ranks, _OBS_BLOB_SIZE), "uint8")
    if ctx.checkpoint_every > 0:
        arrays.update(ckv=((2, *vshape), vec_dt), ckw=((2, *vshape), vec_dt),
                      ckst=((1,), "int64"))
    for p, edges in enumerate(send_edges):
        for q, rows in edges:
            wshape = prec.vec_shape(rows.size, r)
            arrays[f"w{p}_{q}"] = ((2, *wshape) if run.cfg.overlap else wshape,
                                   vec_dt)
    specs, nbytes = layout(arrays)

    live = _POOL.lease(world.n_ranks, world.start_method)
    world.last_pids = [proc.pid for proc in live.procs]
    world.last_checkpoint = None
    try:
        grown = live.arena.reserve(nbytes)
        world.last_segment_names = [live.arena.name]
        if grown is not None:
            live.map_arena(grown, timeouts.stall)
        sh = carve(live.arena.buf, specs)
        for key in ("eta", "acct", "hb", "abort", "ckst"):
            if key in sh:
                sh[key][...] = 0
        if want_obs:
            sh["obs"][:, :8] = 0  # no blob shipped yet
        live.abort_flag = sh["abort"]
        start, start_block = sh["start"], run.start_block
        if run.ck is not None:
            start[...] = run.ck.v
            sh["rw"][...] = run.ck.w
        elif start_block.dtype == np.float16 or prec.is_fp64:
            start[...] = start_block
        elif prec.half_vectors:
            prec.encode(start_block, out=start)
        else:
            start[...] = start_block.astype(prec.vector_dtype)
        eta_shared = sh["eta"]
        captured = 0  # the last state word captured

        def autosave() -> None:
            # A stable read of the published checkpoint slot: the state
            # word is sampled before and after the copy, which is dropped
            # when a newer state landed meanwhile (its own note triggers
            # the next capture).  The eta prefix [:, :2·next_m] is final
            # once published, so summing it while the workers fill later
            # columns is safe.  Repeats are skipped, so every save and
            # stream carries a strictly longer prefix.
            nonlocal captured
            state = int(sh["ckst"][0]) if ctx.checkpoint_every else 0
            if state <= captured:
                return
            next_m, slot = divmod(state, 2)
            v, w = sh["ckv"][slot].copy(), sh["ckw"][slot].copy()
            eta = run.splice(eta_shared, 2 * next_m, n_moments)
            if int(sh["ckst"][0]) != state:
                return
            captured = state
            world.last_checkpoint = saved = run.state(v, w, eta, next_m)
            ctx.save(saved)
            ctx.stream(2 * next_m, eta)

        live.send_run(cfg, specs, names, dist, send_edges)
        replies, hb_last, stalled, timed_out = live.collect(
            sh["hb"], timeouts, autosave
        )
        # One last capture salvages any checkpoint published after the
        # final note (or, on failure, the state the supervisor will
        # resume from).
        autosave()

        kinds = [replies.get(p, ("dead",))[0] for p in range(world.n_ranks)]
        if stalled or timed_out or kinds != ["done"] * world.n_ranks:
            live.close(timeouts.join)  # reaped: exit codes are final
            codes = {"done": 0, "fail": 1, "broken": 2}
            raise _worker_failure(
                [(p, *replies[p][1:]) for p, k in enumerate(kinds)
                 if k == "fail"],
                [codes.get(k, proc.exitcode)
                 for k, proc in zip(kinds, live.procs)],
                stalled, timed_out, hb_last, timeouts, world.last_checkpoint,
            )

        world.last_acct = sh["acct"].copy()
        obs_snaps: list[dict | None] = []
        if want_obs:
            obs_snaps = [
                _unpack_obs_blob(sh["obs"][p]) for p in range(world.n_ranks)
            ]
        # the single deferred reduction (a resumed prefix spliced in)
        eta = run.splice(eta_shared, n_moments, n_moments)

        exp_msgs, exp_bytes = _expected_halo_acct(run)
        if not (
            np.array_equal(world.last_acct[:, 0], exp_msgs)
            and np.array_equal(world.last_acct[:, 1], exp_bytes)
        ):
            raise SimulationError(
                "halo accounting mismatch: workers moved "
                f"{world.last_acct[:, 1].tolist()} bytes, pattern predicts "
                f"{exp_bytes.tolist()}"
            )
    except BaseException:
        live.close(timeouts.join)
        raise
    live.abort_flag = None
    live.arena.evict()
    _POOL.release(live)

    if want_obs:
        world.last_obs = obs_snaps
        for p, snap in enumerate(obs_snaps):
            if snap is None:
                raise SimulationError(
                    f"rank {p} finished without shipping its observability "
                    "snapshot"
                )
            counters.merge(PerfCounters.from_dict(snap["counters"]))
            metrics.merge_snapshot(snap["metrics"], prefix=f"rank{p}.")

    _charge_log(world.log, run)
    return eta


def _worker_failure(
    errors: list[tuple[int, str, str]],
    exit_codes: list[int | None],
    stalled: bool,
    timed_out: bool,
    heartbeats: np.ndarray,
    timeouts: MpTimeouts,
    salvaged: KpmCheckpoint | None,
) -> WorkerFailure:
    """Assemble the structured failure for a dead/wedged world.

    ``exit_codes`` per rank: 0 finished, 1 raised (its message is in
    ``errors``), 2 broke off when a peer failed; anything else is the
    exit status of a process that died or had to be terminated.
    """
    faults: list[WorkerFault] = []
    details: list[str] = []
    errored = set()
    for rank, kind, msg in errors:
        errored.add(rank)
        faults.append(WorkerFault(
            rank=rank, kind="stall" if kind == "stall" else "exception",
            detail=msg,
        ))
        details.append(f"rank {rank}: {msg}")
    dead = [
        i for i, c in enumerate(exit_codes)
        if c not in (0, 2) and i not in errored
    ]
    if dead:
        for i in dead:
            faults.append(WorkerFault(
                rank=i, kind="death", exit_code=exit_codes[i],
                detail=f"died with exit code {exit_codes[i]}",
            ))
        details.append(
            f"worker(s) {dead} died with exit codes "
            + str([exit_codes[i] for i in dead])
        )
    if stalled:
        suspect = int(np.argmin(heartbeats))
        faults.append(WorkerFault(
            rank=suspect, kind="stall",
            detail=f"no heartbeat progress within {timeouts.stall:.1f}s",
        ))
        details.append(
            f"no heartbeat progress within {timeouts.stall:.1f}s "
            f"(slowest: rank {suspect})"
        )
    if timed_out:
        faults.append(WorkerFault(
            rank=int(np.argmin(heartbeats)), kind="timeout",
            detail=f"run deadline of {timeouts.run:.1f}s expired",
        ))
        details.append(f"no progress within {timeouts.run:.0f}s")
    if not details:  # pragma: no cover - defensive
        details.append("unknown worker failure")
    return WorkerFailure(
        "multiprocess KPM run failed: " + "; ".join(details),
        failures=faults,
        resume_m=salvaged.next_m if salvaged is not None else None,
    )
