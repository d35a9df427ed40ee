"""True multiprocess shared-memory KPM execution engine.

Where :class:`repro.dist.comm.SimWorld` *simulates* the paper's
data-parallel scheme in one process, this module runs the same rank
program (:mod:`repro.core.recurrence`) in real OS processes, over the
shared-memory transport: every rank is a worker
(``multiprocessing.Process``) that owns a contiguous weighted row block
(:mod:`repro.dist.partition`), drives one :class:`repro.core.recurrence.
Recurrence` on it with its own kernel backend, and meets its neighbours
through sequence words in shared memory.

One persistent world (paper Section VI-A: the ranks live for the whole
run).  :class:`MpWorld` is a cheap handle; its runs lease a *parked*
world from a process-wide pool keyed by (worker count, start method,
``REPRO_*`` environment, native-backend quarantine set) and return it
after a clean run.  A worker loops: receive a run, run the rank program,
reply.  Between runs it keeps its rank block (shipped once per operator
partition, see :func:`~repro.dist.halo.partition_matrix`'s memo) and its
recurrence with the kernel plans.  Nothing but the control pipe is
created at fork.  Workers exit when their control pipe reaches EOF:
:meth:`MpWorld.close`, interpreter exit, or the parent's death.

Communication structure (paper Section VI-A, mapped onto one node):

* each world owns one shared-memory arena (:mod:`repro.dist.shm`),
  mapped by every rank and ``shm_unlink``\\ ed as soon as they all have
  it; each run carves from it every rank's two full-height
  ``[local | halo]`` kernel inputs (``nu_m`` in buffer ``m % 2``), into
  which the parent seeds the start block and the peers pack their
  halos — the exchange's one copy ("only the elements which need to be
  transferred are copied");
* synchronisation is monotonic int64 *sequence words* in the arena:
  vector mode passes one word barrier per iteration (a pack targets the
  parity every peer finished reading one iteration earlier); task mode
  (``overlap=True``, Section VII's pipelining outlook) has a ``ready``
  and a ``done`` word per directed edge — a rank packs iteration ``m``
  once the peer consumed ``m − 2``, computes its **interior** rows
  (the halo-free eta blocks of :func:`repro.dist.overlap.task_split`)
  while the exchange is in flight, then waits for its incoming tails
  and finishes the **boundary** rows; the phases' bins add exactly;
* every wait is one poll loop (core yields, then naps up to 1 ms) that
  reads the abort word and :attr:`MpTimeouts.barrier` only while its
  condition does not hold; a full fence orders halo bytes and words;
* per-rank eta bins (DESIGN §19) accumulate in a shared
  ``(P, M/2, 2, 3R)`` array and are reduced **once** after the workers
  report — the single deferred global reduction of Section II;
  ``reduction='every'`` passes the barrier and sums every iteration
  (the Table III ``aug_spmmv()*`` ablation).

Accounting: each worker records its own
:class:`~repro.dist.comm.MessageLog` as its program packs halos and
takes its share of each reduction, and ships it with its reply; the
parent checks the halo volume against the communication pattern and
merges the logs in rank order, as the simulator does — so the network
cost model prices real runs, and a worker that skipped a pack is
caught.

Failure model: any worker exception (or hard death) sets the shared
abort word, which ends every peer's wait; the parent tears the whole
world down (the next lease forks a fresh one) and raises a structured
:class:`~repro.util.errors.WorkerFailure` (a ``SimulationError``) — no
hang, no leaked ``/dev/shm`` entry (asserted by the test suite).
Liveness is supervised by a shared *heartbeat* array each worker bumps
every iteration: the parent, asleep on the workers' pipes and process
sentinels, wakes to check it and declares the world wedged when no
heartbeat advances within :attr:`MpTimeouts.stall`.  A worker whose
parent died abandons its run at the next iteration.

Captures (DESIGN §17): where a stream or a checkpoint is due, the ranks
pass the word barrier and rank 0 sends one note, which the **parent** —
surviving worker crashes — takes in order (:meth:`~repro.core.
checkpoint.Run.capture`).  Checkpoint k's ``(v, w)`` goes to shared slot
k % 2 once the parent's *capture word* says it took checkpoint k − 2, so
a slot is intact when the parent copies it (``MpWorld.last_checkpoint``).

Elastic boundaries (:mod:`repro.dist.elastic`): one iteration ahead,
each rank sends its busy seconds on its control pipe; the parent
answers each once all asked — ``keep``, or the new partition's
offsets.  At a re-slice every rank hands
its rows of the operator into the arena, cuts its new block from it
(its buffers are N rows high: any block fits) and goes on in the same
run.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import wait

import numpy as np

from repro.core.checkpoint import KpmCheckpoint
from repro.core.recurrence import (Recurrence, Schedule, rank_program,
                                   to_storage)
from repro.dist.comm import MessageLog
from repro.dist.halo import DistributedMatrix, RankBlock, partition_matrix
from repro.dist.kpm_parallel import (RankState, RunSetup, buffer_layout,
                                    rank_piece, send_edges)
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition
from repro.dist.shm import ShmArena, carve, layout
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import MemoryTrace
from repro.sparse.backend import KernelBackend, backend_health
from repro.sparse.csr import CSRMatrix
from repro.util.errors import SimulationError, WorkerFailure, WorkerFault
from repro.util.knobs import ExecConfig
from repro.util.validation import check_positive

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
        Seconds any worker may wait on a peer — a halo tail, a drained
        slot, a barrier — before declaring its peers gone (a wait on
        the parent lasts as long as the parent lives).
    join:
        Seconds the parent gives the workers to report (and then to
        exit) after an abort before escalating to ``terminate()``.
    stall:
        Heartbeat window: the parent tears the world down when *no*
        worker's per-iteration heartbeat advances for this long, the
        parent's own time in its capture hooks not counted.  This
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


class MpWorld:
    """A communicator of ``n_workers`` real OS processes.

    Drop-in peer of :class:`~repro.dist.comm.SimWorld` for the
    distributed drivers: :func:`repro.dist.kpm_parallel.distributed_eta`
    (and everything built on it) dispatches on the world type, so
    ``distributed_eta(..., world=MpWorld(4))`` runs the rank programs in
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
        #: per-rank sink snapshots of the most recent run
        #: (:meth:`~repro.obs.MetricsRegistry.snapshot` dicts); None
        #: until a run with a live sink completes.
        self.last_obs: list[dict | None] | None = None
        #: the last checkpoint the parent took from shared memory in the
        #: most recent run; None when the run did not checkpoint.
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
    r: int
    timeouts: MpTimeouts
    want_obs: bool
    want_trace: bool
    #: threads/overlap resolved for the world; the backend is per rank
    #: and the elastic knobs are the parent's business
    exec: ExecConfig
    #: the rank program's schedule, by the run controls' slice the ranks
    #: run by (RunContext.for_workers)
    sched: Schedule


# ---------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------

def _worker(rank: int, conn) -> None:
    """One parked rank (module-level: spawn-picklable).

    Serves the parent until its control pipe reaches EOF: ``map``
    attaches the world's (grown) arena, ``run`` runs the rank program once
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
            backend_name, cfg,
        )
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            break
    if seg is not None:
        seg.close()


#: A waiting rank yields its core this many times before it naps (20 µs,
#: doubling to 1 ms): a peer on another core arrives within microseconds,
#: an oversubscribed one needs this core.
_SPINS = 64


class _PeerGone(Exception):
    """A wait ended by the abort word or the wait timeout."""


class _Shm:
    """One worker's shared-memory transport: monotonic int64 sequence
    words in the arena — a barrier word per rank, a ``ready`` (last
    iteration packed, plus one) and a ``done`` (last consumed, plus one)
    word per directed edge — the heartbeat and abort words and the
    parent's capture word.  Per iteration a vector-mode rank passes one
    word barrier; a task-mode rank waits on its edges' words only.  At a
    re-slice ``reslice(offsets)`` hands the rank's operator rows in and
    returns the call that cuts its next block once every rank has."""

    def __init__(self, rank: int, conn, ppid: int, att: dict,
                 timeout: float, reslice=None) -> None:
        self.rank, self.conn, self.ppid, self.timeout, self.reslice = \
            rank, conn, ppid, timeout, reslice
        self.abort, self.hb, self.cap, self.bar = \
            att["abort"], att["hb"], att.get("cap"), att["bar"]
        self.ready, self.done = att["seq"]
        self.passed = 0  # barriers this rank passed in this run
        self._lock = threading.Lock()

    def _fence(self) -> None:
        # An uncontended lock acquire/release is a full fence: halo bytes
        # are ordered against the words that announce them on any memory
        # model, not only under x86 TSO.
        with self._lock:
            pass

    def _signal(self, words: np.ndarray, at, value: int) -> None:
        self._fence()
        words[at] = value

    def _wait(self, ok, parent: bool = False) -> None:
        """Return once ``ok()`` holds.  A wait whose condition holds
        never looks at the abort word, so a peer failing right after it
        arrived cannot void work both already did.  A wait on the
        ``parent`` lasts as long as the parent lives, however long its
        hooks take; a wait on a peer, :attr:`MpTimeouts.barrier`."""
        if not ok():
            deadline, polls, nap = time.monotonic() + self.timeout, 0, 2e-5
            while not ok():
                gone = os.getppid() != self.ppid if parent else \
                    time.monotonic() > deadline
                if self.abort[0] or gone:
                    if ok():
                        break
                    raise _PeerGone
                polls += 1
                if polls <= _SPINS:
                    os.sched_yield()
                else:
                    time.sleep(nap)
                    nap = min(2 * nap, 1e-3)
        self._fence()

    def exchange(self) -> None:
        self.passed += 1
        n = self.passed
        self._signal(self.bar, self.rank, n)
        self._wait(lambda: self.bar.min() >= n)

    reduce = exchange

    @contextmanager
    def post(self, q: int, m: int):
        # parity m % 2 of q is free once q consumed iteration m - 2
        self._wait(lambda: self.done[self.rank, q] >= m - 1)
        yield
        self._signal(self.ready, (self.rank, q), m + 1)

    def complete(self, src: int, m: int) -> None:
        self._wait(lambda: self.ready[src, self.rank] > m)

    def release(self, src: int, m: int) -> None:
        self._signal(self.done, (src, self.rank), m + 1)

    def claim(self, j: int) -> None:
        self._wait(lambda: self.cap[0] >= j - 2, parent=True)

    def publish(self, m: int, k: int) -> None:
        # past the barrier every rank's bins (and slot rows) are in place
        self.exchange()
        if self.rank == 0:
            self.conn.send(("pub", m, k))

    def probe(self) -> None:
        if os.getppid() != self.ppid:
            raise SimulationError("the parent process is gone")
        self.hb[self.rank] += 1

    def ask(self, m: int, busy: float) -> None:
        self.conn.send(("busy", m, self.rank, busy))

    def answer(self, m: int):
        # the parent answers once every rank asked: an iteration ago
        self._wait(lambda: self.conn.poll(1e-3), parent=True)
        msg = self.conn.recv()
        if msg[0] == "keep":
            return None
        # new links: as if every earlier iteration was packed and consumed
        # (no peer reads the words before the re-slice's last barrier)
        self.ready[self.rank, :] = m
        self.done[:, self.rank] = m
        return self.reslice(msg[1])


def _run_rank(
    rank: int,
    conn,
    ppid: int,
    blk: RankBlock,
    edges: list[tuple],
    recs: dict[tuple, Recurrence],
    att: dict[str, np.ndarray],
    backend_name: str,
    cfg: _RunConfig,
) -> tuple:
    """One rank's program for one run; returns the parent's reply — with
    the rank's message log when it finished."""
    try:
        # The worker's own sink: the parent's cannot cross the process
        # boundary, so each worker records privately and ships one
        # snapshot back with its reply.
        sink = MetricsRegistry(MemoryTrace() if cfg.want_trace else None) \
            if cfg.want_obs else NULL_METRICS

        def recurrence(blk: RankBlock) -> Recurrence:
            return Recurrence(
                blk.matrix, cfg.a, cfg.b, cfg.r,
                split=task_split(blk) if cfg.exec.overlap else None,
                config=replace(cfg.exec, backend=backend_name), sink=sink,
            )

        # The block's recurrences and kernel plans outlive the run: a
        # parked worker rebinds one to the next run's scale and sinks.
        key = (backend_name, cfg.r, cfg.exec)
        rec = recs.pop(key, None)
        if rec is None:
            rec = recurrence(blk)
        else:
            rec.rebind(cfg.a, cfg.b, sink)
        recs[key] = rec  # most recently used last
        while len(recs) > _MAX_RECS:
            recs.pop(next(iter(recs)))
        rows, rec, links, bufs = rank_piece(blk, edges, att, rec)
        sink.count(f"kernels.{rec.kernel_family}")
        sched = cfg.sched
        # the parent seeded nu_0 (or the resumed pair) into the buffers
        rec.load(None, anchors=sched.anchors, bufs=bufs,
                 m=0 if sched.first_m == 1 else sched.first_m)
        s = RankState(
            rank, rec, rows, att["bins"], *links,
            (att["ckv"], att["ckw"]) if "ckv" in att else None,
            sched.ctx.injector(rank, in_process=False) or None, sink,
        )

        held = [blk]  # the block this rank holds

        def reslice(offsets):
            # An elastic re-slice: this rank hands its rows of the
            # operator, in global columns, into the arena's copy of it;
            # past the program's staging barrier every rank has, and
            # ``take`` cuts the next block from a fresh view of the copy
            # (the other ranks' blocks die with it).
            b = held[0]
            at, nnz = att["Ap"][b.row_start], b.matrix.nnz
            cols = np.concatenate((np.arange(b.row_start, b.row_stop),
                                   b.halo_global))
            att["Aj"][at:at + nnz] = cols[b.matrix.indices]
            att["Ax"][at:at + nnz] = b.matrix.data

            def take() -> tuple:
                n = att["Ap"].size - 1
                dist = partition_matrix(CSRMatrix(
                    att["Ap"], att["Aj"], att["Ax"], (n, n), validate=False),
                    RowPartition(offsets))
                held[0] = new = dist.blocks[rank]
                return (*rank_piece(new, send_edges(dist)[rank], att,
                                    recurrence(new)), offsets)
            return take

        t = _Shm(rank, conn, ppid, att, cfg.timeouts.barrier, reslice)
        for _ in rank_program(s, sched, t):
            pass

        return ("done", s.log.records,
                sink.snapshot() if cfg.want_obs else None)
    except _PeerGone:
        return ("broken",)  # a peer failed; the parent reports the cause
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        att["abort"][0] = 1  # unblock every waiting peer
        kind = getattr(exc, "kind", None) or "exception"
        # an escaped spectrum travels whole: the parent re-raises it
        return ("fail", kind,
                exc if kind == "scale" else f"{type(exc).__name__}: {exc}")


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
    """``n`` parked workers, the arena they mapped, and the rank blocks
    they hold."""

    def __init__(self, key: tuple, n: int, start_method: str) -> None:
        ctx = multiprocessing.get_context(start_method)
        self.key, self.n = key, n
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
                            args=(rank, theirs),
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
                 dist: DistributedMatrix, edges: list) -> None:
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
                shipped = (blk, edges[rank])
            held[token] = None  # most recently used last
            while len(held) > _MAX_BLOCKS:
                drop.append(next(iter(held)))
                del held[drop[-1]]
            conn.send(("run", cfg, specs, names[rank], token, shipped, drop))

    def collect(self, hb: np.ndarray, timeouts: MpTimeouts, notes: dict):
        """Wait for every rank's reply to the run just sent.

        Sleeps on the control pipes and process sentinels; a rank's note
        (``pub``, ``busy``) calls its handler in ``notes``, in the order
        sent — a dead rank's pipe is read to its end first.  Every
        wake-up — at the latest four times per stall window — samples
        the heartbeats and the whole-run deadline; the parent's own time
        in the handlers is not a stall.  The first failure, death, stall
        or timeout aborts the run; peers then get ``timeouts.join``
        seconds to report before the silent ones are terminated.
        Returns ``(replies, heartbeats, stalled, timed_out)``; a rank
        without a reply died or was terminated.
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
            for obj in wait(list(waiting), max(0.0, until - time.monotonic())):
                rank = waiting.get(obj)
                if rank is None:
                    continue  # settled earlier in this wake-up
                conn, msg = self.conns[rank], ("dead",)
                if obj is conn:
                    try:
                        msg = obj.recv()
                    except (EOFError, OSError):
                        pass
                    if msg[0] in notes:
                        t0 = time.monotonic()
                        notes[msg[0]](*msg[1:])
                        hb_t += time.monotonic() - t0  # the parent's time
                        continue
                elif conn.poll():
                    continue  # a dead rank's last notes go first
                replies[rank] = msg
                del waiting[self.conns[rank]], waiting[self.procs[rank].sentinel]
                if msg[0] != "done" and abort_at is None:
                    self.abort()
                    abort_at = time.monotonic()
            now = time.monotonic()
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
        # every waiting worker polls the shared abort word
        if self.abort_flag is not None:
            self.abort_flag[0] = 1

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

def run_mp(run: RunSetup, world: MpWorld) -> np.ndarray:
    """Execute a run :func:`~repro.dist.kpm_parallel.run_distributed`
    prepared on the parked workers of ``world``; returns eta (R, M).

    What :func:`~repro.dist.kpm_parallel.distributed_eta` on an
    :class:`MpWorld` runs.  Faults are real here (a ``crash`` kills the
    worker).  Each worker ships its message log with its reply and,
    with a live sink, one snapshot of its own; the parent merges the
    logs in rank order and the
    snapshots under a ``rank<p>.`` prefix (timers, traffic — whose fold
    then equals a serial run's — one ``kernels.<family>`` count per run
    and, when the sink has a trace, the worker's span records).  The raw
    snapshots stay on ``world.last_obs``."""
    dist, prec, r, n_moments, ctx = (run.dist, run.prec, run.r,
                                     run.n_moments, run.ctx)
    timeouts = world.timeouts
    names = _backend_names(world, run.cfg.backend)

    elastic = run.elastic is not None
    want_obs = ctx.sink.enabled
    cfg = _RunConfig(
        a=run.a, b=run.b, r=r, timeouts=timeouts, want_obs=want_obs,
        want_trace=ctx.sink.trace is not None,
        exec=replace(run.cfg, backend="auto", rebalance=None,
                     membership=None),
        sched=run.schedule(),
    )

    # The run's shared arrays, carved from the world's resident arena:
    # each rank's two [local | halo] buffers, which its peers pack their
    # halos into, and the sequence words that order those packs.
    p_n = world.n_ranks
    arrays = buffer_layout(dist, r, prec, elastic)
    arrays.update(
        bins=((p_n, n_moments // 2, 2, 3 * r), "float64"),
        hb=((p_n,), "int64"), abort=((1,), "int64"),
        bar=((p_n,), "int64"), seq=((2, p_n, p_n), "int64"),
    )
    if ctx.checkpoint_every > 0 or elastic:
        vshape = prec.vec_shape(2, dist.n_global, r)
        arrays.update(ckv=(vshape, prec.vector_dtype),
                      ckw=(vshape, prec.vector_dtype), cap=((1,), "int64"))
    if elastic:
        op = run.elastic.A
        arrays.update(Ap=(op.indptr.shape, "int64"),
                      Aj=(op.indices.shape, op.indices.dtype.name),
                      Ax=(op.data.shape, op.data.dtype.name))
    specs, nbytes = layout(arrays)
    # nu_0 goes into buffer 0, a resumed (nu_{m0-1}, nu_m0) into buffers
    # (m0 - 1) % 2 and m0 % 2
    m0 = 0 if run.ck is None else run.first_m
    seeds = [(run.start_block, 0)] if run.ck is None else \
        [(run.ck.v, (m0 - 1) % 2), (run.ck.w, m0 % 2)]

    live = _POOL.lease(world.n_ranks, world.start_method)
    world.last_pids = [proc.pid for proc in live.procs]
    world.last_checkpoint = None
    try:
        grown = live.arena.reserve(nbytes)
        world.last_segment_names = [live.arena.name]
        if grown is not None:
            live.map_arena(grown, timeouts.stall)
        sh = carve(live.arena.buf, specs)
        for key in ("bins", "hb", "abort", "bar", "cap"):
            if key in sh:
                sh[key][...] = 0
        sh["seq"][...] = m0  # as if every earlier iteration was consumed
        live.abort_flag = sh["abort"]
        if elastic:  # the ranks hand their operator rows in at a re-slice
            sh["Ap"][...] = op.indptr
        for blk in dist.blocks:
            rows = slice(blk.row_start, blk.row_stop)
            for block, j in seeds:
                to_storage(block[rows], prec,
                           out=sh[f"x{blk.rank}"][j, :blk.n_local])
        bins, fence = sh["bins"], threading.Lock()

        def publish(m: int, k: int) -> None:
            # slot k % 2 is the parent's until the capture word reads k
            run.capture(m, k, bins, lambda: (sh["ckv"][k % 2].copy(),
                                             sh["ckw"][k % 2].copy()), world)
            if k:
                with fence:  # the copies are read before the word is out
                    pass
                sh["cap"][0] = k

        asked: dict[int, float] = {}  # rank -> busy seconds

        def ask(m: int, rank: int, busy: float) -> None:
            # once every rank asked about boundary m, answer them all (no
            # rank asks about the next one before it has its answer)
            asked[rank] = busy
            if len(asked) < p_n:
                return
            new = run.elastic(m, [asked.pop(p) for p in range(p_n)])
            msg = ("keep",) if new is None else ("reslice", new.offsets)
            for conn in live.conns:
                try:
                    conn.send(msg)
                except OSError:  # a dead rank: collect reports it
                    pass

        live.send_run(cfg, specs, names, dist, send_edges(dist))
        replies, hb_last, stalled, timed_out = live.collect(
            sh["hb"], timeouts, {"pub": publish, "busy": ask}
        )

        kinds = [replies.get(p, ("dead",))[0] for p in range(world.n_ranks)]
        if stalled or timed_out or kinds != ["done"] * world.n_ranks:
            live.close(timeouts.join)  # reaped: exit codes are final
            for p, k in enumerate(kinds):
                if k == "fail" and replies[p][1] == "scale":
                    raise replies[p][2]
            codes = {"done": 0, "fail": 1, "broken": 2}
            raise _worker_failure(
                [(p, *replies[p][1:]) for p, k in enumerate(kinds)
                 if k == "fail"],
                [codes.get(k, proc.exitcode)
                 for k, proc in zip(kinds, live.procs)],
                stalled, timed_out, hb_last, timeouts, world.last_checkpoint,
            )

        # the single deferred reduction (a resumed prefix spliced in)
        eta = run.splice(bins, n_moments)
        run.record(world, [MessageLog(replies[p][1])
                           for p in range(world.n_ranks)])
    except BaseException:
        live.close(timeouts.join)
        raise
    live.abort_flag = None
    live.arena.evict()
    _POOL.release(live)

    if want_obs:
        world.last_obs = [replies[p][2] for p in range(world.n_ranks)]
        for p, snap in enumerate(world.last_obs):
            ctx.sink.merge_snapshot(snap, prefix=f"rank{p}.")

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
    dead = [i for i, c in enumerate(exit_codes)
            if c not in (0, 2) and i not in errored]
    faults += [WorkerFault(rank=i, kind="death", exit_code=exit_codes[i],
                           detail=f"died with exit code {exit_codes[i]}")
               for i in dead]
    if dead:
        details.append(f"worker(s) {dead} died with exit codes "
                       f"{[exit_codes[i] for i in dead]}")
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
