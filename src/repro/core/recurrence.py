"""The rank-local Chebyshev recurrence and the one program that drives it.

The whole paper is one loop, Eq. (3),

    nu_1 = a (H - b) nu_0,      nu_{m+1} = 2 a (H - b) nu_m - nu_{m-1},

whose body Figs. 3-5 swap from naive to ``aug_spmv`` to ``aug_spmmv``.
:class:`Recurrence` owns that loop body and its state for one rank: the
two live vectors ``(v, w)``, the kernel workspace plan, and every
storage-profile branch (the fp16v decode pass included).  The operator
is the rank's rectangular ``[local | halo]`` block, so a serial run is
simply the one-rank, empty-halo case.  Either way the kernel input *is*
``v``: a rank keeps its iterates in two full-height buffers, so a step
never copies a vector.

:func:`rank_program` is the loop, written once: paper Section VI-A's
MPI+X rank over a *transport*.  Every engine runs it — a serial solve
(the stage-0/1 ablation: once per column) as one rank with no peers, the
sim world as P ranks in lock-step in this process, the mp world one per
worker process.  The scalar products come out as the one eta
reduction's bins (DESIGN §19), which the engine sums over its ranks
(exactly) and folds; a spectrum escaping the scale raises
:class:`~repro.util.errors.SpectralScaleError` here, in every engine.

State convention between calls: ``v = nu_m`` and ``w = nu_{m+1}`` (the
newest iterate), exactly the pair a :class:`~repro.core.checkpoint.
KpmCheckpoint` stores — and all an elastic rank hands over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import get_backend
from repro.sparse.fused import _recombine
from repro.util.errors import SpectralScaleError
from repro.util.knobs import ExecConfig
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_positive


def check_moments(n_moments: int) -> None:
    """Raise unless ``n_moments`` is an even integer >= 2."""
    check_positive("n_moments", n_moments)
    if n_moments % 2 != 0 or n_moments < 2:
        raise ValueError(
            f"n_moments must be an even integer >= 2 (the recurrence yields "
            f"two moments per iteration), got {n_moments}"
        )


def to_storage(block: np.ndarray, prec: Precision,
               out: np.ndarray | None = None) -> np.ndarray:
    """C-contiguous copy of ``block`` in the profile's storage (``out``).

    Complex input is narrowed (for fp64 just copied, once); float16
    input already is (re, im) pair storage and is copied as is.
    """
    if prec.half_vectors and block.dtype != np.float16:
        return prec.encode(block, out=out)
    if out is None:
        return np.array(block, dtype=prec.vector_dtype, order="C")
    np.copyto(out, block, casting="unsafe")
    return out


class Recurrence:
    """State and kernels of the three-term recurrence on one rank.

    Parameters
    ----------
    A:
        The rank-local operator (CSR or SELL): ``n_rows`` local rows over
        ``n_cols = n_local + n_halo`` columns.  Square means no halo.
    a, b:
        The spectral map; the kernels apply ``a (H - b)`` on the fly.
    r:
        Block width R (1 for the single-vector kernels).
    kernel:
        ``'aug_spmmv'`` (block vectors, paper Fig. 5), or one of the
        single-vector stages ``'aug_spmv'`` (Fig. 4) / ``'naive'``
        (Fig. 3), which run on 1-D vectors with ``r == 1``.
    split:
        Optional interior/boundary execution split (the shape of
        :class:`repro.dist.overlap.TaskSplit`).  The fused step then runs
        as two phases — :meth:`interior` needs only the local part of
        :attr:`x`, so an engine can overlap it with its halo exchange —
        whose bins add exactly.
    sink:
        The run's one measurement sink (:class:`~repro.obs.
        MetricsRegistry`): every kernel call's span and Table-I charge.
    config / knobs:
        The :class:`~repro.util.knobs.ExecConfig` whose ``backend``,
        ``precision``, ``threads`` and ``simd`` select the kernels; this
        is where the execution knobs meet the kernel plan.
    """

    def __init__(
        self,
        A,
        a: float,
        b: float,
        r: int,
        *,
        kernel: str = "aug_spmmv",
        split=None,
        sink: MetricsRegistry = NULL_METRICS,
        config: ExecConfig | None = None,
        **knobs,
    ) -> None:
        cfg = ExecConfig.of(config, knobs)
        self.A = A
        self.a, self.b = a, b
        self.prec = prec = get_precision(cfg.precision)
        self._bk = bk = get_backend(cfg.backend)
        self.sink = sink
        kw = dict(precision=prec, threads=cfg.kernel_threads(work=A.nnz * r),
                  simd=cfg.simd)
        self._plan = plan = bk.plan(A, r, split=split, **kw)
        single = kernel != "aug_spmmv"
        self._apply = bk.spmv if single else bk.spmmv
        # every stage leaves its bins on the plan, unfolded
        self._kernel = {
            "naive": bk._naive,
            "aug_spmv": partial(bk._step, "aug_spmv"),
            "aug_spmmv": partial(bk._step, "aug_spmmv"),
        }[kernel]
        # the plan's scratch in this mode's shape (1-D vector / 2-D block)
        self._u, self._work = (
            (plan.u, plan.work) if single else (plan.u_block, plan.work_block)
        )
        if prec.half_vectors:
            self._vc, self._wc, self._uh = (
                (plan.vc[:, 0], plan.wc[:, 0], plan.uh) if single
                else (plan.vc, plan.wc, plan.uh_block)
            )
        self._bins = np.empty((2, 3 * r))
        self.m = 0  # the inner iteration whose moments come next
        self._xs = None  # the full-height buffers of (v, w), if any
        self._partial = False  # the interior phase ran, boundary pending
        self.v = self.w = None

    def rebind(self, a: float, b: float,
               sink: MetricsRegistry = NULL_METRICS) -> None:
        """Reuse the plans for another run: a new spectral map and sink.

        A parked mp worker keeps its rank's recurrence between solves;
        :meth:`load` then installs the new run's vectors.
        """
        self.a, self.b = a, b
        self.sink = sink
        self._partial = False

    @property
    def kernel_family(self) -> str:
        """The kernels this recurrence runs (``numpy``, ``native_simd``,
        ``native_scalar``): resolved when its plan was built."""
        return self._bk.kernel_family(self._plan)

    # -- state ---------------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """The kernel input ``[v | halo]``; engines fill ``x[n_rows:]``."""
        return self.v if self._xs is None else self._xs[0]

    def load(self, v: np.ndarray | None, w: np.ndarray | None = None, *,
             anchors: np.ndarray | None = None, m: int = 0,
             bufs=None) -> None:
        """Install ``nu_0`` — or a checkpointed ``(nu_m, nu_{m+1})`` pair
        whose next inner iteration is ``m``.

        Both are copied into storage-dtype arrays, so the caller's blocks
        are never written and a resumed run streams exactly the bytes the
        interrupted one held: private ones, or a distributed rank's
        ``bufs`` — its two full-height ``[local | halo]`` kernel inputs,
        ``nu_j`` in ``bufs[j % 2]`` (``v = None``: the engine seeded
        them).  ``anchors`` are the run's eta anchors, put on the kernel
        plan; the default, the backend's :func:`~repro.sparse.fused.
        eta_anchors` of ``v``, is right only for a whole ``nu_0`` (a rank
        slice or a resumed pair needs the run's).
        """
        prec, n = self.prec, self.A.n_rows
        if bufs is None:
            self._xs = None
            self.v = to_storage(v, prec)
            self.w = None if w is None else to_storage(w, prec)
        else:
            j = max(m - 1, 0)  # v = nu_j
            self._xs = (bufs[j % 2], bufs[1 - j % 2])
            self.v, self.w = (x[:n] for x in self._xs)
            for src, dst in ((v, self.v), (w, self.w)):
                if src is not None:
                    to_storage(src, prec, out=dst)
        self._plan.anchors = \
            self._bk.eta_anchors(v, self._plan.threads) if anchors is None \
            else np.ascontiguousarray(anchors, dtype=np.float64)
        self._plan.escape[0] = 0
        self.m = m

    def swap(self) -> np.ndarray:
        """Rotate the newest iterate into kernel-input position (a
        pointer swap).

        Returns it (now ``v``): the vector the neighbours' halos need.
        """
        self.v, self.w = self.w, self.v
        if self._xs is not None:
            self._xs = self._xs[::-1]
        return self.v

    # -- scalar products -----------------------------------------------
    def _checked(self, bins: np.ndarray) -> np.ndarray:
        """This iteration's bins (2, 3R), once its escape flag is clear."""
        flag = int(self._plan.escape[0])
        if flag:
            r, j = self._plan.r, flag - 1
            column, moment = (j, 2 * self.m) if j < r else \
                ((j - r) // 2, 2 * self.m + 1)
            raise SpectralScaleError(
                f"the spectrum escapes the scale a={float(self.a)!r}, "
                f"b={float(self.b)!r}: "
                f"an eta block of column {column} exceeds its anchor at "
                f"moment {moment}; widen the spectral bounds",
                a=self.a, b=self.b, column=column, moment=moment,
            )
        self.m += 1
        return bins

    # -- the recurrence ------------------------------------------------
    def bootstrap(self, dots: bool = True):
        """``w <- nu_1 = a (H - b) nu_0``; returns the bins of
        ``(eta_0, eta_1)`` (valid until the next call).

        One backend call (DESIGN §13).  Half storage recombines once in
        fp32 and rounds back; the dots read the pre-rounding values,
        exactly as the per-step kernels accumulate theirs in registers.
        """
        self.w, bins = self._bk._boot(self.A, self.x, self.w, self.a,
                                      self.b, self._plan, self.sink)
        return self._checked(bins) if dots else None

    def interior(self) -> None:
        """Split mode, phase 1: update the halo-free rows.

        Reads only the local part of :attr:`x`, so it may run while the
        halo tail is still in flight; :meth:`update` finishes the step.
        """
        self._bk._phase(0, self.A, self.x, self.w, self.a, self.b,
                        self._plan, self.sink)
        self._partial = True

    def update(self):
        """Finish the fused step once :attr:`x` is complete.

        ``w <- 2a (H - b) v - w``; returns the bins of ``(eta_2m,
        eta_2m+1) = (<v|v>, <w|v>)`` (valid until the next call).  In
        split mode this is the boundary phase (preceded by the interior
        phase unless :meth:`interior` already ran), and the bins are the
        two phases' sum.
        """
        plan = self._plan
        if plan.phases is None:
            self._kernel(self.A, self.x, self.w, self.a, self.b, plan,
                         self.sink)
            return self._checked(plan.bins)
        if not self._partial:
            self.interior()
        self._partial = False
        self._bk._phase(1, self.A, self.x, self.w, self.a, self.b, plan,
                        self.sink)
        return self._checked(np.add(*plan.phase_bins, out=self._bins))

    def advance(self) -> np.ndarray:
        """One *unfused* iteration (SpM(M)V + recombination, no dots).

        For the consumers that need every ``nu_m`` itself — LDOS and the
        Chebyshev propagator.  They are serial, so the swap happens here
        and nothing refreshes a halo in between.
        Returns the new iterate (``w``), valid until the next call.
        """
        self.swap()
        prec = self.prec
        if prec.half_vectors:
            # the SpMMV streams the half layout; the recombination runs
            # in fp32 on decodes and is rounded back into w's storage
            vc, wc = self._vc[: self.A.n_rows], self._wc
            self._apply(self.A, self.x, out=self._uh, plan=self._plan,
                        metrics=self.sink)
            prec.decode(self._uh, out=self._u)
            prec.decode(self.v, out=vc)
            prec.decode(self.w, out=wc)
            _recombine(wc, self._u, vc, self.a, self.b, self._work)
            prec.encode(wc, out=self.w)
        else:
            self._apply(self.A, self.x, out=self._u, plan=self._plan,
                        metrics=self.sink)
            _recombine(self.w, self._u, self.v, self.a, self.b,
                       self._work)
        return self.w

    def iterates(self, n: int):
        """Yield ``nu_0 .. nu_{n-1}``, each valid until the next one."""
        yield self.v
        if n > 1:
            self.bootstrap(dots=False)
            yield self.w
        for _ in range(2, n):
            yield self.advance()


# -- the program -----------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """What every rank of one run shares: the inner iterations
    ``[first_m, half)`` (a fresh run bootstraps first), the halo mode,
    the reduction frequency, the bytes of the final reduction (0: none),
    the eta anchors, the run controls the ranks act on (the checkpoint
    and progress cadences) and an elastic run's ``bounds``."""

    first_m: int
    half: int
    overlap: bool
    every: bool
    final_bytes: int
    anchors: np.ndarray
    ctx: object  # a repro.core.checkpoint.RunContext, the ranks' slice
    bounds: tuple = ()


@dataclass
class RankState:
    """What one rank owns for one run.

    ``rec`` holds the loaded local block; ``bins`` is the run's
    ``(P, M/2, 2, 3R)`` array, of which the rank writes row ``rank``;
    ``sends`` lists ``(q, send rows, tails)`` per outgoing edge,
    ``tails`` being the ``(2, rows, R)`` view of the rows of q's two
    buffers it fills, and ``sources`` the ranks it receives from;
    ``slots`` are the checkpoint's double-buffered global ``(v, w)``
    arrays, None where the transport reads the recurrences themselves.
    A world with peers packs, records and hands rows over through its
    subclass, :class:`repro.dist.kpm_parallel.RankState`.
    """

    rank: int
    rec: Recurrence
    rows: slice
    bins: np.ndarray
    sends: list
    sources: list
    slots: tuple | None
    inj: object
    sink: MetricsRegistry


def rank_program(s: RankState, sched: Schedule, t):
    """Run one rank's schedule over transport ``t``; a generator that
    yields where the shared-memory transport may wait for a peer.

    Ten transport ops are its only communication: ``exchange()`` (all
    packed), ``post(q, m)`` (a context around a task-mode pack, entered
    once ``q`` consumed ``m − 2``), ``complete(src, m)`` / ``release(src,
    m)`` (a tail landed / was consumed), ``reduce()`` (all bins of the
    iteration in place), ``claim(j)`` (the parent took checkpoint
    ``j − 2``: slot ``j % 2`` is free), ``publish(m, k)`` (a stream or
    the k-th checkpoint — 0: none — is due after iteration ``m``),
    ``probe()`` (the heartbeat), and an iteration before an elastic
    boundary ``m`` ``ask(m, busy)`` (the busy seconds since the last)
    and after it ``answer(m)`` (None, or a call that returns the rank's
    next ``(rows, recurrence, links, buffers, offsets)`` once every rank
    staged its rows).  A one-rank world has no peers: it packs,
    exchanges and waits for nothing.
    """
    rec, r = s.rec, s.bins.shape[-1] // 3
    peers = s.bins.shape[0] > 1
    # one rank has no skew to time: its spans are the kernels' own
    span = (s.sink if peers else NULL_METRICS).span
    ctx, first_m = sched.ctx, sched.first_m
    busy, ck = 0.0, 0  # busy seconds since the last boundary; checkpoints

    def stage(j: int) -> int:
        # Double-buffered: the j-th slot write goes to slot j % 2 once the
        # parent took checkpoint j − 2 from it; the last one stays intact.
        t.claim(j)
        for buf, x in zip(s.slots, (rec.v, rec.w)):
            buf[j % 2, s.rows] = x
        return j % 2

    def timed(work):
        # ``rank_busy``, the rebalancer's skew signal, times the rank's own
        # work — the fault probe (a straggler's sleeps) and the kernels —
        # not the waits where fast ranks absorb a slow peer's skew
        nonlocal busy
        t0 = perf_counter()
        with span("rank_busy"):
            out = work()
        busy += perf_counter() - t0
        return out

    # m = 0 is a fresh run's bootstrap, nu_1 = a (H nu_0 - b nu_0)
    for m in range(0 if first_m == 1 else first_m, sched.half):
        bound = m + 1 in sched.bounds
        if bound:
            t.ask(m + 1, busy)
            busy = 0.0
        if s.inj is not None:
            timed(lambda: s.inj.at_iteration(m))
        t.probe()
        vec, phase, kernel = (rec.swap(), "halo", rec.update) if m else \
            (rec.v, "halo_init", rec.bootstrap)
        # Exchange vec's halo of iteration m, then run ``kernel`` on the
        # complete input: its bins are the rank's share of iteration m.
        slot = m % 2
        if peers and not sched.overlap:
            with span("halo_exchange", phase="dist"):
                for q, rows, tails in s.sends:
                    s.pack(m, q, rows, tails[slot], vec, phase)
                t.exchange()  # every tail of this parity is filled
                yield
        elif peers:
            # Task mode: pack into each peer once it drained the slot —
            # no global synchronisation; then update the interior rows
            # while the exchange is in flight (they reference local
            # columns only).  Time still spent waiting for the incoming
            # tails is exposed communication: the ``halo_wait`` span.
            with span("halo_pack", phase="dist"):
                for q, rows, tails in s.sends:
                    with t.post(q, m):
                        s.pack(m, q, rows, tails[slot], vec, phase)
            if m:  # the bootstrap has no compute to hide
                timed(rec.interior)
            with span("halo_wait", phase="dist"):
                yield
                for src in s.sources:
                    t.complete(src, m)
        s.bins[s.rank, m] = timed(kernel)
        if peers and sched.overlap:
            for src in s.sources:
                t.release(src, m)  # the peer may refill this parity
        if peers and sched.every:
            # the even moment's bins, then the odd one's
            with span("allreduce", phase="dist"):
                for width in (r, 2 * r):
                    s.allreduce(16 * width, "allreduce_iter")
                t.reduce()
                yield
                s.bins[:, m].sum(axis=0)  # every rank forms the global sum
        if ctx.publishes(m, first_m):  # never at m = 0
            k = ctx.checkpoint_due(m, first_m)
            if k and s.slots is not None:
                stage(k)
            ck = k or ck
            t.publish(m, k)
            yield
        if not bound:
            continue
        new = t.answer(m + 1)
        if new is not None:
            # New weights: the (v, w) rows pass through the checkpoint
            # slot the next checkpoint would write, then the rank goes on
            # at m + 1 on its new block, with nothing but its rows moved.
            x = stage(ck + 1)
            t.exchange()  # every rank staged its rows
            yield
            rows, rec, (s.sends, s.sources), bufs, offsets = new()
            s.handover(offsets)
            s.rows, s.rec = rows, rec
            rec.load(*(buf[x, rows] for buf in s.slots),
                     anchors=sched.anchors, m=m + 1, bufs=bufs)
            t.exchange()  # every rank read its rows: the slot is free
            yield

    # the one deferred reduction of the bins this run computed
    if peers and sched.final_bytes:
        s.allreduce(sched.final_bytes, "allreduce_final")
