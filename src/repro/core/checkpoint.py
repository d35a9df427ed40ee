"""Checkpoint/restart for long KPM moment computations.

The paper's production runs burn hundreds of node-hours (Table III);
any real deployment checkpoints the Chebyshev recurrence. The state is
tiny relative to the computation: the two current block vectors, the eta
scalars accumulated so far, and the loop position — saved as a *stored*
(uncompressed) ``.npz``. Restarting is bit-exact: the recurrence is
deterministic given (v, w).

Cost model.  A checkpoint's payload is ``2·N·R·S_vec + 16·R·M + 8·R``
bytes (:attr:`KpmCheckpoint.payload_bytes`: two blocks in the profile's
vector storage, the fp64 eta array and the eta anchors) and the file is
that plus under 4 KiB of zip and ``.npy`` headers, whatever the data.  The archive is not
deflated because there is nothing to squeeze: random-phase start vectors
and their Chebyshev iterates have full-entropy mantissas (a real TI
32x32x8, R = 8 state deflates to 95 % / 92 % / 91 % of its payload under
fp64 / fp32 / fp16v) and zlib manages ~25 MB/s on them, 30x or more the
cost of writing the bytes.  Format 2 carries the eta anchors (DESIGN
§19); a format-1 file, whose eta was reduced in another order, is
refused rather than spliced.

The run controls (:class:`RunContext`) and the run every engine executes
(:class:`Run`: the one prologue, splice and checkpoint state) live here
too, with :func:`run_ranks`, which steps the rank program in this
process — on one rank for a serial solve.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.recurrence import (RankState, Recurrence, Schedule,
                                   check_moments, rank_program, to_storage)
from repro.core.scaling import SpectralScale
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, one_sink
from repro.sparse.csr import CSRMatrix
from repro.sparse.backend import get_backend
from repro.sparse.fused import fold
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.errors import CheckpointError, FormatError
from repro.util.knobs import ExecConfig
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_block_vector

_FORMAT_VERSION = 2


def _npz_path(path: str | Path) -> Path:
    """The on-disk path of a checkpoint: always carries the .npz suffix.

    ``np.savez`` silently appends ``.npz`` to any other suffix, so both
    :meth:`KpmCheckpoint.save` and :meth:`KpmCheckpoint.load` must
    normalize the same way or a ``save("state.ckpt")`` /
    ``load("state.ckpt")`` round trip fails.
    """
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def _hash_into(h, arr: np.ndarray) -> None:
    """Feed an array's bytes to ``h`` through the buffer protocol.

    A contiguous array is hashed in place (no ``tobytes()`` copy of a
    block that is as large as the recurrence state itself).
    """
    h.update(np.ascontiguousarray(arr).reshape(-1).view(np.uint8).data)


def run_digest(start_block: np.ndarray, precision) -> str:
    """Identity of a run: the digest of its ``nu_0`` block in the profile's
    storage form — the bytes every engine streams, so all tag one run
    alike."""
    h = hashlib.sha256()
    _hash_into(h, to_storage(start_block, get_precision(precision)))
    return h.hexdigest()


@dataclass
class KpmCheckpoint:
    """Complete state of an interrupted stage-2 moment computation.

    ``v``/``w`` are stored in the active precision profile's vector
    *storage* dtype (complex128 / complex64 / float16 pairs), so a
    checkpoint ships exactly the bytes the kernels would stream — a
    resume under the same profile is bit-exact, and a narrow-profile
    checkpoint's vectors are exactly 2x (fp32) or 4x (fp16v) smaller on
    disk.  ``eta`` is always complex128 (the accumulation is fp64 in
    every profile); ``anchors`` are the run's eta anchors (DESIGN §19),
    which a resumed run reduces by, since ``nu_0`` is gone.
    """

    v: np.ndarray  # nu_m block
    w: np.ndarray  # nu_{m+1} block (post-update storage)
    eta: np.ndarray  # (R, M) with entries [0 : 2*next_m) filled
    next_m: int  # next inner-iteration index
    n_moments: int
    a: float
    b: float
    anchors: np.ndarray  # (R,) float64
    precision: str = "fp64"
    #: :func:`run_digest` of the run's nu_0 block ("" when the run saved
    #: no file of its own).  Two solves sharing a checkpoint path agree
    #: on everything else above, so this is the only field that tells a
    #: same-run retry from a foreign file.
    run_id: str = ""

    def _digest(self) -> str:
        """Integrity digest over the state that resuming actually reads
        (of eta, the filled prefix)."""
        h = hashlib.sha256()
        h.update(f"{self.next_m}:{self.n_moments}:{self.a!r}:{self.b!r}:"
                 f"{self.precision}:{self.run_id}:".encode())
        for arr in (self.v, self.w, self.eta[:, : 2 * self.next_m],
                    self.anchors):
            _hash_into(h, arr)
        return h.hexdigest()

    @property
    def payload_bytes(self) -> int:
        """Array bytes a save writes: ``2·N·R·S_vec + 16·R·M + 8·R``.

        The stored file is this plus headers:
        ``payload_bytes <= file size < payload_bytes + 4096``.
        """
        return (self.v.nbytes + self.w.nbytes + self.eta.nbytes
                + self.anchors.nbytes)

    def save(self, path: str | Path) -> Path:
        """Atomically write the state; returns the suffix-normalized path.

        The archive is written to a ``*.tmp.<pid>.npz`` sibling and moved
        into place with ``os.replace``: a process that crashes mid-write,
        or a concurrent reader, sees the previous checkpoint or the new
        one, never a truncated file.  Nothing is ``fsync``'d, so that
        guarantee does not extend to power loss or a kernel crash.
        """
        path = _npz_path(path)
        tmp = path.with_name(path.stem + f".tmp.{os.getpid()}.npz")
        try:
            np.savez(
                tmp,
                version=_FORMAT_VERSION,
                v=self.v, w=self.w, eta=self.eta, anchors=self.anchors,
                next_m=self.next_m, n_moments=self.n_moments,
                a=self.a, b=self.b,
                precision=self.precision,
                run_id=self.run_id,
                digest=self._digest(),
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "KpmCheckpoint":
        """Load a checkpoint, verifying its integrity digest.

        Raises :class:`~repro.util.errors.CheckpointError` on a missing,
        truncated, or corrupt file (never the raw ``zipfile`` /
        ``KeyError`` NumPy produces) or a format-1 file, and
        :class:`FormatError` on a valid file of an unknown version.
        """
        orig = Path(path)
        path = orig if orig.exists() else _npz_path(orig)
        if not path.exists():
            raise CheckpointError(f"checkpoint file not found: {orig}")
        try:
            with np.load(path) as data:
                version = int(data["version"])
                if version == 1:
                    raise CheckpointError(
                        f"checkpoint {path} is format 1: its eta was reduced "
                        "in another order, so it cannot be resumed bitwise"
                    )
                if version != _FORMAT_VERSION:
                    raise FormatError(
                        f"checkpoint version {version} not supported"
                    )
                ck = cls(
                    v=data["v"], w=data["w"], eta=data["eta"],
                    next_m=int(data["next_m"]),
                    n_moments=int(data["n_moments"]),
                    a=float(data["a"]), b=float(data["b"]),
                    anchors=data["anchors"],
                    precision=str(data["precision"]),
                    run_id=str(data["run_id"]),
                )
                stored = str(data["digest"])
        except (FormatError, CheckpointError):
            raise
        except (zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError) as exc:
            raise CheckpointError(
                f"checkpoint {path} is truncated or corrupt: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if stored != ck._digest():
            raise CheckpointError(
                f"checkpoint {path} failed its integrity check "
                "(stored digest does not match the state)"
            )
        return ck


@dataclass(frozen=True)
class RunContext:
    """The run controls of one solve, carried whole from entry to loop.

    :class:`~repro.util.knobs.ExecConfig` says how a solve executes; the
    context says what runs beside it — the sink, checkpoints, resume,
    faults, progress, mp timeouts (DESIGN §17 lists every field) — and
    holds the one copy of each mechanic the engines share, so an engine
    only says *when* its state is ready.  Entry points build it in one
    statement (:meth:`of`); a supervisor or elastic attempt is a
    :func:`dataclasses.replace`.
    """

    sink: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    checkpoint_every: int = 0
    checkpoint_path: str | Path | None = None
    resume_from: KpmCheckpoint | str | Path | None = None
    fault_plan: object = None
    attempt: int = 1
    progress: object = None
    progress_every: int = 0
    timeouts: object = None

    @classmethod
    def of(cls, seed: int = 0, counters=NULL_METRICS, metrics=NULL_METRICS,
           **fields) -> RunContext:
        """The context of an entry point's keywords.  ``counters`` and
        ``metrics`` become the one sink (:func:`~repro.obs.metrics.
        one_sink`), a cadence without a file and a file without a
        cadence are refused and a fault-plan string is parsed under
        ``seed``."""
        if fields.get("checkpoint_every") and \
                fields.get("checkpoint_path") is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if fields.get("checkpoint_path") and \
                not fields.get("checkpoint_every"):
            raise ValueError("checkpoint_path requires checkpoint_every")
        if fields.get("fault_plan") is not None:
            from repro.resil.faults import as_fault_plan

            fields["fault_plan"] = as_fault_plan(fields["fault_plan"], seed)
        return cls(sink=one_sink(counters, metrics), **fields)

    def check_stage(self, kernel: str, engine: str = "serial") -> None:
        """Refuse on a stage-0/1 ``kernel``, which runs one column at a
        time, the controls that hold stage-2 block state and a
        distributed ``engine``, whose ranks run stage 2 only."""
        held = [name for name, on in (
            ("checkpoint_every", self.checkpoint_every > 0),
            ("resume_from", self.resume_from is not None),
            ("progress", self.progress is not None),
            (f"engine={engine!r}", engine != "serial")) if on]
        if kernel != "aug_spmmv" and held:
            raise ValueError(
                f"the {kernel} stage runs one column at a time and holds no "
                f"block state: {', '.join(held)} needs the aug_spmmv stage"
            )

    def for_workers(self) -> RunContext:
        """The picklable slice every engine's ranks run by: plan, attempt,
        both cadences — progress's armed only by the callback it keeps."""
        return RunContext(checkpoint_every=self.checkpoint_every,
                          progress_every=self.progress_every
                          if self.progress is not None else 0,
                          fault_plan=self.fault_plan, attempt=self.attempt)

    def injector(self, rank: int, in_process: bool = True):
        """Rank ``rank``'s :class:`~repro.resil.FaultInjector` for this
        attempt; None without a plan."""
        if not self.fault_plan:
            return None
        from repro.resil.faults import FaultInjector

        return FaultInjector(self.fault_plan, rank=rank, attempt=self.attempt,
                             in_process=in_process)

    @staticmethod
    def _cadence(done: int, every: int) -> int:
        """``done`` iterations into a run, which firing of an
        every-``every`` cadence this is (1, 2, ...); 0 when none."""
        n, rest = divmod(done, every) if every > 0 else (0, 1)
        return 0 if rest else n

    def checkpoint_due(self, m: int, first_m: int) -> int:
        """After iteration ``m`` of a run entered at ``first_m``: the
        ordinal of the checkpoint due now (its parity is mp's slot), or 0."""
        return self._cadence(m - first_m + 1, self.checkpoint_every)

    def progress_due(self, m: int, first_m: int) -> bool:
        return self.progress is not None and \
            self._cadence(m - first_m + 1, self.progress_every) > 0

    def publishes(self, m: int, first_m: int) -> bool:
        """Whether the ranks publish after iteration ``m``: a checkpoint
        or a stream (armed on their slice, :meth:`for_workers`) is due."""
        return self._cadence(m - first_m + 1, self.progress_every) > 0 or \
            self.checkpoint_due(m, first_m) > 0

    def stream(self, n_eta: int, eta: np.ndarray) -> None:
        """Fire ``progress`` with the reduced eta prefix ``[:, :n_eta]``.
        It runs on the compute path: keep it cheap, never let it raise."""
        if self.progress is not None and self.progress_every > 0:
            self.progress(n_eta, eta[:, :n_eta])

    def save(self, state: KpmCheckpoint) -> None:
        """Write ``state`` atomically to ``checkpoint_path`` under a
        ``checkpoint_save`` span; without a path nothing is written."""
        if self.checkpoint_path is None:
            return
        with self.sink.span("checkpoint_save", phase="ckpt") as sp:
            saved = state.save(self.checkpoint_path)
            sp.note(file_bytes=saved.stat().st_size,
                    payload_bytes=state.payload_bytes, next_m=state.next_m)

    def run_id(self, resumed: KpmCheckpoint | None, start_block,
               precision) -> str:
        """The tag this run's checkpoints carry (DESIGN §17)."""
        if resumed is not None:
            return resumed.run_id
        return run_digest(start_block, precision) if self.checkpoint_every \
            else ""

    def resume(self, n_moments: int, scale: SpectralScale, precision,
               start_block: np.ndarray | None = None) -> KpmCheckpoint | None:
        """``resume_from``, loaded (a path, under a ``checkpoint_load``
        span) and checked against the run; None for a fresh run.

        Every engine and the supervisor resume through here, so each
        enforces the same rules: the same moment count, spectral map and
        precision profile — a cross-precision resume would silently
        re-round the recurrence state — and, given the run's
        ``start_block``, the same run: another solve's state would
        silently return that solve's numbers (an untagged state cannot
        be told apart and passes).
        """
        ck = self.resume_from
        if ck is None:
            return None
        if not isinstance(ck, KpmCheckpoint):
            with self.sink.span("checkpoint_load", phase="ckpt"):
                ck = KpmCheckpoint.load(ck)
        if ck.n_moments != n_moments:
            raise FormatError(
                f"checkpoint was taken for M={ck.n_moments}, "
                f"requested M={n_moments}"
            )
        if not (np.isclose(ck.a, scale.a) and np.isclose(ck.b, scale.b)):
            raise FormatError("checkpoint spectral map mismatch")
        prec = get_precision(precision)
        if ck.precision != prec.name:
            raise CheckpointError(
                f"checkpoint was taken under precision {ck.precision!r} but "
                f"this run uses {prec.name!r}; resume with "
                f"precision={ck.precision!r} (the recurrence state cannot be "
                "converted across storage profiles without silently "
                "changing the results)"
            )
        if start_block is not None and ck.run_id and \
                ck.run_id != run_digest(start_block, prec):
            raise CheckpointError(
                "checkpoint belongs to a different run: its nu_0 digest "
                "does not match start_block"
            )
        return ck


def checkpointed_eta(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    *,
    checkpoint_every: int = 0,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    counters=NULL_METRICS,
    metrics=NULL_METRICS,
    fault_plan=None,
    attempt: int = 1,
    progress=None,
    progress_every: int = 0,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Stage-2 eta computation with optional checkpoint/restart.

    The rank program on one rank (:func:`run_ranks`):
    :func:`repro.core.moments.compute_eta` with the ``aug_spmmv`` engine
    *is* this function with checkpoints off; ``config``/knobs are the
    kernel knobs of :class:`~repro.util.knobs.ExecConfig`, the other
    keywords the run controls of :class:`RunContext` (DESIGN §17).  A
    resume is bit-exact; checkpoints are plain recurrence state and the
    backends round alike, so a run interrupted on one backend resumes on
    another with the same bits.
    """
    return run_ranks(
        ExecConfig.of(config, knobs),
        RunContext.of(counters=counters, metrics=metrics,
                      checkpoint_every=checkpoint_every,
                      checkpoint_path=checkpoint_path, resume_from=resume_from,
                      fault_plan=fault_plan, attempt=attempt,
                      progress=progress, progress_every=progress_every),
        H, scale, n_moments, start_block,
    )


@dataclass
class Run:
    """One validated solve, as every engine executes it (:meth:`of`).

    ``cfg`` has ``threads`` and ``overlap`` decided for the rank count;
    the inner iterations run are ``[first_m, half)`` (``first_m`` 1
    fresh, else the resumed ``ck``'s ``next_m``; ``half`` M/2);
    ``anchors`` are the start block's or the checkpoint's.  A world's
    partition extends it (:class:`repro.dist.kpm_parallel.RunSetup`)."""

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
    ck: KpmCheckpoint | None
    start_block: np.ndarray | None
    run_id: str
    kernel: str
    _eta: np.ndarray | None = field(default=None, init=False, repr=False)
    _folded: int = field(default=0, init=False, repr=False)

    @classmethod
    def of(cls, cfg: ExecConfig, ctx: RunContext, scale: SpectralScale,
           n_moments: int, start_block, n_rows: int, *, n_ranks: int = 1,
           kernel: str = "aug_spmmv", **more):
        """The prologue every engine runs: validate the moments and the
        start block, load and check any checkpoint, decide the config
        for ``n_ranks`` ranks and tag the run.  ``more`` are a
        subclass's fields."""
        check_moments(n_moments)
        prec = get_precision(cfg.precision)
        ck = ctx.resume(n_moments, scale, prec, start_block)
        if ck is not None:
            r, first_m, anchors = ck.v.shape[1], ck.next_m, ck.anchors
        else:
            start_block = check_block_vector("start_block", start_block,
                                             n_rows)
            if start_block.dtype == np.float16 and not prec.half_vectors:
                raise TypeError(
                    "start_block uses float16 pair storage but precision "
                    f"is {prec.name!r}; pass precision='fp16v'"
                )
            r, first_m = start_block.shape[1], 1
            anchors = get_backend(cfg.backend).eta_anchors(
                start_block, cfg.kernel_threads(work=start_block.size))
        return cls(
            cfg=cfg.for_ranks(n_ranks), ctx=ctx, prec=prec, a=scale.a,
            b=scale.b, n_moments=n_moments, r=r, first_m=first_m,
            half=n_moments // 2, anchors=anchors, ck=ck,
            start_block=start_block,
            run_id=ctx.run_id(ck, start_block, prec), kernel=kernel, **more,
        )

    def schedule(self) -> Schedule:
        """The :class:`~repro.core.recurrence.Schedule` every rank runs,
        by the controls' :meth:`~RunContext.for_workers` slice.  The final
        allreduce moves the bins, 48R bytes, of each of the M/2 iterations."""
        return Schedule(first_m=self.first_m, half=self.half,
                        overlap=self.cfg.overlap,
                        every=self.cfg.reduction == "every",
                        final_bytes=24 * self.r * self.n_moments,
                        anchors=self.anchors, ctx=self.ctx.for_workers())

    def splice(self, bins: np.ndarray, stop: int) -> np.ndarray:
        """The run's (R, M) eta, reduced over ``[0, stop)`` of ``bins``
        (ranks, M/2, 2, 3R) and zero past it: a resumed prefix copied in
        once, then the fold of the (exact) rank sum of the moment pairs
        since the last splice, so a capture costs O(cadence), not O(m).
        A caller that keeps the buffer copies it."""
        if self._eta is None:
            self._eta = np.zeros((self.r, self.n_moments), dtype=DTYPE)
            if self.ck is not None:
                self._folded = 2 * self.ck.next_m
                self._eta[:, :self._folded] = self.ck.eta[:, :self._folded]
        lo, out = self._folded, self._eta
        if stop > lo:
            ee, eo = fold(bins[:, lo // 2:stop // 2].sum(axis=0))
            out[:, lo:stop:2], out[:, lo + 1:stop:2] = ee.T, eo.T
            self._folded = stop
        return out

    def state(self, v: np.ndarray, w: np.ndarray, eta: np.ndarray,
              next_m: int) -> KpmCheckpoint:
        """The checkpoint of global ``(v, w)`` and reduced ``eta`` after
        iteration ``next_m − 1`` — what every engine saves."""
        return KpmCheckpoint(
            v=v, w=w, eta=eta, next_m=next_m, n_moments=self.n_moments,
            a=self.a, b=self.b, anchors=self.anchors,
            precision=self.prec.name, run_id=self.run_id,
        )

    def capture(self, m: int, k: int, bins: np.ndarray, vw,
                world=None) -> None:
        """Take the ranks' publish after iteration ``m``, as every
        engine's parent takes each, in order: stream the eta prefix of
        the (final) ``bins`` when progress is due and, at the ``k``-th
        checkpoint (0: none), save the global ``(v, w) = vw()`` and keep
        it as ``world.last_checkpoint``."""
        ctx, n_eta = self.ctx, 2 * (m + 1)
        eta = self.splice(bins, n_eta)
        if ctx.progress_due(m, self.first_m):
            ctx.stream(n_eta, eta)
        if k:
            ck = self.state(*vw(), eta.copy(), m + 1)
            if world is not None:  # the one it replaces is freed first
                world.last_checkpoint = ck
            ctx.save(ck)

    def recurrence(self, A, split=None) -> Recurrence:
        """A rank's recurrence over its operator block ``A``."""
        return Recurrence(A, self.a, self.b, self.r, kernel=self.kernel,
                          split=split, config=self.cfg, sink=self.ctx.sink)

    def rank(self, p: int, rec: Recurrence, rows: slice, bins: np.ndarray,
             bufs=None, links=((), ()), slots=None,
             cls=RankState) -> RankState:
        """Rank ``p``'s state, ``rec`` loaded with the ``rows`` of the
        start block — or of the resumed pair — (into ``bufs``, a rank's
        two full-height buffers, given them); ``links`` are its
        ``(sends, sources)``, ``slots`` its checkpoint slots."""
        if self.ck is not None:
            rec.load(self.ck.v[rows], self.ck.w[rows], anchors=self.anchors,
                     m=self.first_m, bufs=bufs)
        else:
            rec.load(self.start_block[rows], anchors=self.anchors, bufs=bufs)
        return cls(p, rec, rows, bins, *links, slots,
                   self.ctx.injector(p) or None, self.ctx.sink)

    def lockstep(self, states: list[RankState], reslice=None) -> np.ndarray:
        """Run the ranks' programs to the end in this process; returns eta
        (R, M).  One round steps every program to its next yield, rank by
        rank, so no rank reads a halo tail before every rank packed it;
        the last one's publish — every peer's bins and ``(nu_m,
        nu_{m+1})`` are in place by then — goes to :meth:`capture`.  At an
        elastic boundary ``m`` the ranks take ``reslice(m)``'s pieces,
        one per rank (None: the weights hold), decided once."""
        bins = states[0].bins

        def publish(m: int, k: int) -> None:
            self.capture(m, k, bins, lambda: (np.concatenate(
                [getattr(s.rec, x) for s in states]) for x in "vw"))

        sched = self.schedule()
        pieces = functools.cache(reslice) if reslice else None
        programs = [
            rank_program(s, sched, _InProcess(
                publish if s is states[-1] else None, pieces, s.rank))
            for s in states]
        for _ in itertools.zip_longest(*programs):
            pass
        return self.splice(bins, self.n_moments)


class _InProcess:
    """The in-process transport: in one address space the halo and
    reduction ops have nothing to wait for."""

    def __init__(self, publish, pieces=None, rank: int = 0) -> None:
        self.publish = publish or (lambda m, k: None)
        self.pieces, self.rank = pieces, rank

    def exchange(self, *_) -> None:
        pass

    def answer(self, m: int):
        new = self.pieces(m)
        return None if new is None else (lambda: new[self.rank])

    reduce = probe = complete = release = ask = claim = exchange

    def post(self, _q: int, _m: int):
        return nullcontext()


def run_ranks(cfg: ExecConfig, ctx: RunContext, A, scale: SpectralScale,
              n_moments: int, start_block, world=None, *,
              kernel: str = "aug_spmmv") -> np.ndarray:
    """Eta (R, M) of one solve: the rank program on ``world``'s ranks over
    ``A``, partitioned (:mod:`repro.dist`) — or, without a world, on one
    rank over the whole operator in this process, no partition copy, no
    halo.  There stages 0/1 (``kernel``) run the one rank once per
    column, on one single-vector recurrence."""
    if world is not None:
        from repro.dist.kpm_parallel import run_distributed

        return run_distributed(cfg, ctx, A, None, scale, n_moments,
                               start_block, world)
    run = Run.of(cfg, ctx, scale, n_moments, start_block, A.n_rows,
                 kernel=kernel)
    runs = [run] if kernel == "aug_spmmv" else [
        replace(run, r=1, start_block=run.start_block[:, i],
                anchors=run.anchors[i:i + 1]) for i in range(run.r)]
    rec, rows = runs[0].recurrence(A), slice(0, A.n_rows)
    etas = [one.lockstep([one.rank(0, rec, rows, np.zeros(
        (1, n_moments // 2, 2, 3 * one.r)))]) for one in runs]
    return etas[0] if len(etas) == 1 else np.concatenate(etas)
