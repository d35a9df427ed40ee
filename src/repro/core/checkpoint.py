"""Checkpoint/restart for long KPM moment computations.

The paper's production runs burn hundreds of node-hours (Table III);
any real deployment checkpoints the Chebyshev recurrence. The state is
tiny relative to the computation: the two current block vectors, the eta
scalars accumulated so far, and the loop position — saved as a *stored*
(uncompressed) ``.npz``. Restarting is bit-exact: the recurrence is
deterministic given (v, w).

Cost model.  A checkpoint's payload is ``2·N·R·S_vec + 16·R·M`` bytes
(:attr:`KpmCheckpoint.payload_bytes`: two blocks in the profile's vector
storage plus the fp64 eta array) and the file is that plus under 4 KiB
of zip and ``.npy`` headers, whatever the data.  The archive is not
deflated because there is nothing to squeeze: random-phase start vectors
and their Chebyshev iterates have full-entropy mantissas (a real TI
32x32x8, R = 8 state deflates to 95 % / 92 % / 91 % of its payload under
fp64 / fp32 / fp16v) and zlib manages ~25 MB/s on them, 30x or more the
cost of writing the bytes.  ``np.load`` reads stored and deflated
members alike, so files written by older versions keep loading.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.recurrence import Recurrence, check_moments, to_storage
from repro.core.scaling import SpectralScale
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import CheckpointError, FormatError
from repro.util.knobs import ExecConfig
from repro.util.precision import get_precision

_FORMAT_VERSION = 1


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
    every profile).
    """

    v: np.ndarray  # nu_m block
    w: np.ndarray  # nu_{m+1} block (post-update storage)
    eta: np.ndarray  # (R, M) with entries [0 : 2*next_m) filled
    next_m: int  # next inner-iteration index
    n_moments: int
    a: float
    b: float
    precision: str = "fp64"
    #: eta reduction grid of the run that saved this state: 0 = classic
    #: per-rank partials, B > 0 = fixed global row blocks of B rows
    #: (:mod:`repro.dist.elastic`).  The spliced eta prefix is only
    #: bitwise-composable with a run using the *same* reduction order,
    #: so a cross-grid resume is refused like a cross-precision one.
    eta_grid: int = 0
    #: :func:`run_digest` of the run's nu_0 block ("" on files written
    #: before runs were tagged).  Two solves sharing a checkpoint path
    #: agree on everything else above, so this is the only field that
    #: tells a same-run retry from a foreign file.
    run_id: str = ""

    def _digest(self) -> str:
        """Integrity digest over the state that resuming actually reads.

        Only the filled eta prefix is hashed: the tail is zero in every
        file written today, but older serial-engine files carry heap
        bytes there and must keep verifying.  The precision, eta-grid
        and run tags enter the digest only when not the baseline (fp64 /
        per-rank reduction / untagged), so digests of older checkpoints
        keep verifying unchanged.
        """
        h = hashlib.sha256()
        h.update(f"{self.next_m}:{self.n_moments}:{self.a!r}:{self.b!r}:".encode())
        if self.precision != "fp64":
            h.update(f"{self.precision}:".encode())
        if self.eta_grid:
            h.update(f"grid{self.eta_grid}:".encode())
        if self.run_id:
            h.update(f"run{self.run_id}:".encode())
        for arr in (self.v, self.w, self.eta[:, : 2 * self.next_m]):
            _hash_into(h, arr)
        return h.hexdigest()

    @property
    def payload_bytes(self) -> int:
        """Array bytes a save writes: ``2·N·R·S_vec + 16·R·M``.

        The stored file is this plus headers:
        ``payload_bytes <= file size < payload_bytes + 4096``.
        """
        return self.v.nbytes + self.w.nbytes + self.eta.nbytes

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
                v=self.v, w=self.w, eta=self.eta,
                next_m=self.next_m, n_moments=self.n_moments,
                a=self.a, b=self.b,
                precision=self.precision,
                eta_grid=self.eta_grid,
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
        ``KeyError`` NumPy produces) and :class:`FormatError` on a valid
        file of an unsupported version.
        """
        orig = Path(path)
        path = orig if orig.exists() else _npz_path(orig)
        if not path.exists():
            raise CheckpointError(f"checkpoint file not found: {orig}")
        try:
            with np.load(path) as data:
                if int(data["version"]) != _FORMAT_VERSION:
                    raise FormatError(
                        f"checkpoint version {int(data['version'])} not supported"
                    )
                ck = cls(
                    v=data["v"], w=data["w"], eta=data["eta"],
                    next_m=int(data["next_m"]),
                    n_moments=int(data["n_moments"]),
                    a=float(data["a"]), b=float(data["b"]),
                    # pre-precision checkpoints carry no tag: fp64
                    precision=(
                        str(data["precision"])
                        if "precision" in data.files else "fp64"
                    ),
                    # pre-elastic checkpoints carry no tag: per-rank
                    eta_grid=(
                        int(data["eta_grid"])
                        if "eta_grid" in data.files else 0
                    ),
                    run_id=(
                        str(data["run_id"]) if "run_id" in data.files else ""
                    ),
                )
                stored = str(data["digest"]) if "digest" in data.files else None
        except FormatError:
            raise
        except (zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError) as exc:
            raise CheckpointError(
                f"checkpoint {path} is truncated or corrupt: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if stored is not None and stored != ck._digest():
            raise CheckpointError(
                f"checkpoint {path} failed its integrity check "
                "(stored digest does not match the state)"
            )
        return ck


@dataclass(frozen=True)
class RunContext:
    """The run controls of one solve, carried whole from entry to loop.

    :class:`~repro.util.knobs.ExecConfig` says how a solve executes; the
    context says what runs beside it — sinks, checkpoints, resume,
    faults, progress, mp timeouts (DESIGN §17 lists every field) — and
    holds the one copy of each mechanic the engines share, so an engine
    only says *when* its state is ready.  Entry points build it in one
    statement (:meth:`of`); a supervisor attempt or an elastic segment
    is a :func:`dataclasses.replace`.
    """

    counters: PerfCounters = field(default_factory=lambda: NULL_COUNTERS)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    checkpoint_every: int = 0
    checkpoint_path: str | Path | None = None
    resume_from: KpmCheckpoint | str | Path | None = None
    fault_plan: object = None
    attempt: int = 1
    progress: object = None
    progress_every: int = 0
    timeouts: object = None

    @classmethod
    def of(cls, seed: int = 0, **fields) -> RunContext:
        """The context of an entry point's keywords.  A cadence without a
        file is refused (only the elastic driver runs one, in memory) and
        a fault-plan string is parsed under ``seed``."""
        if fields.get("checkpoint_every") and \
                fields.get("checkpoint_path") is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if fields.get("fault_plan") is not None:
            from repro.resil.faults import as_fault_plan

            fields["fault_plan"] = as_fault_plan(fields["fault_plan"], seed)
        return cls(**fields)

    def for_workers(self) -> RunContext:
        """The picklable slice mp workers run by: plan, attempt, cadence."""
        return RunContext(checkpoint_every=self.checkpoint_every,
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
        with self.metrics.span("checkpoint_save", phase="ckpt") as sp:
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
               start_block: np.ndarray | None = None,
               eta_grid: int = 0) -> KpmCheckpoint | None:
        """``resume_from``, loaded (a path, under a ``checkpoint_load``
        span) and checked against the run; None for a fresh run.

        Every engine and the supervisor resume through here, so each
        enforces the same rules: the same moment count, spectral map,
        precision profile and eta reduction grid — a cross-precision
        resume would silently re-round the recurrence state, a cross-grid
        one splice an eta prefix reduced in another order — and, given
        the run's ``start_block``, the same run: another solve's state
        would silently return that solve's numbers (untagged, older files
        cannot be told apart and pass).
        """
        ck = self.resume_from
        if ck is None:
            return None
        if not isinstance(ck, KpmCheckpoint):
            with self.metrics.span("checkpoint_load", phase="ckpt"):
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
        if ck.eta_grid != int(eta_grid):
            raise CheckpointError(
                f"checkpoint was taken with eta_grid={ck.eta_grid} but this "
                f"run uses eta_grid={int(eta_grid)}; the spliced eta prefix "
                "is only bitwise-composable under the same reduction order"
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
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    fault_plan=None,
    attempt: int = 1,
    progress=None,
    progress_every: int = 0,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Stage-2 eta computation with optional checkpoint/restart.

    The serial driver of :class:`~repro.core.recurrence.Recurrence`:
    :func:`repro.core.moments.compute_eta` with the ``aug_spmmv`` engine
    *is* this function with checkpoints off; ``config``/knobs are the
    kernel knobs of :class:`~repro.util.knobs.ExecConfig`, the other
    keywords the run controls of :class:`RunContext` (DESIGN §17).  A
    resume is bit-exact under any one ``backend``; checkpoints are plain
    recurrence state, so a run interrupted on one backend can resume on
    another, matching to reduction-order tolerance.
    """
    return run_serial(
        ExecConfig.of(config, knobs),
        RunContext.of(counters=counters, metrics=metrics,
                      checkpoint_every=checkpoint_every,
                      checkpoint_path=checkpoint_path, resume_from=resume_from,
                      fault_plan=fault_plan, attempt=attempt,
                      progress=progress, progress_every=progress_every),
        H, scale, n_moments, start_block,
    )


def run_serial(cfg: ExecConfig, ctx: RunContext, H, scale: SpectralScale,
               n_moments: int, start_block: np.ndarray) -> np.ndarray:
    """:func:`checkpointed_eta` on a built config and context."""
    check_moments(n_moments)
    prec = get_precision(cfg.precision)
    ck = ctx.resume(n_moments, scale, prec, start_block)
    first = start_block if ck is None else ck.v
    rec = Recurrence(H, scale.a, scale.b, first.shape[1], config=cfg,
                     counters=ctx.counters, metrics=ctx.metrics)
    if ck is not None:
        rec.load(ck.v, ck.w)
        eta = ck.eta.astype(DTYPE, copy=True)
        first_m = ck.next_m
    else:
        rec.load(start_block)
        # a checkpoint writes the whole array, so its unfilled tail must
        # be zeros: the file is a function of the state, not of the heap
        alloc = np.zeros if ctx.checkpoint_every else np.empty
        eta = alloc((start_block.shape[1], n_moments), dtype=DTYPE)
        eta[:, 0], eta[:, 1] = rec.bootstrap()
        first_m = 1
    run_id = ctx.run_id(ck, start_block, prec)
    fault = ctx.injector(0)

    for m in range(first_m, n_moments // 2):
        if fault:
            fault.at_iteration(m)
        eta[:, 2 * m], eta[:, 2 * m + 1] = rec.step()
        if ctx.progress_due(m, first_m):
            ctx.stream(2 * (m + 1), eta)
        if ctx.checkpoint_due(m, first_m):
            # (v, w) = (nu_m, nu_{m+1}): exactly what the resumed run's
            # first swap expects
            ctx.save(KpmCheckpoint(
                v=rec.v, w=rec.w, eta=eta, next_m=m + 1,
                n_moments=n_moments, a=scale.a, b=scale.b,
                precision=prec.name, run_id=run_id,
            ))
    return eta
