"""First-class, seedable fault plans for every execution engine.

The multiprocess engine used to carry a test-only ``_fault`` tuple that
could crash one rank at one iteration.  This module promotes that hook
into a declarative :class:`FaultPlan` — parseable from a CLI string,
picklable into worker processes, and deterministic under a seed — so
fault drills are a first-class workload, not a test fixture:

* ``crash``        — hard process death (``os._exit``) in the mp engine;
  an in-process engine raises :class:`~repro.util.errors.FaultInjected`
  instead of killing the host interpreter.
* ``raise``        — an ordinary worker exception.
* ``stall``        — the rank stops making progress (sleeps), tripping
  the parent's heartbeat stall detector.
* ``slow``         — the rank sleeps ``delay`` seconds per iteration
  (a straggler, not a failure: the run still completes).
* ``corrupt-halo`` — the rank scribbles seeded noise over one of its
  packed halo send windows (silent data corruption drill; mp only).
* ``corrupt-ckpt`` — the supervisor truncates the checkpoint file before
  the given attempt, exercising the ``CheckpointError`` recovery path.

Plan strings are ``kind:key=val,key=val`` entries joined with ``;``::

    crash:rank=1,m=8
    stall:rank=0,m=4;corrupt-ckpt:attempt=2

Every fault defaults to ``attempt=1`` — it fires on the first attempt
and *not* on retries, which is what makes an injected crash recoverable
by the supervisor (the paper-scale failure this models, a node dying,
does not deterministically chase the job across restarts).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro.util.errors import FaultInjected

#: Fault kinds probed inside an engine's iteration loop.
ITERATION_KINDS = ("crash", "raise", "stall", "slow")

#: All valid fault kinds.
FAULT_KINDS = (*ITERATION_KINDS, "corrupt-halo", "corrupt-ckpt")

#: How long an injected stall sleeps when no explicit ``delay`` is given
#: (long enough that the stall detector, not the sleep, ends it).
_STALL_SLEEP = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what, where (rank), and when (iteration/attempt).

    ``count`` repeats an iteration-probed fault over the ``count``
    consecutive iterations ``[m, m + count)`` — the persistent-straggler
    drill (``slow:rank=1,m=1,count=24,delay=0.01``) that the elastic
    rebalancer is built to detect, versus the default one-shot hiccup.
    """

    kind: str
    rank: int = 0
    m: int = 0
    attempt: int = 1
    delay: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.rank < 0 or self.m < 0 or self.attempt < 1 or self.delay < 0 \
                or self.count < 1:
            raise ValueError(f"invalid fault spec {self}")

    def to_str(self) -> str:
        """The parseable string form (inverse of :meth:`FaultPlan.parse`)."""
        parts = []
        for f in fields(self):
            if f.name == "kind":
                continue
            val = getattr(self, f.name)
            if val != f.default:
                out = f"{val:g}" if isinstance(val, float) else str(val)
                parts.append(f"{f.name}={out}")
        return self.kind + (":" + ",".join(parts) if parts else "")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of :class:`FaultSpec` entries."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``'kind:k=v,k=v;kind:...'`` into a plan.

        Raises ``ValueError`` with the offending entry on any malformed
        input — a CLI typo must fail loudly, not silently drop a drill.
        """
        specs = []
        for entry in filter(None, (e.strip() for e in text.split(";"))):
            kind, _, args = entry.partition(":")
            kw: dict = {}
            for pair in filter(None, (p.strip() for p in args.split(","))):
                key, sep, val = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed fault entry {entry!r}: expected key=value, "
                        f"got {pair!r}"
                    )
                key = key.strip()
                if key == "delay":
                    kw[key] = float(val)
                elif key in ("rank", "m", "attempt", "count"):
                    kw[key] = int(val)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r} in {entry!r}"
                    )
            specs.append(FaultSpec(kind.strip(), **kw))
        return cls(tuple(specs), seed=seed)

    def __str__(self) -> str:
        return ";".join(s.to_str() for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def checkpoint_faults(self, attempt: int) -> tuple[FaultSpec, ...]:
        """The ``corrupt-ckpt`` entries scheduled for this attempt."""
        return tuple(
            s for s in self.specs
            if s.kind == "corrupt-ckpt" and s.attempt == attempt
        )


def as_fault_plan(plan, seed: int = 0) -> FaultPlan | None:
    """Coerce None / string / plan into a :class:`FaultPlan` (or None)."""
    if plan is None:
        return None
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        return FaultPlan.parse(plan, seed=seed)
    raise TypeError(f"cannot build a FaultPlan from {type(plan).__name__}")


class FaultInjector:
    """One rank's view of a fault plan during one attempt.

    Engines construct an injector per rank and probe it at well-defined
    points: :meth:`at_iteration` at the top of every inner iteration,
    :meth:`corrupt_window` after packing each halo send window.  The
    probes are O(1) dict lookups, so leaving injection wired into the
    production loop costs nothing when no plan is set.

    ``in_process=True`` (the sim and serial engines) converts the
    process-level faults into :class:`FaultInjected` exceptions so the
    host interpreter survives; the mp engine runs them for real.
    """

    def __init__(
        self,
        plan: FaultPlan | None,
        *,
        rank: int = 0,
        attempt: int = 1,
        in_process: bool = False,
    ) -> None:
        self.rank = int(rank)
        self.attempt = int(attempt)
        self.in_process = bool(in_process)
        self.seed = plan.seed if plan is not None else 0
        self._at: dict[int, FaultSpec] = {}
        self._halo: dict[int, FaultSpec] = {}
        for spec in (plan.specs if plan is not None else ()):
            if spec.rank != self.rank or spec.attempt != self.attempt:
                continue
            if spec.kind in ITERATION_KINDS:
                for m in range(spec.m, spec.m + spec.count):
                    self._at[m] = spec
            elif spec.kind == "corrupt-halo":
                self._halo[spec.m] = spec

    def __bool__(self) -> bool:
        return bool(self._at or self._halo)

    def at_iteration(self, m: int) -> None:
        """Fire any fault planned for iteration ``m`` on this rank."""
        spec = self._at.get(m)
        if spec is None:
            return
        msg = f"injected fault in rank {self.rank} at m={m}"
        if spec.kind == "slow":
            time.sleep(spec.delay or 0.01)
            return
        if spec.kind == "stall":
            if self.in_process:
                time.sleep(min(spec.delay or 0.05, 0.25))
                raise FaultInjected(f"{msg} (stall)", kind="stall")
            time.sleep(spec.delay or _STALL_SLEEP)
            return
        if spec.kind == "crash" and not self.in_process:
            os._exit(3)  # simulated hard node failure (SIGKILL-like)
        raise FaultInjected(msg, kind=spec.kind)

    def corrupt_window(self, m: int, window: np.ndarray) -> bool:
        """Overwrite a packed halo window with seeded noise if planned."""
        spec = self._halo.get(m)
        if spec is None:
            return False
        rng = np.random.default_rng(
            [abs(int(self.seed)) % 2**32, self.rank, m]
        )
        noise = rng.standard_normal(window.shape) + 1j * rng.standard_normal(
            window.shape
        )
        window[...] = noise.astype(window.dtype)
        return True


def corrupt_checkpoint_file(path: str | Path, seed: int = 0) -> bool:
    """Truncate + scribble a checkpoint file in place (a drill, not an op).

    Returns False when the file does not exist.  The damage is
    deterministic in ``seed`` and guaranteed to fail both the zip layer
    and the integrity digest, so ``KpmCheckpoint.load`` surfaces a
    :class:`~repro.util.errors.CheckpointError`.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    if not path.exists():
        return False
    data = path.read_bytes()
    keep = max(len(data) // 2, 1)
    rng = np.random.default_rng(abs(int(seed)) % 2**32)
    path.write_bytes(bytes(data[:keep]) + rng.bytes(16))
    return True
