"""Elastic distributed execution: rebalancing and membership changes
that never change the numbers.

The paper tunes its CPU/GPU row weights *before* the run (Section VI-B)
and keeps the communicator fixed for its lifetime.  At scale neither
assumption survives: ranks slow down mid-run (contention, clock
throttling, a sick node) and ranks come and go (preemption, node
failure, capacity arriving late).  This module makes both first-class
while keeping the one property that makes elasticity trustworthy — the
fp64 moments of an elastically executed run are **bitwise identical** to
an uninterrupted run on any fixed partition.

Two mechanisms compose into that guarantee:

* **Grid eta** (``eta_grid=B`` on the engines): the per-iteration dot
  products are accumulated per fixed global block of ``B`` rows instead
  of per rank, and the final reduction sums the ``ceil(N/B)`` block
  partials in block order.  The reduction order then depends only on
  ``(N, B)`` — never on the partition, the number of ranks, the engine,
  or the schedule — so *repartitioning never changes the eta reduction
  order* (DESIGN §11).  Partitions are built with ``align=B`` so every
  block has exactly one owner.

* **Segmented execution** (``stop_m`` on the engines): the driver runs
  the recurrence in segments ``[first_m, stop_m)``, pausing at an
  iteration boundary by publishing the global recurrence state through
  the engines' existing checkpoint path, then resuming the next segment
  under a *new* partition / world size via the existing ``resume_from``
  splice.  Checkpoint resume was already bitwise on a fixed partition;
  grid eta removes the partition from the equation.

On top of the invariant sit the two elastic behaviours:

* :class:`RebalanceMonitor` consumes the per-rank ``rank_busy`` span
  totals that the mp workers ship through the observability segment
  (compute + injected-fault time, *excluding* barrier waits, where fast
  ranks absorb their peers' skew) and computes the
  ``(max − min) / mean`` spread — the same statistic as
  :meth:`AutotuneResult.imbalance`.  After ``windows`` consecutive
  segments above ``threshold`` the driver re-runs the throughput fixed
  point (:func:`autotune_weights`) on the measured rows/second and
  repartitions at the next boundary.  That fixed point is the paper's
  outlook realized — "a future step could be to determine the process
  weights for heterogeneous execution automatically" (Section VII): from
  any weights, short measurement rounds give each rank's time per row,
  and the update ``w_p <- (rows_p / t_p) / sum_q (rows_q / t_q)``
  converges to throughput-proportional weights in typically 2-3 rounds.

* **Elastic membership**: a worker death inside a segment surfaces as a
  :class:`~repro.util.errors.WorkerFailure`; the driver drops the dead
  ranks, renormalizes the surviving weights, bumps the fault-injection
  attempt (so a planned one-shot fault does not chase the retry), and
  re-runs the segment from its entry state on the survivors — no engine
  degradation needed.  Planned ``join``/``leave`` events
  (:class:`MembershipPlan`) grow or shrink the world at segment
  boundaries.

Every membership event and rebalance is counted in the caller's
:class:`~repro.obs.metrics.MetricsRegistry` (``elastic.*``) and recorded
on the returned :class:`ElasticReport`.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.checkpoint import KpmCheckpoint
from repro.core.scaling import SpectralScale
from repro.dist.comm import MessageLog, SimWorld
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil.faults import FaultPlan, as_fault_plan
from repro.sparse.csr import CSRMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import PartitionError, SimulationError, WorkerFailure
from repro.util.knobs import ExecConfig
from repro.util.validation import check_positive

__all__ = [
    "RebalancePolicy",
    "resolve_rebalance",
    "MembershipSpec",
    "MembershipPlan",
    "MembershipEvent",
    "RebalanceMonitor",
    "SegmentRecord",
    "ElasticReport",
    "elastic_eta",
    "AutotuneResult",
    "autotune_weights",
    "throughput_timer",
]


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the elastic driver.

    grid:
        Eta-grid block height ``B`` (rows).  Partitions are aligned to
        it; the bitwise invariant is "reduction order depends only on
        (N, B)".
    threshold:
        Relative busy-time spread ``(max − min) / mean`` above which a
        segment counts as skewed.
    windows:
        Consecutive skewed segments required before a rebalance fires
        (debounce: a one-segment hiccup is not a reason to repartition).
    interval:
        Segment length in inner iterations — the rebalance/membership
        decision cadence.  Boundaries land at
        ``first_m + interval`` (clipped by planned membership events).
    damping:
        Underrelaxation for :func:`autotune_weights` on measured rates.
    min_iters_left:
        Do not repartition when fewer inner iterations than this remain
        (the repartition would cost more than it saves).
    max_rebalances:
        Hard cap on weight recomputations per run.
    membership:
        Allow worker-death recovery by re-partitioning to survivors
        (off → a death propagates as :class:`WorkerFailure`, and the
        resilience supervisor's engine ladder takes over).
    max_leaves:
        Hard cap on ranks lost to deaths before giving up (guards
        against a fault that kills every retry).
    """

    grid: int = 64
    threshold: float = 0.25
    windows: int = 2
    interval: int = 8
    damping: float = 1.0
    min_iters_left: int = 2
    max_rebalances: int = 4
    membership: bool = True
    max_leaves: int = 8

    def __post_init__(self) -> None:
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.windows < 1 or self.interval < 1:
            raise ValueError(
                f"windows/interval must be >= 1, got "
                f"{self.windows}/{self.interval}"
            )
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


def resolve_rebalance(rebalance) -> RebalancePolicy | None:
    """Coerce the user-facing ``rebalance=`` knob into a policy.

    ``None``/``False``/``'off'`` → None (elastic execution disabled);
    ``True``/``'auto'`` → the default policy; a number (or numeric
    string, e.g. from the CLI) → default policy with that threshold; a
    :class:`RebalancePolicy` passes through.
    """
    if rebalance is None or rebalance is False:
        return None
    if isinstance(rebalance, RebalancePolicy):
        return rebalance
    if rebalance is True:
        return RebalancePolicy()
    if isinstance(rebalance, str):
        text = rebalance.strip().lower()
        if text in ("", "off", "none", "no"):
            return None
        if text in ("auto", "on", "yes"):
            return RebalancePolicy()
        try:
            return RebalancePolicy(threshold=float(text))
        except ValueError:
            raise ValueError(
                f"rebalance must be 'off', 'auto', or a threshold, "
                f"got {rebalance!r}"
            ) from None
    if isinstance(rebalance, (int, float)):
        return RebalancePolicy(threshold=float(rebalance))
    raise TypeError(
        f"cannot build a RebalancePolicy from {type(rebalance).__name__}"
    )


# ----------------------------------------------------------------------
# planned membership
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipSpec:
    """One planned membership change, applied at the boundary ``m``.

    ``join`` adds ``ranks`` workers (each entering with the mean of the
    current weights); ``leave`` retires rank index ``rank`` gracefully
    (its state is in the boundary checkpoint, so nothing is lost).
    """

    kind: str
    m: int
    rank: int = 0
    ranks: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ValueError(
                f"membership kind must be 'join' or 'leave', got {self.kind!r}"
            )
        if self.m < 1 or self.rank < 0 or self.ranks < 1:
            raise ValueError(f"invalid membership spec {self}")


@dataclass(frozen=True)
class MembershipPlan:
    """Planned joins/leaves: ``'join:m=8;leave:m=16,rank=0'``."""

    specs: tuple[MembershipSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "MembershipPlan":
        specs = []
        for entry in filter(None, (e.strip() for e in text.split(";"))):
            kind, _, args = entry.partition(":")
            kw: dict = {}
            for pair in filter(None, (p.strip() for p in args.split(","))):
                key, sep, val = pair.partition("=")
                if not sep or key.strip() not in ("m", "rank", "ranks"):
                    raise ValueError(
                        f"malformed membership entry {entry!r}: expected "
                        f"m=/rank=/ranks= pairs, got {pair!r}"
                    )
                kw[key.strip()] = int(val)
            if "m" not in kw:
                raise ValueError(f"membership entry {entry!r} needs m=")
            specs.append(MembershipSpec(kind.strip(), **kw))
        return cls(tuple(sorted(specs, key=lambda s: s.m)))

    def __str__(self) -> str:
        parts = []
        for s in self.specs:
            bits = [f"m={s.m}"]
            if s.kind == "leave":
                bits.append(f"rank={s.rank}")
            elif s.ranks != 1:
                bits.append(f"ranks={s.ranks}")
            parts.append(f"{s.kind}:{','.join(bits)}")
        return ";".join(parts)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def boundaries(self) -> list[int]:
        """Iteration indices where a planned change must land."""
        return sorted({s.m for s in self.specs})

    def at(self, m: int) -> tuple[MembershipSpec, ...]:
        return tuple(s for s in self.specs if s.m == m)


def as_membership_plan(plan) -> MembershipPlan | None:
    """Coerce None / string / plan into a :class:`MembershipPlan`."""
    if plan is None:
        return None
    if isinstance(plan, MembershipPlan):
        return plan
    if isinstance(plan, str):
        return MembershipPlan.parse(plan) or None
    raise TypeError(
        f"cannot build a MembershipPlan from {type(plan).__name__}"
    )


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change or rebalance as it actually happened."""

    kind: str  # 'join' | 'leave' | 'rebalance'
    m: int  # the boundary (joins, rebalances) or entry iteration (deaths)
    ranks: tuple[int, ...] = ()  # affected rank indices (pre-change)
    planned: bool = True  # False for deaths detected at runtime
    detail: str = ""

    def describe(self) -> str:
        who = f" ranks {list(self.ranks)}" if self.ranks else ""
        tag = "" if self.planned else " (failure)"
        out = f"{self.kind}{who} at m={self.m}{tag}"
        return out + (f": {self.detail}" if self.detail else "")


# ----------------------------------------------------------------------
# weight tuning: the throughput fixed point
# ----------------------------------------------------------------------

#: Timing callback signature: (rank, n_local_rows) -> seconds.
TimerFn = Callable[[int, int], float]


def _spread(times) -> float:
    """Relative spread ``(max − min) / mean`` of per-rank times.

    0.0 is perfectly balanced; guarded against a zero mean (all ranks
    measured 0 s are balanced by definition).
    """
    t = np.asarray(times, dtype=float)
    return float((t.max() - t.min()) / max(t.mean(), 1e-300))


@dataclass
class AutotuneResult:
    """Outcome of the weight auto-tuner."""

    weights: list[float]
    partition: RowPartition
    rounds: int
    converged: bool
    history: list[list[float]] = field(default_factory=list)

    def imbalance(self, times: list[float]) -> float:
        """The tuning loop's own convergence statistic, :func:`_spread`:
        a converged result reports ``imbalance(times) <= tolerance`` for
        its final round."""
        return _spread(times)


def throughput_timer(gflops_per_rank: list[float], flops_per_row: float) -> TimerFn:
    """Timing callback backed by per-rank Gflop/s (model or measured)."""
    rates = np.asarray(gflops_per_rank, dtype=float)
    if np.any(rates <= 0):
        raise PartitionError("rank performance must be positive")

    def timer(rank: int, n_rows: int) -> float:
        return n_rows * flops_per_row / (rates[rank] * 1e9)

    return timer


def autotune_weights(
    n_rows: int,
    n_ranks: int,
    timer: TimerFn,
    *,
    align: int = 4,
    initial_weights: list[float] | None = None,
    max_rounds: int = 8,
    tolerance: float = 0.02,
    damping: float = 1.0,
) -> AutotuneResult:
    """Iteratively balance rank weights until times agree within
    ``tolerance`` (relative spread of per-rank round times).

    The rank times come from ``timer``: the device performance model in
    the simulated environment, measured rows/second in a live run.
    ``damping`` < 1 underrelaxes the update, useful when the timing
    callback is noisy (real measurements).
    """
    check_positive("n_rows", n_rows)
    check_positive("n_ranks", n_ranks)
    check_positive("max_rounds", max_rounds)
    if not 0 < damping <= 1:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    weights = (
        np.full(n_ranks, 1.0 / n_ranks)
        if initial_weights is None
        else np.asarray(initial_weights, dtype=float)
    )
    if weights.shape != (n_ranks,) or np.any(weights < 0) or weights.sum() <= 0:
        raise PartitionError(f"invalid initial weights {initial_weights!r}")
    weights = weights / weights.sum()

    history: list[list[float]] = []
    part = RowPartition.from_weights(n_rows, weights.tolist(), align=align)
    for rounds in range(1, max_rounds + 1):
        counts = part.counts().astype(float)
        times = [timer(p, int(counts[p])) for p in range(n_ranks)]
        history.append(weights.tolist())
        if _spread(times) <= tolerance:
            return AutotuneResult(
                weights.tolist(), part, rounds, True, history
            )
        # observed throughput of each rank (rows per second); ranks that
        # got zero rows are probed with one alignment block so they can
        # re-enter the distribution
        probe = np.maximum(counts, align)
        probe_times = np.array(
            [max(timer(p, int(probe[p])), 1e-300) for p in range(n_ranks)]
        )
        thru = probe / probe_times
        target = thru / thru.sum()
        weights = (1.0 - damping) * weights + damping * target
        weights /= weights.sum()
        part = RowPartition.from_weights(n_rows, weights.tolist(), align=align)
    return AutotuneResult(weights.tolist(), part, max_rounds, False, history)


# ----------------------------------------------------------------------
# skew monitor
# ----------------------------------------------------------------------


class RebalanceMonitor:
    """Debounced skew detector over per-segment rank busy times.

    Each segment, :meth:`observe` ingests the per-rank busy seconds (the
    mp workers' ``rank_busy`` span totals) and the rows each rank owned;
    ``windows`` consecutive observations above ``threshold`` arm
    :attr:`should_rebalance`, and :meth:`retune` then solves the
    throughput fixed point on the measured rows/second to produce new
    weights.  One observation below threshold resets the streak — a
    transient hiccup never repartitions.
    """

    def __init__(self, policy: RebalancePolicy) -> None:
        self.policy = policy
        self.history: list[float] = []
        self._streak = 0
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def observe(self, counts, busy) -> float:
        """Ingest one segment's (rows per rank, busy seconds per rank)."""
        counts = np.asarray(counts, dtype=float)
        busy = np.asarray(busy, dtype=float)
        imb = _spread(busy)
        self.history.append(imb)
        if imb > self.policy.threshold and busy.min() > 0:
            self._streak += 1
            self._last = (counts, busy)
        else:
            self._streak = 0
        return imb

    @property
    def should_rebalance(self) -> bool:
        return self._streak >= self.policy.windows and self._last is not None

    def reset(self) -> None:
        self._streak = 0

    def retune(
        self, n_rows: int, weights: list[float], timer: TimerFn | None = None
    ) -> AutotuneResult:
        """New weights from the last skewed window's measured throughput.

        ``timer`` overrides the measured-rate model with an explicit
        prediction callback — the deterministic path used by tests and
        the sim engine (which has no real busy times to measure).
        """
        if timer is None:
            if self._last is None:
                raise SimulationError("no skewed window observed to retune on")
            counts, busy = self._last
            rates = np.where(counts > 0, counts / np.maximum(busy, 1e-12), 0.0)
            fallback = max(rates.max(), 1e-12)
            rates = np.where(rates > 0, rates, fallback)
            timer = lambda p, nn: nn / rates[p]  # noqa: E731
        result = autotune_weights(
            n_rows, len(weights), timer,
            align=self.policy.grid, initial_weights=weights,
            damping=self.policy.damping,
        )
        self.reset()
        return result


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

@dataclass
class SegmentRecord:
    """One executed segment of an elastic run."""

    first_m: int
    stop_m: int
    n_workers: int
    offsets: tuple[int, ...]
    attempt: int
    busy: tuple[float, ...] | None = None
    imbalance: float | None = None
    events: tuple[str, ...] = ()


@dataclass
class ElasticReport:
    """What an elastic run did: segments, membership, rebalances."""

    grid: int
    n_moments: int
    engine: str
    segments: list[SegmentRecord] = field(default_factory=list)
    events: list[MembershipEvent] = field(default_factory=list)
    rebalances: int = 0
    joins: int = 0
    leaves: int = 0
    final_weights: list[float] = field(default_factory=list)
    final_n_workers: int = 0
    log: MessageLog | None = None
    #: OS names of the arena segment(s) the final segment's mp world
    #: mapped — all must be dead once the run returns (leak-check hook)
    segment_names: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"elastic run: {len(self.segments)} segment(s), grid={self.grid}, "
            f"engine={self.engine}, finished on {self.final_n_workers} "
            f"worker(s)",
            f"  rebalances={self.rebalances} joins={self.joins} "
            f"leaves={self.leaves}",
        ]
        for seg in self.segments:
            imb = (
                "-" if seg.imbalance is None else f"{seg.imbalance:.3f}"
            )
            line = (
                f"  m=[{seg.first_m},{seg.stop_m}) workers={seg.n_workers} "
                f"imbalance={imb}"
            )
            if seg.events:
                line += " [" + "; ".join(seg.events) + "]"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "grid": self.grid,
            "n_moments": self.n_moments,
            "engine": self.engine,
            "rebalances": self.rebalances,
            "joins": self.joins,
            "leaves": self.leaves,
            "final_weights": list(self.final_weights),
            "final_n_workers": self.final_n_workers,
            "events": [e.describe() for e in self.events],
            "segments": [
                {
                    "first_m": s.first_m,
                    "stop_m": s.stop_m,
                    "n_workers": s.n_workers,
                    "offsets": list(s.offsets),
                    "attempt": s.attempt,
                    "busy": None if s.busy is None else list(s.busy),
                    "imbalance": s.imbalance,
                    "events": list(s.events),
                }
                for s in self.segments
            ],
        }


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def elastic_eta(
    A: CSRMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    *,
    n_workers: int | None = None,
    weights=None,
    policy: RebalancePolicy | None = None,
    membership: MembershipPlan | str | None = None,
    engine: str | None = None,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    fault_plan: FaultPlan | str | None = None,
    attempt: int = 1,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    timer: TimerFn | None = None,
    config: ExecConfig | None = None,
    **knobs,
) -> tuple[np.ndarray, ElasticReport]:
    """Run the KPM eta recurrence elastically, bitwise-stable throughout.

    The recurrence is executed in segments of ``policy.interval`` inner
    iterations under grid-eta mode.  At every boundary the driver reads
    the segment's per-rank ``rank_busy`` totals, feeds them to a
    :class:`RebalanceMonitor`, applies any planned
    :class:`MembershipPlan` joins/leaves, and — when the monitor has
    seen ``policy.windows`` consecutive skewed segments — recomputes the
    row weights from the measured throughput and repartitions.  A worker
    death inside a segment shrinks the world to the survivors and
    retries the segment from its entry checkpoint.  None of this
    changes the fp64 moments: grid mode fixes the eta reduction order to
    the global block grid, so the returned eta is bitwise identical to
    an uninterrupted run of the same problem on any fixed grid-aligned
    partition.

    ``n_workers``/``weights``/``policy``/``membership``/``engine`` are
    this entry's names for the :class:`~repro.util.knobs.ExecConfig`
    fields ``workers``/``weights``/``rebalance``/``membership``/
    ``engine``; ``config``/knobs carry the rest (``overlap`` off unless
    given).  ``engine`` is ``'mp'`` (the default: real worker processes;
    busy times are measured) or ``'sim'`` (in-process simulator; no real
    time exists, so skew detection and rebalancing only engage through
    the explicit ``timer`` prediction callback — the deterministic test
    path).  ``checkpoint_path`` is where boundary checkpoints are written
    (a temporary directory when omitted); ``counters``/``metrics``/the
    shared :class:`MessageLog` accumulate across segments to the same
    totals as one uninterrupted run (failed attempts charge nothing).
    ``resume_from`` continues an interrupted elastic run from a boundary
    checkpoint (it must carry the same ``eta_grid`` — the engines refuse
    a cross-grid resume).

    Returns ``(eta, report)`` with eta shaped (R, M) like the other
    engines and a :class:`ElasticReport` describing every segment and
    event.
    """
    named = {"workers": n_workers, "weights": weights, "rebalance": policy,
             "membership": membership, "engine": engine}
    cfg = ExecConfig.of(
        config, {**{k: v for k, v in named.items() if v is not None}, **knobs},
        engine="mp", overlap=False,
    )
    policy = cfg.rebalance or RebalancePolicy()
    plan = cfg.membership
    fault_plan = as_fault_plan(fault_plan)
    if cfg.engine not in ("mp", "sim"):
        raise ValueError(f"engine must be 'mp' or 'sim', got {cfg.engine!r}")
    from repro.dist.mp import MpWorld  # local import: mp pulls this module

    n, n_workers, engine = A.n_rows, cfg.workers, cfg.engine
    half = n_moments // 2
    if cfg.weights is None:
        cur_weights = [1.0 / n_workers] * n_workers
    else:
        w = np.asarray(cfg.weights)
        cur_weights = (w / w.sum()).tolist()

    shared_log = MessageLog()
    monitor = RebalanceMonitor(policy)
    report = ElasticReport(
        grid=policy.grid, n_moments=n_moments, engine=engine, log=shared_log
    )
    attempt_no = int(attempt)
    deaths = 0

    tmp = None
    if checkpoint_path is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-elastic-")
        checkpoint_path = Path(tmp.name) / "boundary.npz"
    checkpoint_path = Path(checkpoint_path)

    try:
        eta = None
        ck: KpmCheckpoint | None = None
        first_m = 1
        if resume_from is not None:
            ck = (
                resume_from
                if isinstance(resume_from, KpmCheckpoint)
                else KpmCheckpoint.load(resume_from)
            )
            first_m = ck.next_m
        while True:
            stop = min(half, first_m + policy.interval)
            if plan is not None:
                for b in plan.boundaries():
                    if first_m < b < stop:
                        stop = b
                        break
            is_final = stop >= half

            # -- run one segment (retrying on worker death) ------------
            while True:
                part = RowPartition.from_weights(
                    n, cur_weights, align=policy.grid
                )
                # an mp handle leases the same parked workers every
                # segment of a given world size
                world = (MpWorld if engine == "mp" else SimWorld)(n_workers)
                world.log = shared_log
                # Busy times ride the obs snapshots, which only ship
                # when *some* sink is live — force one if the caller's
                # are both null.
                seg_metrics = metrics
                if engine == "mp" and not metrics.enabled:
                    seg_metrics = MetricsRegistry()
                try:
                    eta = distributed_eta(
                        A, part, scale, n_moments,
                        start_block if ck is None else None,
                        world, config=cfg, counters=counters,
                        metrics=seg_metrics,
                        checkpoint_every=0 if is_final else stop - first_m,
                        checkpoint_path=checkpoint_path,
                        resume_from=ck, fault_plan=fault_plan,
                        attempt=attempt_no, eta_grid=policy.grid,
                        stop_m=stop,
                    )
                    break
                except WorkerFailure as wf:
                    dead = sorted({f.rank for f in wf.failures})
                    deaths += len(dead)
                    if (
                        not policy.membership
                        or not dead
                        or len(dead) >= n_workers
                        or deaths > policy.max_leaves
                    ):
                        raise
                    survivors = [
                        p for p in range(n_workers) if p not in dead
                    ]
                    total = sum(cur_weights[p] for p in survivors)
                    cur_weights = [cur_weights[p] / total for p in survivors]
                    n_workers = len(survivors)
                    attempt_no += 1  # armed one-shot faults stay fired
                    monitor.reset()  # old ranks' history is meaningless
                    event = MembershipEvent(
                        "leave", m=first_m, ranks=tuple(dead), planned=False,
                        detail="; ".join(f.describe() for f in wf.failures),
                    )
                    report.events.append(event)
                    report.leaves += len(dead)
                    metrics.count("elastic.leaves", len(dead))
                    metrics.count("elastic.retries")

            metrics.count("elastic.segments")
            seg_events: list[str] = []

            # -- read the segment's skew signal ------------------------
            busy = None
            if engine == "mp" and world.last_obs:
                busy = tuple(
                    float(
                        snap["metrics"]["timers"]
                        .get("rank_busy", {})
                        .get("total", 0.0)
                    )
                    for snap in world.last_obs
                )
            elif timer is not None:
                counts = part.counts()
                busy = tuple(
                    float(timer(p, int(counts[p]))) for p in range(n_workers)
                )
            imb = None
            if busy is not None and n_workers > 1:
                imb = monitor.observe(part.counts(), busy)
                metrics.gauge("elastic.imbalance", imb)

            # -- boundary decisions (not after the final segment) ------
            if not is_final:
                if (
                    monitor.should_rebalance
                    and n_workers > 1
                    and report.rebalances < policy.max_rebalances
                    and half - stop >= policy.min_iters_left
                ):
                    result = monitor.retune(n, cur_weights, timer)
                    cur_weights = result.weights
                    report.rebalances += 1
                    metrics.count("elastic.rebalances")
                    event = MembershipEvent(
                        "rebalance", m=stop,
                        ranks=tuple(range(n_workers)),
                        detail=f"weights -> "
                        f"{[round(x, 3) for x in cur_weights]}",
                    )
                    report.events.append(event)
                    seg_events.append(event.describe())
                for spec in plan.at(stop) if plan is not None else ():
                    if spec.kind == "join":
                        mean = sum(cur_weights) / len(cur_weights)
                        cur_weights = cur_weights + [mean] * spec.ranks
                        total = sum(cur_weights)
                        cur_weights = [x / total for x in cur_weights]
                        new = tuple(
                            range(n_workers, n_workers + spec.ranks)
                        )
                        n_workers += spec.ranks
                        report.joins += spec.ranks
                        metrics.count("elastic.joins", spec.ranks)
                        event = MembershipEvent("join", m=stop, ranks=new)
                    else:  # planned leave
                        if not 0 <= spec.rank < n_workers or n_workers == 1:
                            raise SimulationError(
                                f"membership plan retires rank {spec.rank} "
                                f"of a {n_workers}-worker world at m={stop}"
                            )
                        cur_weights = [
                            x for p, x in enumerate(cur_weights)
                            if p != spec.rank
                        ]
                        total = sum(cur_weights)
                        cur_weights = [x / total for x in cur_weights]
                        n_workers -= 1
                        report.leaves += 1
                        metrics.count("elastic.leaves")
                        event = MembershipEvent(
                            "leave", m=stop, ranks=(spec.rank,)
                        )
                    monitor.reset()  # rank identities changed
                    report.events.append(event)
                    seg_events.append(event.describe())

            report.segments.append(
                SegmentRecord(
                    first_m=first_m, stop_m=stop, n_workers=part.n_ranks,
                    offsets=tuple(part.offsets), attempt=attempt_no,
                    busy=busy, imbalance=imb, events=tuple(seg_events),
                )
            )

            if is_final:
                break

            # -- chain the boundary checkpoint into the next segment ---
            if engine == "mp":
                ck = world.last_checkpoint
            else:
                ck = KpmCheckpoint.load(checkpoint_path)
            if ck is None or ck.next_m != stop:
                got = None if ck is None else ck.next_m
                raise SimulationError(
                    f"segment [{first_m},{stop}) finished without its "
                    f"boundary checkpoint (got next_m={got})"
                )
            first_m = stop

        report.final_weights = list(cur_weights)
        report.final_n_workers = n_workers
        report.segment_names = list(getattr(world, "last_segment_names", ()))
        return eta, report
    finally:
        if tmp is not None:
            tmp.cleanup()
