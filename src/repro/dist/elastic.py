"""Elastic distributed execution: rebalancing and membership changes
that never change the numbers.

The paper tunes its CPU/GPU row weights *before* the run (Section VI-B)
and names automatic weights as the next step (Section VII); at scale,
ranks also slow down and come and go mid-run.  The one eta reduction
(DESIGN §19) makes every 64-row block's bins add exactly in any order,
so a block may change owner between two iterations without moving a
bit of eta: only its ``(v, w)`` rows move.

So join, leave and rebalance are one operation — new weights at a
boundary — applied inside one run (:func:`~repro.dist.kpm_parallel.
run_distributed`) on one world, sized once to the initial workers plus
the plan's joins.  A planned join gives weight to a parked rank (weight
zero: no rows), a planned leave sets a rank's weight to zero, and a
rebalance is the :class:`RebalanceMonitor`'s: after ``windows``
consecutive windows whose busy-time spread ``(max − min) / mean``
exceeds ``threshold`` (busy seconds exclude the waits where fast ranks
absorb a slow peer's skew; the sim engine takes a ``timer``'s
prediction) it solves the throughput fixed point
(:func:`~repro.dist.partition.autotune_weights`) on the measured
rows/second.  When the weights change, the ranks stage their rows
through the checkpoint slot, take their new blocks and go on at the
next iteration.

Only an unplanned death ends the run (a
:class:`~repro.util.errors.WorkerFailure`): the driver drops the dead
ranks, renormalizes the surviving weights, bumps the fault-injection
attempt (a one-shot fault does not chase the retry) and re-runs the
survivors from the run's own last checkpoint, or from the start.  Every
event is counted in the caller's :class:`~repro.obs.metrics.
MetricsRegistry` (``elastic.*``) and recorded on the
:class:`ElasticReport`, with every boundary's partition and busy
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, RunContext
from repro.core.scaling import SpectralScale
from repro.dist.comm import MessageLog, SimWorld
from repro.dist.kpm_parallel import run_distributed
from repro.dist.partition import (AutotuneResult, RowPartition, TimerFn,
                                  _spread, autotune_weights)
from repro.obs.metrics import NULL_METRICS
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import ETA_BLOCK
from repro.util.errors import SimulationError, WorkerFailure
from repro.util.knobs import ExecConfig

__all__ = [
    "RebalancePolicy",
    "resolve_rebalance",
    "MembershipSpec",
    "MembershipPlan",
    "MembershipEvent",
    "RebalanceMonitor",
    "ElasticReport",
    "elastic_eta",
]


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

#: Underrelaxation of :func:`autotune_weights` on measured rates.
DAMPING = 1.0
#: No repartition when fewer inner iterations than this remain (it would
#: cost more than it saves).
MIN_ITERS_LEFT = 2
#: Weight recomputations per run, at most.
MAX_REBALANCES = 4
#: Ranks lost to deaths before the driver gives up (guards against a
#: fault that kills every retry).
MAX_LEAVES = 8


@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the elastic driver: boundaries land every ``interval``
    inner iterations (and at every planned membership change); a window
    between two counts as skewed when its busy-time spread ``(max − min)
    / mean`` exceeds ``threshold``, and ``windows`` skewed ones in a row
    rebalance (a one-window hiccup is not a reason to repartition)."""

    threshold: float = 0.25
    windows: int = 2
    interval: int = 8

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.windows < 1 or self.interval < 1:
            raise ValueError(
                f"windows/interval must be >= 1, got "
                f"{self.windows}/{self.interval}"
            )


def resolve_rebalance(rebalance) -> RebalancePolicy | None:
    """Coerce the user-facing ``rebalance=`` knob into a policy.

    ``None``/``False``/``'off'`` → None (no rebalancing);
    ``True``/``'auto'`` → the default policy; a number (or numeric
    string, e.g. from the CLI) → default policy with that threshold; a
    :class:`RebalancePolicy` passes through.
    """
    if isinstance(rebalance, RebalancePolicy):
        return rebalance
    if rebalance is None or isinstance(rebalance, (bool, int, float, str)):
        text = str(rebalance).strip().lower()
        if text in ("", "off", "none", "no", "false"):
            return None
        if text in ("auto", "on", "yes", "true"):
            return RebalancePolicy()
        try:
            return RebalancePolicy(threshold=float(text))
        except ValueError:
            raise ValueError(
                f"rebalance must be 'off', 'auto', or a threshold, "
                f"got {rebalance!r}"
            ) from None
    raise TypeError(
        f"cannot build a RebalancePolicy from {type(rebalance).__name__}"
    )


# ----------------------------------------------------------------------
# planned membership
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipSpec:
    """One planned membership change at the boundary ``m``: ``join``
    gives ``ranks`` parked workers the mean weight, ``leave`` zeroes
    world rank ``rank``'s (its rows pass to the others)."""

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


#: The fields each kind of membership entry reads.
_FIELDS = {"join": ("m", "ranks"), "leave": ("m", "rank")}


@dataclass(frozen=True)
class MembershipPlan:
    """Planned joins/leaves: ``'join:m=8;leave:m=16,rank=0'``."""

    specs: tuple[MembershipSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "MembershipPlan":
        specs = []
        for entry in filter(None, (e.strip() for e in text.split(";"))):
            kind, _, args = entry.partition(":")
            kind = kind.strip()
            kw: dict = {}
            for pair in filter(None, (p.strip() for p in args.split(","))):
                key, sep, val = pair.partition("=")
                key = key.strip()
                if not sep or key not in ("m", "rank", "ranks"):
                    raise ValueError(
                        f"malformed membership entry {entry!r}: expected "
                        f"m=/rank=/ranks= pairs, got {pair!r}"
                    )
                if key not in _FIELDS.get(kind, (key,)):
                    raise ValueError(
                        f"membership entry {entry!r}: a {kind} takes no "
                        f"{key}="
                    )
                kw[key] = int(val)
            if "m" not in kw:
                raise ValueError(f"membership entry {entry!r} needs m=")
            specs.append(MembershipSpec(kind, **kw))
        return cls(tuple(sorted(specs, key=lambda s: s.m)))

    def __str__(self) -> str:
        return ";".join(
            f"{s.kind}:m={s.m}" + (f",rank={s.rank}" if s.kind == "leave"
                                   else f",ranks={s.ranks}" * (s.ranks != 1))
            for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def boundaries(self) -> list[int]:
        """Iteration indices where a planned change must land."""
        return sorted({s.m for s in self.specs})

    def at(self, m: int) -> tuple[MembershipSpec, ...]:
        return tuple(s for s in self.specs if s.m == m)


def as_membership_plan(plan) -> MembershipPlan | None:
    """Coerce None / string / plan into a :class:`MembershipPlan` (an
    empty one: None)."""
    if isinstance(plan, str):
        plan = MembershipPlan.parse(plan)
    if plan is None or isinstance(plan, MembershipPlan):
        return plan or None
    raise TypeError(
        f"cannot build a MembershipPlan from {type(plan).__name__}"
    )


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change or rebalance as it actually happened."""

    kind: str  # 'join' | 'leave' | 'rebalance'
    m: int  # the boundary, or the iteration a death's retry starts at
    ranks: tuple[int, ...] = ()  # affected world ranks
    planned: bool = True  # False for deaths detected at runtime
    detail: str = ""

    def describe(self) -> str:
        who = f" ranks {list(self.ranks)}" if self.ranks else ""
        tag = "" if self.planned else " (failure)"
        out = f"{self.kind}{who} at m={self.m}{tag}"
        return out + (f": {self.detail}" if self.detail else "")


# ----------------------------------------------------------------------
# skew monitor
# ----------------------------------------------------------------------


class RebalanceMonitor:
    """Debounced skew detector over per-window rank busy times.

    :meth:`observe` ingests a window's rows and busy seconds per rank;
    ``windows`` consecutive observations above ``threshold`` arm
    :attr:`should_rebalance`, and :meth:`retune` solves the throughput
    fixed point on the measured rows/second.  One observation below
    threshold resets the streak: a hiccup never repartitions.
    """

    def __init__(self, policy: RebalancePolicy) -> None:
        self.policy = policy
        self._streak = 0
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def observe(self, counts, busy) -> float:
        """Ingest one window's (rows per rank, busy seconds per rank)."""
        counts = np.asarray(counts, dtype=float)
        busy = np.asarray(busy, dtype=float)
        imb = _spread(busy)
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
            align=ETA_BLOCK, initial_weights=weights, damping=DAMPING,
        )
        self.reset()
        return result


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Boundary:
    """One boundary of an elastic run: the window ``[.., m)`` that ended
    there — its partition ``offsets`` and per-rank ``busy`` seconds (None
    unmeasured) — before the report's events at ``m`` took effect."""

    m: int
    offsets: tuple[int, ...]
    busy: tuple[float, ...] | None = None
    imbalance: float | None = None


@dataclass
class ElasticReport:
    """What an elastic run did: boundaries, membership, rebalances."""

    engine: str
    boundaries: list[Boundary] = field(default_factory=list)
    events: list[MembershipEvent] = field(default_factory=list)
    rebalances: int = 0
    joins: int = 0
    leaves: int = 0
    final_weights: list[float] = field(default_factory=list)
    final_n_workers: int = 0
    log: MessageLog | None = None
    #: OS names of the arena segment(s) the final attempt's mp world
    #: mapped — all must be dead once the run returns (leak-check hook)
    segment_names: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"elastic run: {len(self.boundaries)} "
            f"boundar{'y' if len(self.boundaries) == 1 else 'ies'}, "
            f"engine={self.engine}, finished on {self.final_n_workers} "
            f"worker(s)",
            f"  rebalances={self.rebalances} joins={self.joins} "
            f"leaves={self.leaves}",
        ]
        for b in self.boundaries:
            imb = "-" if b.imbalance is None else f"{b.imbalance:.3f}"
            line = f"  m={b.m} imbalance={imb}"
            events = [e.describe() for e in self.events
                      if e.m == b.m and e.planned]
            if events:
                line += " [" + "; ".join(events) + "]"
            lines.append(line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def _apply(weights: list[float], parked: list[int], spec: MembershipSpec):
    """``(weights, parked, ranks)`` after one planned change: a join
    gives the first parked ranks the mean weight, a leave zeroes one."""
    weights, active = list(weights), [p for p, x in enumerate(weights) if x]
    if spec.kind == "join":
        mean = sum(weights) / len(active)
        ranks, parked = tuple(parked[:spec.ranks]), parked[spec.ranks:]
        for p in ranks:
            weights[p] = mean
    else:
        if spec.rank not in active or len(active) == 1:
            raise SimulationError(
                f"membership plan retires rank {spec.rank} of a "
                f"{len(active)}-worker world at m={spec.m}"
            )
        weights[spec.rank], ranks = 0.0, (spec.rank,)
    total = sum(weights)
    return [x / total for x in weights], parked, ranks


class _Decisions:
    """One elastic attempt's boundaries and what happens at each: the
    busy seconds (or the ``timer``'s prediction) and the plan become
    weights, and new weights a partition of ``A`` (called by the run's
    transport, see :class:`~repro.dist.kpm_parallel.RunSetup`)."""

    def __init__(self, A, weights, parked, policy, plan, timer, report,
                 sink) -> None:
        self.A, self.weights, self.parked = A, weights, parked
        self.policy, self.plan, self.timer = policy, plan, timer
        self.report, self.sink = report, sink
        self.monitor = RebalanceMonitor(policy or RebalancePolicy())
        self.part = RowPartition.from_weights(A.n_rows, weights,
                                              align=ETA_BLOCK)
        self.half = 0
        self.epochs: list[tuple[int, RowPartition]] = []  # the changes

    def bounds(self, first_m: int, half: int) -> tuple[int, ...]:
        """Every ``interval`` iterations from ``first_m`` and every
        planned change, in ``(first_m, half)``."""
        self.half, step = half, self.policy and self.policy.interval
        grid = range(first_m + step, half, step) if step else ()
        return tuple(sorted({*grid, *(
            m for m in self.plan.boundaries() if first_m < m < half)}))

    def __call__(self, m: int, busy) -> RowPartition | None:
        """The partition the ranks take before iteration ``m``, or None."""
        rep, counts = self.report, self.part.counts()
        active = [p for p, x in enumerate(self.weights) if x]
        if busy is None and self.timer is not None:
            busy = [float(self.timer(p, int(counts[p])))
                    for p in range(len(counts))]
        imb = None
        if busy is not None and len(active) > 1:
            imb = self.monitor.observe(counts[active],
                                       [busy[p] for p in active])
            self.sink.gauge("elastic.imbalance", imb)
        weights, events = self.weights, []
        if (self.policy is not None and self.monitor.should_rebalance
                and len(active) > 1 and rep.rebalances < MAX_REBALANCES
                and self.half - m >= MIN_ITERS_LEFT):
            timer = self.timer and (lambda i, nn: self.timer(active[i], nn))
            tuned = dict(zip(active, self.monitor.retune(
                self.A.n_rows, [weights[p] for p in active], timer).weights))
            weights = [tuned.get(p, 0.0) for p in range(len(weights))]
            rep.rebalances += 1
            self.sink.count("elastic.rebalances")
            events.append(MembershipEvent(
                "rebalance", m=m, ranks=tuple(active),
                detail=f"weights -> {[round(tuned[p], 3) for p in active]}"))
        for spec in self.plan.at(m):
            weights, self.parked, ranks = _apply(weights, self.parked, spec)
            kind = "joins" if spec.kind == "join" else "leaves"
            setattr(rep, kind, getattr(rep, kind) + len(ranks))
            self.sink.count(f"elastic.{kind}", len(ranks))
            self.monitor.reset()  # rank identities changed
            events.append(MembershipEvent(spec.kind, m=m, ranks=ranks))
        rep.events += events
        rep.boundaries.append(Boundary(
            m, tuple(self.part.offsets), imbalance=imb,
            busy=None if busy is None else tuple(busy)))
        if weights == self.weights:
            return None
        self.weights = weights
        self.part = RowPartition.from_weights(self.A.n_rows, weights,
                                              align=ETA_BLOCK)
        self.epochs.append((m, self.part))
        return self.part


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
    counters=NULL_METRICS,
    metrics=NULL_METRICS,
    fault_plan=None,
    attempt: int = 1,
    resume_from: KpmCheckpoint | str | Path | None = None,
    timer: TimerFn | None = None,
    config: ExecConfig | None = None,
    **knobs,
) -> tuple[np.ndarray, ElasticReport]:
    """``(eta, report)``: eta (R, M), bitwise an uninterrupted run's, from
    a run whose weights change at its boundaries — each
    ``policy.interval`` iterations (the default policy when None) and
    each :class:`MembershipPlan` change — and its :class:`ElasticReport`.

    ``n_workers``/``weights``/``policy``/``membership``/``engine`` name
    the :class:`~repro.util.knobs.ExecConfig` fields ``workers``/
    ``weights``/``rebalance``/``membership``/``engine`` (``'mp'``, the
    default, measures busy times; ``'sim'`` has only the ``timer``'s);
    ``config``/knobs carry the rest (``overlap`` off unless given), the
    other keywords the run controls (DESIGN §17).  Counters equal an
    uninterrupted run's; the log adds each re-slice's handed-over rows.
    """
    named = {"workers": n_workers, "weights": weights, "rebalance": policy,
             "membership": membership, "engine": engine}
    cfg = ExecConfig.of(
        config, {**{k: v for k, v in named.items() if v is not None}, **knobs},
        engine="mp", overlap=False, rebalance=RebalancePolicy(),
    )
    ctx = RunContext.of(counters=counters, metrics=metrics,
                        fault_plan=fault_plan, attempt=attempt,
                        resume_from=resume_from)
    return run_elastic(cfg, ctx, A, scale, n_moments, start_block,
                       timer=timer)


def run_elastic(cfg: ExecConfig, ctx: RunContext, A: CSRMatrix,
                scale: SpectralScale, n_moments: int, start_block,
                *, timer: TimerFn | None = None):
    """:func:`elastic_eta` on a built config and context: one
    :func:`~repro.dist.kpm_parallel.run_distributed` per attempt."""
    if cfg.engine not in ("mp", "sim"):
        raise ValueError(f"engine must be 'mp' or 'sim', got {cfg.engine!r}")
    from repro.dist.mp import MpWorld  # local import: mp pulls this module

    plan = cfg.membership or MembershipPlan()
    joins = sum(s.ranks for s in plan.specs if s.kind == "join")
    weights = list(cfg.weights or [1.0] * cfg.workers)
    weights = [x / sum(weights) for x in weights] + [0.0] * joins
    parked = list(range(cfg.workers, len(weights)))
    check = (weights, parked)
    for spec in plan.specs:  # refuse a plan that empties the world up front
        check = _apply(*check, spec)[:2]

    report = ElasticReport(engine=cfg.engine, log=MessageLog())
    deaths = 0
    while True:
        world = (MpWorld(len(weights), timeouts=ctx.timeouts)
                 if cfg.engine == "mp" else SimWorld(len(weights)))
        world.log = report.log
        decide = _Decisions(A, weights, parked, cfg.rebalance, plan, timer,
                            report, ctx.sink)
        try:
            eta = run_distributed(cfg, ctx, A, decide.part, scale, n_moments,
                                  start_block, world, elastic=decide)
            break
        except WorkerFailure as wf:
            dead = sorted({f.rank for f in wf.failures})
            deaths += len(dead)
            alive = [p for p in range(len(weights)) if p not in dead]
            last = report.boundaries[-1].m if report.boundaries else 0
            if not dead or deaths > MAX_LEAVES or \
                    not any(decide.weights[p] for p in alive):
                raise
            # the survivors go on from the run's last checkpoint (or its
            # start) under the weights reached, the rest of the plan
            # renumbered; armed one-shot faults stay fired
            total = sum(decide.weights[p] for p in alive)
            weights = [decide.weights[p] / total for p in alive]
            parked = [alive.index(p) for p in decide.parked if p in alive]
            plan = MembershipPlan(tuple(
                replace(s, rank=alive.index(s.rank) if s.kind == "leave"
                        else s.rank)
                for s in plan.specs if s.m > last
                and (s.kind == "join" or s.rank in alive)))
            ck = world.last_checkpoint
            ctx = replace(ctx, attempt=ctx.attempt + 1,
                          resume_from=ck or ctx.resume_from)
            report.events.append(MembershipEvent(
                "leave", m=ck.next_m if ck else 1, ranks=tuple(dead),
                planned=False,
                detail="; ".join(f.describe() for f in wf.failures)))
            report.leaves += len(dead)
            ctx.sink.count("elastic.leaves", len(dead))
            ctx.sink.count("elastic.retries")

    report.final_weights = [x for x in decide.weights if x]
    report.final_n_workers = len(report.final_weights)
    report.segment_names = list(getattr(world, "last_segment_names", ()))
    return eta, report
