"""The one measurement sink: timed spans that carry their kernels' bytes.

The paper puts two numbers on every kernel call — the minimum traffic of
Table I (Eqs. (5)-(7)) and the measured time — and validates the models
by their ratio (Eqs. (8)-(11)).  A :class:`MetricsRegistry` records both
in one place.  A span times one region; a kernel span also *charges*
its Table-I ``(loads, stores, flops)``::

    with sink.span("aug_spmmv") as sp:
        ...  # kernel call
        sp.charge("aug_spmmv", loads, stores, flops)

The wall time goes to ``timers["aug_spmmv"]``; the charge goes to the
per-family traffic table ``traffic["aug_spmmv"]`` and into the span's
own JSONL record when the registry carries a
:class:`~repro.obs.trace.Trace`.  Named counters, gauges and value
distributions ride along.  :class:`PerfCounters` is the same sink read
as the fold of its traffic table by kernel family (rank prefixes
dropped): exact integer bytes and flops, what
:func:`repro.perf.report.expected_counters` predicts.

:data:`NULL_METRICS` (≡ :data:`repro.util.counters.NULL_COUNTERS`) is the
one disabled sink: its ``span`` returns a shared constant and its
``charge`` returns at once, so the uninstrumented path allocates nothing.
A public entry point that still takes both ``counters=`` and
``metrics=`` resolves them with :func:`one_sink`.

Registries are mergeable (:meth:`MetricsRegistry.merge`, optionally
rank-prefixed) and serializable (:meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.merge_snapshot`): an mp worker ships one snapshot
back through its reply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType


@dataclass
class TimerStat:
    """Accumulated wall-clock statistics of one named timer."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def record(self, dt: float) -> None:
        self.count += 1
        self.total += dt
        if dt < self.min:
            self.min = dt
        if dt > self.max:
            self.max = dt

    @property
    def mean(self) -> float:
        """Mean span duration (0.0 when never recorded)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count, "total": self.total,
            "min": self.min, "max": self.max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimerStat":
        return cls(
            count=int(d["count"]), total=float(d["total"]),
            min=float(d["min"]), max=float(d["max"]),
        )

    def merge(self, other: "TimerStat") -> "TimerStat":
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


class _Span:
    """Context manager timing one instrumented region (see ``span()``)."""

    __slots__ = ("_registry", "name", "phase", "meta", "_t0", "bytes",
                 "flops")

    def __init__(self, registry, name, phase, meta) -> None:
        self._registry = registry
        self.name = name
        self.phase = phase
        self.meta = meta
        self.bytes = self.flops = None  # what the span charged, if any

    def charge(self, name: str, loads: int = 0, stores: int = 0,
               flops: int = 0) -> None:
        """Charge one kernel call to the registry's ``name`` family and
        to this span's trace record."""
        registry = self._registry
        registry.charge(name, loads, stores, flops)
        if registry.trace is not None:
            self.bytes = (self.bytes or 0) + loads + stores
            self.flops = (self.flops or 0) + flops

    def note(self, **meta) -> None:
        """Attach extra metadata to this span's trace record."""
        self.meta.update(meta)

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        registry = self._registry
        registry.timer(self.name).record(dt)
        if registry.trace is not None:
            registry._emit(self, dt)


class _NullSpan:
    """Shared do-nothing span returned by the disabled registry."""

    __slots__ = ()

    def charge(self, name, loads=0, stores=0, flops=0) -> None:
        return

    def note(self, **meta) -> None:
        return

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Timed spans, per-family traffic, counters, gauges, distributions.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.obs.trace.Trace`; every closed span is
        then also emitted as one JSONL record (with the bytes and flops
        it charged).
    enabled:
        When False every operation is a no-op (``span`` returns a shared
        null context manager, no dict lookups, no timing calls).
    """

    def __init__(self, trace=None, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.trace = trace
        self.timers: dict[str, TimerStat] = {}
        #: kernel family -> [loads, stores, flops, calls] (Table I)
        self.traffic: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.distributions: dict[str, TimerStat] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str, phase: str | None = None, **meta):
        """Open a timed span; use as a context manager.  A kernel span
        charges its call through the span's ``charge``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, phase, meta)

    def charge(self, name: str, loads: int = 0, stores: int = 0,
               flops: int = 0) -> None:
        """Add one call of kernel family ``name`` to the traffic table:
        its minimum bytes read / written and its real flops."""
        if not self.enabled:
            return
        t = self.traffic.get(name)
        if t is None:
            t = self.traffic[name] = [0, 0, 0, 0]
        t[0] += loads
        t[1] += stores
        t[2] += flops
        t[3] += 1

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to the most recent value."""
        if self.enabled:
            self.gauges[name] = value

    def timer(self, name: str) -> TimerStat:
        """The named timer's statistics (created empty on first access)."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        return stat

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the named value distribution.

        Distributions carry count/total/min/max/mean like timers but for
        arbitrary measured values — coalescing widths, bytes-per-request,
        queue depths — where a ``gauge`` would forget everything but the
        last sample and a ``count`` would forget the spread.
        """
        if self.enabled:
            self.distribution(name).record(value)

    def distribution(self, name: str) -> TimerStat:
        """The named distribution's stats (created empty on first access)."""
        stat = self.distributions.get(name)
        if stat is None:
            stat = self.distributions[name] = TimerStat()
        return stat

    def _emit(self, span: _Span, dt: float) -> None:
        """Write closed ``span``'s record to the trace."""
        record = {"name": span.name, "dt": dt}
        if span.phase is not None:
            record["phase"] = span.phase
        if span.bytes is not None:
            record["bytes"] = span.bytes
            record["flops"] = span.flops
        if span.meta:
            record.update(span.meta)
        self.trace.emit(record)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry", prefix: str = "") -> "MetricsRegistry":
        """Accumulate ``other`` into ``self``, optionally name-prefixed.

        A non-empty ``prefix`` (e.g. ``"rank2."``) keeps the merged
        entries distinguishable — how per-worker measurements stay
        rank-tagged in the parent.
        """
        return self.merge_snapshot(other.snapshot(), prefix)

    def merge_snapshot(self, snap: dict, prefix: str = "") -> "MetricsRegistry":
        """Accumulate a :meth:`snapshot` dict into ``self`` (see merge)."""
        if not self.enabled:
            return self
        for name, d in snap.get("timers", {}).items():
            self.timer(prefix + name).merge(TimerStat.from_dict(d))
        for name, row in snap.get("traffic", {}).items():
            t = self.traffic.setdefault(prefix + name, [0, 0, 0, 0])
            for i, v in enumerate(row):
                t[i] += v
        for name, v in snap.get("counters", {}).items():
            self.count(prefix + name, v)
        for name, v in snap.get("gauges", {}).items():
            self.gauge(prefix + name, v)
        for name, d in snap.get("distributions", {}).items():
            self.distribution(prefix + name).merge(TimerStat.from_dict(d))
        if self.trace is not None:  # a worker's span records, replayed
            for record in snap.get("trace", ()):
                self.trace.emit({**record, "name": prefix + record["name"]})
        return self

    def snapshot(self) -> dict:
        """JSON-serializable dump of every timer, traffic row, counter,
        gauge, and distribution — and the span records of an in-memory
        trace (a list, :class:`~repro.obs.trace.MemoryTrace`)."""
        snap = {
            "timers": {k: t.to_dict() for k, t in self.timers.items()},
            "traffic": {k: list(t) for k, t in self.traffic.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.distributions:
            snap["distributions"] = {
                k: t.to_dict() for k, t in self.distributions.items()
            }
        if isinstance(self.trace, list):
            snap["trace"] = list(self.trace)
        return snap

    def summary(self) -> str:
        """Human-readable multi-line summary, timers sorted by total time;
        a timer that charged shows its bytes, B/F and Gflop/s."""
        lines = []
        timers = sorted(
            self.timers.items(), key=lambda kv: kv[1].total, reverse=True
        )
        for name, t in timers:
            line = (
                f"{name:>24}: {t.count:>6} x  "
                f"total {t.total * 1e3:10.3f} ms  mean {t.mean * 1e6:9.1f} us"
            )
            loads, stores, nflops, _ = self.traffic.get(name, (0, 0, 0, 0))
            if nflops:
                line += (f"  {loads + stores:>14,} B"
                         f"  {(loads + stores) / nflops:6.3f} B/F")
                if t.total > 0:
                    line += f"  {nflops / t.total / 1e9:7.2f} Gflop/s"
            lines.append(line)
        for name, v in sorted(self.counters.items()):
            lines.append(f"{name:>24}: {v:,.0f}")
        for name, v in sorted(self.gauges.items()):
            lines.append(f"{name:>24}: {v:g}")
        for name, d in sorted(self.distributions.items()):
            lines.append(
                f"{name:>24}: {d.count:>6} x  mean {d.mean:12.2f}  "
                f"min {d.min:g}  max {d.max:g}"
            )
        if self.traffic:
            loads, stores, flops = (sum(t[i] for t in self.traffic.values())
                                    for i in range(3))
            balance = (loads + stores) / flops if flops else float("inf")
            lines.append(f"{'traffic':>24}: {loads + stores:,} B  {flops:,} F"
                         f"  balance {balance:.4g} B/F")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def _family(name: str) -> str:
    """A traffic row's kernel family: ``name`` less a ``rank<p>.``
    prefix (merged mp snapshots carry one)."""
    head, dot, leaf = name.partition(".")
    return leaf if dot and head[:4] == "rank" and head[4:].isdigit() else name


class PerfCounters(MetricsRegistry):
    """A sink read as its traffic fold: minimum bytes and flops per kernel
    family (paper Table I), ``rank<p>.`` prefixes dropped.

    Pass one as ``counters=`` (or ``metrics=``) and it fills as the run's
    only sink: its spans time the kernels, its fold is what
    :func:`~repro.perf.report.expected_counters` predicts exactly.
    Traffic actually observed on hardware is larger by the factor
    ``Omega = V_meas / V_KPM`` (paper Eq. (8)); that quantity comes from
    the cache simulator in :mod:`repro.perf.cachesim`.
    """

    def _total(self, i: int) -> int:
        return sum(t[i] for t in self.traffic.values())

    @property
    def bytes_loaded(self) -> int:
        """Compulsory bytes read from memory."""
        return self._total(0)

    @property
    def bytes_stored(self) -> int:
        """Compulsory bytes written to memory."""
        return self._total(1)

    @property
    def flops(self) -> int:
        """Real floating-point operations executed."""
        return self._total(2)

    @property
    def bytes_total(self) -> int:
        """Total compulsory traffic (loads + stores)."""
        return self.bytes_loaded + self.bytes_stored

    @property
    def code_balance(self) -> float:
        """Achieved minimum code balance in bytes/flop (inf when flops==0)."""
        flops = self.flops
        return self.bytes_total / flops if flops else float("inf")

    @property
    def calls(self) -> MappingProxyType:
        """Kernel calls per family (read-only)."""
        calls: dict[str, int] = {}
        for name, t in self.traffic.items():
            family = _family(name)
            calls[family] = calls.get(family, 0) + t[3]
        return MappingProxyType(calls)

    def reset(self) -> None:
        """Forget everything recorded."""
        for table in (self.timers, self.traffic, self.counters, self.gauges,
                      self.distributions):
            table.clear()


class _NullSink(PerfCounters):
    """The disabled sink: every operation is a no-op.

    It is the process-wide shared default of every kernel and entry
    point, so it must be impossible to corrupt: recording and merging do
    nothing (``enabled`` is False) and attribute assignment raises.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "NULL_METRICS is a shared immutable sentinel; create a "
                "MetricsRegistry() or PerfCounters() to record measurements"
            )
        super().__setattr__(name, value)

    def span(self, name, phase=None, **meta):  # the hot path: a constant
        return _NULL_SPAN

    def __reduce__(self) -> str:
        return "NULL_METRICS"  # unpickles as the receiving process's own


#: The one disabled sink, the default everywhere
#: (:data:`repro.util.counters.NULL_COUNTERS` is the same object).
NULL_METRICS = _NullSink()


def one_sink(counters: MetricsRegistry = NULL_METRICS,
             metrics: MetricsRegistry = NULL_METRICS) -> MetricsRegistry:
    """The one sink of an entry point's ``counters=``/``metrics=`` pair.

    Either may be live; both live (and distinct) is refused — pass one
    :class:`PerfCounters` (or registry) and read its fold and timers.
    """
    if metrics.enabled:
        if counters.enabled and counters is not metrics:
            raise ValueError(
                "counters= and metrics= are both live sinks; pass one "
                "PerfCounters (a MetricsRegistry) and read its fold"
            )
        return metrics
    return counters


#: Process-wide registry for rare runtime health events that happen
#: outside any per-run registry — backend compile failures, quarantines,
#: fallback decisions.  Always enabled (the events are rare enough that
#: the cost is irrelevant); callers wanting these events in a run report
#: merge it into their own registry.
GLOBAL_METRICS = MetricsRegistry()
