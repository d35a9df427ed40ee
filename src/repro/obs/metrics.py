"""Structured runtime metrics: named timers, counters, and gauges.

The paper's whole argument is measurement-driven — every model (code
balance Eq. (5)-(7), roofline Eq. (8)-(11), the cluster predictions) is
validated against *measured* traffic and wall time.  This module is the
runtime side of that methodology: a :class:`MetricsRegistry` collects
per-phase wall-clock spans and named counters/gauges while the solver
runs, cheap enough to stay enabled in production paths and free when the
shared no-op default :data:`NULL_METRICS` is used (mirroring
:data:`repro.util.counters.NULL_COUNTERS`).

A span is the unit of instrumentation::

    with metrics.span("aug_spmmv", phase="moments", counters=counters):
        ...  # kernel call

It records wall time into ``timers["aug_spmmv"]`` and, when a *live*
:class:`~repro.util.counters.PerfCounters` is passed, attributes the
bytes/flops charged inside the span to ``counters["bytes.aug_spmmv"]``
and ``counters["flops.aug_spmmv"]`` — so the achieved code balance of
every kernel falls out of one run.  When the registry carries a
:class:`~repro.obs.trace.Trace`, each closed span is additionally
emitted as one JSONL record.

Registries are mergeable (:meth:`MetricsRegistry.merge`, optionally
rank-prefixed) and serializable (:meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.merge_snapshot`), which is how the multiprocess
engine ships per-worker measurements back through shared memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


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

    __slots__ = ("_registry", "name", "phase", "meta", "_counters",
                 "_t0", "_bytes0", "_flops0")

    def __init__(self, registry, name, phase, counters, meta) -> None:
        self._registry = registry
        self.name = name
        self.phase = phase
        self.meta = meta
        self._counters = counters

    def note(self, **meta) -> None:
        """Attach extra metadata to this span's trace record."""
        self.meta.update(meta)

    def __enter__(self) -> "_Span":
        c = self._counters
        if c is not None and c.enabled:
            self._bytes0 = c.bytes_total
            self._flops0 = c.flops
        else:
            self._bytes0 = None
            self._flops0 = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        self._registry._close_span(self, dt)


class _NullSpan:
    """Shared do-nothing span returned by the disabled registry."""

    __slots__ = ()

    def note(self, **meta) -> None:
        return

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Named timers, counters, and gauges with span-based timing.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.obs.trace.Trace`; every closed span is
        then also emitted as one JSONL record.
    enabled:
        When False every operation is a no-op (``span`` returns a shared
        null context manager, no dict lookups, no timing calls).
    """

    def __init__(self, trace=None, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.trace = trace
        self.timers: dict[str, TimerStat] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.distributions: dict[str, TimerStat] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str, phase: str | None = None, counters=None, **meta):
        """Open a timed span; use as a context manager.

        ``counters`` may be a live :class:`PerfCounters`; the bytes/flops
        charged to it *inside* the span are attributed to this span (and
        to the ``bytes.<name>`` / ``flops.<name>`` metric counters).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, phase, counters, meta)

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

    def _close_span(self, span: _Span, dt: float) -> None:
        self.timer(span.name).record(dt)
        nbytes = nflops = None
        if span._bytes0 is not None:
            c = span._counters
            nbytes = c.bytes_total - span._bytes0
            nflops = c.flops - span._flops0
            self.count(f"bytes.{span.name}", nbytes)
            self.count(f"flops.{span.name}", nflops)
        if self.trace is not None:
            record = {"name": span.name, "dt": dt}
            if span.phase is not None:
                record["phase"] = span.phase
            if nbytes is not None:
                record["bytes"] = nbytes
                record["flops"] = nflops
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
        for name, v in snap.get("counters", {}).items():
            self.count(prefix + name, v)
        for name, v in snap.get("gauges", {}).items():
            self.gauge(prefix + name, v)
        for name, d in snap.get("distributions", {}).items():
            self.distribution(prefix + name).merge(TimerStat.from_dict(d))
        return self

    def snapshot(self) -> dict:
        """JSON-serializable dump of every timer, counter, gauge, and
        distribution."""
        snap = {
            "timers": {k: t.to_dict() for k, t in self.timers.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.distributions:
            snap["distributions"] = {
                k: t.to_dict() for k, t in self.distributions.items()
            }
        return snap

    def span_traffic(self, name: str) -> tuple[float | None, float | None]:
        """The (bytes, flops) attributed to the named timer's spans.

        Resolves the rank-prefixed form too: merged timer ``rank0.spmv``
        pairs with counters ``rank0.bytes.spmv`` / ``rank0.flops.spmv``.
        """
        prefix, _, leaf = name.rpartition(".")
        if prefix:
            return (
                self.counters.get(f"{prefix}.bytes.{leaf}"),
                self.counters.get(f"{prefix}.flops.{leaf}"),
            )
        return self.counters.get(f"bytes.{leaf}"), self.counters.get(f"flops.{leaf}")

    def summary(self) -> str:
        """Human-readable multi-line summary, timers sorted by total time."""
        lines = []
        timers = sorted(
            self.timers.items(), key=lambda kv: kv[1].total, reverse=True
        )
        for name, t in timers:
            line = (
                f"{name:>24}: {t.count:>6} x  "
                f"total {t.total * 1e3:10.3f} ms  mean {t.mean * 1e6:9.1f} us"
            )
            nbytes, nflops = self.span_traffic(name)
            if nflops:
                line += f"  {nbytes / nflops:6.3f} B/F"
                if t.total > 0:
                    line += f"  {nflops / t.total / 1e9:7.2f} Gflop/s"
            lines.append(line)
        for name, v in sorted(self.counters.items()):
            if (
                not name.startswith(("bytes.", "flops."))
                and ".bytes." not in name
                and ".flops." not in name
            ):
                lines.append(f"{name:>24}: {v:,.0f}")
        for name, v in sorted(self.gauges.items()):
            lines.append(f"{name:>24}: {v:g}")
        for name, d in sorted(self.distributions.items()):
            lines.append(
                f"{name:>24}: {d.count:>6} x  mean {d.mean:12.2f}  "
                f"min {d.min:g}  max {d.max:g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"


class _NullMetrics(MetricsRegistry):
    """The disabled registry: every operation is a no-op.

    Like ``NULL_COUNTERS`` it is a process-wide shared singleton, so it
    must be impossible to corrupt: ``merge``/``merge_snapshot`` refuse to
    accumulate and attribute assignment raises.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "NULL_METRICS is a shared immutable sentinel; create a "
                "MetricsRegistry() to record metrics"
            )
        super().__setattr__(name, value)

    def span(self, name, phase=None, counters=None, **meta):
        return _NULL_SPAN

    def count(self, name, value=1) -> None:
        return

    def gauge(self, name, value) -> None:
        return

    def observe(self, name, value) -> None:
        return

    def merge_snapshot(self, snap, prefix="") -> "MetricsRegistry":
        return self

    def __reduce__(self) -> str:
        return "NULL_METRICS"  # unpickles as the receiving process's own


#: Shared no-op registry used as the default everywhere.
NULL_METRICS = _NullMetrics()

#: Process-wide registry for rare runtime health events that happen
#: outside any per-run registry — backend compile failures, quarantines,
#: fallback decisions.  Always enabled (the events are rare enough that
#: the cost is irrelevant); callers wanting these events in a run report
#: merge it into their own registry.
GLOBAL_METRICS = MetricsRegistry()
