"""Runtime observability: structured metrics and span tracing.

The measurement side of the paper's methodology at runtime — wall-clock
spans that carry their kernels' Table-I bytes and flops, JSONL traces —
in one sink with a free no-op default, so the hot paths stay
uninstrumented unless asked.

See :mod:`repro.obs.metrics` and :mod:`repro.obs.trace`; the validation
side (measured vs. analytic model) lives in :mod:`repro.perf.report`,
and the tests hold measured == model on every engine.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "metrics": ("GLOBAL_METRICS", "NULL_METRICS", "MetricsRegistry",
                "TimerStat"),
    "trace": ("Trace", "aggregate_spans", "read_trace"),
})
