"""Byte/flop accounting used to validate the paper's Table I.

Every kernel charges the *minimum* data traffic of its call (compulsory
loads and stores, assuming perfect caching — exactly the accounting of
paper Table I) and its executed flops to the run's one sink, a
:class:`~repro.obs.metrics.MetricsRegistry`.  :class:`PerfCounters` is
that sink read as the fold of its traffic table by kernel family, and
:data:`NULL_COUNTERS` is the one disabled sink (the same object as
:data:`repro.obs.NULL_METRICS`); both live in :mod:`repro.obs.metrics`.
"""

from repro.obs.metrics import NULL_METRICS as NULL_COUNTERS
from repro.obs.metrics import PerfCounters

__all__ = ["NULL_COUNTERS", "PerfCounters"]
