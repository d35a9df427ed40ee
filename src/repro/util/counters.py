"""Byte/flop accounting used to validate the paper's Table I.

Every computational kernel in :mod:`repro.sparse` optionally accepts a
:class:`PerfCounters` instance and charges to it the *minimum* data traffic
(compulsory loads and stores, assuming perfect caching — exactly the
accounting of paper Table I) and the executed flops. The instrumentation is
free when the default :data:`NULL_COUNTERS` sentinel is used.

Traffic actually observed on hardware is larger by the factor
``Omega = V_meas / V_KPM`` (paper Eq. (8)); *that* quantity comes from the
cache simulator in :mod:`repro.perf.cachesim`, not from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType


@dataclass
class PerfCounters:
    """Accumulates minimum byte traffic and executed flops per kernel class.

    Attributes
    ----------
    bytes_loaded:
        Compulsory bytes read from memory (matrix data, indices, vectors).
    bytes_stored:
        Compulsory bytes written to memory.
    flops:
        Real floating-point operations executed.
    calls:
        Number of kernel invocations per kernel name.
    """

    bytes_loaded: int = 0
    bytes_stored: int = 0
    flops: int = 0
    calls: dict = field(default_factory=dict)
    enabled: bool = True

    def charge(self, name: str, *, loads: int = 0, stores: int = 0, flops: int = 0) -> None:
        """Charge one kernel invocation.

        Parameters
        ----------
        name:
            Kernel identifier (e.g. ``"spmv"``, ``"axpy"``, ``"aug_spmmv"``).
        loads, stores:
            Minimum bytes read / written by this invocation.
        flops:
            Real flops executed by this invocation.
        """
        if not self.enabled:
            return
        self.bytes_loaded += int(loads)
        self.bytes_stored += int(stores)
        self.flops += int(flops)
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def bytes_total(self) -> int:
        """Total compulsory traffic (loads + stores)."""
        return self.bytes_loaded + self.bytes_stored

    @property
    def code_balance(self) -> float:
        """Achieved minimum code balance in bytes/flop (inf when flops==0)."""
        if self.flops == 0:
            return float("inf")
        return self.bytes_total / self.flops

    def reset(self) -> None:
        """Zero all counters and call tallies."""
        self.bytes_loaded = 0
        self.bytes_stored = 0
        self.flops = 0
        self.calls.clear()

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into ``self`` and return ``self``."""
        self.bytes_loaded += other.bytes_loaded
        self.bytes_stored += other.bytes_stored
        self.flops += other.flops
        for k, v in other.calls.items():
            self.calls[k] = self.calls.get(k, 0) + v
        return self

    def to_dict(self) -> dict:
        """JSON-serializable dump (e.g. for shipping between processes)."""
        return {
            "bytes_loaded": self.bytes_loaded,
            "bytes_stored": self.bytes_stored,
            "flops": self.flops,
            "calls": dict(self.calls),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PerfCounters":
        """Rebuild a counter set from :meth:`to_dict` output."""
        return cls(
            bytes_loaded=int(d.get("bytes_loaded", 0)),
            bytes_stored=int(d.get("bytes_stored", 0)),
            flops=int(d.get("flops", 0)),
            calls={str(k): int(v) for k, v in d.get("calls", {}).items()},
        )

    def summary(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"PerfCounters(bytes={self.bytes_total}, flops={self.flops}, "
            f"balance={self.code_balance:.4g} B/F, calls={dict(self.calls)})"
        )


class _NullCounters(PerfCounters):
    """The disabled counter sink — a shared, *immutable* singleton.

    Because :data:`NULL_COUNTERS` is the process-wide default of every
    kernel, any mutation would silently poison every later read (e.g.
    ``code_balance`` of a run that never asked for accounting).  Every
    mutating operation is therefore overridden: ``charge``, ``merge``
    and ``reset`` are no-ops (``merge`` notably must not fall through to
    :meth:`PerfCounters.merge`, which accumulates into ``self``), and
    direct attribute assignment raises.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.calls = MappingProxyType({})  # even calls[...] = 1 raises
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "NULL_COUNTERS is a shared immutable sentinel; create a "
                "PerfCounters() to accumulate measurements"
            )
        super().__setattr__(name, value)

    def charge(self, name: str, *, loads: int = 0, stores: int = 0, flops: int = 0) -> None:
        return

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        return self

    def reset(self) -> None:
        return

    def __reduce__(self) -> str:
        return "NULL_COUNTERS"  # unpickles as the receiving process's own


#: Shared no-op counters used as the default for all kernels.
NULL_COUNTERS = _NullCounters()
