"""Row partitioning, including the paper's weighted heterogeneous scheme
and the throughput fixed point that tunes its weights.

"An intrinsic property of heterogeneous systems is that the components
usually do not only differ in architecture but also in performance. For
optimal load balancing this difference has to be taken into account for
work distribution. In our execution environment a weight has to be
provided for each process. From this weight we compute the amount of
matrix/vector rows that get assigned to it." (paper Section VI-A)

Rows are assigned as contiguous blocks (the data-parallel slab
decomposition); block boundaries can be aligned (e.g. to the 4-orbital
spinor blocks of the TI matrix, or to a SELL chunk height).  The
distributed engines need ``align=64``: every rank starts on a 64-row
eta block (DESIGN §19).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.util.errors import PartitionError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class RowPartition:
    """Contiguous row blocks: rank p owns rows [offsets[p], offsets[p+1])."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        off = self.offsets
        if len(off) < 2:
            raise PartitionError("partition needs at least one rank")
        if off[0] != 0:
            raise PartitionError(f"offsets must start at 0, got {off[0]}")
        if any(b < a for a, b in zip(off, off[1:])):
            raise PartitionError(f"offsets must be non-decreasing: {off}")

    # ------------------------------------------------------------------
    @classmethod
    def equal(cls, n_rows: int, n_ranks: int, align: int = 1) -> "RowPartition":
        """Near-equal contiguous blocks."""
        return cls.from_weights(n_rows, [1.0] * n_ranks, align=align)

    @classmethod
    def from_weights(
        cls, n_rows: int, weights, align: int = 1
    ) -> "RowPartition":
        """Blocks proportional to ``weights``, aligned to ``align`` rows.

        The ideal cumulative boundaries ``n * cumsum(w) / sum(w)`` are
        rounded to the nearest multiple of ``align`` (the last boundary is
        pinned to ``n_rows``); a rank may end up empty if its weight is
        tiny relative to the alignment granularity.
        """
        check_positive("n_rows", n_rows)
        check_positive("align", align)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise PartitionError(f"weights must be a non-empty 1-D sequence")
        if np.any(w < 0) or w.sum() <= 0:
            raise PartitionError(f"weights must be non-negative with positive sum")
        ideal = n_rows * np.cumsum(w) / w.sum()
        bounds = (np.round(ideal / align) * align).astype(np.int64)
        bounds[-1] = n_rows
        bounds = np.minimum(np.maximum.accumulate(bounds), n_rows)
        return cls((0, *bounds.tolist()))

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_rows(self) -> int:
        return self.offsets[-1]

    def bounds(self, rank: int) -> tuple[int, int]:
        """(first_row, one_past_last_row) of ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise PartitionError(
                f"rank {rank} outside partition of {self.n_ranks} ranks"
            )
        return self.offsets[rank], self.offsets[rank + 1]

    def slice_of(self, rank: int) -> slice:
        """``rank``'s rows as a slice — zero-copy views into shared arrays."""
        lo, hi = self.bounds(rank)
        return slice(lo, hi)

    def counts(self) -> np.ndarray:
        """Rows per rank."""
        return np.diff(np.asarray(self.offsets, dtype=np.int64))

    def owner_of(self, rows) -> np.ndarray:
        """Owning rank of each global row index (vectorized)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise PartitionError("row index outside the partitioned range")
        return np.searchsorted(np.asarray(self.offsets), rows, side="right") - 1

    def to_local(self, rows) -> np.ndarray:
        """Local index of each global row within its owner's block."""
        rows = np.asarray(rows, dtype=np.int64)
        owners = self.owner_of(rows)
        return rows - np.asarray(self.offsets)[owners]

    def imbalance(self, weights=None) -> float:
        """Max over ranks of (assigned rows / ideal rows); 1.0 is perfect."""
        counts = self.counts().astype(float)
        if weights is None:
            ideal = np.full(self.n_ranks, self.n_rows / self.n_ranks)
        else:
            w = np.asarray(weights, dtype=float)
            ideal = self.n_rows * w / w.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ideal > 0, counts / ideal, np.inf)
        return float(np.max(ratio))


def weights_from_performance(gflops: list[float]) -> list[float]:
    """Normalize device performances into partition weights.

    "A good guess is to calculate the weights from the single-device
    performance numbers" (paper Section VI-B); the benches also sweep
    perturbations of this guess to mirror the paper's experimental
    weight tuning.
    """
    g = np.asarray(gflops, dtype=float)
    if np.any(g <= 0):
        raise PartitionError("device performances must be positive")
    return (g / g.sum()).tolist()


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
