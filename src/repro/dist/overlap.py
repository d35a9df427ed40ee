"""Communication-computation overlap: interior/boundary row splitting.

The classic halo-hiding technique (and the natural companion of the
paper's pipelining outlook): rows whose matrix entries reference only
local columns — the *interior* — can be multiplied while the halo
exchange is in flight; only the *boundary* rows must wait for remote
data. This module computes the split for a partitioned matrix, provides
a two-phase local SpMMV that exploits it, and models the hidden time.

Two split representations serve two purposes:

* :class:`OverlapSplit` (:func:`split_for_overlap`) — the *analysis*
  split: scattered interior/boundary index sets with extracted
  sub-matrices, feeding the time model and the two-phase reference
  product.
* :class:`TaskSplit` (:func:`task_split`) — the *execution* split the
  task-mode engines run: the interior is the largest **contiguous** run
  of halo-free rows (so the split kernels index the original local
  matrix in place, no extraction), everything else is a gathered
  boundary row list.  Both kernel backends consume it through their
  ``aug_spm(m)v_interior`` / ``..._boundary`` split kernels.

The functional result is identical to the plain local product (tested);
the benefit appears in the time model: per iteration, the exposed
communication shrinks from ``t_halo`` to ``max(0, t_halo - t_interior)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.halo import RankBlock
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmmv
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.knobs import OVERLAP_CHOICES, resolve_overlap  # noqa: F401  (re-exported)


@dataclass
class OverlapSplit:
    """Interior/boundary row split of one rank's local matrix.

    ``interior`` and ``boundary`` are local row indices; ``interior_matrix``
    contains only the interior rows (all columns < n_local), while
    ``boundary_matrix`` has the boundary rows with the full local+halo
    column range.
    """

    interior: np.ndarray
    boundary: np.ndarray
    interior_matrix: CSRMatrix
    boundary_matrix: CSRMatrix
    n_local: int

    @property
    def interior_fraction(self) -> float:
        total = self.interior.size + self.boundary.size
        return self.interior.size / total if total else 1.0


def split_for_overlap(block: RankBlock) -> OverlapSplit:
    """Split a rank's rows into halo-independent and halo-dependent."""
    mat = block.matrix
    n_local = block.n_local
    rows = np.repeat(np.arange(mat.n_rows), mat.nnz_per_row)
    touches_halo = np.zeros(mat.n_rows, dtype=bool)
    np.logical_or.at(
        touches_halo, rows, mat.indices.astype(np.int64) >= n_local
    )
    interior = np.nonzero(~touches_halo)[0]
    boundary = np.nonzero(touches_halo)[0]

    def extract(row_set: np.ndarray, n_cols: int) -> CSRMatrix:
        if row_set.size == 0:
            return CSRMatrix(
                np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32),
                np.empty(0, dtype=DTYPE), (0, n_cols),
            )
        parts_idx = []
        parts_val = []
        indptr = np.zeros(row_set.size + 1, dtype=np.int64)
        for k, r in enumerate(row_set.tolist()):
            lo, hi = mat.indptr[r], mat.indptr[r + 1]
            parts_idx.append(mat.indices[lo:hi])
            parts_val.append(mat.data[lo:hi])
            indptr[k + 1] = indptr[k] + (hi - lo)
        return CSRMatrix(
            indptr,
            np.concatenate(parts_idx) if parts_idx else np.empty(0, np.int32),
            np.concatenate(parts_val) if parts_val else np.empty(0, DTYPE),
            (row_set.size, n_cols),
        )

    return OverlapSplit(
        interior=interior,
        boundary=boundary,
        interior_matrix=extract(interior, n_local),
        boundary_matrix=extract(boundary, mat.n_cols),
        n_local=n_local,
    )


@dataclass(frozen=True)
class TaskSplit:
    """Execution-level interior/boundary split of one rank's local matrix.

    Unlike :class:`OverlapSplit` (scattered index sets plus extracted
    sub-matrices, for analysis), this is the shape the task-mode engines
    actually run: ``[row0, row1)`` is the largest *contiguous* run of
    halo-free rows — the split kernels traverse it on the original local
    matrix with absolute indexing — and ``boundary`` gathers every other
    local row (sorted ascending).  Halo-free rows that fall outside the
    contiguous run are deliberately classified as boundary: they could
    run early, but a contiguous interior keeps the hot phase a single
    streaming pass (and the loss is small on banded partitions, where
    the halo-touching rows cluster at the block edges).

    ``nnz_interior`` / ``nnz_boundary`` drive the overlap time model
    with the *same* split the kernels execute, so the model's hidden
    fraction and the measured one are comparable.  ``n_cols`` is the
    local+halo column count of the rank's matrix — the analytic charge
    model (:func:`repro.perf.report.expected_counters`) needs it to
    price this rank's index stream under a narrow precision profile
    (uint16 iff ``n_cols`` fits).
    """

    row0: int
    row1: int
    boundary: np.ndarray
    n_rows: int
    nnz_interior: int
    nnz_boundary: int
    n_cols: int = 0

    @property
    def n_interior(self) -> int:
        return self.row1 - self.row0

    @property
    def n_boundary(self) -> int:
        return int(self.boundary.size)

    @property
    def interior_fraction(self) -> float:
        """Interior share of the local compute, weighted by nnz.

        The split kernels stream matrix slots, so nnz (not rows) is the
        proxy for phase-1 compute time in
        :func:`exposed_communication_time`.
        """
        total = self.nnz_interior + self.nnz_boundary
        return self.nnz_interior / total if total else 1.0


def task_split(block: RankBlock) -> TaskSplit:
    """Compute the execution split the task-mode engines run.

    Interior = the largest contiguous run of rows whose entries reference
    only local columns (``< n_local``); boundary = every other row,
    gathered sorted.  Degenerate blocks are handled: no halo at all
    yields an all-interior split (empty boundary), an all-halo block an
    empty interior (``row0 == row1``).
    """
    mat = block.matrix
    n_local = block.n_local
    rows = np.repeat(np.arange(mat.n_rows), mat.nnz_per_row)
    touches_halo = np.zeros(mat.n_rows, dtype=bool)
    np.logical_or.at(
        touches_halo, rows, mat.indices.astype(np.int64) >= n_local
    )
    free = ~touches_halo
    # longest run of True in ``free``: diff of the padded mask gives the
    # run starts (+1) and stops (-1)
    row0 = row1 = 0
    if free.any():
        edges = np.diff(np.concatenate(([False], free, [False])).astype(np.int8))
        starts = np.nonzero(edges == 1)[0]
        stops = np.nonzero(edges == -1)[0]
        k = int(np.argmax(stops - starts))
        row0, row1 = int(starts[k]), int(stops[k])
    in_interior = np.zeros(mat.n_rows, dtype=bool)
    in_interior[row0:row1] = True
    boundary = np.nonzero(~in_interior)[0].astype(np.int64)
    per_row = mat.nnz_per_row
    nnz_interior = int(per_row[row0:row1].sum())
    return TaskSplit(
        row0=row0, row1=row1, boundary=boundary, n_rows=mat.n_rows,
        nnz_interior=nnz_interior,
        nnz_boundary=int(mat.nnz - nnz_interior),
        n_cols=mat.n_cols,
    )


def two_phase_spmmv(
    split: OverlapSplit,
    v_local: np.ndarray,
    halo: np.ndarray,
    out: np.ndarray | None = None,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Local SpMMV in two phases: interior (pre-halo) then boundary.

    In a real asynchronous implementation phase 1 runs while the halo
    exchange progresses; here the phases run back to back but the result
    is identical to the single-phase product (tested), and the split
    sizes feed :func:`exposed_communication_time`.
    """
    # storage-dtype generic: (n, r) complex or (n, r, 2) f16 pair layout
    if out is None:
        out = np.empty((split.n_local, *v_local.shape[1:]),
                       dtype=v_local.dtype)
    if split.interior.size:
        out[split.interior] = spmmv(
            split.interior_matrix, np.ascontiguousarray(v_local),
            counters=counters,
        )
    if split.boundary.size:
        x = np.ascontiguousarray(np.vstack([v_local, halo]))
        out[split.boundary] = spmmv(
            split.boundary_matrix, x, counters=counters
        )
    return out


def exposed_communication_time(
    t_halo: float, t_compute: float, interior_fraction: float
) -> float:
    """Per-iteration communication left exposed after overlap.

    The interior share of the compute hides the exchange; only the
    remainder is visible:
    ``max(0, t_halo - interior_fraction * t_compute)``.
    """
    if not 0.0 <= interior_fraction <= 1.0:
        raise ValueError(
            f"interior_fraction must be in [0, 1], got {interior_fraction}"
        )
    if t_halo < 0 or t_compute < 0:
        raise ValueError("times must be non-negative")
    return max(0.0, t_halo - interior_fraction * t_compute)
